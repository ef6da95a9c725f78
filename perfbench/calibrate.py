"""Fixed reference work that gauges the machine's speed at the moment it runs.

    python3 perfbench/calibrate.py OUT_PATH

It does the kind of work a `lyapint` process does, without the program's
code: start Python, import numpy, step a small Kepler-like state with
numpy ufuncs on 3-vectors and 3x3 matrices, take a small SVD and solve
(LAPACK, as projection and the diagnostics do), format every state at 17
significant digits and write the rows to OUT_PATH. The work never changes,
so its spawn-to-exit time moves only with the machine: run.py times it
next to each operation and rescales the operation's times by it.
"""

import sys

import numpy as np

STEPS = 3000


def main(out_path: str) -> int:
    x = np.array([1.0, 0.0, 0.0, 0.0, 1.3, 0.0])
    frame = np.eye(3)
    rows = []
    for _ in range(STEPS):
        q, v = x[:3], x[3:]
        r = float(np.sqrt(q @ q))
        momentum = np.cross(q, v)
        jacobian = np.vstack((q, v, momentum)) + frame
        sigma = np.linalg.svd(jacobian, compute_uv=False)
        dx = np.linalg.solve(jacobian @ jacobian.T + np.eye(3), q)
        frame = frame @ np.eye(3) + 1e-12 * np.outer(q, momentum)
        x = x + 1e-4 * np.concatenate((v, -q / r ** 3)) + 1e-15 * np.concatenate((dx, dx))
        rows.append(",".join(format(float(c), ".17g")
                             for c in (*x, float(sigma[0]), frame[0, 0])))
    with open(out_path, "w") as handle:
        handle.write("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
