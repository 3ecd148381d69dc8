"""Fixed reference task that gauges the machine's current speed.

    python3 perfbench/speed.py

It does the kinds of work a ``diffesc`` command does, in the same
proportions, without importing ``diffesc``: interpreter start and the
NumPy/SciPy imports, a fixed loop of 101-node tridiagonal solves with scalar
updates, and formatting and hashing its trajectory.  Its cost never changes
with the tree under test, so the time it takes is a measure of the machine
alone.  It prints the SHA-256 of its trajectory.
"""
import hashlib
import math

import numpy as np
from scipy.linalg import solve_banded

NODES = 101
STEPS = 10000
RECORD_EVERY = 10


def main() -> str:
    bands = np.zeros((3, NODES))
    bands[0, 1:] = -0.5
    bands[1] = 2.0
    bands[2, :-1] = -0.5
    v = np.zeros(NODES)
    theta = acc = 0.0
    rows = []
    for i in range(STEPS):
        rhs = 0.5 * v
        rhs[-1] += 0.5 * theta
        v = solve_banded((1, 1), bands, rhs, check_finite=False)
        y = float(np.dot(v, v)) * 1e-2
        acc = 0.999 * acc + 1e-3 * math.sin(1e-2 * i) * y
        theta = math.cos(acc + 1e-3 * i)
        if i % RECORD_EVERY == 0:
            rows.append(f"{i},{theta!r},{y!r}")
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


if __name__ == "__main__":
    print(main())
