"""The calibration kernel: fixed work that never calls orbitgcd.

It imports only math and time, so a fresh interpreter can time it next to
`import orbitgcd.cli` without loading anything that import would load.
"""

import math
import time

_A = 3 ** 9000
_B = 5 ** 7000


def calibrate() -> float:
    """Seconds for one run of the kernel: a bytecode loop, dictionary
    updates, and big-integer gcd and products."""
    t = time.perf_counter()
    x = 0
    for i in range(3000):
        x += i * i
    d = {}
    for i in range(500):
        d[(i, i + 1)] = d.get((i, i + 1), 0) + i
    for _ in range(3):
        math.gcd(_A, _B)
        _A * _B
    return time.perf_counter() - t
