"""The machine's speed, read from a fixed pure-Python reference loop.

On a shared machine the same instructions run slower for seconds or
minutes at a time, in CPU time as much as in wall time.  The benchmark
times the reference loop at every block boundary and scales the block's
timings by ``REFERENCE_S`` over the loop's time there, so its figures are
what the machine gives when it runs at its reference speed.

The loop uses only the standard library and objects of its own, made at
import, and runs with the garbage collector off, so neither privzone's
code nor the size of its heap can change the loop's time.  Its mix of
sorting, dict and set work, bit-string parsing and modular powers is the
kind of work privzone's pure-Python code does.  This module imports
neither numpy nor privzone.
"""

from __future__ import annotations

import gc
import random
import time

# The loop's fastest time (best of 3) on a quiet 2-vCPU Intel Xeon at 2.1 GHz
# under CPython 3.11.  Scaled timings are in seconds of that machine.
REFERENCE_S = 0.0075

_rng = random.Random(2021)
_INTS = [_rng.getrandbits(30) for _ in range(6000)]
_PATTERNS = ["".join(_rng.choice("01*") for _ in range(24)) for _ in range(1500)]


def _loop() -> int:
    ordered = sorted(_INTS)
    position = {x: i for i, x in enumerate(ordered)}
    total = sum(position[x] ^ (x >> 3) for x in _INTS)
    common = set(_INTS[::2]) & set(_INTS[::3])
    masks = [int(p.replace("*", "0"), 2) & int(p.replace("0", "1").replace("*", "0"), 2) for p in _PATTERNS]
    powers = [pow(x | 1, 65537, 4294967311) for x in _INTS[:1500]]
    return total + len(common) + sum(masks) + sum(powers)


def reference_s(repeats: int = 3) -> float:
    """The loop's fastest time over ``repeats`` runs, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two readings of the loop
    into seconds of the reference machine."""
    return 2 * REFERENCE_S / (before_s + after_s)
