"""Entry points for the minimization kernels in ``_qmcore_py``.

One pure-Python implementation serves every width: a dense bitset
prime-implicant kernel up to width 16, a merge loop above it, and a
static-order greedy cover.  ``available_backends`` and
``default_backend`` name it ``"python"``.
"""

from __future__ import annotations

from . import _qmcore_py


def available_backends() -> list[str]:
    return ["python"]


def default_backend(width: int) -> str:
    return "python"


def minimize_patterns(minterms: list[int], width: int) -> list[tuple[int, int]]:
    """Prime implicants plus greedy disjoint cover, as (value, mask) cubes."""
    primes = _qmcore_py.prime_implicants(minterms, width)
    return _qmcore_py.select_cover(primes, minterms, width)
