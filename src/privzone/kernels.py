"""Entry points for the minimization kernels in ``_qmcore_py``.

One pure-Python implementation serves every width: a dense bitset
prime-implicant kernel up to width 16, a merge loop above it, and a
static-order greedy cover.  ``backend=`` accepts only ``None`` or
``"python"``.
"""

from __future__ import annotations

from . import _qmcore_py
from .errors import ParameterError


def available_backends() -> list[str]:
    return ["python"]


def default_backend(width: int) -> str:
    return "python"


def _resolve(backend: str | None):
    if backend not in (None, "python"):
        raise ParameterError(f"unknown kernel backend {backend!r}")
    return _qmcore_py


def minimize_patterns(
    minterms: list[int], width: int, backend: str | None = None
) -> list[tuple[int, int]]:
    """Prime implicants plus greedy disjoint cover, as (value, mask) cubes."""
    impl = _resolve(backend)
    primes = impl.prime_implicants(minterms, width)
    return impl.select_cover(primes, minterms, width)


def prime_implicants(minterms, width, backend=None):
    return _resolve(backend).prime_implicants(minterms, width)


def select_cover(primes, minterms, width, backend=None):
    return _resolve(backend).select_cover(primes, minterms, width)
