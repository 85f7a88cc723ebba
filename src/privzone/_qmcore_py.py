"""Pure-Python minimization kernels.

Cubes are (value, mask) integer pairs over ``width`` bits: mask bits are
star positions, value bits are fixed (zero at star positions).  Bit k of
an integer corresponds to string position width-1-k.
"""

from __future__ import annotations

from functools import lru_cache

# Widest pattern the dense bitset kernel handles: its bitsets hold 2**width
# bits, 8 KiB each at width 16.  Wider inputs take the merge loop.
_BITSET_MAX_WIDTH = 16


def prime_implicants(minterms: list[int], width: int) -> list[tuple[int, int]]:
    """Maximal cubes lying entirely inside the minterm set.

    Returned sorted by (value, mask).  Up to width 16 the cubes of each
    mask are held as one dense bitset; wider inputs are merged pairwise.
    """
    if width > _BITSET_MAX_WIDTH:
        return _merge_prime_implicants(minterms, width)
    return _bitset_prime_implicants(minterms, width)


def _merge_prime_implicants(minterms: list[int], width: int) -> list[tuple[int, int]]:
    """Iteratively merges same-mask cubes differing in exactly one non-star
    bit; cubes that never merge are prime."""
    full = (1 << width) - 1
    level = {(v, 0) for v in minterms}
    primes = []
    while level:
        used = set()
        nxt = set()
        for v, m in level:
            free = full & ~m
            while free:
                bit = free & -free
                free ^= bit
                if (v ^ bit, m) in level:
                    used.add((v, m))
                    nxt.add((v & ~bit, m | bit))
        primes.extend(c for c in level if c not in used)
        level = nxt
    primes.sort()
    return primes


@lru_cache(maxsize=None)
def _low_halves(width: int) -> tuple[int, ...]:
    """Entry b is the 2**width-bit set of the indexes whose bit b is 0."""
    size = 1 << width
    low = []
    for b in range(width):
        step = 1 << b
        # A block of `step` ones then `step` zeros, repeated over `size` bits.
        repeat = ((1 << size) - 1) // ((1 << (2 * step)) - 1)
        low.append(((1 << step) - 1) * repeat)
    return tuple(low)


def _bitset_prime_implicants(minterms: list[int], width: int) -> list[tuple[int, int]]:
    """Bit v of ``inside[m]`` is set when the cube (v, m) lies in the set.

    Widening mask m by a free bit b keeps the v whose partner v | 1 << b
    is also inside: ``inside[m] & inside[m] >> (1 << b)``, restricted to the
    v with bit b clear.  A cube of mask m is prime when no such widening
    contains it, i.e. it is neither half of any cube one level up.
    """
    low = _low_halves(width)
    level = {0: sum(1 << v for v in set(minterms))}
    primes = []
    while level:
        nxt: dict[int, int] = {}
        for m, inside in level.items():
            merged = 0
            for b in range(width):
                bit = 1 << b
                if m & bit:
                    continue
                wider = nxt.get(m | bit)
                if wider is None:
                    wider = nxt[m | bit] = inside & (inside >> bit) & low[b]
                if wider:
                    merged |= wider | (wider << bit)
            rest = inside & ~merged
            if rest:
                bits = bin(rest)[:1:-1]
                v = bits.find("1")
                while v >= 0:
                    primes.append((v, m))
                    v = bits.find("1", v + 1)
        level = {m: inside for m, inside in nxt.items() if inside}
    primes.sort()
    return primes


def select_cover(
    primes: list[tuple[int, int]], minterms: list[int], width: int
) -> list[tuple[int, int]]:
    """Greedy disjoint exact cover of the minterms by primes or singletons.

    The greedy picks, among the cubes not overlapping any cube already
    picked, the one covering the most new minterms, ties broken on
    (fewest stars, value, mask).  Every prime lies inside the minterm set,
    so a cube that overlaps no picked cube has none of its minterms covered
    yet: its gain is its full size 2**stars and its key never changes while
    it stays eligible.  The greedy therefore equals one walk over the primes
    of size >= 2 in the static order (-2**stars, value, mask), keeping each
    prime disjoint from those kept, followed by every still-uncovered
    minterm as a singleton in ascending order.

    Every selected cube lies inside the minterm set (no false positives)
    and the selected cubes are pairwise pattern-disjoint, so each index
    matches at most one emitted token.
    """
    chosen: list[tuple[int, int]] = []
    for v, m in sorted({c for c in primes if c[1]}, key=lambda c: (-c[1].bit_count(), c)):
        # Patterns overlap unless some position is fixed differently.
        if all((v ^ cv) & ~m & ~cm for cv, cm in chosen):
            chosen.append((v, m))
    covered = set()
    for v, m in chosen:
        sub = m
        while True:
            covered.add(v | sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    chosen.extend((v, 0) for v in sorted(set(minterms) - covered))
    return chosen
