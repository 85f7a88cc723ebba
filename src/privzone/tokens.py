"""Token generation: deterministic coding-tree minimization and baselines.

A token is a fixed-width pattern over {0,1,*}; it matches every cell index
that agrees with it on all non-star positions.  The coding-tree minimizer
maps alert cells to leaf positions, splits them into runs of consecutive
positions, and walks up the coding tree's node table from the start of
each run: it emits the lowest node whose leaf range is the widest that
starts there and stays inside the run, then continues after that range.
The fixed-length baseline minimizes the raw indexes as boolean cubes
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from . import kernels
from .encoding import CellIndexMap, CodingTree
from .errors import ParameterError, UnknownIndexError
from .grid import AlertZone


@dataclass(frozen=True)
class TokenSet:
    """Patterns covering one alert zone; patterns never overlap."""

    tokens: tuple[str, ...]
    source_zone: Optional[AlertZone]

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self):
        return len(self.tokens)


def token_matches(token: str, index: str) -> bool:
    """True iff every non-star token position equals the index bit."""
    if len(token) != len(index):
        raise ParameterError(f"width mismatch: token {len(token)}, index {len(index)}")
    if "*" in index:
        raise ParameterError("indexes may not contain stars")
    return all(t == "*" or t == i for t, i in zip(token, index))


def pairing_cost(tokens: Union[TokenSet, Iterable[str]]) -> int:
    """Number of pairing sets a token set costs: its non-star positions."""
    patterns = tokens.tokens if isinstance(tokens, TokenSet) else tokens
    return sum(len(p) - p.count("*") for p in patterns)


def index_to_codeword(index: str, coding_tree: CodingTree) -> tuple[str, int]:
    """Unique leaf codeword for a cell index, plus its leaf position."""
    try:
        position = coding_tree.index_by_string[index]
    except KeyError:
        raise UnknownIndexError(f"index {index!r} is not derived from any leaf") from None
    return coding_tree.codewords[position], position


def _cover_run(coding_tree: CodingTree, i: int, last: int, tokens: list[str]) -> None:
    """Append subtree-root codewords covering leaf positions [i, last).

    From leaf i, climb while the parent's leaf range still starts at i and
    ends by ``last``; emit the lowest node with the widest range met (a
    node is kept only when the range strictly grows, so a single-child
    chain emits its lowest node), then continue after that range.
    """
    parent, lo, hi = coding_tree.parent, coding_tree.lo, coding_tree.hi
    while i < last:
        best = i
        up = parent[i]
        while up >= 0 and lo[up] == i and hi[up] <= last:
            if hi[up] > hi[best]:
                best = up
            up = parent[up]
        tokens.append(coding_tree.codewords[best])
        i = hi[best]


def minimize_tokens(alert_cells: Sequence[str], coding_tree: CodingTree) -> TokenSet:
    """Deterministic minimization of an alert zone over the coding tree."""
    if not alert_cells:
        return TokenSet(tokens=(), source_zone=None)
    positions = sorted({index_to_codeword(ix, coding_tree)[1] for ix in alert_cells})
    tokens: list[str] = []
    start = positions[0]
    for pos, following in zip(positions, positions[1:] + [-1]):
        if following != pos + 1:
            _cover_run(coding_tree, start, pos + 1, tokens)
            start = following
    zone = AlertZone(cell_ids=frozenset(coding_tree.leaf_cells[p] for p in positions))
    return TokenSet(tokens=tuple(tokens), source_zone=zone)


def fixed_length_minimize(alert_cells: Sequence[str]) -> TokenSet:
    """Exact cover of fixed-length indexes by disjoint implicants.

    Prime implicants are computed Quine-McCluskey style (iterative
    single-bit merging) over the alert set alone, so no emitted pattern
    can match a non-alerted index; a greedy pass then selects a disjoint
    exact cover.
    """
    if not alert_cells:
        return TokenSet(tokens=(), source_zone=None)
    width = len(alert_cells[0])
    if width == 0:
        raise ParameterError("index width must be at least 1")
    uniq = sorted(set(alert_cells))
    for ix in uniq:
        if len(ix) != width:
            raise ParameterError("all indexes must have equal width")
        if ix.strip("01"):
            raise ParameterError(f"index {ix!r} must be binary")
    minterms = [int(ix, 2) for ix in uniq]
    minterms.sort()
    cubes = kernels.minimize_patterns(minterms, width)
    tokens = tuple(_cube_to_pattern(v, m, width) for v, m in cubes)
    zone = AlertZone(cell_ids=frozenset(minterms))
    return TokenSet(tokens=tokens, source_zone=zone)


def _cube_to_pattern(value: int, mask: int, width: int) -> str:
    chars = list(format(value, f"0{width}b"))
    while mask:
        bit = mask & -mask
        chars[width - bit.bit_length()] = "*"
        mask ^= bit
    return "".join(chars)


def coverage_oracle(tokens: TokenSet, index_map: CellIndexMap) -> tuple[set[int], set[int]]:
    """Brute-force evaluation of every cell index against every token."""
    covered = {
        cid
        for cid, ix in index_map.entries.items()
        if any(token_matches(t, ix) for t in tokens.tokens)
    }
    zone_ids = tokens.source_zone.cell_ids if tokens.source_zone is not None else frozenset()
    return covered, covered - zone_ids
