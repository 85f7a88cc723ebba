"""Token generation: deterministic coding-tree minimization and baselines.

A token is a fixed-width pattern over {0,1,*}; it matches every cell index
that agrees with it on all non-star positions.  The coding-tree minimizer
maps alert cells to leaves, clusters consecutive leaf positions, and emits
the deepest subtree roots that cover whole clusters.  The fixed-length
baseline minimizes the raw indexes as boolean cubes instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from . import kernels
from .encoding import CellIndexMap, CodingTree, expand_bary
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
    return coding_tree.leaf_order[position], position


def _cluster_tokens(cluster: list[str], width: int, parent_counts: dict[str, int]) -> list[str]:
    """Emit subtree-root codewords covering a run of consecutive leaves.

    For the first L codewords (L descending from the cluster size), their
    longest common prefix is star-padded to the full width and accepted
    when it is an internal codeword with exactly L descendant leaves.
    With no acceptable L >= 2, the first codeword itself is emitted.
    """
    tokens = []
    i = 0
    size = len(cluster)
    while i < size:
        remaining = size - i
        # lcp_len[j] = length of the common prefix of cluster[i .. i+j+1]
        lcp_len = []
        shortest = width
        for j in range(remaining - 1):
            a, b = cluster[i + j], cluster[i + j + 1]
            k = 0
            limit = min(shortest, width)
            while k < limit and a[k] == b[k]:
                k += 1
            shortest = min(shortest, k)
            lcp_len.append(shortest)
        consumed = 0
        candidate = None
        candidate_len = -1
        for length in range(remaining, 1, -1):
            mlen = lcp_len[length - 2]
            if mlen != candidate_len:
                candidate_len = mlen
                candidate = cluster[i][:mlen] + "*" * (width - mlen)
            if parent_counts.get(candidate) == length:
                tokens.append(candidate)
                consumed = length
                break
        if not consumed:
            tokens.append(cluster[i])
            consumed = 1
        i += consumed
    return tokens


def minimize_tokens(alert_cells: Sequence[str], coding_tree: CodingTree) -> TokenSet:
    """Deterministic minimization of an alert zone over the coding tree."""
    if not alert_cells:
        return TokenSet(tokens=(), source_zone=None)
    positions = sorted({index_to_codeword(ix, coding_tree)[1] for ix in alert_cells})
    clusters: list[list[int]] = [[positions[0]]]
    for pos in positions[1:]:
        if pos == clusters[-1][-1] + 1:
            clusters[-1].append(pos)
        else:
            clusters.append([pos])
    symbol_width = coding_tree.rl
    tokens: list[str] = []
    for run in clusters:
        cluster = [coding_tree.symbol_leaf_order[p] for p in run]
        tokens.extend(_cluster_tokens(cluster, symbol_width, coding_tree.symbol_parent_counts))
    if coding_tree.arity > 2:
        tokens = [expand_bary(t, coding_tree.arity) for t in tokens]
    zone = AlertZone(cell_ids=frozenset(coding_tree.leaf_cells[p] for p in positions))
    return TokenSet(tokens=tuple(tokens), source_zone=zone)


def fixed_length_minimize(alert_cells: Sequence[str], backend: Optional[str] = None) -> TokenSet:
    """Exact cover of fixed-length indexes by disjoint implicants.

    Prime implicants are computed Quine-McCluskey style (iterative
    single-bit merging) over the alert set alone, so no emitted pattern
    can match a non-alerted index; a greedy pass then selects a disjoint
    exact cover.
    """
    if not alert_cells:
        return TokenSet(tokens=(), source_zone=None)
    width = len(alert_cells[0])
    uniq = sorted(set(alert_cells))
    for ix in uniq:
        if len(ix) != width:
            raise ParameterError("all indexes must have equal width")
        if ix.strip("01"):
            raise ParameterError(f"index {ix!r} must be binary")
    minterms = [int(ix, 2) for ix in uniq]
    minterms.sort()
    cubes = kernels.minimize_patterns(minterms, width, backend=backend)
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
