"""Independent check of emitted tokens against every cell index of a grid.

Tokens and indexes are turned into integers here: an index is its bit
string read in base 2, and a token is a ``(value, care)`` pair whose care
bits are its non-star positions.  A token matches an index when the index
agrees with ``value`` on every care bit.  The check sweeps every cell of
the grid with numpy, 64 bits per word, and shares no code with privzone's
own matchers (``token_matches``, ``coverage_oracle``) or minimizers.

Overlap is judged on the cells of the grid: no cell index may match two
tokens.  Expanded B-ary tokens may overlap as patterns by design (their
free bits sit on sibling symbol markers), but never on a real index.
"""

from __future__ import annotations

import itertools

import numpy as np

_WORD = 64
_WORD_MASK = (1 << _WORD) - 1


def token_bits(token: str) -> tuple[int, int]:
    """``(value, care)``: fixed bits, and a 1 at every non-star position."""
    if not token or set(token) - {"0", "1", "*"}:
        raise ValueError(f"token {token!r} is not a pattern over 0, 1 and *")
    value = int(token.replace("*", "0"), 2)
    care = int(token.replace("0", "1").replace("*", "0"), 2)
    return value, care


def _split(x: int, words: int) -> list[int]:
    return [(x >> (_WORD * w)) & _WORD_MASK for w in range(words)]


class IndexTable:
    """Every cell's index as ``words`` uint64 columns, cell ids 0..n-1."""

    def __init__(self, entries: dict[int, str]):
        n = len(entries)
        if sorted(entries) != list(range(n)):
            raise ValueError("cell ids must be 0..n-1")
        self.n = n
        self.width = len(entries[0])
        self.words = -(-self.width // _WORD)
        columns = [[] for _ in range(self.words)]
        for cid in range(n):
            index = entries[cid]
            if len(index) != self.width or set(index) - {"0", "1"}:
                raise ValueError(f"cell {cid} has a malformed index {index!r}")
            for w, part in enumerate(_split(int(index, 2), self.words)):
                columns[w].append(part)
        self.columns = [np.array(col, dtype=np.uint64) for col in columns]

    def matches(self, token: str) -> np.ndarray:
        """Positions (cell ids) of the indexes the token matches, ascending."""
        if len(token) != self.width:
            raise ValueError(f"token width {len(token)} != index width {self.width}")
        value, care = token_bits(token)
        hit = None
        for column, v, c in zip(self.columns, _split(value, self.words), _split(care, self.words)):
            if not c:
                continue
            if hit is None:
                hit = np.flatnonzero((column & np.uint64(c)) == np.uint64(v))
            else:
                hit = hit[(column[hit] & np.uint64(c)) == np.uint64(v)]
        return np.arange(self.n) if hit is None else hit


def check_tokens(table: IndexTable, tokens, zone_cells) -> list[str]:
    """Problems with ``tokens`` as an exact, disjoint cover of ``zone_cells``.

    Returns an empty list when every zone cell matches exactly one token
    and no cell outside the zone matches any.
    """
    problems = []
    hits = np.zeros(table.n, dtype=np.int32)
    for token in tokens:
        try:
            hits[table.matches(token)] += 1
        except ValueError as exc:
            problems.append(str(exc))
    inside = np.zeros(table.n, dtype=bool)
    inside[list(zone_cells)] = True
    for label, bad in (
        ("gap: zone cells matched by no token", inside & (hits == 0)),
        ("false positive: cells outside the zone matched", ~inside & (hits > 0)),
        ("overlap: cells matched by more than one token", hits > 1),
    ):
        if bad.any():
            problems.append(f"{label}: {np.flatnonzero(bad)[:5].tolist()}")
    return problems


def non_star_count(tokens) -> int:
    """Pairing sets counted independently of ``tokens.pairing_cost``."""
    return sum(len(t) - t.count("*") for t in tokens)


def check_alert(result, tables: dict, pairing_cost) -> list[list[str]]:
    """Problems of each op of one alert, in op order; an empty list is a pass.

    ``result`` is a ``workloads.AlertResult``; ``tables`` maps each method
    to its :class:`IndexTable`.  Besides the cover checks this confirms
    privzone's ``pairing_cost`` against an independent count and, with
    users, every HVE decision against zone membership and the pairing
    counter against 1 + 2|J| per query made.
    """
    out = []
    for op in result.ops:
        if op.error is not None:
            out.append([op.error])
            continue
        problems = check_tokens(tables[op.method], op.tokens, result.zone)
        cost = non_star_count(op.tokens)
        if pairing_cost(op.tokens) != cost:
            problems.append(f"pairing_cost {pairing_cost(op.tokens)} != {cost} non-star positions")
        if op.decisions is not None:
            wrong = [
                u
                for u, (cell, decided) in enumerate(zip(result.user_cells, op.decisions))
                if decided != (cell in result.zone)
            ]
            if wrong:
                problems.append(f"HVE decision disagrees with zone membership for users {wrong[:5]}")
            per_query = list(itertools.accumulate(1 + 2 * (len(t) - t.count("*")) for t in op.tokens))
            expected = sum(per_query[q - 1] for q in op.queries if q)
            if op.pairings != expected:
                problems.append(f"counted {op.pairings} pairings, the queries made need {expected}")
        out.append(problems)
    return out
