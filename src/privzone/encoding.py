"""Padded artifacts derived from a prefix tree: cell indexes and coding tree.

Two artifacts are produced from the same tree.  Cell *indexes* are leaf
codes right-padded with zeros to the reference length; they identify cells
and are what users encrypt.  The *coding tree* is a table of the tree's
nodes: each one's code star-padded to the same width, its parent, and the
range of leaf positions below it; token minimization walks up this table.

For arities above two, each symbol is additionally expanded to a B-bit
group: symbol i becomes the group with bit i+1 set and stars elsewhere,
star symbols become all-star groups, and padding zeros become all-zero
groups.  Indexes finally replace the remaining stars with zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import ParameterError
from .grid import ProbabilityGrid
from .trees import _SYMBOLS, PrefixTree, TreeNode, build_fixed_length_tree


@dataclass(frozen=True)
class CellIndexMap:
    """Bijection cell id <-> fixed-width index string."""

    entries: dict[int, str]
    width: int

    def __post_init__(self):
        if any(len(ix) != self.width for ix in self.entries.values()):
            raise ParameterError("all indexes must share the same width")
        if len(set(self.entries.values())) != len(self.entries):
            raise ParameterError("indexes must be distinct per cell")

    def index_of(self, cell_id: int) -> str:
        return self.entries[cell_id]

    def items(self):
        return sorted(self.entries.items())


@dataclass(frozen=True)
class CodingTree:
    """Node table of the star-padded (and, for B>2, expanded) coding tree.

    Non-dummy leaves take ids 0..n-1 left to right; every other node,
    internal or dummy, follows in preorder.  For each node ``parent`` holds
    its parent id (-1 at the root), ``[lo, hi)`` the range of non-dummy leaf
    positions below it, and ``codewords`` its code padded with stars to
    ``width``.  ``leaf_cells`` gives the cell id at each leaf position.
    Token minimization walks up this table from the alerted leaves.
    """

    width: int
    arity: int
    rl: int
    leaf_cells: tuple[int, ...]
    parent: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    codewords: tuple[str, ...]
    index_by_string: dict[str, int] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.leaf_cells)

    @property
    def leaf_order(self) -> tuple[str, ...]:
        """Leaf codewords, left to right."""
        return self.codewords[: self.n]

    @property
    def parent_leaf_counts(self) -> dict[str, int]:
        """Codeword of each internal node -> its count of non-dummy leaves.

        A one-node tree's leaf doubles as its only countable parent.
        """
        internal = sorted({p for p in self.parent if p >= 0}) or [0]
        return {self.codewords[v]: self.hi[v] - self.lo[v] for v in internal}

    def index_of_leaf(self, position: int) -> str:
        """Reconstruct the cell index from the leaf codeword at ``position``."""
        return codeword_to_index(self.codewords[position], self.width)


def codeword_to_index(codeword: str, width: int) -> str:
    """Strip trailing star padding, re-pad with zeros, zero residual stars."""
    return codeword.rstrip("*").ljust(width, "0").replace("*", "0")


def expand_bary(symbol_string: str, b: int, padding_mask: Optional[Sequence[bool]] = None) -> str:
    """Expand each symbol of a B-ary string to a B-bit group.

    Symbol i maps to the group with the (i+1)-th bit set to '1' and stars
    elsewhere; '*' maps to an all-star group; positions flagged in
    ``padding_mask`` (zeros produced by index padding) map to all-zero
    groups.
    """
    if b < 2:
        raise ParameterError("arity must be >= 2")
    if padding_mask is not None and len(padding_mask) != len(symbol_string):
        raise ParameterError("padding mask length must match the string")
    groups = []
    for pos, ch in enumerate(symbol_string):
        if padding_mask is not None and padding_mask[pos]:
            if ch != "0":
                raise ParameterError("only '0' symbols can be padding")
            groups.append("0" * b)
            continue
        if ch == "*":
            groups.append("*" * b)
            continue
        value = _SYMBOLS.find(ch)
        if value < 0 or value >= b:
            raise ParameterError(f"symbol {ch!r} outside alphabet of size {b}")
        groups.append("*" * value + "1" + "*" * (b - 1 - value))
    return "".join(groups)


def _leaf_pattern(tree: PrefixTree, leaf: TreeNode) -> str:
    """Leaf code zero-padded to the reference length, expanded for B>2.

    Expanded symbol groups keep their stars; padding symbols become
    all-zero groups.  The single leaf of a one-cell tree is coded '0'.
    """
    code = leaf.code or "0"
    padded = code.ljust(tree.rl, "0")
    if tree.arity == 2:
        return padded
    mask = [False] * len(code) + [True] * (tree.rl - len(code))
    return expand_bary(padded, tree.arity, mask)


def make_cell_indexes(tree: PrefixTree) -> CellIndexMap:
    """Zero-pad every leaf code to the reference length, keyed by cell id."""
    entries = {leaf.cell_id: _leaf_pattern(tree, leaf).replace("*", "0") for leaf in tree.leaf_order}
    width = tree.rl if tree.arity == 2 else tree.rl * tree.arity
    return CellIndexMap(entries=entries, width=width)


def _numbered_nodes(tree: PrefixTree) -> Iterator[tuple[TreeNode, int, int]]:
    """Yield (node, id, parent id) in preorder, with the ids of ``CodingTree``."""
    next_leaf, next_other = 0, tree.n
    stack = [(tree.root, -1)]
    while stack:
        node, up = stack.pop()
        if node.is_leaf and not node.dummy:
            v, next_leaf = next_leaf, next_leaf + 1
        else:
            v, next_other = next_other, next_other + 1
        yield node, v, up
        for child in reversed(node.children):
            stack.append((child, v))


def make_coding_tree(tree: PrefixTree) -> CodingTree:
    """Build the node table, star-padding codes to the reference length.

    A child's codeword is its parent's with the child's symbol group
    written over the first star group, so ``expand_bary`` runs once per
    symbol of the alphabet rather than once per node.
    """
    n = tree.n
    group_width = 1 if tree.arity == 2 else tree.arity
    width = tree.rl * group_width
    group = {s: expand_bary(s, tree.arity) if group_width > 1 else s for s in _SYMBOLS[: tree.arity]}
    parent = [-1] * n
    lo = list(range(n))
    hi = list(range(1, n + 1))
    codewords = [""] * n
    leaves_seen = 0
    for node, v, up in _numbered_nodes(tree):
        if up >= 0:
            k = (len(node.code) - 1) * group_width
            above = codewords[up]
            codeword = above[:k] + group[node.code[-1]] + above[k + group_width :]
        elif v < n:  # a one-cell tree's root is its leaf, coded '0'
            codeword = group["0"].ljust(width, "*")
        else:
            codeword = "*" * width
        if v < n:
            parent[v] = up
            codewords[v] = codeword
            leaves_seen = v + 1
        else:
            parent.append(up)
            lo.append(leaves_seen)
            hi.append(leaves_seen)
            codewords.append(codeword)
    # Other nodes are numbered in preorder, so a node's descendants hold
    # higher ids: widening from the leaves first, then from the other nodes
    # in falling id order, completes each range before it is passed up.
    for v in [*range(n), *range(len(parent) - 1, n - 1, -1)]:
        up = parent[v]
        if up >= 0 and hi[v] > hi[up]:
            hi[up] = hi[v]
    return CodingTree(
        width=width,
        arity=tree.arity,
        rl=tree.rl,
        leaf_cells=tuple(leaf.cell_id for leaf in tree.leaf_order),
        parent=tuple(parent),
        lo=tuple(lo),
        hi=tuple(hi),
        codewords=tuple(codewords),
        index_by_string={codeword_to_index(cw, width): pos for pos, cw in enumerate(codewords[:n])},
    )


def build_fixed_length(grid: ProbabilityGrid) -> tuple[PrefixTree, CellIndexMap]:
    """Fixed-length encoding: ceil(log2 n)-bit codes assigned in id order."""
    tree = build_fixed_length_tree(grid)
    return tree, make_cell_indexes(tree)


def index_refinement_pattern(tree: PrefixTree, cell_id: int) -> str:
    """Pattern whose star positions may later subdivide the cell.

    Expanded codes leave star bits inside each symbol group; a cell can be
    split into up to 2^(stars) finer cells by enumerating those bits while
    keeping the symbol markers and padding zeros, so existing indexes,
    tokens, and the coding tree stay valid.  Unexpanded binary indexes
    have no free bits (refinement is a feature of the expanded alphabet).
    """
    leaf = next((lf for lf in tree.leaf_order if lf.cell_id == cell_id), None)
    if leaf is None:
        raise ParameterError(f"no cell {cell_id} in the tree")
    return _leaf_pattern(tree, leaf)


def validate_refined_indexes(pattern: str, refined: Sequence[str]) -> None:
    """Check that refined indexes stay under the original placeholder.

    Each refined index must be a distinct binary string that agrees with
    ``pattern`` on every non-star position; at most 2^(stars) fit.

    The check is membership only.  The free star bits inside a symbol
    group coincide with sibling symbols' marker positions, so a refined
    index that sets them can additionally satisfy single-symbol tokens of
    sibling subtrees; callers refining a live grid must reissue such
    tokens with their zero bits made explicit.
    """
    capacity = 2 ** pattern.count("*")
    if not refined:
        raise ParameterError("no refined indexes given")
    if len(refined) > capacity:
        raise ParameterError(f"pattern admits only {capacity} refined indexes")
    if len(set(refined)) != len(refined):
        raise ParameterError("refined indexes must be distinct")
    for ix in refined:
        if len(ix) != len(pattern):
            raise ParameterError(f"refined index {ix!r} has wrong width")
        if any(ch not in "01" for ch in ix):
            raise ParameterError(f"refined index {ix!r} must be binary")
        for p, i in zip(pattern, ix):
            if p != "*" and p != i:
                raise ParameterError(
                    f"refined index {ix!r} leaves the placeholder of {pattern!r}"
                )


def coding_tree_to_json(tree: PrefixTree) -> dict:
    """Tree JSON augmented with padded codewords and descendant-leaf counts."""
    coding = make_coding_tree(tree)
    out: dict[int, dict] = {}
    for node, v, _ in reversed(list(_numbered_nodes(tree))):
        obj = {
            "code": node.code,
            "weight": node.weight,
            "codeword": coding.codewords[v],
            "leafCount": coding.hi[v] - coding.lo[v],
        }
        if node.cell_id is not None:
            obj["cellId"] = node.cell_id
        obj["children"] = [out[id(c)] for c in node.children]
        out[id(node)] = obj
    return out[id(tree.root)]


def index_map_to_csv(index_map: CellIndexMap) -> str:
    lines = ["cell_id,index"]
    lines += [f"{cid},{ix}" for cid, ix in index_map.items()]
    return "\n".join(lines) + "\n"
