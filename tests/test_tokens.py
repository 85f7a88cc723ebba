import itertools
import random

import pytest

from privzone import (
    AlertZone,
    ParameterError,
    TokenSet,
    UnknownIndexError,
    build_balanced_tree,
    build_bary_huffman_tree,
    build_fixed_length,
    build_fixed_length_tree,
    build_huffman_tree,
    coverage_oracle,
    expand_bary,
    fixed_length_minimize,
    generate_sigmoid_probabilities,
    index_to_codeword,
    make_cell_indexes,
    make_coding_tree,
    make_grid,
    minimize_tokens,
    pairing_cost,
    sample_alert_zone,
    token_matches,
)

GOLDEN_WEIGHTS = [0.2, 0.1, 0.5, 0.4, 0.6]


@pytest.fixture(scope="module")
def golden():
    tree = build_huffman_tree(make_grid(GOLDEN_WEIGHTS))
    return make_cell_indexes(tree), make_coding_tree(tree)


class TestTokenMatches:
    def test_match_case(self):
        assert token_matches("*00", "000") is True

    def test_nonmatch_case(self):
        assert token_matches("*00", "110") is False

    def test_all_stars_match_anything(self):
        for bits in itertools.product("01", repeat=3):
            assert token_matches("***", "".join(bits))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            token_matches("*00", "0000")

    def test_star_in_index_rejected(self):
        with pytest.raises(ParameterError):
            token_matches("*00", "0*0")


class TestPairingCost:
    @pytest.mark.parametrize(
        "tokens,cost",
        [(["*00"], 2), (["100", "000"], 6), (["***"], 0), ([], 0)],
    )
    def test_counts_non_star_positions(self, tokens, cost):
        assert pairing_cost(tokens) == cost


class TestIndexToCodeword:
    def test_padded_leaf(self, golden):
        _, coding = golden
        assert index_to_codeword("100", coding) == ("10*", 3)

    def test_unpadded_leaf(self, golden):
        _, coding = golden
        assert index_to_codeword("000", coding) == ("000", 0)

    def test_unknown_index(self, golden):
        _, coding = golden
        with pytest.raises(UnknownIndexError):
            index_to_codeword("111", coding)

    def test_bijective_over_all_indexes(self, golden):
        index_map, coding = golden
        for cid, ix in index_map.entries.items():
            codeword, pos = index_to_codeword(ix, coding)
            assert coding.leaf_cells[pos] == cid
            assert codeword.rstrip("*").ljust(coding.width, "0").replace("*", "0") == ix


class TestMinimizeTokens:
    def test_golden_zone(self, golden):
        _, coding = golden
        result = minimize_tokens(["001", "100", "110"], coding)
        assert set(result.tokens) == {"1**", "001"}
        assert result.source_zone.cell_ids == {0, 2, 4}

    def test_all_cells_collapse_to_root(self, golden):
        index_map, coding = golden
        result = minimize_tokens(sorted(index_map.entries.values()), coding)
        assert result.tokens == ("***",)

    def test_single_cell(self, golden):
        _, coding = golden
        assert minimize_tokens(["000"], coding).tokens == ("000",)

    def test_sibling_pair_uses_parent(self, golden):
        _, coding = golden
        assert minimize_tokens(["000", "001"], coding).tokens == ("00*",)

    def test_empty_input(self, golden):
        _, coding = golden
        result = minimize_tokens([], coding)
        assert result.tokens == ()
        assert result.source_zone is None

    def test_duplicates_removed(self, golden):
        _, coding = golden
        result = minimize_tokens(["000", "000", "001"], coding)
        assert result.tokens == ("00*",)

    def test_deterministic_regardless_of_input_order(self, golden):
        _, coding = golden
        rng = random.Random(0)
        cells = ["001", "100", "110", "000"]
        baseline = minimize_tokens(cells, coding).tokens
        for _ in range(10):
            rng.shuffle(cells)
            assert minimize_tokens(cells, coding).tokens == baseline

    def test_ternary_subtree_token(self):
        tree = build_bary_huffman_tree(make_grid(GOLDEN_WEIGHTS), 3)
        index_map = make_cell_indexes(tree)
        coding = make_coding_tree(tree)
        # v1, v2, v4 fill the subtree under the first merge node.
        zone = [index_map.entries[c] for c in (0, 1, 3)]
        result = minimize_tokens(zone, coding)
        assert result.tokens == ("1*****",)
        assert pairing_cost(result) == 1

    def test_ternary_singletons(self):
        tree = build_bary_huffman_tree(make_grid(GOLDEN_WEIGHTS), 3)
        index_map = make_cell_indexes(tree)
        coding = make_coding_tree(tree)
        result = minimize_tokens([index_map.entries[2], index_map.entries[4]], coding)
        assert set(result.tokens) == {"*1****", "**1***"}
        cov, fp = coverage_oracle(result, index_map)
        assert cov == {2, 4} and fp == set()


class TestFixedLengthMinimize:
    def test_known_pair_merge(self):
        assert fixed_length_minimize(["100", "000"]).tokens == ("*00",)

    def test_known_quad_merge(self):
        result = fixed_length_minimize(["0000", "0010", "0110", "0100"])
        assert result.tokens == ("0**0",)

    def test_unmergeable_pair(self):
        assert set(fixed_length_minimize(["00", "11"]).tokens) == {"00", "11"}

    def test_empty_input(self):
        result = fixed_length_minimize([])
        assert result.tokens == () and result.source_zone is None

    def test_single_index(self):
        assert fixed_length_minimize(["0110"]).tokens == ("0110",)

    def test_mixed_width_rejected(self):
        with pytest.raises(ParameterError):
            fixed_length_minimize(["00", "111"])

    def test_non_binary_rejected(self):
        with pytest.raises(ParameterError):
            fixed_length_minimize(["0*1"])

    def test_zero_width_rejected(self):
        with pytest.raises(ParameterError):
            fixed_length_minimize([""])


class TestCoverageOracle:
    def test_golden_cover(self, golden):
        index_map, coding = golden
        tokens = minimize_tokens(["001", "100", "110"], coding)
        covered, false_pos = coverage_oracle(tokens, index_map)
        assert covered == {0, 2, 4}
        assert false_pos == set()

    def test_empty_tokens_cover_nothing(self, golden):
        index_map, coding = golden
        covered, false_pos = coverage_oracle(minimize_tokens([], coding), index_map)
        assert covered == set() and false_pos == set()

    def test_all_star_token_covers_everything(self, golden):
        from privzone import AlertZone, TokenSet

        index_map, _ = golden
        tokens = TokenSet(tokens=("***",), source_zone=AlertZone(cell_ids=frozenset({0})))
        covered, false_pos = coverage_oracle(tokens, index_map)
        assert covered == {0, 1, 2, 3, 4}
        assert false_pos == {1, 2, 3, 4}


def _matched_indexes(pattern, width):
    out = []
    for bits in itertools.product("01", repeat=width):
        ix = "".join(bits)
        if token_matches(pattern, ix):
            out.append(ix)
    return out


class TestExactCoverProperties:
    def test_minimize_tokens_exact_on_random_zones(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randrange(2, 64)
            grid = make_grid([rng.random() + 1e-12 for _ in range(n)])
            tree = build_huffman_tree(grid)
            index_map = make_cell_indexes(tree)
            coding = make_coding_tree(tree)
            zone = rng.sample(range(n), rng.randrange(1, n + 1))
            tokens = minimize_tokens([index_map.entries[c] for c in zone], coding)
            covered, false_pos = coverage_oracle(tokens, index_map)
            assert covered == set(zone)
            assert false_pos == set()
            assert len(tokens.tokens) <= len(zone)
            per_cell_cost = sum(
                len(cw) - cw.count("*")
                for cw in (index_to_codeword(index_map.entries[c], coding)[0] for c in zone)
            )
            assert pairing_cost(tokens) <= per_cell_cost

    def test_fixed_minimize_exact_on_random_zones(self):
        rng = random.Random(102)
        for _ in range(60):
            width = rng.randrange(2, 9)
            universe = [format(v, f"0{width}b") for v in range(2**width)]
            zone = rng.sample(universe, rng.randrange(1, 2**width))
            tokens = fixed_length_minimize(zone)
            covered = set()
            for pattern in tokens.tokens:
                covered.update(_matched_indexes(pattern, width))
            assert covered == set(zone)

    def test_fixed_minimize_tokens_are_disjoint(self):
        rng = random.Random(103)
        for _ in range(40):
            width = rng.randrange(2, 8)
            universe = [format(v, f"0{width}b") for v in range(2**width)]
            zone = rng.sample(universe, rng.randrange(1, 2**width))
            tokens = fixed_length_minimize(zone).tokens
            seen = {}
            for pattern in tokens:
                for ix in _matched_indexes(pattern, width):
                    assert ix not in seen, (pattern, seen[ix])
                    seen[ix] = pattern

    def test_minimize_tokens_disjoint(self):
        rng = random.Random(104)
        for _ in range(30):
            n = rng.randrange(2, 32)
            grid = make_grid([rng.random() + 1e-12 for _ in range(n)])
            coding = make_coding_tree(build_huffman_tree(grid))
            index_map = make_cell_indexes(build_huffman_tree(grid))
            zone = rng.sample(range(n), rng.randrange(1, n + 1))
            tokens = minimize_tokens([index_map.entries[c] for c in zone], coding).tokens
            for ix in index_map.entries.values():
                assert sum(token_matches(t, ix) for t in tokens) <= 1

    def test_exhaustive_zones_small_grid(self):
        grid = make_grid([0.05, 0.1, 0.15, 0.2, 0.25, 0.1, 0.05, 0.1])
        tree = build_huffman_tree(grid)
        index_map = make_cell_indexes(tree)
        coding = make_coding_tree(tree)
        fixed_tree, fixed_map = build_fixed_length(grid)
        for mask in range(1, 256):
            zone = [c for c in range(8) if mask >> c & 1]
            tokens = minimize_tokens([index_map.entries[c] for c in zone], coding)
            covered, fp = coverage_oracle(tokens, index_map)
            assert covered == set(zone) and fp == set()
            ftokens = fixed_length_minimize([fixed_map.entries[c] for c in zone])
            covered_f, fp_f = coverage_oracle(ftokens, fixed_map)
            assert covered_f == set(zone) and fp_f == set()


def _cluster_tokens(cluster, width, parent_counts):
    """Reference: emit subtree-root codewords covering a run of consecutive leaves.

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


def lcp_minimize(alert_cells, tree, coding_tree):
    """Reference minimizer: longest-common-prefix clustering over symbol codewords.

    Works on the unexpanded codes of ``tree`` (star-padded to RL symbols)
    and expands the emitted tokens for B > 2, independently of the node
    table that ``minimize_tokens`` walks.
    """
    if not alert_cells:
        return TokenSet(tokens=(), source_zone=None)

    def symbol_codeword(node):
        if tree.n == 1 and node.is_leaf:
            return "0"
        return node.code.ljust(tree.rl, "*")

    counts = {}
    for node in reversed(list(tree.iter_nodes())):
        if node.is_leaf:
            counts[id(node)] = 0 if node.dummy else 1
        else:
            counts[id(node)] = sum(counts[id(c)] for c in node.children)
    parent_counts = {
        symbol_codeword(node): counts[id(node)] for node in tree.iter_nodes() if not node.is_leaf
    }
    if tree.n == 1:
        parent_counts = {symbol_codeword(tree.root): 1}
    leaf_codewords = [symbol_codeword(leaf) for leaf in tree.leaf_order]

    positions = sorted({index_to_codeword(ix, coding_tree)[1] for ix in alert_cells})
    clusters = [[positions[0]]]
    for pos in positions[1:]:
        if pos == clusters[-1][-1] + 1:
            clusters[-1].append(pos)
        else:
            clusters.append([pos])
    tokens = []
    for run in clusters:
        tokens.extend(_cluster_tokens([leaf_codewords[p] for p in run], tree.rl, parent_counts))
    if tree.arity > 2:
        tokens = [expand_bary(t, tree.arity) for t in tokens]
    zone = AlertZone(cell_ids=frozenset(coding_tree.leaf_cells[p] for p in positions))
    return TokenSet(tokens=tuple(tokens), source_zone=zone)


def _build(method, grid):
    if method == "huffman":
        return build_huffman_tree(grid)
    if method == "balanced":
        return build_balanced_tree(grid)
    if method == "fixed":
        return build_fixed_length_tree(grid)
    return build_bary_huffman_tree(grid, int(method[5:-1]))


def _random_zone(rng, tree):
    """Cells of random density, or whole runs of consecutive leaves."""
    cells = [leaf.cell_id for leaf in tree.leaf_order]
    if rng.random() < 0.5:
        return rng.sample(cells, rng.randrange(1, len(cells) + 1))
    zone = set()
    for _ in range(rng.randrange(1, 4)):
        start = rng.randrange(len(cells))
        zone.update(cells[start : start + rng.randrange(1, len(cells) + 1)])
    return sorted(zone)


def assert_same_as_reference(tree, zones):
    index_map = make_cell_indexes(tree)
    coding = make_coding_tree(tree)
    for zone in zones:
        indexes = [index_map.entries[c] for c in zone]
        assert minimize_tokens(indexes, coding) == lcp_minimize(indexes, tree, coding), zone


class TestAgainstLcpReference:
    """The tree walk emits the tokens of the string-LCP minimizer it replaced."""

    METHODS = ("huffman", "balanced", "fixed", "bary(3)", "bary(4)", "bary(5)", "bary(7)")

    def test_random_instances(self):
        rng = random.Random(405)
        instances = 0
        while instances < 2100:
            method = rng.choice(self.METHODS)
            lowest = int(method[5:-1]) if method.startswith("bary") else 1
            n = rng.randrange(lowest, 101)
            grid = make_grid([rng.random() + 1e-12 for _ in range(n)])
            tree = _build(method, grid)
            zones = [_random_zone(rng, tree) for _ in range(6)]
            assert_same_as_reference(tree, zones)
            instances += len(zones)

    @pytest.mark.parametrize("method", ["huffman", "balanced", "bary(3)"])
    def test_benchmark_map_every_radius(self, method):
        grid = generate_sigmoid_probabilities(32, 32, 0.99, 100.0, 2021)
        rng = random.Random(406)
        zones = [
            sorted(sample_alert_zone(grid, 10.0, radius, rng.randrange(2**63)).cell_ids)
            for radius in (10.0, 20.0, 50.0, 100.0, 200.0, 300.0)
            for _ in range(3)
        ]
        assert_same_as_reference(_build(method, grid), zones)

    def test_single_child_chain_emits_lowest_node(self):
        # n = 6 fixed-length codes: node '1' has the one child '10'.
        tree, index_map = build_fixed_length(make_grid([1.0] * 6))
        coding = make_coding_tree(tree)
        result = minimize_tokens([index_map.entries[4], index_map.entries[5]], coding)
        assert result.tokens == ("10*",)
        assert result == lcp_minimize([index_map.entries[4], index_map.entries[5]], tree, coding)

    def test_single_cell_grid(self):
        tree = build_huffman_tree(make_grid([1.0]))
        assert_same_as_reference(tree, [[0]])
