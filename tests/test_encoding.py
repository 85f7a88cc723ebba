import random

import pytest

from privzone import (
    ParameterError,
    build_balanced_tree,
    build_bary_huffman_tree,
    build_fixed_length,
    build_fixed_length_tree,
    build_huffman_tree,
    coding_tree_to_json,
    codeword_to_index,
    expand_bary,
    index_map_to_csv,
    make_cell_indexes,
    make_coding_tree,
    make_grid,
)

GOLDEN_WEIGHTS = [0.2, 0.1, 0.5, 0.4, 0.6]


def golden_tree():
    return build_huffman_tree(make_grid(GOLDEN_WEIGHTS))


class TestCellIndexes:
    def test_golden_zero_padding(self):
        index_map = make_cell_indexes(golden_tree())
        assert index_map.entries == {0: "001", 1: "000", 2: "100", 3: "010", 4: "110"}
        assert index_map.width == 3

    def test_identity_when_codes_are_full_length(self):
        tree = build_balanced_tree(make_grid([0.1, 0.2, 0.3, 0.4]))
        index_map = make_cell_indexes(tree)
        assert sorted(index_map.entries.values()) == ["00", "01", "10", "11"]

    def test_single_cell_index_is_zero(self):
        index_map = make_cell_indexes(build_huffman_tree(make_grid([1.0])))
        assert index_map.entries == {0: "0"}
        assert index_map.width == 1

    def test_bary_expansion_golden(self):
        tree = build_bary_huffman_tree(make_grid(GOLDEN_WEIGHTS), 3)
        index_map = make_cell_indexes(tree)
        # v5 carries code '2': '20' -> '**1000' -> '001000'.
        assert index_map.entries[4] == "001000"
        assert index_map.width == 6

    def test_csv_format(self):
        text = index_map_to_csv(make_cell_indexes(golden_tree()))
        lines = text.strip().split("\n")
        assert lines[0] == "cell_id,index"
        assert lines[1] == "0,001"
        assert len(lines) == 6


class TestExpandBary:
    def test_codeword_expansion_of_2_star(self):
        assert expand_bary("2*", 3) == "**1***"

    def test_index_expansion_of_20_with_padding(self):
        raw = expand_bary("20", 3, padding_mask=[False, True])
        assert raw == "**1000"
        assert raw.replace("*", "0") == "001000"

    def test_plain_zero_symbol(self):
        assert expand_bary("0", 3) == "1**"

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ParameterError):
            expand_bary("3", 3)

    def test_padding_must_be_zero_symbol(self):
        with pytest.raises(ParameterError):
            expand_bary("1", 3, padding_mask=[True])

    def test_mask_length_mismatch(self):
        with pytest.raises(ParameterError):
            expand_bary("10", 3, padding_mask=[True])

    def test_arity_must_be_at_least_two(self):
        with pytest.raises(ParameterError):
            expand_bary("0", 1)


class TestCodingTree:
    def test_golden_parent_leaf_counts(self):
        coding = make_coding_tree(golden_tree())
        assert coding.parent_leaf_counts == {"00*": 2, "0**": 3, "1**": 2, "***": 5}

    def test_golden_leaf_order(self):
        coding = make_coding_tree(golden_tree())
        assert coding.leaf_order == ("000", "001", "01*", "10*", "11*")
        assert coding.leaf_cells == (1, 0, 3, 2, 4)

    def test_golden_node_table(self):
        coding = make_coding_tree(golden_tree())
        # Leaves 0-4, then '***', '0**', '00*', '1**' in preorder.
        assert coding.codewords[5:] == ("***", "0**", "00*", "1**")
        assert coding.parent == (7, 7, 6, 8, 8, -1, 5, 6, 5)
        assert coding.lo == (0, 1, 2, 3, 4, 0, 0, 0, 3)
        assert coding.hi == (1, 2, 3, 4, 5, 5, 3, 2, 5)

    def test_bary_dummy_leaf_in_table(self):
        coding = make_coding_tree(build_bary_huffman_tree(make_grid([0.1, 0.2, 0.3, 0.4]), 3))
        # The dummy '02' follows its parent '0' and covers no leaf position.
        assert coding.codewords[4:] == ("******", "1*****", "1****1")
        assert coding.parent[4:] == (-1, 4, 5)
        assert coding.lo[6] == coding.hi[6] == 2

    def test_single_leaf_degenerate(self):
        coding = make_coding_tree(build_huffman_tree(make_grid([1.0])))
        assert coding.leaf_order == ("0",)
        assert coding.parent_leaf_counts == {"0": 1}

    def test_root_count_equals_n(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randrange(2, 40)
            grid = make_grid([rng.random() + 1e-12 for _ in range(n)])
            coding = make_coding_tree(build_huffman_tree(grid))
            assert coding.parent_leaf_counts["*" * coding.width] == n

    def test_bary_expanded_codewords(self):
        tree = build_bary_huffman_tree(make_grid(GOLDEN_WEIGHTS), 3)
        coding = make_coding_tree(tree)
        assert coding.width == 6
        # v3 ('1') and v5 ('2') padded then expanded.
        assert "*1****" in coding.leaf_order
        assert "**1***" in coding.leaf_order
        # The internal merge node '0' covers three cells.
        assert coding.parent_leaf_counts["1*****"] == 3
        assert coding.parent_leaf_counts["******"] == 5

    def test_bary_dummy_leaves_not_counted(self):
        grid = make_grid([0.1, 0.2, 0.3, 0.4])
        coding = make_coding_tree(build_bary_huffman_tree(grid, 3))
        assert coding.n == 4
        assert coding.parent_leaf_counts["*" * coding.width] == 4


def all_encodings(grid):
    trees = [
        build_huffman_tree(grid),
        build_balanced_tree(grid),
        build_fixed_length_tree(grid),
    ]
    if grid.n >= 3:
        trees.append(build_bary_huffman_tree(grid, 3))
    return trees


class TestWidthUniformityAndBijectivity:
    def test_indexes_and_codewords_share_width(self):
        rng = random.Random(6)
        for _ in range(15):
            n = rng.randrange(1, 50)
            grid = make_grid([rng.random() + 1e-12 for _ in range(n)])
            for tree in all_encodings(grid):
                index_map = make_cell_indexes(tree)
                coding = make_coding_tree(tree)
                assert {len(ix) for ix in index_map.entries.values()} == {index_map.width}
                widths = {len(cw) for cw in coding.leaf_order}
                widths |= {len(cw) for cw in coding.parent_leaf_counts}
                assert widths == {coding.width}
                assert index_map.width == coding.width
                assert len(set(index_map.entries.values())) == n

    def test_codeword_reconstruction_reproduces_indexes(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randrange(1, 50)
            grid = make_grid([rng.random() + 1e-12 for _ in range(n)])
            for tree in all_encodings(grid):
                index_map = make_cell_indexes(tree)
                coding = make_coding_tree(tree)
                rebuilt = {
                    coding.leaf_cells[pos]: codeword_to_index(cw, coding.width)
                    for pos, cw in enumerate(coding.leaf_order)
                }
                assert rebuilt == index_map.entries


class TestBuildFixedLength:
    def test_returns_tree_and_map(self):
        tree, index_map = build_fixed_length(make_grid(GOLDEN_WEIGHTS))
        assert tree.rl == 3
        assert index_map.entries == {0: "000", 1: "001", 2: "010", 3: "011", 4: "100"}


class TestCodingTreeJson:
    def test_root_annotations(self):
        obj = coding_tree_to_json(golden_tree())
        assert obj["codeword"] == "***"
        assert obj["leafCount"] == 5
        left = obj["children"][0]
        assert left["codeword"] == "0**"
        assert left["leafCount"] == 3

    def test_bary_dummy_annotations(self):
        obj = coding_tree_to_json(build_bary_huffman_tree(make_grid([0.1, 0.2, 0.3, 0.4]), 3))
        merge = obj["children"][0]
        assert (merge["codeword"], merge["leafCount"]) == ("1*****", 2)
        dummy = merge["children"][2]
        assert (dummy["code"], dummy["codeword"], dummy["leafCount"]) == ("02", "1****1", 0)
        assert "cellId" not in dummy


class TestGranularityRefinement:
    def test_ternary_placeholder_pattern(self):
        from privzone import index_refinement_pattern, validate_refined_indexes

        tree = build_bary_huffman_tree(make_grid(GOLDEN_WEIGHTS), 3)
        pattern = index_refinement_pattern(tree, 4)  # v5 carries code '2'
        assert pattern == "**1000"
        validate_refined_indexes(pattern, ["001000", "011000", "101000", "111000"])

    def test_refined_index_outside_placeholder_rejected(self):
        from privzone import index_refinement_pattern, validate_refined_indexes

        tree = build_bary_huffman_tree(make_grid(GOLDEN_WEIGHTS), 3)
        pattern = index_refinement_pattern(tree, 4)
        with pytest.raises(ParameterError):
            validate_refined_indexes(pattern, ["000000"])  # marker bit lost
        with pytest.raises(ParameterError):
            validate_refined_indexes(pattern, ["001000", "001000"])  # duplicate
        with pytest.raises(ParameterError):
            validate_refined_indexes(pattern, ["001001"])  # padding changed

    def test_capacity_limit(self):
        from privzone import index_refinement_pattern, validate_refined_indexes

        tree = build_bary_huffman_tree(make_grid(GOLDEN_WEIGHTS), 3)
        pattern = index_refinement_pattern(tree, 4)
        refined = ["001000", "011000", "101000", "111000"]
        with pytest.raises(ParameterError):
            validate_refined_indexes(pattern, refined + ["010000"])

    def test_binary_indexes_have_no_free_bits(self):
        from privzone import index_refinement_pattern

        pattern = index_refinement_pattern(golden_tree(), 2)
        assert pattern == "100"
        assert "*" not in pattern

    def test_refined_indexes_still_match_their_leaf_codeword(self):
        from privzone import make_coding_tree, token_matches

        tree = build_bary_huffman_tree(make_grid(GOLDEN_WEIGHTS), 3)
        coding = make_coding_tree(tree)
        v5_codeword = coding.leaf_order[list(coding.leaf_cells).index(4)]
        for refined in ("001000", "011000", "101000", "111000"):
            assert token_matches(v5_codeword, refined)

    def test_unknown_cell(self):
        from privzone import index_refinement_pattern

        with pytest.raises(ParameterError):
            index_refinement_pattern(golden_tree(), 99)
