import pytest

from checker import IndexTable, check_tokens, non_star_count, token_bits

# Four cells with 3-bit indexes.
TABLE = IndexTable({0: "000", 1: "001", 2: "010", 3: "110"})


def test_token_bits():
    assert token_bits("1*0") == (0b100, 0b101)
    assert token_bits("***") == (0, 0)
    with pytest.raises(ValueError):
        token_bits("1x0")


def test_exact_disjoint_cover_passes():
    assert check_tokens(TABLE, ["00*", "010"], {0, 1, 2}) == []
    assert check_tokens(TABLE, ["***"], {0, 1, 2, 3}) == []


def test_gap_is_flagged():
    problems = check_tokens(TABLE, ["000"], {0, 1})
    assert len(problems) == 1 and problems[0].startswith("gap") and "[1]" in problems[0]


def test_false_positive_is_flagged():
    problems = check_tokens(TABLE, ["*10"], {2})
    assert len(problems) == 1 and problems[0].startswith("false positive") and "[3]" in problems[0]


def test_overlap_is_flagged():
    problems = check_tokens(TABLE, ["00*", "0*0"], {0, 1, 2})
    assert len(problems) == 1 and problems[0].startswith("overlap") and "[0]" in problems[0]


def test_pattern_overlap_without_a_shared_index_passes():
    # "1**" and "*1*" overlap as patterns on "11*", which no index holds.
    table = IndexTable({0: "100", 1: "010", 2: "000"})
    assert check_tokens(table, ["1**", "*1*"], {0, 1}) == []


def test_wrong_width_is_a_problem():
    assert any("width" in p for p in check_tokens(TABLE, ["00"], {0}))


def test_words_beyond_64_bits():
    width = 130
    a = "1" + "0" * (width - 1)
    b = "0" * (width - 1) + "1"
    table = IndexTable({0: a, 1: b, 2: "0" * width})
    assert table.matches("1" + "*" * (width - 1)).tolist() == [0]
    assert table.matches("*" * (width - 1) + "1").tolist() == [1]
    assert check_tokens(table, ["1" + "*" * (width - 1)], {0, 2})[0].startswith("gap")


def test_non_star_count():
    assert non_star_count(["1*0", "***", "01"]) == 4


def test_check_alert_flags_hve_decisions_and_pairing_counts():
    from checker import check_alert
    from workloads import Alert, AlertResult, Op

    tables = {"m": TABLE}
    cost = non_star_count
    # User 0 sits in cell 0 (inside), user 1 in cell 3 (outside).
    # Token "00*" costs 1 + 2*2 = 5 pairings per query, "010" costs 7.
    good = Op("m", 0.001, 0.002, ("00*", "010"), queries=[1, 2], decisions=[True, False], pairings=5 + 12)
    result = AlertResult(Alert(0, 20.0, 1), frozenset({0, 1, 2}), (0, 3), [good], 0.002)
    assert check_alert(result, tables, cost) == [[]]

    wrong = Op("m", 0.001, 0.002, ("00*", "010"), queries=[1, 2], decisions=[True, True], pairings=17)
    miscounted = Op("m", 0.001, 0.002, ("00*", "010"), queries=[1, 2], decisions=[True, False], pairings=16)
    failed = Op("m", 0.001, error="RuntimeError: x")
    result = AlertResult(Alert(0, 20.0, 1), frozenset({0, 1, 2}), (0, 3), [wrong, miscounted, failed], 0.002)
    [a, b, c] = check_alert(result, tables, cost)
    assert len(a) == 1 and "HVE decision" in a[0]
    assert len(b) == 1 and "pairings" in b[0]
    assert c == ["RuntimeError: x"]
