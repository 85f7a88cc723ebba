import pytest

from run import Measured
from speed import REFERENCE_S, reference_s, scale
from workloads import Alert, AlertResult, Op


def _add(out, i, elapsed, issue_s):
    op = Op("huffman", issue_s, tokens=("0*",))
    out.add(AlertResult(Alert(i, 10.0, i), frozenset(), (), [op], elapsed), [[]])


def test_a_block_is_scaled_by_the_readings_that_bracket_it():
    out = Measured(counted=4)
    out.boundary(REFERENCE_S)
    _add(out, 0, 1.0, 0.5)
    _add(out, 1, 3.0, 0.25)
    assert out.pending and out.elapsed == []
    out.boundary(3 * REFERENCE_S)  # the machine ran at half speed over the block
    assert out.elapsed == pytest.approx([0.5, 1.5])
    assert out.issue_ms == pytest.approx([250.0, 125.0])
    assert out.timed_s == pytest.approx(4.0)  # the measured total is kept
    assert out.rate() == pytest.approx(1.0)
    # A reading with no block before it only opens the next block.
    out.boundary(REFERENCE_S)
    _add(out, 2, 2.0, 0.5)
    out.boundary(REFERENCE_S)
    assert out.elapsed == pytest.approx([0.5, 1.5, 2.0])
    assert out.speed() == pytest.approx(1.0)


def test_scale_is_one_at_the_reference_speed():
    assert scale(REFERENCE_S, REFERENCE_S) == 1.0
    assert scale(2 * REFERENCE_S, 2 * REFERENCE_S) == 0.5


def test_reference_loop_is_timed_and_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert 0 < reference_s(repeats=1) < 60
    assert gc.isenabled()
