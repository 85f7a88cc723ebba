from collections import Counter
from itertools import islice

import pytest

from spans import NullTracer
from workloads import WORKLOADS, Api, alerts, setup


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_alert_stream_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    first = list(islice(alerts(w, 3), 40))
    assert first == list(islice(alerts(w, 3), 40))
    assert first != list(islice(alerts(w, 4), 40))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_block_holds_the_exact_radius_shares(name):
    w = WORKLOADS[name]
    stream = alerts(w, 5)
    for _ in range(4):
        block = [next(stream).radius for _ in range(w.block_size)]
        assert Counter(block) == {r: k for r, k in w.block}


def test_setup_is_deterministic_per_seed():
    w = WORKLOADS["alert-match"]
    api = Api(NullTracer())
    a, b, c = setup(api, w, 1), setup(api, w, 1), setup(api, w, 2)
    assert a.user_cells == b.user_cells != c.user_cells
    assert a.grid.weights == b.grid.weights == c.grid.weights  # the map is fixed
    assert [s.ciphertexts for s in a.hve.values()] == [s.ciphertexts for s in b.hve.values()]
