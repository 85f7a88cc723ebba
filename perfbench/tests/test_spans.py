import pytest

from spans import NullTracer, Span, Tracer, covered_length, self_times


def span(name, start, end, parent):
    return Span(name, start, end, parent, 0, None, None)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2


def test_self_time_of_nested_spans():
    spans = [
        span("run.alert", 0.0, 10.0, -1),
        span("tokens.fixed_length_minimize", 1.0, 9.0, 0),
        span("kernels.prime_implicants", 2.0, 5.0, 1),
        span("kernels.select_cover", 5.0, 8.0, 1),
        span("grid.sample_alert_zone", 9.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([1.5, 2.0, 3.0, 3.0, 0.5])


def test_tracer_records_parents_alert_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("kernels.select_cover", lambda xs: xs, lambda args, result: len(result))
    outer = tracer.wrap("tokens.fixed_length_minimize", lambda xs: inner(xs) + inner(xs))
    tracer.alert, tracer.method = 7, "fixed-minimized"
    with tracer.span("run.issue"):
        assert outer([1, 2]) == [1, 2, 1, 2]
    spans = tracer.finished()
    assert [(s.name, s.parent) for s in spans] == [
        ("run.issue", -1),
        ("tokens.fixed_length_minimize", 0),
        ("kernels.select_cover", 1),
        ("kernels.select_cover", 1),
    ]
    assert all(s.alert == 7 and s.method == "fixed-minimized" for s in spans)
    assert [s.count for s in spans] == [None, None, 2, 2]
    assert all(t >= 0 for t in self_times(spans))


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("grid.sample_alert_zone", boom)()
    [s] = tracer.finished()
    assert s.name == "grid.sample_alert_zone" and s.end >= s.start


def test_null_tracer_passes_callables_through():
    fn = len
    assert NullTracer().wrap("x.y", fn) is fn
