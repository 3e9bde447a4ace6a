import pytest

import spans


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds b [15, 25]) and b [50, 70]
    tracer = spans.Tracer(FakeClock([0, 10, 15, 25, 40, 50, 70, 100]))
    tracer.begin("root")
    tracer.begin("a")
    tracer.begin("b")
    tracer.end()
    tracer.end()
    tracer.begin("b")
    tracer.end()
    tracer.end()
    assert tracer.totals["root"] == [1, 100, 50]
    assert tracer.totals["a"] == [1, 30, 20]
    assert tracer.totals["b"] == [2, 30, 30]
    assert tracer.total_self_ns() == 100


def test_same_function_nested_in_itself_is_not_counted_twice():
    # feasible_region [0, 10] direct, then select_setpoint [20, 60] calling it [30, 40]
    tracer = spans.Tracer(FakeClock([0, 10, 20, 30, 40, 60]))
    region = tracer.wrap("region", lambda: None)
    region()

    def select():
        region()

    tracer.wrap("select", select)()
    assert tracer.totals["region"] == [2, 20, 20]
    assert tracer.totals["select"] == [1, 40, 30]
    assert tracer.total_self_ns() == 50


def test_wrapped_call_closes_its_span_on_error():
    tracer = spans.Tracer(FakeClock([0, 5]))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert tracer.totals["fail"] == [1, 5, 5]
    assert tracer.calls("missing") == 0 and tracer.self_ns("missing") == 0


def test_instrumentation_is_removed_after_the_block(hf):
    originals = [getattr(owner, attr) for owner, attr, _ in spans.span_targets(hf)]
    init, cff = hf.engine.Simulation.__init__, hf.aggregator.cff
    with spans.patched(spans.instrument(hf, spans.Tracer())):
        assert hf.aggregator.cff is not cff
        assert hf.engine.Simulation.__init__ is not init
    assert [getattr(owner, attr) for owner, attr, _ in spans.span_targets(hf)] == originals
    assert hf.engine.Simulation.__init__ is init
