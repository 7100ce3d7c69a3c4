import pytest

from spans import ROOT, Tracer, patched


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.active = True

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    root = tracer.begin_op()
    clock.advance(0.25)
    traced_middle()
    tracer.end_op(root, 0.25 + 5.5 + 0.25, factor=1.0)

    assert tracer.span("leaf").calls == 2
    assert tracer.span("leaf").total_s == pytest.approx(4.0)
    assert tracer.span("leaf").self_s == pytest.approx(4.0)
    assert tracer.span("middle").total_s == pytest.approx(5.5)
    assert tracer.span("middle").self_s == pytest.approx(1.5)
    assert tracer.span(ROOT).self_s == pytest.approx(0.5)
    assert sum(s.self_s for s in tracer.totals.values()) == pytest.approx(6.0)


def test_same_layer_reentry_is_one_span_and_factor_scales():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.active = True
    inner = tracer.wrap("storage", lambda: clock.advance(1.0))
    outer = tracer.wrap("storage", lambda: inner())
    root = tracer.begin_op()
    outer()
    tracer.end_op(root, 1.0, factor=0.5)
    assert tracer.span("storage").calls == 1
    assert tracer.span("storage").total_s == pytest.approx(0.5)
    assert tracer.span(ROOT).self_s == pytest.approx(0.0)


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    assert tracer.wrap("x", lambda: 7)() == 7
    assert tracer.totals == {}


def test_patched_wraps_and_restores():
    class Owner:
        def work(self):
            return 3

    original = Owner.__dict__["work"]
    tracer = Tracer()
    with patched(tracer, [(Owner, "work", "layer.work")]):
        root = tracer.begin_op()
        assert Owner().work() == 3
        tracer.end_op(root, 1.0, 1.0)
    assert Owner.__dict__["work"] is original
    assert tracer.span("layer.work").calls == 1
    assert not tracer.active
