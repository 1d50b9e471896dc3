"""Self-time arithmetic, spans and install/restore of the layer tracer."""

import pytest

from perfbench.layertrace import LayerTracer, Target


class FakeClock:
    """Advances only when told to, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Layers:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.middle()
        self.clock.now += 2.0
        self.middle()
        return "done"

    def middle(self):
        self.clock.now += 3.0
        self.inner()

    def inner(self):
        self.clock.now += 4.0

    def hot(self):
        return 1

    def warm(self):
        self.clock.now += 1.0
        self.inner()

    def numbers(self, n):
        for index in range(n):
            self.clock.now += 0.5
            yield index


class Child(Layers):
    pass


def traced(span_cap=100):
    clock = FakeClock()
    tracer = LayerTracer(clock=clock, span_cap=span_cap)
    tracer.install([
        Target(Layers, "outer", "outer"),
        Target(Layers, "middle", "middle"),
        Target(Layers, "inner", "inner"),
        Target(Layers, "hot", "hot", mode="count"),
        Target(Layers, "warm", "warm", mode="aggregate"),
        Target(Layers, "numbers", "numbers"),
    ])
    return clock, tracer


def test_self_time_subtracts_wrapped_children():
    clock, tracer = traced()
    try:
        assert Layers(clock).outer() == "done"
    finally:
        tracer.restore()
    # outer: 1 + 2 of its own; middle: 3 each; inner: 4 each
    assert tracer.tally("outer")[:3] == (1, 3.0, 14.0)
    assert tracer.tally("middle")[:3] == (2, 6.0, 8.0)
    assert tracer.tally("inner")[:3] == (2, 8.0, 0.0)
    # self times partition the outermost wrapper's time exactly
    assert tracer.attributed_seconds() == pytest.approx(17.0)


def test_spans_link_parents_and_carry_request_ids(tmp_path):
    clock, tracer = traced()
    tracer.request_id = "r1"
    try:
        Layers(clock).outer()
    finally:
        tracer.restore()
    path = tmp_path / "spans.jsonl"
    assert tracer.write_spans(str(path)) == 5
    import json

    spans = {row["id"]: row for row in map(json.loads, path.read_text().splitlines())}
    by_name = {}
    for row in spans.values():
        by_name.setdefault(row["name"], []).append(row)
    (outer,) = by_name["outer"]
    assert outer["parent"] is None and outer["end"] - outer["start"] == 17.0
    assert all(row["parent"] == outer["id"] for row in by_name["middle"])
    parents = {spans[row["parent"]]["name"] for row in by_name["inner"]}
    assert parents == {"middle"}
    assert {row["request"] for row in spans.values()} == {"r1"}


def test_span_cap_keeps_timing_but_stops_spans():
    clock, tracer = traced(span_cap=1)
    try:
        layers = Layers(clock)
        layers.inner()
        layers.inner()
        layers.inner()
    finally:
        tracer.restore()
    assert tracer.tally("inner")[:2] == (3, 12.0)
    assert tracer.span_count() == 1


def test_count_mode_counts_calls_only():
    clock, tracer = traced()
    try:
        layers = Layers(clock)
        for _ in range(5):
            layers.hot()
    finally:
        tracer.restore()
    assert tracer.calls("hot") == 5
    assert tracer.self_seconds("hot") == 0.0
    assert tracer.span_count() == 0


def test_aggregate_mode_times_without_spans():
    clock, tracer = traced()
    try:
        Layers(clock).warm()
    finally:
        tracer.restore()
    assert tracer.tally("warm")[:3] == (1, 1.0, 4.0)
    assert tracer.span_count() == 1  # only the nested inner call


def test_generator_time_excludes_the_consumer():
    clock, tracer = traced()
    try:
        for _ in Layers(clock).numbers(4):
            clock.now += 10.0  # the consumer's work, not the generator's
    finally:
        tracer.restore()
    calls, own, _, _ = tracer.tally("numbers")
    assert calls == 1
    assert own == pytest.approx(2.0)


def test_restore_unwraps_and_unshadows_inherited_methods():
    original = Layers.__dict__["inner"]
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    tracer.install([Target(Child, "inner", "inner")])
    assert "inner" in Child.__dict__
    Child(clock).inner()
    Layers(clock).inner()  # the base class stays unwrapped
    tracer.restore()
    assert "inner" not in Child.__dict__
    assert Layers.__dict__["inner"] is original
    assert tracer.calls("inner") == 1


def test_restore_to_a_mark_keeps_earlier_wrappers():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    tracer.install([Target(Layers, "inner", "inner")])
    mark = tracer.install([Target(Layers, "middle", "middle")])
    tracer.restore(mark)
    Layers(clock).middle()
    assert tracer.calls("middle") == 0
    assert tracer.calls("inner") == 1
    tracer.restore()
    assert Layers.__dict__["inner"].__name__ == "inner"
    assert not hasattr(Layers.__dict__["inner"], "__wrapped__")
