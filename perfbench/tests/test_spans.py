"""The benchmark's own arithmetic, on synthetic spans.

    python3 -m pytest perfbench/tests
"""
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import (Span, Tracer, beyond, median, percentile,  # noqa: E402
                   summarize, union_length)


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_percentiles_with_sample_counts():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert median(values) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    assert beyond(values, 90) == 10
    assert beyond(values, 50) == 50
    assert percentile([3.0], 90) == 3.0
    assert beyond([3.0], 90) == 0
    # order of the samples does not matter
    assert percentile(list(reversed(values)), 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ten_samples_beyond_p90():
    # the benchmark's minimum of 100 latency samples is enough
    assert beyond([float(v) for v in range(91)], 90) == 9
    assert beyond([float(v) for v in range(100)], 90) == 10


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(1, 3), (0, 4), (5, 6)]) == 5.0


def test_self_time_with_nested_spans():
    # root 0..10 > child 1..4 > grandchild 2..3, and child 5..9
    spans = [Span(0, "root", 1, 0.0, 10.0, None),
             Span(1, "child", 1, 1.0, 4.0, 0),
             Span(2, "leaf", 1, 2.0, 3.0, 1),
             Span(3, "child", 1, 5.0, 9.0, 0)]
    layers = summarize(spans)
    assert layers["root"].self == pytest.approx(3.0)   # 10 - 3 - 4
    assert layers["child"].self == pytest.approx(6.0)  # (3 - 1) + 4
    assert layers["child"].total == pytest.approx(7.0)
    assert layers["child"].calls == 2
    assert layers["leaf"].self == pytest.approx(1.0)


def test_self_time_counts_overlapping_worker_spans_once():
    # Two worker threads busy 1..6 and 2..8 inside a 0..10 parent.
    spans = [Span(0, "hist", 1, 0.0, 10.0, None),
             Span(1, "kernel", 2, 1.0, 6.0, 0),
             Span(2, "kernel", 3, 2.0, 8.0, 0)]
    layers = summarize(spans)
    assert layers["hist"].self == pytest.approx(3.0)
    assert layers["kernel"].total == pytest.approx(11.0)


def test_tracer_nests_calls_and_restores_attributes():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Module:
        @staticmethod
        def inner():
            clock.now += 2.0

        @staticmethod
        def outer():
            clock.now += 1.0
            Module.inner()
            clock.now += 1.0

    original = Module.inner
    tracer.wrap(Module, "inner", "inner")
    tracer.wrap(Module, "outer", "outer")
    assert not tracer.wrap(Module, "missing", "missing")
    Module.outer()
    tracer.restore()
    assert Module.inner is original
    assert tracer.absent == ["Module.missing"]
    layers = summarize(tracer.spans)
    assert layers["outer"].total == pytest.approx(4.0)
    assert layers["outer"].self == pytest.approx(2.0)
    assert layers["inner"].self == pytest.approx(2.0)


def test_spans_from_two_worker_threads_attach_to_the_caller():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work():
        barrier.wait()
        tracer.call("kernel", lambda: sum(range(20000)))
        tracer.add("batches")

    def pool():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.call("hist", pool)
    hist = next(s for s in tracer.spans if s.name == "hist")
    kernels = [s for s in tracer.spans if s.name == "kernel"]
    assert len(kernels) == 2
    assert {s.parent for s in kernels} == {hist.id}
    assert len({s.thread for s in kernels}) == 2
    assert all(hist.start <= s.start and s.end <= hist.end for s in kernels)
    assert tracer.counts["batches"] == 2
    layers = summarize(tracer.spans)
    covered = union_length([(s.start, s.end) for s in kernels])
    assert layers["hist"].self == pytest.approx(hist.dur - covered)
    assert 0.0 <= layers["hist"].self <= hist.dur
