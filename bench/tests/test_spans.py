import multiprocessing
import signal
import time

import pytest

from spans import CpuSpeedProbe, Tracer


def clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # parent [0, 10] holds child [2, 5] (with grandchild [3, 4]) and child [6, 7].
    tracer = Tracer(clock=clock(0, 2, 3, 4, 5, 6, 7, 10))
    with tracer.span("parent"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child"):
            pass

    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracer.total("parent") == 10
    assert tracer.self_time("parent") == 6
    assert tracer.durations("child") == [3, 1]
    assert tracer.self_time("child") == 3
    assert tracer.self_time("grandchild") == 1
    assert tracer.total("missing") == 0


def test_span_closes_when_its_body_raises():
    tracer = Tracer(clock=clock(0, 1, 2, 5))
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    assert tracer.durations("inner") == [1]
    assert tracer.durations("outer") == [5]
    assert tracer.self_time("outer") == 4


def test_counts_accumulate():
    tracer = Tracer()
    tracer.count("calls")
    tracer.count("calls", 4)
    assert tracer.counts["calls"] == 5
    assert tracer.counts["never"] == 0


def _spin(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_speed_probe_samples_this_process_and_forked_children():
    probe = CpuSpeedProbe()
    with probe.sampling() as alone:
        _spin(0.2)
    assert alone["samples"] > 10
    assert alone["scale"] > 0.0

    fork = multiprocessing.get_context("fork")
    with probe.sampling() as pooled:
        child = fork.Process(target=_spin, args=(0.3,))
        child.start()
        child.join(timeout=30)
    assert child.exitcode == 0
    # The parent only waits, so the samples come from the child.
    assert pooled["samples"] > 10
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
