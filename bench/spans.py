"""In-memory spans and counters: the one timing helper of the benchmark.

A :class:`Tracer` records named spans (start, end and the span that was open
when it started) plus named counters.  Spans nest through a stack, so a
layer's self time is its span's duration minus the time its direct child
spans cover.  Nothing is written anywhere until the caller reads the totals.

    tracer = Tracer()
    with tracer.span("io.read_submission"):
        archive = read_submission(path)
    tracer.count("io.records", len(archive.entries))
    tracer.total("io.read_submission")      # seconds, summed over spans

A :class:`CpuSpeedProbe` measures how fast the processor ran while a span was
open, so that wall times taken on a host whose cores change speed can be
compared at one reference speed.
"""

from __future__ import annotations

import mmap
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start


class Tracer:
    """Records spans and counters for one process, single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name=name, start=self.clock(), parent=parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        """Durations of the finished spans called ``name``, in start order."""
        return [s.duration for s in self.spans if s.name == name and s.end is not None]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the ``name`` spans minus their direct children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None and s.end is not None:
                child_time[s.parent] += s.duration
        return sum(
            s.duration - child_time[i]
            for i, s in enumerate(self.spans)
            if s.name == name and s.end is not None
        )


class CpuSpeedProbe:
    """Samples the processor's speed from inside the processes being timed.

    On shared hosts a core's speed can change by half or more for seconds at
    a time, because other tenants use the same physical core.  CPU time moves
    with wall time then, so neither separates the program from the host.
    While :meth:`sampling` is active, each ``INTERVAL_S`` of process CPU time
    a ``SIGPROF`` handler times a fixed loop of ``LOOPS`` additions in thread
    CPU time, which excludes preemption.  Children forked while it is active,
    such as process-pool workers, sample too and report through an anonymous
    shared mapping, one (sum, count) slot per process.

    ``scale`` is ``REFERENCE_S`` over the mean sampled loop time: a wall time
    multiplied by it is the time at the reference speed.  The loop costs
    about 1% of the sampled CPU time.  Must be used from the main thread.
    """

    LOOPS = 500
    INTERVAL_S = 0.002
    REFERENCE_S = 20e-6  # loop time on an idle core of a 2-vCPU Xeon (Sapphire Rapids) KVM guest
    MAX_PROCESSES = 256

    def __init__(self):
        self._table = mmap.mmap(-1, 16 * self.MAX_PROCESSES)
        self._cells = memoryview(self._table).cast("d")
        self._active = False
        self._forks = 0
        self._slot = 0
        self._sum = 0.0
        self._count = 0
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork_child)

    @contextmanager
    def sampling(self) -> Iterator[dict]:
        """Yields a dict that holds ``scale`` and ``samples`` after the block."""
        reading: dict = {}
        self._table[:] = bytes(len(self._table))
        self._forks, self._slot, self._sum, self._count = 0, 0, 0.0, 0
        previous = signal.signal(signal.SIGPROF, self._on_sigprof)
        self._active = True
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            self._active = False
            signal.signal(signal.SIGPROF, previous)
            total = sum(self._cells[0::2])
            samples = int(sum(self._cells[1::2]))
            reading["samples"] = samples
            reading["scale"] = self.REFERENCE_S * samples / total if samples else 1.0

    def _on_sigprof(self, signum, frame) -> None:
        if not self._active or self._slot >= self.MAX_PROCESSES:
            return
        start = time.thread_time()
        acc = 0
        for i in range(self.LOOPS):
            acc += i
        self._sum += time.thread_time() - start
        self._count += 1
        self._cells[2 * self._slot] = self._sum
        self._cells[2 * self._slot + 1] = self._count

    def _before_fork(self) -> None:
        if self._active:
            self._forks += 1

    def _after_fork_child(self) -> None:
        # Interval timers are not inherited across fork; restart in the child.
        if self._active:
            self._slot, self._sum, self._count = self._forks, 0.0, 0
            signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
