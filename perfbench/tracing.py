"""Spans around the benchmark's calls into diffseq, kept in memory.

A span records the layer function it wraps (``<module>.<function>``), its
start and end on the ``perf_counter`` clock, the CPU time it used, the job
span that caused it and the job id, plus counts of the work it was given.
When tracing is off the same calls go through a span that records nothing.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Span:
    id: int
    name: str
    job: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    cpu: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``enabled``; a disabled tracer only hands out a
    scratch dict for counts, so untraced runs pay one generator per call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._job: Optional[Span] = None

    @contextmanager
    def job(self, job_id: str):
        with self._record("job", job_id, None) as span:
            self._job = span
            try:
                yield
            finally:
                self._job = None

    @contextmanager
    def span(self, name: str, **counts):
        """Wrap one layer call; the caller may add counts to the yielded dict."""
        if not self.enabled:
            yield counts
            return
        job = self._job
        with self._record(name, job.job if job else "", job.id if job else None) as span:
            span.counts.update(counts)
            yield span.counts

    @contextmanager
    def _record(self, name: str, job_id: str, parent: Optional[int]):
        if not self.enabled:
            yield None
            return
        span = Span(len(self.spans), name, job_id, parent, 0.0)
        self.spans.append(span)
        cpu0 = cpu_seconds()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu = cpu_seconds() - cpu0

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
