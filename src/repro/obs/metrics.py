"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The paper's per-iteration figures (Figs 3–6) and scaling discussion (§6.2)
are all *distribution* questions — how many vertices move per iteration,
how large the active frontier stays, how skewed the color-set sizes are,
how evenly chunk work lands on workers.  This module records them as
named metrics alongside the span stream of :mod:`repro.obs.trace`:

* **counters** — monotonically increasing totals (moves applied,
  gain-aggregation strategy hits per path);
* **gauges** — last-written values (worker chunk imbalance of the most
  recent sweep);
* **histograms** — fixed-bucket (power-of-two upper bounds by default)
  distributions with exact ``sum``/``count``/``min``/``max``, so mean and
  tail shape survive aggregation.

Fixed buckets (rather than e.g. t-digests) keep merging trivially exact:
two histograms over the same bucket edges merge by adding counts — which
is precisely what the process backend needs when per-worker registries
are folded into the parent at join.

Standard metric names used by the pipeline (see docs/observability.md):

====================================  =========  ==============================
name                                  kind       meaning
====================================  =========  ==============================
``sweep.moves``                       counter    vertices moved, total
``aggregation.<path>``                counter    e_{v→C} strategy hits
``iteration.moves``                   histogram  moves per iteration
``iteration.active_vertices``         histogram  active-frontier size
``coloring.set_size``                 histogram  color-set sizes
``worker.chunk_vertices``             histogram  chunk sizes per sweep
``worker.cached_plans``               histogram  gather plans a worker holds
``worker.chunk_imbalance``            gauge      max/mean chunk size
====================================  =========  ==============================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.errors import ValidationError

__all__ = ["DEFAULT_BUCKETS", "Histogram", "MetricsRegistry"]

#: Default histogram bucket upper bounds: powers of two up to ~1M, then
#: +inf.  Wide enough for vertex/edge counts of any stand-in input.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    float(2 ** k) for k in range(0, 21)
) + (math.inf,)


@dataclass
class Histogram:
    """Fixed-bucket histogram with exact moment bookkeeping.

    ``buckets`` are *upper bounds* (inclusive), strictly increasing, with
    ``+inf`` last; ``counts[i]`` is the number of observations ``v`` with
    ``buckets[i-1] < v <= buckets[i]``.

    >>> h = Histogram(buckets=(1.0, 2.0, float("inf")))
    >>> for v in (0.5, 2.0, 7.0):
    ...     h.observe(v)
    >>> h.counts
    [1, 1, 1]
    >>> h.count, h.sum, h.min, h.max
    (3, 9.5, 0.5, 7.0)
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if not self.buckets or self.buckets[-1] != math.inf:
            raise ValidationError("histogram buckets must end with +inf")
        if any(a >= b for a, b in zip(self.buckets, self.buckets[1:])):
            raise ValidationError("histogram buckets must strictly increase")
        if not self.counts:
            self.counts = [0] * len(self.buckets)
        elif len(self.counts) != len(self.buckets):
            raise ValidationError("counts/buckets length mismatch")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        lo, hi = 0, len(self.buckets) - 1
        while lo < hi:  # first bucket whose upper bound fits the value
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Exact mean of the observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram over the same bucket edges into this one."""
        if tuple(other.buckets) != tuple(self.buckets):
            raise ValidationError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        return {
            "buckets": [b if math.isfinite(b) else "inf" for b in self.buckets],
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        buckets = tuple(
            math.inf if b == "inf" else float(b) for b in data["buckets"]
        )
        h = cls(buckets=buckets, counts=[int(c) for c in data["counts"]],
                sum=float(data["sum"]), count=int(data["count"]))
        if h.count:
            h.min = float(data["min"])
            h.max = float(data["max"])
        return h


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run.

    >>> reg = MetricsRegistry()
    >>> reg.count("sweep.moves", 5)
    >>> reg.gauge("worker.chunk_imbalance", 1.25)
    >>> reg.observe("iteration.moves", 5)
    >>> snap = reg.snapshot()
    >>> snap["counters"]["sweep.moves"], snap["gauges"]["worker.chunk_imbalance"]
    (5, 1.25)
    """

    def __init__(self) -> None:
        self.counters: dict[str, "int | float"] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0).

        Integral increments accumulate as Python ints: counting in floats
        silently loses increments once a counter passes 2**53, which a
        long-running process can genuinely reach for ``sweep.moves``.
        Non-integral increments (rare, but allowed) degrade to float.
        """
        if not isinstance(value, int):
            as_float = float(value)
            value = int(as_float) if as_float.is_integer() else as_float
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float,
                buckets: "tuple[float, ...] | None" = None) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(buckets=buckets or DEFAULT_BUCKETS)
            self.histograms[name] = hist
        hist.observe(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters add, gauges last-write,
        histograms bucket-wise add)."""
        for name, value in other.counters.items():
            self.count(name, value)
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram(
                    buckets=hist.buckets, counts=list(hist.counts),
                    sum=hist.sum, count=hist.count,
                )
                self.histograms[name].min = hist.min
                self.histograms[name].max = hist.max
            else:
                mine.merge(hist)

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` payload (e.g. from a forked worker)."""
        other = MetricsRegistry()
        for name, value in snapshot.get("counters", {}).items():
            other.count(name, value)  # int-preserving, unlike float(value)
        for name, value in snapshot.get("gauges", {}).items():
            other.gauges[name] = float(value)
        for name, data in snapshot.get("histograms", {}).items():
            other.histograms[name] = Histogram.from_dict(data)
        self.merge(other)

    def snapshot(self) -> dict:
        """JSON-ready view of every metric (the exporters' payload)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )
