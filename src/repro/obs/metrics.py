"""The metrics registry: named counters, gauges, and histograms.

Instrumentation hooks throughout the storage and join layers feed a
:class:`MetricsRegistry` — buffer pool hit/eviction counts, per-file
sequential/random transfer tallies, synchronized-scan open-page depth,
DSB set/probe/reject counts, external-sort run statistics.  These are
*observability* quantities: they never feed the simulated cost model
and recording them never touches the I/O ledger, so every simulated
number is identical whether a run is instrumented or not.

The default registry everywhere is :data:`NULL_METRICS`, whose methods
are no-ops; hot paths additionally guard on ``metrics is not None`` so
an uninstrumented run pays nothing beyond an attribute test.

Series are identified by a metric name plus optional labels, rendered
``name{key=value,...}`` with keys sorted — e.g.
``io.reads{file=in-a,kind=sequential}``.
"""

from __future__ import annotations

import math
from typing import Any


def series_key(name: str, labels: dict[str, Any]) -> str:
    """Canonical series identifier: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


QUANTILE_SAMPLE_CAP = 4096
"""Samples retained per histogram for exact quantiles.  Distributions
that outgrow the cap (bulk I/O series) fall back to bucket-interpolated
approximations."""


class Histogram:
    """A bounded-memory summary of observed values.

    Tracks count, sum, min, max, counts per power-of-two bucket (bucket
    ``e`` holds values in ``(2^(e-1), 2^e]``; zero and negative values
    land in a dedicated underflow bucket keyed ``"<=0"``) — and, up to
    :data:`QUANTILE_SAMPLE_CAP` observations, the raw samples, so
    :meth:`quantile` (and the ``p50``/``p95``/``p99`` fields of
    :meth:`as_dict`) is *exact*.  Past the cap the samples are dropped
    and quantiles degrade to power-of-two bucket interpolation.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[str, int] = {}
        self.samples: list[float] | None = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            key = "<=0"
        else:
            key = str(math.ceil(math.log2(value)) if value > 1 else 0)
        self.buckets[key] = self.buckets.get(key, 0) + 1
        if self.samples is not None:
            if len(self.samples) < QUANTILE_SAMPLE_CAP:
                self.samples.append(value)
            else:
                self.samples = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def exact_quantiles(self) -> bool:
        """Whether :meth:`quantile` is exact (samples all retained)."""
        return self.samples is not None and len(self.samples) == self.count

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile (``0 <= q <= 1``) of the observations.

        Exact (linear interpolation between order statistics, the
        numpy/R-7 definition) while the samples fit the retention cap;
        bucket-interpolated — and flagged by :attr:`exact_quantiles` —
        once they no longer do.  ``None`` when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        if self.exact_quantiles:
            ordered = sorted(self.samples)
            position = q * (len(ordered) - 1)
            lo = math.floor(position)
            hi = math.ceil(position)
            if lo == hi:
                return ordered[lo]
            frac = position - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        return self._bucket_quantile(q)

    def _bucket_quantile(self, q: float) -> float:
        """Approximate quantile from the power-of-two buckets: find the
        bucket holding the target rank and interpolate linearly inside
        its value range (clamped to the observed min/max)."""
        target = q * (self.count - 1)
        seen = 0

        def bounds(key: str) -> tuple[float, float]:
            if key == "<=0":
                return (min(self.min or 0.0, 0.0), 0.0)
            exponent = int(key)
            lo = 0.0 if exponent == 0 else float(2 ** (exponent - 1))
            return (lo, float(2**exponent))

        for key in sorted(self.buckets, key=bounds):
            bucket_count = self.buckets[key]
            if seen + bucket_count > target:
                lo, hi = bounds(key)
                if self.min is not None:
                    lo = max(lo, self.min)
                if self.max is not None:
                    hi = min(hi, self.max)
                within = (target - seen) / bucket_count
                return lo + (hi - lo) * within
            seen += bucket_count
        return float(self.max if self.max is not None else 0.0)

    def merge(self, other: Histogram) -> None:
        """Fold another histogram's samples into this one (exact: the
        summary is closed under merging, including retained samples —
        unless the union outgrows the retention cap)."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for key, count in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + count
        if (
            self.samples is not None
            and other.samples is not None
            and len(self.samples) + len(other.samples) <= QUANTILE_SAMPLE_CAP
        ):
            self.samples.extend(other.samples)
        else:
            self.samples = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "exact_quantiles": self.exact_quantiles,
            "buckets": dict(self.buckets),
            "samples": None if self.samples is None else list(self.samples),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Histogram:
        hist = cls()
        hist.count = int(data["count"])
        hist.total = float(data["sum"])
        hist.min = data["min"]
        hist.max = data["max"]
        hist.buckets = {str(k): int(v) for k, v in data["buckets"].items()}
        samples = data.get("samples")
        # Pre-quantile dumps carry no samples: treat them as overflowed
        # (quantiles degrade to bucket interpolation, never lie).
        hist.samples = None if samples is None else [float(v) for v in samples]
        if hist.samples is not None and len(hist.samples) != hist.count:
            hist.samples = None
        return hist

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, mean={self.mean:.3g}, "
            f"min={self.min}, max={self.max})"
        )


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        """Add ``n`` to a counter series."""
        key = series_key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge series to its latest value."""
        self.gauges[series_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one sample into a histogram series."""
        key = series_key(name, labels)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe(value)

    # -- reading --------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> int:
        """Current value of a counter series (0 when never counted)."""
        return self.counters.get(series_key(name, labels), 0)

    def counter_total(self, name: str) -> int:
        """Sum of a counter over all its label combinations."""
        prefix = name + "{"
        return sum(
            value
            for key, value in self.counters.items()
            if key == name or key.startswith(prefix)
        )

    def histogram(self, name: str, **labels: Any) -> Histogram | None:
        return self.histograms.get(series_key(name, labels))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready dump of every series."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: hist.as_dict() for key, hist in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> MetricsRegistry:
        registry = cls()
        registry.counters = {str(k): int(v) for k, v in data["counters"].items()}
        registry.gauges = {str(k): float(v) for k, v in data["gauges"].items()}
        registry.histograms = {
            str(k): Histogram.from_dict(v) for k, v in data["histograms"].items()
        }
        return registry


class NullMetricsRegistry(MetricsRegistry):
    """The do-nothing registry: instrumentation hooks short-circuit on
    ``enabled`` (or skip the call entirely when handed ``None``)."""

    enabled = False

    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass


NULL_METRICS = NullMetricsRegistry()
"""Shared no-op registry (safe: it never stores anything)."""
