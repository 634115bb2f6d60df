"""Measurement primitives shared by every experiment.

The experiment harness needs exactly what WebBench reported: request
throughput (requests/second over a measurement window), per-class breakdowns,
and latency summaries.  This module provides small, composable collectors:

``Counter``          monotone event counts with rate-over-window helpers
``SummaryStats``     streaming mean/variance/min/max (Welford)
``Histogram``        fixed log-spaced buckets with percentile estimates
``TimeWeighted``     time-averaged piecewise-constant signals (queue lengths)
``ThroughputMeter``  completions per second inside [warmup, end]
``MetricSet``        a namespaced bag of the above
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["Counter", "SummaryStats", "Histogram", "TimeWeighted",
           "ThroughputMeter", "MetricSet"]


class Counter:
    """A monotone counter of occurrences."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0

    def increment(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters are monotone; use a separate counter")
        self.count += n

    def rate(self, elapsed: float) -> float:
        """Occurrences per unit time over ``elapsed``."""
        return self.count / elapsed if elapsed > 0 else 0.0


class SummaryStats:
    """Streaming summary statistics (Welford's online algorithm)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "SummaryStats") -> "SummaryStats":
        """Combine two summaries (parallel Welford merge)."""
        merged = SummaryStats(self.name)
        merged.n = self.n + other.n
        if merged.n == 0:
            return merged
        delta = other._mean - self._mean
        merged._mean = self._mean + delta * other.n / merged.n
        merged._m2 = (self._m2 + other._m2 +
                      delta * delta * self.n * other.n / merged.n)
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged


class Histogram:
    """Log-spaced histogram with percentile estimation.

    Buckets span ``[low, high]`` geometrically; observations outside the
    range land in the first/last bucket.  Percentiles are linearly
    interpolated inside the winning bucket, which is accurate enough for
    latency reporting (bucket ratio defaults to ~1.12, i.e. <=12 % error).
    """

    def __init__(self, low: float = 1e-6, high: float = 1e3,
                 buckets_per_decade: int = 20, name: str = ""):
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high")
        self.name = name
        self.low = low
        self.high = high
        decades = math.log10(high / low)
        self.nbuckets = max(1, int(math.ceil(decades * buckets_per_decade)))
        self._ratio = (high / low) ** (1.0 / self.nbuckets)
        self.counts = [0] * self.nbuckets
        self.total = 0
        #: observations that landed outside [low, high] -- they are counted
        #: in the first/last bucket, but a large count here means the
        #: configured range does not fit the data
        self.underflow = 0
        self.overflow = 0
        self.stats = SummaryStats(name)

    def _bucket(self, x: float) -> int:
        if x <= self.low:
            return 0
        if x >= self.high:
            return self.nbuckets - 1
        idx = int(math.log(x / self.low) / math.log(self._ratio))
        return min(max(idx, 0), self.nbuckets - 1)

    def observe(self, x: float) -> None:
        self.counts[self._bucket(x)] += 1
        self.total += 1
        if x < self.low:
            self.underflow += 1
        elif x > self.high:
            self.overflow += 1
        self.stats.observe(x)

    def bucket_bounds(self, idx: int) -> tuple[float, float]:
        lo = self.low * self._ratio ** idx
        return lo, lo * self._ratio

    def percentile(self, p: float) -> float:
        """Estimate the p-th percentile (p in [0, 100]).

        The interpolated estimate is clamped to the observed
        ``[stats.min, stats.max]`` range, so an out-of-range observation
        parked in an edge bucket (see ``underflow``/``overflow``) can never
        make a percentile report a value no request actually saw.
        """
        if not 0 <= p <= 100:
            raise ValueError("p must be within [0, 100]")
        if self.total == 0:
            return 0.0
        target = p / 100.0 * self.total
        acc = 0
        estimate = self.high
        for idx, c in enumerate(self.counts):
            if acc + c >= target:
                lo, hi = self.bucket_bounds(idx)
                frac = (target - acc) / c if c else 0.0
                estimate = lo + (hi - lo) * frac
                break
            acc += c
        return min(max(estimate, self.stats.min), self.stats.max)


class TimeWeighted:
    """Time-average of a piecewise-constant signal (e.g. queue length)."""

    def __init__(self, now: float = 0.0, value: float = 0.0, name: str = ""):
        self.name = name
        self._last_t = now
        self._value = value
        self._integral = 0.0
        self._start = now
        self.peak = value

    @property
    def value(self) -> float:
        return self._value

    def update(self, now: float, value: float) -> None:
        if now < self._last_t:
            raise ValueError("time must be monotone")
        self._integral += self._value * (now - self._last_t)
        self._last_t = now
        self._value = value
        self.peak = max(self.peak, value)

    def average(self, now: float) -> float:
        elapsed = now - self._start
        if elapsed <= 0:
            return self._value
        return (self._integral + self._value * (now - self._last_t)) / elapsed


class ThroughputMeter:
    """Counts completions inside a [warmup, horizon] measurement window."""

    def __init__(self, warmup: float = 0.0, name: str = ""):
        self.name = name
        self.warmup = warmup
        self.completions = 0
        self.bytes = 0
        self.first_t: Optional[float] = None
        self.last_t: Optional[float] = None

    def record(self, now: float, nbytes: int = 0) -> None:
        if now < self.warmup:
            return
        self.completions += 1
        self.bytes += nbytes
        if self.first_t is None:
            self.first_t = now
        self.last_t = now

    def requests_per_second(self, horizon: float) -> float:
        """Completions per second between warmup and ``horizon``."""
        window = horizon - self.warmup
        if window <= 0:
            return 0.0
        return self.completions / window

    def bytes_per_second(self, horizon: float) -> float:
        window = horizon - self.warmup
        if window <= 0:
            return 0.0
        return self.bytes / window


class MetricSet:
    """A lazily-populated, namespaced bag of collectors."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._stats: dict[str, SummaryStats] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timeweighted: dict[str, TimeWeighted] = {}
        self._meters: dict[str, ThroughputMeter] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def stats(self, name: str) -> SummaryStats:
        if name not in self._stats:
            self._stats[name] = SummaryStats(name)
        return self._stats[name]

    def histogram(self, name: str, **kwargs) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name=name, **kwargs)
        return self._histograms[name]

    def timeweighted(self, name: str, now: float = 0.0) -> TimeWeighted:
        """A named piecewise-constant signal; ``now`` seeds first creation."""
        if name not in self._timeweighted:
            self._timeweighted[name] = TimeWeighted(now=now, name=name)
        return self._timeweighted[name]

    def meter(self, name: str, warmup: float = 0.0) -> ThroughputMeter:
        """A named completion meter; ``warmup`` applies on first creation."""
        if name not in self._meters:
            self._meters[name] = ThroughputMeter(warmup=warmup, name=name)
        return self._meters[name]

    def counter_value(self, name: str) -> int:
        """Read a counter without creating it (0 when absent).

        Telemetry probes use this instead of :meth:`counter`: a sampling
        read must never materialize a collector, or enabling telemetry
        would change the key set of :meth:`snapshot` and break the
        zero-perturbation contract.
        """
        c = self._counters.get(name)
        return c.count if c is not None else 0

    def snapshot(self, now: Optional[float] = None) -> dict:
        """A plain-dict view for reports and assertions.

        Keys are sorted in every section, so two equal metric sets always
        serialize identically.  Passing ``now`` adds the time-average to
        each ``timeweighted`` entry (the average is undefined without a
        clock reading).
        """
        timeweighted: dict[str, dict[str, float]] = {}
        for k in sorted(self._timeweighted):
            v = self._timeweighted[k]
            entry: dict[str, float] = {"value": v.value, "peak": v.peak}
            if now is not None:
                entry["avg"] = v.average(now)
            timeweighted[k] = entry
        return {
            "counters": {k: self._counters[k].count
                         for k in sorted(self._counters)},
            "stats": {k: {"n": v.n, "mean": v.mean, "min": v.min,
                          "max": v.max, "stdev": v.stdev}
                      for k, v in sorted(self._stats.items())},
            "histograms": {k: {"n": v.total,
                               "p50": v.percentile(50),
                               "p95": v.percentile(95),
                               "p99": v.percentile(99),
                               "underflow": v.underflow,
                               "overflow": v.overflow}
                           for k, v in sorted(self._histograms.items())},
            "timeweighted": timeweighted,
            "meters": {k: {"n": v.completions, "bytes": v.bytes}
                       for k, v in sorted(self._meters.items())},
        }
