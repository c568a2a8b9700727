"""Process-safe counters and histograms with cross-worker aggregation.

The metrics registry is the "how often / how big" half of
:mod:`repro.obs`.  It holds two kinds of series:

* **counters** — monotonically increasing integers
  (``registry.inc("cache.hits")``), or cumulative gauges published
  wholesale from an existing counter source
  (:meth:`MetricsRegistry.set_counter`);
* **histograms** — bounded reservoirs of float observations
  (``registry.observe("experiment.E1.seconds", dt)``) summarized as
  count/sum/mean/p50/p95/p99/max.

Histograms are *reservoir sampled*: each series keeps at most
:data:`HISTOGRAM_RESERVOIR_SIZE` observations (Vitter's Algorithm R
with a per-name deterministic seed) next to exact running count/sum/max
aggregates.  Below the cap the reservoir holds the full series and every
statistic is exact; above it, count/sum/mean/max stay exact while the
percentiles become estimates over a uniform sample.  This keeps a
long-running server's memory and summary cost O(1) per series instead
of O(observations) — at serving rates the previous grow-forever list
was a memory leak and an O(n log n) summary.

Process model.  Each process owns exactly one registry
(:func:`global_registry`); nothing is shared *live* across processes.
Instead a worker serializes its registry to a plain-dict *payload*
(:meth:`MetricsRegistry.payload`) that travels back to the parent with
the experiment result, and the parent stores it per-pid
(:meth:`MetricsRegistry.ingest`).  Payloads are **cumulative snapshots**:
a later payload from the same pid replaces the earlier one rather than
adding to it, so a pool worker that runs five experiments reports each
counter once, not five times.  Aggregation is then a straight sum of the
parent's own series plus the latest payload per worker pid — this is
what makes ``--cache-stats`` under ``--workers N`` report *all* activity
instead of the parent's alone.

All increments are plain dict operations on process-local state: no
locks on the hot path, nothing to configure, and nothing measurable when
the numbers are never read.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

__all__ = [
    "HISTOGRAM_RESERVOIR_SIZE",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "global_registry",
    "histogram_summary",
    "reset_global_registry",
]

#: Bumped when the payload / JSON layout changes incompatibly.
METRICS_SCHEMA_VERSION = 1

#: Max observations retained per histogram series.  Statistics are exact
#: up to this many observations; beyond it percentiles are estimated
#: from a uniform reservoir while count/sum/mean/max stay exact.
HISTOGRAM_RESERVOIR_SIZE = 4096


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    rank = max(int(len(ordered) * fraction + 0.5), 1)
    return ordered[min(rank, len(ordered)) - 1]


def histogram_summary(
    values: List[float],
    stats: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """count/sum/mean/p50/p95/p99/max of a series of observations.

    ``values`` is the (possibly subsampled) observation list used for
    percentiles.  ``stats``, when given, carries the *exact* running
    ``{"count", "sum", "max"}`` aggregates of the full series — a
    reservoir that overflowed reports exact totals with estimated
    percentiles.  Without ``stats`` the list is taken as the complete
    series.
    """
    if not values and (stats is None or not stats.get("count")):
        return {
            "count": 0, "sum": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }
    ordered = sorted(values)
    if stats is None:
        count = len(ordered)
        total = float(sum(ordered))
        maximum = ordered[-1]
    else:
        count = int(stats["count"])
        total = float(stats["sum"])
        maximum = float(stats["max"])
    return {
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "p50": _percentile(ordered, 0.50) if ordered else 0.0,
        "p95": _percentile(ordered, 0.95) if ordered else 0.0,
        "p99": _percentile(ordered, 0.99) if ordered else 0.0,
        "max": maximum,
    }


class _Reservoir:
    """Bounded uniform sample of a float series plus exact aggregates.

    Vitter's Algorithm R: the first ``cap`` observations are kept
    verbatim; observation ``n > cap`` replaces a random slot with
    probability ``cap / n``.  The RNG is seeded deterministically from
    the series name so repeated runs produce identical exports.
    """

    __slots__ = ("count", "total", "maximum", "samples", "_cap", "_rng")

    def __init__(self, seed: int, cap: int = HISTOGRAM_RESERVOIR_SIZE):
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0
        self.samples: List[float] = []
        self._cap = cap
        self._rng = np.random.default_rng(seed)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.count == 1 or value > self.maximum:
            self.maximum = value
        if len(self.samples) < self._cap:
            self.samples.append(value)
        else:
            slot = int(self._rng.integers(self.count))
            if slot < self._cap:
                self.samples[slot] = value

    def extend(self, values: List[float],
               stats: Optional[Dict[str, float]] = None) -> None:
        """Fold another (samples, exact-stats) series into this one."""
        for value in values:
            self.add(value)
        if stats is not None:
            # The loop above accounted only for the retained samples;
            # patch the exact aggregates up to the true series totals.
            extra = int(stats["count"]) - len(values)
            if extra > 0:
                self.count += extra
                self.total += float(stats["sum"]) - float(sum(values))
            if stats.get("count") and float(stats["max"]) > self.maximum:
                self.maximum = float(stats["max"])

    def stats(self) -> Dict[str, float]:
        return {
            "count": self.count, "sum": self.total, "max": self.maximum,
        }

    def summary(self) -> Dict[str, float]:
        return histogram_summary(self.samples, self.stats())


def _reservoir_seed(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def _derived_stats(values: List[float]) -> Dict[str, float]:
    """Exact stats for a legacy payload that carried only raw samples."""
    return {
        "count": len(values),
        "sum": float(sum(values)),
        "max": max(values) if values else 0.0,
    }


class MetricsRegistry:
    """Counters + histograms for one process, plus ingested worker payloads.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.inc("cache.hits", 3)
    >>> registry.observe("experiment.E1.seconds", 0.25)
    >>> registry.counter("cache.hits")
    3
    >>> registry.ingest({"pid": 999, "counters": {"cache.hits": 4},
    ...                  "histograms": {}})
    >>> registry.aggregate_counters()["cache.hits"]
    7
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, _Reservoir] = {}
        self._process_payloads: Dict[int, Dict[str, Any]] = {}
        # Counters are bumped from thread-pool workers (the daemon plans
        # in executor threads), so the read-modify-write is locked.
        self._inc_lock = threading.Lock()

    # -- local series -------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        with self._inc_lock:
            self._counters[name] = (
                self._counters.get(name, 0) + int(amount)
            )

    def set_counter(self, name: str, value: int) -> None:
        """Publish a cumulative value wholesale (e.g. cache stats)."""
        self._counters[name] = int(value)

    def counter(self, name: str) -> int:
        """Current local value of counter ``name`` (0 if never touched)."""
        return self._counters.get(name, 0)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        reservoir = self._histograms.get(name)
        if reservoir is None:
            reservoir = _Reservoir(_reservoir_seed(name))
            self._histograms[name] = reservoir
        reservoir.add(value)

    def clear(self) -> None:
        """Drop all local series and every ingested payload."""
        self._counters = {}
        self._histograms = {}
        self._process_payloads = {}

    # -- cross-process payloads ---------------------------------------

    def payload(self) -> Dict[str, Any]:
        """This process's series as a picklable cumulative snapshot.

        ``histograms`` maps name -> retained samples (the full series
        while it fits the reservoir), as it always has;
        ``histogram_stats`` carries the exact count/sum/max aggregates
        so an overflowed reservoir still reports true totals.  Readers
        that predate ``histogram_stats`` keep working off the samples.
        """
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "pid": os.getpid(),
            "counters": dict(self._counters),
            "histograms": {
                name: list(reservoir.samples)
                for name, reservoir in self._histograms.items()
            },
            "histogram_stats": {
                name: reservoir.stats()
                for name, reservoir in self._histograms.items()
            },
        }

    def ingest(self, payload: Dict[str, Any]) -> None:
        """Store a worker payload, replacing any earlier one for its pid.

        Payloads are cumulative, so replacement (not addition) is what
        keeps a long-lived pool worker from being counted once per job.
        Payloads without ``histogram_stats`` (older writers) have their
        exact aggregates derived from the sample lists.
        """
        pid = int(payload["pid"])
        histograms = {
            name: list(values)
            for name, values in payload.get("histograms", {}).items()
        }
        stats = payload.get("histogram_stats") or {}
        self._process_payloads[pid] = {
            "counters": dict(payload.get("counters", {})),
            "histograms": histograms,
            "histogram_stats": {
                name: dict(stats.get(name) or _derived_stats(values))
                for name, values in histograms.items()
            },
        }

    def process_pids(self) -> List[int]:
        """Pids of every worker whose payload has been ingested."""
        return sorted(self._process_payloads)

    def process_counters(self, pid: int) -> Dict[str, int]:
        """The latest counter snapshot ingested from ``pid``."""
        return dict(self._process_payloads[pid]["counters"])

    # -- aggregation --------------------------------------------------

    def aggregate_counters(self) -> Dict[str, int]:
        """Own counters plus the latest snapshot per worker, summed."""
        totals = dict(self._counters)
        for payload in self._process_payloads.values():
            for name, value in payload["counters"].items():
                totals[name] = totals.get(name, 0) + int(value)
        return totals

    def aggregate_histograms(self) -> Dict[str, Dict[str, float]]:
        """Summaries over own plus every worker's observations."""
        merged: Dict[str, _Reservoir] = {}

        def _series(name: str) -> _Reservoir:
            reservoir = merged.get(name)
            if reservoir is None:
                reservoir = _Reservoir(_reservoir_seed(name))
                merged[name] = reservoir
            return reservoir

        for name, reservoir in self._histograms.items():
            _series(name).extend(
                list(reservoir.samples), reservoir.stats()
            )
        for payload in self._process_payloads.values():
            for name, values in payload["histograms"].items():
                _series(name).extend(
                    values, payload["histogram_stats"][name]
                )
        return {
            name: reservoir.summary()
            for name, reservoir in sorted(merged.items())
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """The full registry as the JSON document ``--metrics-out`` writes."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "parent_pid": os.getpid(),
            "aggregate": {
                "counters": dict(sorted(self.aggregate_counters().items())),
                "histograms": self.aggregate_histograms(),
            },
            "parent": {
                "counters": dict(sorted(self._counters.items())),
                "histograms": {
                    name: reservoir.summary()
                    for name, reservoir in sorted(
                        self._histograms.items()
                    )
                },
            },
            "processes": {
                str(pid): {
                    "counters": dict(
                        sorted(payload["counters"].items())
                    ),
                    "histograms": {
                        name: histogram_summary(
                            values,
                            payload["histogram_stats"][name],
                        )
                        for name, values in sorted(
                            payload["histograms"].items()
                        )
                    },
                }
                for pid, payload in sorted(
                    self._process_payloads.items()
                )
            },
        }

    def write_json(self, path: Union[str, Path]) -> None:
        """Serialize :meth:`to_json_dict` to ``path`` (pretty-printed)."""
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n"
        )


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry used by all library instrumentation."""
    return _GLOBAL_REGISTRY


def reset_global_registry() -> MetricsRegistry:
    """Replace the process-wide registry with a fresh one; returns it."""
    global _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY
