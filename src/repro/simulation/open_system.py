"""Open-system I/O simulation: queries arriving over time.

The closed-loop simulator (:mod:`repro.simulation.parallel_io`) submits
all queries at once; real systems see arrivals spread over time, and the
interesting regime is the transition from a lightly loaded system (query
latency = the paper's response time, in ms) to saturation (latency is
queueing-dominated).  This module provides an event-free but exact FIFO
model of that:

* queries carry arrival times; each disk serves its segments in arrival
  order, starting a segment no earlier than its query's arrival;
* a query completes when all its per-disk segments do.

The declustering insight it exposes: at *light* load the best scheme is
the one with the lowest response time (the paper's metric — HCAM/cyclic
win small queries), while near *saturation* per-query latency is queue-
depth-bound and spreading each query across more disks stops helping —
the multi-user effect of Ghandeharizadeh & DeWitt.  The crossover is
measured by experiment X5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import SimulationError
from repro.core.query import RangeQuery
from repro.obs.trace import trace
from repro.simulation.disk import DiskModel

__all__ = [
    "OpenSystemReport",
    "OpenSystemSimulator",
    "poisson_arrivals",
    "saturation_sweep",
]


def poisson_arrivals(
    count: int, rate_per_second: float, seed=0
) -> np.ndarray:
    """Arrival times (ms) of a Poisson stream, deterministic given seed."""
    if count <= 0:
        raise SimulationError(f"query count must be positive: {count}")
    if rate_per_second <= 0:
        raise SimulationError(
            f"arrival rate must be positive: {rate_per_second}"
        )
    rng = np.random.default_rng(seed)
    gaps_ms = rng.exponential(1000.0 / rate_per_second, size=count)
    return np.cumsum(gaps_ms)


@dataclass
class OpenSystemReport:
    """Per-query latencies and system-level figures of one run."""

    latencies_ms: List[float] = field(default_factory=list)
    makespan_ms: float = 0.0
    disk_busy_ms: List[float] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        """Average arrival-to-completion latency."""
        if not self.latencies_ms:
            raise SimulationError("no queries were simulated")
        return float(np.mean(self.latencies_ms))

    @property
    def p95_latency_ms(self) -> float:
        """95th-percentile latency."""
        if not self.latencies_ms:
            raise SimulationError("no queries were simulated")
        return float(np.percentile(self.latencies_ms, 95))

    @property
    def max_utilization(self) -> float:
        """Busy fraction of the most-loaded disk."""
        if self.makespan_ms <= 0:
            return 0.0
        return max(self.disk_busy_ms) / self.makespan_ms


class OpenSystemSimulator:
    """FIFO per-disk queues fed by timestamped query arrivals."""

    def __init__(
        self,
        allocation: DiskAllocation,
        disk: DiskModel = DiskModel(),
        sequential: bool = False,
    ):
        self._allocation = allocation
        self._disk = disk
        self._sequential = sequential

    def run(
        self,
        queries: Sequence[RangeQuery],
        arrivals_ms: Sequence[float],
    ) -> OpenSystemReport:
        """Simulate the arrival stream; queries must be arrival-ordered."""
        queries = list(queries)
        arrivals = np.asarray(arrivals_ms, dtype=np.float64)
        if not queries:
            raise SimulationError("query stream is empty")
        if arrivals.shape != (len(queries),):
            raise SimulationError(
                f"{len(queries)} queries but "
                f"{arrivals.shape[0] if arrivals.ndim == 1 else '?'} "
                "arrival times"
            )
        if not np.all(np.isfinite(arrivals)):
            raise SimulationError("arrival times must be finite")
        if np.any(np.diff(arrivals) < 0):
            raise SimulationError(
                "arrival times must be non-decreasing"
            )
        return self._simulate(self._disk_counts(queries), arrivals)

    def _disk_counts(self, queries: List[RangeQuery]) -> np.ndarray:
        """Every query's per-disk bucket counts, shape ``(N, M)``."""
        from repro.core.engine import ResponseTimeEngine

        return ResponseTimeEngine(self._allocation).batch_disk_counts(
            queries
        )

    def _simulate(
        self, counts: np.ndarray, arrivals: np.ndarray
    ) -> OpenSystemReport:
        """FIFO queues over precomputed per-disk counts.

        Each disk's queue only sees the queries that touch it, so the
        recursion runs disk by disk over those queries, in arrival order.
        A query finishes when its last segment does; a max is exact in
        any order, so this equals the query-by-query replay bit for bit.
        """
        disk = self._disk
        transfer = disk.transfer_ms_per_bucket
        if self._sequential:
            service = np.where(
                counts > 0, disk.random_access_ms + counts * transfer, 0.0
            )
        else:
            service = counts * (disk.random_access_ms + transfer)
        finish = arrivals.copy()
        free_at = [0.0] * counts.shape[1]
        busy = [0.0] * counts.shape[1]
        for disk_id in range(counts.shape[1]):
            touched = np.flatnonzero(counts[:, disk_id])
            free = busy_ms = 0.0
            done = []
            for arrival, cost in zip(
                arrivals[touched].tolist(),
                service[touched, disk_id].tolist(),
            ):
                # max(free, arrival), without the call.
                free = (arrival if arrival > free else free) + cost
                busy_ms += cost
                done.append(free)
            finish[touched] = np.maximum(finish[touched], done)
            free_at[disk_id] = free
            busy[disk_id] = busy_ms
        return OpenSystemReport(
            latencies_ms=(finish - arrivals).tolist(),
            makespan_ms=max(free_at),
            disk_busy_ms=busy,
        )


def saturation_sweep(
    allocation: DiskAllocation,
    queries: Sequence[RangeQuery],
    rates_per_second: Sequence[float],
    disk: DiskModel = DiskModel(),
    seed=0,
) -> List[OpenSystemReport]:
    """Run the same query list at several Poisson arrival rates.

    One report per rate; the arrival process is re-drawn per rate with
    the same seed so the only varying factor is the load level.  The
    per-disk counts do not depend on the rate, so they are gathered once
    for the whole sweep.
    """
    queries = list(queries)
    if not queries:
        raise SimulationError("query stream is empty")
    rates = list(rates_per_second)
    with trace(
        "simulation.saturation_sweep", queries=len(queries), rates=len(rates)
    ):
        simulator = OpenSystemSimulator(allocation, disk)
        counts = simulator._disk_counts(queries)
        return [
            simulator._simulate(
                counts, poisson_arrivals(len(queries), rate, seed=seed)
            )
            for rate in rates
        ]
