"""Replica-choice query planning: which copy of each bucket to read.

With two copies per bucket, answering a query becomes an assignment
problem: pick one disk from each bucket's pair so the busiest disk reads
as few buckets as possible.  Two planners are provided:

* :func:`plan_query` with ``method="flow"`` — **exact**.  Feasibility of
  a busiest-disk bound depends only on how many buckets share each set of
  surviving copies, so the buckets are grouped into *pair classes* (at
  most ``M(M+1)/2`` of them, read with one slice of each copy's table).
  The planner binary-searches the answer ``T`` and tests it with a small
  Dinic max-flow: source -> class (cap = its bucket count) -> its disks ->
  sink (cap = the disk's capacity under ``T``).  The per-class flow is
  then dealt out to the class's buckets in row-major order.
* ``method="greedy"`` — assign buckets in row-major order to whichever
  surviving copy finishes sooner (ties prefer the primary).  Near-optimal
  in practice and what a real executor would run.

:func:`plan_batch` answers a whole query set with the same solver but
returns only each query's loads, completion time and lost count.  Those
depend only on how many of the query's buckets sit on each ordered
``(primary, backup)`` pair, so one gather on the layout's pair engine
counts every query and each distinct count vector is solved once.

Both planners also run in **degraded mode**: pass a
:class:`~repro.faults.models.FaultScenario` and the planner only considers
surviving replicas (a bucket with both copies on failed disks is recorded
as *lost*), while straggler factors turn the objective into the weighted
completion time ``max_d load_d * factor_d``.  A healthy plan is the same
computation with unit factors and no failed disks.  The flow path stays
exact by binary-searching over the discrete set of achievable completion
times ``load * factor_d`` and translating each candidate ``T`` into
per-disk capacities ``floor(T / factor_d)``.

The headline facts the tests pin down: with a sensible replica layout the
*planned* response time of the small queries that plague DM collapses to
(or near) the ``ceil(|Q|/M)`` optimum, and under any single fail-stop
every bucket stays reachable with a planned completion time at most twice
the healthy planned optimum (move the failed disk's assignments to their
surviving copies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import QueryError
from repro.core.query import RangeQuery
from repro.faults.models import FaultScenario
from repro.obs.metrics import global_registry
from repro.obs.trace import trace
from repro.replication.allocation import ReplicatedAllocation

__all__ = [
    "BatchPlan",
    "Coords",
    "QueryPlan",
    "degraded_replicated_response_time",
    "plan_batch",
    "plan_query",
    "replicated_response_time",
    "replication_speedup",
]

Coords = Tuple[int, ...]

#: Slack in ``floor(T / factor + _EPS)``: a load whose weighted time is a
#: candidate ``T`` must fit under that ``T`` despite division rounding.
_EPS = 1e-9


@dataclass(frozen=True)
class QueryPlan:
    """A replica choice for every reachable bucket of one query.

    ``lost`` lists buckets whose every copy sits on a failed disk (always
    empty for healthy plans and under any single fail-stop); ``factors``
    carries the scenario's per-disk service-time multipliers when the plan
    was made in degraded mode.
    """

    query: RangeQuery
    assignment: Dict[Coords, int]
    loads: np.ndarray
    factors: Optional[np.ndarray] = None
    lost: Tuple[Coords, ...] = field(default=())

    @property
    def response_time(self) -> int:
        """Busiest disk's bucket count under this plan (unweighted)."""
        return int(self.loads.max()) if self.loads.size else 0

    @property
    def completion_time(self) -> float:
        """Weighted finish time ``max_d load_d * factor_d``.

        Equal to :attr:`response_time` when no straggler factors apply.
        """
        if not self.loads.size:
            return 0.0
        if self.factors is None:
            return float(self.response_time)
        return float((self.loads * self.factors).max())

    @property
    def num_buckets(self) -> int:
        """Buckets read by the plan."""
        return len(self.assignment)

    @property
    def num_lost(self) -> int:
        """Buckets with no surviving copy."""
        return len(self.lost)

    @property
    def is_complete(self) -> bool:
        """Whether every bucket of the query could be assigned a disk."""
        return not self.lost


def _bucket_pairs(
    replicated: ReplicatedAllocation, query: RangeQuery
) -> Tuple[List[Coords], np.ndarray, np.ndarray]:
    """The query's buckets (row-major) and their primary/backup disks."""
    grid = replicated.grid
    if query.ndim != grid.ndim:
        raise QueryError(
            f"{query.ndim}-d query does not match {grid.ndim}-d grid"
        )
    clipped = query.clip_to(grid)
    if clipped is None:
        empty = np.zeros(0, dtype=np.int64)
        return [], empty, empty
    window = clipped.slices()
    return (
        list(clipped.iter_buckets()),
        replicated.primary.table[window].ravel().astype(np.int64),
        replicated.backup.table[window].ravel().astype(np.int64),
    )


def _greedy(
    first: np.ndarray, second: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """Row-major greedy on weighted finish times; ties keep ``first``."""
    loads = [0] * factors.size
    weights = factors.tolist()
    disks = []
    for a, b in zip(first.tolist(), second.tolist()):
        if (loads[b] + 1) * weights[b] < (loads[a] + 1) * weights[a]:
            a = b
        loads[a] += 1
        disks.append(a)
    return np.array(disks, dtype=np.int64)


class _Dinic:
    """Dinic's max-flow on a small graph held in flat edge lists."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.edges_of: List[List[int]] = [[] for _ in range(num_nodes)]
        self.head: List[int] = []
        self.cap: List[int] = []

    def add_edge(self, tail: int, head: int, capacity: int) -> int:
        """Add ``tail -> head``; returns the edge id (its residual is id^1)."""
        edge = len(self.head)
        self.head += [head, tail]
        self.cap += [capacity, 0]
        self.edges_of[tail].append(edge)
        self.edges_of[head].append(edge + 1)
        return edge

    def max_flow(self, source: int, sink: int) -> int:
        """Saturate ``source -> sink``; returns the flow value."""
        total = 0
        while True:
            level = [-1] * self.num_nodes
            level[source] = 0
            frontier = [source]
            for node in frontier:
                for edge in self.edges_of[node]:
                    target = self.head[edge]
                    if self.cap[edge] > 0 and level[target] < 0:
                        level[target] = level[node] + 1
                        frontier.append(target)
            if level[sink] < 0:
                return total
            cursor = [0] * self.num_nodes
            while True:
                pushed = self._augment(source, sink, level, cursor)
                if not pushed:
                    break
                total += pushed

    def _augment(
        self, source: int, sink: int, level: List[int], cursor: List[int]
    ) -> int:
        """Push flow along one shortest augmenting path; 0 if none is left.

        Iterative depth-first search over the level graph; ``cursor``
        keeps each node's next untried edge across calls, so dead ends
        are never explored twice in one phase.
        """
        path: List[int] = []
        node = source
        while node != sink:
            edges = self.edges_of[node]
            while cursor[node] < len(edges):
                edge = edges[cursor[node]]
                if (
                    self.cap[edge] > 0
                    and level[self.head[edge]] == level[node] + 1
                ):
                    break
                cursor[node] += 1
            else:
                if not path:
                    return 0
                edge = path.pop()
                node = self.head[edge ^ 1]  # retreat to the edge's tail
                cursor[node] += 1
                continue
            path.append(edge)
            node = self.head[edge]
        pushed = min(self.cap[edge] for edge in path)
        for edge in path:
            self.cap[edge] -= pushed
            self.cap[edge ^ 1] += pushed
        return pushed


def _class_flow(
    low: np.ndarray,
    high: np.ndarray,
    counts: np.ndarray,
    disks: List[int],
    capacities: np.ndarray,
) -> Optional[np.ndarray]:
    """Buckets each class sends to its ``low`` disk, or None if infeasible.

    Class ``k`` holds ``counts[k]`` buckets readable from disks
    ``low[k]`` and ``high[k]`` (equal for single-copy classes); ``disks``
    lists every disk a class reads, and disk ``d`` may read at most
    ``capacities[d]`` buckets.
    """
    num_classes = counts.size
    node_of = {disk: num_classes + 1 + i for i, disk in enumerate(disks)}
    sink = num_classes + 1 + len(disks)
    network = _Dinic(sink + 1)
    to_low = []
    for k, (lo, hi, count) in enumerate(
        zip(low.tolist(), high.tolist(), counts.tolist())
    ):
        network.add_edge(0, k + 1, count)
        to_low.append(network.add_edge(k + 1, node_of[lo], count))
        if hi != lo:
            network.add_edge(k + 1, node_of[hi], count)
    for disk in disks:
        network.add_edge(node_of[disk], sink, int(capacities[disk]))
    if network.max_flow(0, sink) < int(counts.sum()):
        return None
    return counts - np.array(
        [network.cap[edge] for edge in to_low], dtype=np.int64
    )


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values`` (flattened), ascending.

    What ``np.unique`` returns for finite numbers, by a sort and a
    neighbour mask.  ``np.unique`` itself imports ``numpy.ma`` (20-25 ms)
    for its masked-array check the first time it runs, a cost every
    report process would pay for a handful of small arrays.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _class_solve(
    low: np.ndarray,
    high: np.ndarray,
    counts: np.ndarray,
    first_loads: np.ndarray,
    factors: np.ndarray,
) -> Optional[np.ndarray]:
    """Exact minimum of ``max_d load_d * factor_d`` over pair classes.

    Class ``k`` holds ``counts[k]`` buckets readable from disks
    ``low[k]`` and ``high[k]``, classes sorted by ``(low, high)``;
    ``first_loads`` is the per-disk load of reading every bucket's first
    surviving copy.  Binary search over the achievable completion times,
    each candidate ``T`` tested with a pair-class max-flow at capacities
    ``floor(T / factor_d)``.  Returns the buckets each class sends to its
    ``low`` disk at the optimal ``T``, or None when reading first copies
    is already optimal.
    """
    num_disks = factors.size
    num_buckets = int(counts.sum())
    # Reading every bucket's first surviving copy is feasible at its own
    # completion time, which caps the candidates.
    upper = float((first_loads * factors).max())
    used = _sorted_distinct(np.concatenate([low, high]))
    candidates = _sorted_distinct(
        np.multiply.outer(
            np.arange(1, num_buckets + 1), _sorted_distinct(factors[used])
        )
    )
    candidates = candidates[candidates <= upper + _EPS]
    # Necessary conditions (total capacity, single-copy classes) drop the
    # candidates no assignment can meet before any flow runs.
    capacity = (
        candidates[:, None] / factors[used][None, :] + _EPS
    ).astype(np.int64)
    lone = low == high
    single = np.bincount(
        low[lone], weights=counts[lone], minlength=num_disks
    )[used]
    possible = (capacity.sum(axis=1) >= num_buckets) & np.all(
        capacity >= single, axis=1
    )
    candidates = candidates[possible]

    best: Optional[np.ndarray] = None
    lower, top = 0, candidates.size - 1
    # Probe the smallest candidate first: it is usually the optimum, and
    # the flow found at the optimum is the same Dinic run either way.
    middle = 0
    while lower < top:
        limit = candidates[middle]
        flow = _class_flow(
            low,
            high,
            counts,
            used.tolist(),
            (limit / factors + _EPS).astype(np.int64),
        )
        if flow is None:
            lower = middle + 1
        else:
            best, top = flow, middle
        middle = (lower + top) // 2
    return best


def _pair_classes(
    codes: np.ndarray, num_disks: int, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(codes, low, high, count)`` of the pair classes present.

    ``codes`` holds each item's class code ``low * M + high`` and
    ``weights`` its bucket count (1 when omitted); classes come out
    sorted by code, as :func:`_class_solve` takes them.
    """
    by_code = np.bincount(
        codes, weights=weights, minlength=num_disks * num_disks
    ).astype(np.int64)
    present = np.flatnonzero(by_code)
    return (
        present,
        present // num_disks,
        present % num_disks,
        by_code[present],
    )


def _class_code(
    first: np.ndarray, second: np.ndarray, num_disks: int
) -> np.ndarray:
    """Class code ``low * M + high`` of each copy pair."""
    return np.minimum(first, second) * num_disks + np.maximum(first, second)


def _flow(
    first: np.ndarray, second: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """Exact per-bucket copy choice: :func:`_class_solve`, dealt out.

    ``first``/``second`` are each bucket's surviving copies (equal when
    only one survives).
    """
    num_disks = factors.size
    num_buckets = first.size
    bucket_code = _class_code(first, second, num_disks)
    codes, class_low, class_high, class_count = _pair_classes(
        bucket_code, num_disks
    )
    class_of = np.searchsorted(codes, bucket_code)
    best = _class_solve(
        class_low,
        class_high,
        class_count,
        np.bincount(first, minlength=num_disks),
        factors,
    )
    if best is None:
        return first  # reading first copies already meets the bound
    # Deal each class's flow out in row-major order: its first
    # ``best[k]`` buckets read the low disk, the rest the high one.
    order = np.argsort(class_of, kind="stable")
    starts = np.cumsum(class_count) - class_count
    rank = np.empty(num_buckets, dtype=np.int64)
    rank[order] = np.arange(num_buckets) - np.repeat(starts, class_count)
    return np.where(
        rank < best[class_of], class_low[class_of], class_high[class_of]
    )


def _fault_state(
    replicated: ReplicatedAllocation,
    method: str,
    scenario: Optional[FaultScenario],
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Validate a planning request; ``(failed mask, factors, degraded)``."""
    if method not in ("flow", "greedy"):
        raise QueryError(
            f"unknown planning method {method!r}; use 'flow' or 'greedy'"
        )
    num_disks = replicated.num_disks
    if scenario is not None and scenario.num_disks != num_disks:
        raise QueryError(
            f"scenario covers {scenario.num_disks} disks but the "
            f"allocation uses {num_disks}"
        )
    failed = np.zeros(num_disks, dtype=bool)
    if scenario is None or scenario.is_healthy:
        return failed, np.ones(num_disks, dtype=np.float64), False
    failed[list(scenario.failed)] = True
    return failed, scenario.factors, True


def _surviving_copies(
    primary: np.ndarray, backup: np.ndarray, failed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(reachable, first, second)`` for copy pairs under ``failed``.

    ``first``/``second`` are each reachable pair's surviving copies,
    primary first (the two are equal when only one copy survives).
    """
    primary_alive = ~failed[primary]
    backup_alive = ~failed[backup]
    reachable = primary_alive | backup_alive
    first = np.where(primary_alive, primary, backup)[reachable]
    second = np.where(backup_alive, backup, primary)[reachable]
    return reachable, first, second


def plan_query(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    method: str = "flow",
    scenario: Optional[FaultScenario] = None,
) -> QueryPlan:
    """Choose a replica per bucket minimizing the busiest disk.

    ``method="flow"`` is exact; ``method="greedy"`` is the fast heuristic.
    With a ``scenario`` the planner routes around failed disks (recording
    unreachable buckets in :attr:`QueryPlan.lost`) and minimizes the
    weighted completion time under straggler factors.
    """
    failed, factors, degraded = _fault_state(replicated, method, scenario)
    coords, primary, backup = _bucket_pairs(replicated, query)
    reachable, first, second = _surviving_copies(primary, backup, failed)
    kept: List[Coords] = []
    lost: List[Coords] = []
    for bucket, alive in zip(coords, reachable.tolist()):
        (kept if alive else lost).append(bucket)
    if not kept:
        disks = first
    elif method == "greedy":
        disks = _greedy(first, second, factors)
    else:
        disks = _flow(first, second, factors)
    return QueryPlan(
        query=query,
        assignment=dict(zip(kept, disks.tolist())),
        loads=np.bincount(
            disks, minlength=replicated.num_disks
        ).astype(np.int64),
        factors=factors if degraded else None,
        lost=tuple(lost),
    )


class BatchPlan(NamedTuple):
    """Per-query outcome of :func:`plan_batch`, one row per query.

    Row ``n`` equals :func:`plan_query` on query ``n``: ``loads`` its
    :attr:`QueryPlan.loads`, ``completion_times`` its
    :attr:`QueryPlan.completion_time` and ``num_lost`` its
    :attr:`QueryPlan.num_lost`.
    """

    loads: np.ndarray
    completion_times: np.ndarray
    num_lost: np.ndarray

    @property
    def response_times(self) -> np.ndarray:
        """Busiest disk's bucket count per query (unweighted), ``(N,)``."""
        return self.loads.max(axis=1)


def _batch_flow_loads(
    replicated: ReplicatedAllocation,
    queries: Sequence[RangeQuery],
    failed: np.ndarray,
    factors: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(loads, num_lost, solves)`` of the exact planner over a batch.

    The optimal loads depend only on how many of a query's buckets sit on
    each ordered ``(primary, backup)`` pair: the pair classes, the
    first-copy bound and the first-copy fallback of :func:`_class_solve`
    are all functions of those counts.  So one gather on the pair engine
    counts every query, and each distinct count row is solved once.
    """
    num_disks = replicated.num_disks
    primary, backup, engine = replicated.pair_engine()
    counts = np.ascontiguousarray(
        engine.batch_disk_counts(queries), dtype=np.int64
    )
    reachable, first, second = _surviving_copies(primary, backup, failed)
    code = _class_code(first, second, num_disks)
    num_lost = counts[:, ~reachable].sum(axis=1)
    # Distinct rows via one 1-d unique over each row's raw bytes.
    _, distinct, row_of = np.unique(
        counts.view(np.dtype((np.void, counts.shape[1] * 8))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    loads = np.zeros((distinct.size, num_disks), dtype=np.int64)
    solves = 0
    for row, pair_count in enumerate(counts[distinct][:, reachable]):
        if not pair_count.any():
            continue
        solves += 1
        first_loads = np.bincount(
            first, weights=pair_count, minlength=num_disks
        ).astype(np.int64)
        _, low, high, count = _pair_classes(code, num_disks, pair_count)
        best = _class_solve(low, high, count, first_loads, factors)
        if best is None:
            loads[row] = first_loads
        else:
            np.add.at(loads[row], low, best)
            np.add.at(loads[row], high, count - best)
    return loads[row_of.ravel()], num_lost, solves


def plan_batch(
    replicated: ReplicatedAllocation,
    queries: Sequence[RangeQuery],
    method: str = "flow",
    scenario: Optional[FaultScenario] = None,
) -> BatchPlan:
    """Per-query loads, completion times and lost counts of a query batch.

    Row ``n`` of the result equals :func:`plan_query` on ``queries[n]``
    (clipping included).  ``method="flow"`` counts every query's buckets
    per copy pair with one gather on
    :meth:`ReplicatedAllocation.pair_engine` and runs the exact solver
    once per distinct count vector; ``method="greedy"`` depends on
    row-major bucket order, so it plans query by query.  The pair engine
    holds one summed-area plane per distinct copy pair (``M`` for
    chained layouts, up to ``M**2`` for orthogonal ones), so on a large
    orthogonal layout it can outweigh a few :func:`plan_query` calls.
    """
    failed, factors, _ = _fault_state(replicated, method, scenario)
    num_disks = replicated.num_disks
    with trace("replication.plan_batch", queries=len(queries)) as span:
        if method == "greedy":
            plans = [
                plan_query(replicated, query, method, scenario)
                for query in queries
            ]
            loads = np.array(
                [plan.loads for plan in plans], dtype=np.int64
            ).reshape(len(plans), num_disks)
            num_lost = np.array(
                [plan.num_lost for plan in plans], dtype=np.int64
            )
            solves = len(plans)
        else:
            loads, num_lost, solves = _batch_flow_loads(
                replicated, queries, failed, factors
            )
        span.annotate(solves=solves)
    registry = global_registry()
    registry.inc("replication.plan.batch_queries", len(queries))
    registry.inc("replication.plan.solves", solves)
    # Unit factors leave healthy loads as they are: float(max) exactly.
    return BatchPlan(loads, (loads * factors).max(axis=1), num_lost)


def replicated_response_time(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    method: str = "flow",
) -> int:
    """Response time of a query under optimal (or greedy) replica choice."""
    return plan_query(replicated, query, method=method).response_time


def degraded_replicated_response_time(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    scenario: FaultScenario,
    method: str = "flow",
) -> float:
    """Planned completion time under faults (weighted busiest disk).

    Lost buckets (no surviving copy) do not contribute; check
    :attr:`QueryPlan.is_complete` or the availability helpers in
    :mod:`repro.faults.degraded` to detect them.
    """
    return plan_query(
        replicated, query, method=method, scenario=scenario
    ).completion_time


def replication_speedup(
    replicated: ReplicatedAllocation,
    query: RangeQuery,
    method: str = "flow",
) -> float:
    """Primary-only RT divided by planned replicated RT (>= 1)."""
    from repro.core.cost import response_time

    primary_rt = response_time(replicated.primary, query)
    planned_rt = replicated_response_time(
        replicated, query, method=method
    )
    if planned_rt == 0:
        return 1.0
    return primary_rt / planned_rt
