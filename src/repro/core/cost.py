"""Response-time cost model.

The paper's performance metric: with one bucket read costing one time unit
and all ``M`` disks operating in parallel, the **response time** of a query
is the number of buckets on the busiest disk among those the query touches,

    RT(Q, A) = max_d |{ b in Q : A(b) = d }|.

The unbeatable lower bound is the **optimal response time**

    OPT(Q, M) = ceil(|Q| / M),

achieved exactly when the query's buckets are spread as evenly as possible.
A scheme is *strictly optimal* when RT = OPT for every query in some class
(range, partial match, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import QueryError
from repro.core.query import RangeQuery
from repro.obs.trace import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import ResponseTimeEngine

__all__ = [
    "BATCH_THRESHOLD",
    "additive_deviation",
    "average_response_time",
    "buckets_per_disk",
    "optimal_response_time",
    "optimal_times",
    "per_query_costs",
    "placements_at_optimal",
    "query_optimal",
    "relative_deviation",
    "response_time",
    "response_times",
    "sliding_response_times",
    "worst_response_time",
]


def optimal_response_time(num_buckets: int, num_disks: int) -> int:
    """``ceil(num_buckets / num_disks)`` — the paper's optimal yardstick."""
    if num_buckets < 0:
        raise QueryError(f"bucket count must be non-negative: {num_buckets}")
    if num_disks <= 0:
        raise QueryError(f"disk count must be positive: {num_disks}")
    return -(-num_buckets // num_disks)


def buckets_per_disk(allocation: DiskAllocation, query: RangeQuery) -> np.ndarray:
    """Per-disk bucket counts for a query, ``shape (M,)``."""
    if query.ndim != allocation.grid.ndim:
        raise QueryError(
            f"{query.ndim}-d query does not match "
            f"{allocation.grid.ndim}-d allocation"
        )
    if not query.fits_in(allocation.grid):
        clipped = query.clip_to(allocation.grid)
        if clipped is None:
            return np.zeros(allocation.num_disks, dtype=np.int64)
        query = clipped
    region = allocation.table[query.slices()]
    return np.bincount(region.ravel(), minlength=allocation.num_disks)


def response_time(allocation: DiskAllocation, query: RangeQuery) -> int:
    """Buckets on the busiest disk for this query (0 for an empty query)."""
    counts = buckets_per_disk(allocation, query)
    return int(counts.max()) if counts.size else 0


def query_optimal(query: RangeQuery, num_disks: int) -> int:
    """OPT for a query that fits in the grid: ``ceil(|Q| / M)``."""
    return optimal_response_time(query.num_buckets, num_disks)


def _effective_optimal(allocation: DiskAllocation, query: RangeQuery) -> int:
    """OPT of the part of ``query`` inside the grid (0 if fully outside).

    Response times are computed on the clipped query (buckets outside the
    grid do not exist, so no disk reads them); the deviation metrics must
    use the same effective bucket count or a query clipped to nothing
    would divide by zero.
    """
    if query.ndim != allocation.grid.ndim:
        raise QueryError(
            f"{query.ndim}-d query does not match "
            f"{allocation.grid.ndim}-d allocation"
        )
    if not query.fits_in(allocation.grid):
        clipped = query.clip_to(allocation.grid)
        if clipped is None:
            return 0
        query = clipped
    return optimal_response_time(query.num_buckets, allocation.num_disks)


def additive_deviation(allocation: DiskAllocation, query: RangeQuery) -> int:
    """``RT - OPT`` for one query; 0 means the scheme was optimal on it."""
    return response_time(allocation, query) - query_optimal(
        query, allocation.num_disks
    )


def relative_deviation(allocation: DiskAllocation, query: RangeQuery) -> float:
    """``(RT - OPT) / OPT`` for one query (0.0 when it clips to nothing).

    OPT is taken over the query's buckets *inside* the grid, matching the
    clipping :func:`response_time` applies; a query entirely outside the
    grid has RT = OPT = 0 and deviates by 0.0 by convention.
    """
    opt = _effective_optimal(allocation, query)
    if opt == 0:
        return 0.0
    return (response_time(allocation, query) - opt) / opt


#: Batch size from which ``response_times`` builds a summed-area-table
#: engine instead of looping: below this the per-query bincount loop is
#: cheaper than the one-time SAT precomputation.  Results are
#: bit-identical either way, so the threshold only moves time around.
BATCH_THRESHOLD = 16


def response_times(
    allocation: DiskAllocation,
    queries: Iterable[RangeQuery],
    engine: Optional["ResponseTimeEngine"] = None,
) -> np.ndarray:
    """Vector of response times, one per query.

    When ``engine`` (a :class:`~repro.core.engine.ResponseTimeEngine`
    built on the same allocation) is given, the whole batch is answered
    through its summed-area table with no per-query Python loop; with no
    engine one is built on the fly once the batch reaches
    :data:`BATCH_THRESHOLD` queries.  All three paths are bit-identical —
    the scalar loop stays the reference oracle.
    """
    queries = list(queries)
    if engine is None and len(queries) >= BATCH_THRESHOLD:
        from repro.core.engine import ResponseTimeEngine

        engine = ResponseTimeEngine(allocation)
    if engine is not None:
        return engine.batch_response_times(queries)
    return np.fromiter(
        (response_time(allocation, q) for q in queries),
        dtype=np.int64,
        count=len(queries),
    )


def optimal_times(
    queries: Sequence[RangeQuery], num_disks: int
) -> np.ndarray:
    """Vector of OPT values, one per query."""
    return np.fromiter(
        (query_optimal(q, num_disks) for q in queries),
        dtype=np.int64,
        count=len(queries),
    )


def sliding_response_times(
    allocation: DiskAllocation, shape: Sequence[int]
) -> np.ndarray:
    """Response time of a query ``shape`` at *every* placement, vectorized.

    Returns an array of shape ``(d_1 - s_1 + 1, ..., d_k - s_k + 1)`` whose
    entry at ``origin`` is ``RT(query_at(origin, shape))``.  This is the hot
    path of the experiments: it computes, per disk, a k-dimensional sliding-
    window sum of the disk's indicator table via prefix sums, then takes the
    max across disks.  Complexity is ``O(M * num_buckets)`` regardless of the
    query size — orders of magnitude faster than evaluating placements one by
    one for large shapes.
    """
    grid = allocation.grid
    shape = tuple(int(s) for s in shape)
    if len(shape) != grid.ndim:
        raise QueryError(
            f"shape arity {len(shape)} does not match grid {grid.dims}"
        )
    if any(s <= 0 for s in shape):
        raise QueryError(f"query side lengths must be positive: {shape}")
    if any(s > d for s, d in zip(shape, grid.dims)):
        out_shape = tuple(
            max(d - s + 1, 0) for s, d in zip(shape, grid.dims)
        )
        return np.zeros(out_shape, dtype=np.int64)
    from repro.core.backends import active_backend

    with trace("cost.sliding_response_times"):
        return active_backend().sliding_response_times(
            allocation.table, allocation.num_disks, shape
        )


def _sliding_window_sums(indicator: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Sum of ``indicator`` over every axis-aligned window of ``shape``.

    Kept under its historical name; the implementation lives with the
    numpy backend (:func:`repro.core.backends.numpy_backend.
    sliding_window_sums`), which every compiled backend is certified
    against.
    """
    from repro.core.backends.numpy_backend import sliding_window_sums

    return sliding_window_sums(indicator, shape)


def average_response_time(
    allocation: DiskAllocation, shape: Sequence[int]
) -> float:
    """Exact mean RT of ``shape`` over all placements in the grid."""
    times = sliding_response_times(allocation, shape)
    if times.size == 0:
        raise QueryError(
            f"shape {tuple(shape)} does not fit in grid "
            f"{allocation.grid.dims}"
        )
    return float(times.mean())


def worst_response_time(
    allocation: DiskAllocation, shape: Sequence[int]
) -> int:
    """Worst-case RT of ``shape`` over all placements in the grid."""
    times = sliding_response_times(allocation, shape)
    if times.size == 0:
        raise QueryError(
            f"shape {tuple(shape)} does not fit in grid "
            f"{allocation.grid.dims}"
        )
    return int(times.max())


def placements_at_optimal(
    allocation: DiskAllocation, shape: Sequence[int]
) -> float:
    """Fraction of placements of ``shape`` answered at the optimal RT."""
    times = sliding_response_times(allocation, shape)
    if times.size == 0:
        raise QueryError(
            f"shape {tuple(shape)} does not fit in grid "
            f"{allocation.grid.dims}"
        )
    area = 1
    for side in shape:
        area *= int(side)
    opt = optimal_response_time(area, allocation.num_disks)
    return float((times == opt).mean())


def per_query_costs(
    allocation: DiskAllocation, queries: Sequence[RangeQuery]
) -> List[dict]:
    """RT, OPT and deviations for each query — handy for reports and tests."""
    rows = []
    for query in queries:
        rt = response_time(allocation, query)
        opt = _effective_optimal(allocation, query)
        rows.append(
            {
                "query": query,
                "buckets": query.num_buckets,
                "response_time": rt,
                "optimal": opt,
                "additive_deviation": rt - opt,
                "relative_deviation": (rt - opt) / opt if opt else 0.0,
            }
        )
    return rows
