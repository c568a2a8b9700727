"""Two-copy replicated declustering and replica-choice query planning.

The extension the paper scopes out ("we do not consider techniques where a
data subspace can be assigned to more than one disk"), built: chained and
orthogonal replication plus an exact planner that picks a replica per
bucket to minimize the busiest disk: buckets are grouped by their pair of
surviving disks and a small in-repo Dinic max-flow over those pair classes
tests each candidate bound.  :func:`plan_batch` answers a whole query set
from one per-pair count gather, solving each distinct count vector once.
"""

from repro.replication.allocation import (
    ReplicatedAllocation,
    chained_replication,
    orthogonal_replication,
)
from repro.replication.planner import (
    BatchPlan,
    QueryPlan,
    degraded_replicated_response_time,
    plan_batch,
    plan_query,
    replicated_response_time,
    replication_speedup,
)

__all__ = [
    "ReplicatedAllocation",
    "chained_replication",
    "orthogonal_replication",
    "BatchPlan",
    "QueryPlan",
    "degraded_replicated_response_time",
    "plan_batch",
    "plan_query",
    "replicated_response_time",
    "replication_speedup",
]
