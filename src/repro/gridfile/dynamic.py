"""A dynamic grid file: capacity-driven splits under a declustering scheme.

The static :class:`~repro.gridfile.file.DeclusteredGridFile` assumes the
partitioning is fixed up front.  Real grid files (Nievergelt et al.)
*grow*: when a bucket overflows its capacity, one axis gains a new
boundary and the whole slab of buckets sharing that interval splits in
two.  This module implements that dynamics and keeps the file declustered
throughout, which surfaces a question the paper's static setting hides:

    when the grid refines, how much of the existing placement does a
    declustering method invalidate?

Every structural change re-derives the bucket-to-disk map from the scheme
and counts **migrations** — data volume whose disk changed — exposed via
:meth:`DynamicGridFile.stats`.  Methods whose rule depends on coordinates
*relative to the whole grid* (DM's sums shift when an early boundary is
inserted; HCAM's curve ranks cascade) migrate much more than the 1994
literature acknowledged; the ``X6`` experiment measures it.

Splitting policy (classic grid file):

* the overflowing bucket's longest-relative axis is split (ties: the
  lower axis index);
* the new boundary is the **median** of the overflowing bucket's values
  on that axis (falling back to the interval midpoint when the median
  would duplicate a boundary);
* the split applies to the whole grid slab, keeping the directory a
  cartesian product, exactly like the original grid file.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import GridFileError
from repro.core.grid import Grid
from repro.core.query import RangeQuery
from repro.core.registry import get_scheme
from repro.gridfile.file import QueryExecution
from repro.gridfile.partitioner import RangePartitioner

__all__ = ["DynamicGridFile"]


class DynamicGridFile:
    """An insert-driven, declustered grid file.

    Parameters
    ----------
    domains:
        Per-attribute ``(low, high)`` value bounds.
    num_disks:
        Disks to decluster over.
    scheme:
        Registry name of the declustering method re-applied after splits.
    bucket_capacity:
        Records a bucket holds before triggering a split.
    """

    def __init__(
        self,
        domains: Sequence[Tuple[float, float]],
        num_disks: int,
        scheme: str = "hcam",
        bucket_capacity: int = 32,
    ):
        if not domains:
            raise GridFileError("need at least one attribute domain")
        if bucket_capacity <= 0:
            raise GridFileError(
                f"bucket capacity must be positive, got {bucket_capacity}"
            )
        for low, high in domains:
            if low >= high:
                raise GridFileError(f"empty domain [{low}, {high}]")
        self._domains = [(float(lo), float(hi)) for lo, hi in domains]
        self._boundaries: List[List[float]] = [
            [lo, hi] for lo, hi in self._domains
        ]
        self._num_disks = int(num_disks)
        self._scheme_name = scheme
        self._capacity = int(bucket_capacity)
        self._records: Dict[Tuple[int, ...], List[np.ndarray]] = {}
        self._num_records = 0
        self._num_splits = 0
        self._buckets_migrated = 0
        self._records_migrated = 0
        self._allocation = self._reallocate(previous=None)

    # -- structure ---------------------------------------------------

    @property
    def grid(self) -> Grid:
        """The current bucket grid."""
        return Grid(
            tuple(len(b) - 1 for b in self._boundaries)
        )

    @property
    def allocation(self):
        """The current bucket-to-disk map."""
        return self._allocation

    @property
    def num_disks(self) -> int:
        """Number of disks."""
        return self._num_disks

    @property
    def num_records(self) -> int:
        """Records stored."""
        return self._num_records

    def partitioners(self) -> List[RangePartitioner]:
        """Current per-axis partitioners (fresh objects)."""
        return [RangePartitioner(b) for b in self._boundaries]

    def stats(self) -> Dict[str, int]:
        """Growth and migration counters.

        ``buckets_migrated`` / ``records_migrated`` accumulate, over all
        splits, how many (old-bucket equivalent) buckets and records
        changed disks when the scheme was re-applied to the refined grid
        — the re-placement cost a real system would pay as data movement.
        """
        return {
            "num_records": self._num_records,
            "num_buckets": self.grid.num_buckets,
            "num_splits": self._num_splits,
            "buckets_migrated": self._buckets_migrated,
            "records_migrated": self._records_migrated,
        }

    # -- record operations --------------------------------------------

    def bucket_of(self, record: Sequence[float]) -> Tuple[int, ...]:
        """Bucket coordinates for a record's attribute values."""
        record = self._check_record(record)
        coords = []
        for boundaries, value in zip(self._boundaries, record.tolist()):
            index = bisect.bisect_right(boundaries, value) - 1
            coords.append(min(index, len(boundaries) - 2))
        return tuple(coords)

    def insert(self, record: Sequence[float]) -> Tuple[int, ...]:
        """Insert a record, splitting as needed; returns its bucket."""
        record = self._check_record(record)
        coords = self.bucket_of(record)
        self._records.setdefault(coords, []).append(record)
        self._num_records += 1
        while len(self._records.get(coords, ())) > self._capacity:
            if not self._split(coords):
                break  # unsplittable (duplicate values); allow overflow
            coords = self.bucket_of(record)
        return self.bucket_of(record)

    def insert_many(self, records) -> None:
        """Insert records from an iterable / ``(n, k)`` array."""
        for record in np.asarray(records, dtype=np.float64):
            self.insert(record)

    def bucket_occupancy(self) -> np.ndarray:
        """Records per bucket, shaped like the current grid."""
        occupancy = np.zeros(self.grid.dims, dtype=np.int64)
        for coords, bucket in self._records.items():
            occupancy[coords] = len(bucket)
        return occupancy

    def records_per_disk(self) -> np.ndarray:
        """Records per disk under the current allocation."""
        loads = np.zeros(self._num_disks, dtype=np.int64)
        for coords, bucket in self._records.items():
            loads[self._allocation.disk_of(coords)] += len(bucket)
        return loads

    # -- queries -------------------------------------------------------

    def range_query(
        self, value_ranges: Sequence[Tuple[float, float]]
    ) -> RangeQuery:
        """Translate value intervals into a bucket range query."""
        if len(value_ranges) != len(self._boundaries):
            raise GridFileError(
                f"{len(value_ranges)} ranges for "
                f"{len(self._boundaries)} attributes"
            )
        lower = []
        upper = []
        for partitioner, (low, high) in zip(
            self.partitioners(), value_ranges
        ):
            first, last = partitioner.partition_range(low, high)
            lower.append(first)
            upper.append(last)
        return RangeQuery(tuple(lower), tuple(upper))

    def execute(self, query: RangeQuery) -> QueryExecution:
        """Cost a bucket query against the current allocation."""
        from repro.core.cost import buckets_per_disk

        counts = buckets_per_disk(self._allocation, query)
        return QueryExecution(
            query=query,
            buckets_per_disk=counts,
            num_disks=self._num_disks,
        )

    # -- internals ------------------------------------------------------

    def _check_record(self, record) -> np.ndarray:
        record = np.asarray(record, dtype=np.float64)
        if record.shape != (len(self._boundaries),):
            raise GridFileError(
                f"record has shape {record.shape}, file has "
                f"{len(self._boundaries)} attributes"
            )
        for axis, value in enumerate(record):
            low, high = self._domains[axis]
            if not low <= value <= high:
                raise GridFileError(
                    f"attribute {axis} value {value} outside domain "
                    f"[{low}, {high}]"
                )
        return record

    def _choose_split_axis(self, coords: Tuple[int, ...]) -> int:
        relative = []
        for axis, c in enumerate(coords):
            boundaries = self._boundaries[axis]
            width = boundaries[c + 1] - boundaries[c]
            domain = self._domains[axis][1] - self._domains[axis][0]
            relative.append(width / domain)
        return int(np.argmax(relative))

    def _split(self, coords: Tuple[int, ...]) -> bool:
        """Insert a boundary through the overflowing bucket's slab."""
        axis = self._choose_split_axis(coords)
        boundaries = self._boundaries[axis]
        cell = coords[axis]
        low, high = boundaries[cell], boundaries[cell + 1]
        values = np.array(
            [r[axis] for r in self._records.get(coords, ())]
        )
        cut = float(np.median(values)) if values.size else (low + high) / 2
        if not low < cut < high:
            cut = (low + high) / 2.0
        if not low < cut < high:
            return False  # interval too narrow to split further
        previous = self._snapshot_disks()
        boundaries.insert(cell + 1, cut)
        self._num_splits += 1
        # Re-bucket every record of the split slab.
        moved: Dict[Tuple[int, ...], List[np.ndarray]] = {}
        for old_coords in list(self._records):
            shifted = list(old_coords)
            if old_coords[axis] > cell:
                shifted[axis] += 1
                moved[tuple(shifted)] = self._records.pop(old_coords)
            elif old_coords[axis] == cell:
                bucket = self._records.pop(old_coords)
                lower_half: List[np.ndarray] = []
                upper_half: List[np.ndarray] = []
                for record in bucket:
                    if record[axis] < cut:
                        lower_half.append(record)
                    else:
                        upper_half.append(record)
                if lower_half:
                    moved[old_coords] = lower_half
                if upper_half:
                    upper_coords = list(old_coords)
                    upper_coords[axis] += 1
                    moved[tuple(upper_coords)] = upper_half
        self._records.update(moved)
        self._allocation = self._reallocate(previous=previous)
        return True

    def _snapshot_disks(self) -> Tuple[List[List[float]], object]:
        """The pre-split boundaries (copied) and allocation.

        Coordinates shift when a boundary is inserted, so migration is
        measured in value space: a record/region keeps its disk iff the
        disk serving its values is unchanged.  Keeping the old boundaries
        lets the old disk of any value be computed exactly.
        """
        return (
            [list(b) for b in self._boundaries],
            self._allocation,
        )

    @staticmethod
    def _cells_under(axis_bounds: List[float], values) -> np.ndarray:
        """Cell index of each value on one axis, clamped into the grid."""
        index = np.searchsorted(axis_bounds, values, side="right") - 1
        return np.clip(index, 0, len(axis_bounds) - 2)

    def _reallocate(self, previous):
        allocation = get_scheme(self._scheme_name).allocate(
            self.grid, self._num_disks
        )
        if previous is not None:
            old_boundaries, old_allocation = previous
            old_table = old_allocation.table
            # Bucket-level migration: every *new* bucket's centre, old
            # disk vs new disk.  Centres are separable per axis, so the
            # old disks are one gather over per-axis old cells.
            old_cells = []
            for axis_bounds, old_bounds in zip(
                self._boundaries, old_boundaries
            ):
                edges = np.asarray(axis_bounds)
                centres = (edges[:-1] + edges[1:]) / 2
                old_cells.append(self._cells_under(old_bounds, centres))
            self._buckets_migrated += int(
                np.count_nonzero(
                    allocation.table != old_table[np.ix_(*old_cells)]
                )
            )
            # Record-level migration: exact old-vs-new disk per record.
            if self._records:
                coords = np.repeat(
                    np.array(list(self._records), dtype=np.int64),
                    [len(bucket) for bucket in self._records.values()],
                    axis=0,
                )
                values = np.vstack(
                    [r for bucket in self._records.values() for r in bucket]
                )
                old_disks = old_table[
                    tuple(
                        self._cells_under(old_bounds, values[:, axis])
                        for axis, old_bounds in enumerate(old_boundaries)
                    )
                ]
                new_disks = allocation.table[tuple(coords.T)]
                self._records_migrated += int(
                    np.count_nonzero(old_disks != new_disks)
                )
        return allocation
