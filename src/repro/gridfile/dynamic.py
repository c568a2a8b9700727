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

Storage is array-backed: the records are one growing ``(n, k)`` value
array with a parallel ``(n, k)`` bucket-coordinate array, in insertion
order, plus a grid-shaped occupancy count.  A split updates one
coordinate column and recounts the occupancy; nothing in the split
policy or the migration counters depends on the order of records inside
a bucket.
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
from repro.obs.metrics import global_registry
from repro.obs.trace import trace

__all__ = ["DynamicGridFile"]


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, as the same float.

    The middle value, or the mean of the two middle values for an even
    count, found with ``np.partition``.  ``np.median`` itself imports
    ``numpy.ma`` (20-25 ms) for its NaN check; record values are finite.
    """
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    part = np.partition(values, (half - 1, half))
    return float((part[half - 1] + part[half]) / 2.0)


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

    Records live in two arrays that grow by doubling: their values
    ``(n, k)`` float64 and their bucket coordinates ``(n, k)`` int64,
    row ``i`` being the ``i``-th record inserted.  A grid-shaped int64
    occupancy array counts records per bucket.  There are no per-bucket
    record lists: a split finds the overflowing bucket's records with a
    mask and re-buckets the whole file with one column update.
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
        ndim = len(self._domains)
        self._values = np.empty((0, ndim), dtype=np.float64)
        self._coords = np.empty((0, ndim), dtype=np.int64)
        self._occupancy = np.zeros((1,) * ndim, dtype=np.int64)
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
        return self._locate(self._check_record(record).tolist())

    def insert(self, record: Sequence[float]) -> Tuple[int, ...]:
        """Insert a record, splitting as needed; returns its bucket."""
        record = self._check_record(record)
        self._reserve(1)
        self._values[self._num_records] = record
        return self._file_next(record.tolist())

    def insert_many(self, records) -> None:
        """Insert records from an iterable / ``(n, k)`` array.

        The batch is validated once.  Rows before the first invalid one
        are inserted, then that row raises the error :meth:`insert`
        would, so a bad batch leaves the same records stored as inserting
        its rows one by one.
        """
        records = np.asarray(records, dtype=np.float64)
        ndim = len(self._boundaries)
        if records.ndim != 2 or records.shape[1] != ndim:
            if len(records):
                self._check_record(records[0])  # raises the shape error
            return
        lows, highs = np.array(self._domains).T
        outside = ~((lows <= records) & (records <= highs)).all(axis=1)
        bad = np.flatnonzero(outside)
        valid = int(bad[0]) if bad.size else len(records)
        splits = self._num_splits
        with trace("gridfile.insert_many", records=valid) as span:
            self._reserve(valid)
            start = self._num_records
            self._values[start : start + valid] = records[:valid]
            for values in records[:valid].tolist():
                self._file_next(values)
            span.annotate(splits=self._num_splits - splits)
        if bad.size:
            self._check_record(records[valid])

    def bucket_occupancy(self) -> np.ndarray:
        """Records per bucket, shaped like the current grid."""
        return self._occupancy.copy()

    def records_per_disk(self) -> np.ndarray:
        """Records per disk under the current allocation."""
        loads = np.zeros(self._num_disks, dtype=np.int64)
        np.add.at(loads, self._allocation.table, self._occupancy)
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

    def _locate(self, values: List[float]) -> Tuple[int, ...]:
        """Bucket of in-domain values; the domain's top edge is clamped."""
        return tuple(
            min(bisect.bisect_right(boundaries, value) - 1,
                len(boundaries) - 2)
            for boundaries, value in zip(self._boundaries, values)
        )

    def _reserve(self, count: int) -> None:
        """Grow the record buffers (by doubling) to fit ``count`` more."""
        needed = self._num_records + count
        if needed > len(self._values):
            size = max(needed, 2 * len(self._values), 64)
            values = np.empty((size, self._values.shape[1]), np.float64)
            coords = np.empty((size, self._coords.shape[1]), np.int64)
            values[: self._num_records] = self._values[: self._num_records]
            coords[: self._num_records] = self._coords[: self._num_records]
            self._values, self._coords = values, coords

    def _file_next(self, values: List[float]) -> Tuple[int, ...]:
        """File the record already written at row ``num_records``.

        Locates its bucket, counts it, and splits that bucket while it
        overflows; returns the record's final bucket.
        """
        row = self._num_records
        coords = self._locate(values)
        self._coords[row] = coords
        self._num_records = row + 1
        self._occupancy[coords] += 1
        while self._occupancy[coords] > self._capacity:
            if not self._split(coords):
                break  # unsplittable (duplicate values); allow overflow
            coords = tuple(self._coords[row].tolist())
        return coords

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
        values = self._values[: self._num_records]
        stored = self._coords[: self._num_records]
        in_bucket = (stored == coords).all(axis=1)
        cut = _median(values[in_bucket, axis])
        if not low < cut < high:
            cut = (low + high) / 2.0
        if not low < cut < high:
            return False  # interval too narrow to split further
        previous = self._snapshot_disks()
        boundaries.insert(cell + 1, cut)
        self._num_splits += 1
        global_registry().inc("gridfile.splits")
        # Re-bucket the split slab and shift every later slab up one
        # (``stored`` is a view: this writes the coordinates in place).
        column = stored[:, axis]
        stored[:, axis] += (column > cell) | (
            (column == cell) & (values[:, axis] >= cut)
        )
        dims = self.grid.dims
        self._occupancy = np.bincount(
            np.ravel_multi_index(tuple(stored.T), dims),
            minlength=int(np.prod(dims)),
        ).reshape(dims)
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
            if self._num_records:
                coords = self._coords[: self._num_records]
                values = self._values[: self._num_records]
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
