"""The array-backed dynamic grid file against a standalone scalar replay.

``DynamicGridFile`` keeps its records in flat value/coordinate arrays,
re-buckets a split slab with one column update and reads occupancy from
a grid-shaped count.  ``ScalarReplayGridFile`` below is the original
dict-of-lists implementation, kept here as the oracle: records live in
one Python list per bucket and a split re-buckets them one by one.
``DirectCountReplay`` additionally recomputes both migration counters
the direct way — one ``searchsorted`` and one ``disk_of`` per bucket
centre and per record.  The files must agree exactly on structure,
occupancy and counters.
"""

import bisect
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import GridFileError
from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.experiments.exp_growth import DEFAULT_SCHEMES
from repro.gridfile.dynamic import DynamicGridFile
from repro.gridfile.partitioner import RangePartitioner
from repro.workloads.datasets import uniform_dataset


def _coords_under(boundaries, values):
    coords = []
    for axis, value in enumerate(values):
        axis_bounds = boundaries[axis]
        index = int(np.searchsorted(axis_bounds, value, side="right")) - 1
        coords.append(min(max(index, 0), len(axis_bounds) - 2))
    return tuple(coords)


class ScalarReplayGridFile:
    """Per-bucket record lists, record-by-record splits and counters."""

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

    @property
    def grid(self) -> Grid:
        return Grid(tuple(len(b) - 1 for b in self._boundaries))

    @property
    def allocation(self):
        return self._allocation

    def partitioners(self) -> List[RangePartitioner]:
        return [RangePartitioner(b) for b in self._boundaries]

    def stats(self) -> Dict[str, int]:
        return {
            "num_records": self._num_records,
            "num_buckets": self.grid.num_buckets,
            "num_splits": self._num_splits,
            "buckets_migrated": self._buckets_migrated,
            "records_migrated": self._records_migrated,
        }

    def bucket_of(self, record: Sequence[float]) -> Tuple[int, ...]:
        record = self._check_record(record)
        coords = []
        for boundaries, value in zip(self._boundaries, record.tolist()):
            index = bisect.bisect_right(boundaries, value) - 1
            coords.append(min(index, len(boundaries) - 2))
        return tuple(coords)

    def insert(self, record: Sequence[float]) -> Tuple[int, ...]:
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
        for record in np.asarray(records, dtype=np.float64):
            self.insert(record)

    def bucket_occupancy(self) -> np.ndarray:
        occupancy = np.zeros(self.grid.dims, dtype=np.int64)
        for coords, bucket in self._records.items():
            occupancy[coords] = len(bucket)
        return occupancy

    def records_per_disk(self) -> np.ndarray:
        loads = np.zeros(self._num_disks, dtype=np.int64)
        for coords, bucket in self._records.items():
            loads[self._allocation.disk_of(coords)] += len(bucket)
        return loads

    def stored_records(self) -> np.ndarray:
        """Every stored record, ``(n, k)``, in no particular order."""
        return np.array(
            [r for bucket in self._records.values() for r in bucket]
        ).reshape(-1, len(self._boundaries))

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
        previous = (
            [list(b) for b in self._boundaries],
            self._allocation,
        )
        boundaries.insert(cell + 1, cut)
        self._num_splits += 1
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

    @staticmethod
    def _cells_under(axis_bounds: List[float], values) -> np.ndarray:
        index = np.searchsorted(axis_bounds, values, side="right") - 1
        return np.clip(index, 0, len(axis_bounds) - 2)

    def _reallocate(self, previous):
        allocation = get_scheme(self._scheme_name).allocate(
            self.grid, self._num_disks
        )
        if previous is not None:
            old_boundaries, old_allocation = previous
            old_table = old_allocation.table
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


class DirectCountReplay(ScalarReplayGridFile):
    """Counts migrations bucket by bucket and record by record."""

    def _reallocate(self, previous):
        allocation = get_scheme(self._scheme_name).allocate(
            self.grid, self._num_disks
        )
        if previous is not None:
            old_boundaries, old_allocation = previous
            for coords in self.grid.iter_buckets():
                centre = tuple(
                    (self._boundaries[a][c] + self._boundaries[a][c + 1]) / 2
                    for a, c in enumerate(coords)
                )
                old_disk = old_allocation.disk_of(
                    _coords_under(old_boundaries, centre)
                )
                if allocation.disk_of(coords) != old_disk:
                    self._buckets_migrated += 1
            for coords, bucket in self._records.items():
                new_disk = allocation.disk_of(coords)
                for record in bucket:
                    old_disk = old_allocation.disk_of(
                        _coords_under(old_boundaries, record)
                    )
                    if old_disk != new_disk:
                        self._records_migrated += 1
        return allocation


def _make(cls, scheme, ndim, num_disks=8, capacity=16, domain=(0.0, 1.0)):
    return cls(
        [domain] * ndim,
        num_disks=num_disks,
        scheme=scheme,
        bucket_capacity=capacity,
    )


def _grow(cls, scheme, records, num_disks=8, capacity=16):
    gridfile = _make(cls, scheme, records.shape[1], num_disks, capacity)
    gridfile.insert_many(records)
    return gridfile.stats()


def assert_same_file(fast, replay):
    """Structure, occupancy, counters and every record's bucket agree."""
    assert fast.stats() == replay.stats()
    assert [p.boundaries.tolist() for p in fast.partitioners()] == [
        p.boundaries.tolist() for p in replay.partitioners()
    ]
    assert np.array_equal(fast.bucket_occupancy(), replay.bucket_occupancy())
    assert np.array_equal(fast.records_per_disk(), replay.records_per_disk())
    for record in replay.stored_records():
        assert fast.bucket_of(record) == replay.bucket_of(record)


@pytest.mark.parametrize("seed", [5, 17])
@pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
def test_migration_counts_match_scalar_reference(scheme, seed):
    records = uniform_dataset(600, 2, seed=seed).values
    fast = _grow(DynamicGridFile, scheme, records)
    reference = _grow(DirectCountReplay, scheme, records)
    assert fast["num_splits"] > 10
    assert reference["buckets_migrated"] > 0
    assert fast == reference


@pytest.mark.parametrize("scheme", ["dm", "hcam"])
def test_domain_edge_records_use_the_clamped_cell(scheme):
    # Records on the domain's upper edge sit past the last boundary of
    # searchsorted's right side; both counters must clamp them into the
    # last cell, in three dimensions as well as two.
    records = uniform_dataset(300, 3, seed=3).values.copy()
    records[::60, 0] = 1.0
    records[::50, 2] = 0.0
    records[-1] = 1.0
    fast = _grow(DynamicGridFile, scheme, records, num_disks=5, capacity=8)
    reference = _grow(
        DirectCountReplay, scheme, records, num_disks=5, capacity=8
    )
    assert fast["records_migrated"] > 0
    assert fast == reference


#: A domain only 8 float steps wide: halving its cells runs out of room
#: after a few splits, so duplicate records make unsplittable buckets
#: without the ~50 halvings per axis a ``[0, 1]`` domain would take.
NARROW = (1.0, 1.0 + 8 * np.finfo(float).eps)


@st.composite
def growth_cases(draw):
    """A domain and a record stream over it.

    On ``[0, 1]`` one axis stays uniform (so no two records coincide)
    while the others may be drawn from a coarse pool that includes both
    edges, and the last record sits on the top corner ``1.0``.  On the
    narrow domain every value is one of its 9 floats, edges included, so
    duplicates and unsplittable buckets are the norm.
    """
    ndim = draw(st.integers(2, 3))
    count = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        low, high = NARROW
        steps = rng.integers(0, 9, size=(count, ndim))
        return NARROW, low + steps * np.finfo(float).eps
    records = rng.uniform(0.0, 1.0, size=(count, ndim))
    pool = np.array([0.0, 0.25, 0.5, 1.0])
    for axis in draw(st.sets(st.integers(1, ndim - 1))):
        records[:, axis] = rng.choice(pool, size=count)
    records[-1] = 1.0
    return (0.0, 1.0), records


@settings(deadline=None)
@given(
    case=growth_cases(),
    scheme=st.sampled_from(["dm", "fx-auto", "hcam", "roundrobin"]),
    num_disks=st.integers(1, 8),
    capacity=st.integers(1, 16),
)
def test_oracle_matches_scalar_replay(case, scheme, num_disks, capacity):
    domain, records = case
    ndim = records.shape[1]
    fast = _make(DynamicGridFile, scheme, ndim, num_disks, capacity, domain)
    replay = _make(
        ScalarReplayGridFile, scheme, ndim, num_disks, capacity, domain
    )
    fast.insert_many(records)
    replay.insert_many(records)
    assert_same_file(fast, replay)


@pytest.mark.parametrize("value", [0.5, 1.0])
def test_unsplittable_duplicates_match_the_replay(value):
    # Identical records on [0, 1] halve their bucket down to adjacent
    # floats on both axes before the file gives up and overflows.
    records = uniform_dataset(40, 2, seed=4).values.copy()
    records[10:15] = value
    fast = _make(DynamicGridFile, "hcam", 2, num_disks=5, capacity=3)
    replay = _make(ScalarReplayGridFile, "hcam", 2, num_disks=5, capacity=3)
    fast.insert_many(records)
    replay.insert_many(records)
    assert fast.bucket_occupancy().max() == 5
    assert_same_file(fast, replay)


@pytest.mark.parametrize("ndim", [2, 3])
def test_bad_row_mid_batch_keeps_the_scalar_prefix(ndim):
    records = uniform_dataset(90, ndim, seed=11).values.copy()
    records[57, ndim - 1] = 1.5
    fast = _make(DynamicGridFile, "hcam", ndim, num_disks=4, capacity=4)
    replay = _make(ScalarReplayGridFile, "hcam", ndim, num_disks=4, capacity=4)
    with pytest.raises(GridFileError) as fast_error:
        fast.insert_many(records)
    with pytest.raises(GridFileError) as replay_error:
        replay.insert_many(records)
    assert str(fast_error.value) == str(replay_error.value)
    assert fast.num_records == 57
    assert_same_file(fast, replay)


def test_single_inserts_match_the_batch():
    records = uniform_dataset(200, 2, seed=12).values
    batch = _make(DynamicGridFile, "dm", 2, num_disks=4, capacity=6)
    single = _make(DynamicGridFile, "dm", 2, num_disks=4, capacity=6)
    batch.insert_many(records)
    buckets = [single.insert(record) for record in records]
    assert batch.stats() == single.stats()
    assert np.array_equal(batch.bucket_occupancy(), single.bucket_occupancy())
    assert buckets[-1] == single.bucket_of(records[-1])
