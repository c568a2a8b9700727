"""Migration counters of the dynamic grid file against a scalar reference.

``DynamicGridFile`` counts, after every split, how many buckets and
records changed disks, with one gather per axis.  The reference below
recomputes both counters the direct way — one ``searchsorted`` and one
``disk_of`` per bucket centre and per record — and the two must agree
exactly for every scheme the X6 experiment grows.
"""

import numpy as np
import pytest

from repro.core.registry import get_scheme
from repro.experiments.exp_growth import DEFAULT_SCHEMES
from repro.gridfile.dynamic import DynamicGridFile
from repro.workloads.datasets import uniform_dataset


def _coords_under(boundaries, values):
    coords = []
    for axis, value in enumerate(values):
        axis_bounds = boundaries[axis]
        index = int(np.searchsorted(axis_bounds, value, side="right")) - 1
        coords.append(min(max(index, 0), len(axis_bounds) - 2))
    return tuple(coords)


class ScalarReferenceGridFile(DynamicGridFile):
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


def _grow(cls, scheme, records, num_disks=8, capacity=16):
    gridfile = cls(
        [(0.0, 1.0)] * records.shape[1],
        num_disks=num_disks,
        scheme=scheme,
        bucket_capacity=capacity,
    )
    gridfile.insert_many(records)
    return gridfile.stats()


@pytest.mark.parametrize("seed", [5, 17])
@pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
def test_migration_counts_match_scalar_reference(scheme, seed):
    records = uniform_dataset(600, 2, seed=seed).values
    fast = _grow(DynamicGridFile, scheme, records)
    reference = _grow(ScalarReferenceGridFile, scheme, records)
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
        ScalarReferenceGridFile, scheme, records, num_disks=5, capacity=8
    )
    assert fast["records_migrated"] > 0
    assert fast == reference
