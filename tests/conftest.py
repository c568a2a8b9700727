"""Shared fixtures for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from repro.core.allocation import DiskAllocation
from repro.core.grid import Grid
from repro.core.registry import registry_snapshot, restore_registry

# ``pytest --hypothesis-profile=ci``: a longer, reproducible search for
# the oracle tests CI runs on their own.  The default profile is
# hypothesis' own and stays as it is, so tier-1 time does not grow.
settings.register_profile("ci", max_examples=1000, derandomize=True)


@pytest.fixture(autouse=True)
def _registry_guard():
    """Snapshot and restore the scheme registry around every test.

    Tests that call ``register_scheme`` (with or without ``replace=True``)
    cannot leak schemes — or clobbered builtins — into later tests.
    """
    snapshot = registry_snapshot()
    try:
        yield
    finally:
        restore_registry(snapshot)


@pytest.fixture
def grid_2d() -> Grid:
    """The small 2-d grid most unit tests run on."""
    return Grid((8, 8))


@pytest.fixture
def grid_3d() -> Grid:
    """A small 3-d grid."""
    return Grid((4, 4, 4))


@pytest.fixture
def paper_grid() -> Grid:
    """The paper's default configuration: 32 x 32 buckets."""
    return Grid((32, 32))


@pytest.fixture
def ragged_grid() -> Grid:
    """A grid with unequal, non-power-of-two extents."""
    return Grid((5, 12))


@pytest.fixture
def checkerboard_allocation(grid_2d: Grid) -> DiskAllocation:
    """2-disk checkerboard on the 8x8 grid — hand-checkable costs."""
    table = np.indices(grid_2d.dims).sum(axis=0) % 2
    return DiskAllocation(grid_2d, 2, table)
