"""Tile-phase spans and counters of the chunked SAT build."""

import math

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable
from repro.faults.io import (
    IO_FAULTS_ENV,
    IO_FAULTS_STATE_ENV,
    InjectedIOFault,
)
from repro.obs.metrics import global_registry, reset_global_registry
from repro.obs.trace import global_tracer

PHASES = ("sat.tile.compute", "sat.tile.write", "sat.tile.digest")


@pytest.fixture
def traced():
    reset_global_registry()
    tracer = global_tracer()
    tracer.clear()
    tracer.enable()
    yield tracer
    tracer.disable()
    tracer.clear()
    reset_global_registry()


def _written_row_bytes(sat):
    # Every padded row but the leading zero plane of each disk.
    array = sat.array
    return array.nbytes - array.nbytes // array.shape[1]


@pytest.mark.parametrize("dims,m,budget", [
    ((20, 12, 10), 4, 20000),
    ((30, 9), 3, 600),
    ((17,), 2, 64),
])
def test_one_span_per_phase_per_tile(traced, tmp_path, dims, m, budget):
    grid = Grid(dims)
    rows = SummedAreaTable.tile_rows(grid, m, budget)
    sat = SummedAreaTable.build_chunked(
        get_scheme("fx" if len(dims) > 1 else "dm"), grid, m,
        byte_budget=budget, path=tmp_path / "sat.npy",
    )
    try:
        spans = traced.spans()
        (build,) = [s for s in spans if s["name"] == "sat.build_chunked"]
        tiles = math.ceil(dims[0] / rows)
        assert tiles > 1
        for name in PHASES:
            phase = [s for s in spans if s["name"] == name]
            assert len(phase) == tiles, name
            assert {s["parent_id"] for s in phase} == {build["span_id"]}
        assert global_registry().counter("sat.tile_bytes_written") == (
            _written_row_bytes(sat)
        )
    finally:
        sat.close()


def test_resumed_build_counts_only_the_rows_it_writes(
    traced, tmp_path, monkeypatch
):
    grid = Grid((12, 8, 8))
    path = tmp_path / "sat.npy"
    rows = SummedAreaTable.tile_rows(grid, 3, 8000)
    # The first tile commits, then the build fails at its boundary.
    monkeypatch.setenv(IO_FAULTS_ENV, "sat.write:error:1")
    monkeypatch.setenv(IO_FAULTS_STATE_ENV, str(tmp_path / "faults"))
    with pytest.raises(InjectedIOFault):
        SummedAreaTable.build_chunked(
            get_scheme("fx"), grid, 3, byte_budget=8000, path=path
        )
    monkeypatch.delenv(IO_FAULTS_ENV)
    first = global_registry().counter("sat.tile_bytes_written")
    sat = SummedAreaTable.build_chunked(
        get_scheme("fx"), grid, 3, byte_budget=8000, path=path
    )
    try:
        total = global_registry().counter("sat.tile_bytes_written")
        row_bytes = sat.array.nbytes // (3 * sat.array.shape[1])
        assert first == 3 * rows * row_bytes
        assert total == _written_row_bytes(sat)
        assert global_registry().counter("sat.build_resumes") == 1
        reference = SummedAreaTable.build(
            get_scheme("fx").allocate(grid, 3)
        )
        assert np.array_equal(np.asarray(sat.array), reference.array)
    finally:
        sat.close()
