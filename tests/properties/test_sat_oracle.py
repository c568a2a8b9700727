"""Differential oracle: both SAT builds == the plain ``cumsum`` builder.

The builds in :mod:`repro.core.sat` sum with row adds along non-last
axes (for slabs of at least ``ROW_ADD_MIN_SLAB`` elements), fold the
cross-tile carry into the tile-axis pass, fuse the indicator with the
last-axis prefix, and spill with positioned writes.  The reference here
is the earlier builder, kept as it was: one ``cumsum`` per axis, the
carry added to the whole tile, the tile copied into a writable map.
Integer sums are exact, so every check is ``==``: the in-RAM array, the
spilled file's bytes, and the manifest's per-tile digests.
"""

import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import SchemeNotApplicableError
from repro.core.grid import Grid
from repro.core.integrity import manifest_path, sha256_hex
from repro.core.registry import get_scheme
from repro.core.sat import ROW_ADD_MIN_SLAB, SummedAreaTable, sat_dtype


def reference_build(allocation):
    """The in-RAM build: indicators, then one ``cumsum`` per axis."""
    table = allocation.table
    num_disks = allocation.num_disks
    ndim = table.ndim
    disks = np.arange(num_disks, dtype=table.dtype)
    indicators = table[np.newaxis] == disks.reshape(
        (num_disks,) + (1,) * ndim
    )
    sat = np.zeros(
        (num_disks,) + tuple(d + 1 for d in table.shape),
        dtype=sat_dtype(table.size),
    )
    interior = (slice(None),) + (slice(1, None),) * ndim
    sat[interior] = indicators
    for axis in range(1, ndim + 1):
        np.cumsum(sat, axis=axis, out=sat)
    return sat


def reference_local_tile_chunk(scheme, grid, num_disks, dtype, start, stop):
    """One tile's carry-free SAT chunk (rows ``[start, stop)``)."""
    ndim = grid.ndim
    rest_padded = tuple(d + 1 for d in grid.dims[1:])
    block = scheme.disk_array_block(grid, num_disks, start, stop)
    chunk = np.zeros(
        (num_disks, stop - start) + rest_padded, dtype=dtype
    )
    disks = np.arange(num_disks)
    interior = (slice(None), slice(None)) + (slice(1, None),) * (
        ndim - 1
    )
    chunk[interior] = block[np.newaxis] == disks.reshape(
        (num_disks,) + (1,) * ndim
    )
    for axis in range(2, ndim + 1):
        np.cumsum(chunk, axis=axis, out=chunk)
    np.cumsum(chunk, axis=1, out=chunk)
    return chunk


def reference_chunked(scheme, grid, num_disks, rows):
    """The tile sweep: ``(table, tile_digests)``, carry added per tile."""
    dims = grid.dims
    dtype = sat_dtype(grid.num_buckets)
    out = np.zeros(
        (num_disks,) + tuple(d + 1 for d in dims), dtype=dtype
    )
    carry = np.zeros((num_disks,) + out.shape[2:], dtype=dtype)
    digests = []
    for start in range(0, dims[0], rows):
        stop = min(start + rows, dims[0])
        chunk = reference_local_tile_chunk(
            scheme, grid, num_disks, dtype, start, stop
        )
        chunk += carry[:, np.newaxis]
        carry = np.ascontiguousarray(chunk[:, -1])
        out[:, start + 1 : stop + 1] = chunk
        digests.append(sha256_hex(chunk.data))
    return out, digests


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _slab(num_disks, dims):
    """Elements per leading-axis row of the padded table."""
    return num_disks * int(np.prod([d + 1 for d in dims[1:]]))


#: Per-axis extent caps by dimensionality: large enough that an M = 9
#: table's leading-axis slab crosses ROW_ADD_MIN_SLAB, small enough to
#: keep each example in the low milliseconds.
_EXTENT_CAPS = {1: (40,), 2: (12, 300), 3: (12, 20, 20), 4: (6, 8, 8, 8)}


@st.composite
def builds(draw):
    ndim = draw(st.integers(1, 4))
    dims = tuple(
        draw(st.integers(1, cap)) for cap in _EXTENT_CAPS[ndim]
    )
    num_disks = draw(st.integers(1, 9))
    rows = draw(st.integers(1, dims[0]))
    scheme = draw(st.sampled_from(["dm", "fx", "gdm"]))
    return scheme, dims, num_disks, rows


def _check(scheme_name, dims, num_disks, rows):
    grid = Grid(dims)
    scheme = get_scheme(scheme_name)
    try:
        allocation = scheme.allocate(grid, num_disks)
    except SchemeNotApplicableError:
        return
    expected = reference_build(allocation)
    built = SummedAreaTable.build(allocation).array
    assert built.dtype == expected.dtype
    assert np.array_equal(built, expected)

    budget = SummedAreaTable.tile_working_set(grid, num_disks, rows)
    assert SummedAreaTable.tile_rows(grid, num_disks, budget) == rows
    spilled, digests = reference_chunked(scheme, grid, num_disks, rows)
    assert np.array_equal(spilled, expected)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "sat.npy")
        sat = SummedAreaTable.build_chunked(
            scheme, grid, num_disks, byte_budget=budget, path=path
        )
        sat.close()
        with open(path, "rb") as handle:
            assert handle.read() == npy_bytes(spilled)
        with open(manifest_path(path)) as handle:
            manifest = json.load(handle)
    assert manifest["tile_rows"] == rows
    assert manifest["tile_digests"] == digests


@settings(deadline=None)
@given(builds())
# Leading-axis slabs on both sides of the row-add threshold, tiles of
# one row and of the whole grid.
@example(("fx", (12, 9, 9), 8, 1))
@example(("fx", (12, 16, 16), 9, 12))
@example(("dm", (5, 300), 7, 2))
@example(("gdm", (6, 8, 8, 8), 9, 4))
@example(("dm", (40,), 3, 7))
def test_builds_match_the_cumsum_reference(case):
    _check(*case)


def test_examples_straddle_the_row_add_threshold():
    assert _slab(8, (12, 9, 9)) < ROW_ADD_MIN_SLAB
    assert _slab(9, (12, 16, 16)) >= ROW_ADD_MIN_SLAB
    assert _slab(7, (5, 300)) >= ROW_ADD_MIN_SLAB


#: sha256 of the spilled file and of the concatenated manifest tile
#: digests for fx on 42x24x20, M = 6, a 131072-byte budget (eleven
#: 4-row tiles, the last one 2 rows), as the ``cumsum`` builder wrote
#: them.
PINNED_FILE_SHA256 = (
    "b0f7f3e301e27531c4155dbd559a4f69af9554dbf205eb50621064741061f9ed"
)
PINNED_DIGESTS_SHA256 = (
    "247183a5fa5ad450b6d256dbf60fc6a78fe22b2e749e7a20dd46d121734178e5"
)


def test_pinned_multi_tile_fx_spill(tmp_path):
    grid = Grid((42, 24, 20))
    path = tmp_path / "sat.npy"
    sat = SummedAreaTable.build_chunked(
        get_scheme("fx"), grid, 6, byte_budget=131072, path=path
    )
    sat.close()
    manifest = json.loads(open(manifest_path(path)).read())
    assert manifest["tile_rows"] == 4
    assert len(manifest["tile_digests"]) == 11
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        PINNED_FILE_SHA256
    )
    joined = "".join(manifest["tile_digests"]).encode()
    assert hashlib.sha256(joined).hexdigest() == PINNED_DIGESTS_SHA256


@pytest.mark.parametrize("rows", [1, 4, 42])
def test_reference_sweep_reproduces_the_pin(rows):
    # The reference sweep itself is tied to the pinned bytes, so the
    # oracle cannot drift along with the code it checks.
    grid = Grid((42, 24, 20))
    spilled, digests = reference_chunked(get_scheme("fx"), grid, 6, rows)
    if rows == 4:
        joined = "".join(digests).encode()
        assert hashlib.sha256(joined).hexdigest() == PINNED_DIGESTS_SHA256
    assert hashlib.sha256(npy_bytes(spilled)).hexdigest() == (
        PINNED_FILE_SHA256
    )
