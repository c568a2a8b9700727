"""Per-disk summed-area tables: in-RAM, and chunked/memory-mapped.

The :class:`~repro.core.engine.ResponseTimeEngine` answers every query
through one data structure: the stacked k-dimensional summed-area table
(SAT) of the ``M`` disk-indicator arrays,

    sat[m, i_1, ..., i_k] = |{ b on disk m : b_j < i_j for all j }|,

zero-padded with one leading plane per spatial axis so inclusion–
exclusion slices are uniform.  This module owns that structure:

* :meth:`SummedAreaTable.build` — the in-RAM build (moved here from the
  engine), one pass of indicators + one prefix sum per axis;
* :meth:`SummedAreaTable.build_chunked` — a **tiled build that never
  materializes the whole grid**: the allocation is generated tile by
  tile (:meth:`~repro.schemes.base.DeclusteringScheme.disk_array_block`),
  prefix sums are carried across tiles, and the table spills to a
  ``.npy`` file (positioned writes, fsync per tile) that is then
  memory-mapped read-only, all under a configurable byte budget.
  This is what makes beyond-RAM grids (1024³ and up — billions of
  buckets, a scenario the 1994 paper could not touch) buildable and
  queryable on ordinary hardware;
* :meth:`SummedAreaTable.open_mmap` — reopen a spilled table zero-copy
  (the ``.npy`` header carries shape and dtype, so the path alone is a
  complete, picklable handle — see ``repro.core.shm.MmapSatHandle``);
* :meth:`SummedAreaTable.corner_counts` — the batched 2^k-corner gather,
  streamed in ascending file order for memory-mapped tables so page
  reads stay sequential.

All arithmetic is exact integer work; every layout of the same
allocation holds bit-identical counts, which the QA423 backend contract
certifies.
"""

from __future__ import annotations

import json
import math
import mmap as _mmap_module
import os
import tempfile
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.allocation import DiskAllocation
from repro.core.exceptions import (
    AllocationError,
    LayoutError,
    QueryError,
)
from repro.core.grid import Grid
from repro.core.integrity import (
    MANIFEST_SCHEMA_VERSION,
    SAT_JOURNAL_KIND,
    SatManifest,
    atomic_write_json,
    sha256_hex,
    verify_sat,
)
from repro.faults.io import maybe_io_fault
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry
from repro.obs.trace import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.schemes.base import DeclusteringScheme

_LOG = get_logger("repro.core.sat")

__all__ = [
    "DEFAULT_BYTE_BUDGET",
    "SummedAreaTable",
    "build_carry_path",
    "build_journal_path",
    "build_partial_path",
    "sat_byte_budget",
    "sat_dtype",
]

#: Default working-memory budget (bytes) for chunked builds and streamed
#: gathers: 256 MiB, small enough for CI runners, large enough that the
#: paper-scale grids never actually chunk.
DEFAULT_BYTE_BUDGET = 256 * 1024 * 1024

#: Environment variable overriding the default byte budget.
BYTE_BUDGET_ENV = "REPRO_SAT_BUDGET"


def sat_byte_budget(budget: Optional[int] = None) -> int:
    """Resolve the working-memory budget: argument > env var > default."""
    if budget is None:
        raw = os.environ.get(BYTE_BUDGET_ENV)
        budget = int(raw) if raw else DEFAULT_BYTE_BUDGET
    budget = int(budget)
    if budget <= 0:
        raise AllocationError(f"SAT byte budget must be positive: {budget}")
    return budget


def sat_dtype(num_buckets: int) -> np.dtype:
    """Smallest signed dtype that can hold any SAT entry.

    Entries never exceed the bucket count, so int32 suffices up to
    2^31 - 1 buckets; downstream arithmetic accumulates in int64.
    """
    return np.dtype(
        np.int32 if num_buckets <= np.iinfo(np.int32).max else np.int64
    )


def _padded_shape(num_disks: int, dims: Sequence[int]) -> Tuple[int, ...]:
    return (int(num_disks),) + tuple(int(d) + 1 for d in dims)


#: Smallest row slab (elements per index along the summed axis) that
#: takes the row-add prefix sum; below it ``cumsum``'s per-call cost is
#: lower.  Measured on int32 along axis 1 (``cumsum`` vs row adds):
#: 8×17×17 (slab 136) 12 vs 36 µs; slabs of 2056–2080 about even;
#: 8×52×257×257 (slab 528,392) 92 vs 20 ms.
ROW_ADD_MIN_SLAB = 2048


def _prefix_sum(array: np.ndarray, axis: int) -> None:
    """Inclusive prefix sum of ``array`` along ``axis``, in place.

    Along any axis but the last, numpy's ``cumsum`` walks strided
    memory and runs 4–10× slower than adding each row slab to the one
    before it (``array[i] += array[i - 1]``, contiguous inner loops).
    Row adds win once a slab holds about :data:`ROW_ADD_MIN_SLAB`
    elements; smaller arrays and the last axis keep ``cumsum``.  Both
    are the same exact integer sums, so the result is bit-identical.
    """
    rows = array.shape[axis]
    if rows < 2:
        return
    if axis == array.ndim - 1 or array.size // rows < ROW_ADD_MIN_SLAB:
        np.cumsum(array, axis=axis, out=array)
        return
    lead = (slice(None),) * axis
    previous = array[lead + (0,)]
    for row in range(1, rows):
        current = array[lead + (row,)]
        np.add(current, previous, out=current)
        previous = current


def _pwrite_all(fd: int, data: np.ndarray, offset: int) -> None:
    """Write the C-contiguous ``data`` at byte ``offset`` of ``fd``."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view = view[written:]
        offset += written


# ----------------------------------------------------------------------
# Crash-safe chunked-build sidecars
# ----------------------------------------------------------------------
#
# A chunked build never writes the final path directly.  It writes
# ``<path>.partial`` plus a tile journal and a carry-plane checkpoint,
# each updated with an atomic rename after every completed tile, then
# renames the partial into place.  A SIGKILL at any moment therefore
# leaves either (a) nothing at the final path plus a resumable
# partial/journal pair, or (b) the finished table — never a torn file
# under the real name.


def build_partial_path(path: Union[str, os.PathLike]) -> str:
    """Where a chunked build stages its output before the final rename."""
    return os.fspath(path) + ".partial"


def build_journal_path(path: Union[str, os.PathLike]) -> str:
    """The tile journal recording how far a chunked build has gotten."""
    return os.fspath(path) + ".journal.json"


def build_carry_path(path: Union[str, os.PathLike]) -> str:
    """The carry-plane checkpoint matching the journal's last tile."""
    return os.fspath(path) + ".carry.npy"


def _remove_quietly(*paths: str) -> None:
    for p in paths:
        try:
            os.unlink(p)
        except OSError:
            pass


class SummedAreaTable:
    """The stacked per-disk SAT, backed by RAM or by a memory-mapped file.

    Attributes
    ----------
    array:
        The ``(M, d_1 + 1, ..., d_k + 1)`` table — an ``ndarray`` for
        in-RAM tables, an ``np.memmap`` view for spilled ones.  Read-only
        either way.
    """

    __slots__ = ("array", "grid", "num_disks", "path", "_disk_last")

    def __init__(
        self,
        array: np.ndarray,
        grid: Grid,
        num_disks: int,
        path: Optional[str] = None,
    ):
        expected = _padded_shape(num_disks, grid.dims)
        if tuple(array.shape) != expected:
            raise AllocationError(
                f"SAT shape {tuple(array.shape)} does not match "
                f"grid {grid.dims} with M={num_disks} (expected {expected})"
            )
        self.array = array
        self.grid = grid
        self.num_disks = int(num_disks)
        self.path = path
        #: Lazily built disk-last (disk-contiguous) copy for native
        #: backends; shared across backends, in-RAM tables only.
        self._disk_last: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, allocation: DiskAllocation) -> "SummedAreaTable":
        """In-RAM build from a materialized allocation (the default path)."""
        table = allocation.table
        num_disks = allocation.num_disks
        ndim = table.ndim
        disks = np.arange(num_disks, dtype=table.dtype)
        indicators = table[np.newaxis] == disks.reshape(
            (num_disks,) + (1,) * ndim
        )
        sat = np.zeros(
            _padded_shape(num_disks, table.shape),
            dtype=sat_dtype(table.size),
        )
        interior = (slice(None),) + (slice(1, None),) * ndim
        sat[interior] = indicators
        for axis in range(1, ndim + 1):
            _prefix_sum(sat, axis)
        sat.setflags(write=False)
        return cls(sat, allocation.grid, num_disks)

    @classmethod
    def _tile_cost(cls, grid: Grid, num_disks: int) -> Tuple[int, int]:
        """``(per_row_bytes, carry_bytes)`` of one chunked-build tile.

        Per row: the SAT chunk row per disk, plus the int64 coordinate
        arithmetic of the allocation block (ndim temporaries).
        """
        rest_padded = 1
        for d in grid.dims[1:]:
            rest_padded *= d + 1
        itemsize = sat_dtype(grid.num_buckets).itemsize
        per_row = num_disks * rest_padded * itemsize
        per_row += (grid.ndim + 1) * rest_padded * 8
        carry = num_disks * rest_padded * itemsize
        return per_row, carry

    @classmethod
    def tile_rows(
        cls, grid: Grid, num_disks: int, byte_budget: Optional[int] = None
    ) -> int:
        """Rows of the leading axis one build tile may span under the budget.

        The tile working set is the per-tile SAT chunk (``M`` disks ×
        rows × padded trailing extents), the tile's allocation block, and
        the carry plane; the row count is what makes that fit.
        """
        budget = sat_byte_budget(byte_budget)
        per_row, carry = cls._tile_cost(grid, num_disks)
        rows = max(1, (budget - carry) // max(per_row, 1))
        return int(min(rows, grid.dims[0]))

    @classmethod
    def tile_working_set(
        cls, grid: Grid, num_disks: int, rows: int
    ) -> int:
        """Estimated peak bytes a ``rows``-row build tile touches.

        The inverse of :meth:`tile_rows` — benchmarks and the CI gate use
        it to certify a chunked build stayed within its byte budget.
        """
        per_row, carry = cls._tile_cost(grid, num_disks)
        return int(rows) * per_row + carry

    @classmethod
    def _load_build_journal(
        cls,
        path: str,
        dtype: np.dtype,
        shape: Tuple[int, ...],
        scheme_name: str,
    ) -> Optional[Dict[str, object]]:
        """A prior interrupted build's journal, validated, or ``None``.

        Returns the journal document only when every identity field
        (dtype, shape, scheme) matches the requested build, the partial
        file exists, the tile bookkeeping is self-consistent, and the
        carry checkpoint's digest matches what the journal recorded —
        anything less and resuming could not be byte-identical, so the
        stale sidecars are removed and the build starts fresh.
        """
        journal_file = build_journal_path(path)
        carry_file = build_carry_path(path)
        partial = build_partial_path(path)

        def _discard(why: str) -> None:
            _LOG.warning(
                "discarding unusable build journal for %s: %s", path, why
            )
            _remove_quietly(journal_file, carry_file, partial)

        try:
            with open(journal_file) as handle:
                journal = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            _discard(f"unreadable ({exc!r})")
            return None
        try:
            ok = (
                int(journal["schema"]) == MANIFEST_SCHEMA_VERSION
                and journal["kind"] == SAT_JOURNAL_KIND
                and str(journal["dtype"]) == dtype.str
                and tuple(journal["shape"]) == shape
                and str(journal.get("scheme", "")) == scheme_name
                and int(journal["tile_rows"]) >= 1
                and 0 < int(journal["next_start"]) <= shape[1] - 1
                and len(journal["tile_starts"])
                == len(journal["tile_digests"])
            )
        except (KeyError, TypeError, ValueError):
            ok = False
        if ok:
            rows = int(journal["tile_rows"])
            expected_starts = list(
                range(0, int(journal["next_start"]), rows)
            )
            ok = [int(s) for s in journal["tile_starts"]] == (
                expected_starts
            )
        if not ok:
            _discard("identity or tile bookkeeping mismatch")
            return None
        if not os.path.exists(partial):
            _discard("partial file is gone")
            return None
        try:
            carry = np.load(carry_file)  # qa503: allow — digest-checked
            # against the journal on the next line before any use.
            carry = np.ascontiguousarray(carry)
        except (OSError, ValueError):
            _discard("carry checkpoint unreadable")
            return None
        if (
            carry.dtype != dtype
            or carry.shape != (shape[0],) + shape[2:]
            or sha256_hex(carry.data) != journal.get("carry_sha256")
        ):
            _discard("carry checkpoint does not match the journal")
            return None
        journal["carry"] = carry
        return journal

    @classmethod
    def _tile_chunk(
        cls,
        scheme: "DeclusteringScheme",
        grid: Grid,
        num_disks: int,
        start: int,
        stop: int,
        carry: np.ndarray,
    ) -> np.ndarray:
        """One tile's finished SAT rows ``start + 1 .. stop`` (padded).

        Per disk, the indicator of the tile's allocation block goes
        straight into the last-axis ``cumsum`` (``out=`` the chunk's
        interior), so only the trailing pad planes need zeroing.  The
        middle trailing axes follow, then the tile axis: ``carry`` (the
        previous tile's last row) is added to the first row and the row
        adds along the tile axis spread it to the rest.  Prefix sums
        commute, and this order keeps the cross-tile carry a single
        plane.
        """
        ndim = grid.ndim
        block = scheme.disk_array_block(grid, num_disks, start, stop)
        chunk = np.empty(
            (num_disks, stop - start) + carry.shape[1:], dtype=carry.dtype
        )
        for axis in range(2, ndim + 1):
            chunk[(slice(None),) * axis + (0,)] = 0
        interior = (slice(None),) + (slice(1, None),) * (ndim - 1)
        for disk in range(num_disks):
            np.cumsum(
                block == disk,
                axis=-1,
                dtype=chunk.dtype,
                out=chunk[disk][interior],
            )
        if ndim == 1:
            # The last axis is the tile axis: already summed.
            chunk += carry[:, np.newaxis]
            return chunk
        for axis in range(2, ndim):
            _prefix_sum(chunk, axis)
        chunk[:, 0] += carry
        _prefix_sum(chunk, 1)
        return chunk

    @classmethod
    def build_chunked(
        cls,
        scheme: "DeclusteringScheme",
        grid: Grid,
        num_disks: int,
        byte_budget: Optional[int] = None,
        path: Optional[Union[str, os.PathLike]] = None,
        resume: bool = True,
    ) -> "SummedAreaTable":
        """Tiled build spilling to a ``.npy`` file, reopened memory-mapped.

        The grid is swept in tiles of :meth:`tile_rows` rows along the
        leading axis; each tile's allocation block comes from
        ``scheme.disk_array_block`` (so the full table is never
        materialized), trailing-axis prefix sums are computed within the
        tile, and the leading-axis sum is carried across tiles.  Each
        disk's rows of a tile are one contiguous run of the file and go
        in with one ``os.pwrite``; the table is never mapped writable,
        so it does not become resident in the building process.
        ``path`` defaults to a fresh temp file (``REPRO_SAT_DIR``
        overrides the directory); the caller owns the file's lifetime.

        The build is **crash-safe and resumable**: it stages into
        ``<path>.partial``, journals every completed tile (plus the
        carry plane) with atomic renames, and only renames the finished
        table into place.  Per tile the commit order is: tile data
        durable (``os.fsync`` of the partial's descriptor, which took
        the place of a writable map's msync), then the carry
        checkpoint, then the journal.  Killed at any point, a re-run
        with the same ``path`` picks up from the last journaled tile —
        reusing the journal's tile size even if the byte budget
        changed, so the resumed table is byte-identical to an
        uninterrupted build.
        ``resume=False`` ignores and removes any prior journal.  Tile
        digests are streamed into a sidecar manifest that
        :meth:`open_mmap` verifies (see :mod:`repro.core.integrity`).
        A build that *raises* cleans up after itself: temp-file builds
        remove everything they created; explicit-path builds keep the
        partial + journal pair for a later resume (``repro doctor``
        reports and can garbage-collect them).
        """
        owns_temp = path is None
        if path is None:
            directory = os.environ.get(
                "REPRO_SAT_DIR"
            ) or tempfile.gettempdir()
            fd, path = tempfile.mkstemp(
                prefix="repro-sat-", suffix=".npy", dir=directory
            )
            os.close(fd)
        path = os.fspath(path)
        partial = build_partial_path(path)
        journal_file = build_journal_path(path)
        carry_file = build_carry_path(path)
        dims = grid.dims
        dtype = sat_dtype(grid.num_buckets)
        shape = _padded_shape(num_disks, dims)
        scheme_name = getattr(scheme, "name", "") or ""
        rest_padded = tuple(d + 1 for d in dims[1:])

        journal = None
        if resume and not owns_temp:
            journal = cls._load_build_journal(
                path, dtype, shape, scheme_name
            )
        elif not resume:
            _remove_quietly(journal_file, carry_file, partial)

        rows = (
            int(journal["tile_rows"])
            if journal is not None
            else cls.tile_rows(grid, num_disks, byte_budget)
        )
        fd = None
        try:
            with trace(
                "sat.build_chunked",
                dims=list(dims),
                num_disks=int(num_disks),
                tile_rows=rows,
                resumed=journal is not None,
            ):
                if journal is not None:
                    first_start = int(journal["next_start"])
                    tile_starts = [
                        int(s) for s in journal["tile_starts"]
                    ]
                    tile_digests = [
                        str(d) for d in journal["tile_digests"]
                    ]
                    carry = journal["carry"]
                    staged = np.lib.format.open_memmap(
                        partial, mode="r"
                    )  # qa503: allow — resuming our own journaled
                    # partial; identity was validated against the
                    # journal, and the final table is re-manifested.
                    if (
                        staged.dtype != dtype
                        or tuple(staged.shape) != shape
                    ):
                        raise AllocationError(
                            f"{partial} does not match its build "
                            f"journal (dtype {staged.dtype}, shape "
                            f"{tuple(staged.shape)})"
                        )
                    global_registry().inc("sat.build_resumes")
                    _LOG.info(
                        "resuming chunked SAT build of %s at row %d/%d",
                        path,
                        first_start,
                        dims[0],
                    )
                else:
                    first_start = 0
                    tile_starts = []
                    tile_digests = []
                    carry = np.zeros(
                        (num_disks,) + rest_padded, dtype=dtype
                    )
                    staged = np.lib.format.open_memmap(
                        partial,
                        mode="w+",
                        dtype=dtype,
                        shape=shape,
                    )  # qa503: allow — creating the staged partial
                    # this build owns; nothing is being trusted.
                # The map only wrote (or read) the .npy header and sized
                # the file; tiles go in with positioned writes, so the
                # table never becomes resident in this process.
                data_offset = int(staged.offset)
                del staged
                fd = os.open(partial, os.O_WRONLY)
                row_bytes = math.prod(rest_padded) * dtype.itemsize
                plane_bytes = shape[1] * row_bytes
                for start in range(first_start, dims[0], rows):
                    stop = min(start + rows, dims[0])
                    with trace("sat.tile.compute"):
                        chunk = cls._tile_chunk(
                            scheme, grid, num_disks, start, stop, carry
                        )
                        # A copy, never a view: a view would keep the
                        # whole tile alive into the next one (M = 1).
                        carry = chunk[:, -1].copy()
                    # Tile data must be durable before the journal may
                    # claim it — fsync, then checkpoint, then journal.
                    with trace("sat.tile.write"):
                        for disk in range(num_disks):
                            # Disk ``disk``'s rows of this tile are one
                            # contiguous run of the file.
                            _pwrite_all(
                                fd,
                                chunk[disk],
                                data_offset
                                + disk * plane_bytes
                                + (start + 1) * row_bytes,
                            )
                        os.fsync(fd)
                    global_registry().inc(
                        "sat.tile_bytes_written", int(chunk.nbytes)
                    )
                    tile_starts.append(start)
                    with trace("sat.tile.digest"):
                        tile_digests.append(sha256_hex(chunk.data))
                    # Free this tile before the next one is allocated:
                    # the byte budget covers one tile's working set.
                    del chunk
                    cls._checkpoint_tile(
                        journal_file,
                        carry_file,
                        carry,
                        dtype,
                        shape,
                        scheme_name,
                        rows,
                        stop,
                        tile_starts,
                        tile_digests,
                    )
                    # Injection point: the fault strikes *between*
                    # tiles — the just-committed tile is durable, so an
                    # ``exit``-mode plan is exactly "SIGKILL at a tile
                    # boundary" and a later run must resume from here.
                    maybe_io_fault("sat.write", f"tile@{start}")
            # Close the staged file, then publish: rename the finished
            # partial into place, write the manifest, drop the build
            # sidecars.  A crash between these steps leaves a valid
            # table that is at worst missing its manifest.
            os.close(fd)
            fd = None
            os.replace(partial, path)
            SatManifest(
                dtype=dtype.str,
                shape=shape,
                num_disks=int(num_disks),
                tile_rows=rows,
                tile_starts=tile_starts,
                tile_digests=tile_digests,
                file_bytes=os.path.getsize(path),
                params={"scheme": scheme_name, "dims": list(dims)},
            ).write(path)
            _remove_quietly(journal_file, carry_file)
        except BaseException:
            if fd is not None:
                os.close(fd)
            if owns_temp:
                # Nobody holds this path: remove every artifact the
                # failed build created (the mkstemp placeholder, the
                # partial, and the build sidecars).
                _remove_quietly(path, partial, journal_file, carry_file)
            raise
        # Reopen read-only: every consumer sees the same immutable view
        # an open_mmap would.
        # Header-level verification only — the manifest was written
        # from the in-memory digests one rename ago.
        return cls.open_mmap(path, verify="header")

    @classmethod
    def _checkpoint_tile(
        cls,
        journal_file: str,
        carry_file: str,
        carry: np.ndarray,
        dtype: np.dtype,
        shape: Tuple[int, ...],
        scheme_name: str,
        tile_rows: int,
        next_start: int,
        tile_starts: List[int],
        tile_digests: List[str],
    ) -> None:
        """Durably record one completed tile (carry first, then journal).

        Both files are replaced atomically; the journal's carry digest
        binds the pair, so a crash between the two renames leaves a
        journal that simply fails validation and resumes one tile
        earlier.
        """
        tmp = f"{carry_file}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as handle:
                np.save(handle, carry)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, carry_file)
        except BaseException:
            _remove_quietly(tmp)
            raise
        atomic_write_json(
            journal_file,
            {
                "schema": MANIFEST_SCHEMA_VERSION,
                "kind": SAT_JOURNAL_KIND,
                "dtype": dtype.str,
                "shape": list(shape),
                "scheme": scheme_name,
                "tile_rows": int(tile_rows),
                "next_start": int(next_start),
                "tile_starts": list(tile_starts),
                "tile_digests": list(tile_digests),
                "carry_sha256": sha256_hex(carry.data),
            },
        )

    @classmethod
    def open_mmap(
        cls,
        path: Union[str, os.PathLike],
        verify: Optional[str] = None,
    ) -> "SummedAreaTable":
        """Reopen a spilled table zero-copy (read-only memory map).

        The ``.npy`` header carries shape and dtype; the disk count and
        grid extents are recovered from the padded shape, so the path is
        a complete handle.

        The table is checked against its sidecar manifest *before* it is
        mapped — ``verify`` overrides ``REPRO_VERIFY`` (default
        ``header``; see :func:`repro.core.integrity.verify_sat`) — and a
        corrupt artifact raises
        :class:`~repro.core.exceptions.IntegrityError` rather than ever
        being loaded.  Tables without a manifest (pre-integrity spills,
        hand-made fixtures) still open at ``header``, logged and counted
        as unverified.
        """
        path = os.fspath(path)
        maybe_io_fault("sat.read", path)
        verify_sat(path, verify)
        array = np.load(path, mmap_mode="r")  # qa503: allow — this IS
        # the integrity-verified open; verify_sat ran one line up.
        if array.ndim < 2:
            raise AllocationError(
                f"{path} does not hold a stacked SAT "
                f"(ndim {array.ndim} < 2)"
            )
        num_disks = int(array.shape[0])
        dims = tuple(int(d) - 1 for d in array.shape[1:])
        if any(d <= 0 for d in dims):
            raise AllocationError(
                f"{path} has non-padded spatial extents {array.shape[1:]}"
            )
        return cls(array, Grid(dims), num_disks, path=path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def dims(self) -> Tuple[int, ...]:
        """Grid extents (without padding)."""
        return self.grid.dims

    @property
    def ndim(self) -> int:
        return self.grid.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    @property
    def is_mmap(self) -> bool:
        """Whether the table is backed by a memory-mapped file."""
        return self.path is not None

    def nbytes(self) -> int:
        """Size of the table, in bytes (file size for mmap tables)."""
        return int(self.array.nbytes)

    def resident_nbytes(self) -> int:
        """Bytes guaranteed resident in RAM (0 for mmap-backed tables)."""
        if self.is_mmap:
            return 0
        extra = (
            self._disk_last.nbytes if self._disk_last is not None else 0
        )
        return int(self.array.nbytes) + int(extra)

    def disk_last(self) -> np.ndarray:
        """Disk-contiguous copy ``(d_1+1, ..., d_k+1, M)`` for native kernels.

        Each spatial corner's ``M`` per-disk counts become one contiguous
        (usually single-cache-line) vector — the layout the compiled
        backends vectorize over.  Built lazily, cached, and shared by
        every backend; only available for in-RAM tables (a transposed
        copy of a beyond-RAM table would defeat the point of spilling).

        Raises :class:`~repro.core.exceptions.LayoutError` for
        memory-mapped tables, naming the supported alternatives.
        """
        if self.is_mmap:
            raise LayoutError(
                "disk-last (disk-contiguous) layout is not available "
                "for memory-mapped SATs: this table is stored "
                "disk-first (one contiguous spatial plane per disk) "
                f"at {self.path!r}, and transposing it would "
                "materialize the whole beyond-RAM file in memory. "
                "Supported alternatives: the streamed file-order "
                "gather (SummedAreaTable.corner_counts, automatic for "
                "mapped tables) or the cnative streaming kernel "
                "(select the 'cnative' backend through the backend "
                "registry; batch queries on mapped tables dispatch to "
                "its stream_counts kernel)."
            )
        if self._disk_last is None:
            transposed = np.ascontiguousarray(
                np.moveaxis(self.array, 0, -1)
            )
            transposed.setflags(write=False)
            self._disk_last = transposed
        return self._disk_last

    # ------------------------------------------------------------------
    # Gathers
    # ------------------------------------------------------------------

    def spatial_element_strides(self) -> np.ndarray:
        """Row-major strides of the padded spatial box, in elements.

        Public because streaming backends (the ``cnative`` corner-gather
        kernel) linearize query corners into flat offsets with exactly
        these strides.
        """
        padded = self.array.shape[1:]
        strides = np.ones(len(padded), dtype=np.int64)
        for axis in range(len(padded) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * padded[axis + 1]
        return strides

    # Backwards-compatible private alias (pre-streaming-kernel name).
    _spatial_element_strides = spatial_element_strides

    def prefetch(self) -> bool:
        """Hint the kernel to read ahead on a mapped table (best effort).

        Issues ``madvise(MADV_WILLNEED)`` on the whole mapping so the
        page cache starts filling before the streamed gather touches it.
        Returns ``True`` when the hint was actually issued; in-RAM
        tables, closed tables, and platforms without ``madvise`` return
        ``False``.  Counted as ``backend.stream.prefetches``.
        """
        if not self.is_mmap or self.array is None:
            return False
        mmap_obj = getattr(self.array, "_mmap", None)
        if mmap_obj is None:
            return False
        try:
            mmap_obj.madvise(_mmap_module.MADV_WILLNEED)
        except (AttributeError, OSError, ValueError):
            # madvise may be missing (non-POSIX) or the mapping closed
            # under us; the hint is purely advisory either way.
            return False
        global_registry().inc("backend.stream.prefetches")
        return True

    def corner_counts(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Per-query per-disk counts ``(N, M)`` by 2^k-corner gather.

        ``lo``/``hi`` are clipped half-open bounds of shape ``(N, k)``
        (see ``ResponseTimeEngine``).  In-RAM tables use one fancy-index
        gather per corner; memory-mapped tables stream each corner's
        gather in ascending file order (sorted linear offsets) so page
        reads through the map stay sequential per disk plane.
        """
        num_queries, ndim = lo.shape
        if ndim != self.ndim:
            raise QueryError(
                f"{ndim}-d bounds do not match {self.ndim}-d SAT"
            )
        counts = np.zeros(
            (num_queries, self.num_disks), dtype=np.int64
        )
        if num_queries == 0:
            return counts
        if not self.is_mmap:
            for corner in range(1 << ndim):
                index: Tuple = (slice(None),)
                parity = 0
                for axis in range(ndim):
                    if (corner >> axis) & 1:
                        index += (lo[:, axis],)
                        parity ^= 1
                    else:
                        index += (hi[:, axis],)
                term = self.array[index]  # shape (M, N)
                if parity:
                    counts -= term.T
                else:
                    counts += term.T
            return counts
        self.prefetch()
        strides = self.spatial_element_strides()
        flat = self.array.reshape(self.num_disks, -1)
        for corner in range(1 << ndim):
            offsets = np.zeros(num_queries, dtype=np.int64)
            parity = 0
            for axis in range(ndim):
                if (corner >> axis) & 1:
                    offsets += lo[:, axis] * strides[axis]
                    parity ^= 1
                else:
                    offsets += hi[:, axis] * strides[axis]
            order = np.argsort(offsets, kind="stable")
            sorted_offsets = offsets[order]
            sign = -1 if parity else 1
            for disk in range(self.num_disks):
                values = flat[disk][sorted_offsets].astype(np.int64)
                counts[order, disk] += sign * values
        return counts

    def close(self) -> None:
        """Release a memory-mapped table's file mapping (idempotent).

        The numpy views become invalid after this; in-RAM tables are
        unaffected.  The backing file is *not* deleted — the path handle
        stays reopenable.
        """
        if self.is_mmap and self.array is not None:
            mmap_obj = getattr(self.array, "_mmap", None)
            self.array = None  # type: ignore[assignment]
            if mmap_obj is not None:
                mmap_obj.close()

