"""The asyncio declustering daemon: preload once, serve forever.

Life of the server:

1. **Startup** — :func:`repro.core.shm.reap_stale_server_segments`
   collects orphans a crashed predecessor left behind, then a
   ``server_owned`` :class:`~repro.core.shm.SharedAllocationArena` is
   created (segment names carry this pid) and every configured
   ``(scheme, grid, M)`` spec is materialized **once** through
   :func:`~repro.core.cache.global_cache` — which simultaneously
   publishes the tables over the broker for the worker fleet to attach
   zero-copy.
2. **Serving** — a length-prefixed binary protocol
   (:mod:`repro.serve.protocol`) over a Unix socket or TCP.  Four
   request types: ``disk_of`` (answered inline off the resident table),
   ``batch_response_times`` (shipped to the worker fleet, or a
   thread-pool executor when ``workers=0``), ``degraded_plan`` (fault
   scenario → replication plan, computed on the executor), ``stats``.
3. **Admission control** — at most ``max_inflight`` batch requests may
   be in flight; excess batches are *shed* to the scalar per-query path
   computed inline (``serve.shed``).  Shedding trades batch-kernel
   throughput for bounded queueing — answers stay byte-identical
   because scalar and batch paths are certified equal (QA422).
4. **Drain** — SIGTERM/SIGINT stops accepting, lets in-flight requests
   complete (bounded by ``drain_timeout``), stops the fleet, unlinks
   every shared segment through the arena ledger (with the prefix-sweep
   fallback) and the unix socket, and writes the metrics export if
   configured.

Observability: every request increments ``serve.requests``, records a
``serve.latency.<type>.seconds`` histogram observation, and (when
tracing is enabled) emits a span for its synchronous section — spans
never cross an ``await``, keeping the tracer's nesting stack sound
under connection interleaving.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cache import global_cache
from repro.core.exceptions import (
    DeclusteringError,
    ProtocolError,
    ServeError,
)
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry
from repro.obs.trace import trace, trace_event
from repro.serve import protocol
from repro.serve.workers import WorkerFleet, compute_batch_response_times

_LOG = get_logger("repro.serve.server")

__all__ = [
    "DeclusterServer",
    "SchemeSpec",
    "ServeConfig",
    "parse_spec",
]

#: Default bound on concurrently in-flight batch requests.
DEFAULT_MAX_INFLIGHT = 8

#: Default seconds granted to in-flight requests at drain.
DEFAULT_DRAIN_TIMEOUT = 10.0


@dataclass(frozen=True)
class SchemeSpec:
    """One preloaded ``(scheme, grid, M)`` triple."""

    scheme: str
    dims: Tuple[int, ...]
    num_disks: int

    @property
    def key(self) -> Tuple[str, Tuple[int, ...], int]:
        return (self.scheme, self.dims, self.num_disks)

    def render(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        return f"{self.scheme}:{dims}:{self.num_disks}"


def parse_spec(text: str) -> SchemeSpec:
    """Parse ``scheme:DxD[xD...]:M`` (e.g. ``ecc:16x16:8``)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ServeError(
            f"bad spec {text!r}: expected scheme:GRID:M "
            "(e.g. ecc:16x16:8)"
        )
    scheme, grid_text, disks_text = parts
    try:
        dims = tuple(int(d) for d in grid_text.lower().split("x"))
        num_disks = int(disks_text)
    except ValueError:
        raise ServeError(
            f"bad spec {text!r}: grid must be like 16x16 and M an "
            "integer"
        )
    if not scheme or not dims or any(d <= 0 for d in dims):
        raise ServeError(f"bad spec {text!r}")
    if num_disks <= 0:
        raise ServeError(f"bad spec {text!r}: M must be positive")
    return SchemeSpec(scheme=scheme, dims=dims, num_disks=num_disks)


@dataclass
class ServeConfig:
    """Everything the daemon needs to start."""

    specs: List[SchemeSpec]
    unix_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    workers: int = 0
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    metrics_out: Optional[str] = None
    backend: Optional[str] = None
    #: Skip the shared-memory arena (workers=0 single-process setups
    #: and tests that must not touch /dev/shm).
    use_shm: bool = True

    def __post_init__(self) -> None:
        if not self.specs:
            raise ServeError("serve needs at least one --spec")
        if self.unix_path is None and self.host is None:
            raise ServeError("serve needs --unix PATH or --host/--port")
        if self.max_inflight <= 0:
            raise ServeError(
                f"max_inflight must be positive: {self.max_inflight}"
            )


_REQUEST_NAMES = {
    protocol.REQUEST_PING: "ping",
    protocol.REQUEST_DISK_OF: "disk_of",
    protocol.REQUEST_BATCH_RT: "batch_response_times",
    protocol.REQUEST_DEGRADED_PLAN: "degraded_plan",
    protocol.REQUEST_STATS: "stats",
}


class DeclusterServer:
    """One daemon instance: preloaded engines, fleet, asyncio server."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self._engines: Dict[Tuple[str, Tuple[int, ...], int], Any] = {}
        self._allocations: Dict[
            Tuple[str, Tuple[int, ...], int], Any
        ] = {}
        # Chained replications of preloaded specs, by (spec key, offset
        # mod M): at most M entries per spec, built on first request.
        self._replications: Dict[
            Tuple[Tuple[str, Tuple[int, ...], int], int], Any
        ] = {}
        self._replications_lock = threading.Lock()
        self._arena = None
        self._fleet: Optional[WorkerFleet] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._inflight_batches = 0
        self._busy_requests = 0
        self._draining = False
        self._shutdown_event: Optional[asyncio.Event] = None
        self._idle_event: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._started = time.monotonic()
        self.bound_address: Optional[Tuple[str, int]] = None

    # -- startup ------------------------------------------------------

    def _preload(self) -> None:
        """Materialize every spec once; publish over the broker."""
        from repro.core.shm import (
            SharedAllocationArena,
            reap_stale_server_segments,
        )

        cache = global_cache()
        if self.config.use_shm and self.config.workers > 0:
            # Collect orphans of crashed predecessors before creating
            # segments of our own, so a restart loop cannot accrete.
            reap_stale_server_segments()
            self._arena = SharedAllocationArena.try_create(
                server_owned=True
            )
            if self._arena is not None:
                cache.set_broker(self._arena.broker)
        for spec in self.config.specs:
            grid = Grid(spec.dims)
            with trace("serve.preload", spec=spec.render()):
                allocation = cache.allocation(
                    spec.scheme, grid, spec.num_disks
                )
                engine = cache.engine(spec.scheme, grid, spec.num_disks)
            self._allocations[spec.key] = allocation
            self._engines[spec.key] = engine
            _LOG.info(
                "preloaded %s (%d buckets, SAT %d bytes)",
                spec.render(), grid.num_buckets, engine.nbytes(),
            )

    async def start(self) -> None:
        """Preload, start the fleet, and bind the listening socket."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._preload()
        if self.config.workers > 0:
            broker = (
                self._arena.broker if self._arena is not None else None
            )
            self._fleet = WorkerFleet(
                count=self.config.workers,
                broker=broker,
                backend=self.config.backend,
                resolve=self._resolve_from_pump,
            )
            self._fleet.start()
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=max(2, (os.cpu_count() or 1)),
                thread_name_prefix="serve-compute",
            )
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
            )
            sock = self._server.sockets[0]
            self.bound_address = sock.getsockname()[:2]
        _LOG.info(
            "serving %d spec(s) on %s (workers=%d, max_inflight=%d)",
            len(self.config.specs),
            self.config.unix_path or self.bound_address,
            self.config.workers,
            self.config.max_inflight,
        )

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (CLI path; needs main thread)."""
        import signal

        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent, loop-thread only)."""
        if self._draining:
            return
        self._draining = True
        _LOG.info(
            "drain requested: %d request(s) in flight",
            self._busy_requests,
        )
        if self._server is not None:
            self._server.close()
        assert self._shutdown_event is not None
        self._shutdown_event.set()

    async def serve_until_shutdown(self) -> None:
        """Run until a drain is requested, then tear down in order."""
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        assert self._server is not None
        await self._server.wait_closed()
        # Let in-flight requests finish (bounded), then drop the
        # connections still open.
        assert self._idle_event is not None
        try:
            await asyncio.wait_for(
                self._idle_event.wait(),
                timeout=self.config.drain_timeout,
            )
        except asyncio.TimeoutError:
            _LOG.warning(
                "drain timeout: %d request(s) abandoned",
                self._busy_requests,
            )
            global_registry().inc("serve.drain_timeouts")
        for writer in list(self._connections):
            writer.close()
        self.teardown()

    def teardown(self) -> None:
        """Stop the fleet, unlink shm and the unix socket, export metrics.

        Idempotent.  The kernel never removes a bound unix socket path
        by itself, so the closed listener's inode is unlinked here.
        """
        if self._server is not None:
            self._server.close()
            self._server = None
            if self.config.unix_path is not None:
                try:
                    os.unlink(self.config.unix_path)
                except FileNotFoundError:
                    pass
        if self._fleet is not None:
            self._fleet.stop()
            self._fleet = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._arena is not None:
            global_cache().set_broker(None)
            self._arena.close()
            self._arena = None
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()
        if self.config.metrics_out:
            registry = global_registry()
            global_cache().publish_metrics(registry)
            registry.write_json(self.config.metrics_out)
            _LOG.info(
                "metrics written to %s", self.config.metrics_out
            )

    # -- request plumbing ---------------------------------------------

    def _resolve_from_pump(
        self, task_id: int, ok: bool, payload: Any
    ) -> None:
        """Fleet result-pump callback (runs on the pump thread)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(
                self._complete_task, task_id, ok, payload
            )
        except RuntimeError:
            # Loop shut down between the check and the call: the
            # pending future was already cancelled by teardown.
            pass

    def _complete_task(self, task_id: int, ok: bool, payload: Any) -> None:
        future = self._pending.pop(task_id, None)
        if future is not None and not future.done():
            future.set_result((ok, payload))

    def _enter_request(self) -> None:
        self._busy_requests += 1
        assert self._idle_event is not None
        self._idle_event.clear()

    def _exit_request(self) -> None:
        self._busy_requests -= 1
        if self._busy_requests == 0:
            assert self._idle_event is not None
            self._idle_event.set()

    async def _handle_connection(self, reader, writer) -> None:
        registry = global_registry()
        registry.inc("serve.connections")
        self._connections.add(writer)
        try:
            while not self._draining:
                try:
                    frame = await protocol.read_frame(reader)
                except ProtocolError as exc:
                    # Answer what we can, then close: after a framing
                    # violation the stream offsets are untrustworthy.
                    registry.inc("serve.protocol_errors")
                    try:
                        writer.write(
                            protocol.encode_error(
                                "ProtocolError", str(exc)
                            )
                        )
                        await writer.drain()
                    except (ConnectionError, OSError) as write_exc:
                        _LOG.debug(
                            "error response not delivered: %r",
                            write_exc,
                        )
                    return
                if frame is None:
                    return
                kind, header, body = frame
                self._enter_request()
                try:
                    response = await self._dispatch(kind, header, body)
                finally:
                    self._exit_request()
                try:
                    writer.write(response)
                    await writer.drain()
                except (ConnectionError, OSError) as exc:
                    _LOG.debug("response write failed: %r", exc)
                    return
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError) as exc:
                _LOG.debug("connection close: %r", exc)

    async def _dispatch(
        self, kind: int, header: Dict[str, Any], body: bytes
    ) -> bytes:
        registry = global_registry()
        name = _REQUEST_NAMES.get(kind)
        registry.inc("serve.requests")
        started = time.perf_counter()
        try:
            if name is None:
                registry.inc("serve.errors")
                return protocol.encode_error(
                    "ProtocolError",
                    f"unknown request kind 0x{kind:02x}",
                )
            handler = getattr(self, f"_req_{name}")
            response = await handler(header, body)
            return response
        except ProtocolError as exc:
            registry.inc("serve.errors")
            return protocol.encode_error("ProtocolError", str(exc))
        except DeclusteringError as exc:
            registry.inc("serve.errors")
            return protocol.encode_error(type(exc).__name__, str(exc))
        finally:
            latency = time.perf_counter() - started
            if name is not None:
                registry.observe(
                    f"serve.latency.{name}.seconds", latency
                )
                trace_event(
                    "serve.request", request=name, latency_s=latency
                )

    # -- request handlers ---------------------------------------------

    def _spec_engine(self, header: Dict[str, Any]):
        key = self._spec_key(header)
        engine = self._engines.get(key)
        if engine is None:
            raise ServeError(
                f"no preloaded spec matches {key[0]}:"
                f"{'x'.join(str(d) for d in key[1])}:{key[2]} — "
                "start the server with a --spec for it"
            )
        return key, engine

    @staticmethod
    def _spec_key(header: Dict[str, Any]):
        try:
            scheme = str(header["scheme"])
            dims = tuple(int(d) for d in header["dims"])
            num_disks = int(header["num_disks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"header missing/invalid scheme/dims/num_disks: {exc}"
            )
        return (scheme, dims, num_disks)

    async def _req_ping(
        self, header: Dict[str, Any], body: bytes
    ) -> bytes:
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {"version": protocol.PROTOCOL_VERSION, "pid": os.getpid()},
        )

    async def _req_disk_of(
        self, header: Dict[str, Any], body: bytes
    ) -> bytes:
        key, _engine = self._spec_engine(header)
        allocation = self._allocations[key]
        dims = key[1]
        count = len(body) // (8 * len(dims))
        with trace("serve.disk_of", count=count):
            coords = protocol.array_from_bytes(
                body, (count, len(dims))
            )
            dims_arr = np.asarray(dims, dtype=np.int64)
            if coords.size and (
                (coords < 0).any() or (coords >= dims_arr).any()
            ):
                raise ProtocolError(
                    "disk_of coordinates outside the grid"
                )
            disks = allocation.table[
                tuple(coords.T)
            ].astype(np.int64)
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {"count": int(count)},
            protocol.array_to_bytes(disks),
        )

    def _decode_bounds(
        self, header: Dict[str, Any], body: bytes, dims: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Split a batch body into validated inclusive (lower, upper)."""
        try:
            count = int(header["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"header missing/invalid count: {exc}")
        ndim = len(dims)
        half = count * ndim * 8
        if len(body) != 2 * half:
            raise ProtocolError(
                f"batch body of {len(body)} bytes does not hold two "
                f"int64 ({count}, {ndim}) arrays"
            )
        lower = protocol.array_from_bytes(body[:half], (count, ndim))
        upper = protocol.array_from_bytes(body[half:], (count, ndim))
        if count and ((lower < 0).any() or (lower > upper).any()):
            raise ProtocolError(
                "batch bounds must satisfy 0 <= lower <= upper"
            )
        return lower, upper

    @staticmethod
    def _clip_bounds(
        lower: np.ndarray, upper: np.ndarray, dims: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Mirrors QueryBatch.from_queries exactly, so wire-decoded
        # bounds produce the same clipped arrays — and therefore
        # byte-identical response times — as the in-process path.
        dims_arr = np.asarray(dims, dtype=np.int64)
        lo = np.minimum(lower, dims_arr)
        hi = np.maximum(np.minimum(upper + 1, dims_arr), lo)
        return lo, hi

    async def _req_batch_response_times(
        self, header: Dict[str, Any], body: bytes
    ) -> bytes:
        key, engine = self._spec_engine(header)
        scheme, dims, num_disks = key
        lower, upper = self._decode_bounds(header, body, dims)
        if self._inflight_batches >= self.config.max_inflight:
            # Overloaded: shed to the scalar per-query path, inline.
            # Slower per query but unqueued — and byte-identical to the
            # batch kernel by the QA422 equivalence contract.
            times = self._shed_scalar(key, lower, upper)
            return protocol.encode_frame(
                protocol.RESPONSE_OK,
                {"count": int(times.shape[0]), "shed": True},
                protocol.array_to_bytes(times),
            )
        lo, hi = self._clip_bounds(lower, upper, dims)
        self._inflight_batches += 1
        try:
            if self._fleet is not None:
                times = await self._batch_via_fleet(
                    scheme, dims, num_disks, lo, hi
                )
            else:
                assert self._executor is not None and self._loop
                times = await self._loop.run_in_executor(
                    self._executor,
                    engine.batch_response_times,
                    QueryBatch(lo, hi, dims),
                )
        finally:
            self._inflight_batches -= 1
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {"count": int(times.shape[0]), "shed": False},
            protocol.array_to_bytes(times),
        )

    def _shed_scalar(
        self,
        key: Tuple[str, Tuple[int, ...], int],
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> np.ndarray:
        from repro.core.cost import response_time

        global_registry().inc("serve.shed")
        allocation = self._allocations[key]
        with trace("serve.shed_scalar", count=int(lower.shape[0])):
            times = np.empty(lower.shape[0], dtype=np.int64)
            for index in range(lower.shape[0]):
                query = RangeQuery(
                    tuple(int(c) for c in lower[index]),
                    tuple(int(c) for c in upper[index]),
                )
                times[index] = response_time(allocation, query)
        return times

    async def _batch_via_fleet(
        self,
        scheme: str,
        dims: Tuple[int, ...],
        num_disks: int,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> np.ndarray:
        assert self._fleet is not None and self._loop is not None
        future = self._loop.create_future()
        task_id = self._fleet.submit(scheme, dims, num_disks, lo, hi)
        self._pending[task_id] = future
        ok, payload = await future
        if not ok:
            raise ServeError(f"worker failed the batch: {payload}")
        return np.frombuffer(payload, dtype=np.int64)

    async def _req_degraded_plan(
        self, header: Dict[str, Any], body: bytes
    ) -> bytes:
        key, _engine = self._spec_engine(header)
        allocation = self._allocations[key]
        try:
            lower = tuple(int(c) for c in header["lower"])
            upper = tuple(int(c) for c in header["upper"])
            failed = tuple(int(d) for d in header.get("failed", ()))
            method = str(header.get("method", "flow"))
            offset = int(header.get("offset", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"degraded_plan header invalid: {exc}"
            )

        def _plan():
            from repro.faults.models import FailStop, FaultScenario
            from repro.replication.planner import plan_batch

            replicated = self._replication(key, allocation, offset)
            scenario = None
            if failed:
                scenario = FaultScenario(
                    key[2], [FailStop(failed)]
                )
            with trace(
                "serve.degraded_plan",
                method=method,
                failed=len(failed),
            ):
                return plan_batch(
                    replicated,
                    [RangeQuery(lower, upper)],
                    method=method,
                    scenario=scenario,
                )

        if self._executor is not None and self._loop is not None:
            plans = await self._loop.run_in_executor(
                self._executor, _plan
            )
        else:
            plans = _plan()
        loads = plans.loads[0]
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {
                "response_time": int(loads.max()),
                "completion_time": float(plans.completion_times[0]),
                "num_lost": int(plans.num_lost[0]),
                "loads": [int(load) for load in loads],
            },
        )

    def _replication(
        self,
        key: Tuple[str, Tuple[int, ...], int],
        allocation: Any,
        offset: int,
    ) -> Any:
        """The spec's chained replication at ``offset``, built once.

        A rejected offset raises and is never cached.
        """
        from repro.replication.allocation import chained_replication

        slot = (key, offset % key[2])
        with self._replications_lock:
            replicated = self._replications.get(slot)
            if replicated is None:
                replicated = chained_replication(allocation, offset=offset)
                self._replications[slot] = replicated
        return replicated

    async def _req_stats(
        self, header: Dict[str, Any], body: bytes
    ) -> bytes:
        registry = global_registry()
        counters = registry.aggregate_counters()
        return protocol.encode_frame(
            protocol.RESPONSE_OK,
            {
                "version": protocol.PROTOCOL_VERSION,
                "pid": os.getpid(),
                "uptime_s": time.monotonic() - self._started,
                "draining": self._draining,
                "inflight": self._busy_requests,
                "max_inflight": self.config.max_inflight,
                "workers": (
                    self._fleet.pids() if self._fleet is not None else []
                ),
                "specs": [
                    spec.render() for spec in self.config.specs
                ],
                "counters": {
                    name: int(value)
                    for name, value in sorted(counters.items())
                    if name.startswith(("serve.", "shm.", "cache."))
                },
            },
        )


async def run_server(config: ServeConfig) -> None:
    """CLI entry: start, install signal handlers, serve, drain."""
    server = DeclusterServer(config)
    await server.start()
    server.install_signal_handlers()
    # Readiness marker for supervisors tailing stderr: printed only
    # after the socket is bound and every spec is preloaded.
    print(
        f"serve: ready pid={os.getpid()} "
        f"addr={config.unix_path or server.bound_address}",
        flush=True,
    )
    await server.serve_until_shutdown()
