"""Run the full experiment suite (all paper figures/tables) in one call.

``run_all`` executes E1-E5, EPM, X1, X3-X5, X7 and the THM existence
search with the default (paper-scale) parameters and returns every result
keyed by experiment id; ``render_all`` turns that into the textual report
EXPERIMENTS.md is built from.  ``quick=True`` shrinks the sweeps for
smoke tests and CI.  (X6, the growth experiment, returns a different
result type and runs separately via ``repro.experiments.exp_growth`` —
``scripts/generate_report.py`` appends it to the full report.)

``run_all(workers=N)`` fans the independent experiment configurations out
over a spawn-context process pool.  Each worker imports the package
fresh (so the allocation cache is rebuilt per process — spawn-safe by
construction) and every experiment is deterministic, so the parallel run
returns results identical to the serial one, assembled in the same
canonical key order regardless of completion order.  Workers do not
rebuild allocations redundantly: the pool initializer installs a
:class:`~repro.core.shm.SharedAllocationBroker` into each worker's
global allocation cache, so the first worker to materialize a
``(scheme, grid, M)`` table publishes it to a
``multiprocessing.shared_memory`` segment and every other worker
attaches it zero-copy instead of re-deriving (or re-pickling) it.  The
parent owns teardown: every segment is unlinked when the run finishes,
succeeds, fails, or is retried — workers crashing mid-publish included.

The runner is also **self-healing**: a worker that crashes, dies without
a traceback, or hangs past ``timeout`` is retried (``retries`` attempts
per experiment, exponential ``backoff`` between rounds, a fresh pool each
round), and with a checkpoint every completed result is persisted
immediately so ``run_all(..., resume=True)`` — CLI:
``experiment all --resume`` — skips finished experiments after a crash or
kill.  Serial, parallel, and resumed runs all produce byte-identical
reports.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.exceptions import RunnerError
from repro.experiments.checkpoint import RunCheckpoint
from repro.experiments.exp_num_attributes import deviation_table
from repro.experiments.reporting import render_table
from repro.faults.injection import maybe_inject_runner_fault
from repro.obs.log import get_logger
from repro.obs.metrics import global_registry
from repro.obs.trace import global_tracer, trace, trace_event
from repro.theory.conditions import render_table as render_conditions
from repro.theory.search import SearchResult

_LOG = get_logger("repro.experiments.runner")

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "EXPERIMENT_KEYS",
    "render_all",
    "render_thm",
    "run_all",
    "run_experiment",
]

#: Independent experiment jobs, in the canonical execution/report order.
#: ``E4`` and ``X7`` each expand to a result pair (``E4a``/``E4b``,
#: ``X7a``/``X7b``).
EXPERIMENT_KEYS = (
    "E1", "E2", "E3", "E4", "E5", "X1", "EPM", "X3", "X4", "X5", "X7",
    "THM",
)

#: Jobs whose result is a pair, and the report keys the pair expands to.
_PAIR_KEYS: Dict[str, Tuple[str, str]] = {
    "E4": ("E4a", "E4b"),
    "X7": ("X7a", "X7b"),
}

#: How many times a failing experiment is retried before the run aborts.
DEFAULT_RETRIES = 2

#: Base delay (seconds) between retry rounds; doubles per round.
DEFAULT_BACKOFF = 0.5

#: Quick-mode keyword arguments per experiment (paper-scale runs pass none).
_QUICK_KWARGS: Dict[str, Dict[str, object]] = {
    "E1": {
        "grid_dims": (16, 16),
        "num_disks": 8,
        "areas": (1, 4, 16, 64, 256),
    },
    "E2": {"grid_dims": (16, 16), "num_disks": 8, "area": 16},
    "E3": {
        "num_disks": 8,
        "grid_2d": (16, 16),
        "grid_3d": (8, 8, 8),
        "sides_2d": (2, 4, 8, 16),
        "sides_3d": (2, 4, 8),
    },
    "E4": {
        "grid_dims": (16, 16),
        "disk_counts": (2, 4, 8, 16),
        "large_shape": (8, 8),
    },
    "E5": {"num_disks": 8, "grid_sides": (8, 16, 32), "shape": (2, 2)},
    "X1": {"grid_dims": (16, 16), "disk_counts": (5, 7, 8)},
    "EPM": {"grid_dims": (8, 8, 8), "num_disks": 8},
    "X3": {"grid_dims": (16, 16), "disk_counts": (4, 8)},
    "X4": {
        "grid_dims": (8, 8),
        "num_disks": 4,
        "sides": (2, 3),
        "max_placements": 16,
    },
    "X5": {
        "grid_dims": (16, 16),
        "num_disks": 4,
        "num_queries": 100,
        "rates_per_second": (10.0, 80.0),
    },
    "X7": {
        "grid_dims": (8, 8),
        "num_disks": 4,
        "side": 2,
        "failure_counts": (0, 1, 2),
        "num_scenarios": 2,
        "max_placements": 12,
    },
    "THM": {"max_disks": 6},
}

_FULL_KWARGS: Dict[str, Dict[str, object]] = {
    "THM": {"max_disks": 7},
}


def _job_callable(key: str):
    # Imports stay inside the worker: under the spawn start method each
    # process resolves the experiment module fresh at execution time.
    from repro.experiments import (
        exp_beyond_paper,
        exp_curve_ablation,
        exp_db_size,
        exp_degraded,
        exp_load_sweep,
        exp_num_attributes,
        exp_num_disks,
        exp_partial_match,
        exp_query_shape,
        exp_query_size,
        exp_replication,
    )
    from repro.theory.search import impossibility_frontier

    jobs = {
        "E1": exp_query_size.run,
        "E2": exp_query_shape.run,
        "E3": exp_num_attributes.run,
        "E4": exp_num_disks.run,
        "E5": exp_db_size.run,
        "X1": exp_curve_ablation.run,
        "EPM": exp_partial_match.run,
        "X3": exp_beyond_paper.run,
        "X4": exp_replication.run,
        "X5": exp_load_sweep.run,
        "X7": exp_degraded.run,
        "THM": impossibility_frontier,
    }
    return jobs[key]


def run_experiment(key: str, quick: bool = False) -> object:
    """Run one experiment job by key (pair jobs return their result pair).

    This is the unit of work the parallel runner ships to worker
    processes; it must stay a module-level function so it pickles under
    the spawn start method.  Before doing real work it consults the
    ``REPRO_RUNNER_FAULTS`` chaos plan (see
    :mod:`repro.faults.injection`) so the self-healing paths can be
    exercised end to end.
    """
    if key not in EXPERIMENT_KEYS:
        raise KeyError(
            f"unknown experiment key {key!r}; known: {EXPERIMENT_KEYS}"
        )
    maybe_inject_runner_fault(key)
    kwargs = (_QUICK_KWARGS if quick else _FULL_KWARGS).get(key, {})
    with trace("runner.experiment", key=key, quick=quick):
        start = time.perf_counter()
        result = _job_callable(key)(**kwargs)
        global_registry().observe(
            f"experiment.{key}.seconds", time.perf_counter() - start
        )
        return result


def _assemble(raw: Dict[str, object]) -> Dict[str, object]:
    """Flatten job outputs into the canonical result dict (fixed order)."""
    results: Dict[str, object] = {}
    for key in EXPERIMENT_KEYS:
        if key in _PAIR_KEYS:
            first, second = _PAIR_KEYS[key]
            results[first], results[second] = raw[key]  # type: ignore[misc]
        else:
            results[key] = raw[key]
    return results


def _retry_round_delay(backoff: float, round_index: int) -> float:
    """Exponential backoff: ``backoff * 2**round`` seconds, round >= 0."""
    return backoff * (2.0 ** round_index)


def _run_serial(
    pending: List[str],
    quick: bool,
    retries: int,
    backoff: float,
    checkpoint: Optional[RunCheckpoint],
) -> Dict[str, object]:
    """In-process execution with bounded per-experiment retries."""
    raw: Dict[str, object] = {}
    for key in pending:
        attempt = 0
        while True:
            try:
                result = run_experiment(key, quick)
            except Exception as exc:  # qa502: allow — every failure is retried, then re-raised as RunnerError
                attempt += 1
                if attempt > retries:
                    raise RunnerError(
                        f"experiment {key} failed after {attempt} "
                        f"attempt(s): {exc!r}"
                    ) from exc
                delay = _retry_round_delay(backoff, attempt - 1)
                _record_retry(key, attempt, exc, delay)
                time.sleep(delay)
            else:
                raw[key] = result
                if checkpoint is not None:
                    checkpoint.record(key, result)
                break
    return raw


def _record_retry(
    key: str, attempt: int, exc: BaseException, delay: float
) -> None:
    """Make one retry visible: log line, counter, trace event."""
    _LOG.warning(
        "experiment %s attempt %d failed (%r); retrying in %.2fs",
        key, attempt, exc, delay,
    )
    global_registry().inc("runner.retries")
    trace_event(
        "runner.retry",
        key=key, attempt=attempt, delay_s=delay, error=repr(exc),
    )


def _record_timeout(key: str, timeout: Optional[float]) -> None:
    """Make one hung-worker timeout visible alongside the retry."""
    _LOG.warning(
        "experiment %s exceeded its %.1fs timeout; worker counted as hung",
        key, timeout or 0.0,
    )
    global_registry().inc("runner.timeouts")
    trace_event("runner.timeout", key=key, timeout_s=timeout)


def _run_experiment_job(
    key: str, quick: bool, collect_spans: bool
) -> Tuple[object, Dict[str, object]]:
    """Pool unit of work: run one experiment and ship its obs payload.

    Runs in a spawn worker, so it reads the *worker's* global tracer,
    metrics registry, and allocation cache.  The payload carries the
    worker's spans (when the parent asked for them) plus a cumulative
    metrics snapshot including the worker's cache counters — the channel
    through which parallel runs report aggregate observability numbers
    instead of parent-only ones.  Results stay untouched: the parent
    strips the payload before assembling/checkpointing, so parallel runs
    remain byte-identical to serial ones.
    """
    import os

    from repro.core.backends import active_backend_name
    from repro.core.cache import global_cache

    tracer = global_tracer()
    if collect_spans:
        tracer.enable()
    result = run_experiment(key, quick)
    registry = global_registry()
    global_cache().publish_metrics(registry)
    return result, {
        "pid": os.getpid(),
        # The kernel backend this worker actually resolved — the parent
        # asserts it matches its own (see the runner tests): a worker
        # silently falling back to a different backend would make
        # "ran with --backend X" a lie.
        "backend": active_backend_name(),
        "spans": tracer.drain() if collect_spans else [],
        "metrics": registry.payload(),
    }


def _ingest_job_payload(payload: Dict[str, object]) -> None:
    """Merge one worker payload into the parent's tracer and registry."""
    from repro.core.backends import active_backend_name

    worker_backend = payload.get("backend")
    if (
        worker_backend is not None
        and worker_backend != active_backend_name()
    ):
        # Should be unreachable — the initializer validates the backend
        # at worker startup — but a divergent worker must not pass
        # silently: its numbers would be attributed to the wrong kernel.
        global_registry().inc("runner.backend_mismatches")
        trace_event(
            "runner.backend_mismatch",
            worker=str(worker_backend),
            parent=active_backend_name(),
        )
    tracer = global_tracer()
    if tracer.enabled:
        for span in payload.get("spans", []):  # type: ignore[union-attr]
            tracer.record(span)
    global_registry().ingest(payload["metrics"])  # type: ignore[arg-type]


def _init_worker_broker(
    broker,
    backend: Optional[str] = None,
    sat_budget: Optional[int] = None,
    verify: Optional[str] = None,
) -> None:
    """Pool initializer: broker, backend, SAT budget, verify level.

    Runs in the worker before any experiment; module-level so it pickles
    under spawn.  Workers hold the pristine default scheme registry, so
    the broker's name-keyed registry is unambiguous here.

    ``backend`` is the parent's resolved kernel-backend name: it is
    written to ``REPRO_BACKEND`` *and* validated eagerly via
    :func:`repro.core.backends.set_backend`, so a worker that cannot run
    the requested backend (no C compiler) fails at pool startup
    instead of silently computing on a different implementation than the
    parent.  ``sat_budget`` propagates the chunked-SAT working-memory
    budget the same way, and ``verify`` the parent's resolved
    artifact-verification depth (``REPRO_VERIFY``) — workers must check
    spilled tables and cached kernels exactly as strictly as the parent
    would.
    """
    import os

    from repro.core.cache import global_cache

    if broker is not None:
        global_cache().set_broker(broker)
    if backend is not None:
        from repro.core.backends import BACKEND_ENV, set_backend

        os.environ[BACKEND_ENV] = backend
        set_backend(backend)
    if sat_budget is not None:
        from repro.core.sat import BYTE_BUDGET_ENV

        os.environ[BYTE_BUDGET_ENV] = str(int(sat_budget))
    if verify is not None:
        from repro.core.integrity import VERIFY_ENV

        os.environ[VERIFY_ENV] = verify


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when workers are hung or already dead.

    ``shutdown`` alone would join a hung worker forever, so any surviving
    worker processes are killed first; the private ``_processes`` mapping
    is the only handle the executor exposes, hence the defensive
    ``getattr``.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        if process.is_alive():
            process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _run_parallel(
    pending: List[str],
    quick: bool,
    workers: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    checkpoint: Optional[RunCheckpoint],
) -> Dict[str, object]:
    """Pool execution surviving worker crashes, hard exits, and hangs.

    Each round runs every pending experiment in a fresh spawn pool; keys
    whose future raises (worker exception), breaks the pool (hard exit),
    or exceeds ``timeout`` are collected and retried next round after an
    exponential backoff, up to ``retries`` extra attempts per key.
    """
    from repro.core.shm import SharedAllocationArena

    raw: Dict[str, object] = {}
    attempts: Dict[str, int] = {key: 0 for key in pending}
    failures: Dict[str, BaseException] = {}
    round_index = 0
    # One arena for the whole run (all retry rounds): allocations built
    # in a crashed round stay attachable in the next, and the single
    # ``finally`` below guarantees every segment is unlinked exactly once.
    arena = SharedAllocationArena.try_create()
    # The initializer always runs — even without an arena the workers
    # must inherit the parent's backend choice and SAT byte budget.
    from repro.core.backends import active_backend_name
    from repro.core.integrity import verify_level
    from repro.core.sat import sat_byte_budget

    initargs = {
        "initializer": _init_worker_broker,
        "initargs": (
            arena.broker if arena is not None else None,
            active_backend_name(),
            sat_byte_budget(),
            verify_level(),
        ),
    }
    try:
        while pending:
            context = multiprocessing.get_context("spawn")
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=context, **initargs
            )
            failed: List[str] = []
            collect_spans = global_tracer().enabled
            try:
                futures = {
                    key: pool.submit(
                        _run_experiment_job, key, quick, collect_spans
                    )
                    for key in pending
                }
                for key in pending:
                    try:
                        result, payload = futures[key].result(
                            timeout=timeout
                        )
                    except FutureTimeoutError as exc:
                        _record_timeout(key, timeout)
                        failures[key] = exc
                        failed.append(key)
                    except Exception as exc:  # qa502: allow — recorded and retried; exhausted keys raise below
                        # Worker exception or BrokenProcessPool after a
                        # hard worker death; both are retryable.
                        failures[key] = exc
                        failed.append(key)
                    else:
                        _ingest_job_payload(payload)
                        raw[key] = result
                        if checkpoint is not None:
                            checkpoint.record(key, result)
            finally:
                _terminate_pool(pool)
            for key in failed:
                attempts[key] += 1
            exhausted = [key for key in failed if attempts[key] > retries]
            if exhausted:
                details = "; ".join(
                    f"{key}: {failures[key]!r}" for key in exhausted
                )
                raise RunnerError(
                    f"experiment(s) failed after {retries + 1} "
                    f"attempt(s) — {details}"
                )
            pending = failed
            if pending:
                delay = _retry_round_delay(backoff, round_index)
                for key in pending:
                    _record_retry(key, attempts[key], failures[key], delay)
                time.sleep(delay)
                round_index += 1
    finally:
        if arena is not None:
            arena.close()
    return raw


def run_all(
    quick: bool = False,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> Dict[str, object]:
    """Execute the whole suite; keys match DESIGN.md's experiment index.

    ``workers`` > 1 distributes the independent experiments over a
    spawn-context process pool; results (and their dict ordering) are
    identical to a serial run.

    Self-healing knobs:

    * ``timeout`` — seconds each experiment may run before its worker is
      declared hung and retried (pool execution only; the serial path has
      no one to watch the clock).
    * ``retries`` / ``backoff`` — extra attempts per failing experiment
      and the base exponential delay between retry rounds.  When an
      experiment still fails after its last retry the run raises
      :class:`~repro.core.exceptions.RunnerError`.
    * ``checkpoint`` / ``resume`` — persist every completed result to the
      given file; with ``resume=True`` previously completed experiments
      are loaded instead of re-run.  The file is deleted after a fully
      successful run, so a later ``resume`` starts fresh rather than
      serving stale results.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be a positive integer: {workers}")
    if retries < 0:
        raise ValueError(f"retries must be non-negative: {retries}")
    if backoff < 0:
        raise ValueError(f"backoff must be non-negative: {backoff}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive: {timeout}")
    if resume and checkpoint is None:
        raise ValueError("resume=True needs a checkpoint path")

    store: Optional[RunCheckpoint] = None
    raw: Dict[str, object] = {}
    if checkpoint is not None:
        store = RunCheckpoint(checkpoint, quick=quick)
        if resume:
            raw.update(store.load())
    pending = [key for key in EXPERIMENT_KEYS if key not in raw]

    if workers is None or workers == 1:
        raw.update(
            _run_serial(pending, quick, retries, backoff, store)
        )
    else:
        raw.update(
            _run_parallel(
                pending, quick, workers, timeout, retries, backoff, store
            )
        )
    results = _assemble(raw)
    if store is not None:
        store.clear()
    return results


def render_thm(results: List[SearchResult]) -> str:
    """Textual rendering of the impossibility-frontier search."""
    lines = [
        "[THM] strictly optimal range-query declusterings (exhaustive search)",
        " M | grid | exists | nodes explored",
        "---+------+--------+---------------",
    ]
    for m, result in enumerate(results, start=1):
        side = max(m, 2)
        verdict = "yes" if result.exists else "no"
        lines.append(
            f"{m:>2} | {side}x{side:<3} | {verdict:<6} | "
            f"{result.nodes_explored}"
        )
    return "\n".join(lines)


def render_all(results: Dict[str, object]) -> str:
    """The whole suite as one text report."""
    sections = []
    for key in ("E1", "E2"):
        sections.append(render_table(results[key]))
    comparison = results["E3"]
    sections.append(render_table(comparison.result_2d))
    sections.append(render_table(comparison.result_3d))
    lines = [
        "[E3] mean relative deviation from optimal, "
        "2-d vs 3-d (matched sides >= 4)"
    ]
    min_side = 4 if any(
        s >= 4 for s in comparison.common_sides()
    ) else 1
    for scheme, (dev2, dev3) in deviation_table(
        comparison, min_side=min_side
    ).items():
        lines.append(f"  {scheme:8s} 2-d: {dev2:.4f}   3-d: {dev3:.4f}")
    sections.append("\n".join(lines))
    for key in ("E4a", "E4b", "E5", "X1", "EPM", "X3", "X4", "X5",
                "X7a", "X7b"):
        sections.append(render_table(results[key]))
    sections.append(render_thm(results["THM"]))
    sections.append("[T1] " + render_conditions())
    return "\n\n".join(sections)
