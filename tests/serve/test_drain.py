"""Subprocess integration: the real CLI daemon, SIGTERM drain, no leaks.

Starts ``repro serve`` as a child process exactly as a supervisor
would, talks to it over its unix socket, sends SIGTERM, and asserts a
clean exit: code 0, the metrics export written, and no shared-memory
segments left behind (the crash-safety contract of satellite QA —
restart loops must not accrete ``/dev/shm`` entries).
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.shm import stray_segments
from repro.serve.client import ServeClient

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


def _start_daemon(tmp_path, extra=()):
    socket_path = str(tmp_path / "drain.sock")
    metrics_path = str(tmp_path / "serve_metrics.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"),) if p]
        + [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--spec", "ecc:16x16:8",
            "--unix", socket_path,
            "--serve-workers", "1",
            "--metrics-out", metrics_path,
            "--drain-timeout", "15",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if process.poll() is not None:
            out = process.stdout.read() if process.stdout else ""
            raise AssertionError(
                f"daemon exited {process.returncode} at startup:\n{out}"
            )
        if os.path.exists(socket_path):
            try:
                with ServeClient(unix_path=socket_path) as client:
                    client.ping()
                return process, socket_path, metrics_path
            except OSError:
                pass
        time.sleep(0.1)
    process.kill()
    raise AssertionError("daemon never became ready")


def test_sigterm_drains_cleanly_and_leaves_no_shm(tmp_path):
    process, socket_path, metrics_path = _start_daemon(tmp_path)
    try:
        with ServeClient(unix_path=socket_path, timeout=60) as client:
            rng = np.random.default_rng(9)
            lower = rng.integers(0, 16, size=(16, 2)).astype(np.int64)
            upper = np.minimum(
                lower + rng.integers(0, 6, size=(16, 2)), 15
            ).astype(np.int64)
            times, _shed = client.batch_response_times(
                "ecc", (16, 16), 8, lower, upper
            )
            assert times.shape == (16,)
            stats = client.stats()
            assert stats["workers"], "fleet should be running"
            worker_pids = stats["workers"]

        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60)
        assert process.returncode == 0

        # The fleet died with the daemon.
        for pid in worker_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

        # Metrics export recorded the serving activity.
        payload = json.loads(open(metrics_path).read())
        counters = payload["aggregate"]["counters"]
        assert counters["serve.requests"] >= 3
        assert (
            "serve.latency.batch_response_times.seconds"
            in payload["aggregate"]["histograms"]
        )

        # No shared-memory segments survive the drain.
        leaked = [
            name for name in stray_segments()
            if f"-srv{process.pid}-" in name
        ]
        assert leaked == []
        # Nor does the unix socket inode.
        assert not os.path.exists(socket_path)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
