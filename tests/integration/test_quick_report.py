"""The quick report is pinned byte for byte, like the full one.

``benchmarks/results_quick_report.txt`` is exactly what ``repro
experiment all --quick`` prints.  Quick-mode X4 and X7 run the batched
replica planner on their own placement sets, so this is the tier-1
guard on their output; the benchmark pins the same text by sha256.
"""

import hashlib
import re
from pathlib import Path

from repro.experiments.runner import render_all, run_all

ROOT = Path(__file__).resolve().parents[2]
COMMITTED = ROOT / "benchmarks" / "results_quick_report.txt"


def test_quick_report_matches_committed_file():
    text = render_all(run_all(quick=True)) + "\n"
    assert text.encode() == COMMITTED.read_bytes()


def test_committed_file_matches_benchmark_pin():
    pinned = re.search(
        r"QUICK_REPORT_SHA256 = \(\s*\"([0-9a-f]{64})\"",
        (ROOT / "perfbench" / "run.py").read_text(),
    )
    assert pinned is not None
    assert hashlib.sha256(COMMITTED.read_bytes()).hexdigest() == (
        pinned.group(1)
    )
