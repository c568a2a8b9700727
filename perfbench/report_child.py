"""One fresh report process, as ``scripts/generate_report.py`` runs it.

Usage (from the repository root)::

    python3 perfbench/report_child.py OUT [--quick] [--setup-only]
                                          [--trace DUMP]

Regenerates the full report (``runner.run_all()`` + ``render_all()`` +
X6) into ``OUT``; ``--quick`` writes ``experiment all --quick``'s report
instead.  The last stdout line is a JSON object with ``ready`` (the
``time.monotonic()`` reading when the first experiment is about to
start), ``done`` and ``peak_kb`` (peak resident set since exec); the
parent holds the spawn time on the same clock.
``--setup-only`` exits at ``ready``.  ``--trace DUMP`` installs the
per-layer wrappers before ``repro.experiments`` is imported and writes
the spans to ``DUMP``.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)


def peak_kb() -> int:
    """This process's peak resident set since exec (``VmHWM``), in KiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, metavar="DUMP")
    args = parser.parse_args()

    layer = None
    if args.trace:
        from layers import LayerTrace, install

        layer = LayerTrace()
        install(layer)

    from repro.core.cache import global_cache
    from repro.experiments import exp_growth, runner

    if layer is not None:
        runner.run_experiment = layer.wrap(
            runner.run_experiment,
            lambda key, *rest, **kwargs: f"experiments.{key}",
        )
        exp_growth.run = layer.wrap(exp_growth.run,
                                    lambda *a, **k: "gridfile.growth")

    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "peak_kb": peak_kb()}))
        return 0

    results = runner.run_all(quick=args.quick)
    if layer is not None:
        with layer.span("experiments.render"):
            text = runner.render_all(results)
    else:
        text = runner.render_all(results)
    if args.quick:
        text += "\n"
    else:
        text += "\n\n" + exp_growth.render(exp_growth.run()) + "\n"
    done = time.monotonic()
    with open(args.out, "w") as handle:
        handle.write(text)
    stats = global_cache().stats()
    if layer is not None:
        for name, value in (
            ("cache.hits", stats.hits),
            ("cache.misses", stats.misses),
            ("cache.evictions", stats.evictions),
            ("cache.hit_ratio", stats.hit_rate),
        ):
            layer.add(name, value)
        layer.dump(args.trace)
    print(json.dumps({"ready": ready, "done": done, "peak_kb": peak_kb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
