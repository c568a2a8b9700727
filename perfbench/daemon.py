"""The serve daemon with per-layer wrappers installed, for traced runs.

Usage (from the repository root)::

    python3 perfbench/daemon.py DUMP serve --spec ... --unix PATH

Installs :func:`layers.install` in this process, then runs the normal
``repro`` command line with the remaining arguments (so ``run_server``
starts with the wrappers in place).  When the daemon drains on SIGTERM
the spans are written to ``DUMP``.  Untraced runs start the daemon with
``python3 -m repro serve ...`` instead.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)


def main() -> int:
    from layers import LayerTrace, install

    dump, argv = sys.argv[1], sys.argv[2:]
    layer = LayerTrace()
    install(layer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        layer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
