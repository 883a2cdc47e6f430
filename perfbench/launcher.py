"""Traced server launcher.

Installs the serving span wrappers, then runs ``repro.cli.main(["serve",
...])`` in this process.  When the server stops (SIGTERM drains it like
Ctrl-C) the spans are written to ``--trace-out``.  Shard workers are
grandchildren of this process and run untraced; their internals come
from ``/stats``.

Usage: ``python -m perfbench.launcher --trace-out PATH serve [serve flags]``
"""

from __future__ import annotations

import sys

from perfbench.serving import install_server_wrappers
from perfbench.tracing import Tracer, write_trace


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, serve_argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    install_server_wrappers(tracer)
    try:
        return cli_main(serve_argv)
    finally:
        write_trace(trace_out, tracer)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
