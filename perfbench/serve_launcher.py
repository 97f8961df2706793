"""Run ``poiagg serve`` in this process, optionally recording layer spans.

Usage: python3 perfbench/serve_launcher.py [--spans PATH] serve ARGS...

Without ``--spans`` this is exactly ``poiagg serve ARGS...``.  With it, the
serve, ledger, journal, ``poi`` and ``defense`` public methods are wrapped
and a timing durable-I/O layer is installed before ``repro.cli.main``
starts the server; when SIGTERM stops it, the spans are written to PATH.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    from repro import cli

    if argv[:1] != ["--spans"]:
        return cli.main(argv)
    spans_path, argv = argv[1], argv[2:]

    from layers import TimingVFS, install_serve_layers, pyramid_share
    from repro.core.clock import SystemClock
    from repro.core.vfs import install_vfs
    from repro.poi.engine import collecting_query_plans, summarize_query_plans
    from tracing import Tracer

    tracer = Tracer()
    install_serve_layers(tracer, SystemClock().now)
    vfs = TimingVFS(tracer)
    with install_vfs(vfs), collecting_query_plans() as plans:
        code = cli.main(argv)
    counters = {
        "core.vfs_write_bytes": vfs.write_bytes,
        "poi.pyramid_share": pyramid_share(summarize_query_plans(plans)["calls"]),
    }
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.export(), "counters": counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
