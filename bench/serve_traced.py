"""Run ``cosched serve`` with the benchmark's layer wrappers installed.

    python bench/serve_traced.py --spans FILE -- serve --port 0 ...

Installs the same solver-layer wrappers the solve workloads use plus the
service-layer ones (decode, fingerprint, store, queue wait, reply), then
hands the remaining arguments to ``repro.cli.main``.  When the server
exits (SIGTERM drains it) the aggregates and spans go to ``FILE``.
"""

from __future__ import annotations

import argparse
import sys

from layers import LayerTracer, install_all


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans", required=True)
    ap.add_argument("cli", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro import cli

    tracer = LayerTracer()
    install_all(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
