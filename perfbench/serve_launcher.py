"""Run ``repro serve`` with the layer tracer installed inside the server.

Usage::

    python3 perfbench/serve_launcher.py --trace-out FILE -- serve ARGS...

The arguments after ``--`` are exactly those of ``python -m repro``.
When the server drains (SIGTERM), the launcher restores the patched
functions and writes the tracer's aggregates, per-request submit times
and span events to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, metavar="FILE")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.cli import main as repro_main
    from perfbench.tracer import Tracer

    tracer = Tracer().install()
    try:
        code = repro_main(serve_args)
    finally:
        tracer.uninstall()
        data = tracer.export()
        data["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        Path(args.trace_out).write_text(json.dumps(data), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
