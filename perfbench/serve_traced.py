"""Run ``jem`` with the benchmark's timing wrappers installed.

Usage::

    python3 perfbench/serve_traced.py SPANS.json serve --index IDX --listen 127.0.0.1:0

Times ``import repro.cli``, wraps the layer functions listed in
:mod:`tracing`, then hands the remaining arguments to ``repro.cli.main``.
The spans stay in memory and are written to SPANS.json when the command
returns (for ``serve``, after SIGTERM drains it).
"""

from __future__ import annotations

import os
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(out_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
