"""Launch ``repro serve`` for the benchmark, with optional span tracing.

Usage::

    python3 servebench/daemon.py SPEC --trace-dir DIR

Runs the repo's own ``repro serve`` command (thread executor, one
serving worker) from the checkout's ``src`` tree, and prints its
readiness line on stdout.  On ``SIGUSR1`` it wraps every layer boundary
in span recorders (see :mod:`tracing`) and touches ``DIR/traced`` once
they are in place; when the daemon stops, the recorded spans go to
``DIR/daemon_spans.json``.  The load generator sends the signal only
between requests, so no request straddles the switch.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS/OpenMP thread: with the daemon's single serving worker and the
# load generator, runnable threads stay within the host's two vCPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="service spec JSON file")
    parser.add_argument("--trace-dir", required=True, type=Path)
    args = parser.parse_args()

    from repro.__main__ import main as repro_main
    from tracing import Tracer, install_daemon

    tracer: Tracer | None = None

    def start_tracing(_signum, _frame) -> None:
        nonlocal tracer
        if tracer is None:
            tracer = Tracer()
            install_daemon(tracer)
            (args.trace_dir / "traced").touch()

    signal.signal(signal.SIGUSR1, start_tracing)
    code = repro_main(
        ["serve", args.spec, "--executor", "thread", "--workers", "1",
         "--queue-size", "4"]
    )
    if tracer is not None:
        tracer.dump(args.trace_dir / "daemon_spans.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
