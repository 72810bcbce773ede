"""Start ``repro.server`` in this process, with optional span tracing.

Usage::

    python3 perfbench/launcher.py [--trace-file PATH] -- <repro.server args>

Without ``--trace-file`` this is exactly ``python -m repro.server``.
With it, SIGUSR1 wraps the public functions a served request passes
through (:func:`trace.install_server_spans`) and starts recording
spans; SIGUSR2 restores them and writes the per-layer summary to PATH
(atomically, via a rename), so the benchmark can trace one window of a
server that already served an untraced one.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _enable_trace_signals(path: str) -> None:
    from spans import Tracer, install_server_spans

    tracer = Tracer()

    def start(signum, frame):
        tracer.uninstall()
        tracer.reset()
        install_server_spans(tracer)

    def stop(signum, frame):
        tracer.uninstall()
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(tracer.summary(), fh)
        os.replace(tmp, path)
        tracer.reset()

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)


def main(argv) -> int:
    trace_file = None
    if argv[:1] == ["--trace-file"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_file:
        _enable_trace_signals(trace_file)
    from repro.server.__main__ import main as serve

    return serve(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
