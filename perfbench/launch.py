"""Benchmark-owned entry points for child processes.

    python3 perfbench/launch.py import SEED
    python3 perfbench/launch.py server CHECKPOINT_DIR TRACE SPANS_OUT
    python3 perfbench/launch.py worker HOST PORT WORKER_ID

Each prints its environment record as the first line of its standard
output. ``server`` runs ``repro.service.server.run_server`` with the
``cad-detect serve`` defaults (local store, WAL on) on an ephemeral
port; with TRACE=1 it first installs the service-layer wrappers and
writes their spans to SPANS_OUT after the drain. ``worker`` is
``cad-detect cluster-worker``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _announce(role: str) -> None:
    from envinfo import process_record

    print(json.dumps(process_record(role)), flush=True)


def main(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    if command == "import":
        started = time.perf_counter()
        import repro

        repro.CadDetector(seed=int(args[0]))
        seconds = time.perf_counter() - started
        _announce("setup-probe")
        print(repr(seconds), flush=True)
        return 0
    if command == "server":
        checkpoint_dir, trace, spans_out = args
        from repro.service.server import run_server

        _announce("server")
        undo = tracer = None
        if trace == "1":
            from layers import SERVICE
            from spans import Tracer, write_spans

            tracer = Tracer()
            undo = tracer.install(SERVICE)
        try:
            return run_server(host="127.0.0.1", port=0,
                              checkpoint_dir=checkpoint_dir)
        finally:
            if tracer is not None:
                undo()
                write_spans(spans_out, tracer.spans)
    if command == "worker":
        host, port, worker_id = args
        from repro.cli import main as cli_main

        _announce(f"worker {worker_id}")
        return cli_main(["cluster-worker", host, port,
                         "--worker-id", worker_id])
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
