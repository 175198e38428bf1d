"""Child processes of the benchmark: the HTTP server, cluster workers
and set-up probes, all started through ``launch.py`` so each reports
its own environment and can be stopped and awaited."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from envinfo import peak_rss_mb

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"

#: How long a child may take to exit after it was asked to stop.
STOP_TIMEOUT = 20.0


def child_env(workdir: Path, blas_threads: int | None = None) -> dict:
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


class Child:
    """One ``launch.py`` subprocess whose first stdout line is its
    environment record."""

    def __init__(self, args: list[str], workdir: Path,
                 blas_threads: int | None = None):
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), *args],
            stdout=subprocess.PIPE, text=True,
            env=child_env(workdir, blas_threads), cwd=str(workdir),
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(f"launch.py {args[0]} exited before "
                               "reporting its environment")
        self.env = json.loads(line)

    def readline(self) -> str:
        return self.proc.stdout.readline()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM the child, drain its output and wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def probe_import(workdir: Path, seed: int) -> tuple[float, dict]:
    """Seconds to ``import repro`` and build the detector, measured in
    a fresh interpreter."""
    child = Child(["import", str(seed)], workdir)
    try:
        seconds = float(child.readline())
    finally:
        child.stop()
    return seconds, child.env
