"""Environment fingerprint carried by every benchmark result.

Each process that does benchmark work (the harness, the HTTP server,
the cluster workers) reports the BLAS libraries it has loaded and their
thread counts, so two results are only compared when they ran under
the same threading.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def loaded_blas() -> list[dict]:
    """Every OpenBLAS library mapped into this process, with the
    thread count and build configuration it reports."""
    paths = sorted({
        line.split()[-1]
        for line in Path("/proc/self/maps").read_text().splitlines()
        if "openblas" in line.rsplit("/", 1)[-1].lower()
    })
    libraries = []
    for path in paths:
        entry = {"library": Path(path).name, "threads": None,
                 "config": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            libraries.append(entry)
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}",
                                  None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                threads.argtypes = []
                entry["threads"] = int(threads())
                config = getattr(lib, f"{prefix}get_config{suffix}")
                config.restype = ctypes.c_char_p
                config.argtypes = []
                entry["config"] = config().decode().strip()
                break
            if entry["threads"] is not None:
                break
        libraries.append(entry)
    return libraries


def process_record(role: str) -> dict:
    """BLAS and interpreter details of the calling process."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - maps scipy's own BLAS library

    return {
        "role": role,
        "pid": os.getpid(),
        "blas": loaded_blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def load_average() -> list[float]:
    return [round(value, 2) for value in os.getloadavg()]


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (clock ticks)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(value) for value in handle.readline().split()[1:]]


def steal_percent(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between
    two :func:`cpu_times` readings (field 8 is ``steal``)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return round(100.0 * delta[7] / total, 2) if total else 0.0


def source_identity(root: Path) -> dict:
    """The commit when ``root`` is a git checkout, and always a digest
    of the program sources, so a result names the code it measured."""
    commit = None
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    source = root / "src"
    for path in sorted(source.rglob("*.py")):
        digest.update(path.relative_to(source).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
