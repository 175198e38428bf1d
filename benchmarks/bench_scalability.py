"""Section 4.1.3 reproduction: runtime scaling of the five methods.

Paper shape (random sparse graphs, m = O(n), sizes up to 1e7):

* ADJ is fastest, ACT next, CLC roughly a third of CAD, CAD ~ COM;
* CAD scales near-linearly.

The default bench sweeps sizes up to a few tens of thousands, reports
the same runtime ordering and fits the scaling exponent of CAD (must be
close to 1 on a log-log fit; the paper's O(n log n) reads as slope ~1
over practical ranges). An opt-in tier runs CAD at the paper's k = 50
on 1e5, 3e5 and 1e6 nodes, each size in its own process, and records
wall time and peak RSS per size::

    REPRO_FULL_SCALE=1 PYTHONPATH=src \
        pytest benchmarks/bench_scalability.py -k full_scale -s

It writes ``results/scalability_full.txt``. A size runs only if the
previous size's peak RSS, scaled linearly, stays under
``MEMORY_CAP_MB``; otherwise the tier records why it stopped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import ActDetector, AdjDetector, ClcDetector, ComDetector
from repro.core import CadDetector
from repro.datasets import generate_scalability_instance
from repro.evaluation import fit_scaling_exponent, time_callable
from repro.pipeline import render_table

SIZES = (1000, 3000, 10000, 30000)
CLC_MAX_N = 3000  # all-pairs Dijkstra beyond this is impractical here

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE") == "1"
FULL_SIZES = (100_000, 300_000, 1_000_000)
FULL_K = 50
#: Largest projected peak RSS a size may reach: half of 7 GB of RAM.
MEMORY_CAP_MB = 3584.0
#: The paper's budget for its largest run (10^7 nodes in ~5 minutes).
PAPER_BUDGET_S = 300.0

#: One CAD detect in a fresh process; prints wall times and peak RSS.
_MEASURE = """
import json, resource, sys, time
from repro.core import CadDetector
from repro.datasets import generate_scalability_instance
n, k = int(sys.argv[1]), int(sys.argv[2])
started = time.perf_counter()
instance = generate_scalability_instance(n, seed=n)
generated = time.perf_counter()
CadDetector(method="approx", k=k, seed=0).detect(
    instance.graph, anomalies_per_transition=10)
finished = time.perf_counter()
print(json.dumps({
    "m": float(instance.num_edges),
    "generate_s": generated - started,
    "detect_s": finished - generated,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


@pytest.fixture(scope="module")
def workloads():
    return {
        n: generate_scalability_instance(n, seed=n) for n in SIZES
    }


def _detectors():
    """Detector factories: every timed call scores with a new detector,
    since a reused CAD or COM detector serves a repeat from its
    embedding cache."""
    return {
        "CAD": lambda: CadDetector(method="approx", k=16, seed=0),
        "COM": lambda: ComDetector(method="approx", k=16, seed=0),
        "ACT": ActDetector,
        "ADJ": AdjDetector,
        "CLC": lambda: ClcDetector(backend="scipy"),
    }


def test_scalability_ordering_and_exponent(benchmark, workloads, emit):
    timings: dict[str, dict[int, float]] = {}
    for name, make in _detectors().items():
        timings[name] = {}
        for n, instance in workloads.items():
            if name == "CLC" and n > CLC_MAX_N:
                continue
            graph = instance.graph
            # The fastest of time_callable's three repeats: one slow
            # run (ACT at n = 30,000 is bimodal) cannot flip an order.
            result = time_callable(
                f"{name}@{n}",
                lambda make=make, g=graph: make().score_sequence(g),
            )
            timings[name][n] = result.best

    def cad_run():
        detector = CadDetector(method="approx", k=16, seed=0)
        detector.score_sequence(workloads[SIZES[1]].graph)

    benchmark.pedantic(cad_run, rounds=1, iterations=1)

    rows = []
    for n in SIZES:
        rows.append((
            n,
            int(workloads[n].num_edges),
            *(timings[name].get(n, float("nan"))
              for name in ("ADJ", "ACT", "CLC", "COM", "CAD")),
        ))
    table = render_table(
        ("n", "m", "ADJ (s)", "ACT (s)", "CLC (s)", "COM (s)",
         "CAD (s)"),
        rows,
        title="Section 4.1.3: per-transition runtime by method",
        float_format="{:.3f}",
    )

    sizes = np.array(SIZES, dtype=float)
    cad_seconds = np.array([timings["CAD"][n] for n in SIZES])
    exponent = fit_scaling_exponent(sizes, cad_seconds)
    emit("scalability", table + "\n\n"
         f"CAD log-log scaling exponent: {exponent:.2f} "
         "(near-linear expected)")

    largest = SIZES[-1]
    # runtime ordering at the largest size (paper's ordering)
    assert timings["ADJ"][largest] < timings["CAD"][largest]
    assert timings["ACT"][largest] < timings["CAD"][largest]
    # CAD and COM are the same computation family
    assert timings["COM"][largest] < 5 * timings["CAD"][largest]
    # CLC blows up fastest: already slower than CAD at its own cap
    assert timings["CLC"][CLC_MAX_N] > timings["CAD"][CLC_MAX_N]
    # near-linear scaling (generous band for noisy wall clock)
    assert exponent < 1.6


def _measure_cad(n: int) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _MEASURE, str(n), str(FULL_K)],
        env=env, check=True, capture_output=True, text=True,
        timeout=3600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    not FULL_SCALE,
    reason="set REPRO_FULL_SCALE=1 to run CAD at 1e5-1e6 nodes",
)
def test_full_scale_cad(emit):
    runs: dict[int, dict] = {}
    stopped = ""
    for n in SIZES + FULL_SIZES:
        if runs:
            last = max(runs)
            projected = runs[last]["peak_rss_mb"] * n / last
            if projected > MEMORY_CAP_MB:
                stopped = (
                    f"n = {n} not run: the n = {last} peak of "
                    f"{runs[last]['peak_rss_mb']:.0f} MB scales to "
                    f"{projected:.0f} MB, above the {MEMORY_CAP_MB:.0f} MB "
                    "cap"
                )
                break
        runs[n] = _measure_cad(n)

    rows = [(n, int(run["m"]), run["generate_s"], run["detect_s"],
             run["peak_rss_mb"]) for n, run in runs.items()]
    table = render_table(
        ("n", "m", "generate (s)", "CAD detect (s)", "peak RSS (MB)"),
        rows,
        title=f"Section 4.1.3 at scale: CAD, k = {FULL_K}, one transition",
        float_format="{:.1f}",
    )
    sizes = np.array(list(runs), dtype=float)
    exponent = fit_scaling_exponent(
        sizes, np.array([run["detect_s"] for run in runs.values()])
    )
    within = [n for n, run in runs.items()
              if run["detect_s"] <= PAPER_BUDGET_S]
    lines = [
        table, "",
        f"CAD log-log scaling exponent over n = {int(sizes[0])}.."
        f"{int(sizes[-1])}: {exponent:.2f}",
        f"largest n within {PAPER_BUDGET_S:.0f} s: "
        f"{max(within) if within else 'none'}",
    ]
    if stopped:
        lines.append(stopped)
    emit("scalability_full", "\n".join(lines))

    assert set(FULL_SIZES[:2]) <= set(runs)
    assert exponent < 1.6
