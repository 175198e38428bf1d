"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gm-dense --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the workload runs untraced and the last line of
standard output is a JSON object whose ``metrics`` are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` untraced and traced
operations alternate and ``metrics`` are the per-layer metrics. The
lines before it are the human-readable record: environment, metrics
with units, gate results and, when traced, each layer's self-time
share and the tracing overhead. The exit code is 0 only when every
operation and output gate passed.

Run from the repository root; the program is imported from ``src/``
and every file the run writes stays under ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _span_metric() -> dict:
    """Span name -> the per-layer metric that reports its self time."""
    from layers import PER_LAYER

    names = {}
    for kind in ("self", "total"):
        for metric, (_, how, span, *_) in PER_LAYER.items():
            if how == kind:
                names.setdefault(span, metric)
    return names


def _print_trace(outcome) -> None:
    names = _span_metric()
    print("per-layer (median per detect call; per session on enron-http):")
    for metric, entry in outcome.layers.items():
        if entry["reached"]:
            print(f"  {metric:30s} {entry['value']:14.6g} {entry['unit']}")
        else:
            print(f"  {metric:30s} {'not reached':>14s}")
    print("self time as a share of traced wall time:")
    for span, seconds, share in outcome.shares:
        print(f"  {names.get(span, span):30s} {100 * share:6.1f}%  "
              f"({seconds:.4f} s)")
    covered = sum(share for _, _, share in outcome.shares)
    print(f"  {'(unwrapped)':30s} {100 * (1 - covered):6.1f}%")
    if outcome.shares:
        print(f"leading layer: {names.get(outcome.shares[0][0])}")
    overhead = outcome.layers["trace.overhead_pct"]["value"]
    print(f"tracing overhead: {overhead:+.1f}% on detect_s "
          f"({outcome.info['untraced_detect_s']:.4f} s untraced, "
          f"{outcome.layers['trace.detect_s']['value']:.4f} s traced)")


def _final(outcome, declared: dict, trace: bool, failures: list) -> dict:
    wanted = declared["per_layer" if trace else "end_to_end"]
    source = outcome.layers if trace else outcome.metrics
    metrics = {}
    for spec in wanted:
        entry = (source or {}).get(spec["name"])
        if entry is None or entry["unit"] != spec["unit"]:
            failures.append(f"metric {spec['name']} was not measured")
            continue
        metrics[spec["name"]] = {"value": entry["value"],
                                 "unit": entry["unit"]}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import envinfo
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    declared = _declared()
    # A terminated run still stops and awaits its child processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    trace = bool(args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUN_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": trace,
        "host": envinfo.host_record(),
        "source": envinfo.source_identity(ROOT),
        "load_average_start": envinfo.load_average(),
    }
    cpu_before = envinfo.cpu_times()
    started = time.perf_counter()
    failures = []
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, trace,
                                           workdir)
    except Exception:  # noqa: BLE001 - reported, then a nonzero exit
        failures.append(traceback.format_exc())
        outcome = Outcome()
        outcome.attempted = max(outcome.attempted, 1)
        outcome.failed = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["load_average_end"] = envinfo.load_average()
    record["cpu_steal_pct"] = envinfo.steal_percent(cpu_before,
                                                    envinfo.cpu_times())
    record["wall_s"] = time.perf_counter() - started
    record["processes"] = outcome.processes
    failures = outcome.failures + failures

    print("environment: " + json.dumps(record))
    print("info: " + json.dumps(outcome.info))
    print("end-to-end (traced):" if trace else "end-to-end:")
    for metric, entry in outcome.metrics.items():
        print(f"  {metric:16s} {entry['value']:14.6g} {entry['unit']}")
    print(f"operations: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    if trace and outcome.layers is not None:
        _print_trace(outcome)
    metrics = _final(outcome, declared, trace, failures)
    for failure in failures:
        print("FAILED: " + failure.rstrip())
    correct = not failures and outcome.failed == 0

    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump({**record, "metrics": outcome.metrics,
                   "layers": outcome.layers, "info": outcome.info,
                   "attempted": outcome.attempted,
                   "failed": outcome.failed, "failures": failures},
                  handle, indent=1)
    if outcome.spans:
        from spans import write_spans

        write_spans(results / f"{name}.spans.jsonl", outcome.spans)

    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if correct else max(outcome.failed, 1),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
