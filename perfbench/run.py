"""Run one benchmark workload (or all of them) and report its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload twice — untraced, then traced — and reports the per-layer
metrics plus the tracing overhead, writing every span to
``.perfbench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
output check prints ``"correct": false`` and exits with status 1; a
checkout without the program's sources exits with status 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: set-ups per run; setup_s is their median
SETUPS = 3

#: CPU seconds ``workloads.host_probe`` takes on the reference host (a
#: 2.1 GHz Xeon core of the shared host the bounds were set on, in a quiet
#: phase).  The end-to-end times are reported for that host: the shared
#: host's speed drifts by a third over minutes, which no run length
#: averages out, and dividing by the probe's own slowdown in the same
#: window cancels it.
REF_PROBE_S = 0.0037

E2E_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mib": "MiB",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_slowdown(out) -> float:
    """How much slower than the reference host this run's host was: the
    median :func:`workloads.host_probe` time over :data:`REF_PROBE_S`."""
    return statistics.median(out.probes) / REF_PROBE_S


def measured(setup_times: list[float], out) -> dict[str, float]:
    """The end-to-end metrics in wall-clock seconds, as this host ran."""
    return {
        "setup_s": statistics.median(setup_times),
        "runs_per_s": statistics.median([runs / s for s, runs, _ in out.slices]),
        "jobs_per_s": statistics.median([jobs / s for s, _, jobs in out.slices]),
        "latency_p50_s": percentile(out.latencies, 50),
        "latency_p90_s": percentile(out.latencies, 90),
        "peak_rss_mib": peak_rss_mib(),
    }


def end_to_end(raw: dict[str, float], slowdown: float) -> dict[str, float]:
    """``raw`` on the reference host: times divided by the slowdown, rates
    multiplied by it (memory is left as measured)."""
    adjusted = dict(raw)
    for name in ("setup_s", "latency_p50_s", "latency_p90_s"):
        adjusted[name] = raw[name] / slowdown
    for name in ("runs_per_s", "jobs_per_s"):
        adjusted[name] = raw[name] * slowdown
    return adjusted


def job_rows(out) -> list[dict[str, object]]:
    """Per-job client latency and server-side phases (result file only)."""
    rows = []
    for job in out.jobs:
        rec = job.record or {}
        started, finished = rec.get("started_at"), rec.get("finished_at")
        rows.append({
            "tenant": job.tenant,
            "spec": job.spec,
            "latency_s": job.latency,
            "state": rec.get("state", "rejected"),
            "queue_s": started - rec["submitted_at"] if started is not None else None,
            "run_s": finished - started if finished is not None and started is not None
            else None,
        })
    return rows


def throughput(name: str, out) -> float:
    """The rate the tracing overhead is judged on."""
    return (out.runs if name == "campaign" else out.completed) / out.window_s


def run_workload(args: argparse.Namespace) -> int:
    import layers
    import tracing
    import workloads

    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        overhead = raw = None
        if args.trace:
            # untraced reference pass (hooks not even installed), then the
            # traced pass on a fresh set-up; their rate gap is the overhead
            _, plain = cls(ROOT, scratch, args.seed).run(
                args.seconds, 1, lambda on: None, check=False
            )
            tracing.install()

            def on_window(on: bool) -> None:
                tracing.TRACER.active = on

            setup_times, out = cls(ROOT, scratch, args.seed).run(
                args.seconds, 1, on_window, check=True
            )
            overhead = 1.0 - throughput(args.workload, out) / throughput(args.workload, plain)
            metrics = layers.per_layer(tracing.TRACER, out, overhead)
            units = layers.UNITS
            spans = tracing.write_spans(
                OUT / f"spans-{args.workload}-seed{args.seed}.json",
                tracing.TRACER,
                {"workload": args.workload, "seed": args.seed, "seconds": args.seconds},
            )
        else:
            setup_times, out = cls(ROOT, scratch, args.seed).run(
                args.seconds, SETUPS, lambda on: None, check=True
            )
            raw = measured(setup_times, out)
            metrics = end_to_end(raw, host_slowdown(out))
            units = E2E_UNITS
            spans = None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = bool(out.checks) and all(out.checks.values())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "window_s": out.window_s,
        "attempted": out.attempted,
        "completed": out.completed,
        "failed": out.failed,
        "rejected": out.rejected,
        "error_frac": (out.failed + out.rejected) / max(out.attempted, 1),
        "runs": out.runs,
        "latency_samples": len(out.latencies),
        "setup_samples_s": setup_times,
        "peak_rss_mib": peak_rss_mib(),
        "tracing_overhead_frac": overhead,
        "host_slowdown": host_slowdown(out),
        "host_probes": len(out.probes),
        "measured": raw,
        "slices": len(out.slices),
        "spans_file": str(spans.relative_to(ROOT)) if spans else None,
        "extra": out.extra,
        "checks": out.checks,
        "environment": environment(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics, "jobs": job_rows(out),
                    "samples": out.samples}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:28s} {value:14.6g} {units[name]}")
    for name, passed in out.checks.items():
        print(f"{args.workload:12s} check {name}: {'ok' if passed else 'FAILED'}")
    print("detail " + json.dumps(detail, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed + out.rejected,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; non-zero if any check fails."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, cell in result["metrics"].items():
            print(f"{name:12s} {metric:28s} {cell['value']:14.6g} {cell['unit']}")
        print(f"{name:12s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="campaign | serve-mixed | fleet-hot | all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}; run from a checkout\n")
        return 2
    # hermetic: REPRO_* knobs must not change what is measured
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
