"""Command-line entry point: ``repro-exp <figure> [options]``.

Examples::

    repro-exp fig2 --seeds 30
    repro-exp table1 --seeds 30 --timesteps 50
    repro-exp all --seeds 10 --jobs 8            # parallel campaign
    repro-exp all --seeds 30 --cache-dir .cache  # warm/reuse a run cache
    repro-exp fig2 --no-cache                    # force re-simulation
    repro-exp all --save experiments_data.json   # EXPERIMENTS.md's data
    repro-exp fig2 --trace-out trace.json        # plus one Perfetto trace

Campaign runs are cached on disk by default (under ``~/.cache/repro`` or
``$REPRO_CACHE_DIR``), keyed by the full run configuration; re-running a
figure re-simulates nothing unless the configuration changed.  Each run is
stored as it completes, so a campaign killed at any point recovers by
rerunning the same command: only the missing runs are simulated.

``--trace-out`` re-runs repetition 0 of the first selected benchmark
under ILAN with tracing on and writes it as a Chrome ``trace_event`` JSON
file, loadable in https://ui.perfetto.dev: the interactive counterpart of
the ASCII timelines.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exp.cliopts import (
    add_campaign_arguments,
    add_machine_argument,
    config_from_args,
    resolve_machine,
)
from repro.exp.figures import figure2, figure3, figure4, figure5, figure6, table1
from repro.exp.report import (
    render_figure6,
    render_overheads,
    render_speedups,
    render_threads,
    render_variability,
)
from repro.exp.runner import Runner
from repro.workloads.registry import PAPER_ORDER

__all__ = ["main"]

_EXPERIMENTS = ("fig2", "fig3", "fig4", "fig5", "fig6", "table1", "all")

# scheduler cells each experiment consumes — used to prefetch everything a
# campaign needs in one parallel fan-out before any figure renders
_EXPERIMENT_SCHEDULERS = {
    "fig2": ("baseline", "ilan"),
    "fig3": ("ilan",),
    "fig4": ("baseline", "ilan-nomold"),
    "fig5": ("baseline", "ilan"),
    "fig6": ("baseline", "ilan", "worksharing"),
    "table1": ("baseline", "ilan"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Regenerate the ILAN paper's evaluation figures/tables "
        "on the simulated NUMA platform.",
    )
    parser.add_argument("experiment", choices=_EXPERIMENTS, help="which artefact to run")
    add_campaign_arguments(parser)
    add_machine_argument(parser)
    parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="write the campaign's cell summaries as JSON after the run",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also write one traced run (the first selected benchmark under "
        "ilan, repetition 0) as a Chrome trace_event JSON file",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        choices=PAPER_ORDER,
        default=None,
        help="subset of benchmarks (default: all seven)",
    )
    return parser


def run_experiment(name: str, runner: Runner, benchmarks: list[str] | None) -> str:
    """Run one named experiment; returns the rendered report."""
    if name == "fig2":
        return render_speedups(
            "Figure 2: ILAN vs baseline (speedup, higher is better)",
            figure2(runner, benchmarks),
        )
    if name == "fig3":
        return render_threads(
            "Figure 3: weighted average threads selected by ILAN",
            figure3(runner, benchmarks),
        )
    if name == "fig4":
        return render_speedups(
            "Figure 4: ILAN without moldability vs baseline",
            figure4(runner, benchmarks),
        )
    if name == "fig5":
        return render_overheads(
            "Figure 5: accumulated scheduling overhead (normalized, lower is better)",
            figure5(runner, benchmarks),
        )
    if name == "fig6":
        return render_figure6(figure6(runner, benchmarks))
    if name == "table1":
        return render_variability(
            "Table 1: execution-time standard deviation",
            table1(runner, benchmarks),
        )
    raise ValueError(f"unknown experiment {name!r}")  # pragma: no cover


def write_trace(path: str, runner: Runner, benchmark: str) -> Path:
    """Re-run repetition 0 of ``(benchmark, ilan)`` traced; write it out.

    The run is the campaign cell's own spec (seed, noise, timesteps,
    machine), so the trace shows a run the figures averaged over.
    """
    from repro.runtime.runtime import OpenMPRuntime
    from repro.sim.chrome_trace import write_chrome_trace
    from repro.workloads.registry import make_benchmark

    (spec,) = runner.job_specs(benchmark, "ilan", seeds=1)
    runtime = OpenMPRuntime(
        spec.topology,
        scheduler=spec.scheduler,
        seed=spec.seed,
        noise=spec.noise,
        asym=spec.asym,
        asym_seed=spec.asym_seed,
        trace=True,
    )
    runtime.run_application(make_benchmark(benchmark, timesteps=spec.timesteps))
    return write_chrome_trace(path, runtime.last_ctx.trace, spec.topology)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = config_from_args(args)
    runner = Runner(cfg, topology=resolve_machine(args.machine))
    names = [args.experiment] if args.experiment != "all" else list(_EXPERIMENTS[:-1])
    schedulers = sorted({s for n in names for s in _EXPERIMENT_SCHEDULERS[n]})
    benchmarks = args.benchmarks or list(PAPER_ORDER)
    runner.prefetch(benchmarks, schedulers)
    for name in names:
        print(run_experiment(name, runner, args.benchmarks))
        print()
    if runner.cache is not None:
        st = runner.cache.stats
        print(
            f"run cache ({runner.cache.root}): {st.hits} hit(s), "
            f"{st.misses} miss(es), {st.stores} new run(s) stored"
        )
    if args.save:
        from repro.exp.persistence import results_to_dict, save_results

        save_results(args.save, results_to_dict(runner))
        print(f"saved cell summaries to {args.save}")
    if args.trace_out:
        out = write_trace(args.trace_out, runner, benchmarks[0])
        print(f"chrome trace of ({benchmarks[0]}, ilan) written to {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
