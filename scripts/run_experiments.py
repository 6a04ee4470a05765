"""Generate the EXPERIMENTS.md data: full campaign at paper parity.

Usage::

    PYTHONPATH=src python scripts/run_experiments.py [--seeds N] [--jobs N]
                                                     [--cache-dir DIR | --no-cache]
                                                     [--trace-out trace.json]

Runs are cached on disk keyed by their full configuration, so re-running
after an unrelated edit only re-simulates what actually changed; ``--jobs``
fans the independent runs out over worker processes.  Results are
byte-identical for any job count and cache state.  Each run is stored as
it completes: a campaign killed at any point recovers by rerunning the
same command.

``--trace-out`` additionally executes one fully-traced run (by default the
first paper benchmark under ILAN) and writes it as a Chrome
``trace_event`` JSON file loadable in https://ui.perfetto.dev — the
interactive counterpart of the ASCII timelines.
"""
import argparse

from repro.bench.timers import now as wall_now
from repro.exp.cliopts import add_campaign_arguments, config_from_args
from repro.exp.figures import figure2, figure3, figure4, figure5, figure6, table1
from repro.exp.persistence import results_to_dict, save_results
from repro.exp.report import (render_speedups, render_threads, render_overheads,
                              render_figure6, render_variability)
from repro.exp.runner import Runner, derive_run_seed
from repro.workloads.registry import PAPER_ORDER

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("seeds_positional", nargs="?", type=int, default=None,
                    metavar="seeds", help="repetitions per cell (paper: 30)")
add_campaign_arguments(parser)
parser.add_argument("--out", default="experiments_data.json",
                    help="cell-summary JSON output path")
parser.add_argument("--trace-out", default=None, metavar="PATH",
                    help="also write one traced run as a Chrome trace_event "
                    "JSON file (open in ui.perfetto.dev)")
parser.add_argument("--trace-benchmark", default=PAPER_ORDER[0],
                    choices=PAPER_ORDER, help="benchmark of the traced run")
parser.add_argument("--trace-scheduler", default="ilan",
                    help="scheduler of the traced run")
args = parser.parse_args()

if args.seeds is None and args.seeds_positional is not None:
    args.seeds = args.seeds_positional
cfg = config_from_args(args, seeds_default=30)
t0 = wall_now()
r = Runner(cfg)
print(f"campaign: seeds={cfg.seeds}, timesteps="
      f"{'model defaults (50)' if cfg.timesteps is None else cfg.timesteps}, "
      f"noise {'on' if cfg.with_noise else 'off'}, jobs={cfg.jobs}, "
      f"cache={'off' if cfg.cache_dir is None else cfg.cache_dir}")
# one fan-out for every cell any figure needs, before any rendering
r.prefetch(PAPER_ORDER, ["baseline", "ilan", "ilan-nomold", "worksharing"])
print()
print(render_speedups("Figure 2: ILAN vs baseline", figure2(r)))
print()
print(render_threads("Figure 3: weighted average threads selected by ILAN", figure3(r)))
print()
print(render_speedups("Figure 4: ILAN without moldability vs baseline", figure4(r)))
print()
print(render_overheads("Figure 5: accumulated scheduling overhead", figure5(r)))
print()
print(render_figure6(figure6(r)))
print()
print(render_variability("Table 1: execution-time standard deviation", table1(r)))
save_results(args.out, results_to_dict(r))
if r.cache is not None:
    st = r.cache.stats
    print(f"\nrun cache: {st.hits} hit(s), {st.misses} miss(es), {st.stores} stored")
if args.trace_out:
    from repro.runtime.runtime import OpenMPRuntime
    from repro.sim.chrome_trace import write_chrome_trace
    from repro.exp.runner import default_noise
    from repro.workloads.registry import make_benchmark

    bench, sched = args.trace_benchmark, args.trace_scheduler
    rt = OpenMPRuntime(r.topology, scheduler=sched,
                       seed=derive_run_seed(bench, sched, 0),
                       noise=default_noise() if cfg.with_noise else None,
                       trace=True)
    rt.run_application(make_benchmark(bench, timesteps=cfg.timesteps))
    out = write_chrome_trace(args.trace_out, rt.last_ctx.trace, r.topology)
    print(f"chrome trace of ({bench}, {sched}) written to {out}")
print(f"wall time: {wall_now()-t0:.0f}s; cell summaries saved to {args.out}")
