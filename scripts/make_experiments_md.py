"""Assemble EXPERIMENTS.md from the campaign output (developer tool).

Usage::

    repro-exp all --seeds 4 --jobs 2 --no-cache > /tmp/experiments_full.txt
    python scripts/make_experiments_md.py /tmp/experiments_full.txt

Every number, named benchmark and "shape match" verdict in the headline
table and the reading guide is derived from the parsed figure and table
sections, so a claim the campaign does not support reads "no".  Only
those sections are copied into the measured-tables block (not the run
cache, save or trace lines).  The asymmetry-sweep block that
``scripts/asym_sweep.py --write`` spliced into the old file is kept.
"""

import sys
from pathlib import Path

from repro.ioutil import atomic_write
from repro.workloads.registry import PAPER_ORDER

#: Title prefixes of the sections ``repro-exp all`` prints.
SECTIONS = ("Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Table 1")
#: Start of the block ``scripts/asym_sweep.py --write`` maintains.
ASYM_BEGIN = "<!-- asym-sweep:begin -->"

HEADER = """\
# EXPERIMENTS — paper vs. reproduction

Every figure and table of the ILAN paper's evaluation (Section 5),
regenerated on the simulated platform.  Methodology mirrors the paper:
the 64-core Zen 4 machine model (8 NUMA nodes x 8 cores), the models'
default 50 outer iterations, mild external system noise enabled.  The
tables below are a 4-seed campaign (repetitions 0-3 of every cell); rerun
at the paper's 30 repetitions with `repro-exp all --seeds 30`.
`benchmarks/` asserts the same shapes; CI's paper-shapes job runs it at
2 seeds x 20 timesteps, without Table 1 (see the reading guide).

**Scale-down vs the paper** (simulation budget; configurable):

| dimension | paper | reproduction default |
|---|---|---|
| outer iterations | 200 (NPB-FT raised 25 -> 200; LULESH 200; Matmul 200) | 50 (`REPRO_ITERS`) |
| problem sizes | NPB class D, LULESH 400^3, Matmul 3500 | calibrated workload models (DESIGN.md section 7) |
| repetitions | 30 | 4 in the tables below; benches default to 10 (`REPRO_SEEDS`) |

Absolute times are simulation times and do not transfer to the authors'
testbed; the claims below are about *shape* (who wins, by roughly how
much, where the crossovers sit).

## Headline comparison

The "check" column is the test applied to the measured tables below; the
last column is its outcome.

| artefact | paper result | reproduced result | check | shape match |
|---|---|---|---|---|
{headline}

## Measured tables (4-seed campaign, 50 timesteps, noise on)

```
{tables}
```

## Reading guide / deviations worth knowing

- **CG**: ILAN gain {cg_gain}% against the paper's +8.0%, and {cg_nomold}%
  without moldability against the paper's -8.6%.  Both sit on the
  modelled balance between contention relief and imbalance.
- **BT**: {bt_gain}% against the paper's +16.9%: the locality share of the
  model was calibrated conservatively (see DESIGN.md calibration notes)
  to keep FT/LU/LULESH in range simultaneously.
- **SP**: {sp_gain}% against the paper's +45.8%.  SP is the benchmark whose
  gain is most sensitive to the contention exponent; its shape claims are
  the Fig 2 maximum, Fig 4 SP and Fig 6 rows above.
- **Table 1 variability**: the reproduction's baseline variance comes from
  random placement/stealing plus injected noise.  ILAN's std is lower on
  {t1_names}; SP's std reads {sp_std_base} under the baseline and
  {sp_std_ilan} under ILAN (paper: 0.0554 and 0.0258).  Which benchmarks
  come out lower moves with the seed set (ROADMAP.md, safety-net item),
  so CI's paper-shapes job leaves Table 1 out.

## Regenerating

```bash
repro-exp all --seeds 4 --jobs 2 --no-cache > /tmp/experiments_full.txt   # the tables above
python scripts/make_experiments_md.py /tmp/experiments_full.txt           # this file
REPRO_SEEDS=2 REPRO_ITERS=20 REPRO_JOBS=2 pytest benchmarks/ -s \\
    --deselect benchmarks/bench_table1_variability.py::test_table1_variability   # CI's paper-shapes job
pytest benchmarks/ -s                  # all artefacts, 10 seeds
REPRO_SEEDS=30 pytest benchmarks/ -s   # paper parity (slow)
```

`repro-exp all --save experiments_data.json` also dumps cell-level
summaries (means, stds, weighted thread counts per benchmark x
scheduler) to `experiments_data.json`.

## Per-experiment index

| id | bench target | workload | modules exercised |
|---|---|---|---|
| Fig 2 | `benchmarks/bench_fig2_overall_speedup.py` | all seven models | core.scheduler + runtime + memory + interference |
| Fig 3 | `benchmarks/bench_fig3_thread_selection.py` | all seven | core.moldability / core.selection (Algorithm 1) |
| Fig 4 | `benchmarks/bench_fig4_no_moldability.py` | all seven | core.scheduler.IlanNoMoldScheduler |
| Fig 5 | `benchmarks/bench_fig5_overhead.py` | all seven | runtime.overhead accounting |
| Fig 6 | `benchmarks/bench_fig6_worksharing.py` | all seven | runtime.schedulers.worksharing |
| Table 1 | `benchmarks/bench_table1_variability.py` | all seven | interference.noise + determinism of core.distribution |
| Ablations | `benchmarks/bench_ablation_*.py` | CG / SP / FT / synthetic | strict fraction, granularity g, gamma, page placement |
| Extensions | `benchmarks/bench_ext_*.py` | Matmul / SP / BT / synthetic | counters, energy objectives, affinity clause, proc_bind, amortization |
"""


def sections(text: str) -> dict[str, list[str]]:
    """Each figure/table block of the output (title to blank line)."""
    lines = text.splitlines()
    found = {}
    for i, line in enumerate(lines):
        title = next((t for t in SECTIONS if line.startswith(t)), None)
        if title is not None:
            j = i
            while j < len(lines) and lines[j].strip():
                j += 1
            found[title] = lines[i:j]
    missing = [t for t in SECTIONS if t not in found]
    if missing:
        raise SystemExit(f"sections not found in the campaign output: {missing}")
    return found


def rows(section: list[str]) -> dict[str, list[str]]:
    """Benchmark name -> the columns of its row."""
    return {
        cols[0]: cols[1:]
        for cols in (line.split() for line in section)
        if cols and cols[0] in PAPER_ORDER
    }


def geo_mean(section: list[str]) -> float:
    return float(next(line for line in section if line.startswith("geo-mean")).split()[1])


def named_lower(section: list[str]) -> list[str]:
    """The benchmarks a ``... lower in N/M benchmarks: a, b`` line names."""
    line = next(line for line in section if " lower in " in line)
    return line.split(": ", 1)[1].split(", ") if ": " in line else []


def listed(benchmarks: list[str]) -> str:
    return ", ".join(benchmarks) or "none"


def headline(sec: dict[str, list[str]]) -> tuple[list[tuple], dict[str, str]]:
    """The headline rows (artefact, paper, reproduced, check, passed)
    and the reading guide's values."""
    fig2 = rows(sec["Figure 2"])
    fig3 = rows(sec["Figure 3"])
    fig4 = rows(sec["Figure 4"])
    fig5 = rows(sec["Figure 5"])
    fig6 = rows(sec["Figure 6"])
    t1 = rows(sec["Table 1"])
    speedup2 = {b: float(c[2]) for b, c in fig2.items()}
    gain2 = {b: c[3] for b, c in fig2.items()}
    gain4 = {b: c[3] for b, c in fig4.items()}
    geo2 = geo_mean(sec["Figure 2"])
    geo4 = geo_mean(sec["Figure 4"])
    best = max(speedup2, key=speedup2.__getitem__)
    worst = min(speedup2, key=speedup2.__getitem__)
    losses = [b for b, s in speedup2.items() if s < 1.0]
    threads = {b: float(c[0]) for b, c in fig3.items()}
    full = int(fig3["cg"][1])
    molded = ("cg", "sp")
    rest = [b for b in threads if b not in molded]
    ratio5 = {b: float(c[2]) for b, c in fig5.items()}
    cut = min(ratio5, key=ratio5.__getitem__)
    lower5 = named_lower(sec["Figure 5"])
    ilan6 = {b: float(c[0]) for b, c in fig6.items()}
    ws6 = {b: float(c[1]) for b, c in fig6.items()}
    lower1 = named_lower(sec["Table 1"])
    table = [
        ("Fig 2 average", "ILAN +13.2% over baseline",
         f"{(geo2 - 1) * 100:+.1f}%", "geo-mean speedup above 1",
         geo2 > 1.0),
        ("Fig 2 maximum", "+45.8% on SP", f"{gain2[best]}% on {best}",
         "largest gain on SP", best == "sp"),
        ("Fig 2 worst case", "slight loss on Matmul",
         f"{gain2[worst]}% on {worst}; losses on {listed(losses)}",
         "smallest gain on Matmul", worst == "matmul"),
        ("Fig 3", "CG ~25 of 64 cores; FT/BT/Matmul = 64",
         f"CG {threads['cg']:.1f}, SP {threads['sp']:.1f}; "
         f"others >= {min(threads[b] for b in rest):.1f}",
         "CG and SP below 75% of the cores, the others above 85%",
         all(threads[b] < 0.75 * full for b in molded)
         and all(threads[b] > 0.85 * full for b in rest)),
        ("Fig 4 average", "+7.9% without moldability",
         f"{(geo4 - 1) * 100:+.1f}%", "geo-mean above 1, below Fig 2's",
         1.0 < geo4 < geo2),
        ("Fig 4 CG", "-8.6% (flips negative)", f"{gain4['cg']}%",
         "CG gain below 0", float(gain4["cg"]) < 0.0),
        ("Fig 4 SP", "loses most of its gain",
         f"{gain4['sp']}% (Fig 2: {gain2['sp']}%)",
         "under half of SP's Fig 2 gain",
         float(gain4["sp"]) < float(gain2["sp"]) / 2),
        ("Fig 5 count", "ILAN overhead lower in 4/7",
         f"lower in {len(lower5)}/{len(fig5)} ({listed(lower5)})",
         "lower in at least 3", len(lower5) >= 3),
        ("Fig 5 CG", "biggest cut in CG",
         f"biggest cut in {cut} ({fig5[cut][2]}); cg {fig5['cg'][2]}",
         "CG has the lowest ratio", ratio5["cg"] == ratio5[cut]),
        ("Fig 5 Matmul", "higher for Matmul", f"Matmul {fig5['matmul'][2]}",
         "Matmul ratio above 1", ratio5["matmul"] > 1.0),
        ("Fig 6", "work-sharing wins FT; ILAN wins CG/SP",
         "; ".join(f"{b}: WS {ws6[b]:.3f} vs ILAN {ilan6[b]:.3f}"
                   for b in ("ft", "cg", "sp")),
         "WS >= ILAN on FT; ILAN > WS on CG and SP",
         ws6["ft"] >= ilan6["ft"] and ilan6["cg"] > ws6["cg"]
         and ilan6["sp"] > ws6["sp"]),
        ("Table 1 count", "ILAN variance lower in 3/7 (FT, LU, SP)",
         f"lower in {len(lower1)}/{len(t1)} ({listed(lower1)})",
         "lower in at least 3", len(lower1) >= 3),
        ("Table 1 SP", "SP std 0.0554 -> 0.0258",
         f"SP std {t1['sp'][0]} -> {t1['sp'][1]}",
         "SP's ILAN std below the baseline's", "sp" in lower1),
    ]
    guide = {
        "cg_gain": gain2["cg"], "cg_nomold": gain4["cg"],
        "bt_gain": gain2["bt"], "sp_gain": gain2["sp"],
        "t1_names": listed(lower1),
        "sp_std_base": t1["sp"][0], "sp_std_ilan": t1["sp"][1],
    }
    return table, guide


def render(text: str, previous: str = "") -> str:
    """EXPERIMENTS.md for one campaign output; ``previous`` is the old
    file, whose asymmetry-sweep block is carried over."""
    sec = sections(text)
    table, guide = headline(sec)
    out = HEADER.format(
        headline="\n".join(
            f"| {artefact} | {paper} | {ours} | {check} | "
            f"{'yes' if passed else 'no'} |"
            for artefact, paper, ours, check, passed in table
        ),
        tables="\n\n".join("\n".join(sec[t]) for t in SECTIONS),
        **guide,
    )
    if ASYM_BEGIN in previous:
        out += "\n" + previous[previous.index(ASYM_BEGIN):]
    return out


def main(path: str) -> None:
    target = Path("EXPERIMENTS.md")
    previous = target.read_text() if target.exists() else ""
    out = render(Path(path).read_text(), previous)
    atomic_write(target, out)
    print(f"EXPERIMENTS.md written ({len(out.splitlines())} lines)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "/tmp/experiments_full.txt")
