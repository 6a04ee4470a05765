"""``scripts/make_experiments_md.py`` derives every verdict it writes.

The generator is fed synthetic ``repro-exp all`` output, rendered with
the same report functions the CLI uses, in which two of the paper's
claims fail: Matmul is not Fig 2's worst case (LU is), and SP's ILAN std
is the higher one in Table 1.  Those rows must read "no"; the campaign's
run-cache, save and trace lines must not reach the document.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.exp.figures import OverheadRow, SpeedupRow, ThreadsRow, VariabilityRow
from repro.exp.report import (
    render_figure6,
    render_overheads,
    render_speedups,
    render_threads,
    render_variability,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
ASYM_BLOCK = "<!-- asym-sweep:begin -->\nsweep table\n<!-- asym-sweep:end -->\n"


def _speedups(scheduler, speedups):
    return [
        SpeedupRow(benchmark=b, scheduler=scheduler, baseline_mean=1.0,
                   baseline_std=0.01, sched_mean=1.0 / s, sched_std=0.01,
                   speedup=s)
        for b, s in speedups.items()
    ]


def _campaign_output():
    fig2 = {"ft": 1.10, "bt": 1.10, "cg": 1.11, "lu": 0.97, "sp": 1.50,
            "matmul": 0.99, "lulesh": 1.15}
    fig4 = {"ft": 1.14, "bt": 1.14, "cg": 0.98, "lu": 1.13, "sp": 0.95,
            "matmul": 1.02, "lulesh": 1.16}
    ws = {"ft": 1.19, "bt": 1.12, "cg": 0.89, "lu": 1.11, "sp": 0.63,
          "matmul": 1.03, "lulesh": 1.15}
    threads = {"ft": 62.3, "bt": 62.1, "cg": 35.4, "lu": 62.1, "sp": 33.5,
               "matmul": 62.1, "lulesh": 58.8}
    overhead = {"ft": 0.55, "bt": 1.10, "cg": 0.76, "lu": 0.90, "sp": 0.75,
                "matmul": 0.55, "lulesh": 0.55}
    stds = {"ft": (0.0040, 0.0055), "bt": (0.0027, 0.0035),
            "cg": (0.0068, 0.0049), "lu": (0.0033, 0.0061),
            "sp": (0.0561, 0.1162), "matmul": (0.0074, 0.0073),
            "lulesh": (0.0063, 0.0052)}
    sections = [
        render_speedups("Figure 2: ILAN vs baseline (speedup, higher is better)",
                        _speedups("ilan", fig2)),
        render_threads("Figure 3: weighted average threads selected by ILAN",
                       [ThreadsRow(b, t, 64) for b, t in threads.items()]),
        render_speedups("Figure 4: ILAN without moldability vs baseline",
                        _speedups("ilan-nomold", fig4)),
        render_overheads(
            "Figure 5: accumulated scheduling overhead (normalized, lower is better)",
            [OverheadRow(b, 0.05, 0.05 * n, n) for b, n in overhead.items()],
        ),
        render_figure6({"ilan": _speedups("ilan", fig2),
                        "worksharing": _speedups("worksharing", ws)}),
        render_variability(
            "Table 1: execution-time standard deviation",
            [VariabilityRow(b, base, ilan, base, ilan)
             for b, (base, ilan) in stds.items()],
        ),
    ]
    return "".join(s + "\n\n" for s in sections) + (
        "run cache (/tmp/runs): 0 hit(s), 70 miss(es), 70 new run(s) stored\n"
        "saved cell summaries to experiments_data.json\n"
        "chrome trace of (ft, ilan) written to trace.json\n"
    )


@pytest.fixture
def document(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_experiments_md", REPO_ROOT / "scripts" / "make_experiments_md.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "campaign.txt").write_text(_campaign_output(), encoding="utf-8")
    (tmp_path / "EXPERIMENTS.md").write_text(
        "stale document\n\n" + ASYM_BLOCK, encoding="utf-8"
    )
    script.main(str(tmp_path / "campaign.txt"))
    return (tmp_path / "EXPERIMENTS.md").read_text(encoding="utf-8")


def _row(document, artefact):
    """The cells of the headline row whose first cell is ``artefact``."""
    for line in document.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] == artefact:
            return cells
    raise AssertionError(f"no headline row {artefact!r}")


def test_failed_claims_read_no(document):
    worst = _row(document, "Fig 2 worst case")
    assert "on lu" in worst[2]
    assert worst[-1] == "no"
    assert _row(document, "Table 1 SP")[-1] == "no"


def test_held_claims_read_yes(document):
    best = _row(document, "Fig 2 maximum")
    assert "on sp" in best[2]
    assert best[-1] == "yes"
    assert _row(document, "Fig 6")[-1] == "yes"


def test_only_the_figure_and_table_sections_are_copied(document):
    for line in ("run cache", "saved cell summaries", "chrome trace"):
        assert line not in document
    assert "Figure 2: ILAN vs baseline" in document
    assert "ILAN variance lower in 3/7 benchmarks: cg, matmul, lulesh" in document


def test_asymmetry_sweep_block_is_kept(document):
    assert "stale document" not in document
    assert document.endswith(ASYM_BLOCK)
