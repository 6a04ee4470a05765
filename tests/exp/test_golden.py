"""Golden-trace regression: committed results the simulator must reproduce.

Two fixtures, both regenerated only for intentional behaviour changes:

* ``golden_campaign.json`` pins a small fixed-seed campaign — 2 benchmarks
  x 3 schedulers x 3 seeds on the tiny machine, noise on — down to every
  per-run execution time at full float precision;
* ``zen4_grid_digests.json`` pins the paper grid on the 64-core Zen 4:
  the SHA-256 of every run's canonical JSON (``run_to_json``) for each
  paper benchmark x paper scheduler at its first derived seed, 2
  timesteps and the campaigns' default noise.  The second timestep is
  where regions are fully homed, so both the first-touch and the
  steady-state paths of the memory model are covered.

Any change anywhere in ``core/``, ``sim/``, ``runtime/`` or ``memory/``
that shifts a single simulated bit fails loudly; a pure speed-up must
pass both untouched.  Intentional behaviour changes regenerate them with::

    PYTHONPATH=src python tests/exp/test_golden.py --write

and the resulting diff is reviewed like any other code change.
"""

import hashlib
import json
from pathlib import Path

from repro.exp.cache import run_to_json
from repro.exp.persistence import results_to_dict
from repro.exp.runner import (
    ExperimentConfig,
    Runner,
    RunSpec,
    default_noise,
    derive_run_seed,
    execute_spec,
)
from repro.topology.presets import tiny_two_node, zen4_9354
from repro.workloads.registry import PAPER_ORDER

FIXTURE = Path(__file__).parent / "fixtures" / "golden_campaign.json"
ZEN4_FIXTURE = Path(__file__).parent / "fixtures" / "zen4_grid_digests.json"

GOLDEN_BENCHMARKS = ["matmul", "cg"]
GOLDEN_SCHEDULERS = ["baseline", "ilan", "worksharing"]
GOLDEN_CONFIG = ExperimentConfig(seeds=3, timesteps=2, with_noise=True)

ZEN4_SCHEDULERS = ("baseline", "ilan", "ilan-nomold", "ilan-adaptive", "worksharing")
ZEN4_TIMESTEPS = 2


def golden_campaign() -> dict:
    """Recompute the pinned campaign from scratch."""
    runner = Runner(GOLDEN_CONFIG, topology=tiny_two_node())
    runner.prefetch(GOLDEN_BENCHMARKS, GOLDEN_SCHEDULERS)
    return results_to_dict(runner)


def zen4_grid_digests() -> dict[str, str]:
    """Recompute the ``benchmark/scheduler`` -> run digest table."""
    topology = zen4_9354()
    noise = default_noise()
    digests = {}
    for benchmark in PAPER_ORDER:
        for scheduler in ZEN4_SCHEDULERS:
            spec = RunSpec(
                benchmark=benchmark,
                scheduler=scheduler,
                seed=derive_run_seed(benchmark, scheduler, 0),
                timesteps=ZEN4_TIMESTEPS,
                noise=noise,
                topology=topology,
            )
            text = run_to_json(execute_spec(spec))
            digests[f"{benchmark}/{scheduler}"] = hashlib.sha256(
                text.encode("utf-8")
            ).hexdigest()
    return digests


def canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_runner_reproduces_golden_campaign():
    committed = json.loads(FIXTURE.read_text())
    recomputed = golden_campaign()
    assert canonical(recomputed) == canonical(committed), (
        "the simulator no longer reproduces the committed campaign — if the "
        "behaviour change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/exp/test_golden.py --write`"
    )


def test_golden_covers_declared_grid():
    committed = json.loads(FIXTURE.read_text())
    cells = {(c["benchmark"], c["scheduler"]) for c in committed["cells"]}
    assert cells == {
        (b, s) for b in GOLDEN_BENCHMARKS for s in GOLDEN_SCHEDULERS
    }
    assert all(c["runs"] == GOLDEN_CONFIG.seeds for c in committed["cells"])
    assert all(len(c["times"]) == GOLDEN_CONFIG.seeds for c in committed["cells"])


def test_golden_seeds_are_cell_derived():
    """The fixture must pin the derived per-cell seed streams, not 0..n."""
    from repro.exp.runner import derive_run_seed

    committed = json.loads(FIXTURE.read_text())
    for cell in committed["cells"]:
        expected = [
            derive_run_seed(cell["benchmark"], cell["scheduler"], i)
            for i in range(cell["runs"])
        ]
        assert cell["seeds"] == expected


def test_zen4_paper_grid_digests_unchanged():
    committed = json.loads(ZEN4_FIXTURE.read_text())
    recomputed = zen4_grid_digests()
    moved = sorted(cell for cell in committed if recomputed.get(cell) != committed[cell])
    assert not moved, (
        f"the simulator no longer reproduces these Zen 4 paper-grid runs: "
        f"{moved} — if the behaviour change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/exp/test_golden.py --write`"
    )


def test_zen4_digests_cover_paper_grid():
    committed = json.loads(ZEN4_FIXTURE.read_text())
    assert set(committed) == {
        f"{b}/{s}" for b in PAPER_ORDER for s in ZEN4_SCHEDULERS
    }
    assert all(len(d) == 64 for d in committed.values())


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        sys.exit("refusing to overwrite the fixtures without --write")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(canonical(golden_campaign()))
    print(f"wrote {FIXTURE}")
    ZEN4_FIXTURE.write_text(canonical(zen4_grid_digests()))
    print(f"wrote {ZEN4_FIXTURE}")
