"""Wall-clock timing for the paper-figure suite and the campaign script.

The package holds one module, :mod:`repro.bench.timers`: the single
annotated wall-clock seam that ``benchmarks/conftest.py`` and
``scripts/run_experiments.py`` time through.  ``bench`` is one of the
determinism lint's packages (DET001), so no other wall-time read can
creep in here.

The repo's performance benchmark is ``perfbench/run.py``, run under the
``BENCHMARK.json`` contract.
"""
