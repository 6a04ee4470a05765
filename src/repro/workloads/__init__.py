"""Benchmark workload models and the workload-construction toolkit.

The seven paper benchmarks (NPB CG/FT/BT/SP/LU, LULESH, Matmul) are
calibrated models exposing the properties the evaluation depends on; the
synthetic generator and the for->taskloop converter support custom
workloads and the ablation studies.
"""

from repro.workloads.base import (
    Application,
    RegionSpec,
    TaskloopSpec,
    imbalance_profile,
)
from repro.workloads.convert import (
    ParallelFor,
    Program,
    Taskloop,
    convert_for_to_taskloop,
    program_to_application,
)
from repro.workloads.lulesh import make_lulesh
from repro.workloads.matmul import make_matmul
from repro.workloads.npb import make_bt, make_cg, make_ft, make_lu, make_sp
from repro.workloads.registry import (
    BENCHMARKS,
    PAPER_ORDER,
    benchmark_names,
    make_benchmark,
)
from repro.workloads.synthetic import make_mixed, make_synthetic

__all__ = [
    "Application",
    "RegionSpec",
    "TaskloopSpec",
    "imbalance_profile",
    "ParallelFor",
    "Program",
    "Taskloop",
    "convert_for_to_taskloop",
    "program_to_application",
    "make_lulesh",
    "make_matmul",
    "make_bt",
    "make_cg",
    "make_ft",
    "make_lu",
    "make_sp",
    "BENCHMARKS",
    "PAPER_ORDER",
    "benchmark_names",
    "make_benchmark",
    "make_mixed",
    "make_synthetic",
]
