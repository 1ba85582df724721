"""Mixtures of Gaussian DAG models: learning, scoring, and benchmarks."""

from .model import (
    DagStructure,
    GaussianDag,
    MdagModel,
    NoiseComponent,
    complete_structure,
    empty_structure,
    sample,
)
from .engine import FitConfig, FitResult, PriorSpec, Schedule, fit, select_k
from .harness import default_gold_standard, run_baseline_comparison, run_recovery

__all__ = [
    "DagStructure",
    "GaussianDag",
    "MdagModel",
    "NoiseComponent",
    "FitConfig",
    "FitResult",
    "PriorSpec",
    "Schedule",
    "complete_structure",
    "default_gold_standard",
    "empty_structure",
    "fit",
    "run_baseline_comparison",
    "run_recovery",
    "sample",
    "select_k",
]

__version__ = "0.1.0"
