"""Mixtures of Gaussian DAG models: learning, scoring, and benchmarks.

The checked boundary is the names in ``__all__``, ``cli.main``, the model
readers (``cli.load_model``, ``cli.model_from_json``) and the config readers
(``cli.load_config``, ``cli.config_from_dict``).  Each checks its input once,
where it enters, and a bad input raises an ``errors.DagmixError`` subclass
whose category names the problem: a ``DataError`` for bad input, a
``NumericalError`` for a computation the input drove out of range.
Everything else is internal and assumes validated input; inside the EM and
search loops only the PSD test of each posterior and one finiteness check
of the arrays each M step writes still run; EM bursts run on stacked
arrays, and the public model constructors run only on the start and on the
model ``fit`` records after each search.  A ``DagStructure`` is a DAG by
construction, and search builds one only for each result it returns.
"""

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
