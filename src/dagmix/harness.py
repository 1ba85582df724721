"""Synthetic benchmarks: structure recovery and predictive baselines.

A known mixture of DAG models plays gold standard; data sampled from it
is subsampled to a ladder of sizes, a model is learned at each size with
the component count selected automatically, and the learned structures
are compared to the gold ones up to Markov equivalence.  A second harness
compares the searched family against mixtures with fixed empty (diagonal
covariance) and fixed complete (full covariance) structures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations
from typing import Sequence

import numpy as np

from .engine import FitConfig, SelectKResult, _checked_data, select_k
from .errors import DimensionMismatch
from .model import DagStructure, GaussianDag, MdagModel, _check_count, sample
from .rng import stream
from .scoring import predictive_score
from .search import structural_difference

RECOVERY_SIZES = (93, 186, 375, 750, 1500, 3000)


@dataclass(frozen=True)
class GoldStandard:
    model: MdagModel
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != self.model.k:
            raise DimensionMismatch("one label per Gaussian component")


def default_gold_standard() -> GoldStandard:
    """Three 5-variable components with overlapping supports.

    The first and third components share a collider-plus-fanout structure
    (0 -> 2 <- 1, 2 -> 3, 2 -> 4); the second is the chain 0 -> 1 -> 2 ->
    3 -> 4.  All linear coefficients and conditional variances are one;
    intercepts are zero except in the third component, where every
    intercept is five.  Mixture weights are uniform.
    """
    n = 5
    fanout = DagStructure(n, ((), (), (0, 1), (2,), (2,)))
    chain = DagStructure(n, ((), (0,), (1,), (2,), (3,)))
    ones = np.ones(n)

    def component(structure: DagStructure, intercept: float) -> GaussianDag:
        coeffs = tuple(np.ones(len(ps)) for ps in structure.parents)
        return GaussianDag(structure, np.full(n, intercept), coeffs, ones)

    model = MdagModel(
        np.full(3, 1.0 / 3.0),
        (component(fanout, 0.0), component(chain, 0.0), component(fanout, 5.0)),
        noise=None,
    )
    return GoldStandard(model, ("COMP1", "COMP2", "COMP3"))


def generate_recovery_data(
    gold: GoldStandard,
    seed: int,
    sizes: Sequence[int] = RECOVERY_SIZES,
    per_component: int = 1000,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Nested subsamples of a stratified draw from the gold model.

    The largest set takes ``per_component`` cases from every component;
    each smaller set is a prefix of one fixed shuffle, so every data set
    is a subset of the next larger one.  Returns size -> (data, labels).
    """
    for size in sizes:
        _check_count("sample size", size)
    sizes = sorted(sizes)
    if not sizes or sizes[0] < 1:
        raise DimensionMismatch(f"sample sizes {sizes} must be one or more positive counts")
    if sizes[-1] > per_component * gold.model.k:
        raise DimensionMismatch(
            f"sizes cannot exceed the {per_component * gold.model.k}-case pool"
        )
    blocks = []
    labels = []
    for c, g in enumerate(gold.model.components):
        one_hot = np.zeros(gold.model.k)
        one_hot[c] = 1.0
        comp_model = MdagModel(one_hot, gold.model.components)
        rows, _ = sample(comp_model, per_component, stream(seed, "gold-sample", c))
        blocks.append(rows)
        labels.append(np.full(per_component, c))
    data = np.vstack(blocks)
    label_vec = np.concatenate(labels)
    order = stream(seed, "gold-shuffle").permutation(data.shape[0])
    data, label_vec = data[order], label_vec[order]
    return {s: (data[:s], label_vec[:s]) for s in sizes}


@dataclass(frozen=True)
class RecoveryRow:
    sample_size: int
    learned_k: int
    top_weight_sum: float
    arc_differences: tuple[int | None, ...]  # per gold component, None if unmatched

    def total_difference(self) -> int:
        return sum(d for d in self.arc_differences if d is not None)


@dataclass(frozen=True)
class RecoveryReport:
    rows: tuple[RecoveryRow, ...]
    seed: int


def match_components(
    learned: Sequence[DagStructure],
    weights: Sequence[float],
    gold: Sequence[DagStructure],
) -> tuple[int | None, ...]:
    """Assign the largest learned components to gold components.

    The top min(len(gold), k) learned structures by weight are matched
    injectively to the gold components so the total equivalence-aware
    difference is minimal; ties resolve toward matching heavier components
    first.
    Returns one difference per gold component (None where unmatched).
    """
    if len(weights) != len(learned):
        raise DimensionMismatch(f"{len(learned)} learned structures but {len(weights)} weights")
    order = sorted(range(len(learned)), key=lambda j: -weights[j])[: len(gold)]
    top = [learned[j] for j in order]
    cost = [[structural_difference(t, g) for g in gold] for t in top]
    best_assign = min(
        permutations(range(len(gold)), len(top)),
        key=lambda perm: sum(cost[i][g] for i, g in enumerate(perm)),
    )
    diffs: list[int | None] = [None] * len(gold)
    for i, g in enumerate(best_assign):
        diffs[g] = cost[i][g]
    return tuple(diffs)


def _recovery_row(size: int, result: SelectKResult, gold: GoldStandard) -> RecoveryRow:
    model = result.best.model
    weights = model.gaussian_weights()
    top = np.sort(weights)[::-1][: min(3, weights.size)]
    diffs = match_components(
        [g.structure for g in model.components],
        list(weights),
        [g.structure for g in gold.model.components],
    )
    return RecoveryRow(size, model.k, float(top.sum()), diffs)


def run_recovery(
    gold: GoldStandard,
    seed: int,
    sizes: Sequence[int] = RECOVERY_SIZES,
    config: FitConfig | None = None,
    k_max: int = 8,
) -> RecoveryReport:
    """Learn at every sample size and report a structure-recovery table.

    No noise component is used: the data comes straight from the gold
    model.  The fit seed is tied to the harness seed for regenerable rows.
    """
    base = config if config is not None else FitConfig()
    base = replace(base, noise_bounds=None, seed=seed)
    datasets = generate_recovery_data(gold, seed, sizes=sizes)
    rows = []
    for size in sorted(datasets):
        data, _ = datasets[size]
        result = select_k(data, base, k_max)
        rows.append(_recovery_row(size, result, gold))
    return RecoveryReport(tuple(rows), seed)


# --- predictive baseline comparison ----------------------------------------


def count_parameters(model: MdagModel) -> int:
    """Free parameters: weights (components - 1) plus, per Gaussian node,
    one intercept, one coefficient per parent, and one variance."""
    total = model.n_components - 1
    for g in model.components:
        total += sum(2 + len(ps) for ps in g.structure.parents)
    return total


@dataclass(frozen=True)
class FamilyScore:
    family: str
    k: int
    cheeseman_stutz: float
    predictive: float
    parameters: int


def run_baseline_comparison(
    train: np.ndarray,
    test: np.ndarray,
    config: FitConfig,
    families: Sequence[str] = ("mdag", "mdiag", "mfull"),
    k_max: int = 8,
) -> tuple[FamilyScore, ...]:
    """Fit each model family with its own component-count search and score
    the selected model on held-out data."""
    test = _checked_data(test)
    scores = []
    for family in families:
        result = select_k(train, replace(config, family=family), k_max)
        model = result.best.model
        scores.append(
            FamilyScore(
                family,
                result.best_k,
                result.best.cheeseman_stutz,
                predictive_score(test, model),
                count_parameters(model),
            )
        )
    return tuple(scores)
