"""Model-level criteria assembled from the conjugate building blocks.

The complete-model score treats a set of (expected) statistics as if they
summarized a complete data set: a Dirichlet term for the component counts
plus per-component per-node family scores, so changing one parent set
changes exactly one term.  The observed log likelihood and the completed
log likelihood are the two halves of the correction that
``engine.cheeseman_stutz`` adds to it, both at the MAP parameters; that is
the one place the Cheeseman-Stutz score is computed.  The functions here
read a ``MixtureStats`` through its triples, one per Gaussian component,
zipped with the structures or components, and the noise component's count
apart; one Normal-Wishart prior serves every component.

These functions are internal and assume validated input: data, models and
statistics arrive through the checked entry points that the package
docstring lists, or are built from them.  Each score is a float, and the
log likelihoods take ``CaseGroups``; held-out data enters through
``predictive_score``, which checks it (``_checked_heldout``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bayes import (
    DirichletPrior,
    FamilyMarginals,
    NormalWishart,
    dirichlet_log_marglik,
    node_families,
)
from .errors import DimensionMismatch, EmptyTestSet
from .model import LOG_2PI, DagStructure, GaussianDag, MdagModel
from .stats import COUNT_FLOOR, CaseGroups, MixtureStats, SuffStats, group_cases, mixture_loglik


def complete_model_score(
    mix_stats: MixtureStats,
    structures: Sequence[DagStructure],
    prior: NormalWishart,
    dirichlet: DirichletPrior,
    noise=None,
) -> float:
    """Factored score of the statistics under per-component structures.

    ``structures[c]`` is scored on ``mix_stats.triples[c]``; the noise
    component, present when ``noise`` is given, contributes its fixed
    uniform mass over ``mix_stats.noise_count`` cases, never a learned term.
    """
    c_term = dirichlet_log_marglik(dirichlet, mix_stats.counts)
    noise_term = 0.0 if noise is None else -mix_stats.noise_count * noise.log_volume
    locals_ = []
    for t, structure in zip(mix_stats.triples, structures, strict=True):
        values = FamilyMarginals(prior, t).fill(node_families(enumerate(structure.parents)))
        locals_.append([top - base for top, base in zip(values[::2], values[1::2])])
    return c_term + noise_term + sum(sum(ls) for ls in locals_)


def observed_loglik(cases: CaseGroups, model: MdagModel) -> float:
    """Log likelihood of the cases at the model's parameters.

    Missing coordinates are marginalized per component through the
    observed-block Gaussian marginals.
    """
    return mixture_loglik(cases, model.stacked)


def gaussian_complete_loglik(t: SuffStats, g: GaussianDag) -> float:
    """Complete-data log likelihood of a DAG component evaluated from a triple.

    With (A, c, log|V|) the component's ``regression_form``, each case
    contributes -(n log 2pi + log|V| + |A x - c|^2) / 2, and the squared
    residuals sum over the cases to tr(A s A^T) - 2 c^T A r + N c^T c, so
    the raw cases are never revisited and nothing is factored.
    """
    if t.n <= COUNT_FLOOR:
        return 0.0
    a, c, log_var = g.regression_form
    quad = np.sum((a @ t.s) * a) - 2.0 * (c @ (a @ t.r)) + t.n * (c @ c)
    return -0.5 * (t.n * (t.dim * LOG_2PI + log_var) + quad)


def completed_loglik(mix_stats: MixtureStats, model: MdagModel) -> float:
    """Log likelihood of the completion summarized by the statistics.

    Each component contributes n_c log pi_c plus its complete-data Gaussian
    log likelihood (or the fixed uniform mass for the noise component).
    """
    total = 0.0
    if model.noise is not None and mix_stats.noise_count > COUNT_FLOOR:
        total += mix_stats.noise_count * (np.log(model.weights[0]) - model.noise.log_volume)
    for t, g, w in zip(mix_stats.triples, model.components, model.gaussian_weights(), strict=True):
        if t.n <= COUNT_FLOOR:
            continue
        total += t.n * np.log(w) + gaussian_complete_loglik(t, g)
    return float(total)


def _checked_heldout(data: np.ndarray, n: int) -> np.ndarray:
    """Held-out data as a matrix of n columns and at least one case: the
    one check of data width against a model, made where held-out data enters."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != n:
        raise DimensionMismatch(f"data shape {data.shape} does not match n={n}")
    if data.shape[0] == 0:
        raise EmptyTestSet("predictive score needs at least one test case")
    return data


def predictive_score(test_data: np.ndarray, model: MdagModel) -> float:
    """Mean per-case log density of held-out data at the MAP parameters."""
    cases = group_cases(_checked_heldout(test_data, model.n))
    return observed_loglik(cases, model) / cases.cases
