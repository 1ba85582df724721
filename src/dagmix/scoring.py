"""Model-level criteria assembled from the conjugate building blocks.

The complete-model score treats a set of (expected) statistics as if they
summarized a complete data set: a Dirichlet term for the component counts
plus per-component per-node family scores, so changing one parent set
changes exactly one term.  The observed log likelihood and the completed
log likelihood are the two halves of the correction that
``engine.cheeseman_stutz`` adds to it, both at the MAP parameters; that is
the one place the Cheeseman-Stutz score is computed.  The functions here
read a ``MixtureStats``: one triple per Gaussian component, zipped with the
structures or components, and the noise component's count apart; one
Normal-Wishart prior serves every component.

These functions are internal and assume validated input: data, models and
statistics arrive through the checked entry points that the package
docstring lists, or are built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bayes import (
    DirichletPrior,
    FamilyMarginals,
    NormalWishart,
    dirichlet_log_marglik,
    local_score,
)
from .errors import EmptyTestSet
from .model import LOG_2PI, DagStructure, GaussianDag, MdagModel
from .stats import (
    CaseGroups,
    MixtureStats,
    SuffStats,
    _normalize_responsibilities,
    component_case_loglik,
)


@dataclass(frozen=True)
class ScoreBreakdown:
    """Additive pieces of the complete-model score."""

    c_term: float
    local_scores: tuple[tuple[float, ...], ...]  # per Gaussian component, per node
    noise_term: float

    @property
    def total(self) -> float:
        return self.c_term + self.noise_term + sum(sum(ls) for ls in self.local_scores)


def complete_model_score(
    mix_stats: MixtureStats,
    structures: Sequence[DagStructure],
    prior: NormalWishart,
    dirichlet: DirichletPrior,
    noise=None,
) -> ScoreBreakdown:
    """Factored score of the statistics under per-component structures.

    ``structures[c]`` is scored on ``mix_stats.triples[c]``; the noise
    component, present when ``noise`` is given, contributes its fixed
    uniform mass over ``mix_stats.noise_count`` cases, never a learned term.
    """
    c_term = dirichlet_log_marglik(dirichlet, mix_stats.counts())
    locals_: list[tuple[float, ...]] = []
    for t, structure in zip(mix_stats.triples, structures, strict=True):
        marginals = FamilyMarginals(prior, t)
        locals_.append(
            tuple(local_score(marginals, i, ps) for i, ps in enumerate(structure.parents))
        )
    noise_term = 0.0
    if noise is not None:
        noise_term = -mix_stats.noise_count * noise.log_volume
    return ScoreBreakdown(c_term, tuple(locals_), noise_term)


def observed_loglik(data: np.ndarray | CaseGroups, model: MdagModel) -> float:
    """Log likelihood of the data (a matrix or its ``group_cases``) at the
    model's parameters.

    Missing coordinates are marginalized per component through the
    observed-block Gaussian marginals.
    """
    logp = component_case_loglik(model, data)
    return float(np.sum(_normalize_responsibilities(logp, model.weights)[1]))


def gaussian_complete_loglik(t: SuffStats, g: GaussianDag) -> float:
    """Complete-data log likelihood of a DAG component evaluated from a triple.

    With (A, c, log|V|) the component's ``regression_form``, each case
    contributes -(n log 2pi + log|V| + |A x - c|^2) / 2, and the squared
    residuals sum over the cases to tr(A s A^T) - 2 c^T A r + N c^T c, so
    the raw cases are never revisited and nothing is factored.
    """
    if t.n <= 0:
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
    if model.noise is not None and mix_stats.noise_count > 0:
        total += mix_stats.noise_count * (np.log(model.weights[0]) - model.noise.log_volume)
    for t, g, w in zip(mix_stats.triples, model.components, model.gaussian_weights(), strict=True):
        if t.n <= 0:
            continue
        total += t.n * np.log(w) + gaussian_complete_loglik(t, g)
    return float(total)


def predictive_score(test_data: np.ndarray, model: MdagModel) -> float:
    """Mean per-case log density of held-out data at the MAP parameters."""
    test_data = np.asarray(test_data, dtype=float)
    if test_data.shape[0] == 0:
        raise EmptyTestSet("predictive score needs at least one test case")
    return observed_loglik(test_data, model) / test_data.shape[0]
