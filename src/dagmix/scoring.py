"""Model-level criteria assembled from the conjugate building blocks.

The complete-model score treats a set of (expected) statistics as if they
summarized a complete data set: a Dirichlet term for the component counts
plus per-component per-node family scores, so changing one parent set
changes exactly one term.  The Cheeseman-Stutz score corrects that value
back toward the observed-data marginal likelihood with a likelihood ratio
between the observed data and its completion, both evaluated at the MAP
parameters.
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
from .errors import AllComponentsZeroDensity, DimensionMismatch, EmptyTestSet
from .model import LOG_2PI, DagStructure, GaussianDag, MdagModel
from .stats import (
    CaseGroups,
    MixtureStats,
    SuffStats,
    _checked_labels,
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
    priors: Sequence[NormalWishart],
    dirichlet: DirichletPrior,
    noise=None,
) -> ScoreBreakdown:
    """Factored score of the statistics under per-component structures.

    The statistics triples must be ordered like the model weights (noise
    first when a noise component exists); the noise component contributes
    its fixed uniform mass, never a learned term.
    """
    n_structures = len(structures)
    offset = mix_stats.n_components - n_structures
    if offset not in (0, 1) or (offset == 1) != (noise is not None):
        raise DimensionMismatch(
            f"{mix_stats.n_components} statistic triples for {n_structures} "
            f"structures (noise={'yes' if noise is not None else 'no'})"
        )
    if len(priors) != n_structures:
        raise DimensionMismatch("one Normal-Wishart prior per Gaussian component")
    c_term = dirichlet_log_marglik(dirichlet, mix_stats.counts())
    locals_: list[tuple[float, ...]] = []
    for c, structure in enumerate(structures):
        t = mix_stats.triples[offset + c]
        marginals = FamilyMarginals(priors[c], t)
        locals_.append(
            tuple(
                local_score(priors[c], t, i, ps, marginals)
                for i, ps in enumerate(structure.parents)
            )
        )
    noise_term = 0.0
    if noise is not None:
        noise_term = -mix_stats.triples[0].n * noise.log_volume
    return ScoreBreakdown(c_term, tuple(locals_), noise_term)


def observed_loglik(
    data: np.ndarray | CaseGroups, model: MdagModel, labels: np.ndarray | None = None
) -> float:
    """Log likelihood of the data (a matrix or its ``group_cases``) at the
    model's parameters.

    Missing coordinates are marginalized per component through the
    observed-block Gaussian marginals.  With ``labels`` the component
    indicator is treated as observed: each case contributes its own
    component's (weighted) density instead of the mixture.
    """
    logp = component_case_loglik(model, data)
    if labels is None:
        return float(np.sum(_normalize_responsibilities(logp, model.weights)[1]))
    labels = _checked_labels(labels, logp.shape[0], model.n_components)
    with np.errstate(divide="ignore"):
        logw = np.where(model.weights > 0, np.log(model.weights), -np.inf)
    picked = logw[labels] + logp[np.arange(labels.shape[0]), labels]
    if not np.all(np.isfinite(picked)):
        raise AllComponentsZeroDensity(
            "a case has zero density under its labeled component"
        )
    return float(np.sum(picked))


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
    if mix_stats.n_components != model.n_components:
        raise DimensionMismatch("statistics and model component counts differ")
    total = 0.0
    offset = 1 if model.has_noise else 0
    if model.has_noise:
        t0 = mix_stats.triples[0]
        if t0.n > 0:
            assert model.noise is not None
            total += t0.n * (np.log(model.weights[0]) - model.noise.log_volume)
    for j, g in enumerate(model.components):
        t = mix_stats.triples[offset + j]
        if t.n <= 0:
            continue
        w = model.weights[offset + j]
        total += t.n * np.log(w) + gaussian_complete_loglik(t, g)
    return float(total)


def cheeseman_stutz_score(
    data: np.ndarray,
    model: MdagModel,
    priors: Sequence[NormalWishart],
    dirichlet: DirichletPrior,
    mix_stats: MixtureStats,
    labels: np.ndarray | None = None,
) -> float:
    """Approximate log marginal likelihood of the observed data.

    Complete-model score of the completion, plus the log ratio of the
    observed-data likelihood to the completed-data likelihood, both at the
    model's (MAP) parameters.  The caller must pass parameters that are
    MAP for the structures being scored, and the statistics that produced
    them.  When the completion is the data itself the correction cancels
    and the exact closed form is recovered.
    """
    structures = tuple(g.structure for g in model.components)
    breakdown = complete_model_score(mix_stats, structures, priors, dirichlet, model.noise)
    return (
        breakdown.total
        + observed_loglik(data, model, labels)
        - completed_loglik(mix_stats, model)
    )


def predictive_score(test_data: np.ndarray, model: MdagModel) -> float:
    """Mean per-case log density of held-out data at the MAP parameters."""
    test_data = np.asarray(test_data, dtype=float)
    if test_data.shape[0] == 0:
        raise EmptyTestSet("predictive score needs at least one test case")
    return observed_loglik(test_data, model) / test_data.shape[0]
