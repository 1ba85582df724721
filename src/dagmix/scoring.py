"""Model-level criteria assembled from the conjugate building blocks.

The complete-model score treats a set of (expected) statistics as if they
summarized a complete data set: a Dirichlet term for the component counts
plus per-component per-node family scores, so changing one parent set
changes exactly one term.  The observed log likelihood and the completed
log likelihood are the two halves of the correction that
``engine.cheeseman_stutz`` adds to it, both at the MAP parameters; that is
the one place the Cheeseman-Stutz score is computed.  The complete-model
score reads the family marginals of every Gaussian component, zipped with
the structures, off the one posterior of the statistics that search and
the M step after it read too (``bayes.family_marginals``): ``fit`` passes
the marginals its search just climbed on, whose memos hold every family
of the structures search returned.  The completed log likelihood reads
the stacked counts, sums and second moments against the model's
``StackedParams``, the regression forms the M step wrote and the E sweep
reads.  The noise component's count stands apart in both.

These functions are internal and assume validated input: data, models and
statistics arrive through the checked entry points that the package
docstring lists, or are built from them.  Each score is a float, and the
log likelihoods take ``CaseGroups``.  ``_checked_data`` is the one cell
rule for data: ``fit`` and ``select_k`` apply it to training data, and
``predictive_score`` to held-out data, with its width and size
(``_checked_heldout``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bayes import DirichletPrior, FamilyMarginals, dirichlet_log_marglik, node_families
from .errors import DimensionMismatch, EmptyTestSet, NonNumericValue
from .model import DagStructure, MdagModel
from .stats import COUNT_FLOOR, CaseGroups, MixtureStats, group_cases, mixture_loglik


def complete_model_score(
    mix_stats: MixtureStats,
    structures: Sequence[DagStructure],
    marginals: Sequence[FamilyMarginals],
    dirichlet: DirichletPrior,
    noise=None,
) -> float:
    """Factored score of the statistics under per-component structures.

    ``structures[c]`` is scored on ``marginals[c]``, the family marginals
    of Gaussian component c of the statistics (``family_marginals``), read
    off their memos where they hold a family; the noise component, present
    when ``noise`` is given, contributes its fixed uniform mass over
    ``mix_stats.noise_count`` cases, never a learned term.
    """
    c_term = dirichlet_log_marglik(dirichlet, mix_stats.counts)
    noise_term = 0.0 if noise is None else -mix_stats.noise_count * noise.log_volume
    locals_ = []
    for component, structure in zip(marginals, structures, strict=True):
        values = component.fill(node_families(enumerate(structure.parents)))
        locals_.append([top - base for top, base in zip(values[::2], values[1::2])])
    return c_term + noise_term + sum(sum(ls) for ls in locals_)


def observed_loglik(cases: CaseGroups, model: MdagModel) -> float:
    """Log likelihood of the cases at the model's parameters.

    Missing coordinates are marginalized per component through the
    observed-block Gaussian marginals.
    """
    return mixture_loglik(cases, model.stacked)


def completed_loglik(mix_stats: MixtureStats, model: MdagModel) -> float:
    """Log likelihood of the completion summarized by the statistics.

    Gaussian component j contributes N log pi_j plus its complete-data log
    likelihood, read off its count N, sums r and second moments s and off
    row j of the model's ``StackedParams``: with (A, c, log|V|) its
    regression form, each case contributes -(n log 2pi + log|V| +
    |A x - c|^2) / 2, and the squared residuals sum over the cases to
    tr(A s A^T) - 2 c^T A r + N c^T c, so the raw cases are never revisited
    and nothing is factored.  The noise component contributes its fixed
    uniform mass, and a count at or below ``COUNT_FLOOR`` nothing.
    """
    params = model.stacked
    total = 0.0
    if model.noise is not None and mix_stats.noise_count > COUNT_FLOOR:
        total += mix_stats.noise_count * (np.log(model.weights[0]) - model.noise.log_volume)
    counts = mix_stats.gaussian_counts
    for j, (count, w) in enumerate(zip(counts, model.gaussian_weights(), strict=True)):
        if count <= COUNT_FLOOR:
            continue
        a, c = params.a[j], params.c[j]
        quad = (np.sum((a @ mix_stats.seconds[j]) * a) - 2.0 * (c @ (a @ mix_stats.sums[j]))
                + count * (c @ c))
        total += count * np.log(w) - 0.5 * (count * params.const[j] + quad)
    return float(total)


def _checked_data(data) -> np.ndarray:
    """Data as a cases-by-variables float matrix (n >= 1), cells finite or NaN:
    the one cell rule, for training data where a fit starts and for
    held-out data where it is scored.  Complex cells are refused before the
    cast, which would keep their real parts alone."""
    try:
        data = np.asarray(data)
        if data.dtype.kind != "c":
            data = data.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise NonNumericValue(f"data cells must be numbers: {exc}") from None
    if data.dtype.kind == "c":
        raise NonNumericValue("data cells must be real numbers, not complex")
    if data.ndim != 2 or data.shape[1] == 0:
        raise DimensionMismatch(f"data must be cases by n >= 1 variables, not {data.shape}")
    if np.isinf(data).any():
        raise NonNumericValue("data cells must be finite numbers or NaN (missing)")
    return data


def _checked_heldout(data: np.ndarray, n: int) -> np.ndarray:
    """Held-out data as ``_checked_data`` gives it, with n columns and at
    least one case: the one check of data width against a model, made where
    held-out data enters."""
    data = _checked_data(data)
    if data.shape[1] != n:
        raise DimensionMismatch(f"data shape {data.shape} does not match n={n}")
    if data.shape[0] == 0:
        raise EmptyTestSet("predictive score needs at least one test case")
    return data


def predictive_score(test_data: np.ndarray, model: MdagModel) -> float:
    """Mean per-case log density of held-out data at the MAP parameters."""
    cases = group_cases(_checked_heldout(test_data, model.n))
    return observed_loglik(cases, model) / cases.cases
