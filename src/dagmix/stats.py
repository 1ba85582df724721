"""Sufficient-statistic triples and their expected (E-step) counterparts.

Each mixture component accumulates a triple (n, r, s): expected case
count, expected sum of x, and expected sum of outer products x x^T.  With
a hidden mixture indicator and possibly missing coordinates, the exact
statistics are replaced by expectations under the current model, taken
per case given whatever was observed for that case.  These expected
statistics keep the full cross-product matrix so that structures visited
later during search are supported no matter which dependencies they use.

Missing values are NaN cells in the data matrix.  ``group_cases`` groups
the cases by observation mask once per data set, with the rows and index
arrays of each group, so a sweep only computes what depends on the model:
per mask, the marginal factorizations and conditional-moment operators of
all components at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllComponentsZeroDensity,
    BadComponentIndex,
    DimensionMismatch,
    ShapeMismatch,
    SingularObservedBlock,
)
from .model import MdagModel, _chol_logdet, _chol_solve, _chol_with_jitter


@dataclass(frozen=True)
class SuffStats:
    """(n, r, s): case count, sum of x, sum of x x^T; n may be fractional."""

    n: float
    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        if self.s.shape != (self.r.shape[0], self.r.shape[0]):
            raise ShapeMismatch("s must be square with side len(r)")

    @property
    def dim(self) -> int:
        return self.r.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "SuffStats":
        return cls(0.0, np.zeros(dim), np.zeros((dim, dim)))

    def scatter(self) -> np.ndarray:
        """Centered scatter s - r r^T / n (zero matrix when n == 0)."""
        if self.n <= 0:
            return np.zeros_like(self.s)
        return self.s - np.outer(self.r, self.r) / self.n


@dataclass(frozen=True)
class MixtureStats:
    """Per-component SuffStats plus the number of cases they summarize.

    Component order matches the model's weight vector; a noise component's
    triple carries only its count (r and s stay zero and are never read).
    With the mixture indicator as the only discrete variable, one triple
    per component is the whole story; a model with further discrete
    variables would instead keep a sparse map from observed discrete
    configurations to triples.
    """

    triples: tuple[SuffStats, ...]
    total_cases: float

    def __post_init__(self):
        object.__setattr__(self, "triples", tuple(self.triples))

    @property
    def n_components(self) -> int:
        return len(self.triples)

    @property
    def dim(self) -> int:
        return self.triples[0].dim

    def counts(self) -> np.ndarray:
        return np.array([t.n for t in self.triples])


def _checked_labels(labels, cases: int, k: int) -> np.ndarray:
    """``labels`` as one integer component index in [0, k) per case."""
    labels = np.asarray(labels)
    if labels.shape != (cases,):
        raise ShapeMismatch("one label per case required")
    if labels.size and (
        labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= k
    ):
        raise BadComponentIndex(f"labels must be integers in [0, {k})")
    return labels


def labeled_stats(data: np.ndarray, labels: np.ndarray, k: int) -> MixtureStats:
    """Exact statistics for complete data with observed component labels."""
    data = np.asarray(data, dtype=float)
    if np.isnan(data).any():
        raise DimensionMismatch("labeled statistics require complete data")
    labels = _checked_labels(labels, data.shape[0], k)
    triples = []
    for c in range(k):
        rows = data[labels == c]
        triples.append(SuffStats(float(rows.shape[0]), rows.sum(axis=0), rows.T @ rows))
    return MixtureStats(tuple(triples), float(data.shape[0]))


# --- cases grouped by observation mask ---------------------------------------


@dataclass(frozen=True, eq=False)
class CaseGroup:
    """The cases that share one observation mask, with every piece of a
    sweep over them that depends on the data alone.

    ``idx`` lists the cases in ascending order and ``rows`` holds their
    data; ``rows_obs`` is ``rows[:, obs]`` (``rows`` itself when nothing is
    missing).  ``oo``, ``om`` and ``mm`` are the index meshes of the
    observed-observed, observed-missing and missing-missing blocks of an
    n x n matrix.
    """

    mask: np.ndarray
    idx: np.ndarray
    obs: np.ndarray
    mis: np.ndarray
    rows: np.ndarray
    rows_obs: np.ndarray
    oo: tuple[np.ndarray, np.ndarray]
    om: tuple[np.ndarray, np.ndarray]
    mm: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class CaseGroups:
    """A cases-by-n data matrix grouped by observation mask (masks in
    ``np.unique`` row order).  ``group_cases`` builds it once per data set,
    and every sweep over that data set reuses it."""

    groups: tuple[CaseGroup, ...]
    cases: int
    n: int


def _case_group(mask: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> CaseGroup:
    obs = np.flatnonzero(mask)
    mis = np.flatnonzero(~mask)
    rows_obs = rows if mis.size == 0 else rows[:, obs]
    return CaseGroup(
        mask, idx, obs, mis, rows, rows_obs,
        np.ix_(obs, obs), np.ix_(obs, mis), np.ix_(mis, mis),
    )


def group_cases(data: np.ndarray) -> CaseGroups:
    """Group the cases of a data matrix (NaN cells missing) by observation mask."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"data shape {data.shape} is not cases by variables")
    cases, n = data.shape
    observed = ~np.isnan(data)
    if observed.all():  # complete data: one group, no sorting pass
        mask = np.ones(n, dtype=bool)
        group = _case_group(mask, np.arange(cases), np.ascontiguousarray(data))
        return CaseGroups((group,), cases, n)
    masks, inverse, sizes = np.unique(
        observed, axis=0, return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse.ravel(), kind="stable")
    groups = tuple(
        _case_group(mask, idx, data[idx])
        for mask, idx in zip(masks, np.split(order, np.cumsum(sizes)[:-1]))
    )
    return CaseGroups(groups, cases, n)


def _grouped(data: np.ndarray | CaseGroups, model: MdagModel) -> CaseGroups:
    """``data`` as CaseGroups (grouped here if it is a raw matrix) over the
    model's n variables."""
    cases = data if isinstance(data, CaseGroups) else group_cases(data)
    if cases.n != model.n:
        raise DimensionMismatch(
            f"data shape {(cases.cases, cases.n)} does not match n={model.n}"
        )
    return cases


# --- per-mask Gaussian sub-blocks ---------------------------------------------

# Observed cells of a group up to which the density solves of all components
# run as one stacked call.  Measured with one BLAS thread: stacking halves
# the time of blocks of a few hundred cells and costs a third more at
# 40 x 3000, where copying the stacked right-hand side dominates.
_STACKED_SOLVE_CELLS = 8192


def _joint_stack(model: MdagModel) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) means and (k, n, n) covariances of the Gaussian components."""
    moments = [g.joint_moments for g in model.components]
    n = model.n
    means = np.array([mean for mean, _ in moments]).reshape(-1, n)
    covs = np.array([cov for _, cov in moments]).reshape(-1, n, n)
    return means, covs


def _observed_factors(covs: np.ndarray, group: CaseGroup) -> np.ndarray:
    """Cholesky factors of every component's Sigma_oo, in one stacked call.

    When a block is not positive definite the stack raises, and each block
    is factored on its own with the jitter retry, so a jittered component
    gets the same factor as when factored alone."""
    blocks = covs[:, group.oo[0], group.oo[1]]
    try:
        return np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        factors = [_chol_with_jitter(b, SingularObservedBlock) for b in blocks]
        return np.array(factors).reshape(blocks.shape)


def _conditionals(
    covs: np.ndarray, chols: np.ndarray, group: CaseGroup
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per component, the regression gain Sigma_mo Sigma_oo^-1 of the missing
    coordinates on the observed ones, and their conditional covariance."""
    # C order: each component's block then has the memory layout of a block
    # indexed alone, and the products below round exactly as they did
    covs_om = np.ascontiguousarray(covs[:, group.om[0], group.om[1]])
    covs_mm = np.ascontiguousarray(covs[:, group.mm[0], group.mm[1]])
    gains = np.linalg.solve(
        chols.transpose(0, 2, 1), np.linalg.solve(chols, covs_om)
    ).transpose(0, 2, 1)
    cond_covs = []
    for gain, cov_om, cov_mm in zip(gains, covs_om, covs_mm):
        cond_cov = cov_mm - gain @ cov_om
        cond_covs.append(0.5 * (cond_cov + cond_cov.T))
    return gains, cond_covs


def _group_loglik(
    model: MdagModel, means: np.ndarray, chols: np.ndarray, group: CaseGroup
) -> np.ndarray:
    """(cases in group, n_components) log density of the observed block."""
    rows = group.rows_obs
    obs = group.obs
    out = np.empty((rows.shape[0], model.n_components))
    col = 0
    if model.has_noise:
        assert model.noise is not None
        if obs.size:
            lo = model.noise.lower[obs]
            hi = model.noise.upper[obs]
            inside = np.all((rows >= lo) & (rows <= hi), axis=1)
            dens = -np.sum(np.log(hi - lo))
            out[:, 0] = np.where(inside, dens, -np.inf)
        else:
            out[:, 0] = 0.0
        col = 1
    if obs.size == 0:
        out[:, col:] = 0.0
        return out
    if rows.size <= _STACKED_SOLVE_CELLS:  # small blocks: one call for all
        centered = rows - means[:, None, obs]
        solved = np.linalg.solve(chols, centered.transpose(0, 2, 1))
    else:  # large blocks: a stacked right-hand side costs more than the calls
        solved = [
            np.linalg.solve(chol, (rows - mean[obs]).T)
            for chol, mean in zip(chols, means)
        ]
    for j, chol in enumerate(chols):
        quad = np.sum(solved[j] ** 2, axis=0)
        logdet = _chol_logdet(chol)
        out[:, col + j] = -0.5 * (obs.size * np.log(2 * np.pi) + logdet + quad)
    return out


def component_case_loglik(
    model: MdagModel, data: np.ndarray | CaseGroups
) -> np.ndarray:
    """Matrix of per-case, per-component log densities of the observed parts.

    Weight ordering (noise first when present); weights themselves are not
    applied.  ``data`` is a matrix with NaN cells marking missing
    coordinates, or its ``group_cases``.
    """
    cases = _grouped(data, model)
    means, covs = _joint_stack(model)
    out = np.empty((cases.cases, model.n_components))
    for group in cases.groups:
        chols = _observed_factors(covs, group)
        out[group.idx] = _group_loglik(model, means, chols, group)
    return out


def _normalize_responsibilities(
    logp: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row posterior component probabilities and log sum_c pi_c p(y|c)."""
    with np.errstate(divide="ignore"):
        logw = np.where(weights > 0, np.log(weights), -np.inf)
    scores = logp + logw
    top = scores.max(axis=1, keepdims=True)
    bad = ~np.isfinite(top[:, 0])
    if bad.any():
        raise AllComponentsZeroDensity(
            f"{int(bad.sum())} case(s) have zero density under every "
            "positive-weight component"
        )
    resp = np.exp(scores - top)
    total = resp.sum(axis=1, keepdims=True)
    resp /= total
    return resp, (top + np.log(total))[:, 0]


def expected_stats(
    data: np.ndarray | CaseGroups, model: MdagModel
) -> tuple[MixtureStats, float]:
    """Expected complete-data statistics of the mixture, one sweep over cases.

    ``data`` is a matrix with NaN cells marking missing coordinates, or its
    ``group_cases``; a caller that sweeps the same data repeatedly groups
    it once.  Per case and component: the count gains the responsibility
    r; the sum gains r * E[x | y, c] (observed coordinates kept as
    observed, missing ones replaced by the component's conditional mean);
    the outer-product sum gains r * (E[x|y,c] E[x|y,c]^T + conditional
    covariance padded with zeros on observed coordinates).  Dropping that
    covariance term would understate second moments, so it is always
    added.  The noise component only accumulates its count.

    Also returns the observed log likelihood at ``model``, read off the
    same densities; it equals ``scoring.observed_loglik`` bit for bit.
    """
    cases = _grouped(data, model)
    n = model.n
    offset = 1 if model.has_noise else 0
    counts = np.zeros(model.n_components)
    sums = [np.zeros(n) for _ in range(model.n_components)]
    outers = [np.zeros((n, n)) for _ in range(model.n_components)]
    row_loglik = np.empty(cases.cases)
    means, covs = _joint_stack(model)
    for group in cases.groups:
        rows, rows_obs, obs, mis = group.rows, group.rows_obs, group.obs, group.mis
        chols = _observed_factors(covs, group)
        logp = _group_loglik(model, means, chols, group)
        resp, row_loglik[group.idx] = _normalize_responsibilities(logp, model.weights)
        if not obs.size:
            resp = np.tile(model.weights, (rows.shape[0], 1))
        counts += resp.sum(axis=0)
        if mis.size:
            gains, cond_covs = _conditionals(covs, chols, group)
        for j, mean in enumerate(means):
            col = offset + j
            r = resp[:, col]
            completed = rows
            if mis.size:
                completed = rows.copy()
                completed[:, mis] = mean[mis] + (rows_obs - mean[obs]) @ gains[j].T
            sums[col] += r @ completed
            outers[col] += (completed * r[:, None]).T @ completed
            if mis.size:
                pad = np.zeros((n, n))
                pad[group.mm] = cond_covs[j]
                outers[col] += r.sum() * pad
    triples = [
        SuffStats(float(counts[c]), sums[c], 0.5 * (outers[c] + outers[c].T))
        for c in range(model.n_components)
    ]
    return MixtureStats(tuple(triples), float(cases.cases)), float(np.sum(row_loglik))
