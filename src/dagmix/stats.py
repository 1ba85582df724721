"""Sufficient-statistic triples and their expected (E-step) counterparts.

Each mixture component accumulates a triple (n, r, s): expected case
count, expected sum of x, and expected sum of outer products x x^T.  With
a hidden mixture indicator and possibly missing coordinates, the exact
statistics are replaced by expectations under the current model, taken
per case given whatever was observed for that case.  These expected
statistics keep the full cross-product matrix so that structures visited
later during search are supported no matter which dependencies they use.

Missing values are NaN cells in the data matrix.  Cases are grouped by
observation mask so per-mask quantities (marginal factorizations,
conditional-moment operators) are computed once per sweep.
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


# --- per-mask Gaussian sub-block machinery ----------------------------------


def gaussian_block(
    mean: np.ndarray, cov: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Observed/missing split of N(mean, cov) under an observation mask.

    Returns (obs, mis, chol, gain, cond_cov): the observed and missing
    indices, the Cholesky factor of Sigma_oo, the regression gain
    Sigma_mo Sigma_oo^-1, and the conditional covariance of the missing
    coordinates given the observed ones.
    """
    obs = np.flatnonzero(mask)
    mis = np.flatnonzero(~mask)
    chol = _chol_with_jitter(cov[np.ix_(obs, obs)], SingularObservedBlock)
    if mis.size:
        gain = _chol_solve(chol, cov[np.ix_(obs, mis)]).T
        cond_cov = cov[np.ix_(mis, mis)] - gain @ cov[np.ix_(obs, mis)]
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
    else:
        gain = np.zeros((0, obs.size))
        cond_cov = np.zeros((0, 0))
    return obs, mis, chol, gain, cond_cov


def _mask_groups(data: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    observed = ~np.isnan(data)
    if observed.all():  # complete data: one group, no sorting pass
        return [(np.ones(data.shape[1], dtype=bool), np.arange(data.shape[0]))]
    masks, inverse = np.unique(observed, axis=0, return_inverse=True)
    return [(masks[g], np.flatnonzero(inverse == g)) for g in range(masks.shape[0])]


def _component_blocks(model: MdagModel, mask: np.ndarray) -> list[tuple]:
    """(mean,) + gaussian_block(mean, cov, mask) of every Gaussian component."""
    moments = [g.joint_moments for g in model.components]
    return [(mean,) + gaussian_block(mean, cov, mask) for mean, cov in moments]


def _group_component_loglik(
    model: MdagModel, blocks: list[tuple], mask: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """(len(rows), n_components) log density of the observed block per row."""
    out = np.empty((rows.shape[0], model.n_components))
    col = 0
    obs = np.flatnonzero(mask)
    if model.has_noise:
        assert model.noise is not None
        if obs.size:
            lo = model.noise.lower[obs]
            hi = model.noise.upper[obs]
            inside = np.all((rows[:, obs] >= lo) & (rows[:, obs] <= hi), axis=1)
            dens = -np.sum(np.log(hi - lo))
            out[:, 0] = np.where(inside, dens, -np.inf)
        else:
            out[:, 0] = 0.0
        col = 1
    for j, (mean, obs_idx, _, chol, _, _) in enumerate(blocks):
        if obs_idx.size == 0:
            out[:, col + j] = 0.0
            continue
        centered = rows[:, obs_idx] - mean[obs_idx]
        solved = np.linalg.solve(chol, centered.T)
        quad = np.sum(solved**2, axis=0)
        logdet = _chol_logdet(chol)
        out[:, col + j] = -0.5 * (obs_idx.size * np.log(2 * np.pi) + logdet + quad)
    return out


def component_case_loglik(model: MdagModel, data: np.ndarray) -> np.ndarray:
    """Matrix of per-case, per-component log densities of the observed parts.

    Weight ordering (noise first when present); weights themselves are not
    applied.  NaN cells mark missing coordinates.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != model.n:
        raise DimensionMismatch(f"data shape {data.shape} does not match n={model.n}")
    out = np.empty((data.shape[0], model.n_components))
    for mask, idx in _mask_groups(data):
        blocks = _component_blocks(model, mask)
        out[idx] = _group_component_loglik(model, blocks, mask, data[idx])
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


def expected_stats(data: np.ndarray, model: MdagModel) -> tuple[MixtureStats, float]:
    """Expected complete-data statistics of the mixture, one sweep over cases.

    Per case and component: the count gains the responsibility r; the sum
    gains r * E[x | y, c] (observed coordinates kept as observed, missing
    ones replaced by the component's conditional mean); the outer-product
    sum gains r * (E[x|y,c] E[x|y,c]^T + conditional covariance padded with
    zeros on observed coordinates).  Dropping that covariance term would
    understate second moments, so it is always added.  The noise component
    only accumulates its count.

    Also returns the observed log likelihood at ``model``, read off the
    same densities; it equals ``scoring.observed_loglik`` bit for bit.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != model.n:
        raise DimensionMismatch(f"data shape {data.shape} does not match n={model.n}")
    n = model.n
    offset = 1 if model.has_noise else 0
    counts = np.zeros(model.n_components)
    sums = [np.zeros(n) for _ in range(model.n_components)]
    outers = [np.zeros((n, n)) for _ in range(model.n_components)]
    row_loglik = np.empty(data.shape[0])
    for mask, idx in _mask_groups(data):
        rows = data[idx]
        blocks = _component_blocks(model, mask)
        logp = _group_component_loglik(model, blocks, mask, rows)
        resp, row_loglik[idx] = _normalize_responsibilities(logp, model.weights)
        if not mask.any():
            resp = np.tile(model.weights, (rows.shape[0], 1))
        counts += resp.sum(axis=0)
        for j, (mean, obs, mis, _, gain, cond_cov) in enumerate(blocks):
            col = offset + j
            r = resp[:, col]
            completed = np.empty_like(rows)
            completed[:, obs] = rows[:, obs]
            if mis.size:
                completed[:, mis] = mean[mis] + (rows[:, obs] - mean[obs]) @ gain.T
            sums[col] += r @ completed
            outers[col] += (completed * r[:, None]).T @ completed
            if mis.size:
                pad = np.zeros((n, n))
                pad[np.ix_(mis, mis)] = cond_cov
                outers[col] += r.sum() * pad
    triples = [
        SuffStats(float(counts[c]), sums[c], 0.5 * (outers[c] + outers[c].T))
        for c in range(model.n_components)
    ]
    return MixtureStats(tuple(triples), float(data.shape[0])), float(np.sum(row_loglik))
