"""Sufficient-statistic triples and their expected (E-step) counterparts.

Each Gaussian mixture component accumulates a triple (n, r, s): expected
case count, expected sum of x, and expected sum of outer products x x^T;
a noise component accumulates only its expected count.  With
a hidden mixture indicator and possibly missing coordinates, the exact
statistics are replaced by expectations under the current model, taken
per case given whatever was observed for that case.  These expected
statistics keep the full cross-product matrix so that structures visited
later during search are supported no matter which dependencies they use.

Missing values are NaN cells in the data matrix.  ``group_cases`` groups
the cases by observation mask once per data set, so a sweep only computes
what depends on the model.  The sweep works in regression form: it reads a
``model.StackedParams``, in which each DAG component is z = A x - c, its
nodes' standardised regression residuals, so complete cases are scored
with one product and no joint covariance.  The M step writes those arrays
directly, and ``MdagModel.stacked`` builds them from a model.  A mask with
missing cells conditions every component on the QR factorisation of the
columns of A it misses; those factors depend on the model alone, so they
are built once per sweep, before the cases are visited, with one stacked
QR for all masks with the same number of missing cells.

The sweep takes ``CaseGroups`` alone and checks no input: ``fit`` groups
its checked data once, and held-out data is checked where it enters
(``scoring.predictive_score``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllComponentsZeroDensity
from .model import LOG_2PI, StackedParams

# A count at or below this stands for no cases: a triple's posterior is its
# prior, and neither a triple nor the noise count adds to a likelihood.
COUNT_FLOOR = 1e-250


@dataclass(frozen=True)
class SuffStats:
    """(n, r, s): case count, sum of x, sum of x x^T; n may be fractional."""

    n: float
    r: np.ndarray
    s: np.ndarray

    @property
    def dim(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class MixtureStats:
    """One SuffStats per Gaussian component, plus the noise component's
    expected count (None without a noise component).

    ``triples[c]`` summarizes the cases of ``model.components[c]``, so a
    consumer zips the triples with the structures or components;
    ``counts()`` is the one place that lists the counts in the order of the
    model's weight vector, noise first.  With the mixture indicator as the
    only discrete variable, one triple per component is the whole story; a
    model with further discrete variables would instead keep a sparse map
    from observed discrete configurations to triples.
    """

    triples: tuple[SuffStats, ...]
    noise_count: float | None = None

    def counts(self) -> np.ndarray:
        counts = [t.n for t in self.triples]
        if self.noise_count is not None:
            counts.insert(0, self.noise_count)
        return np.array(counts)


# --- cases grouped by observation mask ---------------------------------------


# Cases per partial sum of a reduction over cases.  A BLAS product over a
# long case dimension adds in an order that depends on the thread count:
# measured with OpenBLAS, products over 256 cases gave the same bytes at one
# and two threads and products over 1,024 cases did not.  Sums over cases
# therefore run in blocks of this many cases, added in order.
_CASE_BLOCK = 256


@dataclass(frozen=True, eq=False)
class CaseGroup:
    """The cases that share one observation mask, with every piece of a
    sweep over them that depends on the data alone.

    ``idx`` lists the cases in ascending order.  ``design`` holds their
    data, missing cells 0, with a column of ones.  ``mm`` is the index mesh
    of the missing-missing block of an n x n matrix.
    """

    mask: np.ndarray
    idx: np.ndarray
    obs: np.ndarray
    mis: np.ndarray
    design: np.ndarray
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
    cases, n = rows.shape
    design = np.zeros((cases, n + 1))
    design[:, obs] = rows[:, obs]
    design[:, n] = 1.0
    return CaseGroup(mask, idx, obs, mis, design, np.ix_(mis, mis))


def group_cases(data: np.ndarray) -> CaseGroups:
    """Group the cases of a data matrix (NaN cells missing) by observation mask."""
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


# --- the E sweep in regression form ------------------------------------------


_Factors = tuple[np.ndarray, np.ndarray, np.ndarray]


def _mask_factors(a: np.ndarray, groups: tuple[CaseGroup, ...]) -> list[_Factors | None]:
    """Each group's model-only factors, built once per sweep: for a mask
    with m missing cells, G = R^-1 Q^T, (k, m, n), the conditional
    covariance G G^T = R^-1 R^-T, (k, m, m), and the log density correction
    (m/2) log 2pi - sum log|R_ii|, (k,), from the QR factorisation
    A_m = QR of the columns of A it misses; None for a complete mask.

    The A_m of every mask with m missing cells are stacked, (masks k, n,
    m), and factored by one QR, one back substitution and one product.
    These call LAPACK and BLAS once per matrix, so each mask's factors have
    the bytes that its own factorisation would give.  QR works on A_m
    itself; the precision block A_m^T A_m would square its condition
    number."""
    k, n = a.shape[:2]
    by_count: dict[int, list[int]] = {}
    for i, group in enumerate(groups):
        if group.mis.size:
            by_count.setdefault(group.mis.size, []).append(i)
    factors: list[_Factors | None] = [None] * len(groups)
    for m, members in by_count.items():
        a_mis = np.concatenate([a[:, :, groups[i].mis] for i in members])
        q, r = np.linalg.qr(a_mis)
        del a_mis
        # G = R^-1 Q^T by back substitution, one row of R at a time
        g = np.empty((q.shape[0], m, n))
        for i in reversed(range(m)):
            rest = q[:, :, i] - np.einsum("kj,kjn->kn", r[:, i, i + 1:], g[:, i + 1:])
            g[:, i] = rest / r[:, i, i, None]
        del q
        covs = g @ g.transpose(0, 2, 1)
        logdiag = np.sum(np.log(np.abs(np.diagonal(r, axis1=1, axis2=2))), axis=1)
        correction = 0.5 * m * LOG_2PI - logdiag
        for j, i in enumerate(members):
            rows = slice(j * k, (j + 1) * k)
            factors[i] = (g[rows], covs[rows], correction[rows])
    return factors


def _condition(
    params: StackedParams, group: CaseGroup, factors: _Factors | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One mask's cases under every component at once, from the stacked
    regression forms and the mask's factors, which ``_mask_factors`` built
    before the sweep; only the products with the cases are left here.

    Returns the (n_components, cases) log densities of the observed cells
    and, for a mask with missing cells, each Gaussian component's
    conditional means of the missing cells, (k, cases, m), and their
    conditional covariance, (k, m, m).

    With z_o = A_o x_o - c and G = R^-1 Q^T, the conditional mean is
    x_m* = -G z_o and log p(x_o) = log p(x_o, x_m*) + (m/2) log 2pi
    - sum log|R_ii|.
    """
    obs, mis = group.obs, group.mis
    a, k, n = params.a, params.k, params.n
    cases = group.design.shape[0]
    logp = np.empty((params.n_components, cases))
    col = 1 if params.has_noise else 0
    if params.noise is not None:  # uniform on the observed cells' box
        rows, lo, hi = group.design[:, obs], params.noise.lower[obs], params.noise.upper[obs]
        inside = np.all((rows >= lo) & (rows <= hi), axis=1)
        logp[0] = np.where(inside, -np.sum(np.log(hi - lo)), -np.inf)
    # (k, cases, n) residuals of every component from one product; a
    # missing cell is 0 in the design, so z holds z_o = A_o x_o - c
    z = (group.design @ params.w).reshape(cases, k, n).transpose(1, 0, 2)
    filled = cond_covs = None
    correction = np.zeros(k)
    if factors is not None:
        g, cond_covs, correction = factors
        filled = -(z @ g.transpose(0, 2, 1))
        z = z + filled @ a[:, :, mis].transpose(0, 2, 1)
    if obs.size:
        quad = np.einsum("kij,kij->ki", z, z)
        logp[col:] = -0.5 * (params.const[:, None] + quad) + correction[:, None]
    else:  # nothing observed: every density is 1
        logp[:] = 0.0
    return logp, filled, cond_covs


def _densities(
    params: StackedParams, cases: CaseGroups
) -> tuple[np.ndarray, list[tuple[np.ndarray | None, np.ndarray | None]]]:
    """``_condition`` over every mask, in group order: the (cases,
    n_components) log densities, a transposed view, and each group's
    conditionals.  The masks' factors are built first, once per sweep, with
    one stacked QR per missing-cell count."""
    factors = _mask_factors(params.a, cases.groups)
    logp = np.empty((params.n_components, cases.cases))
    conditionals = []
    for group, group_factors in zip(cases.groups, factors):
        logp[:, group.idx], *moments = _condition(params, group, group_factors)
        conditionals.append(moments)
    return logp.T, conditionals


def component_case_loglik(params: StackedParams, cases: CaseGroups) -> np.ndarray:
    """Matrix of per-case, per-component log densities of the observed parts.

    Weight ordering (noise first when present); weights themselves are not
    applied.
    """
    return _densities(params, cases)[0]


def _normalize_responsibilities(
    logp: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row posterior component probabilities and log sum_c pi_c p(y|c).

    Works on the transpose, so each reduction over components adds whole
    rows of cases."""
    with np.errstate(divide="ignore"):
        logw = np.where(weights > 0, np.log(weights), -np.inf)
    scores = logp.T + logw[:, None]
    top = scores.max(axis=0)
    bad = ~np.isfinite(top)
    if bad.any():
        raise AllComponentsZeroDensity(
            f"{int(bad.sum())} case(s) have zero density under every "
            "positive-weight component"
        )
    resp = np.exp(scores - top)
    total = resp.sum(axis=0)
    resp /= total
    return resp.T, top + np.log(total)


def expected_stats(cases: CaseGroups, params: StackedParams) -> tuple[MixtureStats, float]:
    """Expected complete-data statistics of the mixture, one sweep over cases.

    Per case and component: the count gains the responsibility r; the sum
    gains r * E[x | y, c] (observed coordinates kept as observed, missing
    ones replaced by the component's conditional mean); the outer-product
    sum gains r * (E[x|y,c] E[x|y,c]^T + conditional covariance padded
    with zeros on observed coordinates).  Dropping that covariance term
    would understate second moments, so it is always added.  The noise
    component only accumulates its count, ``MixtureStats.noise_count``.

    The sums and outer products come from one weighted product of each
    completion, with its column of ones, per block of ``_CASE_BLOCK``
    cases; the blocks are added in order, so the statistics do not depend
    on the BLAS thread count.

    Also returns the observed log likelihood at ``params``, read off the
    same densities; it equals ``scoring.observed_loglik`` bit for bit.
    """
    n, k = params.n, params.k
    offset = 1 if params.has_noise else 0
    logp, conditionals = _densities(params, cases)
    resp_all, row_loglik = _normalize_responsibilities(logp, params.weights)
    counts = np.zeros(params.n_components)
    moments = np.zeros((k, n + 1, n + 1))
    for group, (filled, cond_covs) in zip(cases.groups, conditionals):
        size, mis = group.idx.size, group.mis
        resp = resp_all[group.idx]
        if not group.obs.size:
            resp = np.tile(params.weights, (size, 1))
        counts += resp.sum(axis=0)
        completed = group.design
        if mis.size:
            completed = np.repeat(completed[None], k, axis=0)
            completed[:, :, mis] = filled
        r = np.ascontiguousarray(resp[:, offset:].T)  # the product is slower on a strided r
        weighted = r[:, :, None] * completed
        full = size - size % _CASE_BLOCK
        if full:  # the whole blocks in one batched product
            shape = (-1, _CASE_BLOCK, n + 1)
            blocks = completed[..., :full, :].reshape(*completed.shape[:-2], *shape)
            weighted_blocks = weighted[:, :full].reshape(k, *shape)
            moments += (weighted_blocks.swapaxes(-1, -2) @ blocks).sum(axis=1)
        moments += weighted[:, full:].swapaxes(-1, -2) @ completed[..., full:, :]
        if mis.size:
            moments[:, group.mm[0], group.mm[1]] += r.sum(axis=1)[:, None, None] * cond_covs
    triples = []
    for j in range(k):
        outer = moments[j, :n, :n]
        triples.append(
            SuffStats(float(counts[offset + j]), moments[j, n, :n], 0.5 * (outer + outer.T))
        )
    noise_count = float(counts[0]) if offset else None
    return MixtureStats(tuple(triples), noise_count), float(np.sum(row_loglik))
