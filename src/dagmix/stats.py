"""Sufficient-statistic triples and their expected (E-step) counterparts.

Each Gaussian mixture component accumulates a triple (n, r, s): expected
case count, expected sum of x, and expected sum of outer products x x^T;
a noise component accumulates only its expected count.  A sweep returns
them stacked (``MixtureStats``), as the M step reads them.  With
a hidden mixture indicator and possibly missing coordinates, the exact
statistics are replaced by expectations under the current model, taken
per case given whatever was observed for that case.  These expected
statistics keep the full cross-product matrix so that structures visited
later during search are supported no matter which dependencies they use.

Missing values are NaN cells in the data matrix.  ``group_cases`` groups
the cases by observation mask once per data set, so a sweep only computes
what depends on the model, and sorts them by mask, so that a sweep reads
and writes each mask's cases as one slice of its (components, cases)
arrays.  Those arrays live in a workspace that every sweep over the data
set reuses, so a sweep after the first allocates nothing that grows with
the cases.  The sweep works in regression form: it reads a
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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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


@dataclass(frozen=True, eq=False)
class MixtureStats:
    """A mixture's statistics, stacked: ``counts``, every component's
    expected case count in the order of the model's weight vector (noise
    first when present); ``sums``, (k, n), and ``seconds``, (k, n, n), each
    Gaussian component's expected sums of x and of x x^T.  The noise
    component keeps only its count.

    The M step reads the stacks.  ``triples`` views them as one SuffStats
    per Gaussian component, so that search and scoring zip
    ``triples[c]`` with ``model.components[c]`` or its structure.  With the
    mixture indicator as the only discrete variable, one triple per
    component is the whole story; a model with further discrete variables
    would instead keep a sparse map from observed discrete configurations
    to triples.
    """

    counts: np.ndarray
    sums: np.ndarray
    seconds: np.ndarray

    @property
    def gaussian_counts(self) -> np.ndarray:
        return self.counts[len(self.counts) - len(self.sums):]

    @property
    def noise_count(self) -> float | None:
        """The noise component's expected count; None without one."""
        return float(self.counts[0]) if len(self.counts) > len(self.sums) else None

    @cached_property
    def triples(self) -> tuple[SuffStats, ...]:
        return tuple(
            SuffStats(float(c), r, s)
            for c, r, s in zip(self.gaussian_counts, self.sums, self.seconds)
        )


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

    ``rows`` is the group's slice of the cases in mask order, in which a
    group's cases keep their case order.  ``design`` holds their data,
    missing cells 0, with a column of ones.  ``mm`` is the index mesh of
    the missing-missing block of an n x n matrix.
    """

    mask: np.ndarray
    rows: slice
    obs: np.ndarray
    mis: np.ndarray
    design: np.ndarray
    mm: tuple[np.ndarray, np.ndarray]

    @property
    def size(self) -> int:
        return self.design.shape[0]


@dataclass(frozen=True, eq=False)
class CaseGroups:
    """A cases-by-n data matrix grouped by observation mask (masks in
    ``np.unique`` row order), the cases sorted by mask so that each group
    is a slice.  ``position[i]`` is case i's place in mask order, or None
    when mask order is case order.

    ``group_cases`` builds it once per data set, and every sweep over that
    data set reuses it, together with one ``_Workspace`` per component
    count, so a sweep allocates nothing that grows with the cases.  Two
    sweeps over one CaseGroups must therefore not run at the same time.
    """

    groups: tuple[CaseGroup, ...]
    cases: int
    n: int
    position: np.ndarray | None = None
    _workspaces: dict[tuple[int, int], "_Workspace"] = field(
        default_factory=dict, init=False, repr=False
    )

    def workspace(self, params: StackedParams) -> "_Workspace":
        """The workspace of sweeps at ``params``' component count, built by
        the first of them."""
        key = (params.k, params.n_components)
        ws = self._workspaces.get(key)
        if ws is None:
            ws = self._workspaces[key] = _Workspace(self, *key)
        return ws


def _case_group(mask: np.ndarray, rows: slice, data: np.ndarray) -> CaseGroup:
    obs = np.flatnonzero(mask)
    mis = np.flatnonzero(~mask)
    cases, n = data.shape
    design = np.zeros((cases, n + 1))
    design[:, obs] = data[:, obs]
    design[:, n] = 1.0
    return CaseGroup(mask, rows, obs, mis, design, np.ix_(mis, mis))


def group_cases(data: np.ndarray) -> CaseGroups:
    """Group the cases of a data matrix (NaN cells missing) by observation
    mask, and sort them by mask with a stable sort."""
    cases, n = data.shape
    observed = ~np.isnan(data)
    if observed.all():  # complete data: one group, no sorting pass
        mask = np.ones(n, dtype=bool)
        group = _case_group(mask, slice(0, cases), np.ascontiguousarray(data))
        return CaseGroups((group,), cases, n)
    # each row's mask as one void item of packed bits; big-endian packing
    # keeps the rows' order lexicographic, so the items sort as the rows of
    # ``np.unique(observed, axis=0)`` do, at about an eighth of its cost
    packed = np.packbits(observed, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, sizes = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse, kind="stable")
    stops = np.cumsum(sizes)
    groups = tuple(
        _case_group(observed[i], slice(stop - size, stop), data[order[stop - size:stop]])
        for i, size, stop in zip(first, sizes, stops)
    )
    position = None
    if np.any(order != np.arange(cases)):
        position = np.empty(cases, dtype=np.intp)
        position[order] = np.arange(cases)
    return CaseGroups(groups, cases, n, position)


# --- the sweep's workspace ----------------------------------------------------


def _carve(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous array of ``shape`` over the head of a flat buffer:
    the layout that a fresh array of that shape would have."""
    return buffer[: math.prod(shape)].reshape(shape)


class _GroupViews(NamedTuple):
    """One group's arrays in a workspace.  ``logp`` and ``resp`` are its
    columns of the workspace's; the rest are carved for its size, and
    ``filled``, ``shift`` and ``completed`` are None for a complete mask."""

    logp: np.ndarray  # (n_components, cases)
    resp: np.ndarray  # (n_components, cases)
    z: np.ndarray  # (cases, k n)
    quad: np.ndarray  # (k, cases)
    weighted: np.ndarray  # (k, cases, n + 1), over z
    rows: np.ndarray  # (cases, n_components)
    products: np.ndarray  # (k, whole blocks, n + 1, n + 1)
    filled: np.ndarray | None  # (k, cases, m)
    shift: np.ndarray | None  # (k, cases, n)
    completed: np.ndarray | None  # (k, cases, n + 1), over shift


class _Workspace:
    """The arrays of a sweep that grow with the cases, for one CaseGroups
    and one component count, carved from one buffer that every sweep
    overwrites: ``logp`` and ``resp``, (n_components, cases), in mask
    order; ``top``, ``total`` and ``loglik`` per case; ``ordered``, the
    per-case log likelihoods in case order; and each group's views in
    ``groups``.  The groups share regions sized for the largest group, and
    the conditional means alone get a region per group, since they live
    from the densities to the statistics.  Every view has the shape and
    layout of the fresh array it stands for, so every BLAS, LAPACK and
    einsum call reads what it read when the sweep allocated, and gives the
    same bytes.

    One buffer, not one per array: it is freed with the CaseGroups, and
    glibc's malloc then serves the next fit's allocations of up to its size
    from memory it already mapped, so a fit after the first makes few page
    faults.
    """

    def __init__(self, cases: CaseGroups, k: int, n_components: int):
        n, count, groups = cases.n, cases.cases, cases.groups
        largest = max(group.size for group in groups)
        most_missing = max((g.size for g in groups if g.mis.size), default=0)
        shapes = [
            (n_components, count),  # logp
            (n_components, count),  # resp
            (3, count),  # top, total, loglik
            (0 if cases.position is None else count,),  # ordered
            (largest * n_components,),  # rows
            (k * largest,),  # quad
            (k * largest * (n + 1),),  # z, then the weighted completions
            (k * (largest // _CASE_BLOCK) * (n + 1) ** 2,),  # block products
            (k * most_missing * (n + 1),),  # shift, then the completions
            *((k, group.size, group.mis.size) for group in groups),  # filled
        ]
        sizes = [math.prod(shape) for shape in shapes]
        flat = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        (
            self.logp, self.resp, (self.top, self.total, self.loglik), self.ordered,
            rows, quad, work, products, completed, *filled,
        ) = (view.reshape(shape) for view, shape in zip(flat, shapes))
        self.groups = [
            _GroupViews(
                self.logp[:, group.rows],
                self.resp[:, group.rows],
                _carve(work, group.size, k * n),
                _carve(quad, k, group.size),
                _carve(work, k, group.size, n + 1),
                _carve(rows, group.size, n_components),
                _carve(products, k, group.size // _CASE_BLOCK, n + 1, n + 1),
                *(
                    (means, _carve(completed, k, group.size, n),
                     _carve(completed, k, group.size, n + 1))
                    if group.mis.size else (None, None, None)
                ),
            )
            for group, means in zip(groups, filled)
        ]


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
    params: StackedParams, group: CaseGroup, factors: _Factors | None, views: _GroupViews
) -> None:
    """One mask's cases under every component at once, from the stacked
    regression forms and the mask's factors, which ``_mask_factors`` built
    before the sweep; only the products with the cases are left here.

    Writes the log densities of the observed cells into ``views.logp``
    and, for a mask with missing cells, each Gaussian component's
    conditional means of the missing cells into ``views.filled``.

    With z_o = A_o x_o - c and G = R^-1 Q^T, the conditional mean is
    x_m* = -G z_o and log p(x_o) = log p(x_o, x_m*) + (m/2) log 2pi
    - sum log|R_ii|.
    """
    obs, mis = group.obs, group.mis
    a, k, n = params.a, params.k, params.n
    logp = views.logp
    col = 1 if params.has_noise else 0
    if params.noise is not None:  # uniform on the observed cells' box
        rows, lo, hi = group.design[:, obs], params.noise.lower[obs], params.noise.upper[obs]
        inside = np.all((rows >= lo) & (rows <= hi), axis=1)
        logp[0] = np.where(inside, -np.sum(np.log(hi - lo)), -np.inf)
    # (k, cases, n) residuals of every component from one product; a
    # missing cell is 0 in the design, so z holds z_o = A_o x_o - c
    z = np.matmul(group.design, params.w, out=views.z)
    z = z.reshape(group.size, k, n).transpose(1, 0, 2)
    correction = np.zeros(k)
    if factors is not None:
        g, _, correction = factors
        filled = np.matmul(z, g.transpose(0, 2, 1), out=views.filled)
        np.negative(filled, out=filled)
        shift = np.matmul(filled, a[:, :, mis].transpose(0, 2, 1), out=views.shift)
        z = np.add(z, shift, out=shift)
    if obs.size:
        quad = np.einsum("kij,kij->ki", z, z, out=views.quad)
        np.add(params.const[:, None], quad, out=quad)
        np.multiply(-0.5, quad, out=quad)
        np.add(quad, correction[:, None], out=logp[col:])
    else:  # nothing observed: every density is 1
        logp[:] = 0.0


def _densities(params: StackedParams, cases: CaseGroups, ws: _Workspace) -> list[_Factors | None]:
    """``_condition`` over every mask, in group order, into the workspace;
    returns the masks' factors, which are built first, once per sweep, with
    one stacked QR per missing-cell count."""
    factors = _mask_factors(params.a, cases.groups)
    for group, group_factors, views in zip(cases.groups, factors, ws.groups):
        _condition(params, group, group_factors, views)
    return factors


def component_case_loglik(params: StackedParams, cases: CaseGroups) -> np.ndarray:
    """Matrix of per-case, per-component log densities of the observed
    parts, rows in case order.

    Weight ordering (noise first when present); weights themselves are not
    applied.
    """
    ws = cases.workspace(params)
    _densities(params, cases, ws)
    if cases.position is None:
        return ws.logp.T.copy()
    return ws.logp[:, cases.position].T


def _normalize_responsibilities(ws: _Workspace, weights: np.ndarray) -> None:
    """Turn the log densities in ``ws.logp`` into the posterior component
    probabilities in ``ws.resp`` and the per-case log sum_c pi_c p(y|c) in
    ``ws.loglik``, case by case.  Each reduction over components adds
    whole rows of cases."""
    with np.errstate(divide="ignore"):
        logw = np.where(weights > 0, np.log(weights), -np.inf)
    scores = np.add(ws.logp, logw[:, None], out=ws.resp)
    top = np.max(scores, axis=0, out=ws.top)
    bad = ~np.isfinite(top)
    if bad.any():
        raise AllComponentsZeroDensity(
            f"{int(bad.sum())} case(s) have zero density under every "
            "positive-weight component"
        )
    np.exp(np.subtract(scores, top, out=scores), out=scores)
    total = np.sum(scores, axis=0, out=ws.total)
    scores /= total
    np.add(top, np.log(total, out=ws.loglik), out=ws.loglik)


def _case_order_sum(cases: CaseGroups, ws: _Workspace) -> float:
    """The sum of the per-case log likelihoods, added in case order."""
    row_loglik = ws.loglik
    if cases.position is not None:
        row_loglik = np.take(row_loglik, cases.position, out=ws.ordered)
    return float(np.sum(row_loglik))


def mixture_loglik(cases: CaseGroups, params: StackedParams) -> float:
    """Observed log likelihood of the cases at ``params``: the densities and
    the normalisation of a sweep, without its statistics."""
    ws = cases.workspace(params)
    _densities(params, cases, ws)
    _normalize_responsibilities(ws, params.weights)
    return _case_order_sum(cases, ws)


def expected_stats(cases: CaseGroups, params: StackedParams) -> tuple[MixtureStats, float]:
    """Expected complete-data statistics of the mixture, one sweep over cases.

    Per case and component: the count gains the responsibility r; the sum
    gains r * E[x | y, c] (observed coordinates kept as observed, missing
    ones replaced by the component's conditional mean); the outer-product
    sum gains r * (E[x|y,c] E[x|y,c]^T + conditional covariance padded
    with zeros on observed coordinates).  Dropping that covariance term
    would understate second moments, so it is always added.  The noise
    component only accumulates its count, ``MixtureStats.noise_count``.

    The sweep visits the cases in mask order, one slice per group, in the
    arrays of the workspace of ``cases``.  The sums and outer products come
    from one weighted product of each completion, with its column of ones,
    per block of ``_CASE_BLOCK`` cases; the blocks are added in order, so
    the statistics do not depend on the BLAS thread count.  Each group's
    counts add its cases one by one, as rows of a (cases, n_components)
    array.

    Also returns the observed log likelihood at ``params``, read off the
    same densities; it equals ``mixture_loglik`` bit for bit.
    """
    n, k = params.n, params.k
    offset = 1 if params.has_noise else 0
    ws = cases.workspace(params)
    factors = _densities(params, cases, ws)
    _normalize_responsibilities(ws, params.weights)
    counts = np.zeros(params.n_components)
    moments = np.zeros((k, n + 1, n + 1))
    for group, group_factors, views in zip(cases.groups, factors, ws.groups):
        resp, mis = views.resp, group.mis
        if not group.obs.size:
            resp[:] = params.weights[:, None]
        np.copyto(views.rows, resp.T)
        counts += views.rows.sum(axis=0)
        completed = group.design
        if mis.size:
            completed = views.completed
            completed[:] = group.design
            completed[:, :, mis] = views.filled
        r = resp[offset:]
        weighted = np.multiply(r[:, :, None], completed, out=views.weighted)
        full = group.size - group.size % _CASE_BLOCK
        if full:  # the whole blocks in one batched product
            shape = (-1, _CASE_BLOCK, n + 1)
            blocks = completed[..., :full, :].reshape(*completed.shape[:-2], *shape)
            weighted_blocks = weighted[:, :full].reshape(k, *shape)
            products = np.matmul(weighted_blocks.swapaxes(-1, -2), blocks, out=views.products)
            moments += products.sum(axis=1)
        moments += weighted[:, full:].swapaxes(-1, -2) @ completed[..., full:, :]
        if mis.size:
            cond_covs = group_factors[1]
            moments[:, group.mm[0], group.mm[1]] += r.sum(axis=1)[:, None, None] * cond_covs
    outer = moments[:, :n, :n]
    mix_stats = MixtureStats(counts, moments[:, n, :n], 0.5 * (outer + outer.transpose(0, 2, 1)))
    return mix_stats, _case_order_sum(cases, ws)
