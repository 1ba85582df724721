"""Expected (E-step) sufficient statistics, stacked over components.

Each Gaussian mixture component accumulates an expected case count, an
expected sum of x and an expected sum of outer products x x^T; a noise
component accumulates only its expected count.  A sweep returns them as
(k, ...) stacks (``MixtureStats``), the one form that the M step, search
and the scores read: the M step and the family marginals of search and of
the complete-model score each take one stacked posterior of them
(``bayes``).  With a hidden mixture indicator and possibly missing
coordinates, the exact statistics are replaced by expectations under the
current model, taken per case given whatever was observed for that case.
These expected statistics keep the full cross-product matrix so that
structures visited later during search are supported no matter which
dependencies they use.

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
QR for all masks with the same number of missing cells, which
``group_cases`` lists once per data set.  Per mask the sweep runs only the
products with that mask's cases; the log densities, the per-mask sums and
the conditional covariance terms are formed over stacked arrays.

The sweep takes ``CaseGroups`` alone and checks no input: ``fit`` groups
its checked data once, and held-out data is checked where it enters
(``scoring.predictive_score``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AllComponentsZeroDensity
from .model import LOG_2PI, NoiseComponent, StackedParams

# A count at or below this stands for no cases: a component's posterior is
# its prior, and neither it nor the noise count adds to a likelihood.
COUNT_FLOOR = 1e-250


@dataclass(frozen=True, eq=False)
class MixtureStats:
    """A mixture's statistics, stacked: ``counts``, every component's
    expected case count in the order of the model's weight vector (noise
    first when present); ``sums``, (k, n), and ``seconds``, (k, n, n), each
    Gaussian component's expected sums of x and of x x^T.  The noise
    component keeps only its count.  Row c of the Gaussian stacks belongs
    to ``model.components[c]`` and its structure.
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
    missing cells 0, with a column of ones.  ``slot`` is (c, j): the mask
    is member j of ``CaseGroups.classes[c]``, so its factors are row j of
    that class's stacked factors; None for a complete mask.
    """

    mask: np.ndarray
    rows: slice
    obs: np.ndarray
    mis: np.ndarray
    design: np.ndarray
    slot: tuple[int, int] | None
    size: int


@dataclass(frozen=True, eq=False)
class MissingClass:
    """The masks with the same number m of missing cells, factored together
    in a sweep: ``members``, their groups in group order, and ``mis``,
    (masks, m), row j the missing cells of group ``members[j]``."""

    members: np.ndarray
    mis: np.ndarray


@dataclass(frozen=True, eq=False)
class CaseGroups:
    """A cases-by-n data matrix grouped by observation mask (masks in
    ``np.unique`` row order), the cases sorted by mask so that each group
    is a slice.  ``position[i]`` is case i's place in mask order, or None
    when mask order is case order.

    The mask plan: ``classes``, the masks with missing cells by their
    number of missing cells, in order of first appearance; ``group_of``,
    each case's group in mask order, or None for a single group; and
    ``unobserved``, the group with nothing observed, or None.

    ``group_cases`` builds it once per data set, and every sweep over that
    data set reuses it, together with one ``_Workspace`` per component
    count, so a sweep allocates nothing that grows with the cases.  Two
    sweeps over one CaseGroups must therefore not run at the same time.
    """

    groups: tuple[CaseGroup, ...]
    cases: int
    n: int
    position: np.ndarray | None = None
    classes: tuple[MissingClass, ...] = ()
    group_of: np.ndarray | None = None
    unobserved: int | None = None
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


def _case_group(
    mask: np.ndarray, rows: slice, data: np.ndarray, slot: tuple[int, int] | None = None
) -> CaseGroup:
    obs = np.flatnonzero(mask)
    mis = np.flatnonzero(~mask)
    cases, n = data.shape
    design = np.zeros((cases, n + 1))
    design[:, obs] = data[:, obs]
    design[:, n] = 1.0
    return CaseGroup(mask, rows, obs, mis, design, slot, cases)


def group_cases(data: np.ndarray) -> CaseGroups:
    """Group the cases of a data matrix (NaN cells missing) by observation
    mask, sort them by mask with a stable sort, and plan the masks'
    factorisation by their number of missing cells."""
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
    masks = observed[first]
    by_count: dict[int, list[int]] = {}
    for i, mask in enumerate(masks):
        if not mask.all():
            by_count.setdefault(n - int(mask.sum()), []).append(i)
    slots: list[tuple[int, int] | None] = [None] * len(masks)
    classes = []
    for c, (m, members) in enumerate(by_count.items()):
        mis = np.nonzero(~masks[members])[1].reshape(len(members), m)
        classes.append(MissingClass(np.array(members), mis))
        for j, i in enumerate(members):
            slots[i] = (c, j)
    stops = np.cumsum(sizes)
    groups = tuple(
        _case_group(mask, slice(stop - size, stop), data[order[stop - size:stop]], slot)
        for mask, size, stop, slot in zip(masks, sizes, stops, slots)
    )
    position = None
    if np.any(order != np.arange(cases)):
        position = np.empty(cases, dtype=np.intp)
        position[order] = np.arange(cases)
    return CaseGroups(
        groups, cases, n, position, tuple(classes),
        np.repeat(np.arange(len(groups)), sizes) if len(groups) > 1 else None,
        next((i for i, mask in enumerate(masks) if not mask.any()), None),
    )


# --- the sweep's workspace ----------------------------------------------------


# Bytes of the stacked moment terms that a sweep adds in one reduction (at
# least four terms, one group's); past that, the groups' terms go in chunks.
_TERM_BYTES = 1 << 20


def _carve(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous array of ``shape`` over the head of a flat buffer:
    the layout that a fresh array of that shape would have."""
    return buffer[: math.prod(shape)].reshape(shape)


class _GroupViews(NamedTuple):
    """One group's arrays in a workspace, each a view with the shape and
    layout of the fresh array it stands for.  ``quad`` and ``resp`` are its
    columns of the Gaussian rows of ``logp`` and ``resp``.  ``block`` and
    ``rest`` are its terms of the moment stack, the sum of its whole blocks'
    products (None with no whole block) and the product of the remaining
    cases, ``rest_weighted``^T ``rest_completed``.  ``filled``, ``shift``,
    ``completed`` and ``resp_sum`` are None for a complete mask."""

    quad: np.ndarray  # (k, cases)
    resp: np.ndarray  # (k, cases)
    z: np.ndarray  # (cases, k n)
    residuals: np.ndarray  # (k, cases, n), over z
    weighted: np.ndarray  # (k, cases, n + 1), over z
    products: np.ndarray  # (k, whole blocks, n + 1, n + 1)
    block: np.ndarray | None  # (k, n + 1, n + 1)
    rest: np.ndarray  # (k, n + 1, n + 1)
    rest_weighted: np.ndarray  # (k, n + 1, remaining cases), over weighted
    rest_completed: np.ndarray  # (k, remaining cases, n + 1), or 2-d
    filled: np.ndarray | None  # (k, cases, m)
    shift: np.ndarray | None  # (k, cases, n)
    completed: np.ndarray | None  # (k, cases, n + 1), over shift
    resp_sum: np.ndarray | None  # (k,), its summed responsibilities


class _Chunk(NamedTuple):
    """Groups whose moment terms one reduction adds: ``groups``, a range;
    ``used``, the terms it adds, the running moments first; ``covariance``,
    the terms that hold conditional covariances, and ``scatter``, per
    (class, run of members), where in the stack those land."""

    groups: range
    used: int
    covariance: np.ndarray
    scatter: tuple[tuple[int, slice, np.ndarray], ...]


class _Workspace:
    """The arrays of a sweep that grow with the cases, for one CaseGroups
    and one component count, carved from one buffer that every sweep
    overwrites: ``logp`` and ``resp``, (n_components, cases), in mask
    order; ``top``, ``total`` and ``loglik`` per case; ``ordered``, the
    per-case log likelihoods in case order; ``noise``, the noise
    component's log density per case, kept for the bounds it was computed
    at; and each group's views in ``groups``.  The groups share regions
    sized for the largest group, and the conditional means alone get a
    region per group, since they live from the densities to the
    statistics.  Every view has the shape and layout of the fresh array it
    stands for, so every BLAS, LAPACK and einsum call reads what it read
    when the sweep allocated, and gives the same bytes.  ``logp`` is spent
    once the responsibilities are normalised, so the running sums along
    each group's cases, whose last column is the group's counts, reuse its
    memory.

    Per-group sums go to small tables: ``counts``, a row per group,
    ``corrections`` (k, groups), each group's log density
    correction, and ``resp_sums``, per missing-cell class, each member's
    summed responsibilities.  ``terms`` stacks each group's moment terms
    (its blocks' sum, its remainder, its conditional covariances) after
    the running moments, in the order the sweep adds them; ``chunks``
    splits the groups so the stack stays within ``_TERM_BYTES``.

    One buffer, not one per array: it is freed with the CaseGroups, and
    glibc's malloc then serves the next fit's allocations of up to its size
    from memory it already mapped, so a fit after the first makes few page
    faults.
    """

    def __init__(self, cases: CaseGroups, k: int, n_components: int):
        n, count, groups = cases.n, cases.cases, cases.groups
        largest = max(group.size for group in groups)
        most_missing = max((g.size for g in groups if g.mis.size), default=0)
        needs = [(g.size >= _CASE_BLOCK) + 1 + (g.slot is not None) for g in groups]
        term = k * (n + 1) ** 2
        capacity = max(4, min(1 + sum(needs), _TERM_BYTES // (8 * term or 1)))
        shapes = [
            (n_components, count),  # logp, then the running counts
            (n_components, count),  # resp
            (3, count),  # top, total, loglik
            (0 if cases.position is None else count,),  # ordered
            (count if n_components > k else 0,),  # noise
            (len(groups), n_components),  # counts
            (k, len(groups)),  # corrections
            (capacity, k, n + 1, n + 1),  # terms
            (k * largest * (n + 1),),  # z, then the weighted completions
            (k * (largest // _CASE_BLOCK) * (n + 1) ** 2,),  # block products
            (k * most_missing * (n + 1),),  # shift, then the completions
            *((len(c.members), k) for c in cases.classes),  # resp_sums
            *((k, group.size, group.mis.size) for group in groups),  # filled
        ]
        sizes = [math.prod(shape) for shape in shapes]
        flat = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        views = [view.reshape(shape) for view, shape in zip(flat, shapes)]
        (
            self.logp, self.resp, (self.top, self.total, self.loglik), self.ordered,
            self.noise, self.counts, self.corrections, self.terms, work, products,
            completed,
        ) = views[:11]
        self.resp_sums = views[11:11 + len(cases.classes)]
        filled = views[11 + len(cases.classes):]
        self.corrections[:] = 0.0
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None

        slots, chunks, start, used = [], [], 0, 1
        for i, need in enumerate(needs):
            if used + need > capacity:
                chunks.append(self._chunk(cases, slots, range(start, i), used))
                start, used = i, 1
            slots.append(range(used, used + need))
            used += need
        chunks.append(self._chunk(cases, slots, range(start, len(groups)), used))
        self.chunks = tuple(chunks)

        self.groups = []
        offset = n_components - k
        for group, means, slot in zip(groups, filled, slots):
            size, masked = group.size, group.slot is not None
            z = _carve(work, size, k * n)
            weighted = _carve(work, k, size, n + 1)
            completions = _carve(completed, k, size, n + 1) if masked else group.design
            full = size - size % _CASE_BLOCK
            self.groups.append(_GroupViews(
                self.logp[offset:, group.rows],
                self.resp[offset:, group.rows],
                z,
                z.reshape(size, k, n).transpose(1, 0, 2),
                weighted,
                _carve(products, k, size // _CASE_BLOCK, n + 1, n + 1),
                self.terms[slot[0]] if full else None,
                self.terms[slot[-1 - masked]],
                weighted[:, full:].swapaxes(-1, -2),
                completions[..., full:, :],
                *(
                    (means, _carve(completed, k, size, n), completions,
                     self.resp_sums[group.slot[0]][group.slot[1]])
                    if masked else (None, None, None, None)
                ),
            ))

    def _chunk(self, cases: CaseGroups, slots: list[range], span: range, used: int) -> _Chunk:
        """The chunk of the groups in ``span``, whose terms sit in ``slots``:
        each masked member's last term holds its conditional covariance, on
        the missing-missing entries alone."""
        k, n1 = self.terms.shape[1:3]
        covariance, scatter = [], []
        for c, cls in enumerate(cases.classes):
            run = slice(*np.searchsorted(cls.members, [span.start, span.stop]))
            if run.start == run.stop:
                continue
            at = np.array([slots[i][-1] for i in cls.members[run]])
            covariance.append(at)
            mis = cls.mis[run]
            rows = (at[:, None] * k + np.arange(k))[:, :, None] * n1 + mis[:, None, :]
            scatter.append((c, run, (rows[..., None] * n1 + mis[:, None, None, :]).ravel()))
        return _Chunk(span, used, np.concatenate(covariance or [np.zeros(0, np.intp)]),
                      tuple(scatter))

    def noise_logp(self, cases: CaseGroups, noise: NoiseComponent) -> np.ndarray:
        """The uniform noise component's log density of every case, on the
        box of its observed cells, computed once per bounds."""
        bounds = self._bounds
        if bounds is None or not (
            np.array_equal(bounds[0], noise.lower) and np.array_equal(bounds[1], noise.upper)
        ):
            for group in cases.groups:
                rows = group.design[:, group.obs]
                lo, hi = noise.lower[group.obs], noise.upper[group.obs]
                inside = np.all((rows >= lo) & (rows <= hi), axis=1)
                self.noise[group.rows] = np.where(inside, -np.sum(np.log(hi - lo)), -np.inf)
            self._bounds = (noise.lower.copy(), noise.upper.copy())
        return self.noise


# --- the E sweep in regression form ------------------------------------------


class _Factors(NamedTuple):
    """The stacked model-only factors of one missing-cell class, row j for
    member j: ``neg_g``, -G, (masks, k, m, n); ``covs``, G G^T, (masks, k,
    m, m); ``correction``, (masks, k); and ``a_mis``, the columns of A each
    mask misses, held as (masks, m, k, n), which is the layout numpy gives
    one mask's gather ``a[:, :, mis]``, so that its product with the cases
    reads what it read from that gather."""

    neg_g: np.ndarray
    covs: np.ndarray
    correction: np.ndarray
    a_mis: np.ndarray


def _mask_factors(a: np.ndarray, classes: tuple[MissingClass, ...]) -> list[_Factors]:
    """Each missing-cell class's model-only factors, built once per sweep:
    for a mask with m missing cells, G = R^-1 Q^T, (k, m, n), the
    conditional covariance G G^T = R^-1 R^-T, (k, m, m), and the log
    density correction (m/2) log 2pi - sum log|R_ii|, (k,), from the QR
    factorisation A_m = QR of the columns of A it misses.

    The A_m of a class are one gather, (masks k, n, m), factored by one QR,
    one back substitution and one product.  These call LAPACK and BLAS once
    per matrix, so each mask's factors have the bytes that its own
    factorisation would give.  QR works on A_m itself; the precision block
    A_m^T A_m would square its condition number.  G is returned negated,
    exactly, since rounding is symmetric in sign."""
    k, n = a.shape[:2]
    factors = []
    for cls in classes:
        masks, m = cls.mis.shape
        a_mis = a.transpose(2, 0, 1)[cls.mis]
        q, r = np.linalg.qr(a_mis.transpose(0, 2, 3, 1).reshape(masks * k, n, m))
        # G = R^-1 Q^T by back substitution, one row of R at a time; the last
        # row has nothing to subtract, and q - 0.0 is q
        g = np.empty((masks * k, m, n))
        for i in reversed(range(m)):
            rest = q[:, :, i]
            if i + 1 < m:
                rest = rest - np.einsum("kj,kjn->kn", r[:, i, i + 1:], g[:, i + 1:])
            np.divide(rest, r[:, i, i, None], out=g[:, i])
        del q
        covs = g @ g.transpose(0, 2, 1)
        logdiag = np.add.reduce(np.log(np.abs(np.diagonal(r, axis1=1, axis2=2))), axis=1)
        correction = 0.5 * m * LOG_2PI - logdiag
        factors.append(_Factors(
            np.negative(g, out=g).reshape(masks, k, m, n), covs.reshape(masks, k, m, m),
            correction.reshape(masks, k), a_mis,
        ))
    return factors


def _condition(
    group: CaseGroup, views: _GroupViews, w: np.ndarray, factors: list[_Factors]
) -> None:
    """One mask's products with its cases under every component at once,
    from the stacked regression forms and the mask's factors, which
    ``_mask_factors`` built before the sweep.

    Writes each Gaussian component's squared residual norm into
    ``views.quad`` (0 for a mask with nothing observed) and, for a mask
    with missing cells, its conditional means of the missing cells into
    ``views.filled``.  With z_o = A_o x_o - c and G = R^-1 Q^T, the
    conditional mean is x_m* = -G z_o, and the residual of the completed
    case is z_o + A_m x_m*.
    """
    # (k, cases, n) residuals of every component from one product; a
    # missing cell is 0 in the design, so z holds z_o = A_o x_o - c
    np.matmul(group.design, w, out=views.z)
    z = views.residuals
    if group.slot is not None:
        factor, j = factors[group.slot[0]], group.slot[1]
        filled = np.matmul(z, factor.neg_g[j].transpose(0, 2, 1), out=views.filled)
        if not group.obs.size:
            views.quad[:] = 0.0
            return
        shift = np.matmul(filled, factor.a_mis[j].transpose(1, 0, 2), out=views.shift)
        z = np.add(z, shift, out=shift)
    np.einsum("kij,kij->ki", z, z, out=views.quad)


def _densities(params: StackedParams, cases: CaseGroups, ws: _Workspace) -> list[_Factors]:
    """The log densities of the observed cells of every case into
    ``ws.logp``, and each masked group's conditional means; returns the
    classes' factors, which are built first, once per sweep.

    Per mask only the products with its cases run; the log density
    -(const + |z|^2)/2 + (m/2) log 2pi - sum log|R_ii|, with z a case's
    completed residual, is then formed for every case at once, each case
    reading its group's correction.
    """
    factors = _mask_factors(params.a, cases.classes)
    for group, views in zip(cases.groups, ws.groups):
        _condition(group, views, params.w, factors)
    offset = params.n_components - params.k
    quad = ws.logp[offset:]
    np.add(params.const[:, None], quad, out=quad)
    np.multiply(-0.5, quad, out=quad)
    correction = ws.corrections
    for cls, factor in zip(cases.classes, factors):
        correction[:, cls.members] = factor.correction.T
    if cases.group_of is not None:
        correction = correction.take(cases.group_of, axis=1, out=ws.resp[offset:], mode="clip")
    np.add(quad, correction, out=quad)
    if params.noise is not None:  # uniform on the observed cells' box
        ws.logp[0] = ws.noise_logp(cases, params.noise)
    if cases.unobserved is not None:  # nothing observed: every density is 1
        ws.logp[:, cases.groups[cases.unobserved].rows] = 0.0
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


def _moment_terms(group: CaseGroup, views: _GroupViews, n: int) -> None:
    """One mask's sums over its cases: its summed responsibilities when it
    has missing cells, and the weighted product of its completions, with
    their column of ones, per block of ``_CASE_BLOCK`` cases, the whole
    blocks summed in order."""
    resp = views.resp
    completed = group.design
    if group.slot is not None:
        np.add.reduce(resp, axis=1, out=views.resp_sum)
        completed = views.completed
        completed[:] = group.design
        completed[:, :, group.mis] = views.filled
    weighted = np.multiply(resp[:, :, None], completed, out=views.weighted)
    if views.block is not None:  # the whole blocks in one batched product
        full = group.size - group.size % _CASE_BLOCK
        shape = (-1, _CASE_BLOCK, n + 1)
        blocks = completed[..., :full, :].reshape(*completed.shape[:-2], *shape)
        weighted_blocks = weighted[:, :full].reshape(len(resp), *shape)
        products = np.matmul(weighted_blocks.swapaxes(-1, -2), blocks, out=views.products)
        np.add.reduce(products, axis=1, out=views.block)
    np.matmul(views.rest_weighted, views.rest_completed, out=views.rest)


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
    terms (its blocks' sum, its remainder, then its summed responsibilities
    times its conditional covariances) are stacked after the running
    moments and added by one reduction along the stack, which adds them in
    the order a running sum would.  Each group's counts add its cases one
    by one, as running sums along its cases written over the spent log
    densities, and the groups' counts are added in group order.

    Also returns the observed log likelihood at ``params``, read off the
    same densities; it equals ``mixture_loglik`` bit for bit.
    """
    n, k = params.n, params.k
    ws = cases.workspace(params)
    factors = _densities(params, cases, ws)
    _normalize_responsibilities(ws, params.weights)
    if cases.unobserved is not None:
        ws.resp[:, cases.groups[cases.unobserved].rows] = params.weights[:, None]
    terms = ws.terms
    moments = np.empty((k, n + 1, n + 1))
    terms[0] = 0.0
    for chunk in ws.chunks:
        for i in chunk.groups:
            rows = cases.groups[i].rows
            running = np.add.accumulate(ws.resp[:, rows], axis=1, out=ws.logp[:, rows])
            ws.counts[i] = running[:, -1]
            _moment_terms(cases.groups[i], ws.groups[i], n)
        terms[chunk.covariance] = 0.0
        for c, run, at in chunk.scatter:
            covariance = ws.resp_sums[c][run, :, None, None] * factors[c].covs[run]
            terms.put(at, covariance)
        np.add.reduce(terms[:chunk.used], axis=0, out=moments)
        terms[0] = moments
    counts = np.add.accumulate(ws.counts, axis=0)[-1]
    outer = moments[:, :n, :n]
    mix_stats = MixtureStats(counts, moments[:, n, :n], 0.5 * (outer + outer.transpose(0, 2, 1)))
    return mix_stats, _case_order_sum(cases, ws)
