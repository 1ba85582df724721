import numpy as np
import pytest
from hypothesis import settings
from scipy import stats as sps

import heapq
from collections import deque
from itertools import islice, permutations

from dagmix.bayes import (
    FamilyMarginals,
    NormalWishart,
    dirichlet_map,
    local_score,
    map_joint,
    map_parameters,
    node_families,
)
from dagmix.engine import (
    _COLLAPSE_STEPS,
    _COLLAPSE_THRESHOLD,
    cheeseman_stutz,
    ratio_rule_fires,
)
from dagmix.errors import NonPsdScatter, NumericalOverflow, SingularParentBlock
from dagmix.model import (
    DagStructure,
    FamilyPlan,
    GaussianDag,
    MdagModel,
    StackedParams,
    _regression_arrays,
    _stacked_components,
    empty_structure,
)
from dagmix.search import (
    _ESCAPE_BUDGET,
    SCORE_EPS,
    ArcMove,
    SearchStep,
    _new_parents,
    _skeleton,
    apply_move,
    neighbors,
    to_cpdag,
)
from dagmix.stats import (
    COUNT_FLOOR,
    LOG_2PI,
    MixtureStats,
    SuffStats,
    component_case_loglik,
    expected_stats,
    group_cases,
)

# the same examples on every run, no per-example deadline (a fit's first
# call pays for imports), and a bounded count unless a test sets its own
settings.register_profile("dagmix", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("dagmix")


def mixture_stats(triples, noise_count: float | None = None) -> MixtureStats:
    """The stacked statistics of one triple per Gaussian component, after
    the noise component's count when it is given."""
    counts = [t.n for t in triples]
    if noise_count is not None:
        counts.insert(0, noise_count)
    return MixtureStats(
        np.array(counts, dtype=float),
        np.array([t.r for t in triples], dtype=float),
        np.array([t.s for t in triples], dtype=float),
    )


def zero_stats(dim: int) -> SuffStats:
    """The statistics of no cases."""
    return SuffStats(0.0, np.zeros(dim), np.zeros((dim, dim)))


def labeled_stats(
    data: np.ndarray, labels: np.ndarray, k: int, noise: bool = False
) -> MixtureStats:
    """Exact statistics of complete data whose component labels are known.

    A label indexes the weight vector of a k-entry mixture, as ``sample``
    returns them: with ``noise``, label 0 is the noise component, which
    keeps only its count, and labels 1..k-1 the Gaussian components.
    """
    def triple(rows):
        return SuffStats(float(rows.shape[0]), rows.sum(axis=0), rows.T @ rows)

    first = 1 if noise else 0
    triples = tuple(triple(data[labels == c]) for c in range(first, k))
    return mixture_stats(triples, float(np.sum(labels == 0)) if noise else None)


def labeled_loglik(data: np.ndarray, model: MdagModel, labels: np.ndarray) -> float:
    """Log likelihood with the component indicator observed: each case adds
    its own component's weighted density in place of the mixture's."""
    logp = component_case_loglik(model.stacked, group_cases(data))
    return float(np.sum(np.log(model.weights[labels]) + logp[np.arange(len(labels)), labels]))


def labeled_cheeseman_stutz(data, labels, model, prior, dirichlet, mix_stats) -> float:
    """The Cheeseman-Stutz score with the component indicator observed: the
    library's score with its observed-data term swapped for the labelled
    one.  On exact labelled statistics the correction then cancels."""
    _, obs, cs = cheeseman_stutz(group_cases(data), model, prior, dirichlet, mix_stats)
    return cs - obs + labeled_loglik(data, model, labels)


def structure_score(prior: NormalWishart, t: SuffStats, structure: DagStructure) -> float:
    """Sum of family scores over all nodes of one component structure."""
    marginals = FamilyMarginals(prior, t)
    return sum(local_score(marginals, i, ps) for i, ps in enumerate(structure.parents))


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs given the Cholesky factor L."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def chol_logdet(chol: np.ndarray) -> float:
    """log|L L^T| given the Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def joint_moments(g: GaussianDag) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the joint Gaussian a DAG component implies.

    Solving x = m + Bx + e gives mean (I-B)^-1 m and covariance
    (I-B)^-1 V (I-B)^-T, with B[i, j] the coefficient of parent j in node
    i's regression and V = diag(variances).
    """
    b = np.zeros((g.n, g.n))
    for i, ps in enumerate(g.structure.parents):
        b[i, list(ps)] = g.coefficients[i]
    inv = np.linalg.inv(np.eye(g.n) - b)
    cov = inv @ np.diag(g.variances) @ inv.T
    return inv @ g.intercepts, 0.5 * (cov + cov.T)


def node_log_density(g: GaussianDag, x: np.ndarray) -> np.ndarray:
    """Log density of a DAG component at a point, or at each row of a
    matrix: the sum over nodes of each node's conditional normal given its
    parents.  It needs no joint covariance, so it also holds where that is
    singular in floats."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i, ps in enumerate(g.structure.parents):
        center = g.intercepts[i] + x[..., list(ps)] @ g.coefficients[i]
        total = total + sps.norm.logpdf(x[..., i], center, np.sqrt(g.variances[i]))
    return total


def per_mask_factors(a: np.ndarray, mis: np.ndarray):
    """One mask's factors from its own QR of A's missing columns, the
    reference for the sweep's stacked factorisation: G = R^-1 Q^T, its
    G G^T and the log density correction (m/2) log 2pi - sum log|R_ii|, or
    None for a complete mask."""
    if not mis.size:
        return None
    k, n = a.shape[:2]
    q, r = np.linalg.qr(a[:, :, mis])
    g = np.empty((k, mis.size, n))
    for i in reversed(range(mis.size)):
        rest = q[:, :, i] - np.einsum("kj,kjn->kn", r[:, i, i + 1:], g[:, i + 1:])
        g[:, i] = rest / r[:, i, i, None]
    logdiag = np.sum(np.log(np.abs(np.diagonal(r, axis1=1, axis2=2))), axis=1)
    return g, g @ g.transpose(0, 2, 1), 0.5 * mis.size * LOG_2PI - logdiag


def map_component(prior: NormalWishart, t: SuffStats, structure: DagStructure) -> GaussianDag:
    """MAP regression parameters of one component: its posterior joint mode
    read off through the library's one-component path."""
    return GaussianDag.from_joint(structure, *map_joint(prior, t))


def m_step(mix_stats, structures, prior, dirichlet, noise=None) -> MdagModel:
    """The library's M step at the given structures, as a model."""
    plan = FamilyPlan(tuple(structures))
    return plan.model(map_parameters(mix_stats, plan, prior, dirichlet, noise))


# --- the M step one component and one node at a time ---------------------------
# The reference for the stacked M step: the per-component posterior update,
# the per-node regression read-off and the per-component regression form,
# stacked for the sweep afterwards.


def oracle_posterior(prior: NormalWishart, t: SuffStats):
    """(nu', mu', alpha', T') of one triple; the prior when it is empty."""
    if t.n <= 1e-250:
        return prior.nu, prior.mu0, prior.alpha, prior.tau
    scatter = t.s - np.outer(t.r, t.r) / t.n
    if not np.isfinite(scatter.sum()):
        raise NumericalOverflow("the statistics overflow")
    eig = np.linalg.eigvalsh(scatter)
    if eig[0] < -1e-8 * max(1.0, float(eig[-1])):
        raise NonPsdScatter(f"centered scatter has eigenvalue {eig[0]:.3e}")
    nu1 = prior.nu + t.n
    diff = t.r / t.n - prior.mu0
    tau1 = prior.tau + scatter + (prior.nu * t.n / nu1) * np.outer(diff, diff)
    mu1 = (prior.nu * prior.mu0 + t.r) / nu1
    return nu1, mu1, prior.alpha + t.n, 0.5 * (tau1 + tau1.T)


def oracle_from_joint(structure: DagStructure, mean, cov) -> GaussianDag:
    """Each node's regression read off the joint by its own Cholesky factor
    and solves, with the one jitter retry."""
    intercepts = np.empty(structure.n)
    variances = np.empty(structure.n)
    coefficients = []
    for i, ps in enumerate(structure.parents):
        if ps:
            pa = list(ps)
            block = cov[np.ix_(pa, pa)]
            try:
                chol = np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                try:
                    chol = np.linalg.cholesky(block + 1e-9 * np.eye(len(pa)))
                except np.linalg.LinAlgError:
                    raise SingularParentBlock(f"block of side {len(pa)}") from None
            b = np.linalg.solve(chol.T, np.linalg.solve(chol, cov[pa, i]))
            intercepts[i] = mean[i] - b @ mean[pa]
            variances[i] = max(cov[i, i] - cov[i, pa] @ b, 1e-12)
            coefficients.append(b)
        else:
            intercepts[i] = mean[i]
            variances[i] = max(cov[i, i], 1e-12)
            coefficients.append(np.zeros(0))
    return GaussianDag(structure, intercepts, tuple(coefficients), variances)


def oracle_m_step(mix_stats, structures, prior, dirichlet, noise=None) -> MdagModel:
    """MAP weights, then each component's MAP regressions on its own."""
    weights = dirichlet_map(dirichlet, mix_stats.counts)
    components = []
    for t, structure in zip(mix_stats.triples, structures, strict=True):
        _, mean, alpha, tau = oracle_posterior(prior, t)
        cov = tau / (alpha + prior.dim + 2.0)
        components.append(oracle_from_joint(structure, mean.copy(), cov))
    return MdagModel(weights, tuple(components), noise)


def oracle_regression_stack(model: MdagModel):
    """Each component's (A, c, log|V|) on its own, stacked for the sweep: A,
    (k, n, n), W, (n + 1, k n), and n log 2pi + log|V|, (k,)."""
    n = model.n
    forms = []
    for g in model.components:
        b = np.zeros((n, n))
        for i, ps in enumerate(g.structure.parents):
            b[i, list(ps)] = g.coefficients[i]
        scale = 1.0 / np.sqrt(g.variances)
        forms.append(((np.eye(n) - b) * scale[:, None], g.intercepts * scale,
                      float(np.sum(np.log(g.variances)))))
    a = np.array([f[0] for f in forms]).reshape(-1, n, n)
    c = np.array([f[1] for f in forms]).reshape(-1, 1, n)
    w = np.concatenate([a.transpose(0, 2, 1), -c], axis=1)
    w = w.transpose(1, 0, 2).reshape(n + 1, -1)
    return a, w, n * LOG_2PI + np.array([f[2] for f in forms])


def oracle_completed_loglik(mix_stats: MixtureStats, model: MdagModel) -> float:
    """The completed log likelihood read off each triple, with each
    component's regression form (A, c, log|V|) built on its own
    (``_regression_arrays`` at k = 1): N log pi plus -(N (n log 2pi +
    log|V|) + tr(A s A^T) - 2 c^T A r + N c^T c) / 2 per component, after
    the noise component's uniform mass."""
    total = 0.0
    if model.noise is not None and mix_stats.noise_count > COUNT_FLOOR:
        total += mix_stats.noise_count * (np.log(model.weights[0]) - model.noise.log_volume)
    for t, g, w in zip(mix_stats.triples, model.components, model.gaussian_weights(), strict=True):
        if t.n <= COUNT_FLOOR:
            continue
        a, c, log_var = _regression_arrays(*_stacked_components((g,), g.n))
        a, c, log_var = a[0], c[0], float(log_var[0])
        quad = np.sum((a @ t.s) * a) - 2.0 * (c @ (a @ t.r)) + t.n * (c @ c)
        total += t.n * np.log(w) + -0.5 * (t.n * (t.dim * LOG_2PI + log_var) + quad)
    return float(total)


def oracle_run_em(cases, model, prior, dirichlet, steps=None, convergence_ratio=1e-6,
                  max_steps=500):
    """``run_em`` with the oracle M step building a model and sweeping it
    every step, a repeated step included: (model, log likelihoods,
    converged, the last sweep's statistics, the components whose expected
    count stayed below the collapse threshold for the collapse steps)."""
    structures = tuple(g.structure for g in model.components)
    mix_stats, loglik = expected_stats(cases, model.stacked)
    logliks = [loglik]
    converged = False
    streaks = np.zeros(model.k, dtype=int)
    collapsed = set()
    for _ in range(steps if steps is not None else max_steps):
        model = oracle_m_step(mix_stats, structures, prior, dirichlet, model.noise)
        streaks = np.where(mix_stats.gaussian_counts < _COLLAPSE_THRESHOLD, streaks + 1, 0)
        collapsed.update(np.flatnonzero(streaks >= _COLLAPSE_STEPS).tolist())
        mix_stats, loglik = expected_stats(cases, model.stacked)
        logliks.append(loglik)
        if steps is None and ratio_rule_fires(logliks, convergence_ratio):
            converged = True
            break
    return model, logliks, converged, mix_stats, tuple(sorted(collapsed))


# --- the E sweep over cases gathered by index, and the M step over triples -----
# The reference for the sweep that keeps its cases in mask order and its
# arrays in one workspace, and for the M step that reads stacked statistics:
# each mask's cases scattered and gathered through their index, each mask
# factored on its own, fresh arrays throughout, and one triple per component.

_ORACLE_BLOCK = 256


def oracle_group_cases(data):
    """[(mask, idx, design)] per observation mask, masks in ``np.unique``
    row order, idx ascending; design holds the cases, missing cells 0,
    with a column of ones."""
    cases, n = data.shape
    observed = ~np.isnan(data)
    masks, inverse, sizes = np.unique(
        observed, axis=0, return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse.ravel(), kind="stable")
    groups = []
    for mask, idx in zip(masks, np.split(order, np.cumsum(sizes)[:-1])):
        design = np.zeros((idx.size, n + 1))
        obs = np.flatnonzero(mask)
        design[:, obs] = data[idx][:, obs]
        design[:, n] = 1.0
        groups.append((mask, idx, design))
    return groups


def oracle_condition(params, mask, design):
    """(log densities, (n_components, cases); conditional means of the
    missing cells, (k, cases, m); their covariance, (k, m, m)) of one mask."""
    obs, mis = np.flatnonzero(mask), np.flatnonzero(~mask)
    a, k, n = params.a, params.k, params.n
    cases = design.shape[0]
    logp = np.empty((params.n_components, cases))
    col = 1 if params.has_noise else 0
    if params.noise is not None:
        rows, lo, hi = design[:, obs], params.noise.lower[obs], params.noise.upper[obs]
        inside = np.all((rows >= lo) & (rows <= hi), axis=1)
        logp[0] = np.where(inside, -np.sum(np.log(hi - lo)), -np.inf)
    z = (design @ params.w).reshape(cases, k, n).transpose(1, 0, 2)
    filled = cond_covs = None
    correction = np.zeros(k)
    factors = per_mask_factors(a, mis)
    if factors is not None:
        g, cond_covs, correction = factors
        filled = -(z @ g.transpose(0, 2, 1))
        z = z + filled @ a[:, :, mis].transpose(0, 2, 1)
    if obs.size:
        quad = np.einsum("kij,kij->ki", z, z)
        logp[col:] = -0.5 * (params.const[:, None] + quad) + correction[:, None]
    else:
        logp[:] = 0.0
    return logp, filled, cond_covs


def oracle_densities(params, groups):
    """(log densities, (cases, n_components) in case order, each mask's
    conditionals)."""
    cases = sum(idx.size for _, idx, _ in groups)
    logp = np.empty((params.n_components, cases))
    conditionals = []
    for mask, idx, design in groups:
        logp[:, idx], *moments = oracle_condition(params, mask, design)
        conditionals.append(moments)
    return logp.T, conditionals


def oracle_normalize(logp, weights):
    """(responsibilities, (cases, n_components); per-case log mixture density)."""
    with np.errstate(divide="ignore"):
        logw = np.where(weights > 0, np.log(weights), -np.inf)
    scores = logp.T + logw[:, None]
    top = scores.max(axis=0)
    resp = np.exp(scores - top)
    total = resp.sum(axis=0)
    resp /= total
    return resp.T, top + np.log(total)


def oracle_expected_stats(data, params):
    """(MixtureStats, observed log likelihood) of one sweep, built from one
    triple per component."""
    groups = oracle_group_cases(data)
    n, k = params.n, params.k
    offset = 1 if params.has_noise else 0
    logp, conditionals = oracle_densities(params, groups)
    resp_all, row_loglik = oracle_normalize(logp, params.weights)
    counts = np.zeros(params.n_components)
    moments = np.zeros((k, n + 1, n + 1))
    for (mask, idx, design), (filled, cond_covs) in zip(groups, conditionals):
        size, mis = idx.size, np.flatnonzero(~mask)
        resp = resp_all[idx]
        if not mask.any():
            resp = np.tile(params.weights, (size, 1))
        counts += resp.sum(axis=0)
        completed = design
        if mis.size:
            completed = np.repeat(completed[None], k, axis=0)
            completed[:, :, mis] = filled
        r = np.ascontiguousarray(resp[:, offset:].T)
        weighted = r[:, :, None] * completed
        full = size - size % _ORACLE_BLOCK
        if full:
            shape = (-1, _ORACLE_BLOCK, n + 1)
            blocks = completed[..., :full, :].reshape(*completed.shape[:-2], *shape)
            weighted_blocks = weighted[:, :full].reshape(k, *shape)
            moments += (weighted_blocks.swapaxes(-1, -2) @ blocks).sum(axis=1)
        moments += weighted[:, full:].swapaxes(-1, -2) @ completed[..., full:, :]
        if mis.size:
            moments[:, mis[:, None], mis[None, :]] += r.sum(axis=1)[:, None, None] * cond_covs
    triples = []
    for j in range(k):
        outer = moments[j, :n, :n]
        triples.append(
            SuffStats(float(counts[offset + j]), moments[j, n, :n], 0.5 * (outer + outer.T))
        )
    noise_count = float(counts[0]) if offset else None
    return mixture_stats(triples, noise_count), float(np.sum(row_loglik))


def oracle_posteriors(prior: NormalWishart, triples):
    """(nu', mu', alpha', T') of k triples, stacked from the triples."""
    k = len(triples)
    nu = np.full(k, float(prior.nu))
    mu = np.tile(prior.mu0, (k, 1))
    alpha = np.full(k, float(prior.alpha))
    tau = np.tile(prior.tau, (k, 1, 1))
    live = [j for j, t in enumerate(triples) if t.n > 1e-250]
    if not live:
        return nu, mu, alpha, tau
    n_count = np.array([triples[j].n for j in live])
    r = np.array([triples[j].r for j in live])
    s = np.array([triples[j].s for j in live])
    scatter = s - (r[:, :, None] * r[:, None, :]) / n_count[:, None, None]
    if not np.isfinite(scatter.reshape(len(live), -1).sum(axis=1)).all():
        raise NumericalOverflow("the statistics overflow")
    eig = np.linalg.eigvalsh(scatter)
    bad = eig[:, 0] < -1e-8 * np.maximum(1.0, eig[:, -1])
    if bad.any():
        raise NonPsdScatter(f"centered scatter has eigenvalue {eig[bad, 0][0]:.3e}")
    nu1 = prior.nu + n_count
    diff = r / n_count[:, None] - prior.mu0
    shrink = (prior.nu * n_count / nu1)[:, None, None]
    tau1 = prior.tau + scatter + shrink * (diff[:, :, None] * diff[:, None, :])
    nu[live] = nu1
    mu[live] = (prior.nu * prior.mu0 + r) / nu1[:, None]
    alpha[live] = prior.alpha + n_count
    tau[live] = 0.5 * (tau1 + tau1.transpose(0, 2, 1))
    return nu, mu, alpha, tau


def oracle_map_parameters(mix_stats, plan, prior, dirichlet, noise):
    """The stacked M step with its posteriors stacked from the triples."""
    weights = dirichlet_map(dirichlet, mix_stats.counts)
    nu, mu, alpha, tau = oracle_posteriors(prior, mix_stats.triples)
    covs = tau / (alpha + prior.dim + 2.0)[:, None, None]
    return StackedParams(weights, *plan.read_off(mu, covs), noise)


# --- greedy search with every table rebuilt at every state ----------------------
# The reference for the search that keeps its state between moves: legality
# from a closure computed afresh, gains from whole tables, and the class walk
# over plain parent tuples.


def oracle_legal(parents):
    """(add, delete, reverse) masks, entry [u, v] for the move on u -> v,
    from the closure of the arc matrix by repeated squaring."""
    n = len(parents)
    arc = np.zeros((n, n))
    for child, ps in enumerate(parents):
        for parent in ps:
            arc[parent, child] = 1.0
    reach = arc
    while True:
        longer = np.minimum(reach + reach @ reach, 1.0)
        if (longer == reach).all():
            break
        reach = longer
    has_arc = arc > 0
    add = ~(has_arc | (reach > 0).T)
    np.fill_diagonal(add, False)
    return add, has_arc, has_arc & (arc @ reach == 0)


class OracleScoreCache:
    """The set terms T[0][u, v] = F(v + P') and T[1][u, v] = F(P'), P' the
    parents of v with u toggled, cached per (node, parents) column and
    swapped in when a column's parent set changes."""

    def __init__(self, prior, t):
        self.marginals = FamilyMarginals(prior, t)
        self._columns = {}
        self._terms = np.full((2, t.dim, t.dim), np.nan)
        self._node_terms = np.zeros((2, t.dim))
        self._gain_parents = [None] * t.dim

    def gains(self, parents, need):
        terms, nodes = self._terms, self._node_terms
        changed = [v for v, ps in enumerate(parents) if self._gain_parents[v] != ps]
        for v in changed:
            ps = self._gain_parents[v] = parents[v]
            col = self._columns.get((v, ps))
            if col is None:
                col = self._columns[(v, ps)] = np.full((2, len(parents)), np.nan)
            terms[:, :, v] = col
        us, vs = np.nonzero(need & np.isnan(terms[0]))
        pairs = [(v, parents[v]) for v in changed]
        for u, v in zip(us.tolist(), vs.tolist()):
            ps = parents[v]
            pairs.append((v, tuple(p for p in ps if p != u) if u in ps else ps + (u,)))
        values = np.reshape(self.marginals.fill(node_families(pairs)), (-1, 2)).T
        nodes[:, changed] = values[:, : len(changed)]
        terms[:, us, vs] = values[:, len(changed):]
        for v in set(vs.tolist()):
            self._columns[(v, parents[v])][:] = terms[:, :, v]
        return terms, nodes


def oracle_ordered_sum(terms):
    ordered = np.sort(terms, axis=0)
    total = ordered[0]
    for term in ordered[1:]:
        total = total + term
    return total


def oracle_move_gains(cache, parents, max_parents):
    """(kind, legal mask, gain matrix) for delete, reverse and add, or None
    when no add or delete is legal."""
    add, delete, reverse = oracle_legal(parents)
    if max_parents is not None:
        grows = np.array([len(ps) < max_parents for ps in parents])
        add &= grows[None, :]
        reverse &= grows[:, None]
    if not (add.any() or delete.any()):
        return None
    (top, base), (node_top, node_base) = cache.gains(parents, add | delete | reverse.T)
    single = (top + node_base[None, :]) - (base + node_top[None, :])
    reversal = np.full_like(single, -np.inf)
    u, v = np.nonzero(reverse)
    if len(u):
        reversal[u, v] = oracle_ordered_sum(
            [top[u, v], node_base[v], top[v, u], node_base[u]]
        ) - oracle_ordered_sum([base[u, v], node_top[v], base[v, u], node_top[u]])
    return ("delete", delete, single), ("reverse", reverse, reversal), ("add", add, single)


def oracle_best_move(cache, parents, max_parents):
    tables = oracle_move_gains(cache, parents, max_parents)
    if tables is None:
        return None
    best = max(gains[mask].max() for _, mask, gains in tables if mask.any())
    for kind, mask, gains in tables:
        hits = np.argwhere((mask & (gains == best)).T)
        if len(hits):
            v, u = hits[0].tolist()
            return gains[u, v], ArcMove(kind, u, v)
    return None


def oracle_covered_edges(parents):
    """Arcs u -> v with Pa(v) = Pa(u) + {u}, in (u, v) order; reversing one
    is always legal and keeps the equivalence class."""
    return sorted(
        (u, v)
        for v, ps in enumerate(parents)
        for u in ps
        if len(ps) == len(parents[u]) + 1 and set(ps) - {u} == set(parents[u])
    )


def oracle_class_walk(parents):
    seen = {parents}
    frontier = deque([(parents, [])])
    while frontier:
        state, path = frontier.popleft()
        yield state, path
        for u, v in oracle_covered_edges(state):
            move = ArcMove("reverse", u, v)
            nxt = apply_move(state, move)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, path + [move]))


def oracle_search(t, prior, init, max_parents=None, trace=None, component=0):
    """``greedy_component_search`` with every table rebuilt at every state:
    (the structure it returns, the families its marginals memoised)."""
    parents = init.parents
    cache = OracleScoreCache(prior, t)
    cache.marginals.fill(node_families(enumerate(parents)))
    node_scores = np.array(
        [local_score(cache.marginals, i, ps) for i, ps in enumerate(parents)]
    )

    def accept(move, sideways):
        nonlocal parents
        before = float(node_scores.sum())
        for node, ps in _new_parents(parents, move):
            node_scores[node] = local_score(cache.marginals, node, ps)
        parents = apply_move(parents, move)
        if trace is not None:
            total = float(node_scores.sum())
            trace.append(SearchStep(ArcMove(move.kind, move.source, move.target, component),
                                    total - before, total, sideways))

    while True:
        found = oracle_best_move(cache, parents, max_parents)
        if found is not None and found[0] > SCORE_EPS:
            accept(found[1], sideways=False)
            continue
        for state, path in islice(oracle_class_walk(parents), 1, _ESCAPE_BUDGET):
            found = oracle_best_move(cache, state, max_parents)
            if found is not None and found[0] > SCORE_EPS:
                break
        else:
            return DagStructure(init.n, parents), set(cache.marginals._memo)
        for move in path:
            accept(move, sideways=True)
        accept(found[1], sideways=False)


# --- the structural difference keyed at every push, and every assignment ------
# The reference for the A* that keys a class only when it is popped, and for
# the assignment settled on skeleton bounds.


def oracle_structural_difference(learned: DagStructure, gold: DagStructure) -> int:
    """A* over equivalence classes with every successor keyed by its CPDAG
    when it is generated and dropped there when its class was reached no
    deeper; the skeleton difference to gold is the bound."""
    target, gold_skeleton = to_cpdag(gold.parents), _skeleton(gold.parents)
    h = len(_skeleton(learned.parents) ^ gold_skeleton)
    best = {to_cpdag(learned.parents): 0}
    heap = [(h, h, learned.parents)]
    while heap:
        f, h, parents = heapq.heappop(heap)
        cls, d = to_cpdag(parents), f - h
        if d > best[cls]:
            continue
        if cls == target:
            return d
        for state, _ in oracle_class_walk(parents):
            for move in neighbors(state):
                nxt = apply_move(state, move)
                key = to_cpdag(nxt)
                if key in best and best[key] <= d + 1:
                    continue
                best[key] = d + 1
                h = len(_skeleton(nxt) ^ gold_skeleton)
                heapq.heappush(heap, (d + 1 + h, h, nxt))
    raise AssertionError("DAG space is connected; target must be reachable")


def oracle_match_components(learned, weights, gold) -> tuple:
    """Every pair's exact distance, then the first assignment in
    ``permutations`` order with the least total."""
    order = sorted(range(len(learned)), key=lambda j: -weights[j])[: len(gold)]
    top = [learned[j] for j in order]
    cost = [[oracle_structural_difference(t, g) for g in gold] for t in top]
    best = min(
        permutations(range(len(gold)), len(top)),
        key=lambda perm: sum(cost[i][g] for i, g in enumerate(perm)),
    )
    diffs = [None] * len(gold)
    for i, g in enumerate(best):
        diffs[g] = cost[i][g]
    return tuple(diffs)


def random_dag(n: int, rng: np.random.Generator, p: float = 0.4) -> DagStructure:
    """Random DAG via a random ordering with edge probability p."""
    order = rng.permutation(n)
    parents = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < p:
                parents[order[i]].append(order[j])
    return DagStructure(n, tuple(tuple(sorted(ps)) for ps in parents))


def random_gaussian_dag(
    structure: DagStructure, rng: np.random.Generator
) -> GaussianDag:
    n = structure.n
    coeffs = tuple(rng.normal(0, 1, len(ps)) for ps in structure.parents)
    return GaussianDag(
        structure,
        rng.normal(0, 2, n),
        coeffs,
        rng.uniform(0.3, 2.0, n),
    )


def single_node_model(mean: float, variance: float = 1.0) -> GaussianDag:
    return GaussianDag(
        empty_structure(1), np.array([mean]), (np.zeros(0),), np.array([variance])
    )


def two_component_1d(mean_a: float, mean_b: float, w: float = 0.5) -> MdagModel:
    return MdagModel(
        np.array([w, 1 - w]),
        (single_node_model(mean_a), single_node_model(mean_b)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
