import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

from dagmix.bayes import DirichletPrior, NormalWishart, map_parameters
from dagmix.errors import AllComponentsZeroDensity
from dagmix.model import (
    DagStructure,
    FamilyPlan,
    GaussianDag,
    MdagModel,
    NoiseComponent,
    _chol_with_jitter,
    complete_structure,
    sample,
)
from dagmix.scoring import observed_loglik
from dagmix.stats import (
    _densities,
    component_case_loglik,
    expected_stats,
    group_cases,
    mixture_loglik,
)
from conftest import (
    Triple,
    chol_logdet,
    chol_solve,
    joint_moments,
    labeled_stats,
    mixture_stats,
    node_log_density,
    oracle_densities,
    oracle_expected_stats,
    oracle_group_cases,
    oracle_map_parameters,
    oracle_normalize,
    random_dag,
    random_gaussian_dag,
    single_node_model,
    triples_of,
    two_component_1d,
)


def case_order(cases) -> np.ndarray:
    """The case at each place of the sweep's mask order."""
    if cases.position is None:
        return np.arange(cases.cases)
    return np.argsort(cases.position)


def chain_model():
    structure = DagStructure(2, ((), (0,)))
    return GaussianDag(structure, np.zeros(2), (np.zeros(0), np.ones(1)), np.ones(2))


def one_case_counts(model: MdagModel, y) -> np.ndarray:
    """Responsibilities of one (partial) case: the counts of a one-case sweep."""
    ms, _ = expected_stats(group_cases(np.asarray(y, dtype=float)[None, :]), model.stacked)
    return ms.counts


def one_case_moments(g: GaussianDag, y) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and covariance of the NaN cells of y, read off the
    one-case statistics of a single-component mixture: r[mis] is the mean
    and s[mis, mis] - r[mis] r[mis]^T the covariance."""
    y = np.asarray(y, dtype=float)
    ms, _ = expected_stats(group_cases(y[None, :]), MdagModel(np.array([1.0]), (g,)).stacked)
    t = triples_of(ms)[0]
    mis = np.flatnonzero(np.isnan(y))
    mean = t.r[mis]
    return mean, t.s[np.ix_(mis, mis)] - np.outer(mean, mean)


def bayes_rule_1d(model: MdagModel, x: np.ndarray) -> np.ndarray:
    """(cases, components) posterior probabilities of 1-d Gaussian
    components, from their densities by Bayes' rule."""
    means = [g.intercepts[0] for g in model.components]
    sds = [np.sqrt(g.variances[0]) for g in model.components]
    joint = model.weights * sps.norm.pdf(x[:, None], loc=means, scale=sds)
    return joint / joint.sum(axis=1, keepdims=True)


class TestMerge:
    def test_per_case_merge_equals_batch(self, rng):
        model = two_component_1d(0.0, 4.0)
        data, _ = sample(model, 40, rng)
        batch, _ = expected_stats(group_cases(data), model.stacked)
        resp = bayes_rule_1d(model, data[:, 0])
        counts = resp.sum(axis=0)
        squares = resp.T @ data[:, 0] ** 2
        for c, tb in enumerate(triples_of(batch)):
            assert counts[c] == pytest.approx(tb.n, abs=1e-10)
            assert np.allclose(squares[c], tb.s, atol=1e-8)


class TestResponsibilities:
    def test_single_component(self):
        m = MdagModel(np.array([1.0]), (single_node_model(0.0),))
        assert one_case_counts(m, np.zeros(1)) == pytest.approx([1.0])

    def test_midpoint_symmetry(self):
        m = two_component_1d(0.0, 5.0)
        r = one_case_counts(m, np.array([2.5]))
        assert r == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_bayes_rule_oracle(self):
        m = two_component_1d(0.0, 5.0)
        r = one_case_counts(m, np.array([0.0]))
        phi0, phi5 = sps.norm.pdf(0.0, 0, 1), sps.norm.pdf(0.0, 5, 1)
        assert r[0] == pytest.approx(phi0 / (phi0 + phi5), abs=1e-12)

    def test_unobserved_case_returns_weights(self):
        m = two_component_1d(0.0, 5.0, w=0.3)
        r = one_case_counts(m, np.array([np.nan]))
        assert np.allclose(r, [0.3, 0.7])

    def test_sum_to_one_nonnegative(self, rng):
        g = random_gaussian_dag(random_dag(3, rng), rng)
        h = random_gaussian_dag(random_dag(3, rng), rng)
        m = MdagModel(np.array([0.4, 0.6]), (g, h))
        for _ in range(40):
            y = rng.normal(0, 3, 3)
            if rng.random() < 0.5:
                y[rng.integers(3)] = np.nan
            r = one_case_counts(m, y)
            assert np.all(r >= 0)
            assert r.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_density(self):
        noise = NoiseComponent(np.zeros(1), np.ones(1))
        m = MdagModel(np.array([1.0, 0.0]), (single_node_model(0.0),), noise)
        with pytest.raises(AllComponentsZeroDensity):
            one_case_counts(m, np.array([9.0]))


class TestConditionalMoments:
    def test_fully_observed_empty(self):
        mean, cov = one_case_moments(chain_model(), np.array([1.0, 2.0]))
        assert mean.shape == (0,)
        assert cov.shape == (0, 0)

    def test_nothing_observed_unconditional(self):
        g = chain_model()
        mean, cov = one_case_moments(g, np.array([np.nan, np.nan]))
        jm, jc = joint_moments(g)
        assert np.allclose(mean, jm)
        assert np.allclose(cov, jc)

    def test_bivariate_conditioning(self):
        # joint covariance [[1,1],[1,2]]: E[X1|X0=1] = 1, Var = 2 - 1 = 1
        mean, cov = one_case_moments(chain_model(), np.array([1.0, np.nan]))
        assert mean == pytest.approx([1.0])
        assert cov[0, 0] == pytest.approx(1.0)

    def test_matches_scipy_conditional(self, rng):
        g = random_gaussian_dag(random_dag(4, rng, p=0.6), rng)
        jm, jc = joint_moments(g)
        y = np.array([0.7, np.nan, -1.2, np.nan])
        mean, cov = one_case_moments(g, y)
        obs, mis = [0, 2], [1, 3]
        gain = jc[np.ix_(mis, obs)] @ np.linalg.inv(jc[np.ix_(obs, obs)])
        expect_mean = jm[mis] + gain @ (y[obs] - jm[obs])
        expect_cov = jc[np.ix_(mis, mis)] - gain @ jc[np.ix_(obs, mis)]
        assert np.allclose(mean, expect_mean, atol=1e-9)
        assert np.allclose(cov, expect_cov, atol=1e-9)


class TestExpectedStats:
    def test_counts_sum_to_cases(self, rng):
        m = two_component_1d(0.0, 3.0)
        data, _ = sample(m, 60, rng)
        data[::7, 0] = np.nan
        ms, _ = expected_stats(group_cases(data), m.stacked)
        assert ms.counts.sum() == pytest.approx(60, abs=1e-8)

    def test_one_hot_equals_exact(self, rng):
        # degenerate weights make responsibilities one-hot
        a, b = single_node_model(0.0), single_node_model(50.0)
        m = MdagModel(np.array([1.0, 0.0]), (a, b))
        data = rng.normal(0, 1, (30, 1))
        ms, _ = expected_stats(group_cases(data), m.stacked)
        exact = labeled_stats(data, np.zeros(30, dtype=int), 2)
        assert triples_of(ms)[0].n == pytest.approx(triples_of(exact)[0].n, rel=1e-10)
        assert np.allclose(triples_of(ms)[0].r, triples_of(exact)[0].r, rtol=1e-10)
        assert np.allclose(triples_of(ms)[0].s, triples_of(exact)[0].s, rtol=1e-10)

    def test_two_case_hand_enumeration(self):
        m = two_component_1d(0.0, 2.0)
        data = np.array([[0.5], [1.5]])
        ms, _ = expected_stats(group_cases(data), m.stacked)
        expected_triples = [np.zeros(3), np.zeros(3)]  # n, r, s per component
        for x, r in zip(data[:, 0], bayes_rule_1d(m, data[:, 0])):
            for c in range(2):
                expected_triples[c] += r[c] * np.array([1.0, x, x * x])
        for c in range(2):
            assert triples_of(ms)[c].n == pytest.approx(expected_triples[c][0], abs=1e-12)
            assert triples_of(ms)[c].r[0] == pytest.approx(expected_triples[c][1], abs=1e-12)
            assert triples_of(ms)[c].s[0, 0] == pytest.approx(expected_triples[c][2], abs=1e-12)

    def test_missing_coordinate_adds_conditional_covariance(self):
        # with x1 missing, the second-moment must include Var(x1 | x0)
        g = chain_model()
        m = MdagModel(np.array([1.0]), (g,))
        data = np.array([[1.0, np.nan]])
        ms, _ = expected_stats(group_cases(data), m.stacked)
        jm, jc = joint_moments(g)
        cm = jm[1] + jc[1, 0] / jc[0, 0] * (1.0 - jm[0])
        cc = jc[1, 1] - jc[1, 0] ** 2 / jc[0, 0]
        assert triples_of(ms)[0].s[1, 1] == pytest.approx(cm**2 + cc, abs=1e-12)
        assert triples_of(ms)[0].s[0, 1] == pytest.approx(1.0 * cm, abs=1e-12)

    def test_centered_scatter_psd(self, rng):
        g = random_gaussian_dag(random_dag(3, rng, p=0.5), rng)
        h = random_gaussian_dag(random_dag(3, rng, p=0.5), rng)
        m = MdagModel(np.array([0.5, 0.5]), (g, h))
        data, _ = sample(m, 80, rng)
        data[rng.random(data.shape) < 0.2] = np.nan
        data = data[~np.isnan(data).all(axis=1)]
        ms, _ = expected_stats(group_cases(data), m.stacked)
        for t in triples_of(ms):
            if t.n > 1e-6:
                assert np.linalg.eigvalsh(t.s - np.outer(t.r, t.r) / t.n).min() >= -1e-8

    def test_noise_component_only_counts(self, rng):
        noise = NoiseComponent(np.full(1, -10.0), np.full(1, 10.0))
        m = MdagModel(np.array([0.4, 0.6]), (single_node_model(0.0),), noise)
        data, _ = sample(m, 50, rng)
        ms, _ = expected_stats(group_cases(data), m.stacked)
        assert ms.noise_count > 0
        assert len(triples_of(ms)) == 1  # one triple per Gaussian component
        assert ms.counts.tolist() == [ms.noise_count, triples_of(ms)[0].n]

    @pytest.mark.parametrize("case", ["complete", "missing", "noise"])
    def test_sweep_loglik_is_observed_loglik(self, rng, case):
        # EM traces read the sweep's value in place of observed_loglik, so
        # the two must agree bit for bit, all-missing rows included
        g = random_gaussian_dag(random_dag(3, rng, p=0.5), rng)
        h = random_gaussian_dag(random_dag(3, rng, p=0.5), rng)
        noise = None
        weights = np.array([0.5, 0.5])
        if case == "noise":
            noise = NoiseComponent(np.full(3, -50.0), np.full(3, 50.0))
            weights = np.array([0.1, 0.45, 0.45])
        m = MdagModel(weights, (g, h), noise)
        data, _ = sample(m, 80, rng)
        if case == "missing":
            data[rng.random(data.shape) < 0.2] = np.nan
            data[0] = np.nan
        cases = group_cases(data)
        _, loglik = expected_stats(cases, m.stacked)
        assert loglik == observed_loglik(cases, m)


class TestLabeledStats:
    # the test oracle that criteria 01 and 03 build exact statistics with
    def test_matches_manual_sums(self, rng):
        data = rng.normal(0, 1, (20, 2))
        labels = rng.integers(0, 2, 20)
        ms = labeled_stats(data, labels, 2)
        for c in range(2):
            rows = data[labels == c]
            assert triples_of(ms)[c].n == len(rows)
            assert np.allclose(triples_of(ms)[c].r, rows.sum(axis=0))
            assert np.allclose(triples_of(ms)[c].s, rows.T @ rows)


def test_component_case_loglik_matches_scipy(rng):
    mean = rng.normal(0, 1, 3)
    a = rng.normal(0, 1, (3, 3))
    cov = a @ a.T + np.eye(3)
    rows = rng.normal(0, 2, (20, 3))
    g = GaussianDag.from_joint(complete_structure(3), mean, cov)
    logp = component_case_loglik(MdagModel(np.array([1.0]), (g,)).stacked, group_cases(rows))
    expected = sps.multivariate_normal.logpdf(rows, mean=mean, cov=cov)
    assert np.allclose(logp[:, 0], expected, atol=1e-10)


# --- the joint-form sweep, the oracle of the regression-form sweep -----------
# One group per mask, regrouped on every call, and per (mask, component)
# pair a Cholesky factor of the joint covariance's observed block, the
# regression gain of the missing cells on the observed ones, and one solve
# per density.  The regression-form sweep adds in another order, so the two
# agree to SWEEP_RTOL relative to each array's largest entry; measured on
# 200 random models the gap is below 1e-13.

SWEEP_RTOL = 1e-10


def reference_groups(data):
    observed = ~np.isnan(data)
    if observed.all():
        return [(np.ones(data.shape[1], dtype=bool), np.arange(data.shape[0]))]
    masks, inverse = np.unique(observed, axis=0, return_inverse=True)
    return [(masks[g], np.flatnonzero(inverse == g)) for g in range(masks.shape[0])]


def reference_blocks(model, mask):
    blocks = []
    for mean, cov in map(joint_moments, model.components):
        obs, mis = np.flatnonzero(mask), np.flatnonzero(~mask)
        chol = _chol_with_jitter(cov[np.ix_(obs, obs)], np.linalg.LinAlgError)
        if mis.size:
            gain = chol_solve(chol, cov[np.ix_(obs, mis)]).T
            cond_cov = cov[np.ix_(mis, mis)] - gain @ cov[np.ix_(obs, mis)]
            cond_cov = 0.5 * (cond_cov + cond_cov.T)
        else:
            gain, cond_cov = np.zeros((0, obs.size)), np.zeros((0, 0))
        blocks.append((mean, obs, mis, chol, gain, cond_cov))
    return blocks


def reference_group_loglik(model, blocks, mask, rows):
    out = np.empty((rows.shape[0], model.n_components))
    col = 0
    obs = np.flatnonzero(mask)
    if model.has_noise:
        if obs.size:
            lo, hi = model.noise.lower[obs], model.noise.upper[obs]
            inside = np.all((rows[:, obs] >= lo) & (rows[:, obs] <= hi), axis=1)
            out[:, 0] = np.where(inside, -np.sum(np.log(hi - lo)), -np.inf)
        else:
            out[:, 0] = 0.0
        col = 1
    for j, (mean, obs_idx, _, chol, _, _) in enumerate(blocks):
        if obs_idx.size == 0:
            out[:, col + j] = 0.0
            continue
        solved = np.linalg.solve(chol, (rows[:, obs_idx] - mean[obs_idx]).T)
        quad = np.sum(solved**2, axis=0)
        logdet = chol_logdet(chol)
        out[:, col + j] = -0.5 * (obs_idx.size * np.log(2 * np.pi) + logdet + quad)
    return out


def reference_component_case_loglik(model, data):
    out = np.empty((data.shape[0], model.n_components))
    for mask, idx in reference_groups(data):
        blocks = reference_blocks(model, mask)
        out[idx] = reference_group_loglik(model, blocks, mask, data[idx])
    return out


def reference_expected_stats(data, model):
    n = model.n
    offset = 1 if model.has_noise else 0
    counts = np.zeros(model.n_components)
    sums = [np.zeros(n) for _ in range(model.n_components)]
    outers = [np.zeros((n, n)) for _ in range(model.n_components)]
    row_loglik = np.empty(data.shape[0])
    for mask, idx in reference_groups(data):
        rows = data[idx]
        blocks = reference_blocks(model, mask)
        logp = reference_group_loglik(model, blocks, mask, rows)
        resp, row_loglik[idx] = oracle_normalize(logp, model.weights)
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
    triples = tuple(
        Triple(float(counts[c]), sums[c], 0.5 * (outers[c] + outers[c].T))
        for c in range(offset, model.n_components)
    )
    noise_count = float(counts[0]) if offset else None
    return mixture_stats(triples, noise_count), float(np.sum(row_loglik))


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A random k=3 mixture of n=40 DAGs with two parents per node, and 3000
# cases, one in ten with a missing cell; prints the SHA-256 of the bytes of
# the sweep's statistics and log likelihood.
THREAD_PROBE = """
import hashlib
import numpy as np
from dagmix.engine import FitConfig, Schedule, fit
from dagmix.model import DagStructure, GaussianDag, MdagModel, sample
from dagmix.stats import expected_stats, group_cases

rng = np.random.default_rng(40)
n = 40
comps = []
for _ in range(3):
    order = rng.permutation(n)
    parents = [()] * n
    for i in range(2, n):
        parents[order[i]] = tuple(sorted(order[rng.choice(i, 2, replace=False)]))
    comps.append(GaussianDag(
        DagStructure(n, tuple(parents)), rng.normal(0, 2, n),
        tuple(rng.normal(0, 0.7, len(ps)) for ps in parents), rng.uniform(0.3, 2, n),
    ))
model = MdagModel(np.array([0.3, 0.3, 0.4]), tuple(comps))
data, _ = sample(model, 3000, rng)
data[rng.choice(3000, 300, replace=False), rng.integers(0, n, 300)] = np.nan
stats, loglik = expected_stats(group_cases(data), model.stacked)
h = hashlib.sha256(np.float64(loglik).tobytes())
for count, r, s in zip(stats.gaussian_counts, stats.sums, stats.seconds):
    h.update(np.float64(count).tobytes() + r.tobytes() + s.tobytes())
print(h.hexdigest())
# a whole fit of three outer iterations: E sweeps, M steps, search and CS
config = FitConfig(k=3, max_parents=2, max_outer=3, schedule=Schedule(em_steps=10))
result = fit(data, config)
h = hashlib.sha256(np.float64(result.cheeseman_stutz).tobytes() + result.model.weights.tobytes())
for g in result.model.components:
    h.update(repr(g.structure.parents).encode() + g.intercepts.tobytes() + g.variances.tobytes())
    h.update(b"".join(c.tobytes() for c in g.coefficients))
print(h.hexdigest())
"""


def near_singular_component(n: int) -> GaussianDag:
    """x1 = x0 plus noise of variance 1e-20, so any joint covariance block
    holding both is singular in floating point."""
    parents = tuple((0,) if i == 1 else () for i in range(n))
    coefs = tuple(np.ones(len(ps)) for ps in parents)
    variances = np.ones(n)
    variances[1] = 1e-20
    return GaussianDag(DagStructure(n, parents), np.zeros(n), coefs, variances)


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want[np.isfinite(want)]), initial=0.0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=SWEEP_RTOL * scale)


def assert_same_sweep(data, model):
    want, want_ll = reference_expected_stats(data, model)
    want_logp = reference_component_case_loglik(model, data)
    cases = group_cases(data)
    got, got_ll = expected_stats(cases, model.stacked)
    assert_close(got_ll, want_ll)
    assert_close(got.counts, want.counts)
    for tg, tw in zip(triples_of(got), triples_of(want), strict=True):
        assert_close(tg.n, tw.n)
        assert_close(tg.r, tw.r)
        assert_close(tg.s, tw.s)
    logp = component_case_loglik(model.stacked, cases)
    assert np.array_equal(np.isfinite(logp), np.isfinite(want_logp))
    assert_close(logp, want_logp)


class TestGroupedSweep:
    @staticmethod
    def random_model(rng, n, k, noise=False):
        comps = tuple(
            random_gaussian_dag(random_dag(n, rng, p=0.5), rng) for _ in range(k)
        )
        if not noise:
            return MdagModel(rng.dirichlet(np.ones(k)), comps)
        bounds = NoiseComponent(np.full(n, -40.0), np.full(n, 40.0))
        return MdagModel(rng.dirichlet(np.ones(k + 1)), comps, bounds)

    def test_random_masks(self, rng):
        for _ in range(30):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            model = self.random_model(rng, n, k, noise=rng.random() < 0.3)
            data = rng.normal(0, 3, (int(rng.integers(1, 300)), n))
            data[rng.random(data.shape) < rng.choice([0.0, 0.15, 0.5])] = np.nan
            assert_same_sweep(data, model)

    def test_all_missing_and_one_observed_cell(self, rng):
        model = self.random_model(rng, 4, 3)
        data = rng.normal(0, 2, (60, 4))
        data[rng.random(data.shape) < 0.3] = np.nan
        data[[3, 17]] = np.nan
        data[[5, 40], :] = np.nan
        data[[5, 40], 2] = [0.4, -1.1]
        assert_same_sweep(data, model)

    def test_noise_component(self, rng):
        model = self.random_model(rng, 3, 2, noise=True)
        data = rng.normal(0, 20, (120, 3))
        data[rng.random(data.shape) < 0.2] = np.nan
        assert_same_sweep(data, model)

    def test_complete_rows_match_log_density(self, rng):
        # the per-row oracle: each node's conditional density, summed
        for _ in range(20):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            model = self.random_model(rng, n, k, noise=rng.random() < 0.3)
            rows = rng.normal(0, 3, (int(rng.integers(1, 40)), n))
            logp = component_case_loglik(model.stacked, group_cases(rows))
            want = np.column_stack([node_log_density(g, rows) for g in model.components])
            if model.noise is not None:
                lo, hi = model.noise.lower, model.noise.upper
                inside = np.all((rows >= lo) & (rows <= hi), axis=1)
                noise = np.where(inside, -model.noise.log_volume, -np.inf)
                want = np.column_stack([noise, want])
            assert np.array_equal(np.isfinite(logp), np.isfinite(want))
            np.testing.assert_allclose(logp, want, rtol=1e-12)

    def test_near_singular_component(self, rng):
        # a variance of 1e-20 makes the joint covariance singular in floats;
        # the regression form still gives complete rows their exact density
        # (-2e16 to -2e20 here, where a jittered joint covariance gave about -4e8)
        # and every mask finite densities and statistics
        odd = near_singular_component(3)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(joint_moments(odd)[1])
        others = tuple(random_gaussian_dag(random_dag(3, rng), rng) for _ in range(2))
        model = MdagModel(np.array([0.3, 0.4, 0.3]), (others[0], odd, others[1]))
        data = rng.normal(0, 1, (400, 3))
        data[rng.random(data.shape) < 0.25] = np.nan
        cases = group_cases(data)
        assert len(cases.groups) == 8
        logp = component_case_loglik(model.stacked, cases)
        assert np.all(np.isfinite(logp))
        complete = ~np.isnan(data).any(axis=1)
        want = node_log_density(odd, data[complete])
        assert max(want) < -1e15
        np.testing.assert_allclose(logp[complete, 1], want, rtol=1e-12)
        stats, loglik = expected_stats(cases, model.stacked)
        assert np.isfinite(loglik)
        for t in triples_of(stats):
            assert np.isfinite(t.n) and np.all(np.isfinite(t.r)) and np.all(np.isfinite(t.s))
        # x1 missing and x0 observed: x1 = x0 up to a variance of 1e-20
        mean, cov = one_case_moments(odd, np.array([0.7, np.nan, -1.2]))
        assert mean == pytest.approx([0.7], rel=1e-12)
        assert cov[0, 0] == pytest.approx(1e-20, rel=1e-6)

    def assert_per_mask_bytes(self, data, model):
        # the sweep's densities and conditionals against the oracle's, which
        # factors each mask on its own and scatters its cases by index
        cases = group_cases(data)
        params = model.stacked
        ws = cases.workspace(params)
        factors = _densities(params, cases, ws)
        want_logp, want_conditionals = oracle_densities(params, oracle_group_cases(data))
        assert np.array_equal(ws.logp, want_logp[case_order(cases)].T)
        got_conditionals = [
            (views.filled, None if g.slot is None else factors[g.slot[0]].covs[g.slot[1]])
            for g, views in zip(cases.groups, ws.groups)
        ]
        for got, want in zip(got_conditionals, want_conditionals, strict=True):
            for got_part, want_part in zip(got, want, strict=True):
                assert (got_part is None) == (want_part is None)
                assert got_part is None or np.array_equal(got_part, want_part)

    def test_stacked_factors_give_per_mask_bytes(self, rng):
        # several masks per missing-cell count, each count stacked into one
        # QR, against each mask factored on its own
        for _ in range(30):
            n, k = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            model = self.random_model(rng, n, k, noise=rng.random() < 0.3)
            data = rng.normal(0, 3, (300, n))
            data[rng.random(data.shape) < rng.uniform(0.2, 0.6)] = np.nan
            data[:3] = np.nan  # nothing observed: m = n
            counts = [g.mis.size for g in group_cases(data).groups]
            assert n in counts and max(np.bincount(counts)[1:n]) > 1
            self.assert_per_mask_bytes(data, model)

    def test_one_mask_stack(self, rng):
        model = self.random_model(rng, 5, 3, noise=True)
        data = rng.normal(0, 3, (50, 5))
        data[:, [1, 3]] = np.nan
        assert len(group_cases(data).groups) == 1
        self.assert_per_mask_bytes(data, model)

    @pytest.mark.parametrize("noise", [False, True])
    def test_sweep_after_the_first_allocates_nothing_per_case(self, noise):
        # three masks at n = 40, k = 3: the second sweep over one CaseGroups
        # reuses the first one's workspace, and the noise component's log
        # densities are computed once for its bounds
        def second_sweep_peak(count):
            rng = np.random.default_rng(5)
            model = self.random_model(rng, 40, 3, noise=noise)
            data = rng.normal(0, 3, (count, 40))
            data[1::3, 0] = np.nan
            data[2::3, [5, 17]] = np.nan
            cases, params = group_cases(data), model.stacked
            expected_stats(cases, params)
            tracemalloc.start()
            try:
                expected_stats(cases, params)
                mixture_loglik(cases, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = second_sweep_peak(1000), second_sweep_peak(9000)
        assert large - small < 8 * 8000  # less than one float per added case

    def test_sweep_bytes_do_not_depend_on_blas_threads(self):
        # one n=40 sweep over 3000 cases, then a fit of the same data, in a
        # fresh interpreter per thread count; only one and two threads are
        # checked
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": SRC}
            env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
            out = subprocess.run(
                [sys.executable, "-c", THREAD_PROBE], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            )
            digests.append(out.stdout.split())
        assert [len(d) for d in digests[0]] == [64, 64]
        assert digests[0] == digests[1]

    def test_groups(self, rng):
        data = rng.normal(0, 1, (50, 3))
        data[rng.random(data.shape) < 0.3] = np.nan
        cases = group_cases(data)
        assert (cases.cases, cases.n) == (50, 3)
        order = case_order(cases)
        assert sorted(order) == list(range(50))
        assert [g.rows.start for g in cases.groups[1:]] == [g.rows.stop for g in cases.groups[:-1]]
        assert (cases.groups[0].rows.start, cases.groups[-1].rows.stop) == (0, 50)
        for g in cases.groups:
            idx = order[g.rows]
            assert np.all(np.diff(idx) > 0)
            assert np.all(~np.isnan(data[idx]) == g.mask)
            assert g.design.shape == (len(idx), 4)
            assert np.array_equal(g.design[:, :3], np.nan_to_num(data[idx]))
            assert np.all(g.design[:, 3] == 1.0)


# --- the sweep and the M step against their oracles, bit for bit -------------


def holed(rng, cases: int, n: int, fraction: float, all_missing: bool) -> np.ndarray:
    """Random cases with each cell missing at ``fraction``; with
    ``all_missing`` two cases have nothing observed, and with missing cells
    one mask, cell 0 alone missing, belongs to one case only."""
    data = rng.normal(0, 3, (cases, n))
    data[rng.random(data.shape) < fraction] = np.nan
    if fraction and n > 1 and cases > 4:
        data[3] = rng.normal(0, 3, n)
        data[3, 0] = np.nan
        same = np.flatnonzero((np.isnan(data) == np.isnan(data[3])).all(axis=1))
        data[same[same != 3], 0] = 1.5
    if all_missing:
        data[:2] = np.nan
    return data


def assert_sweep_is_the_oracle(data, model, prior, cases=None):
    """Statistics, log likelihoods, per-case densities and the M step read
    off them equal the oracle's, in two sweeps over one CaseGroups (by
    default a fresh one)."""
    params = model.stacked
    want, want_ll = oracle_expected_stats(data, params)
    cases = group_cases(data) if cases is None else cases
    for _ in range(2):  # the second sweep reuses the first one's workspace
        got, got_ll = expected_stats(cases, params)
        assert got_ll == want_ll
        assert np.array_equal(got.counts, want.counts)
        assert np.array_equal(got.sums, want.sums)
        assert np.array_equal(got.seconds, want.seconds)
        assert mixture_loglik(cases, params) == want_ll
    want_logp = oracle_densities(params, oracle_group_cases(data))[0]
    assert np.array_equal(component_case_loglik(params, cases), want_logp)
    plan = FamilyPlan(tuple(g.structure for g in model.components))
    dirichlet = DirichletPrior(np.full(params.n_components, 1.0 / params.n_components))
    got_m = map_parameters(got, plan, prior, dirichlet, model.noise)
    want_m = oracle_map_parameters(want, plan, prior, dirichlet, model.noise)
    for name in ("weights", "intercepts", "variances", "b", "a", "w", "const"):
        assert np.array_equal(getattr(got_m, name), getattr(want_m, name)), name


class TestSweepOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_mixtures(self, seed):
        rng = np.random.default_rng([27, seed])
        n = int(rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 40]))
        k = int(rng.integers(1, 5))
        noise = bool(seed % 4 == 3)
        comps = tuple(
            random_gaussian_dag(random_dag(n, rng, p=min(0.5, 3.0 / n)), rng) for _ in range(k)
        )
        weights = rng.dirichlet(np.ones(k + noise))
        box = NoiseComponent(np.full(n, -40.0), np.full(n, 40.0)) if noise else None
        model = MdagModel(weights, comps, box)
        fraction = float(rng.choice([0.0, 0.05, 0.2, 0.4, 0.6]))
        data = holed(rng, int(rng.integers(1, 900)), n, fraction, all_missing=seed % 3 == 1)
        prior = NormalWishart(2.0, rng.normal(0, 1, n), n + 3.0, np.eye(n))
        assert_sweep_is_the_oracle(data, model, prior)

    def test_two_component_counts_and_two_data_sets(self, rng):
        # one CaseGroups keeps a workspace per component count, and sweeps
        # over two data sets may alternate; a workspace's noise densities
        # follow the noise bounds of the sweep
        models = [TestGroupedSweep.random_model(rng, 5, k) for k in (3, 2)]
        for half in (40.0, 4.0):
            noisy = TestGroupedSweep.random_model(rng, 5, 2, noise=True)
            box = NoiseComponent(np.full(5, -half), np.full(5, half))
            models.append(MdagModel(noisy.weights, noisy.components, box))
        sets = [holed(rng, 700, 5, 0.3, all_missing=True), rng.normal(0, 3, (300, 5))]
        grouped = [group_cases(data) for data in sets]
        prior = NormalWishart(2.0, np.zeros(5), 8.0, np.eye(5))
        for _ in range(2):
            for data, cases in zip(sets, grouped):
                for model in models:
                    assert_sweep_is_the_oracle(data, model, prior, cases)

    def test_every_case_its_own_mask(self, rng):
        # n = 12 with 40% of cells missing: hundreds of masks, most of them
        # single-case products on numpy's matrix-vector path, whose moment
        # terms take more than one reduction
        model = TestGroupedSweep.random_model(rng, 12, 3, noise=True)
        data = holed(rng, 500, 12, 0.4, all_missing=True)
        sizes = [g.size for g in group_cases(data).groups]
        assert len(sizes) >= 300 and sizes.count(1) > len(sizes) / 2
        assert_sweep_is_the_oracle(data, model, NormalWishart(2.0, np.zeros(12), 15.0, np.eye(12)))
        TestGroupedSweep().assert_per_mask_bytes(data, model)

    def test_single_case_masks(self, rng):
        model = TestGroupedSweep.random_model(rng, 6, 3, noise=True)
        data = holed(rng, 40, 6, 0.6, all_missing=True)
        sizes = [g.size for g in group_cases(data).groups]
        assert sizes.count(1) >= 5
        assert_sweep_is_the_oracle(data, model, NormalWishart(2.0, np.zeros(6), 9.0, np.eye(6)))


@given(st.integers(1, 70).flatmap(
    lambda n: hnp.arrays(bool, st.tuples(st.integers(1, 60), st.just(n)))
))
def test_groups_are_the_unique_masks(observed):
    # packed-bit keys give np.unique(axis=0)'s masks, in its order, and its
    # cases per mask, ascending
    data = np.where(observed, 1.0, np.nan)
    cases = group_cases(data)
    masks, inverse = np.unique(observed, axis=0, return_inverse=True)
    assert np.array_equal(np.array([g.mask for g in cases.groups]), masks)
    order = case_order(cases)
    for i, g in enumerate(cases.groups):
        assert np.array_equal(order[g.rows], np.flatnonzero(inverse.ravel() == i))
    if cases.position is not None:
        assert np.array_equal(cases.position[order], np.arange(len(data)))
    else:
        assert np.array_equal(order, np.arange(len(data)))
