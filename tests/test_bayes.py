from itertools import combinations

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import gammaln, multigammaln

from dagmix.bayes import (
    DirichletPrior,
    NormalWishart,
    _gammaln,
    _map_joints,
    _multigammaln,
    _posteriors,
    data_informed_prior,
    dirichlet_log_marglik,
    dirichlet_map,
    family_marginals,
    local_score,
    map_parameters,
    sample_joint_parameters,
)
from dagmix.errors import NonPsdScatter, SingularParentBlock
from dagmix.model import (
    DagStructure,
    FamilyPlan,
    GaussianDag,
    NoiseComponent,
    _chol_with_jitter,
    empty_structure,
)
from dagmix.stats import COUNT_FLOOR, MixtureStats
from conftest import (
    OracleMarginals,
    Triple,
    joint_moments,
    library_structure_score,
    map_component,
    map_joint,
    marginals_of,
    mixture_stats,
    oracle_m_step,
    oracle_posterior,
    oracle_regression_stack,
    random_dag,
    sliced_marginal_loglik,
    triples_of,
    zero_stats,
    zero_triple,
)


def triple_of(data: np.ndarray) -> Triple:
    """One component's statistics of the cases."""
    data = np.atleast_2d(data)
    return Triple(float(len(data)), data.sum(axis=0), data.T @ data)


def stats_of(data: np.ndarray) -> MixtureStats:
    """The one-component statistics of the cases."""
    return mixture_stats((triple_of(data),))


def weighted_triple(rows: np.ndarray, weights: np.ndarray) -> Triple:
    """One component's statistics of the cases at fractional weights."""
    return Triple(float(weights.sum()), weights @ rows, (weights[:, None] * rows).T @ rows)


def twin_column_stats(rows):
    """Statistics in which variables 0 and 1 are exactly the same column."""
    rows = rows.copy()
    rows[:, 1] = rows[:, 0]
    t = triple_of(rows)
    r, s = t.r.copy(), t.s.copy()
    r[1] = r[0]
    s[1, :] = s[0, :]
    s[:, 1] = s[:, 0]
    return mixture_stats((Triple(t.n, r, s),))


def random_prior(n: int, rng: np.random.Generator) -> NormalWishart:
    a = rng.normal(0, 1, (n, n))
    return NormalWishart(
        float(rng.uniform(0.5, 4.0)),
        rng.normal(0, 2, n),
        float(n + rng.uniform(0.5, 3.0)),
        a @ a.T + n * np.eye(n),
    )


def sequential_marginal_loglik(
    prior: NormalWishart, rows: np.ndarray, family: tuple[int, ...]
) -> float:
    """Chain-rule oracle: product of multivariate-t predictive densities,
    with the conjugate update re-derived case by case in test code."""
    idx = list(family)
    size = len(idx)
    nu = prior.nu
    alpha = prior.alpha - (prior.dim - size)
    mu = prior.mu0[idx].copy()
    tau = prior.tau[np.ix_(idx, idx)].copy()
    total = 0.0
    for row in np.atleast_2d(rows):
        x = row[idx]
        df = alpha - size + 1
        shape = tau * (nu + 1) / (nu * df)
        total += sps.multivariate_t.logpdf(x, loc=mu, shape=shape, df=df)
        diff = x - mu
        tau = tau + (nu / (nu + 1)) * np.outer(diff, diff)
        mu = (nu * mu + x) / (nu + 1)
        nu += 1
        alpha += 1
    return float(total)


def posterior_of(prior: NormalWishart, mix_stats: MixtureStats) -> NormalWishart:
    """The posterior of one-component statistics, off the stacked path."""
    nu, mu, alpha, tau = _posteriors(
        prior, mix_stats.gaussian_counts, mix_stats.sums, mix_stats.seconds
    )
    return NormalWishart(float(nu[0]), mu[0], float(alpha[0]), tau[0])


def assert_posterior_is_the_oracle(prior: NormalWishart, mix_stats: MixtureStats):
    """Every row of the stacked posterior equals the per-triple oracle's."""
    stacked = _posteriors(prior, mix_stats.gaussian_counts, mix_stats.sums, mix_stats.seconds)
    for c, t in enumerate(triples_of(mix_stats)):
        for got, want in zip(stacked, oracle_posterior(prior, t), strict=True):
            assert np.array_equal(got[c], want)


class TestPosteriorUpdate:
    def test_empty_batch_is_identity(self, rng):
        prior = random_prior(2, rng)
        post = posterior_of(prior, zero_stats(2))
        assert (post.nu, post.alpha) == (prior.nu, prior.alpha)
        assert np.array_equal(post.mu0, prior.mu0)
        assert np.array_equal(post.tau, prior.tau)

    def test_hand_computed_single_case(self):
        prior = NormalWishart(1.0, np.zeros(1), 1.0, np.eye(1))
        post = posterior_of(prior, stats_of(np.array([[2.0]])))
        assert post.nu == pytest.approx(2.0)
        assert post.mu0[0] == pytest.approx(1.0)
        assert post.alpha == pytest.approx(2.0)
        # tau' = 1 + 0 + (1*1/2) * 2^2 = 3
        assert post.tau[0, 0] == pytest.approx(3.0)

    def test_fractional_count(self):
        prior = NormalWishart(1.0, np.zeros(1), 1.0, np.eye(1))
        t = mixture_stats((Triple(0.5, np.array([1.0]), np.array([[2.0]])),))
        post = posterior_of(prior, t)
        # scatter = 2 - 1/0.5 = 0; shift = (1*0.5/1.5)(2 - 0)^2 = 4/3
        assert post.nu == pytest.approx(1.5)
        assert post.alpha == pytest.approx(1.5)
        assert post.mu0[0] == pytest.approx(2.0 / 3.0)
        assert post.tau[0, 0] == pytest.approx(1.0 + 4.0 / 3.0)

    def test_batch_equals_sequential(self, rng):
        prior = random_prior(3, rng)
        rows = rng.normal(0, 2, (8, 3))
        batch = posterior_of(prior, stats_of(rows))
        seq = prior
        for row in rows:
            seq = posterior_of(seq, stats_of(row[None, :]))
        assert seq.nu == pytest.approx(batch.nu, abs=1e-10)
        assert np.allclose(seq.mu0, batch.mu0, atol=1e-10)
        assert np.allclose(seq.tau, batch.tau, atol=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stacked_rows_are_the_per_triple_oracle(self, rng, k):
        # fractional weights, a component with no cases and one at the
        # count floor (both keep the prior) beside live ones
        for n in (1, 3, 5, 8):
            prior = random_prior(n, rng)
            rows = rng.normal(0, 2, (30, n)) @ rng.normal(0, 1, (n, n))
            triples = [weighted_triple(rows, rng.uniform(0.05, 1.0, 30)) for _ in range(k)]
            assert_posterior_is_the_oracle(prior, mixture_stats(triples))
            triples[0] = zero_triple(n)
            triples[-1] = Triple(COUNT_FLOOR, triples[-1].r * 1e-300, triples[-1].s * 1e-300)
            assert_posterior_is_the_oracle(prior, mixture_stats(triples, noise_count=2.5))

    def test_non_psd_scatter_rejected(self):
        from dagmix.errors import NonPsdScatter

        bad = mixture_stats((Triple(2.0, np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]])),))
        with pytest.raises(NonPsdScatter):
            posterior_of(NormalWishart(1.0, np.zeros(2), 3.0, np.eye(2)), bad)

    def test_scaled_non_psd_scatter_rejected(self):
        # the tolerance grows with the largest eigenvalue, but a negative
        # eigenvalue far above rounding still fails
        from dagmix.errors import NonPsdScatter

        bad = mixture_stats((Triple(2.0, np.zeros(2), np.diag([1e12, -1e6])),))
        with pytest.raises(NonPsdScatter):
            posterior_of(NormalWishart(1.0, np.zeros(2), 3.0, np.eye(2)), bad)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shifted_collinear_data_fits(self, seed):
        # s - r r^T / N cancels on data offset by 1e5: the exact scatter of
        # (z, 3z + 1e5, w) is singular, and its rounded smallest eigenvalue
        # falls below -1e-8 on these seeds
        from dagmix.engine import FitConfig, fit

        rng = np.random.default_rng(seed)
        z, w = 1e4 * rng.standard_normal((2, 3000))
        data = np.column_stack([z, 3 * z + 1e5, w])
        structure = fit(data, FitConfig(k=1, seed=seed)).model.components[0].structure
        assert set(structure.arcs()) in ({(0, 1)}, {(1, 0)})


class TestFamilyMarginal:
    def test_empty_batch(self, rng):
        prior = random_prior(2, rng)
        assert marginals_of(prior, zero_stats(2)).fill([(0,)])[0] == 0.0

    def test_one_case_equals_student_t(self):
        nu, mu, alpha, tau = 1.5, 0.3, 2.2, 0.8
        prior = NormalWishart(nu, np.array([mu]), alpha, np.array([[tau]]))
        x = 1.7
        value = marginals_of(prior, stats_of(np.array([[x]]))).fill([(0,)])[0]
        scale = np.sqrt(tau * (nu + 1) / (nu * alpha))
        assert value == pytest.approx(sps.t.logpdf(x, df=alpha, loc=mu, scale=scale), abs=1e-12)

    def test_batch_equals_chain_rule_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            prior = random_prior(n, rng)
            count = int(rng.integers(1, 11))
            rows = rng.normal(0, 2, (count, n))
            size = int(rng.integers(1, n + 1))
            family = tuple(rng.choice(n, size=size, replace=False))
            ours = marginals_of(prior, stats_of(rows)).fill([family])[0]
            oracle = sequential_marginal_loglik(prior, rows, family)
            assert ours == pytest.approx(oracle, abs=1e-8)


class TestFamilyMarginals:
    def test_bit_identical_to_sliced_formula(self, rng):
        # non-identity tau, non-zero mu0, fractional weights and families in
        # unsorted order; the value read off the full posterior scale must
        # equal the sliced formula on the sorted family exactly, on a miss
        # and on a memo hit
        for _ in range(40):
            n = int(rng.integers(2, 13))
            prior = random_prior(n, rng)
            rows = rng.normal(0, 2, (int(rng.integers(1, 40)), n))
            t = weighted_triple(rows, rng.uniform(0.05, 1.0, len(rows)))
            marginals = marginals_of(prior, mixture_stats((t,)))
            for _ in range(10):
                size = int(rng.integers(1, n + 1))
                family = tuple(int(i) for i in rng.choice(n, size=size, replace=False))
                oracle = sliced_marginal_loglik(prior, t, tuple(sorted(family)))
                assert marginals.fill([family])[0] == oracle
                assert marginals.fill([family])[0] == oracle
                assert marginals_of(prior, mixture_stats((t,))).fill([family])[0] == oracle
                child, parents = family[0], family[1:]
                expected = oracle
                if parents:
                    expected = oracle - sliced_marginal_loglik(
                        prior, t, tuple(sorted(parents))
                    )
                assert local_score(marginals, child, parents) == expected

    @pytest.mark.parametrize("tau", ["identity", "random"])
    def test_fill_equals_sliced_formula(self, rng, tau):
        # one stacked factorisation per size gives every family the value of
        # the per-family formula; sizes 8 and up reach numpy's pairwise
        # summation in the log-determinant sum
        for n in (3, 8, 20, 33, 40):
            if tau == "identity":
                prior = NormalWishart(2.0, np.zeros(n), n + 2.0, np.eye(n))
            else:
                prior = random_prior(n, rng)
            rows = rng.normal(0, 2, (30, n)) @ rng.normal(0, 1, (n, n))
            weights = rng.uniform(0.05, 1.0, len(rows))
            for t in (
                triple_of(rows),
                weighted_triple(rows, weights),
                zero_triple(n),
            ):
                families = [
                    tuple(int(i) for i in rng.choice(n, size=size, replace=False))
                    for size in range(1, min(n, 20) + 1)
                    for _ in range(4)
                ]
                marginals = marginals_of(prior, mixture_stats((t,)))
                values = marginals.fill(families + families[:5])
                for family, value in zip(families, values):
                    expected = sliced_marginal_loglik(prior, t, tuple(sorted(family)))
                    assert marginals.fill([family])[0] == value == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stacked_components_are_the_per_triple_oracle(self, rng, k):
        # every family of every component of one stacked build, at n <= 5
        # over all subsets, equals the per-triple oracle; then with the last
        # component at the count floor, where it keeps the prior, and a
        # noise component's count ahead of the stacks
        for n in range(1, 6):
            prior = random_prior(n, rng)
            rows = rng.normal(0, 2, (20, n)) @ rng.normal(0, 1, (n, n))
            live = [weighted_triple(rows, rng.uniform(0.05, 1.0, 20)) for _ in range(k)]
            floored = live[:-1] + [Triple(COUNT_FLOOR, np.zeros(n), np.zeros((n, n)))]
            families = [f for size in range(n + 1) for f in combinations(range(n), size)]
            for triples, noise in ((live, None), (floored, 1.5)):
                stacked = family_marginals(prior, mixture_stats(triples, noise))
                for marginals, t in zip(stacked, triples, strict=True):
                    assert marginals.fill(families) == OracleMarginals(prior, t).fill(families)
                if noise is not None:  # the floored component keeps the prior
                    assert set(stacked[-1].fill(families)) == {0.0}

    def test_fill_skips_memoised_families(self, rng):
        prior = random_prior(4, rng)
        marginals = marginals_of(prior, stats_of(rng.normal(0, 1, (9, 4))))
        first = marginals.fill([(3, 1)])[0]
        marginals.fill([(3, 1), (0, 2), (0,)])
        assert marginals.fill([(3, 1)])[0] is first

    def test_zero_and_fractional_counts(self, rng):
        prior = random_prior(3, rng)
        assert marginals_of(prior, zero_stats(3)).fill([(2, 0)])[0] == 0.0
        rows = rng.normal(0, 1, (1, 3))
        t = Triple(0.3, 0.3 * rows[0], 0.3 * np.outer(rows[0], rows[0]))
        marginals = marginals_of(prior, mixture_stats((t,)))
        for family in ((0,), (2, 1), (1, 0, 2)):
            expected = sliced_marginal_loglik(prior, t, tuple(sorted(family)))
            assert marginals.fill([family])[0] == expected

    def test_memo_is_keyed_by_variable_set(self, rng):
        prior = random_prior(3, rng)
        t = stats_of(rng.normal(0, 1, (8, 3)))
        marginals = marginals_of(prior, t)
        first = marginals.fill([(0, 2)])[0]
        assert marginals.fill([(np.int64(0), 2)])[0] is first
        assert marginals.fill([(2, 0)])[0] is first
        assert first == sliced_marginal_loglik(prior, triples_of(t)[0], (0, 2))
        assert marginals.fill([(2, 0), (1, 2, 0)])[0] is first
        assert marginals.fill([(0, 2, 1)])[0] is marginals.fill([(1, 0, 2)])[0]


def alternating_twin_stats(rng: np.random.Generator, n: int) -> MixtureStats:
    """Twin columns 0 and 1 of 64 cases of +-1, so their centred scatter
    block is exactly [[64, 64], [64, 64]] and a plain Cholesky of it fails."""
    rows = rng.standard_normal((64, n)) @ rng.standard_normal((n, n))
    rows[:, 0] = np.tile([1.0, -1.0], 32)
    return twin_column_stats(rows)


class TestStackedFallback:
    # tau is zero on variables 0 and 1, so the twin block of T' is singular
    # and every tau_Y block that touches 0 or 1 needs the jitter retry
    tau = np.diag([0.0, 0.0, 1.0, 1.0, 1.0])
    families = [(2, 3), (0, 1), (4, 2), (1, 0), (3, 0), (0, 1, 2), (2, 3, 4)]

    def test_jitter_rescued_block_keeps_its_value(self, rng):
        prior = NormalWishart(1.0, np.zeros(5), 7.0, self.tau)
        t = alternating_twin_stats(rng, 5)
        scale = posterior_of(prior, t).tau
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(scale[:2, :2])
        marginals = marginals_of(prior, t)
        marginals.fill(self.families)
        for family in self.families:
            alone = marginals_of(prior, t).fill([family])[0]
            assert marginals.fill([family])[0] == alone
            assert alone == sliced_marginal_loglik(prior, triples_of(t)[0], tuple(sorted(family)))
        # the rescued block beside positive-definite ones: one retry each,
        # so every block of the stack gets the factor it gets alone
        blocks = np.array([scale[np.ix_(f, f)] for f in ((2, 3), (0, 1), (3, 4))])
        stacked = _chol_with_jitter(blocks, SingularParentBlock)
        for block, factor in zip(blocks, stacked):
            assert np.array_equal(factor, _chol_with_jitter(block, SingularParentBlock))

    def test_block_past_jitter_raises_singular_parent_block(self, rng):
        # the checks of NormalWishart keep such a scale out of the library,
        # so the twin block is pushed below zero after construction
        prior = NormalWishart(1.0, np.zeros(5), 7.0, self.tau)
        t = alternating_twin_stats(rng, 5)
        marginals = marginals_of(prior, t)
        marginals._scales[1, 1, 1] -= 1e-6  # the posterior scale
        with pytest.raises(SingularParentBlock):
            marginals.fill(self.families)
        (triple,) = triples_of(t)
        assert marginals.fill([(2, 3)])[0] == sliced_marginal_loglik(prior, triple, (2, 3))


class TestLocalScore:
    def test_orphan_equals_family(self, rng):
        prior = random_prior(2, rng)
        t = stats_of(rng.normal(0, 1, (6, 2)))
        assert marginals_of(prior, t).fill([()])[0] == 0.0
        for v in (0, 1):
            marginals = marginals_of(prior, t)
            assert local_score(marginals, v, ()).hex() == marginals.fill([(v,)])[0].hex()

    def test_chain_rule_both_orderings(self, rng):
        prior = random_prior(2, rng)
        marginals = marginals_of(prior, stats_of(rng.normal(0, 1, (9, 2))))
        forward = local_score(marginals, 1, (0,)) + local_score(marginals, 0, ())
        backward = local_score(marginals, 0, (1,)) + local_score(marginals, 1, ())
        assert forward == pytest.approx(backward, abs=1e-10)

    def test_empty_batch_zero(self, rng):
        marginals = marginals_of(random_prior(3, rng), zero_stats(3))
        assert local_score(marginals, 0, (1, 2)) == 0.0


class TestScoreEquivalence:
    def test_two_variable_reversal(self, rng):
        # 100 random data sets and priors; both orientations must score alike
        for _ in range(100):
            prior = random_prior(2, rng)
            t = stats_of(rng.normal(0, 2, (int(rng.integers(2, 20)), 2)))
            fwd = library_structure_score(prior, t, DagStructure(2, ((), (0,))))
            bwd = library_structure_score(prior, t, DagStructure(2, ((1,), ())))
            assert fwd == pytest.approx(bwd, abs=1e-8)

    def test_markov_equivalent_triples(self, rng):
        chain = DagStructure(3, ((), (0,), (1,)))
        reversed_chain = DagStructure(3, ((1,), (2,), ()))
        fork = DagStructure(3, ((1,), (), (1,)))
        collider = DagStructure(3, ((), (0, 2), ()))
        for _ in range(20):
            prior = random_prior(3, rng)
            t = stats_of(rng.normal(0, 1, (12, 3)))
            scores = [
                library_structure_score(prior, t, s) for s in (chain, reversed_chain, fork)
            ]
            assert max(scores) - min(scores) < 1e-8
            # the collider encodes different constraints; no equality expected
            assert abs(library_structure_score(prior, t, collider) - scores[0]) > 0


class TestLogGamma:
    # math.lgamma and scipy's gammaln round differently in the last bits, so
    # the library's helpers must match scipy within a stated tolerance, not
    # exactly: 1e-13 relative, with the same bound in absolute terms where
    # |log Gamma| < 1 (near its zeros at 1 and 2).  The measured gap is
    # about 1e-15 of max(1, |value|).
    TOL = dict(rel=1e-13, abs=1e-13)

    @staticmethod
    def arguments(rng):
        """The range a fit reaches: half-integer degrees of freedom,
        fractional counts and Dirichlet hyperparameters, and counts added to
        them up to 1e7."""
        return np.concatenate(
            [
                np.arange(1, 2001) / 2.0,
                rng.uniform(0.01, 100.0, 2000),
                10.0 ** rng.uniform(2.0, 7.0, 2000),
                [1e7, 1e7 + 0.5],
            ]
        )

    def test_gammaln_matches_scipy(self, rng):
        x = self.arguments(rng)
        assert _gammaln(x) == pytest.approx(gammaln(x), **self.TOL)
        assert _gammaln(x.reshape(2, -1)).shape == (2, x.size // 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 20, 40])
    def test_multigammaln_matches_scipy(self, rng, d):
        # a > (d - 1) / 2, as alpha > dim - 1 at the boundary keeps it;
        # d from 8 up reaches numpy's pairwise summation
        for a in (d - 1) / 2.0 + self.arguments(rng)[::8]:
            assert _multigammaln(a, d) == pytest.approx(multigammaln(a, d), **self.TOL)


class TestDirichlet:
    def test_zero_counts(self):
        prior = DirichletPrior(np.array([1.0, 2.0]))
        assert dirichlet_log_marglik(prior, np.zeros(2)) == 0.0

    def test_hand_value(self):
        # Gamma(2)/Gamma(5) * Gamma(3)Gamma(2)/(Gamma(1)Gamma(1)) = 1/12
        prior = DirichletPrior(np.array([1.0, 1.0]))
        value = dirichlet_log_marglik(prior, np.array([2.0, 1.0]))
        assert value == pytest.approx(np.log(1.0 / 12.0), abs=1e-12)

    def test_fractional_counts(self):
        prior = DirichletPrior(np.array([1.0, 1.0]))
        counts = np.array([0.5, 0.5])
        expected = (
            gammaln(2.0) - gammaln(3.0) + 2 * (gammaln(1.5) - gammaln(1.0))
        )
        assert dirichlet_log_marglik(prior, counts) == pytest.approx(expected, abs=1e-12)

    def test_map_symmetric(self):
        w = dirichlet_map(DirichletPrior(np.array([2.0, 2.0])), np.zeros(2))
        assert np.allclose(w, [0.5, 0.5])

    def test_map_mode_formula(self):
        w = dirichlet_map(DirichletPrior(np.ones(2)), np.array([3.0, 1.0]))
        assert np.allclose(w, [0.75, 0.25])

    def test_map_single_component(self):
        assert dirichlet_map(DirichletPrior(np.ones(1)), np.array([7.0])) == pytest.approx([1.0])

    def test_map_mean_fallback(self):
        # alpha + count - 1 < 0 for the empty slot: fall back to the mean
        w = dirichlet_map(DirichletPrior(np.array([0.5, 0.5])), np.array([0.0, 3.0]))
        assert np.allclose(w, [0.5 / 4.0, 3.5 / 4.0])
        assert w.sum() == pytest.approx(1.0)


def expected_log_posterior(
    g: GaussianDag, prior: NormalWishart, t: Triple
) -> float:
    """Expected complete-data log posterior of the component parameters,
    written independently: Q(theta) + log NIW(mean, covariance)."""
    mean, cov = joint_moments(g)
    n = prior.dim
    m_mat = (
        t.s
        - np.outer(t.r, mean)
        - np.outer(mean, t.r)
        + t.n * np.outer(mean, mean)
    )
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    q_term = -0.5 * t.n * (n * np.log(2 * np.pi) + logdet) - 0.5 * np.trace(
        np.linalg.solve(cov, m_mat)
    )
    diff = mean - prior.mu0
    log_prior = (
        -0.5 * (prior.alpha + n + 2) * logdet
        - 0.5 * np.trace(np.linalg.solve(cov, prior.tau))
        - 0.5 * prior.nu * diff @ np.linalg.solve(cov, diff)
    )
    return float(q_term + log_prior)


class TestMapParameters:
    def test_symmetric_data_zero_intercept(self, rng):
        prior = NormalWishart(2.0, np.zeros(1), 3.0, np.eye(1))
        rows = rng.normal(0, 1, (51, 1))
        rows = np.vstack([rows, -rows])  # exactly symmetric about 0
        g = map_component(prior, triple_of(rows), empty_structure(1))
        assert g.intercepts[0] == pytest.approx(0.0, abs=1e-10)

    def test_ols_limit(self, rng):
        x0 = rng.normal(0, 1, 20_000)
        rows = np.column_stack([x0, 2 * x0 + 0.05 * rng.normal(0, 1, x0.size)])
        prior = NormalWishart(0.5, np.zeros(2), 3.0, 0.01 * np.eye(2))
        g = map_component(prior, triple_of(rows), DagStructure(2, ((), (0,))))
        assert g.coefficients[1][0] == pytest.approx(2.0, abs=0.01)

    def test_empty_batch_prior_mode(self):
        prior = NormalWishart(2.0, np.array([1.0, -1.0]), 4.0, 2.0 * np.eye(2))
        g = map_component(prior, zero_triple(2), empty_structure(2))
        assert np.allclose(g.intercepts, prior.mu0)
        # joint-mode covariance tau/(alpha + n + 2)
        assert np.allclose(g.variances, 2.0 / (4.0 + 2 + 2))

    def test_perturbation_never_improves(self, rng):
        for trial in range(5):
            n = 3
            prior = random_prior(n, rng)
            rows = rng.normal(0, 1, (30, n)) @ rng.normal(0, 1, (n, n))
            t = triple_of(rows)
            structure = random_dag(n, rng, p=0.6)
            g = map_component(prior, t, structure)
            base = expected_log_posterior(g, prior, t)
            for i in range(n):
                for delta in (1e-4, -1e-4):
                    bumped = GaussianDag(
                        structure,
                        g.intercepts + delta * np.eye(n)[i],
                        g.coefficients,
                        g.variances,
                    )
                    assert expected_log_posterior(bumped, prior, t) <= base + 1e-8
                    bumped = GaussianDag(
                        structure,
                        g.intercepts,
                        g.coefficients,
                        g.variances * (1 + delta * np.eye(n)[i]),
                    )
                    assert expected_log_posterior(bumped, prior, t) <= base + 1e-8
                    if len(g.coefficients[i]):
                        coeffs = [c.copy() for c in g.coefficients]
                        coeffs[i][0] += delta
                        bumped = GaussianDag(
                            structure, g.intercepts, tuple(coeffs), g.variances
                        )
                        assert expected_log_posterior(bumped, prior, t) <= base + 1e-8


def random_capped_dag(n: int, rng: np.random.Generator, cap: int = 4) -> DagStructure:
    """A random DAG in which each node has 0 to ``cap`` parents, listed in
    random order."""
    order = rng.permutation(n)
    parents = [()] * n
    for pos, node in enumerate(order):
        count = int(rng.integers(0, min(cap, pos) + 1))
        parents[node] = tuple(int(p) for p in rng.choice(order[:pos], count, replace=False))
    return DagStructure(n, tuple(parents))


def weighted_stats(rng: np.random.Generator, n: int, zeros: int = 0) -> Triple:
    """Statistics of correlated cases under fractional responsibilities,
    symmetrised as the E sweep leaves them; the first ``zeros`` variables
    are 0 in every case."""
    count = int(rng.integers(n + 2, 3 * n + 10))
    rows = rng.normal(0, 1, (count, n)) @ rng.normal(0, 1, (n, n)) + rng.normal(0, 3, n)
    rows[:, :zeros] = 0.0
    resp = rng.uniform(0, 1, count)
    outer = (rows * resp[:, None]).T @ rows
    return Triple(float(resp.sum()), resp @ rows, 0.5 * (outer + outer.T))


def assert_m_step_is_the_oracle(mix_stats, structures, prior, dirichlet, noise=None):
    """The stacked M step against the M step one component and one node at
    a time, bit for bit: weights, every regression, and the sweep's A, W
    and constants; a model rebuilt from its components gives the same."""
    plan = FamilyPlan(tuple(structures))
    params = map_parameters(mix_stats, plan, prior, dirichlet, noise)
    want = oracle_m_step(mix_stats, structures, prior, dirichlet, noise)
    assert np.array_equal(params.weights, want.weights)
    for g, h in zip(plan.model(params).components, want.components, strict=True):
        assert np.array_equal(g.intercepts, h.intercepts)
        assert np.array_equal(g.variances, h.variances)
        for got, expected in zip(g.coefficients, h.coefficients, strict=True):
            assert np.array_equal(got, expected)
    for got in (params, want.stacked):
        for got_part, want_part in zip((got.a, got.w, got.const), oracle_regression_stack(want)):
            assert np.array_equal(got_part, want_part)


class TestStackedMStep:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_mixtures(self, seed):
        rng = np.random.default_rng([23, seed])
        n = int(rng.choice([2, 3, 5, 8, 13, 40]))
        k = int(rng.integers(1, 4))
        structures = [random_capped_dag(n, rng) for _ in range(k)]
        mix_stats = mixture_stats(tuple(weighted_stats(rng, n) for _ in range(k)))
        dirichlet = DirichletPrior(np.full(k, 1.0 / k))
        assert_m_step_is_the_oracle(mix_stats, structures, random_prior(n, rng), dirichlet)

    def test_zero_count_component_keeps_the_prior_mode(self, rng):
        n = 5
        prior = random_prior(n, rng)
        structures = [random_capped_dag(n, rng) for _ in range(3)]
        triples = (weighted_stats(rng, n), zero_triple(n), weighted_stats(rng, n))
        dirichlet = DirichletPrior(np.full(3, 1.0 / 3))
        mix_stats = mixture_stats(triples)
        assert_m_step_is_the_oracle(mix_stats, structures, prior, dirichlet)
        plan = FamilyPlan((empty_structure(n),) * 3)
        params = map_parameters(mix_stats, plan, prior, dirichlet, None)
        assert np.array_equal(params.intercepts[1], prior.mu0)
        assert np.array_equal(params.variances[1], np.diag(prior.tau) / (prior.alpha + n + 2.0))

    def test_noise_component(self, rng):
        n, k = 4, 2
        structures = [random_capped_dag(n, rng) for _ in range(k)]
        triples = tuple(weighted_stats(rng, n) for _ in range(k))
        mix_stats = mixture_stats(triples, 3.25)
        dirichlet = DirichletPrior(np.array([0.01, 0.495, 0.495]))
        noise = NoiseComponent(np.full(n, -50.0), np.full(n, 50.0))
        assert_m_step_is_the_oracle(mix_stats, structures, random_prior(n, rng), dirichlet, noise)

    # tau is zero on variables 0 and 1 and so are the cases, so the (0, 1)
    # block of the MAP covariance is 0: node 2's parent block needs the
    # jitter retry while the other two-parent blocks of its stack do not
    tau = np.diag([0.0, 0.0, 1.0, 1.0, 1.0])
    structures = (
        DagStructure(5, ((), (), (0, 1), (), (2, 3))),
        DagStructure(5, ((), (), (3, 4), (), ())),
    )

    def test_jitter_rescued_block_beside_healthy_ones(self, rng):
        prior = NormalWishart(1.0, np.zeros(5), 7.0, self.tau)
        t = weighted_stats(rng, 5, zeros=2)
        mix_stats = mixture_stats((t, weighted_stats(rng, 5)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(map_joint(prior, t)[1][:2, :2])
        dirichlet = DirichletPrior(np.full(2, 0.5))
        assert_m_step_is_the_oracle(mix_stats, self.structures, prior, dirichlet)

    def test_block_past_jitter_raises_singular_parent_block(self, rng):
        # NormalWishart does not check its scale, so a negative entry pushes
        # the zero block below the jitter
        prior = NormalWishart(1.0, np.zeros(5), 7.0, self.tau - np.diag([0.0, 1e-6, 0, 0, 0]))
        triples = (weighted_stats(rng, 5, zeros=2), weighted_stats(rng, 5))
        mix_stats = mixture_stats(triples)
        dirichlet = DirichletPrior(np.full(2, 0.5))
        plan = FamilyPlan(self.structures)
        for m_step in (
            lambda: map_parameters(mix_stats, plan, prior, dirichlet, None),
            lambda: oracle_m_step(mix_stats, self.structures, prior, dirichlet),
        ):
            with pytest.raises(SingularParentBlock):
                m_step()


class TestDataInformedPrior:
    def test_mode_is_the_map_joint_under_the_prior(self, rng):
        prior = random_prior(3, rng)
        rows = rng.normal(0, 1, (50, 3))
        ms = stats_of(rows)
        means, covs = _map_joints(prior, ms.gaussian_counts, ms.sums, ms.seconds)
        mean, cov = map_joint(prior, triple_of(rows))
        assert np.array_equal(means[0], mean) and np.array_equal(covs[0], cov)
        informed = data_informed_prior(rows, 20.0, prior)
        assert np.array_equal(informed.mu0, mean)
        assert np.allclose(informed.tau / (informed.alpha + 3 + 2.0), cov, rtol=1e-12)
        assert informed.alpha == 20.0 + 3 + 1

    def test_draw_spread_shrinks_with_ess(self, rng):
        rows = rng.normal(0, 1, (500, 2))
        prior = NormalWishart(2.0, np.zeros(2), 4.0, np.eye(2))  # PriorSpec's default
        spreads = []
        for ess in (50.0, 5000.0):
            informed = data_informed_prior(rows, ess, prior)
            means = np.array(
                [sample_joint_parameters(informed, rng)[0] for _ in range(200)]
            )
            spreads.append(means.std(axis=0).mean())
        # 100x the strength should shrink the spread about 10x
        assert spreads[1] < spreads[0] / 5

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_draw_matches_scipy_wishart(self, rng, n):
        # the Bartlett draw repeats scipy.stats.wishart.rvs step for step:
        # the same draw, and the generator left in the same state
        prior = random_prior(n, rng)
        prior = NormalWishart(prior.nu, prior.mu0, prior.alpha + 0.37, prior.tau)
        ours_rng, scipy_rng = np.random.default_rng(n), np.random.default_rng(n)
        mean, cov = sample_joint_parameters(prior, ours_rng)
        scale = np.linalg.inv(prior.tau)
        scale = 0.5 * (scale + scale.T)
        w = sps.wishart.rvs(df=prior.alpha, scale=scale, random_state=scipy_rng)
        w = np.atleast_2d(w)
        want_cov = np.linalg.inv(w)
        want_cov = 0.5 * (want_cov + want_cov.T)
        chol = _chol_with_jitter(want_cov / prior.nu, NonPsdScatter)
        want_mean = prior.mu0 + chol @ scipy_rng.standard_normal(n)
        assert np.array_equal(cov, want_cov)
        assert np.array_equal(mean, want_mean)
        assert ours_rng.bit_generator.state == scipy_rng.bit_generator.state

    def test_base_prior_allows_tiny_data(self, rng):
        base = random_prior(3, rng)
        informed = data_informed_prior(rng.normal(0, 1, (1, 3)), 10.0, base)
        assert informed.nu == 10.0
