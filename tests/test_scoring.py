import numpy as np
import pytest
from scipy import special
from scipy import stats as sps
from scipy.integrate import quad

from dagmix.bayes import DirichletPrior, dirichlet_map, map_parameters
from dagmix.errors import DimensionMismatch, EmptyTestSet
from dagmix.model import (
    DagStructure,
    GaussianDag,
    MdagModel,
    NoiseComponent,
    empty_structure,
    sample,
)
from dagmix.scoring import (
    complete_model_score,
    completed_loglik,
    gaussian_complete_loglik,
    observed_loglik,
    predictive_score,
)
from dagmix.stats import MixtureStats, SuffStats
from conftest import (
    joint_moments,
    labeled_cheeseman_stutz,
    labeled_loglik,
    labeled_stats,
    node_log_density,
    random_dag,
    random_gaussian_dag,
    single_node_model,
    two_component_1d,
    zero_stats,
)
from test_bayes import random_prior, sequential_marginal_loglik


def map_model_for(ms, structures, prior, dirichlet, noise=None):
    weights = dirichlet_map(dirichlet, ms.counts())
    comps = tuple(map_parameters(prior, t, s) for t, s in zip(ms.triples, structures))
    return MdagModel(weights, comps, noise)


class TestCompleteModelScore:
    def test_zero_stats_zero_score(self, rng):
        prior = random_prior(2, rng)
        ms = MixtureStats((zero_stats(2), zero_stats(2)))
        breakdown = complete_model_score(
            ms, (empty_structure(2),) * 2, prior, DirichletPrior(np.ones(2))
        )
        assert breakdown.total == 0.0

    def test_single_component_matches_chain_rule(self, rng):
        prior = random_prior(3, rng)
        rows = rng.normal(0, 1.5, (9, 3))
        ms = labeled_stats(rows, np.zeros(9, dtype=int), 1)
        structure = DagStructure(3, ((), (0,), (0, 1)))
        breakdown = complete_model_score(
            ms, (structure,), prior, DirichletPrior(np.ones(1))
        )
        # saturated family: full-set marginal via an independent sequential oracle
        oracle = sequential_marginal_loglik(prior, rows, (0, 1, 2))
        assert breakdown.total == pytest.approx(oracle, abs=1e-8)

    def test_breakdown_identity(self, rng):
        prior = random_prior(2, rng)
        rows = rng.normal(0, 1, (12, 2))
        labels = rng.integers(0, 2, 12)
        ms = labeled_stats(rows, labels, 2)
        structures = (DagStructure(2, ((), (0,))), empty_structure(2))
        breakdown = complete_model_score(
            ms, structures, prior, DirichletPrior(np.ones(2))
        )
        recomputed = breakdown.c_term + breakdown.noise_term
        recomputed += sum(sum(ls) for ls in breakdown.local_scores)
        assert breakdown.total == pytest.approx(recomputed, abs=1e-10)

    def test_relabeling_invariance_with_symmetric_prior(self, rng):
        prior = random_prior(2, rng)
        rows = rng.normal(0, 1, (10, 2))
        labels = rng.integers(0, 2, 10)
        structures = (DagStructure(2, ((), (0,))), empty_structure(2))
        d = DirichletPrior(np.full(2, 0.7))
        a = complete_model_score(
            labeled_stats(rows, labels, 2), structures, prior, d
        )
        b = complete_model_score(
            labeled_stats(rows, 1 - labels, 2), structures[::-1], prior, d
        )
        assert a.total == pytest.approx(b.total, abs=1e-10)

    def test_noise_term(self, rng):
        noise = NoiseComponent(np.zeros(1), np.full(1, 2.0))
        prior = random_prior(1, rng)
        ms = MixtureStats((zero_stats(1),), noise_count=3.0)
        breakdown = complete_model_score(
            ms, (empty_structure(1),), prior, DirichletPrior(np.ones(2)), noise
        )
        assert breakdown.noise_term == pytest.approx(-3.0 * np.log(2.0), abs=1e-12)


class TestObservedLoglik:
    def test_empty_data(self):
        m = MdagModel(np.array([1.0]), (single_node_model(0.0),))
        assert observed_loglik(np.empty((0, 1)), m) == 0.0

    def test_single_case_single_component(self):
        m = MdagModel(np.array([1.0]), (single_node_model(1.0),))
        x = np.array([[0.4]])
        assert observed_loglik(x, m) == pytest.approx(
            sps.norm.logpdf(0.4, 1.0, 1.0), abs=1e-12
        )

    def test_marginal_matches_quadrature(self):
        structure = DagStructure(2, ((), (0,)))
        g = GaussianDag(structure, np.zeros(2), (np.zeros(0), np.ones(1)), np.ones(2))
        h = GaussianDag(
            structure, np.array([2.0, -1.0]), (np.zeros(0), np.array([0.5])), np.array([1.5, 0.7])
        )
        m = MdagModel(np.array([0.4, 0.6]), (g, h))

        def mixture_joint(x0, x1):
            return sum(
                w * sps.multivariate_normal.pdf([x0, x1], *joint_moments(c))
                for w, c in zip(m.weights, m.components)
            )

        marginal, _ = quad(lambda x1: mixture_joint(1.3, x1), -40, 40)
        ours = observed_loglik(np.array([[1.3, np.nan]]), m)
        assert ours == pytest.approx(np.log(marginal), abs=1e-8)

    def test_labels_select_terms(self, rng):
        # the labelled log likelihood is a test oracle, checked here case by case
        m = two_component_1d(0.0, 4.0, w=0.3)
        data, labels = sample(m, 25, rng)
        ours = labeled_loglik(data, m, labels)
        by_hand = sum(
            np.log(m.weights[labels[i]])
            + node_log_density(m.components[labels[i]], data[i])
            for i in range(25)
        )
        assert ours == pytest.approx(by_hand, abs=1e-9)

    def test_width_checked_on_empty_data(self):
        m = MdagModel(np.array([1.0]), (single_node_model(0.0),))
        with pytest.raises(DimensionMismatch):
            observed_loglik(np.empty((0, 2)), m)


class TestGaussianCompleteLoglik:
    def test_matches_per_case_sum(self, rng):
        g = random_gaussian_dag(random_dag(3, rng, p=0.5), rng)
        mean, cov = joint_moments(g)
        rows = rng.normal(0, 2, (15, 3))
        t = SuffStats(15.0, rows.sum(axis=0), rows.T @ rows)
        expected = sps.multivariate_normal.logpdf(rows, mean=mean, cov=cov).sum()
        assert gaussian_complete_loglik(t, g) == pytest.approx(expected, abs=1e-8)

    def test_weighted_triple_matches_log_density(self, rng):
        # fractional case weights, as expected statistics carry; the oracle
        # sums each node's conditional density case by case
        for _ in range(20):
            n = int(rng.integers(1, 9))
            g = random_gaussian_dag(random_dag(n, rng, p=0.5), rng)
            rows = rng.normal(0, 3, (int(rng.integers(1, 50)), n))
            w = rng.uniform(0.0, 1.0, rows.shape[0])
            t = SuffStats(float(w.sum()), w @ rows, (w[:, None] * rows).T @ rows)
            expected = w @ node_log_density(g, rows)
            assert gaussian_complete_loglik(t, g) == pytest.approx(expected, rel=1e-10)


class TestCheesemanStutz:
    def test_exact_on_complete_data(self, rng):
        # with an exact completion the correction cancels and the closed
        # form is recovered through two different code paths
        for _ in range(10):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            count = int(rng.integers(4, 15))
            rows = rng.normal(0, 2, (count, n))
            labels = rng.integers(0, k, count)
            structures = tuple(random_dag(n, rng) for _ in range(k))
            prior = random_prior(n, rng)
            dirichlet = DirichletPrior(np.full(k, 1.0 / k))
            ms = labeled_stats(rows, labels, k)
            m = map_model_for(ms, structures, prior, dirichlet)
            cs = labeled_cheeseman_stutz(rows, labels, m, prior, dirichlet, ms)
            closed = complete_model_score(ms, structures, prior, dirichlet).total
            assert cs == pytest.approx(closed, abs=1e-8)

    @pytest.mark.parametrize("case", ["complete", "missing", "noise"])
    def test_trace_recomputable(self, rng, case):
        # fit scores every iterate with the one Cheeseman-Stutz function, so
        # calling it again on the iterate's model and statistics repeats
        # all three numbers exactly
        from dagmix.engine import FitConfig, _bind_priors, cheeseman_stutz, fit
        from dagmix.harness import default_gold_standard

        data, _ = sample(default_gold_standard().model, 200, rng)
        config = FitConfig(k=2, seed=0)
        if case == "missing":
            data[rng.random(data.shape) < 0.15] = np.nan
        if case == "noise":
            bounds = (data.min(axis=0) - 1.0, data.max(axis=0) + 1.0)
            config = FitConfig(k=2, seed=0, noise_bounds=bounds)
        result = fit(data, config)
        prior, dirichlet = _bind_priors(config, data.shape[1])
        for it in result.trace:
            again = cheeseman_stutz(data, it.model, prior, dirichlet, it.stats)
            assert again == (it.complete_model_score, it.observed_loglik, it.cheeseman_stutz)


class TestFactorability:
    def test_single_local_term_changes(self, rng):
        prior = random_prior(3, rng)
        rows = rng.normal(0, 1, (20, 3))
        ms = labeled_stats(rows, np.zeros(20, dtype=int), 1)
        d = DirichletPrior(np.ones(1))
        before_structure = DagStructure(3, ((), (0,), ()))
        after_structure = DagStructure(3, ((), (0,), (1,)))
        before = complete_model_score(ms, (before_structure,), prior, d)
        after = complete_model_score(ms, (after_structure,), prior, d)
        assert before.local_scores[0][0] == after.local_scores[0][0]
        assert before.local_scores[0][1] == after.local_scores[0][1]
        assert before.local_scores[0][2] != after.local_scores[0][2]


class TestPredictiveScore:
    def test_single_case(self):
        m = MdagModel(np.array([1.0]), (single_node_model(0.0),))
        x = np.array([[0.7]])
        assert predictive_score(x, m) == pytest.approx(sps.norm.logpdf(0.7), abs=1e-12)

    def test_duplication_invariance(self, rng):
        m = two_component_1d(0.0, 3.0)
        data, _ = sample(m, 30, rng)
        doubled = np.vstack([data, data])
        assert predictive_score(doubled, m) == pytest.approx(
            predictive_score(data, m), abs=1e-10
        )

    def test_approaches_negative_entropy(self):
        m = two_component_1d(0.0, 4.0)
        test_data, _ = sample(m, 60_000, 3)
        entropy_draws, _ = sample(m, 60_000, 19)
        per_component = [node_log_density(g, entropy_draws[:5000]) for g in m.components]
        mc_entropy = -np.mean(
            special.logsumexp(np.log(m.weights)[:, None] + per_component, axis=0)
        )
        assert predictive_score(test_data, m) == pytest.approx(-mc_entropy, abs=0.1)

    def test_empty_test_set(self):
        m = MdagModel(np.array([1.0]), (single_node_model(0.0),))
        with pytest.raises(EmptyTestSet):
            predictive_score(np.empty((0, 1)), m)


class TestCompletedLoglik:
    def test_one_hot_matches_labeled_observed(self, rng):
        m = two_component_1d(0.0, 4.0, w=0.35)
        data, labels = sample(m, 40, rng)
        ms = labeled_stats(data, labels, 2)
        assert completed_loglik(ms, m) == pytest.approx(
            labeled_loglik(data, m, labels), abs=1e-8
        )

    def test_noise_share(self, rng):
        noise = NoiseComponent(np.full(1, -8.0), np.full(1, 8.0))
        m = MdagModel(np.array([0.25, 0.75]), (single_node_model(0.0),), noise)
        data, labels = sample(m, 50, rng)
        ms = labeled_stats(data, labels, 2, noise=True)
        expected = labeled_loglik(data, m, labels)
        assert completed_loglik(ms, m) == pytest.approx(expected, abs=1e-8)
