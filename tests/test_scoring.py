import numpy as np
import pytest
from scipy import special
from scipy import stats as sps
from scipy.integrate import quad

from dagmix.bayes import (
    DirichletPrior,
    NormalWishart,
    dirichlet_log_marglik,
    dirichlet_map,
    family_marginals,
    local_score,
    map_parameters,
)
from dagmix.errors import DimensionMismatch, EmptyTestSet, NonNumericValue
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
    observed_loglik,
    predictive_score,
)
from dagmix.stats import COUNT_FLOOR, expected_stats, group_cases
from conftest import (
    Triple,
    joint_moments,
    labeled_cheeseman_stutz,
    labeled_loglik,
    labeled_stats,
    map_component,
    mixture_stats,
    node_log_density,
    oracle_completed_loglik,
    random_dag,
    random_gaussian_dag,
    single_node_model,
    structure_score,
    triples_of,
    two_component_1d,
    zero_triple,
)
from test_bayes import random_prior, sequential_marginal_loglik
from test_stats import holed


def map_model_for(ms, structures, prior, dirichlet, noise=None):
    weights = dirichlet_map(dirichlet, ms.counts)
    comps = tuple(map_component(prior, t, s) for t, s in zip(triples_of(ms), structures))
    return MdagModel(weights, comps, noise)


class TestCompleteModelScore:
    def test_zero_stats_zero_score(self, rng):
        prior = random_prior(2, rng)
        ms = mixture_stats((zero_triple(2), zero_triple(2)))
        score = complete_model_score(
            ms, (empty_structure(2),) * 2, prior, DirichletPrior(np.ones(2))
        )
        assert score == 0.0

    def test_single_component_matches_chain_rule(self, rng):
        prior = random_prior(3, rng)
        rows = rng.normal(0, 1.5, (9, 3))
        ms = labeled_stats(rows, np.zeros(9, dtype=int), 1)
        structure = DagStructure(3, ((), (0,), (0, 1)))
        score = complete_model_score(ms, (structure,), prior, DirichletPrior(np.ones(1)))
        # saturated family: full-set marginal via an independent sequential oracle
        oracle = sequential_marginal_loglik(prior, rows, (0, 1, 2))
        assert score == pytest.approx(oracle, abs=1e-8)

    def test_breakdown_identity(self, rng):
        # the Dirichlet term of the counts plus each component's node scores
        prior = random_prior(2, rng)
        rows = rng.normal(0, 1, (12, 2))
        labels = rng.integers(0, 2, 12)
        ms = labeled_stats(rows, labels, 2)
        structures = (DagStructure(2, ((), (0,))), empty_structure(2))
        d = DirichletPrior(np.ones(2))
        score = complete_model_score(ms, structures, prior, d)
        recomputed = dirichlet_log_marglik(d, ms.counts)
        recomputed += sum(
            structure_score(prior, t, s) for t, s in zip(triples_of(ms), structures)
        )
        assert score == pytest.approx(recomputed, abs=1e-10)

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
        assert a == pytest.approx(b, abs=1e-10)

    def test_noise_term(self, rng):
        # the noise component adds its uniform mass over its count, and nothing else
        noise = NoiseComponent(np.zeros(1), np.full(1, 2.0))
        prior = random_prior(1, rng)
        ms = mixture_stats((zero_triple(1),), noise_count=3.0)
        args = (ms, (empty_structure(1),), prior, DirichletPrior(np.ones(2)))
        noise_term = complete_model_score(*args, noise) - complete_model_score(*args)
        assert noise_term == pytest.approx(-3.0 * np.log(2.0), abs=1e-12)


class TestObservedLoglik:
    def test_empty_data(self):
        m = MdagModel(np.array([1.0]), (single_node_model(0.0),))
        assert observed_loglik(group_cases(np.empty((0, 1))), m) == 0.0

    def test_single_case_single_component(self):
        m = MdagModel(np.array([1.0]), (single_node_model(1.0),))
        x = np.array([[0.4]])
        assert observed_loglik(group_cases(x), m) == pytest.approx(
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
        ours = observed_loglik(group_cases(np.array([[1.3, np.nan]])), m)
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
        # the sweep trusts its cases; held-out data is checked where it
        # enters, for its width before its size
        m = MdagModel(np.array([1.0]), (single_node_model(0.0),))
        with pytest.raises(DimensionMismatch):
            predictive_score(np.empty((0, 2)), m)


def one_component_loglik(t: Triple, g: GaussianDag) -> float:
    """The completed log likelihood of one Gaussian component at weight 1,
    whose N log 1 term is exactly 0."""
    return completed_loglik(mixture_stats((t,)), MdagModel(np.ones(1), (g,)))


class TestGaussianCompleteLoglik:
    def test_matches_per_case_sum(self, rng):
        g = random_gaussian_dag(random_dag(3, rng, p=0.5), rng)
        mean, cov = joint_moments(g)
        rows = rng.normal(0, 2, (15, 3))
        t = Triple(15.0, rows.sum(axis=0), rows.T @ rows)
        expected = sps.multivariate_normal.logpdf(rows, mean=mean, cov=cov).sum()
        assert one_component_loglik(t, g) == pytest.approx(expected, abs=1e-8)

    def test_weighted_triple_matches_log_density(self, rng):
        # fractional case weights, as expected statistics carry; the oracle
        # sums each node's conditional density case by case
        for _ in range(20):
            n = int(rng.integers(1, 9))
            g = random_gaussian_dag(random_dag(n, rng, p=0.5), rng)
            rows = rng.normal(0, 3, (int(rng.integers(1, 50)), n))
            w = rng.uniform(0.0, 1.0, rows.shape[0])
            t = Triple(float(w.sum()), w @ rows, (w[:, None] * rows).T @ rows)
            expected = w @ node_log_density(g, rows)
            assert one_component_loglik(t, g) == pytest.approx(expected, rel=1e-10)


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
            closed = complete_model_score(ms, structures, prior, dirichlet)
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
        cases = group_cases(data)
        for it in result.trace:
            again = cheeseman_stutz(cases, it.model, prior, dirichlet, it.stats)
            assert again == (it.complete_model_score, it.observed_loglik, it.cheeseman_stutz)

    @pytest.mark.parametrize("noise", [False, True], ids=["plain", "noise"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_score_reads_the_search_memo(self, monkeypatch, seed, noise):
        # fit scores the searched structures on the marginals search just
        # climbed on: the complete-model score of every iterate equals one
        # built fresh from the statistics, and inside cheeseman_stutz no
        # block is factored, since search memoised every node family of the
        # structures it returned
        from dagmix import bayes, engine
        from dagmix.harness import default_gold_standard

        data, _ = sample(default_gold_standard().model, 600, 0)
        bounds = (data.min(axis=0) - 1.0, data.max(axis=0) + 1.0) if noise else None
        config = engine.FitConfig(k=3, seed=seed, noise_bounds=bounds)
        factored, inside, scored = [], [], []
        logdets, real_cs = bayes._stacked_logdets, engine.cheeseman_stutz

        def counted(blocks):
            factored.append(bool(inside))
            return logdets(blocks)

        def watched(*args):
            inside.append(True)
            try:
                return real_cs(*args)
            finally:
                inside.pop()
                scored.append(True)

        monkeypatch.setattr(bayes, "_stacked_logdets", counted)
        monkeypatch.setattr(engine, "cheeseman_stutz", watched)
        result = engine.fit(data, config)
        assert len(scored) == len(result.trace) > 1
        assert factored and not any(factored)
        prior, dirichlet = engine._bind_priors(config, data.shape[1])
        for it in result.trace:
            factored.clear()
            fresh = complete_model_score(it.stats, it.structures, prior, dirichlet, it.model.noise)
            assert fresh == it.complete_model_score
            assert factored  # a fresh score factors its families


class TestFactorability:
    def test_single_local_term_changes(self, rng):
        prior = random_prior(3, rng)
        rows = rng.normal(0, 1, (20, 3))
        ms = labeled_stats(rows, np.zeros(20, dtype=int), 1)
        d = DirichletPrior(np.ones(1))
        before_structure = DagStructure(3, ((), (0,), ()))
        after_structure = DagStructure(3, ((), (0,), (1,)))

        def node_scores(structure):
            (marginals,) = family_marginals(prior, ms)
            return [local_score(marginals, i, ps) for i, ps in enumerate(structure.parents)]

        before, after = node_scores(before_structure), node_scores(after_structure)
        assert before[0] == after[0]
        assert before[1] == after[1]
        assert before[2] != after[2]
        # and the model score moves by that one term
        scores = [
            complete_model_score(ms, (s,), prior, d) for s in (before_structure, after_structure)
        ]
        assert scores[1] - scores[0] == pytest.approx(after[2] - before[2], abs=1e-10)


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

    @pytest.mark.parametrize("cell", [np.inf, -np.inf, "a", 0.5 + 2j, 0.5 + 0j])
    @pytest.mark.filterwarnings("error")
    def test_cells_checked(self, cell):
        # held-out data gets the training data's cell rule: finite real
        # numbers or NaN (missing); a complex cell is refused even with a
        # zero imaginary part, as a list or as an array
        m = MdagModel(np.array([1.0]), (single_node_model(0.0),))
        with pytest.raises(NonNumericValue):
            predictive_score([[0.5], [cell]], m)
        with pytest.raises(NonNumericValue):
            predictive_score(np.array([[0.5], [cell]]), m)
        assert np.isfinite(predictive_score([[0.5], [np.nan]], m))


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

    @pytest.mark.parametrize("seed", range(27))
    def test_is_the_oracle(self, seed):
        # the stacked regression forms give the bytes of each component's
        # form built on its own, for a model built from its components and
        # for the one the M step writes, which is the one fit scores
        rng = np.random.default_rng([29, seed])
        n = (1, 2, 3, 4, 5, 6, 7, 8, 40)[seed % 9]
        noise = seed % 2 == 1
        floor = seed >= 18  # one component far from every case
        k = int(rng.integers(2 if floor else 1, 5))
        comps = [
            random_gaussian_dag(random_dag(n, rng, p=min(0.5, 3.0 / n)), rng) for _ in range(k)
        ]
        if floor:
            comps[-1] = GaussianDag(
                empty_structure(n), np.full(n, 1e4), (np.zeros(0),) * n, np.ones(n)
            )
        weights = rng.dirichlet(np.ones(k + noise))
        box = NoiseComponent(np.full(n, -40.0), np.full(n, 40.0)) if noise else None
        model = MdagModel(weights, tuple(comps), box)
        fraction = float(rng.choice([0.0, 0.1, 0.2, 0.4]))
        data = holed(rng, int(rng.integers(1, 400)), n, fraction, all_missing=False)
        # every case observes a cell, so none fits the far component
        data[np.isnan(data).all(axis=1), 0] = 0.5
        cases = group_cases(data)
        ms, _ = expected_stats(cases, model.stacked)
        assert (ms.gaussian_counts[-1] <= COUNT_FLOOR) == floor
        assert completed_loglik(ms, model) == oracle_completed_loglik(ms, model)
        plan = model.plan
        prior = NormalWishart(2.0, np.zeros(n), n + 3.0, np.eye(n))
        dirichlet = DirichletPrior(np.full(k + noise, 2.0))
        stepped = plan.model(map_parameters(ms, plan, prior, dirichlet, box))
        ms, _ = expected_stats(cases, stepped.stacked)
        assert completed_loglik(ms, stepped) == oracle_completed_loglik(ms, stepped)

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND in CHANGES.md: tr(A s A^T) - 2 c^T A r + N c^T c cancels terms "
        "of order 1/v for a tiny variance v (ROADMAP item 5)",
    )
    def test_tiny_variance(self):
        # one component and complete data: the completion is the data, so
        # the completed log likelihood is the sweep's, 39.8759; x1 = x0 + 1
        # exactly, at a residual variance of 1e-20, and the triple's form
        # gives 42.3759
        g = GaussianDag(
            DagStructure(2, ((), (0,))), np.array([0.0, 1.0]),
            (np.zeros(0), np.ones(1)), np.array([1.0, 1e-20]),
        )
        model = MdagModel(np.ones(1), (g,))
        cases = group_cases(np.array([[1.0, 2.0], [2.0, 3.0]]))
        ms, loglik = expected_stats(cases, model.stacked)
        assert completed_loglik(ms, model) == pytest.approx(loglik, rel=1e-9)
