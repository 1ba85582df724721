import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagmix.engine as engine_module
from dagmix.cli import Dataset, write_csv
from dagmix.engine import (
    FitConfig,
    PriorSpec,
    Schedule,
    _bind_priors,
    fit,
    initialize,
    ratio_rule_fires,
    run_em,
    select_k,
)
from dagmix.errors import (
    BadSchedule,
    DataError,
    DimensionMismatch,
    InsufficientData,
    NonNumericValue,
    NonPsdScatter,
    NumericalOverflow,
)
from dagmix.model import MdagModel, empty_structure, sample
from dagmix.scoring import observed_loglik
from dagmix.stats import expected_stats
from conftest import joint_moments, single_node_model, two_component_1d


class TestSchedule:
    def test_default_round_trip(self):
        s = Schedule()
        assert str(s) == "((EM)^10 Ec S* M)*"
        assert Schedule.parse(str(s)) == s

    def test_full_em_round_trip(self):
        s = Schedule(em_steps=None)
        assert str(s) == "((EM)* Ec S* M)*"
        assert Schedule.parse(str(s)) == s

    def test_parse_tolerates_spacing(self):
        assert Schedule.parse("((EM)^3 EcS*M)*") == Schedule(em_steps=3)
        assert Schedule.parse("((EM)^* Ec S* M)*") == Schedule(em_steps=None)

    def test_single_pass_variant(self):
        s = Schedule.parse("((EM)^10 Ec S* M)")
        assert not s.outer_repeat
        assert Schedule.parse(str(s)) == s

    @given(st.integers(1, 999), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, steps, outer):
        s = Schedule(em_steps=steps, outer_repeat=outer)
        assert Schedule.parse(str(s)) == s

    def test_rejects_garbage(self):
        for text in ("EM", "((EM)^0 Ec S* M)*", "((ME)^10 Ec S* M)*", ""):
            with pytest.raises(BadSchedule):
                Schedule.parse(text)


class TestPriorSpec:
    def test_alpha_defaults_to_nu_plus_n(self):
        nw = PriorSpec(nu=2.0).normal_wishart(4)
        assert nw.alpha == 6.0
        assert np.allclose(nw.tau, np.eye(4))

    @pytest.mark.parametrize(
        "spec, error",
        [
            (PriorSpec(mu0=[0.0, 0.0, 0.0]), DimensionMismatch),
            (PriorSpec(tau=np.eye(3)), DimensionMismatch),
            (PriorSpec(nu=0.0), DimensionMismatch),
            (PriorSpec(alpha=1.0), DimensionMismatch),
            (PriorSpec(tau=[[1.0, 0.5], [0.0, 1.0]]), DimensionMismatch),
            (PriorSpec(tau=[[1.0, 2.0], [2.0, 1.0]]), NonPsdScatter),
        ],
        ids=["long-mu0", "large-tau", "zero-nu", "small-alpha", "asymmetric-tau", "indefinite-tau"],
    )
    def test_bad_hyperparameters_rejected_when_bound(self, spec, error):
        with pytest.raises(error):
            spec.normal_wishart(2)

    def test_dirichlet_with_noise(self):
        d = PriorSpec().dirichlet(3, has_noise=True)
        assert d.alphas[0] == pytest.approx(0.01)
        assert np.allclose(d.alphas[1:], 0.99 / 3)

    def test_dirichlet_without_noise(self):
        d = PriorSpec().dirichlet(4, has_noise=False)
        assert np.allclose(d.alphas, 0.25)


class TestEmStep:
    def test_fixed_point_on_complete_problem(self, rng):
        # a single component already at the MAP of its statistics stays put
        data = rng.normal(1.0, 2.0, (200, 1))
        config = FitConfig(k=1, seed=0)
        prior, dirichlet = _bind_priors(config, 1)
        from dagmix.bayes import map_parameters
        from dagmix.stats import SuffStats

        t = SuffStats(200.0, data.sum(axis=0), data.T @ data)
        g = map_parameters(prior, t, empty_structure(1))
        m = MdagModel(np.array([1.0]), (g,))
        stepped, _ = run_em(data, m, prior, dirichlet, steps=1)
        assert np.allclose(stepped.components[0].intercepts, g.intercepts, atol=1e-10)
        assert np.allclose(stepped.components[0].variances, g.variances, atol=1e-10)

    def test_penalized_loglik_nondecreasing(self, rng):
        # the rigorous MAP-EM guarantee (log likelihood plus log prior),
        # checked on a config where the likelihood alone is allowed to dip
        gen = two_component_1d(0.0, 2.5)
        data, _ = sample(gen, 80, rng)
        config = FitConfig(k=2, seed=4)
        prior, dirichlet = _bind_priors(config, 1)
        m = initialize(data, config)
        prev = None
        for _ in range(40):
            m, _ = run_em(data, m, prior, dirichlet, steps=1)
            value = observed_loglik(data, m) + _log_prior_density(m, prior, dirichlet)
            if prev is not None:
                assert value >= prev - 1e-9
            prev = value

    def test_well_separated_means_converge(self, rng):
        gen = two_component_1d(0.0, 6.0)
        data, _ = sample(gen, 400, rng)
        config = FitConfig(k=2, seed=1, prior=PriorSpec(mu0=3.0))
        prior, dirichlet = _bind_priors(config, 1)
        # start from quantile-anchored components; EM does the rest
        lo, hi = np.quantile(data, [0.25, 0.75])
        m = MdagModel(
            np.array([0.5, 0.5]),
            (single_node_model(float(lo)), single_node_model(float(hi))),
        )
        for _ in range(50):
            m, _ = run_em(data, m, prior, dirichlet, steps=1)
        means = sorted(float(g.intercepts[0]) for g in m.components)
        assert abs(means[0] - 0.0) < 0.1
        assert abs(means[1] - 6.0) < 0.1


def _log_prior_density(model, p, dirichlet):
    total = float(np.sum((dirichlet.alphas - 1) * np.log(model.weights)))
    for g in model.components:
        mean, cov = joint_moments(g)
        sign, logdet = np.linalg.slogdet(cov)
        diff = mean - p.mu0
        total += (
            -0.5 * (p.alpha + p.dim + 2) * logdet
            - 0.5 * np.trace(np.linalg.solve(cov, p.tau))
            - 0.5 * p.nu * diff @ np.linalg.solve(cov, diff)
        )
    return float(total)


class TestRunEm:
    def test_zero_steps_identity(self, rng):
        data, _ = sample(two_component_1d(0.0, 4.0), 50, rng)
        config = FitConfig(k=2, seed=0)
        prior, dirichlet = _bind_priors(config, 1)
        m = initialize(data, config)
        out, trace = run_em(data, m, prior, dirichlet, steps=0)
        assert out is m
        assert len(trace.logliks) == 1

    def test_ratio_rule_matches_recomputation(self, rng):
        data, _ = sample(two_component_1d(0.0, 5.0), 300, rng)
        config = FitConfig(k=2, seed=2)
        prior, dirichlet = _bind_priors(config, 1)
        m = initialize(data, config)
        _, trace = run_em(
            data, m, prior, dirichlet, steps=None, convergence_ratio=1e-6
        )
        assert trace.converged
        logliks = trace.logliks
        # the rule fires exactly at the recorded last step, never before
        assert ratio_rule_fires(logliks, 1e-6)
        for t in range(2, len(logliks)):
            assert not ratio_rule_fires(logliks[:t], 1e-6)

    def test_loglik_path_nondecreasing_in_canonical_regime(self, rng):
        from dagmix.harness import default_gold_standard

        gold = default_gold_standard()
        data, _ = sample(gold.model, 800, rng)
        config = FitConfig(k=3, seed=5)
        prior, dirichlet = _bind_priors(config, 5)
        m = initialize(data, config)
        _, trace = run_em(data, m, prior, dirichlet, steps=None)
        assert np.all(np.diff(trace.logliks) >= -1e-7)

    def test_returned_stats_are_a_fresh_sweep(self, rng):
        # fit hands these statistics to search in place of a new sweep
        data, _ = sample(two_component_1d(0.0, 4.0), 120, rng)
        data[::9, 0] = np.nan
        config = FitConfig(k=2, seed=0)
        prior, dirichlet = _bind_priors(config, 1)
        out, trace = run_em(data, initialize(data, config), prior, dirichlet, steps=6)
        fresh, loglik = expected_stats(data, out)
        assert loglik == trace.logliks[-1]
        for got, want in zip(trace.stats.triples, fresh.triples):
            assert got.n == want.n
            assert np.array_equal(got.r, want.r)
            assert np.array_equal(got.s, want.s)


class TestInitialize:
    def test_deterministic(self, rng):
        data, _ = sample(two_component_1d(0.0, 3.0), 60, rng)
        config = FitConfig(k=2, seed=9)
        a = initialize(data, config)
        b = initialize(data, config)
        assert np.array_equal(a.weights, b.weights)
        for ga, gb in zip(a.components, b.components):
            assert np.array_equal(ga.intercepts, gb.intercepts)
            assert np.array_equal(ga.variances, gb.variances)

    def test_prior_mean_weights_with_noise(self, rng):
        data, _ = sample(two_component_1d(0.0, 3.0), 60, rng)
        lo, hi = data.min() - 1, data.max() + 1
        config = FitConfig(
            k=3, seed=0, noise_bounds=((float(lo),), (float(hi),)), weight_init="equal"
        )
        m = initialize(data, config)
        assert m.weights[0] == pytest.approx(0.01)
        assert np.allclose(m.weights[1:], 0.33)

    def test_component_draws_differ(self, rng):
        data, _ = sample(two_component_1d(0.0, 3.0), 60, rng)
        m = initialize(data, FitConfig(k=3, seed=1))
        means = [float(g.intercepts[0]) for g in m.components]
        assert len(set(means)) == 3

    def test_structures_start_empty(self, rng):
        data, _ = sample(two_component_1d(0.0, 3.0), 60, rng)
        m = initialize(data, FitConfig(k=2, seed=1))
        assert all(g.structure.arc_count() == 0 for g in m.components)

    def test_mfull_starts_complete(self, rng):
        data = rng.normal(0, 1, (50, 3))
        m = initialize(data, FitConfig(k=1, seed=1, family="mfull"))
        assert m.components[0].structure.arc_count() == 3

    def test_empty_data_rejected(self):
        with pytest.raises(InsufficientData):
            initialize(np.empty((0, 2)), FitConfig(k=1, seed=0))

    def test_no_complete_rows_falls_back_to_base_prior(self, rng):
        # every case has a hole; the init prior comes from the base prior's
        # own mode and initialization still succeeds deterministically
        data = rng.normal(0, 1, (40, 2))
        data[np.arange(40), rng.integers(0, 2, 40)] = np.nan
        a = initialize(data, FitConfig(k=2, seed=3))
        b = initialize(data, FitConfig(k=2, seed=3))
        assert np.array_equal(a.components[0].intercepts, b.components[0].intercepts)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_data_overflows_the_initial_draw(self):
        # at magnitude 1e153 the initial prior's symmetrised scale overflows
        data = np.random.default_rng(0).normal(size=(20, 2)) * 1e153
        with pytest.raises(NumericalOverflow):
            fit(data, FitConfig(k=1, max_outer=1))

    def test_fit_runs_with_scipy_blocked(self, tmp_path):
        # the library needs numpy alone: a fresh process in which importing
        # scipy fails runs `dagmix fit` on a CSV with missing cells, and
        # loads no scipy module on the way
        src = os.path.dirname(os.path.dirname(engine_module.__file__))
        data = np.random.default_rng(0).normal(size=(60, 3))
        data[::7, 1] = np.nan
        csv = tmp_path / "data.csv"
        write_csv(str(csv), Dataset(("a", "b", "c"), data))
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {src!r})\n"
            "from dagmix import cli\n"
            f"code = cli.main(['fit', '--data', {str(csv)!r}, '--k', '2', "
            f"'--schedule', '((EM)^5 Ec S* M)', '--out', {str(tmp_path / 'model.json')!r}])\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "and sys.modules[m] is not None)\n"
            "print(code, loaded)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "0 []"
        assert (tmp_path / "model.json").is_file()


class TestFit:
    def test_groups_the_data_once(self, rng, monkeypatch):
        # every E sweep and the Cheeseman-Stutz log likelihood of every
        # outer iteration share the one grouping fit makes
        calls = {"n": 0}
        real = engine_module.stats.group_cases

        def counting(data):
            calls["n"] += 1
            return real(data)

        monkeypatch.setattr(engine_module.stats, "group_cases", counting)
        x, _ = sample(two_component_1d(0.0, 5.0), 150, rng)
        data = np.column_stack([x, x[:, 0] + rng.standard_normal(150)])
        data[::9, 0] = np.nan
        result = fit(data, FitConfig(k=2, seed=0, schedule=Schedule(em_steps=3)))
        assert len(result.trace) > 1
        assert calls["n"] == 1

    def test_single_component_recovers_dependence(self, rng):
        x0 = rng.standard_normal(400)
        data = np.column_stack([x0, x0 + 0.3 * rng.standard_normal(400)])
        result = fit(data, FitConfig(k=1, seed=0))
        assert result.model.components[0].structure.arc_count() == 1
        assert result.termination in ("structure-stable", "score-nonincreasing")

    def test_structure_stable_after_forced_pass(self, rng):
        # independent data keeps empty structures; the loop forces one
        # EM-to-convergence pass and exits after the second search phase
        data = rng.standard_normal((300, 3))
        result = fit(data, FitConfig(k=1, seed=0))
        assert result.termination == "structure-stable"
        assert len(result.trace) == 2
        assert all(
            s.arc_count() == 0 for it in result.trace for s in it.structures
        )

    def test_best_iterate_returned(self, rng):
        from dagmix.harness import default_gold_standard

        data, _ = sample(default_gold_standard().model, 600, rng)
        result = fit(data, FitConfig(k=3, seed=0))
        scores = [it.cheeseman_stutz for it in result.trace]
        assert result.best_index == int(np.argmax(scores))
        assert result.cheeseman_stutz == max(scores)
        assert all(np.isfinite(s) for s in scores)

    def test_final_cs_at_least_initial(self, rng):
        from dagmix.harness import default_gold_standard

        data, _ = sample(default_gold_standard().model, 700, rng)
        result = fit(data, FitConfig(k=3, seed=3))
        assert result.cheeseman_stutz >= result.trace[0].cheeseman_stutz

    def test_one_search_stats_per_outer_iteration(self, rng, monkeypatch):
        # one outer iteration with a burst of 4 EM steps sweeps once per
        # model run_em visits: 4 + 1 sweeps.  The last one, at the model
        # run_em returns, feeds the search and the M step after it, so fit
        # computes no statistics of its own
        calls = {"n": 0}
        real = engine_module.stats.expected_stats

        def counting(data, model):
            calls["n"] += 1
            return real(data, model)

        monkeypatch.setattr(engine_module.stats, "expected_stats", counting)
        data, _ = sample(two_component_1d(0.0, 5.0), 150, rng)
        fit(data, FitConfig(k=2, seed=0, max_outer=1, schedule=Schedule(em_steps=4)))
        assert calls["n"] == 4 + 1

    def test_one_observed_loglik_per_outer_iteration(self, rng, monkeypatch):
        # EM traces read the log likelihood off the E sweeps; only the
        # Cheeseman-Stutz score of each outer iteration evaluates it apart
        calls = {"n": 0}
        real = engine_module.observed_loglik

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "observed_loglik", counting)
        data, _ = sample(two_component_1d(0.0, 5.0), 150, rng)
        result = fit(data, FitConfig(k=2, seed=0))
        assert len(result.trace) > 1
        assert calls["n"] == len(result.trace)

    def test_iteration_cap_termination(self, rng):
        # structures change in the first iteration; a cap of one records it
        x0 = rng.standard_normal(300)
        data = np.column_stack([x0, x0 + 0.2 * rng.standard_normal(300)])
        result = fit(data, FitConfig(k=1, seed=0, max_outer=1))
        assert result.termination == "iteration-cap"
        assert len(result.trace) == 1

    def test_bit_identical_traces(self, rng):
        data, _ = sample(two_component_1d(0.0, 5.0), 200, rng)
        config = FitConfig(k=2, seed=13)
        a, b = fit(data, config), fit(data, config)
        assert len(a.trace) == len(b.trace)
        for ia, ib in zip(a.trace, b.trace):
            assert ia.cheeseman_stutz == ib.cheeseman_stutz
            assert ia.observed_loglik == ib.observed_loglik
            assert ia.structures == ib.structures
            for ga, gb in zip(ia.model.components, ib.model.components):
                assert np.array_equal(ga.intercepts, gb.intercepts)
                assert np.array_equal(ga.variances, gb.variances)
        assert a.termination == b.termination

    def test_mdiag_family_keeps_empty_structures(self, rng):
        data, _ = sample(two_component_1d(0.0, 5.0), 200, rng)
        result = fit(data, FitConfig(k=2, seed=0, family="mdiag"))
        assert all(g.structure.arc_count() == 0 for g in result.model.components)
        assert len(result.trace) == 1


class TestComponentCollapse:
    def test_dead_component_reported(self, rng):
        # the data sits far from the prior mode, so the component that dies
        # is re-estimated at the prior mode, keeps zero responsibility for
        # three consecutive steps, and gets flagged (but retained)
        data = rng.normal(1000.0, 1.0, (100, 1))
        config = FitConfig(k=2, seed=0)  # prior mean stays at the origin
        prior, dirichlet = _bind_priors(config, 1)
        stranded = MdagModel(
            np.array([1.0 - 1e-12, 1e-12]),
            (single_node_model(1000.0), single_node_model(-1000.0, variance=1e-6)),
        )
        out, trace = run_em(data, stranded, prior, dirichlet, steps=5)
        assert 1 in trace.collapsed
        assert out.k == 2  # still present, parameters at the prior mode
        assert abs(out.components[1].intercepts[0]) < 1.0


class TestWideModels:
    def test_thirty_two_variables_stay_finite(self):
        # log-space densities and factored scoring must survive wide models
        from dagmix.model import DagStructure, GaussianDag

        n = 32
        parents = [[] for _ in range(n)]
        for i in range(2, n, 5):
            parents[i] = [i - 1]
        structure = DagStructure(n, tuple(tuple(p) for p in parents))
        coeffs = tuple(np.ones(len(ps)) for ps in structure.parents)
        comps = tuple(
            GaussianDag(structure, np.full(n, 8.0 * c), coeffs, np.ones(n))
            for c in range(2)
        )
        gen = MdagModel(np.full(2, 0.5), comps)
        data, _ = sample(gen, 300, 0)
        result = fit(
            data,
            FitConfig(
                k=2, seed=0, max_outer=1, schedule=Schedule(em_steps=2), max_parents=1
            ),
        )
        assert all(np.isfinite(it.cheeseman_stutz) for it in result.trace)
        assert all(np.isfinite(it.observed_loglik) for it in result.trace)
        assert all(len(ps) <= 1 for g in result.model.components for ps in g.structure.parents)


_WITH_INF = np.random.default_rng(0).normal(size=(50, 2))
_WITH_INF[7, 1] = np.inf


@pytest.mark.parametrize(
    "data, error",
    [
        (_WITH_INF, NonNumericValue),
        (np.zeros(5), DimensionMismatch),
        (np.zeros((5, 2, 2)), DimensionMismatch),
        (np.zeros((5, 0)), DimensionMismatch),
        (np.array([["0.5", "a"], ["1.0", "b"]]), NonNumericValue),
    ],
    ids=["inf-cell", "1-d", "3-d", "no-variables", "string-cells"],
)
def test_bad_data_is_a_data_error_at_entry(data, error):
    assert issubclass(error, DataError)
    with pytest.raises(error):
        fit(data, FitConfig(k=2))
    with pytest.raises(error):
        select_k(data, FitConfig(), k_max=2)


@pytest.mark.parametrize("k_max", [2.5, "2", True], ids=["fractional", "string", "bool"])
def test_non_integer_k_max_rejected(k_max):
    data = np.zeros((5, 1))
    with pytest.raises(DimensionMismatch):
        select_k(data, FitConfig(), k_max)


def test_zero_outer_iterations_rejected():
    with pytest.raises(DimensionMismatch):
        FitConfig(max_outer=0)


@pytest.mark.parametrize(
    "field", ["max_parents", "max_em_steps"], ids=["max-parents", "max-em-steps"]
)
def test_negative_count_rejected(field):
    with pytest.raises(DimensionMismatch):
        FitConfig(**{field: -1})
    assert getattr(FitConfig(**{field: 0}), field) == 0


@pytest.mark.parametrize(
    "config, error",
    [
        (lambda: FitConfig(k=True), DimensionMismatch),
        (lambda: FitConfig(ess="200"), DimensionMismatch),
        (lambda: FitConfig(noise_bounds=((0.0,), ("1",))), DimensionMismatch),
        (lambda: PriorSpec(alpha="3"), DimensionMismatch),
        (lambda: PriorSpec(mu0=[0.0, None]), DimensionMismatch),
        (lambda: FitConfig(schedule="((EM)^3 Ec S* M)"), DimensionMismatch),
        (lambda: FitConfig(prior={"nu": 2.0}), DimensionMismatch),
        (lambda: Schedule(em_steps=2.5), BadSchedule),
        (lambda: Schedule(em_steps="3"), BadSchedule),
        (lambda: Schedule(em_steps=True), BadSchedule),
    ],
    ids=[
        "bool-k",
        "string-ess",
        "string-bound",
        "string-alpha",
        "none-mu0",
        "string-schedule",
        "dict-prior",
        "fractional-em-steps",
        "string-em-steps",
        "bool-em-steps",
    ],
)
def test_wrongly_typed_config_value_rejected(config, error):
    with pytest.raises(error):
        config()


def test_numpy_numbers_accepted_in_config():
    config = FitConfig(
        k=np.int64(2), seed=np.uint32(7), ess=np.float32(50.0), max_parents=np.int8(1)
    )
    assert config.k == 2 and config.max_parents == 1
    assert PriorSpec(nu=np.float64(3.0), tau=np.eye(2)).normal_wishart(2).nu == 3.0
    assert Schedule(em_steps=np.int64(3)).em_steps == 3


class TestSelectK:
    def test_prefers_single_component_on_null_data(self):
        wins = 0
        for seed in range(10):
            data, _ = sample(
                MdagModel(np.array([1.0]), (single_node_model(0.0),)), 250, seed
            )
            result = select_k(data, FitConfig(seed=seed), k_max=3)
            wins += result.best_k == 1
        assert wins >= 9

    def test_well_separated_three_components(self, rng):
        comps = tuple(single_node_model(m) for m in (0.0, 9.0, 18.0))
        gen = MdagModel(np.full(3, 1 / 3), comps)
        data, _ = sample(gen, 900, rng)
        result = select_k(data, FitConfig(seed=1), k_max=6)
        assert result.best_k in (3, 4, 5)
        weights = np.sort(result.best.model.gaussian_weights())[::-1]
        assert weights[:3].sum() >= 0.98

    def test_report_covers_attempted_k(self, rng):
        data, _ = sample(two_component_1d(0.0, 6.0), 200, rng)
        result = select_k(data, FitConfig(seed=0), k_max=4)
        ks = [k for k, _ in result.report]
        assert ks == list(range(1, len(ks) + 1))
        assert all(np.isfinite(cs) for _, cs in result.report)
        assert result.best_k == max(result.report, key=lambda pair: pair[1])[0]
