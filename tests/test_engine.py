import os
import re
import subprocess
import sys
import warnings

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
    _COLLAPSE_STEPS,
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
from dagmix.stats import expected_stats, group_cases
from conftest import (
    Triple,
    joint_moments,
    map_component,
    oracle_m_step,
    oracle_run_em,
    single_node_model,
    two_component_1d,
)


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

    @given(st.integers(0, 999), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, steps, outer):
        # a schedule that constructs can be read back from its text form
        try:
            s = Schedule(em_steps=steps, outer_repeat=outer)
        except BadSchedule:
            return
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

    @pytest.mark.parametrize("noise_alpha", [0.0, 1.0, 1.5, -0.2])
    def test_noise_alpha_outside_unit_interval_rejected(self, noise_alpha):
        spec = PriorSpec(noise_alpha=noise_alpha)
        with pytest.raises(DimensionMismatch, match="noise_alpha"):
            spec.dirichlet(3, has_noise=True)
        assert spec.dirichlet(3, has_noise=False).k == 3  # unused without noise

    def test_dirichlet_without_noise(self):
        d = PriorSpec().dirichlet(4, has_noise=False)
        assert np.allclose(d.alphas, 0.25)


class TestEmStep:
    def test_fixed_point_on_complete_problem(self, rng):
        # a single component already at the MAP of its statistics stays put
        data = rng.normal(1.0, 2.0, (200, 1))
        config = FitConfig(k=1, seed=0)
        prior, dirichlet = _bind_priors(config, 1)

        t = Triple(200.0, data.sum(axis=0), data.T @ data)
        g = map_component(prior, t, empty_structure(1))
        m = MdagModel(np.array([1.0]), (g,))
        stepped, _ = run_em(group_cases(data), m, prior, dirichlet, steps=1)
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
        cases = group_cases(data)
        prev = None
        for _ in range(40):
            m, _ = run_em(cases, m, prior, dirichlet, steps=1)
            value = observed_loglik(cases, m) + _log_prior_density(m, prior, dirichlet)
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
        cases = group_cases(data)
        for _ in range(50):
            m, _ = run_em(cases, m, prior, dirichlet, steps=1)
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
        out, trace = run_em(group_cases(data), m, prior, dirichlet, steps=0)
        assert out is m
        assert len(trace.logliks) == 1

    def test_ratio_rule_matches_recomputation(self, rng):
        data, _ = sample(two_component_1d(0.0, 5.0), 300, rng)
        config = FitConfig(k=2, seed=2)
        prior, dirichlet = _bind_priors(config, 1)
        m = initialize(data, config)
        _, trace = run_em(
            group_cases(data), m, prior, dirichlet, steps=None, convergence_ratio=1e-6
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
        _, trace = run_em(group_cases(data), m, prior, dirichlet, steps=None)
        assert np.all(np.diff(trace.logliks) >= -1e-7)

    def test_returned_stats_are_a_fresh_sweep(self, rng):
        # fit hands these statistics to search in place of a new sweep
        data, _ = sample(two_component_1d(0.0, 4.0), 120, rng)
        data[::9, 0] = np.nan
        config = FitConfig(k=2, seed=0)
        prior, dirichlet = _bind_priors(config, 1)
        cases = group_cases(data)
        out, trace = run_em(cases, initialize(data, config), prior, dirichlet, steps=6)
        fresh, loglik = expected_stats(cases, out.stacked)
        assert loglik == trace.logliks[-1]
        for part in ("counts", "sums", "seconds"):
            assert np.array_equal(getattr(trace.stats, part), getattr(fresh, part))


def gold_cases(missing: bool) -> np.ndarray:
    """600 gold cases, with 20% of the cells blanked when ``missing``."""
    from dagmix.harness import default_gold_standard

    data, _ = sample(default_gold_standard().model, 600, 23)
    if missing:
        data[np.random.default_rng(23).random(data.shape) < 0.2] = np.nan
    return data


def assert_run_em_is_the_oracle(cases, model, prior, dirichlet, steps, max_steps=500):
    """``run_em`` against ``oracle_run_em``, which sweeps every step, bit
    for bit: the log likelihoods, ``converged``, the returned parameters,
    the last sweep's statistics and the collapsed components, each warned
    about once; returns what ``run_em`` returned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, trace = run_em(cases, model, prior, dirichlet, steps=steps, max_steps=max_steps)
    want, logliks, converged, mix_stats, collapsed = oracle_run_em(
        cases, model, prior, dirichlet, steps=steps, max_steps=max_steps
    )
    assert trace.logliks == tuple(logliks)
    assert trace.converged == converged
    assert trace.collapsed == collapsed
    warned = [re.match(r"component (\d+) collapsed", str(w.message)) for w in caught]
    assert sorted(int(m.group(1)) for m in warned if m) == list(collapsed)
    for part in ("counts", "sums", "seconds"):
        assert np.array_equal(getattr(trace.stats, part), getattr(mix_stats, part))
    assert np.array_equal(got.weights, want.weights)
    for g, h in zip(got.components, want.components, strict=True):
        assert g.structure == h.structure
        assert np.array_equal(g.intercepts, h.intercepts)
        assert np.array_equal(g.variances, h.variances)
        for b, c in zip(g.coefficients, h.coefficients, strict=True):
            assert np.array_equal(b, c)
    for part in ("weights", "intercepts", "variances", "b", "a", "w", "const"):
        assert np.array_equal(getattr(got.stacked, part), getattr(want.stacked, part))
    return got, trace


def count_sweeps(monkeypatch) -> list[int]:
    """A one-element list that counts the E sweeps ``run_em`` makes from
    now on (the oracle's are not counted)."""
    calls = [0]
    real = engine_module.stats.expected_stats

    def counting(cases, params):
        calls[0] += 1
        return real(cases, params)

    monkeypatch.setattr(engine_module.stats, "expected_stats", counting)
    return calls


def em_inputs(data, k, seed=0, noise_bounds=None):
    """(cases, initial model, prior, Dirichlet) of a fit's config, as
    ``run_em`` takes them."""
    config = FitConfig(k=k, seed=seed, noise_bounds=noise_bounds)
    prior, dirichlet = _bind_priors(config, data.shape[1])
    return group_cases(data), initialize(data, config), prior, dirichlet


class TestRunEmOracle:
    """``run_em`` against a loop that builds a model per step through the
    M step one component and one node at a time and sweeps every step,
    bit for bit; so a burst that stops computing at a fixed point returns
    what the full burst returns."""

    @pytest.mark.parametrize("steps", [7, None])
    @pytest.mark.parametrize("missing", [False, True])
    def test_matches_the_per_component_loop(self, missing, steps):
        from dagmix.harness import default_gold_standard

        data = gold_cases(missing)
        cases, start, prior, dirichlet = em_inputs(data, 3, seed=4)
        # the gold structures, at parameters one M step from the start
        gold = tuple(g.structure for g in default_gold_standard().model.components)
        searched = oracle_m_step(
            expected_stats(cases, start.stacked)[0], gold, prior, dirichlet
        )
        for model in (start, searched):
            got, trace = assert_run_em_is_the_oracle(cases, model, prior, dirichlet, steps)
            assert trace.converged == (steps is None)
            # the sweep arrays the returned model keeps from its last M step
            # are the ones its components give
            rebuilt = MdagModel(got.weights, got.components, got.noise).stacked
            for part in ("a", "w", "const"):
                assert np.array_equal(getattr(got.stacked, part), getattr(rebuilt, part))

    @pytest.mark.parametrize("steps", [1, 2, 3, 20, None])
    def test_one_component_on_complete_data(self, steps):
        # every sweep of one component over complete data gives the same
        # statistics, so the second M step repeats the first
        assert_run_em_is_the_oracle(*em_inputs(gold_cases(False), 1), steps)

    def test_one_component_burst_makes_three_sweeps(self, monkeypatch):
        # the sweeps at the start and after steps 1 and 2; step 2's sweep
        # repeats step 1's log likelihood, so step 3's M step, which
        # repeats step 2's parameters, is compared and the burst stops
        sweeps = count_sweeps(monkeypatch)
        _, trace = run_em(*em_inputs(gold_cases(False), 1), steps=20)
        assert sweeps[0] <= 3
        assert len(trace.logliks) == 21 and len(set(trace.logliks[1:])) == 1

    @pytest.mark.parametrize("steps", [5, 6, 20])
    def test_two_components_reach_their_fixed_point(self, steps, monkeypatch):
        # this draw's fifth M step returns the fourth's parameters, on the
        # last step of a 5-step burst; the bursts skip nothing of 5 steps,
        # the last of 6 and 14 of 20
        sweeps = count_sweeps(monkeypatch)
        assert_run_em_is_the_oracle(*em_inputs(gold_cases(False), 2), steps)
        assert sweeps[0] == min(steps, 5) + 1

    def test_noise_component(self, monkeypatch):
        # the noise keeps a share of every case, and the 42nd M step repeats
        # the 41st's parameters, so 8 of 50 steps make no sweep
        data = gold_cases(False)
        box = (tuple(data.min(axis=0) - 1.0), tuple(data.max(axis=0) + 1.0))
        sweeps = count_sweeps(monkeypatch)
        assert_run_em_is_the_oracle(*em_inputs(data, 1, noise_bounds=box), 50)
        assert sweeps[0] == 42

    def test_collapse_warned_during_skipped_steps(self, rng, monkeypatch):
        # the stranded component keeps no responsibility, so every sweep
        # gives the same statistics and the burst sweeps at the start and
        # after steps 1 and 2 alone; its collapse streak reaches
        # _COLLAPSE_STEPS at step 3, a step that makes no sweep
        data = rng.normal(1000.0, 1.0, (100, 1))
        prior, dirichlet = _bind_priors(FitConfig(k=2), 1)
        stranded = MdagModel(
            np.array([1.0 - 1e-12, 1e-12]),
            (single_node_model(1000.0), single_node_model(-1000.0, variance=1e-6)),
        )
        sweeps = count_sweeps(monkeypatch)
        _, trace = assert_run_em_is_the_oracle(
            group_cases(data), stranded, prior, dirichlet, 8
        )
        assert trace.collapsed == (1,)
        assert sweeps[0] == _COLLAPSE_STEPS == 3

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 4, 12, None]),
        st.booleans(),
    )
    def test_random_small_data(self, k, seed, steps, missing):
        rng = np.random.default_rng(seed)
        n, size = int(rng.integers(1, 4)), int(rng.integers(4, 40))
        shift = 4.0 * rng.integers(0, 2, (size, 1))
        data = rng.normal(0.0, rng.uniform(0.5, 3.0, n), (size, n)) + shift
        if missing:
            data[rng.random(data.shape) < 0.2] = np.nan
        assert_run_em_is_the_oracle(
            *em_inputs(data, k, seed=int(rng.integers(0, 100))), steps, max_steps=60
        )


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
        config = FitConfig(k=3, seed=0, noise_bounds=((float(lo),), (float(hi),)))
        m = initialize(data, config)
        _, dirichlet = _bind_priors(config, 1)
        assert np.array_equal(m.weights, dirichlet.alphas / dirichlet.alphas.sum())
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
        out, trace = run_em(group_cases(data), stranded, prior, dirichlet, steps=5)
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
        (_WITH_INF.real + 1j, NonNumericValue),
        (_WITH_INF.real + 0j, NonNumericValue),
    ],
    ids=["inf-cell", "1-d", "3-d", "no-variables", "string-cells", "complex-cells",
         "zero-imaginary-parts"],
)
# a cast that keeps the real parts warns; the warning must not be the way out
@pytest.mark.filterwarnings("error")
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
        (lambda: Schedule(em_steps=0), BadSchedule),
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
        "zero-em-steps",
    ],
)
def test_wrongly_typed_config_value_rejected(config, error):
    with pytest.raises(error):
        config()


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past-64-bits"])
def test_seed_outside_64_bits_rejected(seed):
    # masked to 64 bits it would learn what seed % 2**64 learns
    with pytest.raises(DimensionMismatch):
        FitConfig(seed=seed)
    assert FitConfig(seed=seed % 2**64).seed == seed % 2**64


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
