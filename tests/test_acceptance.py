"""Acceptance suite: one test per shipping criterion, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.  Each test pins the tolerance it must meet and the
wall-clock budget it must fit in.
"""

import time

import numpy as np
import pytest
from scipy import stats as sps
from dagmix.bayes import (
    DirichletPrior,
    NormalWishart,
    dirichlet_map,
    map_parameters,
)
from dagmix.cli import Dataset, main, write_csv
from dagmix.engine import (
    FitConfig,
    PriorSpec,
    Schedule,
    _bind_priors,
    _m_step,
    fit,
    initialize,
    run_em,
)
from dagmix.harness import (
    default_gold_standard,
    match_components,
    run_baseline_comparison,
    run_recovery,
)
from dagmix.model import (
    DagStructure,
    GaussianDag,
    MdagModel,
    empty_structure,
    sample,
)
from dagmix.rng import stream
from dagmix.scoring import (
    cheeseman_stutz_score,
    complete_model_score,
    observed_loglik,
)
from dagmix.search import greedy_component_search, apply_move
from dagmix.stats import SuffStats, expected_stats, labeled_stats
from conftest import random_dag, structure_score


def _report(number: int, name: str, elapsed: float, budget: float, detail: str):
    print(f"criterion {number:02d} {name}: PASS ({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _sequential_family_oracle(prior, rows, family):
    """Case-by-case predictive products with inline conjugate updates."""
    idx = list(family)
    size = len(idx)
    nu = prior.nu
    alpha = prior.alpha - (prior.dim - size)
    mu = prior.mu0[idx].copy()
    tau = prior.tau[np.ix_(idx, idx)].copy()
    total = 0.0
    for row in rows:
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


def _polya_urn_oracle(alphas, labels):
    """Sequential predictive product for the component-indicator counts."""
    counts = np.zeros_like(alphas)
    total = 0.0
    for c in labels:
        total += np.log((alphas[c] + counts[c]) / (alphas.sum() + counts.sum()))
        counts[c] += 1
    return float(total)


def test_criterion_01_conjugate_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        count = int(rng.integers(2, 21))
        rows = rng.normal(0, 2, (count, n))
        labels = rng.integers(0, k, count)
        structures = tuple(random_dag(n, rng) for _ in range(k))
        a = rng.normal(0, 1, (n, n))
        prior = NormalWishart(
            float(rng.uniform(0.5, 3)), rng.normal(0, 1, n),
            float(n + rng.uniform(0.5, 2)), a @ a.T + n * np.eye(n),
        )
        dirichlet = DirichletPrior(rng.uniform(0.3, 2.0, k))
        ms = labeled_stats(rows, labels, k)
        factored = complete_model_score(ms, structures, (prior,) * k, dirichlet).total
        oracle = _polya_urn_oracle(dirichlet.alphas, labels)
        for c, structure in enumerate(structures):
            comp_rows = rows[labels == c]
            for i, ps in enumerate(structure.parents):
                oracle += _sequential_family_oracle(prior, comp_rows, (i, *ps))
                if ps:
                    oracle -= _sequential_family_oracle(prior, comp_rows, ps)
        worst = max(worst, abs(factored - oracle) / max(1.0, abs(oracle)))
    assert worst <= 1e-8
    _report(1, "conjugate-oracle-equivalence", time.time() - start, 30, f"worst rel err {worst:.2e}")


def test_criterion_02_score_equivalence():
    start = time.time()
    rng = np.random.default_rng(202)
    forward_structure = DagStructure(2, ((), (0,)))
    backward_structure = DagStructure(2, ((1,), ()))
    worst = 0.0
    for _ in range(100):
        a = rng.normal(0, 1, (2, 2))
        prior = NormalWishart(
            float(rng.uniform(0.5, 4)), rng.normal(0, 2, 2),
            float(2 + rng.uniform(0.5, 3)), a @ a.T + 2 * np.eye(2),
        )
        rows = rng.normal(0, 2, (int(rng.integers(2, 25)), 2))
        t = SuffStats(float(len(rows)), rows.sum(axis=0), rows.T @ rows)
        gap = abs(
            structure_score(prior, t, forward_structure)
            - structure_score(prior, t, backward_structure)
        )
        worst = max(worst, gap)
    assert worst <= 1e-8
    _report(2, "score-equivalence", time.time() - start, 5, f"worst gap {worst:.2e}")


def test_criterion_03_cheeseman_stutz_exact_on_complete_data():
    start = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        count = int(rng.integers(4, 16))
        rows = rng.normal(0, 2, (count, n))
        labels = rng.integers(0, k, count)
        structures = tuple(random_dag(n, rng) for _ in range(k))
        prior = PriorSpec(mu0=0.0).normal_wishart(n)
        dirichlet = DirichletPrior(np.full(k, 1.0 / k))
        ms = labeled_stats(rows, labels, k)
        weights = dirichlet_map(dirichlet, ms.counts())
        comps = tuple(
            map_parameters(prior, ms.triples[c], structures[c]) for c in range(k)
        )
        m = MdagModel(weights, comps)
        cs = cheeseman_stutz_score(rows, m, (prior,) * k, dirichlet, ms, labels=labels)
        closed = complete_model_score(ms, structures, (prior,) * k, dirichlet).total
        worst = max(worst, abs(cs - closed))
    assert worst <= 1e-8
    _report(3, "cheeseman-stutz-exactness", time.time() - start, 10, f"worst gap {worst:.2e}")


def test_criterion_04_cheeseman_stutz_vs_importance_sampling():
    start = time.time()
    gen = MdagModel(
        np.array([0.5, 0.5]),
        (
            GaussianDag(empty_structure(1), np.array([0.0]), (np.zeros(0),), np.ones(1)),
            GaussianDag(empty_structure(1), np.array([8.0]), (np.zeros(0),), np.ones(1)),
        ),
    )
    data, labels = sample(gen, 20, stream(1, "c4data"))
    spec = PriorSpec(nu=0.5, mu0=4.0, tau=1.0)
    config = FitConfig(k=2, seed=1, prior=spec)
    priors, dirichlet = _bind_priors(config, 1)
    # the score's premise is MAP parameters: warm-start EM inside the
    # dominant basin and run it to convergence before scoring
    ms0 = labeled_stats(data, labels, 2)
    m = _m_step(
        ms0,
        (empty_structure(1),) * 2,
        priors,
        dirichlet,
        MdagModel(
            np.array([0.5, 0.5]),
            (GaussianDag(empty_structure(1), np.zeros(1), (np.zeros(0),), np.ones(1)),) * 2,
        ),
    )
    m, _ = run_em(data, m, priors, dirichlet, steps=None, max_steps=3000, convergence_ratio=1e-10)
    ms, _ = expected_stats(data, m)
    m = _m_step(ms, tuple(g.structure for g in m.components), priors, dirichlet, m)
    ms, _ = expected_stats(data, m)
    cs = cheeseman_stutz_score(data, m, priors, dirichlet, ms)

    p = priors[0]
    nu, mu0, alpha, tau = p.nu, float(p.mu0[0]), p.alpha, float(p.tau[0, 0])
    rng = stream(2, "c4is")
    draws = 1_000_000
    w = rng.dirichlet(dirichlet.alphas, size=draws)
    prec = rng.gamma(alpha / 2, 2.0 / tau, size=(draws, 2))
    means = mu0 + rng.standard_normal((draws, 2)) / np.sqrt(nu * prec)
    loglik = np.zeros(draws)
    for x in data[:, 0]:
        comp = -0.5 * np.log(2 * np.pi) + 0.5 * np.log(prec) - 0.5 * prec * (x - means) ** 2
        top = comp.max(axis=1, keepdims=True)
        loglik += top[:, 0] + np.log(np.sum(w * np.exp(comp - top), axis=1))
    top = loglik.max()
    estimate = top + np.log(np.mean(np.exp(loglik - top)))
    gap = abs(cs - estimate)
    assert gap <= 1.0
    _report(4, "cheeseman-stutz-sanity", time.time() - start, 120, f"|CS - IS| = {gap:.3f} nats")


def test_criterion_05_em_correctness():
    # twenty runs at the full canonical sample size; likelihood monotonicity
    # under MAP re-estimation is an empirical property of this regime (the
    # guaranteed monotone quantity, likelihood plus log prior, has its own
    # unit test on harder configurations)
    start = time.time()
    gold = default_gold_standard()
    worst_step = 0.0
    for seed in range(20):
        data, _ = sample(gold.model, 3000, stream(seed, "c5"))
        config = FitConfig(k=3, seed=seed)
        priors, dirichlet = _bind_priors(config, 5)
        m = initialize(data, config)
        m, trace = run_em(
            data, m, priors, dirichlet, steps=None, convergence_ratio=1e-6, max_steps=400
        )
        steps = np.diff(trace.logliks)
        if steps.size:
            worst_step = min(worst_step, float(steps.min()))
        assert np.all(steps >= -1e-7)
        # recompute the firing rule from the trace, independently
        logliks = trace.logliks
        fired_at = None
        for t in range(1, len(logliks)):
            total = logliks[t] - logliks[0]
            last = logliks[t] - logliks[t - 1]
            fires = (last == 0.0) if total <= 0 else (last / total < 1e-6)
            if fires:
                fired_at = t
                break
        if trace.converged:
            assert fired_at == len(logliks) - 1
        else:
            assert fired_at is None
    _report(5, "em-correctness", time.time() - start, 60, f"worst step {worst_step:.2e}")


def test_criterion_06_delta_scoring_equals_full_rescoring():
    start = time.time()
    rng = np.random.default_rng(606)
    worst = 0.0
    total_moves = 0
    for trial in range(10):
        n = int(rng.integers(3, 6))
        mixing = rng.normal(0, 1, (n, n))
        rows = rng.normal(0, 1, (300, n)) @ mixing
        t = SuffStats(float(len(rows)), rows.sum(axis=0), rows.T @ rows)
        prior = PriorSpec().normal_wishart(n)
        trace = []
        structure = empty_structure(n)
        greedy_component_search(t, prior, structure, trace=trace)
        for step in trace:
            structure = apply_move(structure, step.move)
            full = structure_score(prior, t, structure)
            worst = max(worst, abs(full - step.total))
            total_moves += 1
    assert worst <= 1e-10
    _report(
        6, "delta-scoring", time.time() - start, 30,
        f"{total_moves} moves, worst drift {worst:.2e}",
    )


def test_criterion_07_structure_recovery():
    start = time.time()
    gold = default_gold_standard()
    totals_large, totals_small, top_weights = [], [], []
    for seed in range(5):
        report = run_recovery(
            gold, seed=seed, sizes=(93, 3000),
            config=FitConfig(schedule=Schedule.parse("((EM)^10 Ec S* M)*")), k_max=8,
        )
        small, large = report.rows
        totals_small.append(small.total_difference())
        totals_large.append(large.total_difference())
        top_weights.append(large.top_weight_sum)
    median_large = float(np.median(totals_large))
    median_small = float(np.median(totals_small))
    median_weight = float(np.median(top_weights))
    assert median_weight >= 0.98
    assert median_large <= 4
    assert median_large <= median_small
    _report(
        7, "structure-recovery", time.time() - start, 600,
        f"median diff {median_large} at N=3000 (vs {median_small} at N=93), "
        f"median top-3 weight {median_weight:.3f}",
    )


def test_criterion_08_predictive_ordering():
    start = time.time()
    gold = default_gold_standard()
    wins = 0
    for seed in range(5):
        train, _ = sample(gold.model, 1000, stream(seed, "c8-train"))
        test, _ = sample(gold.model, 1000, stream(seed, "c8-test"))
        lo = tuple(float(v) for v in train.min(axis=0) - 1.0)
        hi = tuple(float(v) for v in train.max(axis=0) + 1.0)
        config = FitConfig(seed=seed, noise_bounds=(lo, hi))
        scores = {
            s.family: s.predictive
            for s in run_baseline_comparison(
                train, test, config, families=("mdag", "mdiag"), k_max=6
            )
        }
        wins += scores["mdag"] >= scores["mdiag"]
    assert wins >= 4
    _report(8, "predictive-ordering", time.time() - start, 600, f"mdag >= mdiag on {wins}/5 seeds")


def test_criterion_09_search_schedule_behavior():
    start = time.time()
    gold = default_gold_standard()
    gains = []
    for seed in range(3):
        data, _ = sample(gold.model, 750, stream(seed, "c9"))
        result = fit(data, FitConfig(k=3, seed=seed))
        first = result.trace[0].cheeseman_stutz
        assert result.cheeseman_stutz >= first
        gains.append(result.cheeseman_stutz - first)
    _report(
        9, "search-schedule-behavior", time.time() - start, 300,
        f"final-minus-initial CS gains {[round(g, 1) for g in gains]}",
    )


def test_criterion_10_reproducibility(tmp_path):
    start = time.time()
    data, _ = sample(default_gold_standard().model, 400, stream(10, "c10"))
    data_path = str(tmp_path / "data.csv")
    write_csv(data_path, Dataset(tuple(f"x{i}" for i in range(5)), data))
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for path in paths:
        code = main(
            ["fit", "--data", data_path, "--k", "2", "--seed", "77", "--out", path]
        )
        assert code == 0
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        assert fa.read() == fb.read()
    _report(10, "reproducibility", time.time() - start, 60, "byte-identical model files")
