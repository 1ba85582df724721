"""Interleaved search against exhaustive search over structures at n = 3.

The paper's claim is that interleaving parameter and structure search
stands in for search-and-score over every structure, which is infeasible
in general.  Over 3 variables it is feasible: the 25 DAGs fall into 11
Markov classes, so a 2-component mixture has 121 ordered class pairs.
Each pair is scored as ``fit`` scores a fixed-structure family: its
components are read off the fit's own initial draws, EM runs to
convergence, a final M step gives the MAP parameters and
``engine.cheeseman_stutz`` scores them.  The test asserts that
``fit(k=2)`` comes within a gap of the best pair.  The exhaustive best is
not an upper bound: fixed-structure EM has local optima of its own, so the
fit may score above it.
"""

from itertools import combinations, product

import numpy as np
import pytest

from dagmix.bayes import (
    data_informed_prior,
    family_marginals,
    map_parameters,
    sample_joint_parameters,
)
from dagmix.engine import FitConfig, _bind_priors, cheeseman_stutz, fit, run_em
from dagmix.errors import CycleDetected
from dagmix.model import DagStructure, GaussianDag, MdagModel, sample
from dagmix.rng import stream
from dagmix.search import to_cpdag
from dagmix.stats import group_cases


def three_variable_dags() -> tuple[DagStructure, ...]:
    """The 25 DAGs over 3 variables."""
    options = [
        [ps for r in range(3) for ps in combinations([u for u in range(3) if u != i], r)]
        for i in range(3)
    ]
    dags = []
    for parents in product(*options):
        try:
            dags.append(DagStructure(3, parents))
        except CycleDetected:
            pass
    return tuple(dags)


def class_representatives(dags) -> tuple[DagStructure, ...]:
    """The first DAG of each Markov class, in the order of ``dags``."""
    classes: dict = {}
    for s in dags:
        classes.setdefault(to_cpdag(s.parents), s)
    return tuple(classes.values())


DAGS = three_variable_dags()
CLASSES = class_representatives(DAGS)


def random_mixture_data(seed: int, cases: int = 400) -> np.ndarray:
    """Cases of a random 2-component mixture over 3 variables: each
    component a uniformly drawn DAG with coefficients of magnitude in
    [0.5, 1.5] and random sign, intercepts N(0, 2^2) and unit variances,
    at equal weights."""
    rng = np.random.default_rng([3, seed])
    components = []
    for _ in range(2):
        structure = DAGS[int(rng.integers(len(DAGS)))]
        coefficients = tuple(
            rng.choice([-1.0, 1.0], len(ps)) * rng.uniform(0.5, 1.5, len(ps))
            for ps in structure.parents
        )
        components.append(GaussianDag(structure, rng.normal(0, 2, 3), coefficients, np.ones(3)))
    data, _ = sample(MdagModel(np.full(2, 0.5), tuple(components)), cases, rng)
    return data


def exhaustive_scores(data: np.ndarray, config: FitConfig) -> np.ndarray:
    """Cheeseman-Stutz score of every ordered pair of Markov classes, (11,
    11), each scored as ``fit`` scores a fixed-structure family from the
    fit's own initial draws (``engine.initialize``)."""
    prior, dirichlet = _bind_priors(config, data.shape[1])
    init_prior = data_informed_prior(data, config.ess, prior)
    draws = [
        sample_joint_parameters(init_prior, stream(config.seed, "init-params", c))
        for c in range(config.k)
    ]
    weights = dirichlet.alphas / dirichlet.alphas.sum()
    cases = group_cases(data)
    scores = np.empty((len(CLASSES),) * config.k)
    for index in np.ndindex(scores.shape):
        components = tuple(
            GaussianDag.from_joint(CLASSES[i], *draw) for i, draw in zip(index, draws)
        )
        start = MdagModel(weights, components)
        _, trace = run_em(
            cases,
            start.plan,
            start.stacked,
            prior,
            dirichlet,
            steps=None,
            convergence_ratio=config.convergence_ratio,
            max_steps=config.max_em_steps,
        )
        post = trace.posterior
        model = start.plan.model(map_parameters(post, start.plan, dirichlet, None))
        scores[index] = cheeseman_stutz(cases, model, family_marginals(post), dirichlet,
                                        post.stats)[2]
    return scores


def fit_gap(data_seed: int, config: FitConfig = FitConfig(k=2, seed=0)) -> float:
    """The best pair's Cheeseman-Stutz score less the fit's: positive when
    the fit misses the exhaustive best."""
    data = random_mixture_data(data_seed)
    return float(exhaustive_scores(data, config).max() - fit(data, config).cheeseman_stutz)


# The default schedule came within this many nats of the best pair, or
# scored above it, on 28 of data seeds 0-29 (the largest gap 0.0064); it
# missed by 0.42 nats on data seed 3 and by 94.07 on data seed 17
GAP_BOUND = 0.01


def test_classes():
    assert len(DAGS) == 25
    assert len(CLASSES) == 11
    assert len({to_cpdag(s.parents) for s in CLASSES}) == 11


@pytest.mark.parametrize("data_seed", [12, 21])
def test_fit_reaches_the_exhaustive_best(data_seed):
    assert fit_gap(data_seed) <= GAP_BOUND


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: on data seed 17 fit(k=2) at fit seed 0 stops "
    "structure-stable 94 nats below the best class pair",
)
def test_fit_misses_the_exhaustive_best():
    assert fit_gap(17) <= GAP_BOUND
