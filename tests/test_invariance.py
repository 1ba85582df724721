"""What learning must not depend on: the labels of variables and of
components at the scoring layer, the labels of variables in structure
search, and the order of the cases at the fit level.  The paper's criterion
is a function of the data set and the model class, and none of these enter
it."""

import numpy as np
import pytest

from dagmix.bayes import DirichletPrior, NormalWishart
from dagmix.engine import FitConfig, _bind_priors, cheeseman_stutz, fit
from dagmix.harness import default_gold_standard
from dagmix.model import (
    DagStructure,
    GaussianDag,
    MdagModel,
    empty_structure,
    sample,
)
from dagmix.rng import stream
from dagmix.scoring import complete_model_score, completed_loglik, observed_loglik
from dagmix.search import search_all_components, to_cpdag
from dagmix.stats import expected_stats, group_cases
from conftest import (
    Triple,
    mixture_marginals,
    mixture_stats,
    random_dag,
    random_gaussian_dag,
    triples_of,
)
from test_bayes import random_prior

# A relabelling reorders the sums and factorisations behind every score, so
# the scores agree to rounding, not bit for bit: over 30 random problems the
# largest relative gap was 7e-15.
RELABEL_REL = 1e-12


def relabeled(g: GaussianDag, perm: np.ndarray) -> GaussianDag:
    """The component over the columns ``data[:, perm]``: variable perm[j]
    is renamed j, with each parent list re-sorted and its coefficients
    moved with it."""
    inv = np.argsort(perm)
    parents, coefficients = [], []
    for old in perm:
        ps = g.structure.parents[old]
        order = sorted(range(len(ps)), key=lambda i: inv[ps[i]])
        parents.append(tuple(int(inv[ps[i]]) for i in order))
        coefficients.append(g.coefficients[old][order])
    return GaussianDag(
        DagStructure(len(perm), tuple(parents)),
        g.intercepts[perm],
        tuple(coefficients),
        g.variances[perm],
    )


def scores(data, model, prior, dirichlet):
    """observed_loglik, complete_model_score, completed_loglik and the
    (complete, observed, CS) triple of ``cheeseman_stutz``, all on the
    statistics of the model's own E sweep."""
    cases = group_cases(data)
    ms, _ = expected_stats(cases, model.stacked)
    structures = [g.structure for g in model.components]
    return np.array(
        [
            observed_loglik(cases, model),
            complete_model_score(ms, structures, mixture_marginals(prior, ms), dirichlet),
            completed_loglik(ms, model),
            *cheeseman_stutz(cases, model, mixture_marginals(prior, ms), dirichlet, ms),
        ]
    )


def random_problem(rng, n=6, k=3, cases=120):
    components = tuple(random_gaussian_dag(random_dag(n, rng, p=0.5), rng) for _ in range(k))
    model = MdagModel(rng.dirichlet(np.full(k, 2.0)), components)
    data, _ = sample(model, cases, rng)
    data[rng.random(data.shape) < 0.15] = np.nan  # several observation masks
    dirichlet = DirichletPrior(rng.uniform(0.5, 3.0, k))
    return data, model, random_prior(n, rng), dirichlet


class TestRelabelling:
    def test_variables(self, rng):
        for _ in range(5):
            data, model, prior, dirichlet = random_problem(rng)
            perm = rng.permutation(model.n)
            moved = MdagModel(model.weights, tuple(relabeled(g, perm) for g in model.components))
            moved_prior = NormalWishart(
                prior.nu, prior.mu0[perm], prior.alpha, prior.tau[np.ix_(perm, perm)]
            )
            expected = scores(data, model, prior, dirichlet)
            got = scores(data[:, perm], moved, moved_prior, dirichlet)
            np.testing.assert_allclose(got, expected, rtol=RELABEL_REL, atol=0)

    def test_components(self, rng):
        for _ in range(5):
            data, model, prior, dirichlet = random_problem(rng)
            perm = rng.permutation(model.k)
            moved = MdagModel(model.weights[perm], tuple(model.components[c] for c in perm))
            expected = scores(data, model, prior, dirichlet)
            got = scores(data, moved, prior, DirichletPrior(dirichlet.alphas[perm]))
            np.testing.assert_allclose(got, expected, rtol=RELABEL_REL, atol=0)


@pytest.mark.parametrize("data_seed", [0, 1])
def test_search_variables(data_seed):
    # the statistics of a one-iteration gold fit, searched from empty
    # structures with the variables in the given order and permuted; the
    # tie key may pick another member of a class, so classes are compared
    data, _ = sample(default_gold_standard().model, 1500, stream(data_seed, "generate"))
    config = FitConfig(k=3, seed=data_seed, max_outer=1)
    mix_stats = fit(data, config).trace[0].stats
    prior, _ = _bind_priors(config, data.shape[1])
    empty = [empty_structure(prior.dim)] * config.k
    expected = [to_cpdag(g.parents)
                for g in search_all_components(mixture_marginals(prior, mix_stats), empty)]
    rng = stream(data_seed, "variable-order")
    for _ in range(5):
        perm = rng.permutation(prior.dim)
        triples = tuple(
            Triple(t.n, t.r[perm], t.s[np.ix_(perm, perm)]) for t in triples_of(mix_stats)
        )
        moved_prior = NormalWishart(
            prior.nu, prior.mu0[perm], prior.alpha, prior.tau[np.ix_(perm, perm)]
        )
        found = search_all_components(mixture_marginals(moved_prior, mixture_stats(triples)),
                                      empty)
        # moved variable j is variable perm[j]
        back = []
        for g in found:
            parents = [()] * prior.dim
            for j, ps in enumerate(g.parents):
                parents[perm[j]] = tuple(sorted(int(perm[p]) for p in ps))
            back.append(to_cpdag(tuple(parents)))
        assert back == expected


def classes(result):
    return [to_cpdag(g.structure.parents) for g in result.model.components]


@pytest.mark.parametrize("fit_seed", [0, 1, 2])
@pytest.mark.parametrize("data_seed", [0, 1])
def test_case_order(data_seed, fit_seed):
    # 600 gold cases as `dagmix generate --n 600 --seed <data_seed>` draws
    # them, fitted in the given order and with the rows shuffled
    data, _ = sample(default_gold_standard().model, 600, stream(data_seed, "generate"))
    shuffled = data[stream(data_seed, "case-order").permutation(len(data))]
    config = FitConfig(k=3, seed=fit_seed)
    given, moved = fit(data, config), fit(shuffled, config)
    assert classes(moved) == classes(given)
    assert moved.termination == given.termination
    assert moved.cheeseman_stutz == pytest.approx(given.cheeseman_stutz, rel=1e-9, abs=0)
