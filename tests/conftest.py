import numpy as np
import pytest
from hypothesis import settings

from dagmix.bayes import FamilyMarginals, NormalWishart, local_score
from dagmix.model import DagStructure, GaussianDag, MdagModel, empty_structure
from dagmix.stats import SuffStats

# the same examples on every run, no per-example deadline (a fit's first
# call pays for imports), and a bounded count unless a test sets its own
settings.register_profile("dagmix", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("dagmix")


def zero_stats(dim: int) -> SuffStats:
    """The statistics of no cases."""
    return SuffStats(0.0, np.zeros(dim), np.zeros((dim, dim)))


def structure_score(prior: NormalWishart, t: SuffStats, structure: DagStructure) -> float:
    """Sum of family scores over all nodes of one component structure."""
    marginals = FamilyMarginals(prior, t)
    return sum(
        local_score(prior, t, i, ps, marginals) for i, ps in enumerate(structure.parents)
    )


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
