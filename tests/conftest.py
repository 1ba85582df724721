import numpy as np
import pytest
from hypothesis import settings
from scipy import stats as sps

from dagmix.bayes import FamilyMarginals, NormalWishart, local_score
from dagmix.engine import cheeseman_stutz
from dagmix.model import DagStructure, GaussianDag, MdagModel, empty_structure
from dagmix.stats import MixtureStats, SuffStats, component_case_loglik

# the same examples on every run, no per-example deadline (a fit's first
# call pays for imports), and a bounded count unless a test sets its own
settings.register_profile("dagmix", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("dagmix")


def zero_stats(dim: int) -> SuffStats:
    """The statistics of no cases."""
    return SuffStats(0.0, np.zeros(dim), np.zeros((dim, dim)))


def labeled_stats(
    data: np.ndarray, labels: np.ndarray, k: int, noise: bool = False
) -> MixtureStats:
    """Exact statistics of complete data whose component labels are known.

    A label indexes the weight vector of a k-entry mixture, as ``sample``
    returns them: with ``noise``, label 0 is the noise component, which
    keeps only its count, and labels 1..k-1 the Gaussian components.
    """
    def triple(rows):
        return SuffStats(float(rows.shape[0]), rows.sum(axis=0), rows.T @ rows)

    first = 1 if noise else 0
    triples = tuple(triple(data[labels == c]) for c in range(first, k))
    return MixtureStats(triples, float(np.sum(labels == 0)) if noise else None)


def labeled_loglik(data: np.ndarray, model: MdagModel, labels: np.ndarray) -> float:
    """Log likelihood with the component indicator observed: each case adds
    its own component's weighted density in place of the mixture's."""
    logp = component_case_loglik(model, data)
    return float(np.sum(np.log(model.weights[labels]) + logp[np.arange(len(labels)), labels]))


def labeled_cheeseman_stutz(data, labels, model, prior, dirichlet, mix_stats) -> float:
    """The Cheeseman-Stutz score with the component indicator observed: the
    library's score with its observed-data term swapped for the labelled
    one.  On exact labelled statistics the correction then cancels."""
    _, obs, cs = cheeseman_stutz(data, model, prior, dirichlet, mix_stats)
    return cs - obs + labeled_loglik(data, model, labels)


def structure_score(prior: NormalWishart, t: SuffStats, structure: DagStructure) -> float:
    """Sum of family scores over all nodes of one component structure."""
    marginals = FamilyMarginals(prior, t)
    return sum(local_score(marginals, i, ps) for i, ps in enumerate(structure.parents))


def chol_logdet(chol: np.ndarray) -> float:
    """log|L L^T| given the Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def joint_moments(g: GaussianDag) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the joint Gaussian a DAG component implies.

    Solving x = m + Bx + e gives mean (I-B)^-1 m and covariance
    (I-B)^-1 V (I-B)^-T, with B[i, j] the coefficient of parent j in node
    i's regression and V = diag(variances).
    """
    b = np.zeros((g.n, g.n))
    for i, ps in enumerate(g.structure.parents):
        b[i, list(ps)] = g.coefficients[i]
    inv = np.linalg.inv(np.eye(g.n) - b)
    cov = inv @ np.diag(g.variances) @ inv.T
    return inv @ g.intercepts, 0.5 * (cov + cov.T)


def node_log_density(g: GaussianDag, x: np.ndarray) -> np.ndarray:
    """Log density of a DAG component at a point, or at each row of a
    matrix: the sum over nodes of each node's conditional normal given its
    parents.  It needs no joint covariance, so it also holds where that is
    singular in floats."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i, ps in enumerate(g.structure.parents):
        center = g.intercepts[i] + x[..., list(ps)] @ g.coefficients[i]
        total = total + sps.norm.logpdf(x[..., i], center, np.sqrt(g.variances[i]))
    return total


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
