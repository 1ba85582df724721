"""Normal-Wishart conjugacy: updates, marginal likelihoods, MAP extraction.

The prior over a joint Gaussian's (mean, precision) is parameterized by
(nu, mu0, alpha, tau): mean | W ~ N(mu0, (nu W)^-1) and W ~ Wishart with
alpha degrees of freedom and inverse scale tau.  Fractional case counts
are allowed everywhere: expected statistics are absorbed exactly as if
they came from a complete data set, with log-Gamma functions replacing
factorial-style terms.

Node-family scores restrict the prior to a variable subset Y by taking
sub-blocks of (mu0, tau) and reducing alpha by (n - |Y|); that restriction
makes Markov-equivalent structures score identically.

These functions are internal and assume validated input: user
hyperparameters are checked once, in ``PriorSpec.normal_wishart``, and
every other value is built from them and from data checked at the entry
points that the package docstring lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadParentIndex,
    ChildInParents,
    DimensionMismatch,
    EmptyFamily,
    NegativeCount,
    NonPsdScatter,
    NumericalOverflow,
    SingularParentBlock,
)
from .model import DagStructure, GaussianDag, _chol_with_jitter
from .stats import SuffStats

_LOG_PI = float(np.log(np.pi))
_PSD_TOL = 1e-8
# Below this fractional count a posterior update is numerically the prior.
_COUNT_FLOOR = 1e-250

# log|Gamma(x)| elementwise
_gammaln = np.vectorize(math.lgamma, otypes=[float])


def _multigammaln(a: float, d: int) -> float:
    """log Gamma_d(a) = (d(d-1)/4) log pi + sum_{j=1..d} log Gamma(a - (j-1)/2).

    Summed in the float order of ``scipy.special.multigammaln``: the
    constant, plus ``np.sum`` over the d terms in order of j.  Callers keep
    a > (d-1)/2, so no term reaches a pole of Gamma.
    """
    terms = np.array([math.lgamma(a - (j - 1.0) / 2) for j in range(1, d + 1)])
    return (d * (d - 1) * 0.25) * _LOG_PI + np.sum(terms)


@dataclass(frozen=True)
class NormalWishart:
    """Hyperparameters (nu, mu0, alpha, tau); serves as prior and posterior.

    Unchecked: ``PriorSpec.normal_wishart`` validates the user's prior, and
    posteriors and data-informed priors are built from validated values.
    """

    nu: float
    mu0: np.ndarray
    alpha: float
    tau: np.ndarray

    @property
    def dim(self) -> int:
        return self.mu0.shape[0]


@dataclass(frozen=True)
class DirichletPrior:
    alphas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        if np.any(self.alphas <= 0):
            raise DimensionMismatch("Dirichlet hyperparameters must be positive")

    @property
    def k(self) -> int:
        return self.alphas.shape[0]


def posterior_update(prior: NormalWishart, t: SuffStats) -> NormalWishart:
    """Absorb a statistics triple; the identity map when it is empty.

    The posterior scale is T' = tau + (s - r r^T / N)
    + (nu N / nu') (xbar - mu0)(xbar - mu0)^T, symmetrized once at the end;
    a centered scatter with an eigenvalue below -_PSD_TOL * max(1, its
    largest eigenvalue) raises NonPsdScatter.  The bound is relative because
    the rounding of s - r r^T / N grows with the data's units and offset.  A
    scatter that overflowed raises NumericalOverflow.
    """
    if t.n <= _COUNT_FLOOR:
        return prior
    n_count = t.n
    scatter = t.scatter()
    if not np.isfinite(scatter.sum()):  # eigvalsh misreads non-finite input
        raise NumericalOverflow("the statistics overflow; rescale the data")
    eig = np.linalg.eigvalsh(scatter)
    if eig[0] < -_PSD_TOL * max(1.0, float(eig[-1])):
        raise NonPsdScatter(f"centered scatter has eigenvalue {eig[0]:.3e}")
    nu1 = prior.nu + n_count
    diff = t.r / n_count - prior.mu0
    tau1 = prior.tau + scatter + (prior.nu * n_count / nu1) * np.outer(diff, diff)
    mu1 = (prior.nu * prior.mu0 + t.r) / nu1
    return NormalWishart(nu1, mu1, prior.alpha + n_count, 0.5 * (tau1 + tau1.T))


class FamilyMarginals:
    """Log marginal likelihoods of variable subsets Y for one (prior,
    statistics) pair.

    Closed form for the saturated Gaussian on Y under the Y-restricted
    prior, with ratios of prior and posterior normalizing constants:

        -(N |Y| / 2) log pi + (|Y|/2) log(nu/nu')
        + log Gamma_|Y|(alpha'/2) - log Gamma_|Y|(alpha/2)
        + (alpha/2) log|tau_Y| - (alpha'/2) log|tau'_Y|

    where primes denote the updated quantities and alpha is already
    restricted; an empty batch scores 0.  The posterior scale tau'_Y of
    every family is a block of the one matrix T' that ``posterior_update``
    builds: each term of T' is elementwise, so its Y-block is bit-identical
    to the same expression built from Y-sliced inputs.  The terms that
    depend only on |Y| are cached by size, and each family's value by its
    sorted tuple: one value per variable set, whichever order a caller
    lists it in, so set terms that cancel in exact arithmetic cancel in
    floats too.  ``fill`` computes a batch of families with one stacked
    factorisation per size; a call is a one-family fill.
    """

    def __init__(self, prior: NormalWishart, t: SuffStats):
        post = posterior_update(prior, t)
        self.prior = prior
        self.n_count = t.n
        self._nu1 = post.nu
        self._scale = post.tau
        self._memo: dict[tuple[int, ...], float] = {}
        self._by_size: dict[int, tuple[float, float, float]] = {}

    def _size_terms(self, size: int) -> tuple[float, float, float]:
        """(alpha, alpha', the four leading terms summed in formula order)."""
        hit = self._by_size.get(size)
        if hit is None:
            prior, n_count = self.prior, self.n_count
            alpha = prior.alpha - (prior.dim - size)
            alpha1 = alpha + n_count
            lead = (
                -0.5 * n_count * size * _LOG_PI
                + 0.5 * size * (np.log(prior.nu) - np.log(self._nu1))
                + _multigammaln(alpha1 / 2.0, size)
                - _multigammaln(alpha / 2.0, size)
            )
            hit = self._by_size[size] = (alpha, alpha1, lead)
        return hit

    def __call__(self, family: Sequence[int]) -> float:
        hit = self._memo.get(tuple(sorted(map(int, family))))
        if hit is None:
            hit = self.fill((family,))[0]
        return hit

    def fill(self, families: Iterable[Sequence[int]]) -> list[float]:
        """Memoise the value of every family not yet memoised, one stacked
        factorisation per family size; return every family's value.

        Per size, every tau_Y block and every tau'_Y block of the sorted
        families is gathered with one fancy index and each stack is
        factored in one call; each log-determinant is twice the sum of the
        logs of its own factor's diagonal, so each value equals the one its
        family gets when filled alone.  A variable outside [0, n) raises
        BadParentIndex.
        """
        keys = [tuple(sorted(map(int, family))) for family in families]
        todo: dict[int, dict[tuple[int, ...], None]] = {}
        for key in keys:
            if key in self._memo:
                continue
            if not key:
                raise EmptyFamily("a family must contain at least one variable")
            if len(set(key)) != len(key):
                raise DimensionMismatch(f"family has duplicates: {key}")
            if key[0] < 0 or key[-1] >= self.prior.dim:
                raise BadParentIndex(
                    f"family {key} has a variable outside [0, {self.prior.dim})"
                )
            todo.setdefault(len(key), {})[key] = None
        for size, batch in todo.items():
            if self.n_count <= _COUNT_FLOOR:
                self._memo.update(dict.fromkeys(batch, 0.0))
                continue
            alpha, alpha1, lead = self._size_terms(size)
            idx = np.array(list(batch))
            rows, cols = idx[:, :, None], idx[:, None, :]
            values = (
                lead
                + 0.5 * alpha * _stacked_logdets(self.prior.tau[rows, cols])
                - 0.5 * alpha1 * _stacked_logdets(self._scale[rows, cols])
            )
            self._memo.update(zip(batch, values.tolist()))
        return [self._memo[key] for key in keys]


def _stacked_logdets(blocks: np.ndarray) -> np.ndarray:
    """log|B| of every block of a (m, p, p) stack, from one stacked Cholesky.

    When a block is not positive definite the stack raises, and each block
    is factored on its own with the jitter retry, so a jittered block gets
    the same factor as when factored alone."""
    try:
        chols = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        factors = [_chol_with_jitter(b, SingularParentBlock) for b in blocks]
        chols = np.array(factors).reshape(blocks.shape)
    return 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)


def local_score(marginals: FamilyMarginals, child: int, parents: Sequence[int]) -> float:
    """Family score of one node, log p(d^{child u Pa}) - log p(d^{Pa}), read
    off the family marginals of one (prior, statistics) pair."""
    parents = tuple(int(p) for p in parents)
    if child in parents:
        raise ChildInParents(f"node {child} appears in its own parent set")
    top = marginals((child, *parents))
    if not parents:
        return top
    return top - marginals(parents)


def dirichlet_log_marglik(prior: DirichletPrior, counts: np.ndarray) -> float:
    """Marginal likelihood of (fractional) component counts under a Dirichlet."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (prior.k,):
        raise DimensionMismatch(f"{prior.k} components but {counts.shape[0]} counts")
    if np.any(counts < -1e-12):
        raise NegativeCount(f"counts must be nonnegative, got min {counts.min()!r}")
    counts = np.maximum(counts, 0.0)
    a = prior.alphas
    return float(
        _gammaln(a.sum())
        - _gammaln(a.sum() + counts.sum())
        + np.sum(_gammaln(a + counts) - _gammaln(a))
    )


def dirichlet_map(prior: DirichletPrior, counts: np.ndarray) -> np.ndarray:
    """MAP weights: mode (alpha + N - 1)/sum when proper, else posterior mean."""
    mode = prior.alphas + counts - 1.0
    if np.all(mode > 0):
        return mode / mode.sum()
    mean = prior.alphas + counts
    return mean / mean.sum()


def map_parameters(
    prior: NormalWishart, t: SuffStats, structure: DagStructure
) -> GaussianDag:
    """MAP regression parameters of ``structure`` given (expected) statistics.

    The posterior joint mode over (mean, covariance) is mean mu' with
    covariance tau'/(alpha'+n+2) (``map_joint``); ``GaussianDag.from_joint``
    reads each node's regression off that joint.  With this divisor the
    output exactly maximizes the expected complete-data log posterior,
    which also makes the EM that uses it monotone in observed log
    likelihood plus log prior.
    """
    return GaussianDag.from_joint(structure, *map_joint(prior, t))


def map_joint(prior: NormalWishart, t: SuffStats) -> tuple[np.ndarray, np.ndarray]:
    """Posterior joint mode (mean, covariance) used by map_parameters."""
    post = posterior_update(prior, t)
    return post.mu0.copy(), post.tau / (post.alpha + post.dim + 2.0)


def data_informed_prior(data: np.ndarray, ess: float, prior: NormalWishart) -> NormalWishart:
    """Normal-Wishart whose mode matches the data's MAP joint, at strength ess.

    ``data`` holds complete cases, and ``ess`` is positive.  Their MAP
    (mean, covariance) under ``prior`` is the mode of the returned
    Normal-Wishart, with nu = ess and alpha = ess + n + 1 (so the surplus
    alpha - (n+1) also equals ess).  Draws from it concentrate around the
    mode as ess grows.
    """
    count, n = data.shape
    mean, cov = map_joint(prior, SuffStats(float(count), data.sum(axis=0), data.T @ data))
    alpha = ess + n + 1.0
    tau = (alpha + n + 2.0) * cov
    tau = 0.5 * (tau + tau.T)
    if not np.isfinite(tau).all():
        raise NumericalOverflow("the initial prior scale overflows; rescale the data")
    return NormalWishart(ess, mean, alpha, tau)


def _wishart_draw(df: float, scale: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Wishart(df, scale) draw by Bartlett's decomposition.

    Lower-triangular A holds N(0, 1) entries below the diagonal and
    sqrt(chi-square(df - i)) on it; with C the lower Cholesky factor of
    the scale, the draw is (C A)(C A)^T.  The steps, their order and their
    calls on ``rng`` are those of ``scipy.stats.wishart.rvs``, so the
    generator state after a draw matches that routine's.  C is numpy's
    factor, where scipy takes ``scipy.linalg.cholesky``'s; the two differ
    in the last bits for some scales, and then so do the draws.
    """
    n = scale.shape[0]
    chol = np.linalg.cholesky(scale)
    below = rng.normal(size=n * (n - 1) // 2)
    diagonal = [rng.chisquare(df - i, size=1) ** 0.5 for i in range(n)]
    a = np.zeros((n, n))
    a[np.tril_indices(n, k=-1)] = below
    a[np.diag_indices(n)] = np.concatenate(diagonal)
    ca = np.dot(chol, a)
    return np.dot(ca, ca.T)


def sample_joint_parameters(
    prior: NormalWishart, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a (mean, covariance) pair from the Normal-Wishart.

    A scale tau that cannot be inverted, whose inverse cannot be factored,
    or that gives a precision draw that cannot be inverted raises
    NumericalOverflow: it comes from data too large in magnitude for the
    draw's arithmetic.
    """
    n = prior.dim
    try:
        scale = np.linalg.inv(prior.tau)
        scale = 0.5 * (scale + scale.T)
        w = _wishart_draw(prior.alpha, scale, rng)
        cov = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        raise NumericalOverflow(
            "the prior scale is out of range for a Wishart draw; rescale the data"
        ) from None
    cov = 0.5 * (cov + cov.T)
    chol = _chol_with_jitter(cov / prior.nu, NonPsdScatter)
    mean = prior.mu0 + chol @ rng.standard_normal(n)
    return mean, cov
