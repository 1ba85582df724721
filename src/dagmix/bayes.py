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
points that the package docstring lists.  Every node family comes from a
``DagStructure``, whose constructor checked it, so families are not
checked again here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    NonPsdScatter,
    NumericalOverflow,
    SingularParentBlock,
)
from .model import FamilyPlan, NoiseComponent, StackedParams, _chol_with_jitter
from .stats import COUNT_FLOOR, MixtureStats, SuffStats

_LOG_PI = float(np.log(np.pi))
_PSD_TOL = 1e-8

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
    """Mixture-weight hyperparameters; unchecked, since ``PriorSpec.dirichlet``
    builds them positive from validated values."""

    alphas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))

    @property
    def k(self) -> int:
        return self.alphas.shape[0]


def _posteriors(
    prior: NormalWishart, counts: np.ndarray, sums: np.ndarray, seconds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The posteriors of k stacked statistics under one prior, from their
    counts, (k,), sums, (k, n), and second moments, (k, n, n): nu', (k,),
    mu', (k, n), alpha', (k,), and T', (k, n, n).  Statistics with no cases
    keep the prior.

    The posterior scale is T' = tau + (s - r r^T / N)
    + (nu N / nu') (xbar - mu0)(xbar - mu0)^T, symmetrized once at the end;
    a centered scatter with an eigenvalue below -_PSD_TOL * max(1, its
    largest eigenvalue) raises NonPsdScatter.  The bound is relative because
    the rounding of s - r r^T / N grows with the data's units and offset.  A
    scatter that overflowed raises NumericalOverflow.  Every step is
    elementwise, or one LAPACK call per matrix (eigvalsh, for the PSD test
    alone), so each component's posterior has the bytes it gets alone.
    """
    live = counts > COUNT_FLOOR
    if not live.all():  # the prior, and the posteriors of the rest
        k = len(counts)
        stacks = (
            np.full(k, float(prior.nu)),
            np.tile(prior.mu0, (k, 1)),
            np.full(k, float(prior.alpha)),
            np.tile(prior.tau, (k, 1, 1)),
        )
        if live.any():
            posterior = _posteriors(prior, counts[live], sums[live], seconds[live])
            for stack, values in zip(stacks, posterior):
                stack[live] = values
        return stacks
    scatter = seconds - (sums[:, :, None] * sums[:, None, :]) / counts[:, None, None]
    # eigvalsh misreads non-finite input
    if not np.isfinite(scatter.reshape(len(counts), -1).sum(axis=1)).all():
        raise NumericalOverflow("the statistics overflow; rescale the data")
    eig = np.linalg.eigvalsh(scatter)
    bad = eig[:, 0] < -_PSD_TOL * np.maximum(1.0, eig[:, -1])
    if bad.any():
        raise NonPsdScatter(f"centered scatter has eigenvalue {eig[bad, 0][0]:.3e}")
    nu1 = prior.nu + counts
    diff = sums / counts[:, None] - prior.mu0
    shrink = (prior.nu * counts / nu1)[:, None, None]
    tau1 = prior.tau + scatter + shrink * (diff[:, :, None] * diff[:, None, :])
    mu1 = (prior.nu * prior.mu0 + sums) / nu1[:, None]
    return nu1, mu1, prior.alpha + counts, 0.5 * (tau1 + tau1.transpose(0, 2, 1))


def _as_stacks(t: SuffStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One triple as stacks of one."""
    return np.array([t.n], dtype=float), np.array([t.r], dtype=float), np.array([t.s], dtype=float)


def posterior_update(prior: NormalWishart, t: SuffStats) -> NormalWishart:
    """Absorb a statistics triple (``_posteriors`` with k = 1); the
    identity map when it is empty."""
    if t.n <= COUNT_FLOOR:
        return prior
    nu, mu, alpha, tau = _posteriors(prior, *_as_stacks(t))
    return NormalWishart(float(nu[0]), mu[0], float(alpha[0]), tau[0])


class FamilyMarginals:
    """Log marginal likelihoods of variable subsets Y for one (prior,
    statistics) pair.

    Closed form for the saturated Gaussian on Y under the Y-restricted
    prior, with ratios of prior and posterior normalizing constants:

        -(N |Y| / 2) log pi + (|Y|/2) log(nu/nu')
        + log Gamma_|Y|(alpha'/2) - log Gamma_|Y|(alpha/2)
        + (alpha/2) log|tau_Y| - (alpha'/2) log|tau'_Y|

    where primes denote the updated quantities and alpha is already
    restricted; an empty batch and the empty set score 0.  The posterior
    scale tau'_Y of every family is a block of the one matrix T' that
    ``posterior_update`` builds: each term of T' is elementwise, so its
    Y-block is bit-identical to the same expression built from Y-sliced
    inputs.  tau and T' are kept as one (2, n, n) stack.  The terms that
    depend only on |Y| are cached by size, and each family's value by its
    sorted tuple: one value per variable set, whichever order a caller
    lists it in, so set terms that cancel in exact arithmetic cancel in
    floats too.  ``fill`` is the one reader that computes: it computes a
    batch of families with one gather and one stacked factorisation of
    both scales' blocks per size, so each caller asks for all the families
    it needs in one call; ``memoised`` reads the memo alone.
    """

    def __init__(self, prior: NormalWishart, t: SuffStats):
        post = posterior_update(prior, t)
        self.prior = prior
        self.n_count = t.n
        self._nu1 = post.nu
        self._scales = np.stack([prior.tau, post.tau])
        self._memo: dict[tuple[int, ...], float] = {(): 0.0}
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

    def fill(self, families: Iterable[Sequence[int]]) -> list[float]:
        """Memoise the value of every family not yet memoised, one stacked
        factorisation per family size; return every family's value.

        Per size, every tau_Y block and every tau'_Y block of the sorted
        families is gathered from the scale stack with one fancy index and
        the blocks are factored in one call, which still runs LAPACK once
        per block; each log-determinant is twice the sum of the logs of its
        own factor's diagonal, so each value equals the one its family gets
        when filled alone.  Families come from the node families
        of checked structures, so each is a set of integers in [0, n); the
        empty set is memoised from the start.
        """
        memo = self._memo
        keys = [tuple(sorted(family)) for family in families]
        todo: dict[int, list[tuple[int, ...]]] = {}
        for key in dict.fromkeys(key for key in keys if key not in memo):
            todo.setdefault(len(key), []).append(key)
        for size, batch in todo.items():
            if self.n_count <= COUNT_FLOOR:
                memo.update(dict.fromkeys(batch, 0.0))
                continue
            alpha, alpha1, lead = self._size_terms(size)
            idx = np.array(batch)
            blocks = self._scales[:, idx[:, :, None], idx[:, None, :]]
            logdets = _stacked_logdets(blocks.reshape(-1, size, size)).reshape(2, -1)
            values = lead + 0.5 * alpha * logdets[0] - 0.5 * alpha1 * logdets[1]
            memo.update(zip(batch, values.tolist()))
        return list(map(memo.__getitem__, keys))

    def memoised(self, keys: Iterable[tuple[int, ...]]) -> list[float]:
        """The memoised value of each family, given as its sorted tuple;
        NaN for a family never filled."""
        get = self._memo.get
        return [get(key, np.nan) for key in keys]


def _stacked_logdets(blocks: np.ndarray) -> np.ndarray:
    """log|B| of every block of a (m, p, p) stack, from one stacked Cholesky
    with the jitter retry."""
    chols = _chol_with_jitter(blocks, SingularParentBlock)
    return 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)


def local_score(marginals: FamilyMarginals, child: int, parents: Sequence[int]) -> float:
    """Family score of one node, log p(d^{child u Pa}) - log p(d^{Pa}), read
    off the family marginals of one (prior, statistics) pair."""
    top, base = marginals.fill(node_families([(child, parents)]))
    return top - base


def node_families(nodes: Iterable[tuple[int, Sequence[int]]]) -> list[Sequence[int]]:
    """The two families that each (node, parents) pair's score reads,
    child plus parents then parents, pair after pair."""
    return [family for v, ps in nodes for family in ((v, *ps), ps)]


def dirichlet_log_marglik(prior: DirichletPrior, counts: np.ndarray) -> float:
    """Marginal likelihood of (fractional) component counts under a
    Dirichlet; the counts are sums of responsibilities, so nonnegative."""
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
    mix_stats: MixtureStats,
    plan: FamilyPlan,
    prior: NormalWishart,
    dirichlet: DirichletPrior,
    noise: NoiseComponent | None,
) -> StackedParams:
    """The M step: MAP weights and regression parameters of the structures
    in ``plan`` given (expected) statistics, written straight into the
    arrays the E sweep reads.

    Each component's posterior joint mode over (mean, covariance) is mean
    mu' with covariance tau'/(alpha'+n+2) (``_map_joints``), and
    ``FamilyPlan.read_off`` reads every node's regression off it.  With
    this divisor the output exactly maximizes the expected complete-data
    log posterior, which also makes the EM that uses it monotone in
    observed log likelihood plus log prior.  A component with no cases
    keeps the prior's mode.
    """
    weights = dirichlet_map(dirichlet, mix_stats.counts)
    means, covs = _map_joints(
        prior, mix_stats.gaussian_counts, mix_stats.sums, mix_stats.seconds
    )
    return StackedParams(weights, *plan.read_off(means, covs), noise)


def _map_joints(
    prior: NormalWishart, counts: np.ndarray, sums: np.ndarray, seconds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior joint modes (means, (k, n), covariances, (k, n, n)) of k
    stacked statistics under one prior."""
    nu, mu, alpha, tau = _posteriors(prior, counts, sums, seconds)
    return mu, tau / (alpha + prior.dim + 2.0)[:, None, None]


def map_joint(prior: NormalWishart, t: SuffStats) -> tuple[np.ndarray, np.ndarray]:
    """Posterior joint mode (mean, covariance) of one triple: ``_map_joints``
    with k = 1."""
    means, covs = _map_joints(prior, *_as_stacks(t))
    return means[0], covs[0]


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
