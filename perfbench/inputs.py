"""Benchmark-owned input generators.

Every input is drawn here with numpy from the workload seed; nothing calls
``dagmix.sample`` or the test fixtures, so a change to the program cannot
change what the benchmark feeds it.  A mixture is described with plain
arrays: per component a parent-set tuple, intercepts, per-node coefficient
vectors and conditional variances, plus the weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mixture:
    """Mixture of linear-Gaussian DAGs held as plain arrays."""

    weights: np.ndarray
    parents: tuple[tuple[tuple[int, ...], ...], ...]  # per component, per node
    intercepts: tuple[np.ndarray, ...]
    coefficients: tuple[tuple[np.ndarray, ...], ...]
    variances: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return len(self.parents[0])

    @property
    def k(self) -> int:
        return len(self.parents)


def gold_mixture() -> Mixture:
    """The gold standard documented by ``harness.default_gold_standard``.

    Three 5-variable components with uniform weights.  The first and third
    share the collider-plus-fanout 0 -> 2 <- 1, 2 -> 3, 2 -> 4; the second
    is the chain 0 -> 1 -> 2 -> 3 -> 4.  Every coefficient and conditional
    variance is one; intercepts are zero except in the third component,
    where each is five.
    """
    fanout = ((), (), (0, 1), (2,), (2,))
    chain = ((), (0,), (1,), (2,), (3,))
    structures = (fanout, chain, fanout)
    return Mixture(
        weights=np.full(3, 1.0 / 3.0),
        parents=structures,
        intercepts=(np.zeros(5), np.zeros(5), np.full(5, 5.0)),
        coefficients=tuple(
            tuple(np.ones(len(ps)) for ps in s) for s in structures
        ),
        variances=tuple(np.ones(5) for _ in structures),
    )


def random_sparse_mixture(rng: np.random.Generator, n: int, k: int) -> Mixture:
    """k random linear-Gaussian DAGs over n variables, two parents per node.

    Each component draws its own variable order; the second node in that
    order takes the first as its parent and every later node takes two
    distinct earlier nodes.  Fixing the in-degree fixes the arc count
    (2n - 3 per component), so the amount of structure to find does not
    vary with the seed.  Coefficient magnitudes lie in [0.3, 0.7] with
    random signs, which keeps marginal variances bounded along long
    chains; conditional variances lie in [0.5, 1.5].  Intercepts are
    standard normal: in 40 dimensions that still separates the components,
    and at scale 3 a seed-0 fit collapsed a component on 3 of 16 draws.
    """
    parents, intercepts, coefficients, variances = [], [], [], []
    for _ in range(k):
        order = rng.permutation(n)
        ps: list[tuple[int, ...]] = [()] * n
        coefs: list[np.ndarray] = [np.zeros(0)] * n
        for j in range(1, n):
            chosen = rng.choice(order[:j], size=min(j, 2), replace=False)
            node = int(order[j])
            ps[node] = tuple(sorted(int(p) for p in chosen))
            signs = rng.choice((-1.0, 1.0), size=len(ps[node]))
            coefs[node] = signs * rng.uniform(0.3, 0.7, size=len(ps[node]))
        parents.append(tuple(ps))
        coefficients.append(tuple(coefs))
        intercepts.append(rng.normal(0.0, 1.0, n))
        variances.append(rng.uniform(0.5, 1.5, n))
    return Mixture(
        weights=np.full(k, 1.0 / k),
        parents=tuple(parents),
        intercepts=tuple(intercepts),
        coefficients=tuple(coefficients),
        variances=tuple(variances),
    )


def _topological_order(parents: tuple[tuple[int, ...], ...]) -> list[int]:
    remaining = {i: set(ps) for i, ps in enumerate(parents)}
    order: list[int] = []
    while remaining:
        ready = sorted(i for i, ps in remaining.items() if not ps)
        if not ready:
            raise ValueError("parent sets contain a cycle")
        for i in ready:
            del remaining[i]
            order.append(i)
        for ps in remaining.values():
            ps.difference_update(ready)
    return order


def sample_component(
    mix: Mixture, c: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Ancestral sampling of ``count`` cases from component c."""
    out = np.empty((count, mix.n))
    shocks = rng.standard_normal((count, mix.n)) * np.sqrt(mix.variances[c])
    for i in _topological_order(mix.parents[c]):
        ps = list(mix.parents[c][i])
        center = np.full(count, mix.intercepts[c][i])
        if ps:
            center = center + out[:, ps] @ mix.coefficients[c][i]
        out[:, i] = center + shocks[:, i]
    return out


def sample_mixture(mix: Mixture, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` cases from the mixture, in random component order."""
    labels = rng.choice(mix.k, size=count, p=mix.weights)
    out = np.empty((count, mix.n))
    for c in range(mix.k):
        rows = labels == c
        out[rows] = sample_component(mix, c, int(rows.sum()), rng)
    return out


def stratified_nested(
    mix: Mixture, sizes: tuple[int, ...], per_component: int, rng: np.random.Generator
) -> dict[int, np.ndarray]:
    """Nested subsamples of a stratified draw, as the recovery harness makes.

    ``per_component`` cases come from every component; each size takes a
    prefix of one shuffle of that pool, so each set contains the smaller.
    """
    pool = np.vstack(
        [sample_component(mix, c, per_component, rng) for c in range(mix.k)]
    )
    pool = pool[rng.permutation(pool.shape[0])]
    return {s: pool[:s] for s in sorted(sizes)}


def mcar_blank(data: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Copy of ``data`` with cells blanked (NaN) completely at random.

    A row drawn fully blank gets one random cell back, so every row keeps
    at least one observed value.
    """
    blank = rng.random(data.shape) < rate
    full_rows = np.flatnonzero(blank.all(axis=1))
    blank[full_rows, rng.integers(0, data.shape[1], size=full_rows.size)] = False
    out = data.copy()
    out[blank] = np.nan
    return out


def joint_moments(mix: Mixture, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of component c: x = m + Bx + e."""
    n = mix.n
    b = np.zeros((n, n))
    for i, ps in enumerate(mix.parents[c]):
        b[i, list(ps)] = mix.coefficients[c][i]
    inv = np.linalg.inv(np.eye(n) - b)
    cov = inv @ np.diag(mix.variances[c]) @ inv.T
    return inv @ mix.intercepts[c], 0.5 * (cov + cov.T)


def mean_log_density(mix: Mixture, data: np.ndarray) -> float:
    """Mean per-case log density of complete ``data`` under the mixture."""
    moments = [joint_moments(mix, c) for c in range(mix.k)]
    return _mixture_mean_log_density(mix.weights, moments, data)


def single_gaussian_log_density(train: np.ndarray, test: np.ndarray) -> float:
    """Mean log density of complete ``test`` under one Gaussian fitted to the
    complete rows of ``train`` by their sample mean and covariance."""
    rows = train[~np.isnan(train).any(axis=1)]
    moments = [(rows.mean(axis=0), np.atleast_2d(np.cov(rows, rowvar=False)))]
    return _mixture_mean_log_density(np.ones(1), moments, test)


def _mixture_mean_log_density(weights, moments, data: np.ndarray) -> float:
    per_comp = np.empty((data.shape[0], len(moments)))
    for c, (mean, cov) in enumerate(moments):
        chol = np.linalg.cholesky(cov)
        z = np.linalg.solve(chol, (data - mean).T)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        with np.errstate(divide="ignore"):
            logw = np.log(weights[c])
        per_comp[:, c] = logw - 0.5 * (
            data.shape[1] * np.log(2.0 * np.pi) + logdet + np.sum(z * z, axis=0)
        )
    top = per_comp.max(axis=1)
    total = top + np.log(np.sum(np.exp(per_comp - top[:, None]), axis=1))
    return float(np.mean(total))
