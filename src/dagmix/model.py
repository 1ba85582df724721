"""Mixture-of-DAG model types, their regression form, the regression
read-off of a joint Gaussian, and sampling.

A component is a linear-Gaussian DAG: each node is a linear regression on
its parents with Gaussian error.  A mixture combines several such
components (optionally plus a fixed multivariate-uniform noise component,
always at weight index 0) with a weight vector over components.

All types are immutable after construction; sampling is safe to call
concurrently on shared models.  Densities are evaluated in one place, the
E sweep of ``stats``, from each component's ``regression_form``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import (
    BadParentIndex,
    CycleDetected,
    DimensionMismatch,
    SingularParentBlock,
)
from .rng import as_generator

_WEIGHT_SUM_TOL = 1e-12
_JITTER = 1e-9
_VARIANCE_FLOOR = 1e-12


def _chol_with_jitter(mat: np.ndarray, error: type[Exception]) -> np.ndarray:
    """Cholesky factor with a single 1e-9 diagonal-jitter retry."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(mat + _JITTER * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            raise error(f"block of side {mat.shape[0]} is not positive definite")


def _chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = rhs given the Cholesky factor L."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def _check_number(name: str, value, kind: type) -> None:
    """Raise DimensionMismatch unless ``value`` is a finite ``kind`` number
    other than a bool."""
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        raise DimensionMismatch(f"{name} {value!r} is not a finite {kind.__name__} number")


def _check_count(name: str, value) -> None:
    """Raise DimensionMismatch unless ``value`` is a nonnegative integer
    other than a bool."""
    _check_number(name, value, numbers.Integral)
    if value < 0:
        raise DimensionMismatch(f"{name} {value!r} is negative")


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DagStructure:
    """Acyclic parent-set list over ``n`` variables.

    Construction checks that there is one parent list per node and that
    every parent is an integer in [0, n); ``validate`` checks the rest."""

    n: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        parents = []
        try:
            for ps in self.parents:
                ps = tuple(map(operator.index, ps))
                for p in ps:
                    if not 0 <= p < n:
                        raise BadParentIndex(
                            f"node {len(parents)} has parent {p} outside [0, {n})"
                        )
                parents.append(ps)
        except TypeError:
            raise BadParentIndex(f"parents {self.parents!r} are not integer lists") from None
        if len(parents) != n:
            raise BadParentIndex(f"expected {n} parent sets, got {len(parents)}")
        object.__setattr__(self, "parents", tuple(parents))

    def validate(self) -> None:
        """Raise unless the structure is a well-formed DAG."""
        for i, ps in enumerate(self.parents):
            if i in ps:
                raise CycleDetected([i, i])
            if len(set(ps)) != len(ps):
                raise BadParentIndex(f"node {i} has duplicate parents {ps}")
        self.topological_order  # noqa: B018 -- forces cycle detection

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """Topological ordering (parents before children); cached.

        Raises CycleDetected listing one cycle if no ordering exists.
        """
        indegree = [len(ps) for ps in self.parents]
        children: list[list[int]] = [[] for _ in range(self.n)]
        for i, ps in enumerate(self.parents):
            for p in ps:
                children[p].append(i)
        ready = [i for i in range(self.n) if indegree[i] == 0]
        order: list[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for ch in children[node]:
                indegree[ch] -= 1
                if indegree[ch] == 0:
                    ready.append(ch)
        if len(order) < self.n:
            raise CycleDetected(self._find_cycle())
        return tuple(order)

    def _find_cycle(self) -> list[int]:
        # DFS over parent arcs; the first back-arc closes a cycle.
        color = [0] * self.n  # 0 unvisited, 1 on stack, 2 done
        trail: list[int] = []

        def visit(u: int) -> list[int] | None:
            color[u] = 1
            trail.append(u)
            for p in self.parents[u]:
                if color[p] == 1:
                    return trail[trail.index(p):] + [p]
                if color[p] == 0:
                    found = visit(p)
                    if found:
                        return found
            trail.pop()
            color[u] = 2
            return None

        for start in range(self.n):
            if color[start] == 0:
                cycle = visit(start)
                if cycle:
                    return cycle
        raise AssertionError("no cycle found in a cyclic graph")

    def arcs(self) -> Iterator[tuple[int, int]]:
        for child, ps in enumerate(self.parents):
            for parent in ps:
                yield parent, child

    def arc_count(self) -> int:
        return sum(len(ps) for ps in self.parents)


def empty_structure(n: int) -> DagStructure:
    _check_count("n", n)
    return DagStructure(n, tuple(() for _ in range(n)))


def complete_structure(n: int) -> DagStructure:
    """Saturated DAG in natural variable order (node i's parents are 0..i-1)."""
    _check_count("n", n)
    return DagStructure(n, tuple(tuple(range(i)) for i in range(n)))


@dataclass(frozen=True)
class GaussianDag:
    """DagStructure plus per-node linear-regression parameters.

    Node i has density N(intercepts[i] + coefficients[i] . x[parents],
    variances[i]); every parameter must be finite, variances positive, and
    coefficient counts must match the parent counts.
    """

    structure: DagStructure
    intercepts: np.ndarray
    coefficients: tuple[np.ndarray, ...]
    variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intercepts", _frozen_array(self.intercepts))
        object.__setattr__(self, "variances", _frozen_array(self.variances))
        object.__setattr__(
            self, "coefficients", tuple(_frozen_array(c) for c in self.coefficients)
        )
        n = self.structure.n
        if self.intercepts.shape != (n,) or self.variances.shape != (n,):
            raise DimensionMismatch("parameter vectors must have length n")
        if [c.shape for c in self.coefficients] != [(len(ps),) for ps in self.structure.parents]:
            raise DimensionMismatch("each node needs one coefficient per parent")
        values = np.concatenate([self.intercepts, self.variances, *self.coefficients])
        if not np.isfinite(values).all():
            raise DimensionMismatch("parameters must be finite")
        if np.any(self.variances <= 0):
            raise DimensionMismatch("conditional variances must be positive")

    @property
    def n(self) -> int:
        return self.structure.n

    @cached_property
    def regression_form(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(A, c, log|V|) with A = V^-1/2 (I - B), c = V^-1/2 m and V =
        diag(variances), where B[i, j] is the coefficient of parent j in
        node i's regression.

        z = A x - c holds the standardised residual of every node's
        regression at x, so log p(x) = -(n log 2pi + log|V| + |z|^2) / 2 with
        no joint covariance and no factorisation; A^T A is the joint
        precision (Heckerman & Geiger 1995).
        """
        b = np.zeros((self.n, self.n))
        for i, ps in enumerate(self.structure.parents):
            b[i, list(ps)] = self.coefficients[i]
        scale = 1.0 / np.sqrt(self.variances)
        a = (np.eye(self.n) - b) * scale[:, None]
        c = self.intercepts * scale
        a.setflags(write=False)
        c.setflags(write=False)
        return a, c, float(np.sum(np.log(self.variances)))

    @classmethod
    def from_joint(
        cls, structure: DagStructure, mean: np.ndarray, cov: np.ndarray
    ) -> "GaussianDag":
        """Read off the regression parameterization of ``structure`` whose
        implied joint matches (mean, cov) on every node family; a parent
        block that is not positive definite raises SingularParentBlock.

        The M step calls this on every step, so it is not a checked entry
        point: the structure must be valid and the joint of its size."""
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        intercepts = np.empty(structure.n)
        variances = np.empty(structure.n)
        coefficients = []
        for i, ps in enumerate(structure.parents):
            if ps:
                pa = list(ps)
                chol = _chol_with_jitter(cov[np.ix_(pa, pa)], SingularParentBlock)
                b = _chol_solve(chol, cov[pa, i])
                intercepts[i] = mean[i] - b @ mean[pa]
                variances[i] = max(cov[i, i] - cov[i, pa] @ b, _VARIANCE_FLOOR)
                coefficients.append(b)
            else:
                intercepts[i] = mean[i]
                variances[i] = max(cov[i, i], _VARIANCE_FLOOR)
                coefficients.append(np.zeros(0))
        return cls(structure, intercepts, tuple(coefficients), variances)


@dataclass(frozen=True)
class NoiseComponent:
    """Fixed multivariate-uniform box; parameters are never learned."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen_array(self.lower))
        object.__setattr__(self, "upper", _frozen_array(self.upper))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise DimensionMismatch("noise bounds must be two equal-length vectors")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise DimensionMismatch("noise bounds must be finite")
        if np.any(self.upper <= self.lower):
            raise DimensionMismatch("noise bounds require upper > lower per variable")

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @property
    def log_volume(self) -> float:
        return float(np.sum(np.log(self.upper - self.lower)))


@dataclass(frozen=True)
class MdagModel:
    """Mixture of Gaussian DAG components with optional uniform noise.

    ``weights`` covers every component; when noise is present it owns
    weight index 0 and ``components[j]`` has weight ``weights[j + 1]``.
    """

    weights: np.ndarray
    components: tuple[GaussianDag, ...]
    noise: NoiseComponent | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        object.__setattr__(self, "components", tuple(self.components))
        expected = len(self.components) + (1 if self.noise is not None else 0)
        if self.weights.shape != (expected,):
            raise DimensionMismatch(
                f"{expected} components but weights of shape {self.weights.shape}"
            )
        if not np.all(self.weights >= 0):  # NaN fails too
            raise DimensionMismatch("weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise DimensionMismatch(f"weights sum to {self.weights.sum()!r}, not 1")
        ns = {g.n for g in self.components}
        if self.noise is not None:
            ns.add(self.noise.n)
        if len(ns) > 1:
            raise DimensionMismatch(f"components disagree on n: {sorted(ns)}")

    @property
    def n(self) -> int:
        if self.components:
            return self.components[0].n
        assert self.noise is not None
        return self.noise.n

    @property
    def has_noise(self) -> bool:
        return self.noise is not None

    @property
    def k(self) -> int:
        """Number of Gaussian components (the noise component not included)."""
        return len(self.components)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def gaussian_weights(self) -> np.ndarray:
        return self.weights[1:] if self.has_noise else self.weights


def sample(
    model: MdagModel, count: int, seed_or_rng: int | np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Ancestral sampling of ``count`` cases; returns (data, component labels).

    Labels index the weight vector (0 is noise when present).  Deterministic
    given a seed; a caller-owned Generator may be passed instead.
    """
    _check_count("count", count)
    if not isinstance(seed_or_rng, np.random.Generator):
        _check_count("seed", seed_or_rng)
    rng = as_generator(seed_or_rng)
    data = np.empty((count, model.n))
    labels = rng.choice(model.n_components, size=count, p=model.weights)
    offset = 1 if model.has_noise else 0
    if model.has_noise:
        rows = labels == 0
        m = int(rows.sum())
        if m:
            assert model.noise is not None
            data[rows] = rng.uniform(
                model.noise.lower, model.noise.upper, size=(m, model.n)
            )
    for j, g in enumerate(model.components):
        rows = labels == j + offset
        m = int(rows.sum())
        if not m:
            continue
        shocks = rng.standard_normal((m, model.n)) * np.sqrt(g.variances)
        block = np.empty((m, model.n))
        for i in g.structure.topological_order:
            ps = g.structure.parents[i]
            center = np.full(m, g.intercepts[i])
            if ps:
                center = center + block[:, list(ps)] @ g.coefficients[i]
            block[:, i] = center + shocks[:, i]
        data[rows] = block
    return data, labels
