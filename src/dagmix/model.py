"""Mixture-of-DAG model types, their regression form, the regression
read-off of a joint Gaussian, and sampling.

A component is a linear-Gaussian DAG: each node is a linear regression on
its parents with Gaussian error.  A mixture combines several such
components (optionally plus a fixed multivariate-uniform noise component,
always at weight index 0) with a weight vector over components.

All types are immutable after construction; sampling is safe to call
concurrently on shared models.  Densities are evaluated in one place, the
E sweep of ``stats``, from a ``StackedParams``: the mixture's weights and
noise component with every Gaussian component's regression form stacked.
The M step writes one directly, and ``MdagModel.stacked`` builds one from
a model.  A ``FamilyPlan`` lists every node family of a structure set as
gather indices, so the regressions of every component are read off their
joint Gaussians in one stacked pass per parent count.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
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

LOG_2PI = float(np.log(2.0 * np.pi))
_WEIGHT_SUM_TOL = 1e-12
_JITTER = 1e-9
_VARIANCE_FLOOR = 1e-12


def _chol_with_jitter(mat: np.ndarray, error: type[Exception]) -> np.ndarray:
    """Cholesky factor of a matrix, or of each matrix of a (m, p, p) stack,
    with a single 1e-9 diagonal-jitter retry per matrix: a retried matrix
    gets the factor it gets alone."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        if mat.ndim == 3:
            return np.array([_chol_with_jitter(m, error) for m in mat]).reshape(mat.shape)
        try:
            return np.linalg.cholesky(mat + _JITTER * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            raise error(f"block of side {mat.shape[0]} is not positive definite")


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


def _frozen_array(name: str, values) -> np.ndarray:
    """A read-only float copy of ``values``; DimensionMismatch when they are
    not an array of numbers."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{name} {values!r} are not an array of numbers") from None
    arr.setflags(write=False)
    return arr


def _check_type(name: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise DimensionMismatch(f"{name} {value!r} is not a {kind.__name__}")


def _topological_order(parents: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """An order with parents before children, by Kahn's algorithm.

    Raises CycleDetected listing one cycle, as [a, ..., a] along parent
    arcs, when no such order exists; a self-loop lists [i, i]."""
    indegree = [len(ps) for ps in parents]
    children: list[list[int]] = [[] for _ in parents]
    for i, ps in enumerate(parents):
        for p in ps:
            children[p].append(i)
    ready = [i for i, d in enumerate(indegree) if d == 0]
    order: list[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for ch in children[node]:
            indegree[ch] -= 1
            if indegree[ch] == 0:
                ready.append(ch)
    if len(order) == len(parents):
        return tuple(order)
    # every node left has a parent left too: follow such parents until one repeats
    left = set(range(len(parents))).difference(order)
    node, trail = min(left), {}
    while node not in trail:
        trail[node] = len(trail)
        node = next(p for p in parents[node] if p in left)
    raise CycleDetected(list(trail)[trail[node]:] + [node])


@dataclass(frozen=True)
class DagStructure:
    """Acyclic parent-set list over ``n`` variables.

    Construction is the one place a structure is checked: one parent list
    per node, every parent an integer in [0, n), no duplicate parent and no
    cycle (a self-loop is one).  So every instance is a DAG, and its
    ``topological_order`` (parents before children) is computed here."""

    n: int
    parents: tuple[tuple[int, ...], ...]
    topological_order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        _check_count("n", n)
        parents = []
        try:
            for ps in self.parents:
                ps = tuple(map(operator.index, ps))
                for p in ps:
                    if not 0 <= p < n:
                        raise BadParentIndex(
                            f"node {len(parents)} has parent {p} outside [0, {n})"
                        )
                if len(set(ps)) != len(ps):
                    raise BadParentIndex(f"node {len(parents)} has duplicate parents {ps}")
                parents.append(ps)
        except TypeError:
            raise BadParentIndex(f"parents {self.parents!r} are not integer lists") from None
        if len(parents) != n:
            raise BadParentIndex(f"expected {n} parent sets, got {len(parents)}")
        object.__setattr__(self, "parents", tuple(parents))
        object.__setattr__(self, "topological_order", _topological_order(self.parents))

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
        _check_type("structure", self.structure, DagStructure)
        object.__setattr__(self, "intercepts", _frozen_array("intercepts", self.intercepts))
        object.__setattr__(self, "variances", _frozen_array("variances", self.variances))
        try:
            coefficients = tuple(_frozen_array("coefficients", c) for c in self.coefficients)
        except TypeError:
            raise DimensionMismatch(f"coefficients {self.coefficients!r} are not a list") from None
        object.__setattr__(self, "coefficients", coefficients)
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

    @classmethod
    def from_joint(
        cls, structure: DagStructure, mean: np.ndarray, cov: np.ndarray
    ) -> "GaussianDag":
        """Read off the regression parameterization of ``structure`` whose
        implied joint matches (mean, cov) on every node family; a parent
        block that is not positive definite raises SingularParentBlock.

        ``FamilyPlan.read_off`` with k = 1.  The joint must be of the
        structure's size."""
        plan = FamilyPlan((structure,))
        intercepts, variances, b = plan.read_off(np.asarray(mean)[None], np.asarray(cov)[None])
        return _component(structure, intercepts[0], variances[0], b[0])


def _component(
    structure: DagStructure, intercepts: np.ndarray, variances: np.ndarray, b: np.ndarray
) -> GaussianDag:
    """The component whose node i has coefficients b[i, parents of i]."""
    coefficients = tuple(b[i, list(ps)] for i, ps in enumerate(structure.parents))
    return GaussianDag(structure, intercepts, coefficients, variances)


def _stacked_components(
    components: tuple[GaussianDag, ...], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The intercepts, (k, n), variances, (k, n), and coefficient matrices
    B, (k, n, n), of k components over n variables."""
    b = np.zeros((len(components), n, n))
    for j, g in enumerate(components):
        for i, ps in enumerate(g.structure.parents):
            b[j, i, list(ps)] = g.coefficients[i]
    intercepts = np.array([g.intercepts for g in components]).reshape(-1, n)
    variances = np.array([g.variances for g in components]).reshape(-1, n)
    return intercepts, variances, b


def _regression_arrays(
    intercepts: np.ndarray, variances: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The regression forms of k components, stacked: A = V^-1/2 (I - B),
    (k, n, n), c = V^-1/2 m, (k, n), and log|V|, (k,).  The one routine
    that builds a regression form: every step is elementwise or a sum along
    one row, so each component's arrays have the bytes they get alone."""
    n = intercepts.shape[1]
    scale = 1.0 / np.sqrt(variances)
    a = (np.eye(n) - b) * scale[:, :, None]
    return a, intercepts * scale, np.sum(np.log(variances), axis=1)


@dataclass(frozen=True, eq=False)
class StackedParams:
    """What the E sweep reads of a mixture: its weights and noise component,
    and its k Gaussian components' regressions stacked.

    ``intercepts`` and ``variances`` are (k, n); ``b[j, i]`` holds the
    coefficients of node i's regression in component j, 0 off its parents.
    Built from these: ``a``, each component's A, (k, n, n); ``c``, each
    component's c, (k, n); ``w``, (n + 1, k n), each component's A^T over
    -c^T side by side, so a case x with a 1 appended has the residuals
    z = A x - c of every component in [x, 1] W; and ``const``,
    n log 2pi + log|V|, (k,).  Unchecked: the M step checks what it
    writes, and ``MdagModel.stacked`` reads a checked model.
    """

    weights: np.ndarray
    intercepts: np.ndarray
    variances: np.ndarray
    b: np.ndarray
    noise: NoiseComponent | None
    a: np.ndarray = field(init=False, repr=False)
    c: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    const: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k, n = self.intercepts.shape
        a, c, log_var = _regression_arrays(self.intercepts, self.variances, self.b)
        w = np.concatenate([a.transpose(0, 2, 1), -c[:, None, :]], axis=1)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "w", w.transpose(1, 0, 2).reshape(n + 1, k * n))
        object.__setattr__(self, "const", n * LOG_2PI + log_var)

    @property
    def n(self) -> int:
        return self.intercepts.shape[1]

    @property
    def k(self) -> int:
        return self.intercepts.shape[0]

    @property
    def has_noise(self) -> bool:
        return self.noise is not None

    @property
    def n_components(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class FamilyPlan:
    """Every node family of a structure set, grouped by parent count.

    ``groups`` holds one (component, node, parents) triple of index arrays
    per parent count p, in increasing p: the component and the node of
    each family, (m,), and its parents, (m, p).  A plan depends on the
    structures alone, so a burst of EM steps at fixed structures builds it
    once."""

    structures: tuple[DagStructure, ...]
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False
    )

    def __post_init__(self):
        by_count: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        for j, structure in enumerate(self.structures):
            for i, ps in enumerate(structure.parents):
                by_count.setdefault(len(ps), []).append((j, i, ps))
        groups = []
        for p, families in sorted(by_count.items()):
            comp, node, parents = zip(*families)
            groups.append((
                np.array(comp),
                np.array(node),
                np.array(parents, dtype=np.intp).reshape(len(families), p),
            ))
        object.__setattr__(self, "groups", tuple(groups))

    def read_off(
        self, means: np.ndarray, covs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The intercepts, variances and coefficient matrices B of the
        structures whose implied joints match (means[j], covs[j]), (k, n)
        and (k, n, n), on every node family.

        Node i with parents P gets coefficients b = C_PP^-1 C_Pi, intercept
        m_i - b . m_P and variance C_ii - C_iP b, floored at
        _VARIANCE_FLOOR.  Per parent count, every C_PP is gathered by one
        fancy index and factored by one stacked Cholesky with the jitter
        retry, b comes from two stacked solves and each dot product from a
        (1, p) @ (p, 1) matmul: LAPACK and BLAS run once per matrix, so
        each family gets the bytes it gets alone.  A C_PP past the jitter
        raises SingularParentBlock, and a non-finite result
        DimensionMismatch."""
        k, n = means.shape
        intercepts = np.empty((k, n))
        variances = np.empty((k, n))
        b = np.zeros((k, n, n))
        for comp, node, parents in self.groups:
            var = covs[comp, node, node]
            if parents.shape[1]:
                rows, cols = comp[:, None], node[:, None]
                chol = _chol_with_jitter(
                    covs[comp[:, None, None], parents[:, :, None], parents[:, None, :]],
                    SingularParentBlock,
                )
                coef = np.linalg.solve(
                    chol.transpose(0, 2, 1),
                    np.linalg.solve(chol, covs[rows, parents, cols][:, :, None]),
                )
                coef_t = coef.transpose(0, 2, 1)
                intercepts[comp, node] = (
                    means[comp, node] - (coef_t @ means[rows, parents][:, :, None])[:, 0, 0]
                )
                var = var - (covs[rows, cols, parents][:, None, :] @ coef)[:, 0, 0]
                b[rows, cols, parents] = coef[:, :, 0]
            else:
                intercepts[comp, node] = means[comp, node]
            variances[comp, node] = np.maximum(var, _VARIANCE_FLOOR)
        if not (np.isfinite(intercepts).all() and np.isfinite(b).all()
                and np.isfinite(variances).all()):
            raise DimensionMismatch("parameters must be finite")
        return intercepts, variances, b

    def model(self, params: StackedParams) -> "MdagModel":
        """The mixture whose components have these structures and the
        parameters of ``params``, built through the public constructors.
        It keeps ``params`` and this plan, so its next sweep and burst do
        not rebuild them."""
        components = tuple(
            _component(s, params.intercepts[j], params.variances[j], params.b[j])
            for j, s in enumerate(self.structures)
        )
        model = MdagModel(params.weights, components, params.noise)
        vars(model).update(stacked=params, plan=self)
        return model


@dataclass(frozen=True)
class NoiseComponent:
    """Fixed multivariate-uniform box; parameters are never learned."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen_array("lower", self.lower))
        object.__setattr__(self, "upper", _frozen_array("upper", self.upper))
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
    """Mixture of Gaussian DAG components with optional uniform noise, over
    n >= 1 variables.

    ``weights`` covers every component; when noise is present it owns
    weight index 0 and ``components[j]`` has weight ``weights[j + 1]``.
    """

    weights: np.ndarray
    components: tuple[GaussianDag, ...]
    noise: NoiseComponent | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array("weights", self.weights))
        try:
            object.__setattr__(self, "components", tuple(self.components))
        except TypeError:
            raise DimensionMismatch(f"components {self.components!r} are not a list") from None
        for g in self.components:
            _check_type("component", g, GaussianDag)
        if self.noise is not None:
            _check_type("noise", self.noise, NoiseComponent)
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
        if ns == {0}:
            raise DimensionMismatch("a model needs at least one variable")

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

    @cached_property
    def stacked(self) -> StackedParams:
        """The arrays the E sweep reads of this model."""
        return StackedParams(
            self.weights, *_stacked_components(self.components, self.n), self.noise
        )

    @cached_property
    def plan(self) -> FamilyPlan:
        """The node families of this model's structures, for its M steps."""
        return FamilyPlan(tuple(g.structure for g in self.components))


def sample(
    model: MdagModel, count: int, seed_or_rng: int | np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Ancestral sampling of ``count`` cases; returns (data, component labels).

    Labels index the weight vector (0 is noise when present).  Deterministic
    given a seed; a caller-owned Generator may be passed instead.
    """
    _check_type("model", model, MdagModel)
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
