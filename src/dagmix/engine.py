"""EM steps, schedules, initialization, and the interleaved fitting loop.

One outer iteration runs a burst of EM at fixed structures, computes the
expected complete-data statistics once, searches each component's
structure over those statistics, and re-estimates parameters from the very
same statistics.  The loop stops when structures stop changing across two
consecutive search phases (after forcing one EM-to-convergence pass) or
when the approximate marginal likelihood stops increasing, and the
best-scoring iterate is returned.
"""

from __future__ import annotations

import numbers
import re
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import stats
from .bayes import (
    DirichletPrior,
    FamilyMarginals,
    NormalWishart,
    data_informed_prior,
    family_marginals,
    map_parameters,
    sample_joint_parameters,
)
from .errors import (
    BadSchedule,
    DimensionMismatch,
    InsufficientData,
    NonPsdScatter,
)
from .model import (
    DagStructure,
    FamilyPlan,
    GaussianDag,
    MdagModel,
    NoiseComponent,
    StackedParams,
    _check_number,
    _chol_with_jitter,
    complete_structure,
    empty_structure,
)
from .rng import check_seed, stream
from .scoring import _checked_data, complete_model_score, completed_loglik, observed_loglik
from .search import search_all_components

FAMILIES = ("mdag", "mdiag", "mfull")

_COLLAPSE_THRESHOLD = 1e-10
_COLLAPSE_STEPS = 3


def _check_numbers(obj, kind: type, *names: str, optional: bool = False) -> None:
    """``_check_number`` on each named field of ``obj``; with ``optional`` a
    field may also hold None."""
    for name in names:
        value = getattr(obj, name)
        if not (optional and value is None):
            _check_number(name, value, kind)


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a finite integer or float array; DimensionMismatch otherwise."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} {value!r} is not an array of finite numbers")
    return arr


@dataclass(frozen=True)
class Schedule:
    """How EM bursts, statistics computation, and search interleave.

    ``em_steps`` is the positive number of EM steps per outer iteration, or
    None to run EM to convergence each time.  ``outer_repeat`` keeps
    iterating the whole phase until a termination rule fires.
    """

    em_steps: int | None = 10
    outer_repeat: bool = True

    def __post_init__(self):
        steps = self.em_steps
        if steps is not None and (
            isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1
        ):
            raise BadSchedule(f"em_steps {steps!r} is not a positive integer or None")

    _GRAMMAR = re.compile(
        r"^\(\(EM\)(?:\^(?P<count>\d+)|\^?\*)\s*Ec\s*S\*\s*M\)(?P<outer>\*)?$"
    )

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        if not isinstance(text, str):
            raise BadSchedule(f"schedule {text!r} is not a string")
        match = cls._GRAMMAR.match(text.strip())
        if not match:
            raise BadSchedule(
                f"schedule {text!r} not of the form ((EM)^k Ec S* M)* "
                "with k a positive integer or *"
            )
        count = match.group("count")
        return cls(
            em_steps=int(count) if count is not None else None,
            outer_repeat=match.group("outer") is not None,
        )

    def __str__(self) -> str:
        burst = "*" if self.em_steps is None else f"^{self.em_steps}"
        return f"((EM){burst} Ec S* M){'*' if self.outer_repeat else ''}"


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameter recipe, bound to concrete (n, k) at fit time.

    ``alpha`` defaults to nu + n; scalar ``mu0``/``tau`` broadcast to a
    constant vector and a scaled identity.  Mixture-weight hyperparameters
    put ``noise_alpha`` on the noise component and split the remaining
    mass equally over the Gaussian components (total mass 1 without noise).
    """

    nu: float = 2.0
    mu0: float | Sequence[float] = 0.0
    alpha: float | None = None
    tau: float | Sequence[Sequence[float]] = 1.0
    noise_alpha: float = 0.01

    def __post_init__(self):
        _check_numbers(self, numbers.Real, "nu", "noise_alpha")
        _check_numbers(self, numbers.Real, "alpha", optional=True)
        _real_array("mu0", self.mu0)
        _real_array("tau", self.tau)

    def normal_wishart(self, n: int) -> NormalWishart:
        """The Normal-Wishart over n variables.  User hyperparameters enter
        here, so this is where they are checked: mu0 of length n, tau n x n,
        symmetric and positive definite, nu > 0 and alpha > n - 1."""
        mu0 = np.asarray(self.mu0, dtype=float)
        if mu0.ndim == 0:
            mu0 = np.full(n, float(mu0))
        tau = np.asarray(self.tau, dtype=float)
        if tau.ndim == 0:
            tau = float(tau) * np.eye(n)
        alpha = self.alpha if self.alpha is not None else self.nu + n
        if mu0.shape != (n,) or tau.shape != (n, n):
            raise DimensionMismatch(f"mu0 must have length {n} and tau side {n}")
        if self.nu <= 0:
            raise DimensionMismatch("nu must be positive")
        if alpha <= n - 1:
            raise DimensionMismatch(f"alpha must exceed n - 1 = {n - 1}")
        if not np.allclose(tau, tau.T, atol=1e-10):
            raise DimensionMismatch("tau must be symmetric")
        _chol_with_jitter(tau, NonPsdScatter)
        return NormalWishart(self.nu, mu0, alpha, tau)

    def dirichlet(self, k: int, has_noise: bool) -> DirichletPrior:
        """The Dirichlet over k Gaussian weights, after the noise weight when
        ``has_noise``.  ``noise_alpha`` enters only then, so it is checked
        here: it must lie in (0, 1) to leave the Gaussians positive mass."""
        if has_noise:
            if not 0 < self.noise_alpha < 1:
                raise DimensionMismatch(
                    f"noise_alpha {self.noise_alpha!r} must lie in (0, 1)"
                )
            gauss_mass = 1.0 - self.noise_alpha
            return DirichletPrior(
                np.array([self.noise_alpha] + [gauss_mass / k] * k)
            )
        return DirichletPrior(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class FitConfig:
    k: int = 1
    noise_bounds: tuple[Sequence[float], Sequence[float]] | None = None
    prior: PriorSpec = PriorSpec()
    ess: float = 200.0
    convergence_ratio: float = 1e-6
    seed: int = 0
    schedule: Schedule = Schedule()
    max_outer: int = 200
    max_em_steps: int = 500
    family: str = "mdag"
    max_parents: int | None = None

    def __post_init__(self):
        _check_numbers(self, numbers.Integral, "k", "max_outer", "max_em_steps", "seed")
        _check_numbers(self, numbers.Integral, "max_parents", optional=True)
        check_seed(self.seed)
        _check_numbers(self, numbers.Real, "ess", "convergence_ratio")
        if not isinstance(self.schedule, Schedule):
            raise DimensionMismatch(f"schedule {self.schedule!r} is not a Schedule")
        if not isinstance(self.prior, PriorSpec):
            raise DimensionMismatch(f"prior {self.prior!r} is not a PriorSpec")
        if self.noise_bounds is not None:
            bounds = _real_array("noise_bounds", self.noise_bounds)
            if bounds.ndim != 2 or len(bounds) != 2:
                raise DimensionMismatch("noise_bounds must be a pair of vectors")
            object.__setattr__(self, "noise_bounds", tuple(map(tuple, self.noise_bounds)))
        if self.k < 1:
            raise DimensionMismatch("at least one Gaussian component is required")
        if self.ess <= 0:
            raise DimensionMismatch("ess must be positive")
        if not 0 < self.convergence_ratio < 1:
            raise DimensionMismatch("convergence ratio must lie in (0, 1)")
        if self.max_outer < 1:
            raise DimensionMismatch("max_outer must be at least 1")
        if self.max_em_steps < 0:
            raise DimensionMismatch("max_em_steps must not be negative")
        if self.max_parents is not None and self.max_parents < 0:
            raise DimensionMismatch("max_parents must not be negative")
        if self.family not in FAMILIES:
            raise DimensionMismatch(f"family must be one of {FAMILIES}")

    def noise_component(self) -> NoiseComponent | None:
        if self.noise_bounds is None:
            return None
        return NoiseComponent(*self.noise_bounds)


@dataclass(frozen=True)
class OuterIterate:
    model: MdagModel
    structures: tuple[DagStructure, ...]
    stats: stats.MixtureStats
    observed_loglik: float
    complete_model_score: float
    cheeseman_stutz: float


@dataclass(frozen=True)
class FitResult:
    model: MdagModel  # the best iterate by Cheeseman-Stutz score
    trace: tuple[OuterIterate, ...]
    termination: str  # structure-stable | score-nonincreasing | iteration-cap
    best_index: int
    collapsed_components: tuple[int, ...] = ()

    @property
    def cheeseman_stutz(self) -> float:
        return self.trace[self.best_index].cheeseman_stutz


def _bind_priors(config: FitConfig, n: int) -> tuple[NormalWishart, DirichletPrior]:
    """The fit's one Normal-Wishart, shared by every Gaussian component,
    and its Dirichlet over the mixture weights."""
    return config.prior.normal_wishart(n), config.prior.dirichlet(
        config.k, config.noise_bounds is not None
    )


@dataclass(frozen=True)
class EmTrace:
    """``logliks[t]``: the observed log likelihood from the E sweep at the
    model after t steps (index 0 = before any step); ``stats``: the last
    sweep's statistics, taken at the returned model."""

    logliks: tuple[float, ...]
    converged: bool
    collapsed: tuple[int, ...]
    stats: stats.MixtureStats


def run_em(
    cases: stats.CaseGroups,
    model: MdagModel,
    prior: NormalWishart,
    dirichlet: DirichletPrior,
    steps: int | None = None,
    convergence_ratio: float = 1e-6,
    max_steps: int = 500,
) -> tuple[MdagModel, EmTrace]:
    """Repeat E and M steps for a fixed burst or until the ratio rule fires.

    One E sweep per step gives the next M step's statistics and the
    trace's log likelihood, so b steps make at most b + 1 sweeps.  The
    convergence rule compares each step's log-likelihood change with the
    total change since initialization: stop once
    (l_t - l_{t-1}) / (l_t - l_0) drops below ``convergence_ratio``.

    The structures stay fixed, so the whole burst uses the model's one
    ``FamilyPlan``; each M step hands its ``StackedParams`` straight to the
    next sweep, and a model is built only for the parameters returned.

    A burst stops computing at an exact fixed point: once the last two
    sweeps gave equal log likelihoods and the M step returns parameters
    bit for bit equal to the ones just swept.  The sweep is a pure
    function of the cases and the parameters, and the M step of the
    statistics, so every later step would repeat the last one; each step
    left appends the last log likelihood and counts towards the collapse
    warnings, and the trace is the one a full burst gives.
    """
    budget = steps if steps is not None else max_steps
    plan = model.plan
    params = model.stacked
    mix_stats, loglik = stats.expected_stats(cases, params)
    logliks = [loglik]
    converged = False
    fixed = False
    collapse_streaks = np.zeros(model.k, dtype=int)
    collapsed: set[int] = set()
    for _ in range(budget):
        if not fixed:
            swept = params
            params = map_parameters(mix_stats, plan, prior, dirichlet, model.noise)
            # the float test first: a burst that never repeats pays only it
            fixed = len(logliks) > 1 and logliks[-1] == logliks[-2] and _same_bits(params, swept)
        low = mix_stats.gaussian_counts < _COLLAPSE_THRESHOLD
        collapse_streaks = np.where(low, collapse_streaks + 1, 0)
        for c in np.flatnonzero(collapse_streaks >= _COLLAPSE_STEPS).tolist():
            if c not in collapsed:
                collapsed.add(c)
                warnings.warn(
                    f"component {c} collapsed (expected count below "
                    f"{_COLLAPSE_THRESHOLD} for {_COLLAPSE_STEPS} steps); "
                    "retained at the prior mode",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if not fixed:
            mix_stats, loglik = stats.expected_stats(cases, params)
        logliks.append(loglik)
        if steps is None and ratio_rule_fires(logliks, convergence_ratio):
            converged = True
            break
    if len(logliks) > 1:
        model = plan.model(params)
    return model, EmTrace(tuple(logliks), converged, tuple(sorted(collapsed)), mix_stats)


def _same_bits(a: StackedParams, b: StackedParams) -> bool:
    """Whether two parameter stacks hold the same bytes: weights,
    intercepts, variances and coefficients compared as integers, so 0.0
    and -0.0 differ and equal NaNs match, as a sweep sees them."""
    return all(
        np.array_equal(x.view(np.int64), y.view(np.int64))
        for x, y in zip(
            (a.weights, a.intercepts, a.variances, a.b),
            (b.weights, b.intercepts, b.variances, b.b),
        )
    )


def ratio_rule_fires(logliks: Sequence[float], ratio: float) -> bool:
    """Convergence rule on a log-likelihood trace (index 0 = initialization).

    Fires when the last step's change, relative to the total change since
    initialization, drops below ``ratio``.  While the total change is not
    positive (possible early on, since MAP re-estimation can trade
    likelihood for prior mass) the rule cannot fire, except at an exact
    fixed point.
    """
    if len(logliks) < 2:
        return False
    total = logliks[-1] - logliks[0]
    last = logliks[-1] - logliks[-2]
    if total <= 0:
        return last == 0.0
    return last / total < ratio


def initialize(data: np.ndarray, config: FitConfig) -> MdagModel:
    """Initial model: empty (or family-fixed) structures, parameters drawn
    from a data-informed conjugate at strength ``config.ess``.

    Each component draws its own (mean, covariance) from a Normal-Wishart
    whose mode matches the complete-case MAP joint, which breaks the
    symmetry between components; the weights start at the Dirichlet
    prior's mean.  Deterministic given the seed.
    """
    data = np.asarray(data, dtype=float)
    if data.shape[0] == 0:
        raise InsufficientData("cannot initialize from an empty data set")
    n = data.shape[1]
    prior, dirichlet = _bind_priors(config, n)
    missing = np.isnan(data).any(axis=1)
    # with no missing cell, the data itself, not a copy of every row
    complete_rows = data[~missing] if missing.any() else np.ascontiguousarray(data)
    init_prior = data_informed_prior(complete_rows, config.ess, prior)
    if config.family == "mfull":
        structure = complete_structure(n)
    else:
        structure = empty_structure(n)
    components = []
    for c in range(config.k):
        rng = stream(config.seed, "init-params", c)
        mean, cov = sample_joint_parameters(init_prior, rng)
        components.append(GaussianDag.from_joint(structure, mean, cov))
    weights = dirichlet.alphas / dirichlet.alphas.sum()
    return MdagModel(weights, tuple(components), config.noise_component())


def cheeseman_stutz(
    cases: stats.CaseGroups,
    model: MdagModel,
    prior: NormalWishart,
    dirichlet: DirichletPrior,
    mix_stats: stats.MixtureStats,
    marginals: Sequence[FamilyMarginals] | None = None,
) -> tuple[float, float, float]:
    """(complete-model score, observed log likelihood, Cheeseman-Stutz score)
    of the cases at the model.

    The Cheeseman-Stutz score approximates the log marginal likelihood of
    the observed data: the complete-model score of the completion that
    ``mix_stats`` summarizes, plus the log ratio of the observed-data
    likelihood to the completed-data likelihood, both at the model's
    parameters.  The caller must pass parameters that are MAP for the
    model's structures, and the statistics that produced them.  When the
    completion is the data itself the correction cancels and the exact
    closed form is recovered.  ``marginals`` are those a search of the
    model's structures climbed on, if any (see ``complete_model_score``).
    """
    structures = tuple(g.structure for g in model.components)
    complete = complete_model_score(
        mix_stats, structures, prior, dirichlet, model.noise, marginals
    )
    obs = observed_loglik(cases, model)
    return complete, obs, complete + obs - completed_loglik(mix_stats, model)


def _checked_config(config) -> FitConfig:
    """``config`` itself; DimensionMismatch unless it is a FitConfig."""
    if not isinstance(config, FitConfig):
        raise DimensionMismatch(f"config {config!r} is not a FitConfig")
    return config


def fit(data: np.ndarray, config: FitConfig) -> FitResult:
    """Interleaved parameter and structure search over one component count.

    Families with fixed structures (mdiag, mfull) skip the search phase and
    run EM to convergence once; the mdag family follows the configured
    schedule with the forced EM-to-convergence pass before declaring the
    structures stable.
    """
    data = _checked_data(data)
    config = _checked_config(config)
    prior, dirichlet = _bind_priors(config, data.shape[1])
    model = initialize(data, config)
    cases = stats.group_cases(data)
    structures = tuple(g.structure for g in model.components)
    searching = config.family == "mdag"
    # fixed structures never change, so their first pass is the forced one
    force_full_em = not searching
    iterates: list[OuterIterate] = []
    collapsed: set[int] = set()
    termination = "iteration-cap"
    prev_cs = None
    for _ in range(config.max_outer):
        steps = None if force_full_em else config.schedule.em_steps
        model, em_trace = run_em(
            cases,
            model,
            prior,
            dirichlet,
            steps=steps,
            convergence_ratio=config.convergence_ratio,
            max_steps=config.max_em_steps,
        )
        collapsed.update(em_trace.collapsed)
        mix_stats = em_trace.stats
        # shared by search and the complete-model score of what it returns
        marginals = family_marginals(prior, mix_stats)
        if searching:
            new_structures = search_all_components(
                marginals, structures, max_parents=config.max_parents
            )
        else:
            new_structures = structures
        unchanged = new_structures == structures
        # one plan per structure set: the next burst reuses this one
        plan = model.plan if unchanged else FamilyPlan(new_structures)
        model = plan.model(map_parameters(mix_stats, plan, prior, dirichlet, model.noise))
        complete, obs, cs = cheeseman_stutz(cases, model, prior, dirichlet, mix_stats, marginals)
        iterates.append(OuterIterate(model, new_structures, mix_stats, obs, complete, cs))
        structures = new_structures
        if unchanged and (force_full_em or config.schedule.em_steps is None):
            termination = "structure-stable"
            break
        force_full_em = unchanged
        if prev_cs is not None and cs <= prev_cs:
            termination = "score-nonincreasing"
            break
        prev_cs = cs
        if not config.schedule.outer_repeat:
            termination = "iteration-cap"
            break
    best_index = int(np.argmax([it.cheeseman_stutz for it in iterates]))
    return FitResult(
        iterates[best_index].model,
        tuple(iterates),
        termination,
        best_index,
        tuple(sorted(collapsed)),
    )


@dataclass(frozen=True)
class SelectKResult:
    best: FitResult
    best_k: int
    report: tuple[tuple[int, float], ...]  # (k, Cheeseman-Stutz score)
    fits: tuple[FitResult, ...]


def select_k(data: np.ndarray, config: FitConfig, k_max: int) -> SelectKResult:
    """Grow the number of Gaussian components until the score clearly drops.

    Fits k = 1, 2, ... and stops after the Cheeseman-Stutz score decreases
    on two consecutive increments (or at k_max); the best-scoring k wins.
    """
    data = _checked_data(data)
    config = _checked_config(config)
    _check_number("k_max", k_max, numbers.Integral)
    if k_max < 1:
        raise DimensionMismatch("k_max must be at least 1")
    fits: list[FitResult] = []
    report: list[tuple[int, float]] = []
    decreases = 0
    for k in range(1, k_max + 1):
        result = fit(data, replace(config, k=k))
        fits.append(result)
        report.append((k, result.cheeseman_stutz))
        if k > 1 and report[-1][1] < report[-2][1]:
            decreases += 1
            if decreases >= 2:
                break
        else:
            decreases = 0
    best_pos = int(np.argmax([cs for _, cs in report]))
    return SelectKResult(
        fits[best_pos], report[best_pos][0], tuple(report), tuple(fits)
    )
