"""The benchmark's workloads: inputs, the fixed call list, and output checks.

Each workload builds its inputs from the workload seed (see ``inputs``) and
runs a fixed list of calls into dagmix, one at a time.  A pass is one run
through that list; the runner repeats passes and times only the calls.

Every fit uses one outer iteration with a fixed EM burst, the schedule
``((EM)^b Ec S* M)``.  With the default schedule the EM-to-convergence
pass takes anywhere from 50 to 450 steps depending on the draw (a seed-0
gold fit took 0.6 s to 4.6 s across data seeds), so its time says more
about the seed than about the code.  A fixed burst keeps the work per
call the same for every seed while still running every layer: E sweeps,
the observed log likelihood, the M step, the Ec pass, search and the
Cheeseman-Stutz score.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import zlib
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from . import inputs

TERMINATIONS = {"structure-stable", "score-nonincreasing", "iteration-cap"}

# A learned model must score held-out data better than one full-covariance
# Gaussian fitted to the same training cases, a model that learned nothing
# about the mixture.  That one lands 1.1 nats per case below the generating
# model on the gold data and 9.5 below on the n=40 mixture; a gold fit lands
# within 0.1 (complete) or 0.45 (20% missing) of it.  A fit in which EM
# collapsed a component, which the program warns about and keeps, lands
# about 6.7 below on the n=40 mixture and still passes.


@dataclass(frozen=True)
class Sizes:
    cases: int = 3000
    heldout: int = 2000
    n_random: int = 40
    recovery: tuple[int, ...] = (93, 3000)
    per_component: int = 1000
    warm_cases: int = 200


FULL = Sizes()
TINY = Sizes(cases=400, heldout=400, n_random=8, recovery=(60, 150),
             per_component=50, warm_cases=100)


@dataclass
class Learned:
    """What one call returned, as plain arrays the benchmark can check."""

    mixture: inputs.Mixture
    cs: list[float]
    terminations: list[str]
    arc_diff: int | None = None


@dataclass
class Outcome:
    learned: Learned | None = None
    problems: list[str] = field(default_factory=list)
    heldout_nll: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _mixture_of(model) -> inputs.Mixture:
    if model.noise is not None:
        raise ValueError("benchmark configurations have no noise component")
    comps = model.components
    return inputs.Mixture(
        weights=np.array(model.weights, dtype=float),
        parents=tuple(g.structure.parents for g in comps),
        intercepts=tuple(np.array(g.intercepts) for g in comps),
        coefficients=tuple(tuple(np.array(c) for c in g.coefficients) for g in comps),
        variances=tuple(np.array(g.variances) for g in comps),
    )


def _mixture_from_json(doc: dict) -> inputs.Mixture:
    comps = doc["components"]
    return inputs.Mixture(
        weights=np.array(doc["weights"], dtype=float),
        parents=tuple(tuple(tuple(ps) for ps in c["parents"]) for c in comps),
        intercepts=tuple(np.array(c["intercepts"], dtype=float) for c in comps),
        coefficients=tuple(
            tuple(np.array(b, dtype=float) for b in c["coefficients"]) for c in comps
        ),
        variances=tuple(np.array(c["variances"], dtype=float) for c in comps),
    )


def structure_problems(mix: inputs.Mixture) -> list[str]:
    problems = []
    if abs(float(mix.weights.sum()) - 1.0) > 1e-9:
        problems.append(f"weights sum to {mix.weights.sum()!r}")
    for c, parents in enumerate(mix.parents):
        if any(not 0 <= p < mix.n or p == i for i, ps in enumerate(parents) for p in ps):
            problems.append(f"component {c} has an out-of-range or self parent")
            continue
        try:
            inputs._topological_order(parents)
        except ValueError:
            problems.append(f"component {c} is cyclic")
    return problems


def digest_line(learned: Learned) -> str:
    """Learned parent sets plus every score rounded to 1e-6."""
    return json.dumps(
        {
            "parents": [list(map(list, s)) for s in learned.mixture.parents],
            "cs": [f"{v:.6f}" for v in learned.cs],
            "termination": learned.terminations,
            "arc_diff": learned.arc_diff,
        },
        sort_keys=True,
    )


def result_digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update((digest_line(o.learned) if o.learned else "failed").encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Workload:
    """Base: subclasses set ``name``/``why`` and build inputs and calls."""

    name = ""
    why = ""
    burst = 20

    def __init__(self, seed: int, sizes: Sizes, workdir: str, dagmix: dict):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.dm = dagmix  # module name -> module, looked up at call time
        self.generating: inputs.Mixture | None = None
        self.heldout: np.ndarray | None = None
        self.train: np.ndarray | None = None
        self._baseline_ll: float | None = None

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])

    def config(self, k: int, fit_seed: int):
        engine = self.dm["engine"]
        return engine.FitConfig(
            k=k, seed=fit_seed, schedule=engine.Schedule.parse(self.schedule)
        )

    @property
    def schedule(self) -> str:
        return f"((EM)^{self.burst} Ec S* M)"

    def training_masks(self) -> int:
        """Distinct observation masks in the training input."""
        return int(np.unique(~np.isnan(self.train), axis=0).shape[0])

    # -- checks -------------------------------------------------------------

    def judge(self, learned: Learned, heldout: bool = True) -> Outcome:
        out = Outcome(learned, structure_problems(learned.mixture))
        if not all(np.isfinite(v) for v in learned.cs):
            out.problems.append(f"non-finite Cheeseman-Stutz score in {learned.cs}")
        bad = [t for t in learned.terminations if t not in TERMINATIONS]
        if bad:
            out.problems.append(f"unknown termination {bad}")
        if heldout and not out.problems:
            if self._baseline_ll is None:
                self._baseline_ll = inputs.single_gaussian_log_density(
                    self.train, self.heldout
                )
            ll = inputs.mean_log_density(learned.mixture, self.heldout)
            out.heldout_nll = -ll
            if not ll > self._baseline_ll:
                out.problems.append(
                    f"held-out {ll:.4f} nats/case is no better than one Gaussian "
                    f"fitted to the training cases ({self._baseline_ll:.4f})"
                )
        return out

    def fit_learned(self, result) -> Learned:
        return Learned(
            _mixture_of(result.model), [result.cheeseman_stutz], [result.termination]
        )

    # -- subclass interface -------------------------------------------------

    def warm_up(self) -> None:
        """One small call through the same code, outside the timed region."""
        engine = self.dm["engine"]
        engine.fit(self.train[: self.sizes.warm_cases], self.config(2, 0))

    def run_pass(self, timed) -> Iterator[None]:
        """One pass as a generator: it yields after each operation and
        returns the pass's outcomes, so two passes can take turns."""
        raise NotImplementedError


def complete(steps: Iterator[None]) -> list[Outcome]:
    """Run a pass generator to its end; return its outcomes."""
    return interleave([steps])[0]


def interleave(passes: list[Iterator[None]]) -> list[list[Outcome]]:
    """Step the pass generators in turn, one operation each, to their ends.

    Operations of two passes that take turns run seconds apart, so drift in
    the machine's speed touches both alike.
    """
    results: list = [None] * len(passes)
    live = list(range(len(passes)))
    while live:
        for i in list(live):
            try:
                next(passes[i])
            except StopIteration as stop:
                results[i] = stop.value
                live.remove(i)
    return results


def attempt(outcomes: list[Outcome], make) -> Learned | None:
    """Run one operation; an exception is a failed operation, not an abort."""
    try:
        out = make()
    except Exception as exc:  # noqa: BLE001 -- every failure is counted
        outcomes.append(Outcome(None, [f"{type(exc).__name__}: {exc}"]))
        return None
    outcomes.append(out)
    return out.learned


class GoldComplete(Workload):
    name = "gold-complete"
    why = ("EM on one observation mask dominates (E sweep, log likelihood, M step); "
           "search is small")
    burst = 30
    fit_seeds = (0, 1, 2)

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng()
        self.generating = inputs.gold_mixture()
        self.train = inputs.sample_mixture(self.generating, self.sizes.cases, rng)
        self.heldout = inputs.sample_mixture(self.generating, self.sizes.heldout, rng)

    def run_pass(self, timed) -> Iterator[None]:
        outcomes: list[Outcome] = []
        for op, fit_seed in enumerate(self.fit_seeds):
            attempt(outcomes, lambda: self.judge(self.fit_learned(
                timed(op, self.dm["engine"].fit, self.train, self.config(3, fit_seed))
            )))
            yield
        return outcomes


class GoldMissing(Workload):
    name = "gold-missing"
    why = ("20% MCAR cells give 31 masks, so per-mask factorisation dominates; "
           "the only workload through CSV and JSON I/O")
    burst = 10
    fit_seeds = (0,)

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng()
        self.generating = inputs.gold_mixture()
        full = inputs.sample_mixture(self.generating, self.sizes.cases, rng)
        self.train = inputs.mcar_blank(full, 0.2, rng)
        self.heldout = inputs.sample_mixture(self.generating, self.sizes.heldout, rng)
        self.csv = os.path.join(self.workdir, "gold-missing.csv")
        write_csv(self.csv, self.train)
        self.warm_csv = os.path.join(self.workdir, "warm.csv")
        write_csv(self.warm_csv, self.train[: self.sizes.warm_cases])

    def _cli_fit(self, timed, op: int, data: str, fit_seed: int, k: int) -> Learned:
        out = os.path.join(self.workdir, f"model-{op}.json")
        argv = ["fit", "--data", data, "--k", str(k), "--seed", str(fit_seed),
                "--schedule", self.schedule, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = timed(op, self.dm["cli"].main, argv)
        if code != 0:
            raise RuntimeError(f"dagmix fit exited with code {code}")
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        meta = doc["metadata"]
        return Learned(
            _mixture_from_json(doc),
            [meta["scores"]["cheeseman_stutz"]],
            [meta["termination"]],
        )

    def warm_up(self) -> None:
        self._cli_fit(lambda op, fn, *a: fn(*a), 0, self.warm_csv, 0, 2)

    def run_pass(self, timed) -> Iterator[None]:
        outcomes: list[Outcome] = []
        for op, fit_seed in enumerate(self.fit_seeds):
            attempt(outcomes, lambda: self.judge(
                self._cli_fit(timed, op, self.csv, fit_seed, 3)
            ))
            yield
        return outcomes


class SearchN40(Workload):
    name = "search-n40"
    why = ("40 variables, two parents per node and a two-parent cap: greedy "
           "structure search dominates and EM is small")
    burst = 10
    # The generating DAGs have exactly two parents per node.  The cap keeps
    # one fit near 4 s instead of 8-17 s, so a run holds several passes.
    max_parents = 2

    def config(self, k: int, fit_seed: int):
        return replace(super().config(k, fit_seed), max_parents=self.max_parents)

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng()
        self.generating = inputs.random_sparse_mixture(rng, self.sizes.n_random, 3)
        self.train = inputs.sample_mixture(self.generating, self.sizes.cases, rng)
        self.heldout = inputs.sample_mixture(self.generating, self.sizes.heldout, rng)

    def run_pass(self, timed) -> Iterator[None]:
        outcomes: list[Outcome] = []
        attempt(outcomes, lambda: self.judge(self.fit_learned(
            timed(0, self.dm["engine"].fit, self.train, self.config(3, 0))
        )))
        yield
        return outcomes


class Recovery(Workload):
    name = "recovery"
    why = ("k-growth by select_k on nested gold subsamples, then the exact "
           "equivalence-aware structural difference to gold")
    k_max = 8

    def __init__(self, *args):
        super().__init__(*args)
        rng = self.rng()
        self.generating = inputs.gold_mixture()
        self.sets = inputs.stratified_nested(
            self.generating, self.sizes.recovery, self.sizes.per_component, rng
        )
        self.train = self.sets[max(self.sets)]
        self.heldout = inputs.sample_mixture(self.generating, self.sizes.heldout, rng)
        dag = self.dm["model"].DagStructure
        self.gold_structures = [dag(self.generating.n, ps) for ps in self.generating.parents]

    def select_k_learned(self, result) -> Learned:
        return Learned(
            _mixture_of(result.best.model),
            [cs for _, cs in result.report],
            [f.termination for f in result.fits],
        )

    def run_pass(self, timed) -> Iterator[None]:
        engine, harness, model = self.dm["engine"], self.dm["harness"], self.dm["model"]
        outcomes: list[Outcome] = []
        largest = max(self.sets)
        for op, size in enumerate(sorted(self.sets)):
            learned = attempt(outcomes, lambda: self.judge(self.select_k_learned(
                timed(op, engine.select_k, self.sets[size], self.config(1, 0), self.k_max)
            ), heldout=size == largest))
            yield
        if learned is None:
            outcomes.append(Outcome(None, [f"no model at N={largest} to match"]))
            return outcomes
        mix = learned.mixture
        structures = [model.DagStructure(mix.n, ps) for ps in mix.parents]

        def match() -> Outcome:
            diffs = timed(len(self.sets), harness.match_components,
                          structures, list(mix.weights), self.gold_structures)
            total = sum(
                sum(len(ps) for ps in self.generating.parents[g]) if d is None else d
                for g, d in enumerate(diffs)
            )
            return Outcome(replace(learned, arc_diff=total))

        attempt(outcomes, match)
        yield
        return outcomes


def write_csv(path: str, data: np.ndarray) -> None:
    """Header x0..x{n-1}, one case per row, empty cells for missing values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i}" for i in range(data.shape[1])) + "\n")
        for row in data:
            fh.write(",".join("" if np.isnan(v) else repr(float(v)) for v in row))
            fh.write("\n")


WORKLOADS = {w.name: w for w in (GoldComplete, GoldMissing, SearchN40, Recovery)}


DAGMIX_MODULES = ("cli", "engine", "harness", "model", "search", "stats")


def import_dagmix(root: str) -> dict:
    """Import dagmix from ``root``/src and nowhere else.

    Raises ImportError when the checkout has no dagmix sources, so the
    benchmark fails instead of measuring some other installed copy.
    """
    import importlib
    import sys

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dagmix", "__init__.py")):
        raise ImportError(f"no dagmix package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("dagmix")
    where = os.path.dirname(os.path.abspath(package.__file__))
    if where != os.path.join(os.path.abspath(src), "dagmix"):
        raise ImportError(f"dagmix imported from {where}, not from {src}")
    return {m: importlib.import_module(f"dagmix.{m}") for m in DAGMIX_MODULES}


def import_seed_copy() -> dict:
    """The frozen copy of dagmix in ``seedref``, the yardstick for speed."""
    import importlib

    return {
        m: importlib.import_module(f"perfbench.seedref.dagmix.{m}")
        for m in DAGMIX_MODULES
    }
