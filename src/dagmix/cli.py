"""Command-line surface: data ingestion, configuration, serialization.

Commands: fit, score, generate, select-k, recover, compare.  CSV data has
a header row of variable names, one case per row, and empty cells for
missing values.  Models and reports are JSON with an explicit format
version; every run is reproducible from (inputs, config, seed).

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import FitConfig, FitResult, PriorSpec, Schedule, fit, select_k
from .errors import (
    CorruptFile,
    DagmixError,
    DimensionMismatch,
    EmptyFile,
    NonNumericCell,
    RaggedRow,
    UnknownConfigKey,
    VersionMismatch,
)
from .harness import (
    RECOVERY_SIZES,
    GoldStandard,
    default_gold_standard,
    run_baseline_comparison,
    run_recovery,
)
from .model import DagStructure, GaussianDag, MdagModel, NoiseComponent, sample
from .rng import check_seed, stream
from .scoring import predictive_score

FORMAT_VERSION = "1"


@dataclass(frozen=True)
class Dataset:
    names: tuple[str, ...]
    values: np.ndarray  # NaN marks a missing cell

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


def _read_text(path: str) -> str:
    """A file's UTF-8 text, without the byte-order mark that some editors
    write first (Excel's "CSV UTF-8", for one)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{path} is not UTF-8 text: {exc}") from None


def load_csv(path: str) -> Dataset:
    """Read a dataset; rows with no observed value at all are dropped."""
    lines = [line.rstrip("\r") for line in _read_text(path).split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptyFile(f"{path} has no header row")
    names = tuple(cell.strip() for cell in lines[0].split(","))
    # one flat list: floats, unlike a list per row, are not tracked by the
    # garbage collector, so a large file triggers no collections
    cells_kept: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise RaggedRow(lineno)
        row = []
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell == "":
                row.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(lineno, names[j])
            if not math.isfinite(value):
                raise NonNumericCell(lineno, names[j])
            row.append(value)
        if not all(map(math.isnan, row)):
            cells_kept.extend(row)
    return Dataset(names, np.array(cells_kept, dtype=float).reshape(-1, len(names)))


def write_csv(path: str, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(dataset.names) + "\n")
        for row in dataset.values:
            fh.write(",".join("" if np.isnan(v) else repr(float(v)) for v in row))
            fh.write("\n")


# --- model serialization -----------------------------------------------------


def _structure_to_json(structure: DagStructure) -> list[list[int]]:
    return [list(ps) for ps in structure.parents]


def _component_to_json(g: GaussianDag) -> dict:
    return {
        "parents": _structure_to_json(g.structure),
        "intercepts": list(map(float, g.intercepts)),
        "coefficients": [list(map(float, c)) for c in g.coefficients],
        "variances": list(map(float, g.variances)),
    }


def model_to_json(model: MdagModel, metadata: dict | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "n": model.n,
        "weights": list(map(float, model.weights)),
        "components": [_component_to_json(g) for g in model.components],
        "noise": None
        if model.noise is None
        else {
            "lower": list(map(float, model.noise.lower)),
            "upper": list(map(float, model.noise.upper)),
        },
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def _finite_array(values, what: str) -> np.ndarray:
    # json reads NaN and Infinity, and NaN slips past every range check
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise CorruptFile(f"model file has a non-finite {what}")
    return arr


def _parent_sets(parents) -> tuple[tuple[int, ...], ...]:
    # DagStructure would truncate a parent written as 0.7 to node 0
    sets = tuple(tuple(ps) for ps in parents)
    if not all(type(p) is int for ps in sets for p in ps):
        raise CorruptFile("model file has a parent index that is not an integer")
    return sets


def model_from_json(doc: dict) -> tuple[MdagModel, dict]:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"model file version {version!r}, expected {FORMAT_VERSION!r}")
    try:
        n = doc["n"]
        if type(n) is not int:
            # int() would read 5.7 or "5" as 5, and a bool as 0 or 1
            raise CorruptFile(f"model file has a node count {n!r} that is not an integer")
        components = tuple(
            GaussianDag(
                DagStructure(n, _parent_sets(comp["parents"])),
                _finite_array(comp["intercepts"], "intercept"),
                tuple(_finite_array(c, "coefficient") for c in comp["coefficients"]),
                _finite_array(comp["variances"], "variance"),
            )
            for comp in doc["components"]
        )
        noise = None
        if doc.get("noise") is not None:
            noise = NoiseComponent(
                _finite_array(doc["noise"]["lower"], "noise bound"),
                _finite_array(doc["noise"]["upper"], "noise bound"),
            )
        model = MdagModel(_finite_array(doc["weights"], "weight"), components, noise)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptFile(f"malformed model file: {exc}")
    return model, doc.get("metadata", {})


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _check_writable(path: str) -> None:
    """Raise the OSError that opening ``path`` for writing would raise, for
    an empty path, a directory, a missing parent directory or no write
    permission; create nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not (path and os.path.isdir(parent)):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)  # the errno's subclass


def save_model(path: str, model: MdagModel, metadata: dict | None = None) -> None:
    _write_json(path, model_to_json(model, metadata))


def _read_json_object(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CorruptFile(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise CorruptFile(f"{path}: expected a JSON object")
    return doc


def load_model(path: str) -> tuple[MdagModel, dict]:
    return model_from_json(_read_json_object(path))


# --- configuration -----------------------------------------------------------

_CONFIG_KEYS = {f.name for f in dataclasses.fields(FitConfig)}
_PRIOR_KEYS = {f.name for f in dataclasses.fields(PriorSpec)}


def config_from_dict(doc: dict) -> FitConfig:
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise UnknownConfigKey(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    if "schedule" in kwargs:
        kwargs["schedule"] = Schedule.parse(kwargs["schedule"])
    if "prior" in kwargs:
        if not isinstance(kwargs["prior"], dict):
            raise DimensionMismatch(f"prior {kwargs['prior']!r} is not an object")
        bad = set(kwargs["prior"]) - _PRIOR_KEYS
        if bad:
            raise UnknownConfigKey(f"unknown prior keys: {sorted(bad)}")
        kwargs["prior"] = PriorSpec(**kwargs["prior"])
    return FitConfig(**kwargs)


def config_to_dict(config: FitConfig) -> dict:
    doc = dataclasses.asdict(config)
    doc["schedule"] = str(config.schedule)
    if config.noise_bounds is not None:
        lower, upper = config.noise_bounds
        doc["noise_bounds"] = [list(lower), list(upper)]
    return doc


def load_config(path: str | None) -> FitConfig:
    if path is None:
        return FitConfig()
    return config_from_dict(_read_json_object(path))


def _parse_noise_bounds(text: str, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    pairs = [chunk.strip() for chunk in text.split(",")]
    bounds = []
    for chunk in pairs:
        lo, sep, hi = chunk.partition(":")
        if not sep:
            raise DimensionMismatch(f"noise bound {chunk!r} is not of the form lo:hi")
        try:
            bounds.append((float(lo), float(hi)))
        except ValueError:
            raise DimensionMismatch(f"noise bound {chunk!r} is not a pair of numbers")
    if len(bounds) == 1:
        bounds = bounds * n
    if len(bounds) != n:
        raise DimensionMismatch(f"{len(bounds)} noise bounds for {n} variables")
    lower = tuple(b[0] for b in bounds)
    upper = tuple(b[1] for b in bounds)
    return lower, upper


def _apply_overrides(config: FitConfig, args, n: int) -> FitConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "k", None) is not None:
        updates["k"] = args.k
    if getattr(args, "schedule", None) is not None:
        updates["schedule"] = Schedule.parse(args.schedule)
    if getattr(args, "noise_bounds", None) is not None:
        updates["noise_bounds"] = _parse_noise_bounds(args.noise_bounds, n)
    if getattr(args, "family", None) is not None:
        updates["family"] = args.family
    return dataclasses.replace(config, **updates) if updates else config


# --- commands ------------------------------------------------------------------


def _fit_metadata(config: FitConfig, result: FitResult) -> dict:
    return {
        "seed": config.seed,
        "config": config_to_dict(config),
        "scores": {
            "observed_loglik": result.trace[result.best_index].observed_loglik,
            "complete_model_score": result.trace[
                result.best_index
            ].complete_model_score,
            "cheeseman_stutz": result.cheeseman_stutz,
        },
        "termination": result.termination,
        "outer_iterations": len(result.trace),
    }


def _print_fit_trace(result: FitResult) -> None:
    print(f"{'iter':>4} {'loglik':>14} {'complete':>14} {'cheeseman-stutz':>16} {'arcs':>6}")
    for i, it in enumerate(result.trace):
        arcs = sum(s.arc_count() for s in it.structures)
        marker = " *" if i == result.best_index else ""
        print(
            f"{i:>4} {it.observed_loglik:>14.4f} {it.complete_model_score:>14.4f} "
            f"{it.cheeseman_stutz:>16.4f} {arcs:>6}{marker}"
        )
    print(f"termination: {result.termination}")


def _cmd_fit(args) -> int:
    dataset = load_csv(args.data)
    config = _apply_overrides(load_config(args.config), args, dataset.n_vars)
    result = fit(dataset.values, config)
    save_model(args.out, result.model, _fit_metadata(config, result))
    _print_fit_trace(result)
    return 0


def _cmd_score(args) -> int:
    model, _ = load_model(args.model)
    dataset = load_csv(args.test)
    print(f"predictive score: {predictive_score(dataset.values, model):.6f} nats/case")
    return 0


def _cmd_generate(args) -> int:
    if args.model is not None:
        model, _ = load_model(args.model)
    else:
        model = default_gold_standard().model
    data, _ = sample(model, args.n, stream(check_seed(args.seed), "generate"))
    names = tuple(f"x{i}" for i in range(model.n))
    write_csv(args.out, Dataset(names, data))
    return 0


def _cmd_select_k(args) -> int:
    dataset = load_csv(args.data)
    config = _apply_overrides(load_config(args.config), args, dataset.n_vars)
    result = select_k(dataset.values, config, args.k_max)
    print(f"{'k':>3} {'cheeseman-stutz':>16}")
    for k, cs in result.report:
        marker = " *" if k == result.best_k else ""
        print(f"{k:>3} {cs:>16.4f}{marker}")
    if args.out is not None:
        meta = _fit_metadata(dataclasses.replace(config, k=result.best_k), result.best)
        meta["per_k"] = [[k, cs] for k, cs in result.report]
        save_model(args.out, result.best.model, meta)
    return 0


def _cmd_recover(args) -> int:
    if args.gold_model is not None:
        model, _ = load_model(args.gold_model)
        gold = GoldStandard(model, tuple(f"COMP{i + 1}" for i in range(model.k)))
    else:
        gold = default_gold_standard()
    sizes = RECOVERY_SIZES
    if args.sizes is not None:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise DimensionMismatch(f"--sizes {args.sizes!r} is not a list of integers")
    config = _apply_overrides(load_config(args.config), args, gold.model.n)
    report = run_recovery(gold, args.seed, sizes=sizes, config=config, k_max=args.k_max)
    header = ["size", "k", "top-3 weight"] + [f"diff {lab}" for lab in gold.labels]
    print(" ".join(f"{h:>12}" for h in header))
    for row in report.rows:
        diffs = ["-" if d is None else str(d) for d in row.arc_differences]
        cells = [str(row.sample_size), str(row.learned_k), f"{row.top_weight_sum:.2f}"] + diffs
        print(" ".join(f"{c:>12}" for c in cells))
    if args.out is not None:
        rows_json = [dataclasses.asdict(row) for row in report.rows]
        _write_json(
            args.out, {"format_version": FORMAT_VERSION, "seed": report.seed, "rows": rows_json}
        )
    return 0


def _cmd_compare(args) -> int:
    train = load_csv(args.data)
    test = load_csv(args.test)
    config = _apply_overrides(load_config(args.config), args, train.n_vars)
    families = ("mdag", "mdiag", "mfull") if args.families == "all" else (args.families,)
    scores = run_baseline_comparison(
        train.values, test.values, config, families=families, k_max=args.k_max
    )
    print(f"{'family':>8} {'k':>3} {'cheeseman-stutz':>16} {'predictive':>12} {'params':>7}")
    rows_json = []
    for s in scores:
        print(
            f"{s.family:>8} {s.k:>3} {s.cheeseman_stutz:>16.4f} "
            f"{s.predictive:>12.6f} {s.parameters:>7}"
        )
        rows_json.append(dataclasses.asdict(s))
    if args.out is not None:
        _write_json(args.out, {"format_version": FORMAT_VERSION, "families": rows_json})
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Usage error carrying exit code 1."""


@functools.cache  # main parses with it and never changes it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dagmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, test=False, out=None):
        if data:
            p.add_argument("--data", required=True, help="training CSV")
        if test:
            p.add_argument("--test", required=True, help="held-out CSV")
        if out is not None:
            p.add_argument("--out", required=out, help="output path")
        p.add_argument("--config", help="JSON config mirroring FitConfig")
        p.add_argument("--seed", type=int, help="master seed override")

    p = sub.add_parser("fit", help="learn a model with a fixed component count")
    common(p, data=True, out=True)
    p.add_argument("--k", type=int, help="number of Gaussian components")
    p.add_argument("--schedule", help="e.g. '((EM)^10 Ec S* M)*'")
    p.add_argument("--noise-bounds", dest="noise_bounds", help="lo:hi[,lo:hi...]")
    p.add_argument("--family", choices=("mdag", "mdiag", "mfull"))
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="predictive score of a model on test data")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("generate", help="sample cases from a model file or the gold standard")
    p.add_argument("--model", help="model JSON (omit for the built-in gold standard)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("select-k", help="search over the number of components")
    common(p, data=True)
    p.add_argument("--out", help="write the best model here")
    p.add_argument("--k-max", dest="k_max", type=int, default=8)
    p.add_argument("--schedule", help="schedule override")
    p.add_argument("--noise-bounds", dest="noise_bounds")
    p.add_argument("--family", choices=("mdag", "mdiag", "mfull"))
    p.set_defaults(func=_cmd_select_k)

    p = sub.add_parser("recover", help="structure-recovery experiment table")
    p.add_argument("--gold-model", dest="gold_model", help="alternate gold model JSON")
    p.add_argument("--sizes", help="comma-separated sample sizes")
    p.add_argument("--k-max", dest="k_max", type=int, default=8)
    p.add_argument("--config", help="fit config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("compare", help="MDAG vs fixed-structure baselines")
    common(p, data=True, test=True)
    # its own dest: "all" is not a FitConfig family, so it is never a config override
    p.add_argument(
        "--family", dest="families", choices=("all", "mdag", "mdiag", "mfull"), default="all"
    )
    p.add_argument("--k-max", dest="k_max", type=int, default=8)
    p.add_argument("--out", help="write the comparison JSON here")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is not None:  # fail before the computation, not after
            _check_writable(args.out)
        return args.func(args)
    except SystemExit2 as exc:
        print(f"Usage: {exc}", file=sys.stderr)
        return 1
    except DagmixError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"FileNotFound: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory where a file belongs, no permission
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
