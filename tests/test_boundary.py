"""The declared boundary, fuzzed: every entry point either returns or
raises a DagmixError subclass, never a raw numpy or Python exception.

The boundary is the names in ``dagmix.__all__``, ``cli.main``, the model
readers (``cli.load_model``, ``cli.model_from_json``) and the config readers
(``cli.load_config``, ``cli.config_from_dict``).  Most inputs are valid with
one part broken: wrong shapes, NaN, inf and huge magnitudes; bool, float,
string and negative counts; out-of-range, duplicate, cyclic and non-integer
parents; empty data; a non-PSD tau; a schedule or seed of the wrong type.
Sizes stay small and every fit runs at most two outer iterations of a few
EM steps.  ``--hypothesis-show-statistics`` lists how often each call
returned and which errors it raised.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dagmix
from dagmix import (
    DagStructure,
    FitConfig,
    GaussianDag,
    MdagModel,
    NoiseComponent,
    PriorSpec,
    Schedule,
    complete_structure,
    default_gold_standard,
    empty_structure,
    fit,
    run_baseline_comparison,
    run_recovery,
    sample,
    select_k,
)
from dagmix.cli import (
    config_from_dict,
    load_config,
    load_model,
    main,
    model_from_json,
    model_to_json,
)
from dagmix.errors import DagmixError, DimensionMismatch
from dagmix.stats import component_case_loglik, group_cases

# the inputs overflow on purpose; numpy's overflow warnings are expected
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

GOLD = default_gold_standard()
GOLD_DATA = sample(GOLD.model, 200, 0)[0]
GOLD_DOC = model_to_json(GOLD.model)
# every fit here stays this small
SMALL = {"max_outer": 2, "max_em_steps": 4, "schedule": Schedule(em_steps=2)}
SMALL_JSON = {"max_outer": 2, "max_em_steps": 4}


def returns_or_raises_dagmix(call, *args, **kwargs):
    """``call``'s result, or None when it raised a DagmixError; the outcome
    is recorded as a hypothesis event."""
    name = getattr(call, "__name__", "call")
    try:
        result = call(*args, **kwargs)
    except DagmixError as exc:
        event(f"{name}: {exc.category}")
        return None
    event(f"{name}: returned")
    return result


def test_the_boundary_has_sixteen_names():
    assert len(dagmix.__all__) == 16


# --- values ---------------------------------------------------------------------

SPECIAL = [np.nan, np.inf, -np.inf, 1e160, -1e300, 1e-300]
BAD_COUNTS = st.sampled_from([-1, 0, 2.5, True, "2", None, np.nan, np.inf, 1e300, [1]])
BAD_REALS = st.sampled_from([0, -1.0, np.nan, np.inf, 1e300, 1e-300, "1", True, None])


@st.composite
def arrays(draw, shape):
    """Floats in [-10, 10], with up to two cells replaced by NaN, an
    infinity, or a huge or tiny magnitude."""
    arr = draw(hnp.arrays(float, shape, elements=st.floats(-10, 10)))
    for _ in range(draw(st.integers(0, 2)) if arr.size else 0):
        arr.flat[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(SPECIAL))
    return arr


MATRICES = arrays(st.tuples(st.integers(0, 10), st.integers(0, 4)))
VECTORS = arrays(st.integers(0, 4))


@st.composite
def some_broken(draw, valid, broken):
    """A subset of fields at valid values, and at most one at a broken value."""
    fields = {name: draw(strategy) for name, strategy in valid.items() if draw(st.booleans())}
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(broken)))
        fields[name] = draw(broken[name])
    return fields


PRIOR_FIELDS = some_broken(
    {
        "nu": st.floats(0.1, 10),
        "mu0": st.floats(-5, 5),
        "alpha": st.one_of(st.none(), st.floats(5, 50)),
        "tau": st.floats(0.1, 10),
        "noise_alpha": st.floats(0.001, 0.5),
    },
    {
        "nu": BAD_REALS,
        "mu0": st.one_of(VECTORS, st.sampled_from([1e160, "x"])),
        "alpha": st.sampled_from([0, -1.0, 0.5, 1e15, 1e300, np.nan, "x"]),
        "tau": st.one_of(
            arrays(st.tuples(st.integers(0, 3), st.integers(0, 3))),
            st.sampled_from(
                [-1.0, 0.0, [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]], [[1.0], []]]
            ),
        ),
        "noise_alpha": st.one_of(BAD_REALS, st.just(2.0)),
    },
)
CONFIG_FIELDS = some_broken(
    {
        "k": st.integers(1, 3),
        "prior": PRIOR_FIELDS,
        "ess": st.floats(0.1, 500),
        "convergence_ratio": st.floats(1e-9, 0.5),
        "seed": st.integers(0, 2**64),
        "schedule": st.builds(Schedule, st.one_of(st.none(), st.integers(1, 3)), st.booleans()),
        "max_outer": st.integers(1, 2),
        "max_em_steps": st.integers(0, 4),
        "family": st.sampled_from(["mdag", "mdiag", "mfull"]),
        "max_parents": st.one_of(st.none(), st.integers(0, 2)),
    },
    {
        "k": BAD_COUNTS,
        "noise_bounds": st.one_of(
            st.just(5), st.tuples(VECTORS, VECTORS), st.just(((-50.0,) * 3, (50.0,) * 3))
        ),
        "prior": st.sampled_from([3, "x", None]),
        "ess": BAD_REALS,
        "convergence_ratio": st.one_of(BAD_REALS, st.just(1.0)),
        "seed": st.one_of(BAD_COUNTS, st.just(-(2**70))),
        "schedule": st.sampled_from(["((EM)^2 Ec S* M)*", 5, None]),
        "max_outer": BAD_COUNTS,
        "max_em_steps": BAD_COUNTS,
        "family": st.sampled_from(["x", 1, None]),
        "max_parents": BAD_COUNTS,
    },
)


# values passed where a FitConfig belongs
NOT_CONFIGS = st.sampled_from([None, "x", 3, PriorSpec(), Schedule()])


def build_config(fields):
    """FitConfig from fuzzed fields over SMALL, a ``prior`` dict built into
    a PriorSpec first; None when either constructor raised a DagmixError."""
    fields = {**SMALL, **fields}
    if isinstance(fields.get("prior"), dict):
        fields["prior"] = returns_or_raises_dagmix(PriorSpec, **fields["prior"])
        if fields["prior"] is None:
            return None
    return returns_or_raises_dagmix(FitConfig, **fields)


# --- structures and models --------------------------------------------------------

WILD_PARENTS = st.lists(
    st.lists(
        st.one_of(st.integers(-1, 4), st.sampled_from([0.5, 1.0, True, "a", None])), max_size=3
    ),
    max_size=4,
)


@st.composite
def dags(draw, n):
    """Parent lists of a random DAG over n nodes."""
    order = draw(st.permutations(range(n)))
    parents = [[] for _ in range(n)]
    for i, child in enumerate(order):
        parents[child] = [p for p in order[:i] if draw(st.booleans())]
    return parents


@given(n=st.one_of(st.integers(0, 4), BAD_COUNTS), parents=WILD_PARENTS)
@example(n=2, parents=[["a"], []])
@example(n=2, parents=[[1], [0]])
@example(n=2, parents=[[1, 1], []])
@example(n=2, parents=[[5], []])
@example(n=3, parents=[[], []])
def test_dag_structure(n, parents):
    structure = returns_or_raises_dagmix(DagStructure, n, parents)
    if structure is not None:
        assert sorted(structure.topological_order) == list(range(structure.n))


@given(n=st.one_of(st.integers(0, 4), BAD_COUNTS))
@example(n=2.5)
def test_structure_builders(n):
    returns_or_raises_dagmix(empty_structure, n)
    returns_or_raises_dagmix(complete_structure, n)


@st.composite
def component_args(draw):
    """(n, parents, intercepts, coefficients, variances) of a valid
    component over 1 to 3 nodes, with at most one part broken."""
    n = draw(st.integers(1, 3))
    parents = draw(dags(n))
    args = {
        "intercepts": draw(hnp.arrays(float, n, elements=st.floats(-5, 5))),
        "coefficients": [
            draw(hnp.arrays(float, len(ps), elements=st.floats(-2, 2))) for ps in parents
        ],
        "variances": draw(hnp.arrays(float, n, elements=st.floats(0.1, 4))),
    }
    broken = draw(st.sampled_from([None, "parents", "intercepts", "coefficients", "variances"]))
    if broken == "parents":
        parents = draw(WILD_PARENTS)
    elif broken == "coefficients":
        args["coefficients"] = draw(st.lists(VECTORS, max_size=4))
    elif broken is not None:
        args[broken] = draw(st.one_of(VECTORS, arrays(n)))
    return n, parents, args["intercepts"], tuple(args["coefficients"]), args["variances"]


@given(args=component_args())
@example(
    args=(2, ((), (0,)), np.full(2, np.nan), (np.zeros(0), np.ones(1)), np.full(2, np.nan))
)
@example(args=(2, ((),), np.zeros(2), (np.zeros(0), np.zeros(0)), np.ones(2)))
@example(args=(3, ((), ()), np.zeros(3), (np.zeros(0), np.zeros(0)), np.ones(3)))
@example(args=(2.0, ((), ()), np.zeros(2), (np.zeros(0), np.zeros(0)), np.ones(2)))
@example(args=(True, ((),), np.zeros(1), (np.zeros(0),), np.ones(1)))
@example(args=(2, ((), (0,)), np.zeros(2), (np.zeros(0), ["a"]), np.ones(2)))
def test_gaussian_dag(args):
    n, parents, *params = args
    structure = returns_or_raises_dagmix(DagStructure, n, parents)
    if structure is None:
        return
    g = returns_or_raises_dagmix(GaussianDag, structure, *params)
    if g is not None:
        # a component that constructs has a density, not NaN, in the E sweep
        model = MdagModel(np.ones(1), (g,))
        assert not np.isnan(component_case_loglik(model.stacked, group_cases(np.zeros((1, g.n))))).any()
        returns_or_raises_dagmix(sample, model, 3, 0)


@given(
    k=st.integers(0, 3),
    weights=st.one_of(st.none(), VECTORS),
    noise=st.one_of(
        st.none(),
        st.just((-50.0 * np.ones(5), 50.0 * np.ones(5))),
        st.tuples(VECTORS, VECTORS),
    ),
    count=st.one_of(st.integers(0, 5), BAD_COUNTS),
    seed=st.one_of(st.integers(0, 2**70), BAD_COUNTS, st.just(-1)),
)
@example(k=2, weights=np.array([np.nan, 0.5]), noise=None, count=3, seed=0)
@example(k=2, weights=None, noise=None, count=3, seed="x")
@example(k=0, weights=None, noise=(np.zeros(2), np.ones(2)), count=3, seed=0)
@example(k=0, weights=None, noise=(np.zeros(0), np.zeros(0)), count=0, seed=0)
@example(k=2, weights="ab", noise=None, count=3, seed=0)
@example(k=0, weights=None, noise=("a", "b"), count=3, seed=0)
def test_mixture(k, weights, noise, count, seed):
    if noise is not None:
        noise = returns_or_raises_dagmix(NoiseComponent, *noise)
        if noise is None:
            return
    if weights is None:  # valid weights
        size = k + (noise is not None)
        weights = np.full(size, 1.0 / max(size, 1))
    model = returns_or_raises_dagmix(MdagModel, weights, GOLD.model.components[:k], noise)
    if model is not None:
        assert not np.isnan(component_case_loglik(model.stacked, group_cases(np.zeros((1, model.n))))).any()
        returns_or_raises_dagmix(sample, model, count, seed)


@pytest.mark.parametrize(
    "call, args",
    [
        (DagStructure, (2.0, ((), ()))),
        (DagStructure, (True, ((),))),
        (DagStructure, ("a", ())),
        (GaussianDag, ((), np.zeros(1), (np.zeros(0),), np.ones(1))),
        (MdagModel, (np.ones(1), (3,))),
        (sample, (3, 2, 0)),
    ],
)
def test_arguments_of_the_wrong_type(call, args):
    # each of these once raised a raw TypeError, AttributeError or a
    # BadParentIndex that miscounted the parent sets
    with pytest.raises(DimensionMismatch):
        call(*args)


# --- configuration ----------------------------------------------------------------


@given(
    text=st.one_of(
        st.sampled_from(["((EM)^3 Ec S* M)*", "((EM)^0 Ec S* M)"]), st.text(max_size=12), BAD_COUNTS
    ),
    steps=st.one_of(st.none(), st.integers(0, 5), BAD_COUNTS),
    outer=st.one_of(st.booleans(), BAD_COUNTS),
)
@example(text=5, steps=2, outer=True)
def test_schedule(text, steps, outer):
    returns_or_raises_dagmix(Schedule.parse, text)
    returns_or_raises_dagmix(Schedule, steps, outer)


@given(fields=PRIOR_FIELDS, n=st.integers(1, 4), k=st.integers(1, 3))
@example(fields={"tau": [[1.0, 2.0], [2.0, 1.0]]}, n=2, k=1)
def test_prior_spec(fields, n, k):
    spec = returns_or_raises_dagmix(PriorSpec, **fields)
    if spec is not None:
        returns_or_raises_dagmix(spec.normal_wishart, n)
        returns_or_raises_dagmix(spec.dirichlet, k, True)


# --- learning ---------------------------------------------------------------------


@settings(max_examples=60)
@given(data=MATRICES, fields=st.one_of(CONFIG_FIELDS, NOT_CONFIGS))
@example(data=GOLD_DATA * 1e160, fields={})
@example(
    data=np.random.default_rng(0).normal(size=(20, 2)) * 1e153, fields={"k": 1, "max_outer": 1}
)
@example(data=GOLD_DATA, fields={"prior": {"alpha": 1e15}})
@example(data=GOLD_DATA, fields={"prior": {"mu0": 1e160}})
@example(data=GOLD_DATA, fields={"prior": {"mu0": [0.0, 0.0, 0.0]}})
@example(data=np.empty((0, 3)), fields={})
@example(data=np.zeros((5, 2)), fields="x")
def test_fit(data, fields):
    config = fields  # not a FitConfig, unless fields builds one
    if isinstance(fields, dict):
        config = build_config(fields)
        if config is None:
            return
    returns_or_raises_dagmix(fit, data, config)


@settings(max_examples=20)
@given(
    data=MATRICES,
    fields=st.one_of(CONFIG_FIELDS, NOT_CONFIGS),
    k_max=st.one_of(st.integers(1, 2), BAD_COUNTS),
)
@example(data=np.zeros((5, 2)), fields=None, k_max=2)
def test_select_k(data, fields, k_max):
    config = fields  # not a FitConfig, unless fields builds one
    if isinstance(fields, dict):
        config = build_config(fields)
        if config is None:
            return
    returns_or_raises_dagmix(select_k, data, config, k_max)


@settings(max_examples=15)
@given(
    train=MATRICES,
    test=st.one_of(MATRICES, st.just([["a"]])),
    families=st.lists(st.sampled_from(["mdag", "mdiag", "mfull", "x"]), max_size=2),
    k_max=st.sampled_from([1, 2, 0, 1.5, "1"]),
    config=st.one_of(st.just(FitConfig(**SMALL)), NOT_CONFIGS),
)
@example(
    train=GOLD_DATA[:20], test=[["a"]], families=["mdiag"], k_max=1, config=FitConfig(**SMALL)
)
@example(train=np.zeros((5, 2)), test=np.zeros((5, 2)), families=["mdag"], k_max=1, config="x")
def test_baseline_comparison(train, test, families, k_max, config):
    returns_or_raises_dagmix(run_baseline_comparison, train, test, config, families, k_max)


@settings(max_examples=10)
@given(
    seed=st.one_of(st.integers(0, 9), BAD_COUNTS),
    sizes=st.lists(
        st.one_of(st.integers(5, 40), st.sampled_from([-1, 0, 2.5, "a", True, 4000])),
        min_size=1,
        max_size=2,
    ),
    k_max=st.sampled_from([1, 2, 0, 1.5]),
    # None would fit with the full default FitConfig, too slow here
    config=st.one_of(st.just(FitConfig(**SMALL)), NOT_CONFIGS.filter(lambda c: c is not None)),
    gold=st.just(GOLD),
)
@example(seed=0, sizes=[10, 20], k_max=2, config=FitConfig(**SMALL), gold=GOLD)
@example(seed=0, sizes=["a"], k_max=1, config=FitConfig(**SMALL), gold=GOLD)
@example(seed=0, sizes=[10], k_max=1, config="x", gold=GOLD)
@example(seed=0, sizes=[10], k_max=1, config=FitConfig(**SMALL), gold=GOLD.model)
@example(seed=0, sizes=[10], k_max=1, config=FitConfig(**SMALL), gold=0)
@example(seed=0, sizes=[10], k_max=1, config=FitConfig(**SMALL), gold="x")
@example(seed=0, sizes=[10], k_max=1, config=FitConfig(**SMALL), gold=None)
def test_recovery(seed, sizes, k_max, config, gold):
    returns_or_raises_dagmix(run_recovery, gold, seed, sizes, config, k_max)


# --- files and the command line ---------------------------------------------------

JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 5),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=2),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def model_documents(draw):
    """The gold model's JSON with one field replaced by a fuzzed value, or
    one of its numbers by a bad one."""
    doc = json.loads(json.dumps(GOLD_DOC))
    comp = doc["components"][draw(st.integers(0, 2))]
    where = draw(
        st.sampled_from(["n", "weights", "noise", "format_version", "components", "component"])
    )
    if draw(st.booleans()):
        value = draw(st.sampled_from([float("nan"), float("inf"), 1e300, -1.0, 0.0, 2.5, True, "1"]))
        if where == "weights":
            doc["weights"][draw(st.integers(0, 2))] = value
        elif where == "component":
            field = draw(st.sampled_from(["intercepts", "variances", "parents"]))
            comp[field][draw(st.integers(0, 4))] = [value] if field == "parents" else value
        elif where == "noise":
            doc["noise"] = {"lower": [value] * 5, "upper": [50.0] * 5}
        else:
            doc["n"] = value
    elif where == "component":
        field = draw(st.sampled_from(["parents", "intercepts", "coefficients", "variances"]))
        comp[field] = draw(JSON_VALUES)
    else:
        doc[where] = draw(JSON_VALUES)
    return doc


@given(doc=model_documents())
@example(doc={**GOLD_DOC, "weights": [float("nan"), 0.5, 0.5]})
@example(doc={**GOLD_DOC, "weights": False})
@example(doc={**GOLD_DOC, "n": float("inf")})
def test_model_from_json(doc):
    returns_or_raises_dagmix(model_from_json, doc)


CONFIG_DOCS = some_broken(
    {
        "k": st.integers(1, 3),
        "seed": st.integers(0, 9),
        "schedule": st.sampled_from(["((EM)^2 Ec S* M)*", "((EM)^* Ec S* M)"]),
        "prior": st.sampled_from([{"alpha": 1e15}, {"tau": 2.0, "nu": 1.0}]),
        "family": st.sampled_from(["mdag", "mdiag", "mfull"]),
        "ess": st.floats(1, 300),
    },
    {key: JSON_VALUES for key in ("k", "seed", "schedule", "prior", "noise_bounds", "ess", "x")},
)


@given(doc=CONFIG_DOCS)
def test_config_from_dict(doc):
    returns_or_raises_dagmix(config_from_dict, doc)


@st.composite
def csv_files(draw):
    """A data matrix as CSV (empty cells missing), sometimes corrupted."""
    data = draw(MATRICES)
    rows = [",".join("" if np.isnan(v) else repr(float(v)) for v in row) for row in data]
    lines = [",".join(f"x{j}" for j in range(data.shape[1]))] + rows
    corrupt = draw(st.sampled_from([None, None, "cell", "ragged", "bytes"]))
    if corrupt == "cell" and len(lines) > 1:
        lines[-1] = "x" + lines[-1]
    elif corrupt == "ragged" and len(lines) > 1:
        lines[-1] += ",1"
    text = "\n".join(lines) + "\n"
    return b"\xff" + text.encode() if corrupt == "bytes" else text


def write(directory, name, content):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))
    return path


GOLD_CSV = "x0,x1,x2,x3,x4\n" + "".join(
    ",".join(map(repr, row)) + "\n" for row in GOLD_DATA.tolist()
)


@settings(max_examples=40)
@given(
    command=st.sampled_from(["fit", "select-k", "score", "generate"]),
    csv=csv_files(),
    config=st.one_of(CONFIG_DOCS, JSON_VALUES),
    model=st.one_of(model_documents(), st.just(GOLD_DOC), st.binary(max_size=8)),
)
@example(command="fit", csv=GOLD_CSV, config={"prior": {"alpha": 1e15}}, model=GOLD_DOC)
@example(command="score", csv="x0,x1\n1,2\n", config={}, model=GOLD_DOC)
@example(command="fit", csv=b"\xff\xfe", config={}, model=GOLD_DOC)
def test_command_line(command, csv, config, model):
    with tempfile.TemporaryDirectory() as tmp:
        data = write(tmp, "data.csv", csv)
        if isinstance(config, dict):  # every fit stays small
            config = {**config, **SMALL_JSON}
        config_path = write(tmp, "config.json", json.dumps(config))
        model_text = model if isinstance(model, bytes) else json.dumps(model)
        model_path = write(tmp, "model.json", model_text)
        out = os.path.join(tmp, "out.json")
        argv = {
            "fit": ["fit", "--data", data, "--config", config_path, "--out", out],
            "select-k": ["select-k", "--data", data, "--config", config_path, "--k-max", "2"],
            "score": ["score", "--model", model_path, "--test", data],
            "generate": ["generate", "--model", model_path, "--n", "3", "--out", out],
        }[command]
        assert main(argv) in (0, 2, 3)
        returns_or_raises_dagmix(load_model, model_path)
        returns_or_raises_dagmix(load_config, config_path)
