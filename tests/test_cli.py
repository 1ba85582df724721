import json
import os
import re

import numpy as np
import pytest

from dagmix import cli
from dagmix.cli import (
    Dataset,
    config_from_dict,
    load_csv,
    load_model,
    main,
    model_to_json,
    save_model,
    write_csv,
)
from dagmix.engine import FitConfig, Schedule
from dagmix.errors import (
    EmptyFile,
    NonNumericCell,
    RaggedRow,
    UnknownConfigKey,
    VersionMismatch,
)
from dagmix.harness import default_gold_standard
from dagmix.model import sample
from dagmix.scoring import observed_loglik
from dagmix.stats import component_case_loglik, group_cases
from conftest import two_component_1d


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        ds = load_csv(str(path))
        assert ds.names == ("a", "b")
        assert ds.values.shape == (1, 2)
        assert ds.values[0, 0] == 1.0

    def test_missing_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,\n")
        ds = load_csv(str(path))
        assert np.isnan(ds.values[0, 1])
        assert ds.values[0, 0] == 1.0

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(RaggedRow) as err:
            load_csv(str(path))
        assert err.value.line == 2

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,x\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(str(path))
        assert err.value.column == "b"

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\ninf\n")
        with pytest.raises(NonNumericCell):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(str(path))

    def test_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM; it is not part of
        # the first column's name, which a cell error then reports
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfx0,x1\n1,2\n3,y\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(str(path))
        assert err.value.column == "x1"
        path.write_bytes(b"\xef\xbb\xbfx0,x1\nz,2\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(str(path))
        assert err.value.column == "x0"
        path.write_bytes(b"\xef\xbb\xbfx0,x1\n1,2\n")
        assert load_csv(str(path)).names == ("x0", "x1")

    def test_all_missing_rows_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n,\n1,2\n")
        ds = load_csv(str(path))
        assert ds.values.shape == (1, 2)

    def test_round_trip_through_writer(self, tmp_path, rng):
        values = rng.normal(0, 1, (10, 3))
        values[2, 1] = np.nan
        original = Dataset(("x", "y", "z"), values)
        path = tmp_path / "out.csv"
        write_csv(str(path), original)
        back = load_csv(str(path))
        assert back.names == original.names
        assert np.allclose(back.values, values, equal_nan=True, atol=1e-15)

    def test_same_bytes_as_per_cell_parsing(self, tmp_path, rng):
        values = rng.normal(0, 1e3, (200, 4)) * rng.choice([1e-8, 1.0, 1e8], (200, 4))
        values[rng.random(values.shape) < 0.3] = np.nan
        values[7] = np.nan
        path = tmp_path / "d.csv"
        write_csv(str(path), Dataset(("a", "b", "c", "d"), values))
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        # one numpy row per line, one float() per cell
        rows = []
        for line in lines:
            row = np.empty(4)
            for j, cell in enumerate(line.split(",")):
                row[j] = float(cell) if cell.strip() else np.nan
            if not np.all(np.isnan(row)):
                rows.append(row)
        got = load_csv(str(path)).values
        assert got.shape == (len(rows), 4) and len(rows) < 200
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(rows).tobytes()


class TestModelSerialization:
    def test_round_trip_density_identity(self, tmp_path, rng):
        gold = default_gold_standard()
        path = tmp_path / "m.json"
        save_model(str(path), gold.model, {"seed": 7})
        back, meta = load_model(str(path))
        assert meta["seed"] == 7
        rows = group_cases(rng.normal(5, 8, (100, 5)))
        assert np.array_equal(
            component_case_loglik(back.stacked, rows), component_case_loglik(gold.model.stacked, rows)
        )
        # the mixture density also reads the saved weights
        assert np.array_equal(back.weights, gold.model.weights)
        assert observed_loglik(rows, back) == observed_loglik(rows, gold.model)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(str(path), two_component_1d(0.0, 1.0))
        doc = json.loads(path.read_text())
        doc["format_version"] = "999"
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load_model(str(path))

    def test_corrupt_file(self, tmp_path):
        from dagmix.errors import CorruptFile

        path = tmp_path / "m.json"
        path.write_text('{"format_version": "1", "n": 2}')
        with pytest.raises(CorruptFile):
            load_model(str(path))

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(str(path), two_component_1d(0.0, 1.0), {"seed": 3})
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back, meta = load_model(str(path))
        assert meta["seed"] == 3
        assert np.array_equal(back.weights, [0.5, 0.5])

    def test_noise_bounds_preserved(self, tmp_path):
        from dagmix.model import MdagModel, NoiseComponent
        from conftest import single_node_model

        noise = NoiseComponent(np.array([-1.0]), np.array([9.0]))
        m = MdagModel(np.array([0.2, 0.8]), (single_node_model(0.0),), noise)
        path = tmp_path / "m.json"
        save_model(str(path), m)
        back, _ = load_model(str(path))
        assert back.noise is not None
        assert np.array_equal(back.noise.lower, noise.lower)
        assert np.array_equal(back.noise.upper, noise.upper)


    @pytest.mark.parametrize(
        "path, value",
        [
            (("weights", 0), float("nan")),
            (("components", 0, "intercepts", 1), float("inf")),
            (("components", 0, "coefficients", 1, 0), float("nan")),
            (("components", 0, "variances", 0), float("nan")),
            (("noise", "upper", 1), float("-inf")),
            (("components", 0, "parents", 1, 0), 0.7),
            (("n",), 2.7),
            (("n",), 2.0),
            (("n",), "2"),
            (("n",), True),
        ],
        ids=[
            "weight",
            "intercept",
            "coefficient",
            "variance",
            "noise-bound",
            "fractional-parent",
            "fractional-node-count",
            "float-node-count",
            "string-node-count",
            "bool-node-count",
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, path, value):
        from dagmix.model import DagStructure, GaussianDag, MdagModel, NoiseComponent

        component = GaussianDag(
            DagStructure(2, ((), (0,))),
            np.zeros(2),
            (np.zeros(0), np.array([0.5])),
            np.ones(2),
        )
        noise = NoiseComponent(np.full(2, -5.0), np.full(2, 5.0))
        doc = model_to_json(MdagModel(np.array([0.1, 0.9]), (component,), noise))
        slot = doc
        for key in path[:-1]:
            slot = slot[key]
        slot[path[-1]] = value
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))  # json writes NaN and Infinity
        data_path = str(tmp_path / "d.csv")
        write_csv(data_path, Dataset(("x0", "x1"), np.zeros((3, 2))))
        assert main(["score", "--model", str(model_path), "--test", data_path]) == 2
        assert capsys.readouterr().err.startswith("CorruptFile: ")


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownConfigKey):
            config_from_dict({"k": 2, "n_iterations": 5})

    def test_unknown_prior_key_rejected(self):
        with pytest.raises(UnknownConfigKey):
            config_from_dict({"prior": {"mu": 3}})

    def test_readme_example_parses(self):
        # the README's config example names only keys that FitConfig has
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as f:
            text = f.read()
        block = re.search(r"A config file example:\s*```json\n(.*?)```", text, re.S)
        config = config_from_dict(json.loads(block.group(1)))
        assert config.k == 3
        assert config.schedule == Schedule(em_steps=10)

    def test_byte_order_mark(self, tmp_path):
        from dagmix.cli import load_config

        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + b'{"k": 2, "schedule": "((EM)^7 Ec S* M)*"}')
        config = load_config(str(path))
        assert (config.k, config.schedule) == (2, Schedule(em_steps=7))

    def test_schedule_string(self):
        config = config_from_dict({"schedule": "((EM)^7 Ec S* M)*", "k": 2})
        assert config.schedule == Schedule(em_steps=7)

    def test_round_trip(self):
        from dagmix.cli import config_to_dict

        config = FitConfig(k=3, seed=11, noise_bounds=((0.0,), (1.0,)))
        doc = config_to_dict(config)
        back = config_from_dict(json.loads(json.dumps(doc)))
        assert back.k == 3
        assert back.seed == 11
        assert back.schedule == config.schedule


class TestCommands:
    def _write_data(self, tmp_path, n=200, seed=3, name="data.csv"):
        data, _ = sample(two_component_1d(0.0, 6.0), n, seed)
        path = tmp_path / name
        write_csv(str(path), Dataset(("x0",), data))
        return str(path)

    def test_generate_then_fit_then_score(self, tmp_path, capsys):
        data_path = str(tmp_path / "gen.csv")
        assert main(["generate", "--n", "300", "--seed", "5", "--out", data_path]) == 0
        model_path = str(tmp_path / "m.json")
        assert (
            main(["fit", "--data", data_path, "--k", "2", "--seed", "1", "--out", model_path])
            == 0
        )
        assert main(["score", "--model", model_path, "--test", data_path]) == 0
        out = capsys.readouterr().out
        assert "predictive score" in out

    def test_one_parser_per_process(self, tmp_path, capsys):
        # the parser is built at the first call and reused, each call
        # parsing its own subcommand and arguments
        cli._build_parser.cache_clear()
        data_path = str(tmp_path / "gen.csv")
        assert main(["generate", "--n", "80", "--seed", "5", "--out", data_path]) == 0
        model_path = str(tmp_path / "m.json")
        assert main(["fit", "--data", data_path, "--k", "1", "--out", model_path]) == 0
        assert main(["score", "--model", model_path, "--test", data_path]) == 0
        assert main(["generate", "--n", "80"]) == 1  # --out is still required
        assert "predictive score" in capsys.readouterr().out
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_fit_reproducible_byte_identical(self, tmp_path):
        data_path = self._write_data(tmp_path)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["fit", "--data", data_path, "--k", "2", "--seed", "9", "--out", a]) == 0
        assert main(["fit", "--data", data_path, "--k", "2", "--seed", "9", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_select_k_reports_each_k(self, tmp_path, capsys):
        data_path = self._write_data(tmp_path, n=150)
        assert main(["select-k", "--data", data_path, "--k-max", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "cheeseman-stutz" in out

    def test_compare_runs(self, tmp_path, capsys):
        data_path = self._write_data(tmp_path, n=150, seed=3, name="train.csv")
        test_path = self._write_data(tmp_path, n=100, seed=4, name="test.csv")
        code = main(
            [
                "compare",
                "--data", data_path,
                "--test", test_path,
                "--family", "mdiag",
                "--k-max", "2",
            ]
        )
        assert code == 0
        assert "mdiag" in capsys.readouterr().out

    def test_compare_defaults_to_every_family(self, tmp_path, capsys):
        # the default, --family all, picks the families and is no FitConfig value
        data_path = self._write_data(tmp_path, n=150, seed=3)
        assert main(["compare", "--data", data_path, "--test", data_path, "--k-max", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["mdag", "mdiag", "mfull"]

    def test_recover_small(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        code = main(
            ["recover", "--sizes", "93", "--k-max", "2", "--seed", "0", "--out", out_path]
        )
        assert code == 0
        report = json.loads(open(out_path).read())
        assert report["rows"][0]["sample_size"] == 93
        assert "COMP1" in capsys.readouterr().out

    def test_missing_file_exit_code(self, capsys):
        assert main(["fit", "--data", "no-such.csv", "--out", "x.json"]) == 2
        assert "FileNotFound" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "{dir}", "--out", "{tmp}/m.json"],
            ["score", "--model", "{dir}", "--test", "{data}"],
            ["fit", "--data", "{data}", "--out", "{tmp}/m.json", "--config", "{dir}"],
            ["generate", "--n", "5", "--out", "{dir}"],
        ],
        ids=["fit-data", "score-model", "config", "generate-out"],
    )
    def test_directory_path_exit_code(self, tmp_path, capsys, argv):
        # a directory where a file belongs: one category line, a data error
        (tmp_path / "dir").mkdir()
        paths = {"dir": tmp_path / "dir", "tmp": tmp_path, "data": self._write_data(tmp_path)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("IsADirectoryError: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, category",
        [
            (["fit", "--data", "{data}", "--k", "2", "--out", "{dir}"], "IsADirectoryError"),
            (["fit", "--data", "{data}", "--out", "{tmp}/missing/m.json"], "FileNotFound"),
            (["select-k", "--data", "{data}", "--out", "{tmp}/missing/x.json"], "FileNotFound"),
            (["recover", "--sizes", "93", "--out", "{dir}"], "IsADirectoryError"),
            (
                ["compare", "--data", "{data}", "--test", "{data}", "--out", "{dir}"],
                "IsADirectoryError",
            ),
        ],
        ids=["fit-dir", "fit-no-parent", "select-k-no-parent", "recover-dir", "compare-dir"],
    )
    def test_out_checked_before_computing(self, tmp_path, capsys, monkeypatch, argv, category):
        # an --out that cannot be written fails at once, with nothing computed
        def never(*args, **kwargs):
            raise AssertionError("computed before --out was checked")

        for name in ("fit", "select_k", "run_recovery", "run_baseline_comparison"):
            monkeypatch.setattr(cli, name, never)
        (tmp_path / "dir").mkdir()
        paths = {"dir": tmp_path / "dir", "tmp": tmp_path, "data": self._write_data(tmp_path)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{category}: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "dir"]
        assert not any((tmp_path / "dir").iterdir())

    def test_data_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        assert main(["fit", "--data", str(path), "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("RaggedRow:")

    @pytest.mark.parametrize(
        "argv, config, category",
        [
            (["fit", "--noise-bounds", "a:b"], None, "DimensionMismatch"),
            (["fit", "--noise-bounds", "nan:20"], None, "DimensionMismatch"),
            (["recover", "--sizes", "a,b"], None, "DimensionMismatch"),
            (["recover", "--sizes=-5,60"], None, "DimensionMismatch"),
            (["recover", "--sizes", "60,60"], None, "DimensionMismatch"),
            (["generate", "--n", "5", "--seed", "-1"], None, "DimensionMismatch"),
            (["generate", "--n", "5", "--seed", str(2**64)], None, "DimensionMismatch"),
            (["fit", "--seed", str(2**64)], None, "DimensionMismatch"),
            (["generate", "--n", "-1"], None, "DimensionMismatch"),
            (["fit"], {"weight_init": "equal"}, "UnknownConfigKey"),
            (
                ["fit", "--noise-bounds=-50:50"],
                {"prior": {"noise_alpha": 1.5}},
                "DimensionMismatch",
            ),
            (["fit"], {"schedule": 5}, "BadSchedule"),
            (["fit"], {"max_outer": 0}, "DimensionMismatch"),
            (["fit"], {"max_parents": -1}, "DimensionMismatch"),
            (["fit"], {"max_em_steps": -3}, "DimensionMismatch"),
            (["fit"], {"noise_bounds": 5}, "DimensionMismatch"),
            (["fit"], {"prior": 3}, "DimensionMismatch"),
            (["fit"], {"k": "x"}, "DimensionMismatch"),
            (["fit"], {"prior": {"nu": "x"}}, "DimensionMismatch"),
            (["fit"], {"noise_bounds": [["a"], ["b"]]}, "DimensionMismatch"),
            (["fit"], {"k": 1.5}, "DimensionMismatch"),
            (["fit"], {"max_parents": "2"}, "DimensionMismatch"),
            (["fit"], {"prior": {"tau": [[1, 0], [0]]}}, "DimensionMismatch"),
            (["fit"], {"seed": 1.5}, "DimensionMismatch"),
            (["fit"], {"ess": float("inf")}, "DimensionMismatch"),
            (["fit"], {"prior": {"mu0": float("inf")}}, "DimensionMismatch"),
            (["fit"], 5, "CorruptFile"),
            (["fit"], "k", "CorruptFile"),
        ],
        ids=[
            "noise-bounds",
            "nan-noise-bound",
            "sizes",
            "negative-size",
            "repeated-size",
            "negative-generate-seed",
            "generate-seed-past-64-bits",
            "fit-seed-past-64-bits",
            "negative-count",
            "weight-init",
            "noise-alpha-past-one",
            "schedule",
            "zero-max-outer",
            "negative-max-parents",
            "negative-max-em-steps",
            "scalar-noise-bounds",
            "scalar-prior",
            "string-k",
            "string-nu",
            "string-noise-bounds",
            "fractional-k",
            "string-max-parents",
            "ragged-tau",
            "fractional-seed",
            "infinite-ess",
            "infinite-mu0",
            "number-document",
            "string-document",
        ],
    )
    def test_bad_argument_exit_code(self, tmp_path, capsys, argv, config, category):
        if config is not None:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config))
            argv = argv + ["--config", str(config_path)]
        if argv[0] == "fit":
            argv = argv + ["--data", self._write_data(tmp_path)]
        if argv[0] in ("fit", "generate"):
            argv = argv + ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{category}: ")

    def test_usage_error_exit_code(self, capsys):
        assert main(["fit"]) == 1

    def test_self_consistency_against_generator(self, tmp_path, capsys):
        # learn on data from the built-in gold model; the learned model's
        # predictive score must come close to the generator's own score
        from dagmix.scoring import predictive_score

        train_path = str(tmp_path / "train.csv")
        test_path = str(tmp_path / "test.csv")
        assert main(["generate", "--n", "1500", "--seed", "21", "--out", train_path]) == 0
        assert main(["generate", "--n", "800", "--seed", "22", "--out", test_path]) == 0
        model_path = str(tmp_path / "m.json")
        assert (
            main(["fit", "--data", train_path, "--k", "3", "--seed", "2", "--out", model_path])
            == 0
        )
        capsys.readouterr()
        assert main(["score", "--model", model_path, "--test", test_path]) == 0
        printed = capsys.readouterr().out
        learned_score = float(printed.split(":")[1].split()[0])
        test_values = load_csv(test_path).values
        gold_score = predictive_score(test_values, default_gold_standard().model)
        assert abs(learned_score - gold_score) < 0.2

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # scoring data that has zero density under a noise-only model is a
        # numerical failure, not a data problem
        from dagmix.model import MdagModel, NoiseComponent

        noise_only = MdagModel(
            np.array([1.0]), (), NoiseComponent(np.zeros(1), np.ones(1))
        )
        model_path = str(tmp_path / "noise.json")
        save_model(model_path, noise_only)
        data_path = str(tmp_path / "far.csv")
        write_csv(data_path, Dataset(("x0",), np.array([[9.0]])))
        assert main(["score", "--model", model_path, "--test", data_path]) == 3
        assert capsys.readouterr().err.startswith("AllComponentsZeroDensity:")

    def test_score_rejects_a_wider_test_set(self, tmp_path, capsys):
        # held-out data is checked against the model's width where it enters
        model_path = str(tmp_path / "m.json")
        save_model(model_path, two_component_1d(0.0, 1.0))
        data_path = str(tmp_path / "wide.csv")
        write_csv(data_path, Dataset(("x0", "x1"), np.zeros((3, 2))))
        assert main(["score", "--model", model_path, "--test", data_path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("DimensionMismatch: ") and err.count("\n") == 1

    def test_noise_bounds_flag(self, tmp_path):
        data_path = self._write_data(tmp_path)
        model_path = str(tmp_path / "m.json")
        code = main(
            [
                "fit",
                "--data", data_path,
                "--k", "1",
                "--seed", "0",
                "--noise-bounds=-20:20",
                "--out", model_path,
            ]
        )
        assert code == 0
        model, _ = load_model(model_path)
        assert model.has_noise

    def test_family_flag_fixes_structures(self, tmp_path):
        data_path = self._write_data(tmp_path)
        model_path = str(tmp_path / "full.json")
        code = main(
            [
                "fit",
                "--data", data_path,
                "--k", "1",
                "--seed", "0",
                "--family", "mfull",
                "--out", model_path,
            ]
        )
        assert code == 0
        model, _ = load_model(model_path)
        n = model.n
        assert all(
            g.structure.arc_count() == n * (n - 1) // 2 for g in model.components
        )
