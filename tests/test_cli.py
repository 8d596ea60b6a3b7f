import csv
import json
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from wildriff.cli import (
    ConfigError,
    RunConfig,
    cmd_evaluate,
    cmd_sweep,
    cmd_verify,
    main,
)

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "wildriff" / "schemas" / "summary.schema.json"


def write_config(tmp_path, **overrides):
    config = {
        "experiment": "exp1",
        "n": 200,
        "seed": 1,
        "trainer": {"name": "fourier_ridge", "params": {"N": 6, "lam": 1e-6}},
        "evaluation": {"K": 2, "beta": 0.6, "rho_grid": [1.0]},
        "oracle": {"n_mc": 500},
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunConfig:
    def test_requires_one_data_source(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["dataset_file"] = "data.csv"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_requires_trainer(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["trainer"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_file(write_config(tmp_path, experiment="exp9"))

    def test_seed_override(self, tmp_path):
        run = RunConfig.from_file(write_config(tmp_path), seed_override=42)
        assert run.seeds == [42]
        assert run.eval_config(42).seed == 42


class TestCmdEvaluate:
    def test_minimal_run_outputs(self, tmp_path):
        code = cmd_evaluate(write_config(tmp_path))
        assert code == 0
        out = tmp_path / "out"
        rows = read_csv(out / "rounds.csv")
        assert rows[0] == ["k", "m", "rho1", "rho2", "opt_tilde", "opt_check",
                           "norm_tilde", "norm_check", "trainer_tol"]
        assert len(rows) == 1 + 2  # header + K rows
        assert (out / "summary.json").exists()
        assert (out / "oracle.json").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cmd_evaluate(cfg) == 0
        first = (tmp_path / "out" / "rounds.csv").read_bytes()
        assert cmd_evaluate(cfg) == 0
        second = (tmp_path / "out" / "rounds.csv").read_bytes()
        assert first == second

    def test_rho_grid_bound_entries(self, tmp_path):
        cfg = write_config(tmp_path,
                           evaluation={"K": 2, "beta": 0.6,
                                       "rho_grid": [0.1, 0.5, 1.0, 2.0, 5.0]})
        assert cmd_evaluate(cfg) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(summary["bounds"].keys()) == {"0.1", "0.5", "1", "2", "5"}

    def test_summary_matches_schema(self, tmp_path):
        assert cmd_evaluate(write_config(tmp_path)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(summary, schema)

    def test_config_error_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cmd_evaluate(missing) == 2
        bad = write_config(tmp_path, evaluation={"K": 0})
        assert cmd_evaluate(bad) == 2
        bad_trainers = [
            {"name": "nonesuch"},
            {"name": "fourier_ridge", "params": {"bogus": 1}},
            {"name": "fourier_ridge", "params": {"N": -1}},
        ]
        for trainer in bad_trainers:
            assert cmd_evaluate(write_config(tmp_path, trainer=trainer)) == 2
        tuned = write_config(tmp_path, evaluation={"K": 2, "K1": 0, "rho_mode": "tuned"})
        assert cmd_evaluate(tuned) == 2
        # Integer settings given as fractions or booleans, empty lists of
        # them, and a Monte-Carlo oracle too small to estimate its spread are
        # rejected while parsing.
        bad_integers = [{"n": 200.9}, {"n": True}, {"n": [100, 200.0]}, {"n": []},
                        {"seed": 1.5}, {"seeds": [1.5]}, {"seeds": [False]}, {"seeds": []},
                        {"oracle": {"n_mc": 0}}, {"oracle": {"n_mc": 1}},
                        {"oracle": {"n_mc": 500.5}}]
        for overrides in bad_integers:
            assert cmd_evaluate(write_config(tmp_path, **overrides)) == 2
            assert cmd_sweep(write_config(tmp_path, **overrides)) == 2
        # evaluate runs one (n, seed) cell; several belong to sweep.  A
        # --seed replaces the seeds list, not a list of n.
        capsys.readouterr()
        for overrides in [{"n": [200, 400], "seeds": [0, 1]}, {"n": [200, 400]},
                          {"seeds": [0, 1]}]:
            assert cmd_evaluate(write_config(tmp_path, **overrides)) == 2
            assert "use sweep" in capsys.readouterr().err
        assert cmd_evaluate(write_config(tmp_path, n=[200, 400], seeds=[0, 1]), seed=3) == 2
        assert not (tmp_path / "out").exists()
        assert cmd_evaluate(write_config(tmp_path, n=[200], seeds=[0, 1]), seed=3) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["config"]["n"], summary["config"]["seed"]) == (200, 3)

    @pytest.mark.parametrize("overrides", [
        {"evaluation": {"K": 2, "rho_grid": [1.0], "srswor_strategy": "bogus"}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "t": 1.0}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "w_under": 0}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "M_v": 1, "v": 0.4}},
        {"evaluation": {"K": 3, "K1": 1, "rho_mode": "tuned", "tune_max_iter": 0}},
        {"evaluation": {"K": 2, "rho_grid": 5}},
        {"n": "abc"},
        {"seeds": "x"},
        {"oracle": {"n_mc": "many"}},
        {"evaluation": {"K": 2.5, "rho_grid": [1.0]}},
        # lam = 0 still builds the explicit n x p design, which the cap guards.
        {"trainer": {"name": "fourier_ridge",
                     "params": {"N": 100, "lam": 0, "max_features": 10}}},
        # A dataset file with a header and no data rows.
        {"dataset_csv": "x,y\n"},
        # Rows narrower and wider than the header.
        {"dataset_csv": "x1,x2,y\n0.5,1.0\n"},
        {"dataset_csv": "x1,y\n0.1,0.2,0.3\n"},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "v": 0}},
        # Integer trainer settings given as fractions or booleans.
        {"trainer": {"name": "tree", "params": {"n_trees": 2.5}}},
        {"trainer": {"name": "tree", "params": {"max_depth": 2.5}}},
        {"trainer": {"name": "tree", "params": {"min_samples_leaf": 1.5}}},
        {"trainer": {"name": "tree", "params": {"max_depth": True}}},
        {"trainer": {"name": "fourier_ridge", "params": {"N": 2.5}}},
        {"trainer": {"name": "fourier_ridge", "params": {"max_features": 100.5}}},
        {"trainer": {"name": "mlp", "params": {"max_iter": 3.5}}},
        {"trainer": {"name": "mlp", "params": {"widths": [2.5]}}},
        # Real trainer settings that are not finite numbers, or out of range.
        {"trainer": {"name": "fourier_ridge", "params": {"lam": float("nan")}}},
        {"trainer": {"name": "fourier_ridge", "params": {"lam": float("inf")}}},
        {"trainer": {"name": "fourier_ridge", "params": {"lam": True}}},
        # A gradient-descent MLP with a bad learning rate: neither key is an
        # MLP setting any more, so each config fails as an unknown key.
        {"trainer": {"name": "mlp", "params": {"optimizer": "gd", "learning_rate": float("nan")}}},
        {"trainer": {"name": "mlp", "params": {"optimizer": "gd", "learning_rate": 0}}},
        {"trainer": {"name": "mlp", "params": {"optimizer": "gd", "learning_rate": -0.05}}},
        {"trainer": {"name": "mlp", "params": {"optimizer": "gd", "learning_rate": True}}},
        {"trainer": {"name": "tree", "params": {"feature_fraction": True}}},
        # Real evaluation settings that are booleans or not finite, and
        # negative bound constants.
        {"evaluation": {"K": 2, "rho_grid": [1.0], "radius_constant": float("inf")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "radius_constant": float("nan")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "radius_constant": -5}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "log_term_constant": float("nan")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "log_term_constant": -1.0}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "w_under": float("nan")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "w_bar": float("inf")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "M_v": float("nan")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "v": float("nan")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "tau": True}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "tau": float("inf")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "t": float("nan")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "beta": float("nan")}},
        {"evaluation": {"K": 2, "rho_grid": [1.0], "delta": True}},
        {"evaluation": {"K": 3, "K1": 1, "rho_mode": "tuned", "tol_rho": float("inf")}},
        {"evaluation": {"K": 2, "rho_grid": [float("nan")]}},
        {"evaluation": {"K": 2, "rho_grid": [float("inf")]}},
        {"evaluation": {"K": 2, "rho_grid": [True]}},
        # Scales whose report labels (6 significant digits) would collide.
        {"evaluation": {"K": 2, "rho_grid": [0.1234567, 1.0, 1.0000001]}},
        {"evaluation": {"K": 2, "rho_grid": [0.5, 0.5]}},
        # Keys nothing reads: misspelled top-level, trainer and oracle keys.
        {"evalution": {"K": 99}, "ouput_dir": "elsewhere", "sed": 3},
        {"trainer": {"name": "tree", "param": {"max_depth": 1}}},
        {"oracle": {"nmc": 5}},
    ], ids=["srswor_strategy", "t", "w_under", "M_v", "tune_max_iter", "rho_grid", "n",
            "seeds", "n_mc", "K_float", "max_features", "header_only_csv", "narrow_csv_row",
            "wide_csv_row", "v_zero", "tree_n_trees_float", "tree_max_depth_float",
            "tree_min_samples_leaf_float", "tree_max_depth_bool", "ridge_N_float",
            "ridge_max_features_float", "mlp_max_iter_float", "mlp_widths_float",
            "ridge_lam_nan", "ridge_lam_inf", "ridge_lam_bool", "mlp_lr_nan", "mlp_lr_zero",
            "mlp_lr_negative", "mlp_lr_bool", "tree_feature_fraction_bool",
            "radius_constant_inf", "radius_constant_nan", "radius_constant_negative",
            "log_term_constant_nan", "log_term_constant_negative", "w_under_nan", "w_bar_inf",
            "M_v_nan", "v_nan", "tau_bool", "tau_inf", "t_nan", "beta_nan", "delta_bool",
            "tol_rho_inf", "rho_grid_nan", "rho_grid_inf", "rho_grid_bool",
            "rho_grid_label_collision", "rho_grid_duplicate", "unknown_top_level_keys",
            "unknown_trainer_key", "unknown_oracle_key"])
    def test_config_mistake_exit_2(self, tmp_path, capsys, overrides):
        # Raised before, during or after the run, a config error exits 2.
        overrides = dict(overrides)
        if "dataset_csv" in overrides:
            data = tmp_path / "data.csv"
            data.write_text(overrides.pop("dataset_csv"))
            overrides.update(experiment=None, dataset_file=str(data))
        assert cmd_evaluate(write_config(tmp_path, **overrides)) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"evalution": {"K": 99}}, "unknown key 'evalution'"),
        ({"trainer": {"name": "tree", "param": {"max_depth": 1}}},
         "trainer: unknown key 'param'"),
        ({"oracle": {"nmc": 5}}, "oracle: unknown key 'nmc'"),
    ], ids=["top_level", "trainer", "oracle"])
    def test_unknown_key_named(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, **overrides)
        assert cmd_evaluate(path) == 2
        assert cmd_sweep(path) == 2
        assert capsys.readouterr().err.count(message) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides,key", [
        ({"n": "abc"}, "n"),
        ({"seeds": "x"}, "seeds"),
        ({"oracle": {"n_mc": "many"}}, "oracle.n_mc"),
        ({"evaluation": {"K": 2, "beta": "half"}}, "evaluation"),
        ({"trainer": {"name": "tree", "params": {"max_depth": "deep"}}}, "trainer.params"),
        # The MLP trains with L-BFGS only: neither key is a trainer setting.
        ({"trainer": {"name": "mlp", "params": {"optimizer": "lbfgs"}}}, "trainer.params"),
        ({"trainer": {"name": "mlp", "params": {"learning_rate": 0.05}}}, "trainer.params"),
    ], ids=["n", "seeds", "n_mc", "evaluation", "trainer_params", "mlp_optimizer",
            "mlp_learning_rate"])
    def test_parse_error_names_key(self, tmp_path, capsys, overrides, key):
        assert cmd_evaluate(write_config(tmp_path, **overrides)) == 2
        assert f": {key}: " in capsys.readouterr().err

    def test_seed_inside_evaluation_exit_2(self, tmp_path, capsys):
        # A run's seed is set by `seed`, `seeds` or --seed, and nowhere else.
        path = write_config(tmp_path, evaluation={"K": 2, "rho_grid": [1.0], "seed": 7})
        assert cmd_evaluate(path) == 2
        assert ": evaluation.seed: " in capsys.readouterr().err
        assert cmd_sweep(path) == 2
        assert not (tmp_path / "out").exists()

    def test_summary_echoes_only_the_runs_seed(self, tmp_path):
        path = write_config(tmp_path, seeds=[5])
        config = json.loads(path.read_text())
        del config["seed"]
        path.write_text(json.dumps(config))
        assert cmd_evaluate(path) == 0
        echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
        assert echo["seed"] == 5
        assert echo["evaluation"] == config["evaluation"]

    @pytest.mark.parametrize("experiment", ["exp3", "exp4"])
    def test_default_ridge_on_5d_experiments(self, tmp_path, experiment):
        # N=8 in 5-d is p = 17^5 features; the kernel path fits it in n x n.
        cfg = write_config(tmp_path, experiment=experiment,
                           trainer={"name": "fourier_ridge"})
        assert cmd_evaluate(cfg) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for bounds in summary["bounds"].values():
            assert all(np.isfinite(bounds[name]) for name in
                       ("wild_optimism_bound", "fixed_design_bound", "random_design_bound"))

    def test_runtime_error_exit_3(self, tmp_path, capsys):
        # One tuning step cannot bracket the noise scale to within 1e-9.
        cfg = write_config(tmp_path, n=100,
                           trainer={"name": "tree", "params": {"max_depth": 3}},
                           evaluation={"K": 3, "K1": 1, "rho_mode": "tuned",
                                       "tune_max_iter": 1, "tol_rho": 1e-9})
        assert cmd_evaluate(cfg) == 3
        err = capsys.readouterr().err
        assert "evaluation error:" in err
        assert "Traceback" not in err

    def test_dataset_file_source(self, tmp_path):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, size=60)
        ys = np.sin(2 * np.pi * xs) + rng.normal(0, 0.1, size=60)
        data = tmp_path / "data.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "y"])
            writer.writerows(zip(xs, ys))
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["experiment"]
        raw["dataset_file"] = str(data)
        cfg.write_text(json.dumps(raw))
        assert cmd_evaluate(cfg) == 0
        out = tmp_path / "out"
        assert not (out / "oracle.json").exists()  # no ground truth
        # n is the file's row count; the config's n = 200 is not echoed.
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["n"] == 60
        assert all(bounds["n"] == 60 for bounds in summary["bounds"].values())

    def test_dataset_file_evaluate_counts_only_seeds(self, tmp_path, capsys):
        # A file's n is its row count, so an n list still names one cell;
        # several seeds do not, and --seed picks one (sweep takes no file).
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(1)
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "y"])
            writer.writerows(zip(rng.uniform(0, 1, 60), rng.normal(size=60)))
        source = {"experiment": None, "dataset_file": str(data)}
        assert cmd_evaluate(write_config(tmp_path, n=[4, 8], **source)) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["config"]["n"] == 60
        for n in ([4, 8], 8):
            path = write_config(tmp_path, n=n, seeds=[0, 1], **source)
            assert cmd_evaluate(path) == 2
            err = capsys.readouterr().err
            assert "--seed" in err and "sweep" not in err
        assert cmd_evaluate(path, seed=1) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["config"]["seed"] == 1

    def test_dataset_file_outside_unit_cube_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x0,y\n0.5,1.0\n1.5,2.0\n")
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["experiment"]
        raw["dataset_file"] = str(data)
        cfg.write_text(json.dumps(raw))
        assert cmd_evaluate(cfg) == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_float_round_trip_precision(self, tmp_path):
        assert cmd_evaluate(write_config(tmp_path)) == 0
        rows = read_csv(tmp_path / "out" / "rounds.csv")
        val = rows[1][4]
        assert float(val) == float(repr(float(val)))  # shortest round-trip repr

    def test_no_truncated_outputs(self, tmp_path):
        # Atomic writes leave no temp files behind.
        assert cmd_evaluate(write_config(tmp_path)) == 0
        leftovers = [p for p in (tmp_path / "out").iterdir() if ".tmp" in p.name]
        assert leftovers == []


class TestCmdSweep:
    def test_single_rho_matches_evaluate(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cmd_sweep(cfg) == 0
        rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert rows[0] == ["n", "rho", "seed", "bound", "oracle_excess_risk", "ratio"]
        assert len(rows) == 2

    def test_grid_rows_per_cell(self, tmp_path):
        cfg = write_config(tmp_path, n=[100, 200], seeds=[1, 2],
                           evaluation={"K": 2, "beta": 0.6, "rho_grid": [0.5, 1.0]})
        assert cmd_sweep(cfg) == 0
        rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 1 + 2 * 2 * 2

    def test_rho_column_holds_exact_grid_value(self, tmp_path):
        # The report label rounds 0.1234567 to 0.123457; the sweep row keeps
        # the grid value itself.
        cfg = write_config(tmp_path, evaluation={"K": 2, "beta": 0.6,
                                                 "rho_grid": [0.1234567, 1.0]})
        assert cmd_sweep(cfg) == 0
        rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert [row[1] for row in rows[1:]] == ["0.1234567", "1.0"]
        assert float(rows[1][1]) == 0.1234567

    def test_same_subsamples_across_rho(self, tmp_path):
        # Evaluate reuses the subsample sequence across the grid; verify via
        # the engine directly on the same config the sweep runs.
        from wildriff.refit import evaluate
        from wildriff.synth import ExperimentSpec, generate
        from wildriff.trainers import make_trainer
        from wildriff.core import EvaluationConfig

        ds, _ = generate(ExperimentSpec(id="exp1", n=150, seed=3))
        trainer = make_trainer("fourier_ridge", {"N": 6, "lam": 1e-6})
        reports = evaluate(ds, trainer, EvaluationConfig(K=3, rho_grid=(0.5, 2.0), seed=3))
        for k in range(3):
            assert np.array_equal(reports[0].rounds[k].sub.indices,
                                  reports[1].rounds[k].sub.indices)

    def test_cell_frees_its_predictors_before_the_next(self, tmp_path):
        # A predictor fit on all of a cell's points keeps their n x p design
        # alive, so a second cell adds less than half a design to the peak
        # only if the first cell's predictors are gone before it runs.
        n, p = 20_000, 17   # N = 8 in one dimension
        peaks = []
        for seeds in ([1], [1, 2]):
            cfg = write_config(tmp_path, n=n, seeds=seeds, trainer={
                "name": "fourier_ridge", "params": {"N": 8, "lam": 1e-6}})
            tracemalloc.start()
            try:
                assert cmd_sweep(cfg) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * n * p * 8

    def test_requires_experiment(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x0,y\n0.5,1.0\n0.6,2.0\n")
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["experiment"]
        raw["dataset_file"] = str(data)
        cfg.write_text(json.dumps(raw))
        assert cmd_sweep(cfg) == 2


class TestCmdVerify:
    def test_unbias_suite(self, tmp_path):
        assert cmd_verify("unbias", tmp_path) == 0
        result = json.loads((tmp_path / "verify_unbias.json").read_text())
        assert result["pass"] and result["max_error"] < 1e-12

    def test_decay_suite(self, tmp_path):
        assert cmd_verify("decay", tmp_path) == 0
        result = json.loads((tmp_path / "verify_decay.json").read_text())
        assert result["sine_M1"] == pytest.approx(0.5, abs=1e-9)

    def test_unknown_suite(self, tmp_path):
        assert cmd_verify("nonsense", tmp_path) == 2


class TestMain:
    def test_evaluate_subcommand(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg)]) == 0

    def test_verify_subcommand(self, tmp_path):
        assert main(["verify", "--suite", "unbias", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("fmt,files", [
        ("csv", ["rounds.csv"]),
        ("json", ["oracle.json", "summary.json"]),
        ("csv,json", ["oracle.json", "rounds.csv", "summary.json"]),
    ])
    def test_format_flag_writes_only_its_files(self, tmp_path, fmt, files):
        cfg = write_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg), "--format", fmt]) == 0
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == files

    @pytest.mark.parametrize("formats", [[], "csv", ["xml"], ["csv", 1]],
                             ids=["empty", "string", "unknown", "not_a_name"])
    def test_bad_formats_exit_2(self, tmp_path, capsys, formats):
        # Nothing is written, not even the output directory.
        cfg = write_config(tmp_path, formats=formats)
        assert main(["evaluate", "--config", str(cfg)]) == 2
        assert "formats" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg), "--seed", "7"]) == 0
        first = (tmp_path / "out" / "rounds.csv").read_bytes()
        assert main(["evaluate", "--config", str(cfg), "--seed", "8"]) == 0
        second = (tmp_path / "out" / "rounds.csv").read_bytes()
        assert first != second
