import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import hetpref
from hetpref.aggregate import solve_regret_game
from hetpref.cli import _SCHEMA, _check, _checked, default_config, load_config, main

BASE_CONFIG = {
    "population": {
        "preset": "adversarial",
        "theta": [2.0, 0.0],
        "n_responses": 4,
        "reward_spread": 3.0,
    },
    "simulate": {"n": 120, "m": 2, "choice_set_size": 3, "seed": 11},
    "emdpo": {"k": 2, "max_iters": 6},
    "aggregate": {"method": "affine", "iters": 60, "step": 0.05},
    "identify": {"theta": [2.0, 0.0], "n_values": [500], "em": {"max_iters": 12}},
    "evaluate": {"eval_n": 150},
}


def write_config(tmp_path, overrides=None, name="cfg.yaml"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in (overrides or {}).items():
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def run_pipeline(cfg_path, out):
    out = Path(out)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (
        main(
            [
                "emdpo",
                "--config", str(cfg_path),
                "--dataset", str(out / "dataset.jsonl"),
                "--catalog", str(out / "catalog.json"),
                "--out", str(out),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "aggregate",
                "--config", str(cfg_path),
                "--ensemble", str(out / "ensemble.json"),
                "--catalog", str(out / "catalog.json"),
                "--out", str(out),
            ]
        )
        == 0
    )


class TestPipeline:
    def test_end_to_end_files(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        for name in (
            "catalog.json",
            "dataset.jsonl",
            "ensemble.json",
            "gamma.csv",
            "trace.csv",
            "regret_matrix.csv",
            "game_trace.csv",
            "aggregate_report.json",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "aggregate_report.json").read_text())
        assert report["max_regret"] == max(report["per_group_regrets"])

    def test_dataset_line_count(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "dataset.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1 + 120  # header + one line per annotator
        rec = json.loads(lines[1])
        assert all(len(r["rejected"]) == 2 for r in rec["records"])

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run_pipeline(cfg, out1)
        run_pipeline(cfg, out2)
        assert main(["identify", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["identify", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in (
            "catalog.json",
            "dataset.jsonl",
            "ensemble.json",
            "gamma.csv",
            "trace.csv",
            "regret_matrix.csv",
            "game_trace.csv",
            "aggregate_report.json",
            "identify_report.json",
            "recovery_curve.csv",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_report_regrets_match_evaluate_metric(self, tmp_path):
        import numpy as np

        from hetpref.evaluate import max_regret
        from hetpref.policy import ReferencePolicy, read_ensemble, uniform_prompt_weights
        from hetpref.rewards import Catalog
        from reference import policy_distributions

        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        report = json.loads((out / "aggregate_report.json").read_text())
        catalog = Catalog.from_json_dict(json.loads((out / "catalog.json").read_text()))
        ensemble = read_ensemble(out / "ensemble.json", catalog)
        ref = ReferencePolicy.uniform(catalog)
        pw = uniform_prompt_weights(catalog)
        w = np.asarray(report["solution"]["w"])
        dists = policy_distributions(w, ensemble, ref, catalog)
        assert report["max_regret"] == pytest.approx(
            max_regret(dists, ensemble, ref, catalog, pw), abs=1e-10
        )

    def test_manifest_hash_chain(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        sim = json.loads((out / "manifest_simulate.json").read_text())
        em = json.loads((out / "manifest_emdpo.json").read_text())
        ag = json.loads((out / "manifest_aggregate.json").read_text())
        assert em["inputs"]["dataset.jsonl"] == sim["outputs"]["dataset.jsonl"]
        assert em["inputs"]["catalog.json"] == sim["outputs"]["catalog.json"]
        assert ag["inputs"]["ensemble.json"] == em["outputs"]["ensemble.json"]


class TestRestartTraces:
    def test_one_trace_block_per_restart(self, tmp_path):
        cfg = write_config(tmp_path, {"emdpo.restarts": 3, "emdpo.init": "random_dirichlet"})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(
            [
                "emdpo",
                "--config", str(cfg),
                "--dataset", str(out / "dataset.jsonl"),
                "--catalog", str(out / "catalog.json"),
                "--out", str(out),
            ]
        ) == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        restarts = {line.split(",")[0] for line in lines[1:]}
        assert restarts == {"0", "1", "2"}


class TestSeedOverride:
    def test_seed_changes_dataset(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(out2)]) == 0
        assert (out1 / "dataset.jsonl").read_bytes() != (out2 / "dataset.jsonl").read_bytes()
        header = json.loads((out2 / "dataset.jsonl").read_text().splitlines()[0])
        assert header["seed"] == 99


class TestExitCodes:
    def test_unknown_config_field_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"simulate.bogus_knob": 3})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_bad_domain_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"population.preset": "martian"})
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "population.preset" in err and "martian" in err

    def test_hash_mismatch_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        other_cfg = write_config(
            tmp_path, {"population.reward_spread": 2.0}, name="other.yaml"
        )
        other = tmp_path / "other"
        assert main(["simulate", "--config", str(other_cfg), "--out", str(other)]) == 0
        code = main(
            [
                "emdpo",
                "--config", str(cfg),
                "--dataset", str(out / "dataset.jsonl"),
                "--catalog", str(other / "catalog.json"),
                "--out", str(tmp_path / "bad"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("hash") >= 1

    def emdpo_exit(self, tmp_path, cfg):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return main(["emdpo", "--config", str(cfg), "--dataset", str(out / "dataset.jsonl"),
                     "--catalog", str(out / "catalog.json"), "--out", str(out)])

    def test_convergence_failure_is_4(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"emdpo.grad_tol": 1e-18, "emdpo.inner_max_iter": 2, "emdpo.max_iters": 1},
        )
        assert self.emdpo_exit(tmp_path, cfg) == 4

    def test_iteration_cap_on_well_posed_data_is_4(self, tmp_path, capsys):
        # 2000 ternary records reach all 12 patterns of the adversarial world,
        # so the existence check passes and the Newton iteration cap trips.
        cfg = write_config(tmp_path, {"simulate.n": 1000, "emdpo.grad_tol": 1e-18,
                                      "emdpo.inner_max_iter": 1, "emdpo.max_iters": 1})
        assert self.emdpo_exit(tmp_path, cfg) == 4
        err = capsys.readouterr().err
        assert "stopped at gradient norm" in err and "no finite maximizer" not in err

    def test_default_config_has_no_finite_maximizer(self, tmp_path, capsys):
        # 1500 binary records over 990 phrases leave comparisons one-sided;
        # the check stops emdpo before any fit.
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("{}\n")
        assert self.emdpo_exit(tmp_path, cfg) == 4
        err = capsys.readouterr().err
        assert ("no finite maximizer: in prompt 'instruction', 'phrase_005' never lose to the "
                "rest of the prompt (1092 comparisons cross strongly connected components)"
                ) in err, err


# Run in a fresh interpreter with scipy unimportable: imports the package, runs
# `simulate`, `emdpo` and the affine `aggregate` with config argv[1] into
# argv[2], solves a 3 x 2 game with the brute-force oracle, and prints the
# scipy modules loaded.
SCIPY_GUARD = """
import json, sys
sys.modules["scipy"] = None
import hetpref
from hetpref import cli
cfg, out = sys.argv[1:]
assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
assert cli.main(["emdpo", "--config", cfg, "--dataset", out + "/dataset.jsonl",
                 "--catalog", out + "/catalog.json", "--out", out]) == 0
assert cli.main(["aggregate", "--config", cfg, "--ensemble", out + "/ensemble.json",
                 "--catalog", out + "/catalog.json", "--out", out + "/agg"]) == 0
value, w = hetpref.brute_force_game([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
assert value == 0.5 and abs(w.sum() - 1.0) <= 1e-12, (value, w)
print(json.dumps(sorted(m for m, mod in sys.modules.items()
                        if mod is not None and m.split(".")[0] == "scipy")))
"""


def test_package_and_cli_load_no_scipy(tmp_path):
    """The package, the CLI and the brute-force game oracle run without scipy."""
    src = str(Path(hetpref.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(write_config(tmp_path)), str(tmp_path / "run")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "run" / "gamma.csv").is_file()
    assert "per_group_regrets" in json.loads(
        (tmp_path / "run" / "agg" / "aggregate_report.json").read_text())


class TestAggregateMethods:
    @pytest.mark.parametrize("method", ["uniform", "lightweight", "direct", "lw", "ae"])
    def test_methods_run(self, tmp_path, method):
        overrides = {"aggregate.method": method}
        if method in ("direct",):
            overrides["aggregate.iters"] = 50
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "run"
        base_cfg = write_config(tmp_path, name="base.yaml")
        run_pipeline(base_cfg, out)
        args = [
            "aggregate",
            "--config", str(cfg),
            "--ensemble", str(out / "ensemble.json"),
            "--catalog", str(out / "catalog.json"),
            "--out", str(tmp_path / f"agg_{method}"),
        ]
        if method in ("lightweight", "lw"):
            args += ["--dataset", str(out / "dataset.jsonl"), "--gamma", str(out / "gamma.csv")]
        assert main(args) == 0
        report = json.loads((tmp_path / f"agg_{method}" / "aggregate_report.json").read_text())
        assert len(report["per_group_regrets"]) == 2

    def test_uniform_weights(self, tmp_path):
        cfg = write_config(tmp_path, {"aggregate.method": "uniform"})
        out = tmp_path / "run"
        run_pipeline(write_config(tmp_path, name="b.yaml"), out)
        assert main(
            [
                "aggregate",
                "--config", str(cfg),
                "--ensemble", str(out / "ensemble.json"),
                "--catalog", str(out / "catalog.json"),
                "--out", str(tmp_path / "agg_u"),
            ]
        ) == 0
        report = json.loads((tmp_path / "agg_u" / "aggregate_report.json").read_text())
        np.testing.assert_allclose(report["solution"]["w"], [0.5, 0.5])

    def test_game_trace_has_iters_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        lines = (out / "game_trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 60


class TestIdentifyCommand:
    def test_report_contents(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["identify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "identify_report.json").read_text())
        assert report["binary_flatness_max_deviation"] <= 1e-12
        assert report["binary_likelihood_spread"] <= 1e-12
        assert report["ternary_likelihood_spread"] > 0.01
        assert report["theta_recovery_max_error"] <= 1e-8
        lines = (out / "recovery_curve.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 1  # header + one row per configured n
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["ternary_loglik_gap_vs_null"]) > 0.0
        assert abs(float(row["binary_loglik_gap_vs_null"])) < 0.02


class TestEvaluateCommand:
    def test_metrics_blocks(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        assert main(
            [
                "evaluate",
                "--config", str(cfg),
                "--catalog", str(out / "catalog.json"),
                "--ensemble", f"emdpo={out / 'ensemble.json'}",
                "--out", str(out),
            ]
        ) == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("block,method,group_0")
        blocks = {line.split(",")[0] for line in lines[1:]}
        assert blocks == {"max_mean_margin", "accuracy"}


class TestSweepK:
    def test_one_row_per_k(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep.k_values": [1, 2, 3]})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(
            [
                "sweep-k",
                "--config", str(cfg),
                "--dataset", str(out / "dataset.jsonl"),
                "--catalog", str(out / "catalog.json"),
                "--out", str(out),
            ]
        ) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == [1, 2, 3]
        # logliks should not decrease with k on the training data
        lls = [float(line.split(",")[1]) for line in lines[1:]]
        assert lls[1] >= lls[0] - 1e-6


@pytest.fixture(scope="module")
def fitted_run(tmp_path_factory):
    """One simulate + emdpo + affine aggregate run, shared by the input checks."""
    tmp = tmp_path_factory.mktemp("fitted")
    cfg = write_config(tmp)
    run_pipeline(cfg, tmp / "run")
    return cfg, tmp / "run"


def lightweight_with_gamma(cfg, run, tmp_path, gamma_text):
    gamma = tmp_path / "gamma.csv"
    gamma.write_text(gamma_text)
    lw_cfg = write_config(tmp_path, {"aggregate.method": "lightweight", "aggregate.iters": 2},
                          name="lw.yaml")
    return main([
        "aggregate", "--config", str(lw_cfg), "--ensemble", str(run / "ensemble.json"),
        "--catalog", str(run / "catalog.json"), "--dataset", str(run / "dataset.jsonl"),
        "--gamma", str(gamma), "--out", str(tmp_path / "agg"),
    ])


class TestMalformedGamma:
    def edit_line(self, run, line_no, edit):
        lines = (run / "gamma.csv").read_text().splitlines()
        lines[line_no - 1] = edit(lines[line_no - 1])
        return "\n".join(lines) + "\n"

    def check(self, fitted_run, tmp_path, capsys, text, *needles):
        cfg, run = fitted_run
        assert lightweight_with_gamma(cfg, run, tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "gamma.csv" in err
        for needle in needles:
            assert needle in err, err

    def test_valid_file_runs(self, fitted_run, tmp_path):
        cfg, run = fitted_run
        assert lightweight_with_gamma(cfg, run, tmp_path, (run / "gamma.csv").read_text()) == 0

    def test_ragged_row(self, fitted_run, tmp_path, capsys):
        text = self.edit_line(fitted_run[1], 4, lambda line: line + ",0.0")
        self.check(fitted_run, tmp_path, capsys, text, "line 4", "3 columns")

    def test_non_numeric_cell(self, fitted_run, tmp_path, capsys):
        text = self.edit_line(fitted_run[1], 5, lambda line: line.rsplit(",", 1)[0] + ",abc")
        self.check(fitted_run, tmp_path, capsys, text, "line 5", "abc")

    def test_row_off_the_simplex(self, fitted_run, tmp_path, capsys):
        text = self.edit_line(fitted_run[1], 3, lambda line: line.split(",")[0] + ",0.9,0.9")
        self.check(fitted_run, tmp_path, capsys, text, "line 3", "simplex")

    def test_missing_file(self, fitted_run, tmp_path, capsys):
        cfg, run = fitted_run
        lw_cfg = write_config(tmp_path, {"aggregate.method": "lightweight"}, name="lw.yaml")
        code = main([
            "aggregate", "--config", str(lw_cfg), "--ensemble", str(run / "ensemble.json"),
            "--catalog", str(run / "catalog.json"), "--dataset", str(run / "dataset.jsonl"),
            "--gamma", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "agg"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "nope.csv" in err, err

    def test_annotator_column_out_of_order(self, fitted_run, tmp_path, capsys):
        lines = (fitted_run[1] / "gamma.csv").read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        self.check(fitted_run, tmp_path, capsys, "\n".join(lines) + "\n", "line 2",
                   "annotator")


class TestMalformedDataset:
    def rewrite(self, run, tmp_path, edit):
        lines = (run / "dataset.jsonl").read_text().splitlines()
        edit(lines)
        path = tmp_path / "dataset.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("command", ["emdpo", "sweep-k"])
    def test_truncated_line(self, fitted_run, tmp_path, capsys, command):
        cfg, run = fitted_run

        def truncate(lines):
            lines[6] = lines[6][: len(lines[6]) // 2]

        path = self.rewrite(run, tmp_path, truncate)
        code = main([command, "--config", str(cfg), "--dataset", str(path),
                     "--catalog", str(run / "catalog.json"), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dataset.jsonl, line 7" in err and "JSONDecodeError" in err

    def test_file_cut_at_a_line_boundary(self, fitted_run, tmp_path, capsys):
        cfg, run = fitted_run

        def cut(lines):
            del lines[10:]

        path = self.rewrite(run, tmp_path, cut)
        code = main(["emdpo", "--config", str(cfg), "--dataset", str(path),
                     "--catalog", str(run / "catalog.json"), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dataset.jsonl, line 1" in err and "but file holds 9" in err

    def test_missing_file(self, fitted_run, tmp_path, capsys):
        cfg, run = fitted_run
        code = main(["emdpo", "--config", str(cfg), "--dataset", str(tmp_path / "nope.jsonl"),
                     "--catalog", str(run / "catalog.json"), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "nope.jsonl" in err, err

    @pytest.mark.parametrize("command", ["emdpo", "aggregate"])
    def test_unknown_response_id(self, fitted_run, tmp_path, capsys, command):
        cfg, run = fitted_run

        def rename(lines):
            doc = json.loads(lines[3])
            doc["records"][0]["winner"] = "no_such_response"
            lines[3] = json.dumps(doc)

        path = self.rewrite(run, tmp_path, rename)
        if command == "emdpo":
            code = main(["emdpo", "--config", str(cfg), "--dataset", str(path),
                         "--catalog", str(run / "catalog.json"), "--out", str(tmp_path / "x")])
        else:
            lw_cfg = write_config(tmp_path, {"aggregate.method": "lightweight"}, name="lw.yaml")
            code = main(["aggregate", "--config", str(lw_cfg), "--ensemble",
                         str(run / "ensemble.json"), "--catalog", str(run / "catalog.json"),
                         "--dataset", str(path), "--gamma", str(run / "gamma.csv"),
                         "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dataset.jsonl, line 4" in err and "'no_such_response'" in err

    def edit_line_4(self, run, tmp_path, edit):
        """Apply ``edit(doc, first_record)`` to annotator line 4 (annotator id 2)."""
        def apply(lines):
            doc = json.loads(lines[3])
            edit(doc, doc["records"][0])
            lines[3] = json.dumps(doc)

        return self.rewrite(run, tmp_path, apply)

    def run_command(self, command, cfg, run, path, tmp_path):
        return main([command, "--config", str(cfg), "--dataset", str(path),
                     "--catalog", str(run / "catalog.json"), "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("edit, needle", [
        (lambda d, r: r["rejected"].append(r["winner"]), "winner cannot also be rejected"),
        (lambda d, r: r["rejected"].append(r["rejected"][0]), "rejected ids must be distinct"),
        (lambda d, r: r["rejected"].clear(), "at least one rejected response"),
        (lambda d, r: d["records"].clear(), "at least one record"),
        (lambda d, r: d.update(annotator=0), "annotator id 0 is not unique"),
        (lambda d, r: d.update(annotator="a"), "annotator id must be a 64-bit integer, got 'a'"),
        (lambda d, r: d.update(true_type=-1), "got -1"),
        (lambda d, r: d.update(true_type="x"), "got 'x'"),
        (lambda d, r: d.update(true_type=1.5), "got 1.5"),
        (lambda d, r: d.update(true_type=True), "got True"),
    ], ids=["winner-rejected", "duplicate-rejected", "empty-rejected", "empty-records",
            "duplicate-id", "string-id", "negative-type", "string-type", "float-type",
            "bool-type"])
    def test_malformed_annotator_line(self, fitted_run, tmp_path, capsys, edit, needle):
        _cfg, run = fitted_run
        cfg = write_config(tmp_path, {"emdpo.init": "from_true_labels"})
        path = self.edit_line_4(run, tmp_path, edit)
        assert self.run_command("emdpo", cfg, run, path, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "dataset.jsonl, line 4" in err, err
        assert needle in err, err

    def test_type_label_not_below_k(self, fitted_run, tmp_path, capsys):
        _cfg, run = fitted_run
        cfg = write_config(tmp_path, {"emdpo.init": "from_true_labels"})
        path = self.edit_line_4(run, tmp_path, lambda d, r: d.update(true_type=5))
        assert self.run_command("emdpo", cfg, run, path, tmp_path) == 2
        err = capsys.readouterr().err
        assert "annotator 2" in err and "true_type 5" in err and "k=2" in err, err

    def test_sweep_k_without_labels(self, fitted_run, tmp_path, capsys):
        cfg, run = fitted_run
        path = self.edit_line_4(run, tmp_path, lambda d, r: d.update(true_type=None))
        assert self.run_command("sweep-k", cfg, run, path, tmp_path) == 2
        err = capsys.readouterr().err
        assert "annotator 2" in err and "no true_type" in err, err


class TestMalformedJson:
    """A catalog or ensemble file that is not valid JSON, or lacks a field, exits 2."""

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def cut(self, run, tmp_path, name):
        return self.write(tmp_path, name, (run / name).read_text()[:100])

    def check(self, capsys, code, name, *needles):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and name in err
        for needle in needles:
            assert needle in err, err

    def emdpo(self, fitted_run, tmp_path, catalog):
        cfg, run = fitted_run
        return main(["emdpo", "--config", str(cfg), "--dataset", str(run / "dataset.jsonl"),
                     "--catalog", str(catalog), "--out", str(tmp_path / "x")])

    def read_ensemble(self, fitted_run, tmp_path, command, ensemble):
        cfg, run = fitted_run
        argv = [command, "--config", str(cfg), "--catalog", str(run / "catalog.json"),
                "--out", str(tmp_path / "x")]
        if command == "aggregate":
            return main(argv + ["--ensemble", str(ensemble)])
        return main(argv + ["--ensemble", f"fit={ensemble}"])

    def test_catalog_cut(self, fitted_run, tmp_path, capsys):
        path = self.cut(fitted_run[1], tmp_path, "catalog.json")
        code = self.emdpo(fitted_run, tmp_path, path)
        self.check(capsys, code, "catalog.json", "JSONDecodeError")

    def test_catalog_without_prompts(self, fitted_run, tmp_path, capsys):
        path = self.write(tmp_path, "catalog.json", '{"d": 2}')
        code = self.emdpo(fitted_run, tmp_path, path)
        self.check(capsys, code, "catalog.json", "KeyError", "'prompts'")

    def test_catalog_missing(self, fitted_run, tmp_path, capsys):
        code = self.emdpo(fitted_run, tmp_path, tmp_path / "nope.json")
        self.check(capsys, code, "nope.json", "FileNotFoundError")

    @pytest.mark.parametrize("command", ["aggregate", "evaluate"])
    def test_ensemble_missing(self, fitted_run, tmp_path, capsys, command):
        code = self.read_ensemble(fitted_run, tmp_path, command, tmp_path / "nope.json")
        self.check(capsys, code, "nope.json", "FileNotFoundError")

    @pytest.mark.parametrize("command", ["aggregate", "evaluate"])
    def test_ensemble_cut(self, fitted_run, tmp_path, capsys, command):
        path = self.cut(fitted_run[1], tmp_path, "ensemble.json")
        code = self.read_ensemble(fitted_run, tmp_path, command, path)
        self.check(capsys, code, "ensemble.json", "JSONDecodeError")

    @pytest.mark.parametrize("command", ["aggregate", "evaluate"])
    def test_ensemble_without_tables(self, fitted_run, tmp_path, capsys, command):
        path = self.write(tmp_path, "ensemble.json", '{"kappa": 0.1}')
        code = self.read_ensemble(fitted_run, tmp_path, command, path)
        self.check(capsys, code, "ensemble.json", "KeyError", "'tables'")

    @pytest.mark.parametrize("command", ["aggregate", "evaluate"])
    @pytest.mark.parametrize("unknown", ["response", "prompt"])
    def test_ensemble_ids_not_in_catalog(self, fitted_run, tmp_path, capsys, command, unknown):
        # an id the catalog lacks must not be dropped without a word
        doc = json.loads((fitted_run[1] / "ensemble.json").read_text())
        table = doc["tables"][0]
        if unknown == "response":
            prompt = next(iter(table))
            table[prompt]["bogus"] = 0.0
            needle = f"'bogus' under {prompt!r}"
        else:
            table["nope"] = {}
            needle = "'nope'"
        path = self.write(tmp_path, "ensemble.json", json.dumps(doc))
        code = self.read_ensemble(fitted_run, tmp_path, command, path)
        self.check(capsys, code, "ensemble.json", "table 0 names ids not in the catalog", needle)


class TestSeedValidation:
    """A negative or non-integer seed is a config error naming the field."""

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["simulate", "--config", str(cfg), "--seed", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--seed" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [-1, 1.5])
    @pytest.mark.parametrize("command, field", [
        ("simulate", "simulate.seed"),
        ("emdpo", "emdpo.seed"),
        ("identify", "identify.seed"),
        ("evaluate", "evaluate.eval_seed"),
    ])
    def test_config_seed(self, fitted_run, tmp_path, capsys, command, field, value):
        _, run = fitted_run
        cfg = write_config(tmp_path, {field: value})
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
        if command == "emdpo":
            argv += ["--dataset", str(run / "dataset.jsonl")]
        if command in ("emdpo", "evaluate"):
            argv += ["--catalog", str(run / "catalog.json")]
        if command == "evaluate":
            argv += ["--ensemble", f"fit={run / 'ensemble.json'}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(field) in err and str(value) in err


class TestAggregateValidation:
    """Bad aggregate iteration counts and step sizes exit 2 naming the field."""

    def aggregate(self, fitted_run, tmp_path, overrides):
        _, run = fitted_run
        cfg = write_config(tmp_path, overrides, name="agg.yaml")
        argv = ["aggregate", "--config", str(cfg), "--ensemble", str(run / "ensemble.json"),
                "--catalog", str(run / "catalog.json"), "--out", str(tmp_path / "x")]
        if overrides.get("aggregate.method") == "lightweight":
            argv += ["--dataset", str(run / "dataset.jsonl"), "--gamma", str(run / "gamma.csv")]
        return main(argv)

    @pytest.mark.parametrize("overrides, field", [
        ({"aggregate.iters": 1}, "aggregate.iters"),
        ({"aggregate.iters": 0}, "aggregate.iters"),
        ({"aggregate.iters": -3}, "aggregate.iters"),
        ({"aggregate.iters": 2.5}, "aggregate.iters"),
        ({"aggregate.method": "direct", "aggregate.iters": 0}, "aggregate.iters"),
        ({"aggregate.step": "abc"}, "aggregate.step"),
        ({"aggregate.step": float("nan")}, "aggregate.step"),
        ({"aggregate.step": float("inf")}, "aggregate.step"),
        ({"aggregate.step": -0.5}, "aggregate.step"),
        ({"aggregate.step": 0}, "aggregate.step"),
        ({"aggregate.step": 1e6}, "aggregate.step"),
        ({"aggregate.method": "lightweight", "aggregate.step": None}, "aggregate.step"),
        ({"aggregate.method": "lightweight", "aggregate.inner_steps": 0}, "aggregate.inner_steps"),
        ({"aggregate.method": "lightweight", "aggregate.inner_steps": "abc"},
         "aggregate.inner_steps"),
        ({"aggregate.policy_step": 0.0}, "aggregate.policy_step"),
        ({"aggregate.policy_step": float("inf")}, "aggregate.policy_step"),
        ({"aggregate.mwu_step": -0.05}, "aggregate.mwu_step"),
        ({"aggregate.mwu_step": float("nan")}, "aggregate.mwu_step"),
        ({"aggregate.method": "direct", "aggregate.policy_step": 1e6}, "aggregate.policy_step"),
    ])
    def test_bad_value_is_2(self, fitted_run, tmp_path, capsys, overrides, field):
        assert self.aggregate(fitted_run, tmp_path, overrides) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(field) in err, err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("overrides", [
        {"aggregate.step": None},
        {"aggregate.iters": 2},
        {"aggregate.method": "direct", "aggregate.iters": 1},
    ])
    def test_edge_values_run(self, fitted_run, tmp_path, overrides):
        assert self.aggregate(fitted_run, tmp_path, overrides) == 0

    def test_game_trace_bytes_and_report_gap(self, fitted_run):
        # the array-built rows match per-cell formatting of the solver's traces
        _, run = fitted_run
        rows = (run / "regret_matrix.csv").read_text().splitlines()[1:]
        R = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        sol = solve_regret_game(R, iters=60, step=0.05)
        lines = ["iteration,w_0,w_1,p_0,p_1,p_2,gap"]
        for t in range(sol.iters):
            cells = ([repr(float(v)) for v in sol.w_avg_trace[t]]
                     + [repr(float(v)) for v in sol.p_avg_trace[t]]
                     + [repr(float(sol.gap_trace[t]))])
            lines.append(",".join([str(t + 1)] + cells))
        assert (run / "game_trace.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        report = json.loads((run / "aggregate_report.json").read_text())
        assert report["solution"]["gap"] == float(sol.gap_trace[-1])


@pytest.mark.parametrize("command, field, text, number", [
    ("emdpo", "emdpo.grad_tol", "1e-8", "1.0e-8"),
    ("aggregate", "aggregate.policy_step", "1.0e6", "1.0e+6"),
])
def test_yaml_1_1_float_string_is_named(fitted_run, tmp_path, capsys, command, field, text,
                                        number):
    # YAML 1.1 reads a float without a dot, or with an unsigned exponent, as a string
    _, run = fitted_run
    cfg = write_config(tmp_path, {field: "NUMBER", "aggregate.method": "direct"})
    cfg.write_text(cfg.read_text().replace("NUMBER", text))
    assert load_config(cfg)[field.split(".")[0]][field.split(".")[1]] == text
    inputs = {"emdpo": ["--dataset", str(run / "dataset.jsonl")],
              "aggregate": ["--ensemble", str(run / "ensemble.json")]}[command]
    assert main([command, "--config", str(cfg), *inputs, "--catalog", str(run / "catalog.json"),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"got {text!r} (YAML read it as a string; write {number} for a number)" in err, err
    assert yaml.safe_load(f"v: {number}")["v"] == float(text)
    assert not (tmp_path / "x").exists()


CUSTOM_POPULATION = {
    "preset": "custom",
    "thetas": [[1.0, 0.0], [0.0, 1.0]],
    "etas": [0.5, 0.5],
    "catalog": {"q": [["a", [1.0, 0.0]], ["b", [0.0, 1.0]], ["c", [1.0, 1.0]]]},
}


class TestPopulationValidation:
    """Malformed population fields exit 2 naming the field, before any output."""

    @pytest.mark.parametrize("overrides, field", [
        ({"population.theta": [2.0, "x"]}, "population.theta"),
        ({"population.theta": [0.0, 0.0]}, "population.theta"),
        ({"population.theta": 2.0}, "population.theta"),
        ({"population.reward_spread": "abc"}, "population.reward_spread"),
        ({"population.reward_spread": 0}, "population.reward_spread"),
        ({"population.n_responses": 1}, "population.n_responses"),
        ({"population": {"preset": "mpi", "n_phrases": 10, "phrase_seed": "x"}},
         "population.phrase_seed"),
        ({"population": {**CUSTOM_POPULATION,
                         "catalog": {"q": [["a", [1.0, "x"]], ["b", [0.0, 1.0]]]}}},
         "population.catalog"),
        ({"population": {**CUSTOM_POPULATION, "catalog": {"q": [["a", [1.0, 0.0]]]}}},
         "population.catalog"),
        ({"population": {**CUSTOM_POPULATION, "etas": [0.5]}}, "population.etas"),
        ({"population": {**CUSTOM_POPULATION, "etas": [0.5, 0.4]}}, "population.etas"),
        ({"population": {**CUSTOM_POPULATION, "thetas": [[1.0, "x"], [0.0, 1.0]]}},
         "population.thetas"),
    ])
    def test_bad_value_is_2(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, overrides)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(field) in err, err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("population", [
        CUSTOM_POPULATION,
        {"preset": "mpi", "n_phrases": 10, "phrase_seed": 3},
    ])
    def test_valid_population_runs(self, tmp_path, population):
        cfg = write_config(tmp_path, {"population": population})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0


class TestIdentifyValidation:
    """Malformed identify fields exit 2 naming the field, before any output."""

    @pytest.mark.parametrize("overrides, field", [
        ({"identify.reward_spread": "abc"}, "identify.reward_spread"),
        ({"identify.theta": [1.0, "x"]}, "identify.theta"),
        ({"identify.theta": [0.0, 0.0]}, "identify.theta"),
        ({"identify.theta": []}, "identify.theta"),
        ({"identify.n_values": 5}, "identify.n_values"),
        ({"identify.n_values": [500, 0]}, "identify.n_values"),
        ({"identify.n_values": [500, True]}, "identify.n_values"),
        ({"identify.n_responses": 1}, "identify.n_responses"),
    ])
    def test_bad_value_is_2(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, overrides)
        assert main(["identify", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(field) in err, err
        assert not (tmp_path / "x").exists()


class TestEmdpoValidation:
    """Bad EM numbers, in emdpo or in identify.em, exit 2 naming the field."""

    @pytest.mark.parametrize("overrides, field", [
        ({"emdpo.kappa": 0}, "emdpo.kappa"),
        ({"emdpo.kappa": -1}, "emdpo.kappa"),
        ({"emdpo.kappa": "abc"}, "emdpo.kappa"),
        ({"emdpo.kappa": float("inf")}, "emdpo.kappa"),
        ({"emdpo.grad_tol": -1}, "emdpo.grad_tol"),
        ({"emdpo.grad_tol": 0}, "emdpo.grad_tol"),
        ({"emdpo.tol": "abc"}, "emdpo.tol"),
        ({"emdpo.tol": float("nan")}, "emdpo.tol"),
        ({"emdpo.max_iters": 0}, "emdpo.max_iters"),
        ({"emdpo.max_iters": 2.5}, "emdpo.max_iters"),
        ({"emdpo.restarts": 0}, "emdpo.restarts"),
        ({"emdpo.inner_max_iter": "abc"}, "emdpo.inner_max_iter"),
        ({"emdpo.inner_max_iter": True}, "emdpo.inner_max_iter"),
    ])
    @pytest.mark.parametrize("command", ["emdpo", "sweep-k"])
    def test_bad_value_is_2(self, fitted_run, tmp_path, capsys, command, overrides, field):
        _, run = fitted_run
        cfg = write_config(tmp_path, overrides, name="em.yaml")
        code = main([command, "--config", str(cfg), "--dataset", str(run / "dataset.jsonl"),
                     "--catalog", str(run / "catalog.json"), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(field) in err, err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("em, field", [
        ({"bogus": 1}, "identify.em.bogus"),
        ({"kappa": 0}, "identify.em.kappa"),
        ({"kappa": "abc"}, "identify.em.kappa"),
        ({"tol": "abc"}, "identify.em.tol"),
        ({"grad_tol": -1}, "identify.em.grad_tol"),
        ({"max_iters": 0}, "identify.em.max_iters"),
        ({"inner_max_iter": "abc"}, "identify.em.inner_max_iter"),
        ({"seed": -1}, "identify.em.seed"),
        ({"init": "nope"}, "identify.em.init"),
        ({"on_nonconvergence": "ignore"}, "identify.em.on_nonconvergence"),
        ({"k": 5}, "identify.em.k"),
    ])
    def test_identify_em_bad_value_is_2(self, tmp_path, capsys, em, field):
        cfg = write_config(tmp_path, {"identify.em": em})
        assert main(["identify", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(field) in err, err
        assert not (tmp_path / "x").exists()

    def test_edge_values_run(self, fitted_run, tmp_path):
        # a negative tol never stops early; an integer kappa is a number
        _, run = fitted_run
        cfg = write_config(tmp_path, {"emdpo.tol": -1.0, "emdpo.kappa": 1,
                                      "emdpo.max_iters": 2})
        assert main(["emdpo", "--config", str(cfg), "--dataset", str(run / "dataset.jsonl"),
                     "--catalog", str(run / "catalog.json"), "--out", str(tmp_path / "x")]) == 0


def fitted_command(command, cfg, run, out):
    """argv for ``command`` on the shared fitted run, with config ``cfg`` and ``--out out``."""
    inputs = {
        "emdpo": ["--dataset", run / "dataset.jsonl", "--catalog", run / "catalog.json"],
        "sweep-k": ["--dataset", run / "dataset.jsonl", "--catalog", run / "catalog.json"],
        "aggregate": ["--ensemble", run / "ensemble.json", "--catalog", run / "catalog.json"],
        "evaluate": ["--catalog", run / "catalog.json", "--ensemble",
                     f"fit={run / 'ensemble.json'}"],
    }.get(command, [])
    return [str(a) for a in [command, "--config", cfg, "--out", out, *inputs]]


def assert_config_error(capsys, code, field, out):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(field) in err, err
    assert not out.exists()


class TestConfigBeforeInputs:
    """Each command checks its own config sections before it reads an input or
    builds a population, so a config fault is named even when an input is bad too."""

    def test_simulate_checks_before_building_population(self, tmp_path, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("population built before the simulate section was checked")

        monkeypatch.setattr("hetpref.simulate.make_mpi_population", build)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulate: {n: 0}\n")
        out = tmp_path / "x"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert_config_error(capsys, code, "simulate.n", out)

    @pytest.mark.parametrize("command, field, value", [
        ("emdpo", "emdpo.k", 0),
        ("sweep-k", "sweep.k_values", []),
        ("sweep-k", "emdpo.kappa", 0),
        ("aggregate", "aggregate.iters", 0),
        ("evaluate", "evaluate.eval_n", 0),
    ])
    def test_config_fault_named_before_missing_input(self, tmp_path, capsys, command, field,
                                                     value):
        cfg = write_config(tmp_path, {field: value})
        out = tmp_path / "x"
        code = main(fitted_command(command, cfg, tmp_path / "missing", out))
        assert_config_error(capsys, code, field, out)


class TestSweepValidation:
    """A bad sweep.k_values exits 2 before any fit, writing nothing."""

    @pytest.mark.parametrize("k_values", [[True, 2], [2, 0], [], 3, ["x"]],
                             ids=["bool", "late-zero", "empty", "scalar", "string"])
    def test_bad_k_values_is_2(self, fitted_run, tmp_path, capsys, k_values):
        _, run = fitted_run
        cfg = write_config(tmp_path, {"sweep.k_values": k_values})
        code = main(fitted_command("sweep-k", cfg, run, tmp_path / "x"))
        assert_config_error(capsys, code, "sweep.k_values", tmp_path / "x")


class TestAnnotatorCount:
    """A k above the dataset's annotator count is a config error naming both, not a crash."""

    @pytest.mark.parametrize("command, overrides, needle", [
        ("emdpo", {"emdpo.k": 500}, "k=500 exceeds the dataset's annotator count (120)"),
        ("sweep-k", {"sweep.k_values": [2, 500]},
         "k=500 exceeds the dataset's annotator count (120)"),
        ("identify", {"identify.n_values": [1]}, "k=2 exceeds the dataset's annotator count (1)"),
    ], ids=["emdpo", "sweep-k", "identify"])
    def test_k_above_annotators_is_2(self, fitted_run, tmp_path, capsys, command, overrides,
                                     needle):
        _, run = fitted_run
        cfg = write_config(tmp_path, overrides)
        assert main(fitted_command(command, cfg, run, tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and needle in err, err
        assert not (tmp_path / "x").exists()


# the command that reads each config section
SECTION_COMMAND = {"population": "simulate", "simulate": "simulate", "emdpo": "emdpo",
                   "sweep": "sweep-k", "aggregate": "aggregate", "identify": "identify",
                   "identify.em": "identify", "evaluate": "evaluate"}


def bad_values(kind):
    """Values each kind of _SCHEMA must reject."""
    if isinstance(kind, tuple):
        return ["no_such_value"]
    if kind is None:
        return []
    if kind.startswith("int>="):
        return [True, int(kind[5:]) - 1, 1.5]
    if kind.startswith("number"):
        return [float("nan"), float("inf"), "abc", True]
    return {"theta": [[0.0, 0.0]], "ints": [[0], [True]], "mapping": [3]}[kind]


SCHEMA_ROWS = [(section, field, kind) for section, rows in _SCHEMA.items()
               for field, (_default, kind) in rows.items()]
SCHEMA_ROWS += [("identify.em", field, kind) for section, field, kind in SCHEMA_ROWS
                if section == "emdpo" and field != "k"]


@pytest.mark.parametrize("section, field, value", [
    pytest.param(section, field, value, id=f"{section}.{field}={value!r}")
    for section, field, kind in SCHEMA_ROWS for value in bad_values(kind)])
def test_every_schema_field_rejects_bad_values(fitted_run, tmp_path, capsys, section, field,
                                               value):
    _, run = fitted_run
    dotted = f"{section}.{field}"
    if section == "identify.em":
        cfg = write_config(tmp_path, {"identify.em": {field: value}})
    else:
        cfg = write_config(tmp_path, {dotted: value})
    code = main(fitted_command(SECTION_COMMAND[section], cfg, run, tmp_path / "x"))
    assert_config_error(capsys, code, dotted, tmp_path / "x")


@pytest.mark.parametrize("section", list(_SCHEMA) + ["identify.em"])
def test_every_default_passes_its_kind(section):
    rows = _SCHEMA["emdpo" if section == "identify.em" else section]
    for field, (default, kind) in rows.items():
        if default is not None:
            _check(f"{section}.{field}", default, kind)
    cfg = default_config()
    if section == "identify.em":
        cfg["identify"]["em"] = {f: d for f, (d, _k) in rows.items() if f != "k"}
    _checked(cfg, section)
