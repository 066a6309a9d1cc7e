import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import convlab as cl
from convlab import cli


RAVEN_CONFIG = {
    "name": "raven-mode1",
    "problem": {"name": "easy-raven", "params": {"max_first_zero": 10}},
    "method": {"name": "raven-rule", "params": {}},
    "mode": {"mode": "I", "horizon": 50},
    "seed": 11,
}

FGR_CONFIG = {
    "name": "fgr-mode2",
    "problem": {"name": "fine-grained-raven", "params": {"p_grid": [0.3, 0.5, 0.9, 1.0]}},
    "method": {"name": "raven-rule", "params": {}},
    "mode": {"mode": "II", "delta": 0.05, "horizon": 40},
    "budget": {"strategy": "mc", "trials": 3000},
    "seed": 23,
}

ERM_CONFIG = {
    "name": "erm-mode3",
    "problem": {
        "name": "binary-classification",
        "params": {
            "features": ["a", "b"],
            "classifiers": [
                {"name": "all-0", "labels": {"a": 0, "b": 0}},
                {"name": "all-1", "labels": {"a": 1, "b": 1}},
            ],
            "distributions": [[["a", 1, 0.5], ["b", 0, 0.5]]],
        },
    },
    "method": {"name": "erm", "params": {}},
    "mode": {"mode": "III", "delta": 0.1, "epsilon": 0.05, "horizon": 4},
    "seed": 1,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


class TestBoundTable:
    def test_rows_match_the_closed_form(self):
        text = cli.emit_bound_table([0.5, 0.1], [25, 1])
        lines = text.strip().splitlines()
        assert lines[0] == "n,eps,bound"
        assert "25,0.5,0.96" in lines
        assert "1,0.1,0.0" in lines  # clamped at zero

    def test_fourth_root_eps_row(self):
        eps = 100 ** -0.25
        text = cli.emit_bound_table([eps], [100])
        value = float(text.strip().splitlines()[1].split(",")[2])
        assert abs(value - 0.975) < 1e-4

    def test_cli_subcommand_writes_the_file(self, tmp_path):
        out = tmp_path / "b.csv"
        assert cli.main(["bound", "--eps", "0.5", "--n-max", "25", "--n-min", "25", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "25,0.5,0.96"

    def test_bad_eps_exits_2(self, tmp_path, capsys):
        assert cli.main(["bound", "--eps", "zero", "--n-max", "5", "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestWitnessEmission:
    def test_cardinality_witness_document(self):
        doc = cli.emit_witness(cl.coin_bias(), cl.frequency_estimator, depth=4)
        assert doc["kind"] == "cardinality"
        assert doc["witness_float"] == 0.125
        assert doc["gap"] == ["0", "1/4"]

    def test_underdetermination_document(self):
        doc = cli.emit_witness(cl.fair_coin(), horizon=64)
        w = doc["witness"]
        assert sorted(w["truths"]) == ["Fair", "Unfair"]
        assert w["prefix_equal_through"] == 64

    def test_underdetermination_document_names_the_shared_constant_branch(self):
        w = cli.emit_witness(cl.fair_coin([0.5, 1]), horizon=64)["witness"]
        assert w["world_ids"] == ["theta=0.5/all-ones", "theta=1"]
        assert w["shared_branch"] == "all-ones"
        assert w["prefix_sample"] == [1] * 16

    def test_coin_bias_verifies_and_its_witness_leads_with_the_fair_world(self, capsys):
        assert cli.main(["verify", "--problem", "coin-bias"]) == 0
        assert "coin-bias: all checks passed" in capsys.readouterr().out
        assert cli.main(["witness", "--problem", "coin-bias"]) == 0
        w = json.loads(capsys.readouterr().out)["witness"]
        assert w["world_ids"] == ["theta=0.5/alternating", "theta=0.1/alternating"]
        assert w["truths"] == ["1/2", "1/10"]

    def test_no_witness_document_for_the_coherent_raven(self):
        doc = cli.emit_witness(cl.easy_raven())
        assert doc["witness"] is None

    def test_cli_subcommand(self, tmp_path):
        out = tmp_path / "w.json"
        rc = cli.main(
            ["witness", "--problem", "coin-bias", "--method", "frequency-estimator",
             "--depth", "4", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["witness"] == "1/8"


class TestRun:
    def test_mode_one_record(self, tmp_path):
        path = write_config(tmp_path, RAVEN_CONFIG)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "raven-mode1-record.json").read_text())
        assert record["status"] == cl.SUPPORTED_AT_HORIZON
        stages = {row["world_id"]: row["threshold_stage"] for row in record["verdicts"]}
        assert stages["first-zero-at-7"] == 7 and stages["all-ones"] == 0
        assert record["version"] == cl.__version__
        assert record["curves"] == []  # mode I has no probability curve

    @pytest.mark.parametrize("literal", [False, True])
    def test_stochastic_modes_run_on_worlds_without_a_measure(self, tmp_path, literal):
        # Each easy-raven world is the point mass on its branch: mode II reads mode I's stages from 1.
        problem = {"name": "easy-raven", "params": {"max_first_zero": 10, "literal": literal}}
        doc = dict(RAVEN_CONFIG, problem=problem, mode={"mode": "II", "delta": 0.05, "horizon": 20})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "raven-mode1-record.json").read_text())
        assert record["status"] == (cl.REFUTED_AT_HORIZON if literal else cl.SUPPORTED_AT_HORIZON)
        stages = {row["world_id"]: row["threshold_stage"] for row in record["verdicts"]}
        assert stages["first-zero-at-7"] == 7 and stages["all-ones"] == 1
        rows = (tmp_path / "raven-mode1-curve.csv").read_text().strip().splitlines()[1:]
        assert {line.split(",")[7] for line in rows} == {"true"}

    def test_config_digest_matches_the_file_bytes(self, tmp_path):
        path = write_config(tmp_path, FGR_CONFIG)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "fgr-mode2-record.json").read_text())
        assert record["config_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_rerun_reproduces_curve_bytes_and_verdicts(self, tmp_path):
        path = write_config(tmp_path, FGR_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0
        curve1 = (out1 / "fgr-mode2-curve.csv").read_bytes()
        curve2 = (out2 / "fgr-mode2-curve.csv").read_bytes()
        assert curve1 == curve2
        rec1 = json.loads((out1 / "fgr-mode2-record.json").read_text())
        rec2 = json.loads((out2 / "fgr-mode2-record.json").read_text())
        for volatile in ("timestamp", "duration_ms"):
            rec1.pop(volatile), rec2.pop(volatile)
        assert rec1 == rec2

    def test_curve_header_is_stable(self, tmp_path):
        path = write_config(tmp_path, FGR_CONFIG)
        cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
        first_line = (tmp_path / "fgr-mode2-curve.csv").read_text().splitlines()[0]
        assert first_line == "problem,method,world_id,n,criterion,estimate,stderr,exact,bound"

    def test_record_keys_come_in_the_documented_order(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = re.search(r"record JSON `\{(.*?)\}`", readme, re.S).group(1)
        keys = [k.strip().rstrip("[]") for k in documented.split(",")]
        path = write_config(tmp_path, FGR_CONFIG)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "fgr-mode2-record.json").read_text())
        assert list(record) == keys
        assert isinstance(record["verdicts"], list) and isinstance(record["curves"], list)

    @pytest.mark.parametrize(
        "doc, library",
        [
            (RAVEN_CONFIG, lambda: cl.check_mode(cl.easy_raven(10), cl.raven_rule, cl.mode_params("I", 50), seed=11)),
            (
                dict(FGR_CONFIG, mode=dict(FGR_CONFIG["mode"], horizon=8)),  # p = 0.9 is refuted at 8
                lambda: cl.check_mode(
                    cl.fine_grained_raven([0.3, 0.5, 0.9, 1.0]),
                    cl.raven_rule,
                    cl.mode_params("II", 8, delta=0.05),
                    budget=cl.Budget(strategy="mc", trials=3000),
                    seed=23,
                ),
            ),
        ],
        ids=["mode-I", "mode-II-mc"],
    )
    def test_record_verdicts_are_the_library_verdicts_worlds(self, tmp_path, doc, library):
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / f"{doc['name']}-record.json").read_text())
        assert record["verdicts"] == [asdict(wv) for wv in library().worlds]

    def test_seed_override_changes_the_digest_but_stays_reproducible(self, tmp_path):
        path = write_config(tmp_path, FGR_CONFIG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["run", "--config", str(path), "--seed", "99", "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--seed", "99", "--out", str(out2)]) == 0
        assert (out1 / "fgr-mode2-curve.csv").read_bytes() == (out2 / "fgr-mode2-curve.csv").read_bytes()
        rec = json.loads((out1 / "fgr-mode2-record.json").read_text())
        assert rec["seed"] == 99

    def test_each_override_flag_writes_its_config_key_and_the_digest_covers_it(self, tmp_path):
        path = write_config(tmp_path, FGR_CONFIG)
        argv = ["--seed", "5", "--horizon", "12", "--trials", "700", "--workers", "2"]
        assert cli.main(["run", "--config", str(path), *argv, "--out", str(tmp_path)]) == 0
        doc = dict(FGR_CONFIG, seed=5, workers=2)
        doc.update(mode=dict(doc["mode"], horizon=12), budget=dict(doc["budget"], trials=700))
        rec = json.loads((tmp_path / "fgr-mode2-record.json").read_text())
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert rec["config_digest"] == hashlib.sha256(canonical).hexdigest()
        assert (rec["seed"], rec["horizon"]) == (5, 12)


class TestExitCodes:
    def test_unknown_method_exits_2(self, tmp_path, capsys):
        doc = dict(RAVEN_CONFIG, method={"name": "oracle"})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_unknown_problem_exits_2(self, tmp_path):
        doc = dict(RAVEN_CONFIG, problem={"name": "mystery", "params": {}})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_a_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"name": "\xff"}')
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config: not UTF-8 text" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2

    def test_bad_mode_block_exits_2(self, tmp_path, capsys):
        doc = dict(RAVEN_CONFIG, mode={"mode": "II", "horizon": 10, "delta": 2})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "mode" in capsys.readouterr().err

    def test_budget_exhaustion_exits_3(self, tmp_path, toy_task):
        doc = {
            "name": "erm-exact",
            "problem": {
                "name": "binary-classification",
                "params": {
                    "features": ["a", "b"],
                    "classifiers": [
                        {"name": "all-0", "labels": {"a": 0, "b": 0}},
                        {"name": "all-1", "labels": {"a": 1, "b": 1}},
                        {"name": "identity", "labels": {"a": 1, "b": 0}},
                    ],
                    "distributions": [[["a", 1, 0.5], ["b", 0, 0.5]]],
                },
            },
            "method": {"name": "erm", "params": {}},
            "mode": {"mode": "III", "delta": 0.1, "epsilon": 0.05, "horizon": 40, "stages": [40]},
            "budget": {"strategy": "exact"},
            "seed": 1,
        }
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3

    def test_negative_mc_margin_exits_2(self, tmp_path, capsys):
        doc = dict(FGR_CONFIG, budget={"strategy": "mc", "trials": 10, "mc_margin": -1})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "mc_margin" in capsys.readouterr().err

    def test_unparsable_delta_exits_2(self, tmp_path, capsys):
        doc = dict(FGR_CONFIG, mode={"mode": "II", "delta": "abc", "horizon": 10})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unparsable_theta_grid_entry_exits_2(self, tmp_path, capsys):
        doc = dict(
            FGR_CONFIG,
            problem={"name": "fair-coin", "params": {"theta_grid": [0.5, "x"]}},
            method={"name": "fair-coin-test", "params": {}},
        )
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "problem.params" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["problem", "method"])
    def test_unknown_param_key_exits_2(self, tmp_path, capsys, section):
        doc = dict(RAVEN_CONFIG)
        doc[section] = dict(doc[section], params=dict(doc[section]["params"], bogus=1))
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"{section}.params: unknown keys ['bogus']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,doc",
        [
            ("top level", dict(FGR_CONFIG, sed=3)),
            ("problem", dict(FGR_CONFIG, problem=dict(FGR_CONFIG["problem"], parms={}))),
            ("method", dict(FGR_CONFIG, method=dict(FGR_CONFIG["method"], param={}))),
            ("mode", dict(FGR_CONFIG, mode=dict(FGR_CONFIG["mode"], horizn=5))),
            ("budget", dict(FGR_CONFIG, budget={"trails": 7})),
            ("output", dict(FGR_CONFIG, output={"curv": "c.csv"})),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, section, doc):
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"{section}: unknown keys" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,section,value",
        [
            ("problem.params: expected an object", "problem", {**FGR_CONFIG["problem"], "params": [1]}),
            ("method.params: expected an object", "method", {"name": "raven-rule", "params": [[1, 2, 3]]}),
            ("output.curve: expected a string", "output", {"curve": 5}),
            ("output.record: expected a string", "output", {"record": 5}),
        ],
        ids=["problem-params-list", "method-params-pairs", "curve-number", "record-number"],
    )
    def test_mistyped_params_and_output_paths_exit_2(self, tmp_path, capsys, key, section, value):
        path = write_config(tmp_path, dict(FGR_CONFIG, **{section: value}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "world_ids",
        ["p=0.5", ["p=0.5", 1], 5, {"p=0.5": 1}, [], ["p=0.5", "p=0.5"]],
        ids=["string", "non-string-entry", "number", "mapping", "empty", "repeated"],
    )
    def test_malformed_world_ids_exit_2(self, tmp_path, capsys, world_ids):
        doc = dict(FGR_CONFIG, mode=dict(FGR_CONFIG["mode"], world_ids=world_ids))
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "mode: world_ids must be a sequence of world id strings" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_trials_past_numpys_int64_bound_exit_2_before_any_work(self, tmp_path, capsys, where, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the curve ran")

        monkeypatch.setattr(cl.convergence, "success_curve", no_work)
        trials = 100000000000000000000000
        doc = dict(FGR_CONFIG, budget={"strategy": "mc", "trials": trials if where == "config" else 10})
        path = write_config(tmp_path, doc)
        flag = ["--trials", str(trials)] if where == "flag" else []
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), *flag, "--out", str(out)]) == 2
        assert "budget: trials must be at most 2**63 - 1" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_one_stages_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the mode I scan ran")

        monkeypatch.setattr(cl.convergence, "_zero_loss_scan", no_work)
        path = write_config(tmp_path, dict(RAVEN_CONFIG, mode=dict(RAVEN_CONFIG["mode"], stages=[40, 50])))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "mode I scans every stage to the horizon, so it takes no stages" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [[1], dict(RAVEN_CONFIG, mode=5)], ids=["list", "mode-number"])
    def test_override_of_a_malformed_config_exits_2(self, tmp_path, capsys, doc):
        path = write_config(tmp_path, doc)
        argv = ["run", "--config", str(path), "--horizon", "3", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem, method, depth, err",
        [
            ("fair-coin", "fair-coin-test", "4", "fair-coin-test"),
            ("coin-bias", "frequency-estimator", "-1", "depth must be >= 0"),
        ],
        ids=["categorical-method", "negative-depth"],
    )
    def test_malformed_cardinality_witness_exits_2(self, capsys, problem, method, depth, err):
        argv = ["witness", "--problem", problem, "--method", method, "--depth", depth]
        assert cli.main(argv) == 2
        assert err in capsys.readouterr().err

    def test_erm_on_a_problem_without_a_classifier_pool_exits_2(self, tmp_path, capsys):
        # coin-bias's hypothesis space is an interval, which holds no classifiers to iterate.
        doc = {"name": "cb-erm", "problem": {"name": "coin-bias"}, "method": {"name": "erm"},
               "mode": {"mode": "II", "delta": 0.1, "horizon": 5}}
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert "erm needs a classification problem" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["witness", "--problem", "coin-bias", "--method", "erm", "--depth", "3"]) == 2
        assert "erm needs a classification problem" in capsys.readouterr().err

    def test_a_cardinality_witness_past_the_enumeration_budget_exits_3(self, capsys, monkeypatch):
        # 2047 is the least depth whose (n - k, k) count rows outnumber 2**21 - 1: refused before any block call.
        def block(tokens, counts):
            raise AssertionError("the witness enumerated past its budget")

        spy = cl.InferenceMethod("frequency-estimator", cl.frequency_estimator.decide, decide_count_block=block)
        monkeypatch.setitem(cli._CATALOG_METHODS, "frequency-estimator", spy)
        argv = ["witness", "--problem", "coin-bias", "--method", "frequency-estimator", "--depth", "2047"]
        assert cli.main(argv) == 3
        assert "depth 2047: enumerating its inputs exceeds the budget of 2**21 - 1" in capsys.readouterr().err

    def test_erm_cardinality_witness_exits_2(self, tmp_path, capsys):
        # ERM reads (feature, label) examples, not the witness's binary tokens.
        path = write_config(tmp_path, ERM_CONFIG)
        assert cli.main(["witness", "--config", str(path), "--depth", "3"]) == 2
        err = capsys.readouterr().err
        assert "method 'erm': cardinality witness needs real-valued outputs, got Classifier" in err

    @pytest.mark.parametrize(
        "order", [5, [["all-0"]], "all-0", ["all-1", None]], ids=["number", "nested", "string", "null-entry"]
    )
    def test_malformed_hypothesis_order_exits_2(self, tmp_path, capsys, order):
        doc = dict(ERM_CONFIG, method={"name": "erm", "params": {"hypothesis_order": order}})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "method.params.hypothesis_order: expected a" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels", [[["a", 0], ["b", 0]], "a0", 5, None], ids=["pairs", "string", "number", "null"])
    def test_classifier_labels_that_are_not_an_object_exit_2(self, tmp_path, capsys, labels):
        params = json.loads(json.dumps(ERM_CONFIG["problem"]["params"]))
        params["classifiers"][0]["labels"] = labels
        doc = dict(ERM_CONFIG, problem={"name": "binary-classification", "params": params})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "classifiers.labels: expected an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    ALL_0, ALL_1 = ERM_CONFIG["problem"]["params"]["classifiers"]

    @pytest.mark.parametrize(
        "key, value, err",
        [
            # Rows summing to 1.25, of which a mapping would keep only the last ("a", 0) row.
            ("distributions", [[["a", 0, 0.25], ["a", 0, 0.5], ["b", 1, 0.5]]], "pair ['a', 0] listed twice"),
            ("classifiers", [ALL_0, ALL_1, {"name": "all-0", "labels": {"a": 1, "b": 0}}], "must each be distinct"),
            ("features", ["a", "b", "a"], "must each be distinct"),
            ("distributions", [[["a", True, 0.5], ["b", 0, 0.5]]], "outside the example space"),
            ("distributions", [[["a", 1.0, 0.5], ["b", 0, 0.5]]], "outside the example space"),
            ("classifiers", [ALL_0, {"name": "all-1", "labels": {"a": True, "b": 1.0}}], "the integers 0/1"),
        ],
        ids=["repeated-row", "repeated-classifier", "repeated-feature", "true-label", "float-label", "classifier-labels"],
    )
    def test_ambiguous_classification_params_exit_2(self, tmp_path, capsys, key, value, err):
        params = dict(ERM_CONFIG["problem"]["params"], **{key: value})
        doc = dict(ERM_CONFIG, problem={"name": "binary-classification", "params": params})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert err in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_an_empty_hypothesis_order_exits_2(self, tmp_path, capsys):
        doc = dict(ERM_CONFIG, method={"name": "erm", "params": {"hypothesis_order": []}})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "hypothesis order must list each classifier once, and at least one" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [5, None], ids=["number", "null"])
    def test_a_classifier_name_that_is_not_a_string_exits_2(self, tmp_path, capsys, name):
        # hypothesis_order names classifiers by string, so it could never name such a classifier.
        params = json.loads(json.dumps(ERM_CONFIG["problem"]["params"]))
        params["classifiers"][1]["name"] = name
        doc = dict(ERM_CONFIG, problem={"name": "binary-classification", "params": params})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"classifiers.name: expected a string, got {name!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_hypothesis_order_naming_a_classifier_twice_exits_2(self, tmp_path, capsys):
        doc = dict(ERM_CONFIG, method={"name": "erm", "params": {"hypothesis_order": ["all-0", "all-0"]}})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "hypothesis order must list each classifier once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps", ["1e999", 10**400], ids=["string", "integer"])
    def test_an_epsilon_past_the_largest_float_exits_2_before_any_work(self, tmp_path, capsys, eps, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the curve ran")

        monkeypatch.setattr(cl.convergence, "success_curve", no_work)
        doc = dict(MODE_THREE_CONFIG, mode=dict(MODE_THREE_CONFIG["mode"], epsilon=eps))
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "epsilon must not exceed the largest float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps", ["1e-400", "1e-999"])
    def test_an_epsilon_that_rounds_to_0_exits_2_before_any_work(self, tmp_path, capsys, eps, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the curve ran")

        monkeypatch.setattr(cl.convergence, "success_curve", no_work)
        doc = dict(MODE_THREE_CONFIG, mode=dict(MODE_THREE_CONFIG["mode"], epsilon=eps))
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "epsilon must not round to 0.0 as a float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_directory_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, RAVEN_CONFIG)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        assert cli.main(["run", "--config", str(path), "--out", str(blocker / "x")]) == 3
        assert "error" in capsys.readouterr().err


class TestParseConfig:
    def test_every_documented_key_is_read(self):
        doc = dict(
            FGR_CONFIG,
            mode=dict(FGR_CONFIG["mode"], epsilon=0.5, stages=[5, 40], world_ids=["p=0.5", "p=1"]),
            budget={
                "strategy": "mc", "exact_enum_cap": 64, "symmetric_exact_cap": 8, "trials": 50, "mc_margin": 2
            },
            workers=2,
            output={"curve": "c.csv", "record": "r.json"},
        )
        config = cli.parse_config(doc)
        assert config.mode.world_ids == ("p=0.5", "p=1")
        budget = config.budget
        assert (budget.exact_enum_cap, budget.symmetric_exact_cap) == (64, 8)
        assert (budget.strategy, budget.trials, budget.mc_margin) == ("mc", 50, 2)
        assert (config.workers, config.curve_path, config.record_path) == (2, "c.csv", "r.json")

    @pytest.mark.parametrize("key", ["seed", "workers"])
    def test_boolean_integers_are_rejected(self, key):
        with pytest.raises(cl.ConfigurationError, match=key):
            cli.parse_config(dict(RAVEN_CONFIG, **{key: True}))

    @pytest.mark.parametrize("margin", [-3.0, "nan", "inf"])
    def test_bad_mc_margin_is_rejected(self, margin):
        doc = dict(FGR_CONFIG, budget={"mc_margin": margin})
        with pytest.raises(cl.ConfigurationError, match="mc_margin"):
            cli.parse_config(doc)


class TestConfigNumberTypes:
    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("budget", "trials", 2.7),
            ("budget", "trials", True),
            ("budget", "trials", "500"),
            ("budget", "exact_enum_cap", 1024.0),
            ("budget", "symmetric_exact_cap", "64"),
            ("budget", "mc_margin", True),
            ("budget", "mc_margin", "3"),
            ("mode", "horizon", "10"),
            ("mode", "horizon", 10.9),
            ("mode", "horizon", True),
            ("mode", "stages", [1.9, 3]),
            ("mode", "stages", [1, "3"]),
            ("mode", "stages", 5),
        ],
    )
    def test_values_of_the_wrong_json_type_are_rejected(self, section, key, value):
        doc = dict(FGR_CONFIG, **{section: dict(FGR_CONFIG[section], **{key: value})})
        # ModeParams / Budget word the message; the config names the section first.
        with pytest.raises(cl.ConfigurationError, match=rf"^{section}\b.*\b{key}\b"):
            cli.parse_config(doc)
        assert doc[section][key] == value

    def test_integer_margin_too_large_for_a_float_is_rejected(self):
        with pytest.raises(cl.ConfigurationError, match="budget"):
            cli.parse_config(dict(FGR_CONFIG, budget={"mc_margin": 10**400}))

    def test_json_numbers_are_read(self):
        mode = dict(FGR_CONFIG["mode"], stages=[5, 40])
        doc = dict(FGR_CONFIG, budget={"trials": 500, "mc_margin": 2}, mode=mode)
        config = cli.parse_config(doc)
        assert (config.budget.trials, config.budget.mc_margin) == (500, 2)
        assert config.mode.stages == (5, 40)
        assert cli.parse_config(dict(doc, budget={"mc_margin": 2.5})).budget.mc_margin == 2.5

    def test_float_horizon_exits_2(self, tmp_path, capsys):
        doc = dict(FGR_CONFIG, mode={"mode": "II", "delta": 0.05, "horizon": 10.9})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert re.search(r"config error: mode\b.*\bhorizon\b", capsys.readouterr().err)


class TestProblemParamTypes:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("easy-raven", {"literal": "false"}),
            ("easy-raven", {"literal": 0}),
            ("easy-raven", {"max_first_zero": 2.7}),
            ("easy-raven", {"max_first_zero": "3"}),
            ("easy-raven", {"max_first_zero": True}),
            ("fair-coin", {"world_seed": 1.5}),
            ("coin-bias", {"world_seed": "7"}),
            ("fine-grained-raven", {"p_grid": [0.5], "world_seed": False}),
        ],
    )
    def test_values_of_the_wrong_json_type_are_rejected(self, name, params):
        key = next(k for k in params if k != "p_grid")
        with pytest.raises(cl.ConfigurationError, match=key):
            cli.build_problem(name, params)

    def test_json_booleans_and_integers_are_read(self):
        literal = cli.build_problem("easy-raven", {"literal": True, "max_first_zero": 2})
        assert [w.id for w in literal.worlds] == [w.id for w in cl.easy_raven(2, literal=True).worlds]
        seeded = cli.build_problem("fair-coin", {"world_seed": 5})
        assert seeded.world("theta=0.3").branch.prefix(40) == cl.fair_coin(seed=5).world(
            "theta=0.3"
        ).branch.prefix(40)

    def test_string_literal_exits_2(self, tmp_path, capsys):
        doc = dict(RAVEN_CONFIG, problem={"name": "easy-raven", "params": {"literal": "false"}})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "literal" in capsys.readouterr().err


MODE_THREE_CONFIG = {
    "name": "coin-mode3",
    "problem": {"name": "coin-bias", "params": {"theta_grid": [0.3, 0.5]}},
    "method": {"name": "frequency-estimator", "params": {}},
    "mode": {"mode": "III", "delta": 0.1, "epsilon": 0.2, "horizon": 30, "stages": [5, 30]},
    "budget": {"strategy": "auto", "symmetric_exact_cap": 10, "trials": 2000},
    "seed": 7,
}


class TestCurveCommand:
    @pytest.mark.parametrize("doc", [FGR_CONFIG, MODE_THREE_CONFIG], ids=["mode-II", "mode-III"])
    def test_curve_writes_the_bytes_run_writes(self, tmp_path, doc):
        path = write_config(tmp_path, doc)
        ran, curved = tmp_path / "run", tmp_path / "curve"
        assert cli.main(["run", "--config", str(path), "--out", str(ran)]) == 0
        assert cli.main(["curve", "--config", str(path), "--out", str(curved)]) == 0
        name = f"{doc['name']}-curve.csv"
        assert (curved / name).read_bytes() == (ran / name).read_bytes()
        assert sorted(p.name for p in curved.iterdir()) == [name]

    def test_mode_one_config_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, RAVEN_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(path), "--out", str(out)]) == 2
        assert "mode II or III" in capsys.readouterr().err
        assert not out.exists()


# Four fixed exact catalog configs: every point is an exact rational and nothing is drawn, so a changed
# byte is a changed value.  To regenerate after a deliberate change of output, print
# TestExactCurveBytes._digests(directory, name) for each name below, each into an empty directory, and
# paste the pairs into EXACT_PIN_DIGESTS.
EXACT_PIN_CONFIGS = {
    "fair-coin-full": {
        "problem": {"name": "fair-coin", "params": {"theta_grid": [0.35, 0.5, 0.55, 1], "world_seed": 5}},
        "method": {"name": "fair-coin-test", "params": {}},
        "mode": {"mode": "II", "delta": 0.05, "horizon": 200},
    },
    "coin-bias-mode3": {
        "problem": {"name": "coin-bias", "params": {"theta_grid": [0, 0.35, 0.5, 0.65, 1], "world_seed": 9}},
        "method": {"name": "frequency-estimator", "params": {}},
        "mode": {"mode": "III", "delta": 0.1, "epsilon": 0.1, "horizon": 400, "stages": list(range(10, 401, 10))},
    },
    "fair-coin-mode2": {
        "problem": {"name": "fair-coin", "params": {"theta_grid": [0.45, 0.5, 0.65], "world_seed": 3}},
        "method": {"name": "fair-coin-test", "params": {}},
        "mode": {"mode": "II", "delta": 0.1, "horizon": 500, "stages": list(range(20, 501, 20))},
    },
    "erm-exact": {
        "problem": {
            "name": "binary-classification",
            "params": {
                "features": ["a", "b"],
                "classifiers": [
                    {"name": "all-0", "labels": {"a": 0, "b": 0}},
                    {"name": "a-only", "labels": {"a": 1, "b": 0}},
                    {"name": "all-1", "labels": {"a": 1, "b": 1}},
                ],
                "distributions": [
                    [["a", 0, 0.05], ["a", 1, 0.35], ["b", 0, 0.45], ["b", 1, 0.15]],
                    [["a", 0, 0.15], ["a", 1, 0.05], ["b", 0, 0.35], ["b", 1, 0.45]],
                    [["a", 0, 0], ["a", 1, 0.5], ["b", 0, 0.25], ["b", 1, 0.25]],  # a zero-probability token
                ],
                "world_seed": 4,
            },
        },
        "method": {"name": "erm", "params": {}},
        "mode": {"mode": "III", "delta": 0.1, "epsilon": 0.05, "horizon": 6},
    },
}

# (SHA-256 of the curve CSV, SHA-256 of the record's status, witness and verdict rows) per config.
EXACT_PIN_DIGESTS = {
    "fair-coin-full": (
        "ab3a4df3f42ec9625ae8d57213754e1fd5766eb8b372219c9e4dce4e483e7bfd",
        "2a436f7520dc9d87dd06b9c225cdea92674e4a314ffb1c09a6376e978b035f1f",
    ),
    "coin-bias-mode3": (
        "d3b58a00cf83b851232fac2d4a39582626399e7a9e6d5fe03db76d2fd5e2491b",
        "fb99e323bfddf6d09b428c3d6f15cd4c2bae516675dca66837518d3ea321db0a",
    ),
    "fair-coin-mode2": (
        "4a381a0de5e5f9a8dfb9f10b29a51d92afb1e9a5256d573b76d6421e52b7414f",
        "acb3aa39b6cf0d55c4d9570371afe1998f6746bf7673af639c148b1aa70bc2cb",
    ),
    "erm-exact": (
        "1ca8304f9cdd238f08f7827705296379e24569b80afe9d8ef2102671ed2a1e5e",
        "b8d2c46fd92431db590c3ff3bd00bfbbc6dfeeb24321a9125a7b1dd46b87490e",
    ),
}


class TestExactCurveBytes:
    @staticmethod
    def _digests(tmp_path, name, config=None, workers=1) -> tuple[str, str]:
        doc = {"budget": {"strategy": "auto"}, **(config or EXACT_PIN_CONFIGS[name]), "name": name, "seed": 1, "workers": workers}
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / f"{name}-record.json").read_text())
        rows = json.dumps({k: record[k] for k in ("status", "witness_world", "verdicts")}, sort_keys=True)
        curve = (tmp_path / f"{name}-curve.csv").read_bytes()
        return hashlib.sha256(curve).hexdigest(), hashlib.sha256(rows.encode()).hexdigest()

    @pytest.mark.parametrize("name", sorted(EXACT_PIN_CONFIGS))
    def test_exact_curve_and_verdict_bytes_are_pinned(self, tmp_path, name):
        assert self._digests(tmp_path, name) == EXACT_PIN_DIGESTS[name]


# Two fixed Monte Carlo configs, pinned the same way at seed 1: a change to the draws, their order or the
# float expressions behind them changes these bytes.  The fair-coin curve judges the default grid's 13
# measures (theta = 0 and 1 among them) on histogram stages (n + 1 <= 250 count vectors) and one block
# stage; the ERM ladder's four-token laws (one with a zero-probability token) take the histogram up to
# n = 20 (C(n + 3, 3) <= 2000) and blocks above.  Each pin holds at one worker and at two.
MC_PIN_CONFIGS = {
    "fair-coin-mc": {
        "problem": {"name": "fair-coin", "params": {"world_seed": 8}},
        "method": {"name": "fair-coin-test", "params": {}},
        "mode": {"mode": "II", "delta": 0.1, "horizon": 300, "stages": [20, 60, 120, 200, 240, 300]},
        "budget": {"strategy": "mc", "trials": 250},
    },
    "erm-mc-ladder": {
        "problem": EXACT_PIN_CONFIGS["erm-exact"]["problem"],
        "method": {"name": "erm", "params": {}},
        "mode": {"mode": "III", "delta": 0.1, "epsilon": 0.05, "horizon": 100, "stages": [1, 2, 5, 10, 20, 50, 100]},
        "budget": {"strategy": "mc", "trials": 2000},
    },
}

MC_PIN_DIGESTS = {
    "erm-mc-ladder": (
        "c72e80490f8b3088be220a453d887ace278c1efd4f3cbbe1de22c1b17f6a65d8",
        "314da3c4db2fabf293133dda89ea62c917562ba3e4da2381e807b4e79ecc07a0",
    ),
    "fair-coin-mc": (
        "90310c6dda24565441fcb5b954ed20234875d52c7f7c3270d22868463b89c5c4",
        "86817a6cab2fbab1b32e38ed6dafff7995cea490ad96c75b18db8806a3ee67df",
    ),
}


class TestMonteCarloCurveBytes:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(MC_PIN_CONFIGS))
    def test_mc_curve_and_verdict_bytes_are_pinned(self, tmp_path, name, workers):
        digests = TestExactCurveBytes._digests(tmp_path, name, MC_PIN_CONFIGS[name], workers)
        assert digests == MC_PIN_DIGESTS[name]


class TestOtherSubcommands:
    def test_curve_success_set(self, tmp_path):
        doc = dict(FGR_CONFIG, mode={"mode": "II", "delta": 0.05, "horizon": 20, "stages": [1, 5, 10, 20]})
        path = write_config(tmp_path, doc)
        assert cli.main(["curve", "--config", str(path), "--kind", "success-set", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fgr-mode2-curve.csv").read_text().strip().splitlines()
        assert lines[0] == cli.CURVE_HEADER
        assert all(",success-set," in line for line in lines[1:])
        # Under strategy "mc" the point-mass world's rows stay exact; the IID worlds' are sampled.
        rows = [dict(zip(cli.CURVE_HEADER.split(","), line.split(","))) for line in lines[1:]]
        point_mass = {(r["estimate"], r["exact"]) for r in rows if r["world_id"] == "p=1"}
        assert point_mass == {("1.0", "true")}
        assert {r["exact"] for r in rows if r["world_id"] != "p=1"} == {"false"}

    def test_curve_success_set_on_worlds_without_a_measure(self, tmp_path):
        # Each world's rows are its exact lock indicator: first-zero-at-k locks at stage k.
        problem = {"name": "easy-raven", "params": {"max_first_zero": 4}}
        doc = dict(RAVEN_CONFIG, problem=problem, mode={"mode": "II", "delta": 0.05, "horizon": 6, "stages": [2, 4]})
        path = write_config(tmp_path, doc)
        assert cli.main(["curve", "--config", str(path), "--kind", "success-set", "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "raven-mode1-curve.csv").read_text().strip().splitlines()[1:]]
        assert [(r[2], r[3], r[5], r[7]) for r in rows if r[2] in ("first-zero-at-3", "all-ones")] == [
            ("first-zero-at-3", "2", "0.0", "true"),
            ("first-zero-at-3", "4", "1.0", "true"),
            ("all-ones", "2", "1.0", "true"),
            ("all-ones", "4", "1.0", "true"),
        ]

    def test_success_set_curve_reads_a_mode_one_configs_stages(self, tmp_path):
        path = write_config(tmp_path, dict(FGR_CONFIG, mode={"mode": "I", "horizon": 20, "stages": [10, 20]}))
        assert cli.main(["curve", "--config", str(path), "--kind", "success-set", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fgr-mode2-curve.csv").read_text().strip().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["10", "20"] * 4
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2

    def test_verify_ok_problem_exits_0(self, capsys):
        assert cli.main(["verify", "--problem", "easy-raven"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_catalog_config_exits_0(self, tmp_path, capsys):
        path = write_config(tmp_path, RAVEN_CONFIG)
        assert cli.main(["verify", "--config", str(path)]) == 0
        assert "easy-raven: all checks passed" in capsys.readouterr().out

    def test_verify_tied_minimizers_exit_1(self, tmp_path, capsys):
        # all-0 and identity each mislabel a quarter of the examples: two hypotheses at zero excess risk.
        params = {
            "features": ["a", "b"],
            "classifiers": [
                {"name": "all-0", "labels": {"a": 0, "b": 0}},
                {"name": "identity", "labels": {"a": 1, "b": 0}},
            ],
            "distributions": [[["a", 0, 0.25], ["a", 1, 0.25], ["b", 0, 0.5]]],
        }
        doc = dict(ERM_CONFIG, problem={"name": "binary-classification", "params": params})
        path = write_config(tmp_path, doc)
        assert cli.main(["verify", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "binary-classification/D0: second-zero-loss-hypothesis=" in out
        assert "binary-classification: violations found" in out

    def test_verify_needs_a_target(self):
        assert cli.main(["verify"]) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [(["bound", "--eps", "0.1", "--n-max", "3"], flag) for flag in ("--seed", "--horizon", "--trials", "--workers")]
        + [(["verify", "--problem", "easy-raven"], flag) for flag in ("--seed", "--horizon", "--trials", "--workers", "--out")]
        + [(["witness", "--problem", "fair-coin"], flag) for flag in ("--seed", "--trials", "--workers")],
    )
    def test_a_subcommand_rejects_a_flag_it_does_not_read(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as stop:
            cli.main([*argv, flag, "2"])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_verify_no_longer_validates_overrides_it_never_reads(self, tmp_path, capsys):
        # verify reads the config's problem only: "--trials 0" is an unknown flag, not a config error.
        path = write_config(tmp_path, RAVEN_CONFIG)
        with pytest.raises(SystemExit) as stop:
            cli.main(["verify", "--config", str(path), "--trials", "0"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --trials 0" in err and "config error" not in err
        assert cli.main(["verify", "--config", str(path)]) == 0

    def test_witness_reads_its_horizon(self, capsys):
        assert cli.main(["witness", "--problem", "fair-coin", "--horizon", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"]["prefix_equal_through"] == 8

    def test_witness_horizon_is_never_a_config_override(self, tmp_path, capsys):
        # A prefix length of 0 is a valid witness horizon, and no mode horizon.
        doc = dict(FGR_CONFIG, problem={"name": "fair-coin"}, method={"name": "fair-coin-test"})
        path = write_config(tmp_path, doc)
        assert cli.main(["witness", "--config", str(path), "--horizon", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"]["prefix_equal_through"] == 0

    @pytest.mark.parametrize("command", ["verify", "witness"])
    def test_config_excludes_a_catalog_problem(self, tmp_path, capsys, command):
        path = write_config(tmp_path, FGR_CONFIG)
        with pytest.raises(SystemExit) as stop:
            cli.main([command, "--config", str(path), "--problem", "easy-raven"])
        assert stop.value.code == 2
        assert "not allowed with argument --config" in capsys.readouterr().err

    def test_config_excludes_a_catalog_method(self, tmp_path, capsys):
        doc = dict(FGR_CONFIG, problem={"name": "coin-bias"}, method={"name": "frequency-estimator"})
        path = write_config(tmp_path, doc)
        argv = ["witness", "--config", str(path), "--method", "frequency-estimator", "--depth", "3"]
        assert cli.main(argv) == 2
        assert "--config names its own method" in capsys.readouterr().err

    def test_erm_with_explicit_hypothesis_order(self, tmp_path):
        doc = {
            "name": "erm-order",
            "problem": {
                "name": "binary-classification",
                "params": {
                    "features": ["a", "b"],
                    "classifiers": [
                        {"name": "all-0", "labels": {"a": 0, "b": 0}},
                        {"name": "identity", "labels": {"a": 1, "b": 0}},
                    ],
                    "distributions": [[["a", 1, 0.5], ["b", 0, 0.5]]],
                },
            },
            "method": {"name": "erm", "params": {"hypothesis_order": ["identity", "all-0"]}},
            "mode": {"mode": "III", "delta": 0.2, "epsilon": 0.1, "horizon": 30, "stages": [10, 30]},
            "budget": {"strategy": "mc", "trials": 2000},
            "seed": 5,
        }
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0

    def test_erm_on_a_coin_problem_exits_2(self, tmp_path):
        doc = dict(FGR_CONFIG, method={"name": "erm", "params": {}})
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestWorkerCap:
    def test_env_variable_caps_workers(self, monkeypatch):
        monkeypatch.setenv("CONVLAB_THREADS", "2")
        assert cl.resolve_workers(8) == 2
        monkeypatch.setenv("CONVLAB_THREADS", "junk")
        with pytest.raises(cl.InputDomainError):
            cl.resolve_workers(8)
        monkeypatch.delenv("CONVLAB_THREADS")
        assert cl.resolve_workers(8) == 8
        assert cl.resolve_workers(None) == 1

    @pytest.mark.parametrize("requested", ["x", "2", 2.7, 2.0, True, False])
    def test_a_bool_or_non_integral_request_is_rejected(self, monkeypatch, requested):
        monkeypatch.delenv("CONVLAB_THREADS", raising=False)
        with pytest.raises(cl.InputDomainError, match="workers must be an integer"):
            cl.resolve_workers(requested)
        fc = cl.fair_coin()
        with pytest.raises(cl.InputDomainError, match="workers must be an integer"):
            cl.success_curve(fc, cl.fair_coin_test, fc.worlds, cl.EXACT, 3, workers=requested)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_a_count_below_1_is_rejected_wherever_it_enters(self, monkeypatch, workers):
        monkeypatch.delenv("CONVLAB_THREADS", raising=False)
        fc = cl.fair_coin()
        with pytest.raises(cl.InputDomainError, match="workers must be >= 1"):
            cl.success_curve(fc, cl.fair_coin_test, fc.worlds, cl.EXACT, 3, workers=workers)
        with pytest.raises(cl.InputDomainError, match="workers must be >= 1"):
            cl.check_mode(fc, cl.fair_coin_test, cl.mode_params("II", 3, delta=0.1), workers=workers)
        with pytest.raises(cl.InputDomainError, match="workers must be >= 1"):  # mode I runs no curve
            cl.check_mode(cl.easy_raven(3), cl.raven_rule, cl.mode_params("I", 5), workers=workers)
        with pytest.raises(cl.ConfigurationError, match="workers must be >= 1"):
            cli.parse_config(dict(RAVEN_CONFIG, workers=workers))
        monkeypatch.setenv("CONVLAB_THREADS", str(workers))
        with pytest.raises(cl.InputDomainError, match="CONVLAB_THREADS must be >= 1"):
            cl.resolve_workers(4)

    def test_integral_requests_keep_their_meaning(self, monkeypatch):
        monkeypatch.delenv("CONVLAB_THREADS", raising=False)
        assert [cl.resolve_workers(w) for w in (None, 1, np.int64(3))] == [1, 1, 3]
        for w in (0, -3):
            with pytest.raises(cl.InputDomainError, match="workers must be >= 1"):
                cl.resolve_workers(w)


# Runs in a fresh interpreter, since pytest has numpy loaded: a meta-path finder notes the thread that
# first looks numpy up, then cli.main runs the argv; the last stdout line reports what loaded.
_FRESH_PROCESS = """
import json, sys, threading

first = []

class FirstNumpyLookup:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not first:
            first.append(threading.current_thread().name)

sys.meta_path.insert(0, FirstNumpyLookup())
from convlab import cli

rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"rc": rc, "numpy": "numpy" in sys.modules, "first": first[0] if first else None}))
"""

ERM_MC_CONFIG = dict(
    ERM_CONFIG,
    name="erm-mc-blocks",
    problem={
        "name": "binary-classification",
        "params": {
            "features": ["a", "b"],
            "classifiers": ERM_CONFIG["problem"]["params"]["classifiers"],
            "distributions": [
                [["a", 1, 0.1], ["a", 0, 0.4], ["b", 0, 0.4], ["b", 1, 0.1]],
                [["a", 1, 0.4], ["a", 0, 0.1], ["b", 0, 0.1], ["b", 1, 0.4]],
            ],
        },
    },
    # 4 tokens at n >= 20 make C(n + 3, 3) >= 1771 count vectors, past 500 trials: every stage is mc-block.
    mode={"mode": "III", "delta": 0.1, "epsilon": 0.05, "horizon": 60, "stages": [20, 40, 60]},
    budget={"strategy": "mc", "trials": 500},
    seed=3,
)


class TestNumpyLoadsOnFirstUse:
    @staticmethod
    def _fresh(*argv) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "CONVLAB_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cl.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS, *map(str, argv)], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def _run(self, tmp_path, doc, **changes) -> dict:
        tmp_path.mkdir(exist_ok=True)
        path = write_config(tmp_path, dict(doc, **changes), name=f"{doc['name']}.json")
        return self._fresh("run", "--config", path, "--out", tmp_path)

    def test_importing_convlab_loads_no_numpy(self):
        assert self._fresh() == {"rc": 0, "numpy": False, "first": None}

    @pytest.mark.parametrize("name", ["coin-bias-mode3", "fair-coin-mode2"])
    def test_an_exact_coin_run_loads_no_numpy(self, tmp_path, name):
        doc = dict(EXACT_PIN_CONFIGS[name], name=name, budget={"strategy": "auto"}, seed=1, workers=1)
        assert self._run(tmp_path, doc) == {"rc": 0, "numpy": False, "first": None}

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--eps", "0.1,0.05", "--n-max", "50"],
            ["verify", "--problem", "easy-raven"],
            ["witness", "--problem", "easy-raven"],
        ],
    )
    def test_bound_and_deterministic_branch_checks_load_no_numpy(self, tmp_path, argv):
        out = ["--out", tmp_path / "bounds.csv"] if argv[0] == "bound" else []
        assert self._fresh(*argv, *out) == {"rc": 0, "numpy": False, "first": None}

    def test_sampled_and_erm_runs_still_load_numpy(self, tmp_path):
        fc_mc = dict(EXACT_PIN_CONFIGS["fair-coin-mode2"], name="fc-mc", budget={"strategy": "mc", "trials": 200})
        assert self._run(tmp_path, fc_mc) == {"rc": 0, "numpy": True, "first": "MainThread"}
        erm = dict(EXACT_PIN_CONFIGS["erm-exact"], name="erm-exact", budget={"strategy": "auto"}, seed=1)
        assert self._run(tmp_path, erm) == {"rc": 0, "numpy": True, "first": "MainThread"}

    def test_a_first_import_in_pool_threads_gives_the_single_worker_bytes(self, tmp_path):
        two = self._run(tmp_path / "two", ERM_MC_CONFIG, workers=2)
        assert two["rc"] == 0 and two["numpy"] and two["first"].startswith("ThreadPoolExecutor")
        one = self._run(tmp_path / "one", ERM_MC_CONFIG, workers=1)
        assert one == {"rc": 0, "numpy": True, "first": "MainThread"}
        curve = "erm-mc-blocks-curve.csv"
        assert (tmp_path / "two" / curve).read_bytes() == (tmp_path / "one" / curve).read_bytes()
