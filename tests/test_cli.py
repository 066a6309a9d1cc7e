import hashlib
import json
import re
from pathlib import Path

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

    def test_seed_override_changes_the_digest_but_stays_reproducible(self, tmp_path):
        path = write_config(tmp_path, FGR_CONFIG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["run", "--config", str(path), "--seed", "99", "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--seed", "99", "--out", str(out2)]) == 0
        assert (out1 / "fgr-mode2-curve.csv").read_bytes() == (out2 / "fgr-mode2-curve.csv").read_bytes()
        rec = json.loads((out1 / "fgr-mode2-record.json").read_text())
        assert rec["seed"] == 99


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
        "world_ids", ["p=0.5", ["p=0.5", 1], 5], ids=["string", "non-string-entry", "number"]
    )
    def test_malformed_world_ids_exit_2(self, tmp_path, capsys, world_ids):
        doc = dict(FGR_CONFIG, mode=dict(FGR_CONFIG["mode"], world_ids=world_ids))
        path = write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "mode: world_ids must be a sequence of world id strings" in capsys.readouterr().err

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

    def test_erm_cardinality_witness_exits_2(self, tmp_path, capsys):
        # ERM reads (feature, label) examples, not the witness's binary tokens.
        path = write_config(tmp_path, ERM_CONFIG)
        assert cli.main(["witness", "--config", str(path), "--depth", "3"]) == 2
        assert "method 'erm'" in capsys.readouterr().err

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
        with pytest.raises(cl.ConfigurationError, match=f"{section}.{key}"):
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
        assert "mode.horizon" in capsys.readouterr().err


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

    def test_verify_ok_problem_exits_0(self, capsys):
        assert cli.main(["verify", "--problem", "easy-raven"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_needs_a_target(self):
        assert cli.main(["verify"]) == 2

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
