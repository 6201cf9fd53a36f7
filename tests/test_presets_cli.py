"""Preset construction and the command-line runner."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rcl
from rcl.cli import _FLAG_COMMANDS, RunConfig, load_summary_mechanism, main, run
from rcl.errors import ValidationError
from rcl.market import cara_optimal, market_model_from_json
from rcl.presets import build_preset_bundle

NAN = float("nan")


def edited_instance(edit):
    """The reinsurance_halfline instance document after `edit`."""
    doc = rcl.build_preset("reinsurance_halfline").to_json()
    edit(doc)
    return doc


class TestPresets:
    @pytest.mark.parametrize("name", [
        "reinsurance_halfline", "reinsurance_wholeline",
        "cara_hedging", "log_delegation",
    ])
    def test_presets_validate(self, name):
        inst = rcl.build_preset(name)
        assert rcl.validate_instance(inst) is inst

    def test_halfline_uses_no_shortsale_bounds(self):
        inst = rcl.build_preset("reinsurance_halfline")
        np.testing.assert_array_equal(inst.contract_lo, -inst.e_a)
        np.testing.assert_array_equal(inst.contract_hi, inst.e_p)

    @pytest.mark.parametrize("name, param", [
        ("reinsurance_wholeline", "gamma"),
        ("reinsurance_wholeline", "agent_family"),
        ("cara_hedging", "n_priors"),
    ])
    def test_fixed_settings_are_not_parameters(self, name, param):
        with pytest.raises(ValidationError, match=f"no parameter '{param}'"):
            rcl.build_preset(name, {param: 1})

    def test_wholeline_crra_passes_screen(self):
        inst = build_preset_bundle("reinsurance_wholeline").instance
        assert (inst.u.family, inst.u.gamma) == ("crra", 0.5)
        assert rcl.ae_check(inst.u).estimate == pytest.approx(0.5, abs=1e-3)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="unknown preset"):
            rcl.build_preset("nope")

    def test_unknown_param(self):
        with pytest.raises(ValidationError, match="no parameter"):
            rcl.build_preset("cara_hedging", {"bogus": 1})
        with pytest.raises(ValidationError, match="no parameter 'v_alpha'"):
            rcl.build_preset("reinsurance_wholeline", {"v_alpha": 0.5})

    def test_market_presets_have_linear_ic_structure(self):
        bundle = build_preset_bundle("cara_hedging")
        inst = bundle.instance
        assert inst.u.family == "linear"
        np.testing.assert_array_equal(inst.e_a, 0.0)
        np.testing.assert_array_equal(inst.reservation, 0.0)
        assert market_model_from_json(bundle.market) is not None

    def test_market_labels_gain_digits_only_to_stay_distinct(self):
        # 128 even slopes in +-0.35 lie 0.0055 apart: two decimals would
        # give equal labels, which validation rejects; three tell them apart
        slopes = np.linspace(-0.35, 0.35, 128)
        bundle = build_preset_bundle("cara_hedging", {"slopes": slopes})
        labels = [agent.label for agent in bundle.instance.types]
        assert len(set(labels)) == 128 and labels[:2] == ["slope=-0.350", "slope=-0.344"]
        assert [drift["label"] for drift in bundle.market["drift_types"]] == labels
        assert [agent.label for agent in rcl.build_preset("cara_hedging").types] == [
            "slope=+0.00", "slope=+0.35", "slope=-0.35"]

    def test_cara_hedging_solver_reproduces_closed_form_benchmark(self):
        # one flat type: the optimum binds participation, so the agent's
        # indirect utility equals the no-trade closed form
        bundle = build_preset_bundle("cara_hedging", {"slopes": (0.0,)})
        uu = rcl.to_utility_units(bundle.instance)
        res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=1500))
        assert res.converged
        model = market_model_from_json(bundle.market)
        e_a = np.full(model.n_nodes, bundle.market["e_a"])
        alpha = bundle.market["alpha"]
        density = rcl.tilted_density(model, 0)
        _, realized = cara_optimal(density, e_a + res.mechanism.assignment[0], alpha)
        _, benchmark = cara_optimal(density, e_a, alpha)
        assert realized == pytest.approx(benchmark, abs=1e-9)


class TestCli:
    def test_solve_deterministic_and_exit_zero(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg = dict(command="solve", preset="reinsurance_halfline", max_iters=300)
        assert run(RunConfig(out=str(out1), **cfg)) == 0
        assert run(RunConfig(out=str(out2), **cfg)) == 0
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize("preset, argv", [
        *((preset, argv) for preset in ("reinsurance_halfline", "reinsurance_wholeline")
          for argv in (["solve", "--max-iters", "50"], ["oracle", "--levels", "2"],
                       ["menu", "--levels", "2"], ["equivalence", "--levels", "2"],
                       ["ae-check"])),
        *((preset, argv) for preset in ("cara_hedging", "log_delegation")
          for argv in (["solve", "--max-iters", "50"], ["ae-check"],
                       ["market", "--beta", "0.25,1.0"])),
    ])
    def test_result_json_is_json_dumps_bytes(self, tmp_path, preset, argv):
        # the writer gives json.dumps(indent=2, sort_keys=True)'s bytes
        assert main([*argv, "--preset", preset, "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "result.json").read_text()
        assert json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n" == raw

    def test_summary_roundtrips_to_feasible_mechanism(self, tmp_path):
        out = tmp_path / "run"
        assert run(RunConfig(command="solve", preset="reinsurance_halfline",
                             out=str(out), max_iters=300)) == 0
        mech = load_summary_mechanism(out / "summary.csv")
        inst = rcl.build_preset("reinsurance_halfline")
        uu = rcl.to_utility_units(inst)
        system = rcl.build_system(uu)
        assert rcl.check_mechanism(system, mech).feasible

    def test_trace_schema(self, tmp_path):
        # one iter,bound row per dual iteration; result.json certifies the gap
        out = tmp_path / "run"
        assert run(RunConfig(command="solve", preset="reinsurance_halfline",
                             out=str(out))) == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        result = json.loads((out / "result.json").read_text())["result"]
        assert rows[0] == ["iter", "bound"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, result["iterations"] + 1))
        assert min(float(r[1]) for r in rows[1:]) >= result["value"] - 1e-12
        assert result["gap"] == result["bound"] - result["value"]
        assert result["converged"] and -1e-12 <= result["gap"] <= 1e-8

    def test_clamped_atoms_reported(self, tmp_path, capsys):
        # the halfline preset floors wealth at the lower bound on every atom
        out = tmp_path / "run"
        run(RunConfig(command="solve", preset="reinsurance_halfline",
                      out=str(out), max_iters=20))
        doc = json.loads((out / "result.json").read_text())
        assert doc["clamped_atoms"] == [0, 1]
        assert "wealth floored" in capsys.readouterr().err

    def test_missing_input_is_input_error(self, tmp_path):
        assert run(RunConfig(command="solve", out=str(tmp_path / "x"))) == 1
        assert run(RunConfig(command="solve", preset="reinsurance_halfline",
                             instance="also.json", out=str(tmp_path / "y"))) == 1

    def test_malformed_instance_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        # one reader for both documents, so one message
        message = f"error: invalid JSON in {bad}: Expecting value: line 1 column 1 (char 0)\n"
        assert run(RunConfig(command="solve", instance=str(bad),
                             out=str(tmp_path / "z"))) == 1
        assert capsys.readouterr().err == message
        assert main(["market", "--instance", str(bad), "--out", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err == message
        missing = tmp_path / "missing.json"
        assert run(RunConfig(command="solve", instance=str(missing),
                             out=str(tmp_path / "w"))) == 1

    def test_market_on_a_preset_without_a_market_model(self, tmp_path, capsys):
        out = tmp_path / "m"
        assert main(["market", "--preset", "reinsurance_halfline", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: preset 'reinsurance_halfline' carries no market model; "
            "use cara_hedging or log_delegation\n")
        assert not (out / "result.json").exists()

    def test_unknown_command_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "u"
        assert run(RunConfig(command="bogus", preset="reinsurance_halfline",
                             out=str(out))) == 1
        assert capsys.readouterr().err == "error: unknown command 'bogus'\n"
        assert not (out / "result.json").exists()

    def test_oracle_cap_exit_and_message(self, tmp_path, capsys):
        code = run(RunConfig(command="oracle", preset="reinsurance_halfline",
                             levels=60, out=str(tmp_path / "o")))
        assert code == 1
        assert "12960000" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--instance", "{missing}"],
         "i/o error: [Errno 2] No such file or directory: '{missing}'"),
        (["solve", "--instance", "{bad}"], "error: invalid JSON in {bad}: Expecting value"),
        (["market", "--preset", "reinsurance_halfline"],
         "error: preset 'reinsurance_halfline' carries no market model"),
        (["oracle", "--preset", "reinsurance_halfline", "--levels", "60"],
         "error: 12960000 grid assignments"),
    ], ids=["missing_instance", "malformed_instance", "market_without_model", "oracle_cap"])
    def test_input_error_leaves_no_output_directory(self, tmp_path, capsys, argv, message):
        # the directory is made only when result.json is written
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        paths = {"missing": tmp_path / "missing.json", "bad": bad}
        out = tmp_path / "out"
        assert main([*(arg.format(**paths) for arg in argv), "--out", str(out)]) == 1
        # the halfline preset's wealth-floor warning may come first
        assert capsys.readouterr().err.splitlines()[-1].startswith(message.format(**paths))
        assert not out.exists()

    def test_oracle_and_menu_and_equivalence(self, tmp_path):
        for command in ("oracle", "menu", "equivalence"):
            out = tmp_path / command
            code = run(RunConfig(command=command, preset="reinsurance_halfline",
                                 levels=2, out=str(out)))
            assert code == 0
            doc = json.loads((out / "result.json").read_text())
            assert doc["config"]["command"] == command
            assert (out / "summary.csv").exists()
        eq_doc = json.loads((tmp_path / "equivalence" / "result.json").read_text())
        assert eq_doc["report"]["equal"] is True

    def test_oracle_result_body(self, tmp_path):
        # the space the oracle covered, not a solver's iterations or a
        # constant convergence flag (test_trace_schema pins solve's body)
        out = tmp_path / "oracle"
        assert main(["oracle", "--preset", "reinsurance_halfline", "--levels", "2",
                     "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())["result"]
        assert set(result) == {"value", "worst_prior", "assignments", "feasibility",
                               "mechanism"}
        assert result["assignments"] == 2 ** (2 * 2)  # levels^(atoms*types)

    def test_equivalence_on_instance_file(self, tmp_path, rng):
        from conftest import make_instance

        inst = make_instance(rng, m=2, n=2)
        path = tmp_path / "inst.json"
        rcl.save_instance(inst, path)
        out = tmp_path / "eq"
        assert run(RunConfig(command="equivalence", instance=str(path),
                             levels=2, out=str(out))) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["report"]["gap"] <= 1e-9

    def test_ae_check_command(self, tmp_path):
        out = tmp_path / "ae"
        assert run(RunConfig(command="ae-check", preset="reinsurance_wholeline",
                             out=str(out))) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["report"]["passed"] is True

    def test_market_command_with_preset(self, tmp_path):
        out = tmp_path / "mkt"
        code = run(RunConfig(command="market", preset="log_delegation",
                             beta=(0.5, 1.0), out=str(out)))
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert len(doc["types"]) == 3
        flat = doc["types"][0]
        assert flat["cara"]["oracle_gap"] <= 1e-7
        assert flat["log"]["oracle_gap"] <= 1e-7
        assert set(flat["delegation"]) == {"0.5", "1.0"}

    def test_market_preset_and_its_document_take_one_path(self, tmp_path):
        # a market preset is a market document: running the preset and running
        # --instance on its own document report the same model and types
        flags = ["--alpha", "1.7", "--beta", "0.25,1.0"]
        path = tmp_path / "log_delegation.json"
        path.write_text(json.dumps(build_preset_bundle("log_delegation").market))
        reports = []
        for source in (["--preset", "log_delegation"], ["--instance", str(path)]):
            out = tmp_path / source[0].lstrip("-")
            assert main(["market", *source, *flags, "--out", str(out)]) == 0
            reports.append(json.loads((out / "result.json").read_text()))
        for key in ("horizon", "n_nodes", "types"):
            assert reports[0][key] == reports[1][key]

    def test_market_command_with_instance_json(self, tmp_path):
        doc = {
            "horizon": 1.0,
            "n_nodes": 8,
            "e_a": 1.0,
            "e_p": 2.0,
            "alpha": 1.5,
            "beta": [0.5],
            "drift_types": [
                {"label": "flat", "slope": 0.0},
                {"label": "tilt", "slope": 0.3, "support": 1.0},
            ],
        }
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "mkt"
        assert run(RunConfig(command="market", instance=str(path), out=str(out))) == 0
        report = json.loads((out / "result.json").read_text())
        assert [t["label"] for t in report["types"]] == ["flat", "tilt"]
        assert report["types"][1]["normalizer_gap"] >= 0.0

    def test_market_explicit_zero_alpha_is_rejected(self, tmp_path, capsys):
        # --alpha 0 must reach cara_optimal, not fall back to the document's alpha
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"n_nodes": 4, "alpha": 1.5,
                                    "drift_types": [{"slope": 0.1}]}))
        out = tmp_path / "mkt"
        code = main(["market", "--instance", str(path), "--alpha", "0", "--out", str(out)])
        assert code == 1
        assert "alpha must be positive" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_market_document_without_drift_types(self, tmp_path):
        # no type reaches a closed form or the oracle, so alpha goes unchecked
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"n_nodes": 4, "alpha": -1.0}))
        out = tmp_path / "mkt"
        assert main(["market", "--instance", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["types"] == []

    def test_market_oracle_non_convergence_is_input_error(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(rcl.market, "ORACLE_STEPS", 0)
        out = tmp_path / "mkt"
        assert main(["market", "--preset", "log_delegation", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: could not bracket the budget multiplier\n"
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("command", ["oracle", "menu", "equivalence"])
    def test_explicit_zero_levels_is_rejected(self, tmp_path, capsys, command):
        code = run(RunConfig(command=command, preset="reinsurance_halfline",
                             levels=0, out=str(tmp_path / command)))
        assert code == 1
        assert "levels_per_atom must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"n_nodes": 4, "drift_types": [{"label": "t"}]}, "drift_types[0].slope"),
        ({"nodes": [-1.0, 1.0]}, "weights"),
        ({"n_nodes": "abc"}, "n_nodes"),
        ([{"n_nodes": 4}], "JSON object"),
        ({"n_nodes": 4, "drift_types": {"t": {"slope": 0.1}}}, "drift_types"),
        ({"n_nodes": 4, "e_a": "rich"}, "e_a"),
        ({"n_nodes": 4, "alpha": [1.0, 2.0]}, "alpha"),
        ({"n_nodes": 4, "beta": ["half"]}, "beta"),
    ], ids=["drift_without_slope", "nodes_without_weights", "bad_n_nodes", "list",
            "drift_types_object", "bad_e_a", "bad_alpha", "bad_beta"])
    def test_malformed_market_document_is_input_error(self, tmp_path, capsys, doc, field):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        code = main(["market", "--instance", str(path), "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("doc, flags", [
        ({"alpha": NAN}, []),
        ({"e_a": [1.0, NAN]}, []),
        ({"e_p": NAN}, []),
        ({"nodes": [-1.0, 1.0], "weights": [NAN, NAN]}, []),
        ({"nodes": [NAN, NAN], "weights": [0.5, 0.5]}, []),
        ({"nodes": [-1.0, 1.0], "weights": [0.5, 0.5], "horizon": NAN}, []),
        ({"horizon": NAN}, []),
        ({}, ["--alpha", "nan"]),
        ({}, ["--alpha", "inf"]),
    ], ids=["alpha", "e_a", "e_p", "weights", "nodes", "horizon_grid", "horizon",
            "flag_alpha_nan", "flag_alpha_inf"])
    def test_non_finite_market_input_is_input_error(self, tmp_path, capsys, doc, flags):
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"n_nodes": 2, "drift_types": [{"slope": 0.1}], **doc}))
        out = tmp_path / "m"
        code = main(["market", "--instance", str(path), *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("solve", edited_instance(lambda d: d["states"].pop("ref_prob")),
         "missing field states.ref_prob"),
        ("solve", edited_instance(lambda d: d["types"][0].pop("density")),
         "missing field types[0].density"),
        ("solve", edited_instance(lambda d: d["beliefs"].pop("priors")),
         "missing field beliefs.priors"),
        ("solve", edited_instance(lambda d: d["principal_belief"].pop("density")),
         "missing field principal_belief.density"),
        ("solve", edited_instance(lambda d: d["u"].pop("family")), "missing field u.family"),
        ("solve", edited_instance(lambda d: d["bounds"].pop("lo")), "missing field bounds.lo"),
        ("solve", edited_instance(lambda d: d.update(e_a="rich")),
         "e_a: could not convert string to float: 'rich'"),
        ("solve", edited_instance(lambda d: d.update(states=[0.5, 0.5])),
         "states: list indices must be integers or slices, not str"),
        # an object was walked by its keys: `types[0]: string indices must be integers`
        ("solve", edited_instance(lambda d: d.update(types={"a": {"density": [1.0, 1.0]}})),
         "types must be a list of objects"),
        ("solve", edited_instance(lambda d: d.update(types=["theta0"])),
         "types must be a list of objects"),
        ("market", {"n_nodes": 2, "drift_types": [{"label": "r", "values": [0.1, NAN]}]},
         "drift type r: values must be finite"),
        ("market", {"n_nodes": 2, "drift_types": [{"slope": 0.1, "support": 0.0}]},
         "support must be positive"),
        ("market", {"nodes": [-1.0, 0.0, 1.0], "weights": [0.5, 0.5]},
         "nodes and weights must be 1-d arrays of equal length"),
        ("market", {"n_nodes": 4, "e_a": [1.0, 2.0]},
         "e_a must be a scalar or one value per node (4)"),
        # negative weights summing to 1 gave a negative relative entropy
        ("market", {"nodes": [-1, 1], "weights": [1.5, -0.5], "drift_types": [{"slope": 0.1}]},
         "weights must be positive"),
        ("market", {"nodes": [-1, 1], "weights": [1.0, 0.0]}, "weights must be positive"),
        ("market", {"n_nodes": 12.9}, "n_nodes: must be a whole number, not 12.9"),
        ("market", {"n_nodes": "12"}, "n_nodes: must be a whole number, not '12'"),
        ("market", {"n_nodes": True}, "n_nodes: must be a whole number, not True"),
    ], ids=["ref_prob", "type_density", "priors", "principal_density", "u_family",
            "bounds_lo", "bad_e_a", "states_list", "types_object", "types_strings",
            "drift_values", "support",
            "nodes_weights", "e_a_length", "negative_weights", "zero_weight", "fractional_n_nodes",
            "string_n_nodes", "bool_n_nodes"])
    def test_bad_document_names_the_field(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main([command, "--instance", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["ae-check", "--preset", "cara_hedging", "--alpha", "3"], "--alpha"),
        (["solve", "--preset", "reinsurance_halfline", "--levels", "3"], "--levels"),
        (["oracle", "--preset", "reinsurance_halfline", "--tol", "1e-9"], "--tol"),
        (["menu", "--preset", "reinsurance_halfline", "--max-iters", "5"], "--max-iters"),
        (["equivalence", "--preset", "reinsurance_halfline", "--beta", "0.5"], "--beta"),
        (["market", "--preset", "cara_hedging", "--levels", "2"], "--levels"),
    ], ids=["alpha_ae_check", "levels_solve", "tol_oracle", "max_iters_menu",
            "beta_equivalence", "levels_market"])
    def test_flag_the_command_does_not_use_is_rejected(self, tmp_path, capsys, argv, flag):
        # an ignored flag was echoed in config as if it had been applied
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} does not apply to {argv[0]}\n"
        assert not out.exists()

    def test_every_optional_flag_is_checked(self):
        # a flag missing from _FLAG_COMMANDS would bypass _check_flags
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert fields - {"command", "preset", "instance", "out"} == set(_FLAG_COMMANDS)

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        # no command is random, so no flag pretends to seed one
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--preset", "reinsurance_halfline", "--seed", "1",
                  "--out", str(tmp_path / "s")])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_whole_float_n_nodes_is_valid(self, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"n_nodes": 12.0, "drift_types": [{"slope": 0.1}]}))
        out = tmp_path / "m"
        assert main(["market", "--instance", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["n_nodes"] == 12

    @pytest.mark.parametrize("command", ["menu", "equivalence"])
    def test_menu_cap_checked_before_the_grid(self, tmp_path, capsys, monkeypatch, command):
        # 10 ** 12 candidates: the grid alone would take 7 TiB
        import rcl.cli as cli_mod

        def no_grid(*args):
            raise AssertionError("the candidate grid was built")

        monkeypatch.setattr(cli_mod, "grid_contracts", no_grid)
        code = main([command, "--preset", "cara_hedging", "--levels", "10",
                     "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "of 1000000000000 candidates exceed the menu cap" in err

    def test_market_computes_one_density_per_type(self, tmp_path, monkeypatch):
        calls = []
        original = rcl.market.tilted_density

        def counted(model, f_index):
            calls.append(f_index)
            return original(model, f_index)

        monkeypatch.setattr(rcl.market, "tilted_density", counted)
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"n_nodes": 8, "beta": [0.25, 0.5, 1.0], "drift_types": [
            {"slope": 0.0}, {"slope": 0.3}, {"slope": -0.3}]}))
        assert main(["market", "--instance", str(path), "--out", str(tmp_path / "m")]) == 0
        assert calls == [0, 1, 2]

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_input_error(self, tmp_path, capsys, tol):
        # at an infinite tol every mechanism would read as certified
        out = tmp_path / "s"
        code = main(["solve", "--preset", "reinsurance_halfline", "--tol", tol,
                     "--out", str(out)])
        assert code == 1
        assert "error: tol must be positive and finite" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        # exit code 2 is reserved for an honest non-converged solve
        import rcl.cli as cli_mod

        def fake_solve(uu, opts):
            res = rcl.solve_mechanism(uu, rcl.SolveOptions(max_iters=5))
            res.converged = False
            return res

        monkeypatch.setattr(cli_mod, "solve_mechanism", fake_solve)
        code = run(RunConfig(command="solve", preset="reinsurance_halfline",
                             out=str(tmp_path / "nc")))
        assert code == 2

    def test_parse_args_beta_list(self):
        from rcl.cli import parse_args

        cfg = parse_args(["market", "--preset", "cara_hedging",
                          "--beta", "0.25,0.5", "--alpha", "2.0"])
        assert cfg.beta == (0.25, 0.5)
        assert cfg.alpha == 2.0

    @pytest.mark.parametrize("argv", [
        ["market", "--preset", "cara_hedging", "--beta", "abc"],
        ["oracle", "--preset", "reinsurance_halfline", "--levels", "abc"],
        ["market", "--preset", "cara_hedging", "--alpha", "x"],
    ], ids=["beta", "levels", "alpha"])
    def test_bad_flag_is_input_error(self, tmp_path, capsys, argv):
        # exit 2 means non-convergence, so a usage error must not use it
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert "error: argument" in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_help_exits_zero(self, capsys):
        from rcl.cli import parse_args

        with pytest.raises(SystemExit) as exc:
            parse_args(["--help"])
        assert exc.value.code == 0
        assert "usage: rcl" in capsys.readouterr().out

    def test_one_parser_carries_nothing_between_parses(self):
        # parse_args reuses one parser; each parse equals one by a new parser
        from rcl.cli import _parser, parse_args

        def fresh(argv):
            return RunConfig(**vars(_parser.__wrapped__().parse_args(argv)))

        first = ["market", "--preset", "cara_hedging", "--beta", "0.25,0.5",
                 "--alpha", "2.0", "--out", "m"]
        second = ["oracle", "--instance", "inst.json", "--levels", "3"]
        third = ["solve", "--preset", "reinsurance_halfline", "--max-iters", "7",
                 "--tol", "1e-6"]
        for argv in (first, second, third, first):
            assert parse_args(argv) == fresh(argv)
        assert parse_args(second) == RunConfig(command="oracle", instance="inst.json", levels=3)
        assert _parser() is _parser()

    def test_bad_flag_after_a_good_parse_prints_usage(self, capsys):
        from rcl.cli import parse_args

        parse_args(["oracle", "--preset", "reinsurance_halfline", "--levels", "3"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            parse_args(["oracle", "--preset", "reinsurance_halfline", "--levels", "x"])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: rcl [-h]")
        assert "error: argument --levels: invalid int value: 'x'" in err

    def test_help_text_is_that_of_a_new_parser(self, capsys, monkeypatch):
        from rcl.cli import _parser, parse_args

        monkeypatch.setenv("COLUMNS", "80")
        parse_args(["market", "--preset", "cara_hedging", "--beta", "0.5"])
        with pytest.raises(SystemExit):
            parse_args(["--help"])
        assert capsys.readouterr().out == _parser.__wrapped__().format_help()


# a benchmark input (perfbench `certify`, seed 310, `inst_2x3`) whose two-level
# grid optimum pools, so both priors' totals are equal in exact arithmetic
POOLING_2X3 = {
    "beliefs": {"penalties": [0.0, 0.0],
                "priors": [[0.32960128910183534, 0.34081722789074864, 0.32958148300741597],
                           [0.6039003090893844, 0.19632111682903133, 0.1997785740815842]]},
    "bounds": {"hi": [1.627599781443605, 1.2838099004803631],
               "lo": [-0.7848889391856829, -1.0059065234809088]},
    "e_a": [0.9811111739821036, 1.257383154351136],
    "e_p": [2.034499726804506, 1.6047623756004539],
    "principal_belief": {"density": [0.9821027930771453, 1.0171203080572613],
                         "label": "principal"},
    "reservation": [0.15773933442399377, 0.10780774402134957, 0.05868825313737076],
    "states": {"atoms": ["s0", "s1"], "ref_prob": [0.4889069960270696, 0.5110930039729304]},
    "types": [{"density": [0.5877494763907708, 1.3943551634274565], "label": "theta0"},
              {"density": [0.9993903915512403, 1.0005831459893189], "label": "theta1"},
              {"density": [1.4043362788472038, 0.6132155323213538], "label": "theta2"}],
    "u": {"domain": "half-line", "family": "log"},
    "v": {"alpha": 1.0, "domain": "half-line", "family": "cara"},
}


def test_pooling_oracle_reports_the_first_worst_prior(tmp_path):
    # rounding left prior 1's total a hair below prior 0's; within the
    # rounding bound the lowest prior is reported
    path = tmp_path / "inst_2x3.json"
    path.write_text(json.dumps(POOLING_2X3))
    out = tmp_path / "o"
    assert main(["oracle", "--instance", str(path), "--levels", "2", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())["result"]
    assignment = np.array(result["mechanism"]["assignment"])
    assert (assignment == assignment[0]).all()
    assert result["worst_prior"] == 0


# benchmark inputs (perfbench `certify`, seeds 302 and 303, `inst_2x2`) whose
# mechanism value, summed type by type, was one ulp off the menu value
EQUIVALENCE_2X2 = {
    302: {
        "beliefs": {"penalties": [0.0, 0.0],
                    "priors": [[0.4979690851660591, 0.5020309148339409],
                               [0.6011562368521678, 0.3988437631478322]]},
        "bounds": {"hi": [1.627092796404069, 1.2713332778903517],
                   "lo": [-0.8046607490984535, -1.0160920155232736]},
        "e_a": [1.0058259363730668, 1.2701150194040918],
        "e_p": [2.033865995505086, 1.5891665973629394],
        "principal_belief": {"density": [1.0115850709296315, 0.9859275346834533],
                             "label": "principal"},
        "reservation": [0.15893956881340973, 0.06623685419635279],
        "states": {"atoms": ["s0", "s1"], "ref_prob": [0.5484729781349462, 0.4515270218650538]},
        "types": [{"density": [0.6265178082437832, 1.4536713863696966], "label": "theta0"},
                  {"density": [1.350996133300639, 0.5736425834492193], "label": "theta1"}],
        "u": {"domain": "half-line", "family": "log"},
        "v": {"alpha": 1.0, "domain": "half-line", "family": "cara"},
    },
    303: {
        "beliefs": {"penalties": [0.0, 0.0],
                    "priors": [[0.49681677459956397, 0.5031832254004359],
                               [0.5979181044184916, 0.40208189558150836]]},
        "bounds": {"hi": [1.6295030705420566, 1.3008196777644572],
                   "lo": [-0.8069933517301149, -1.013953436826047]},
        "e_a": [1.0087416896626435, 1.2674417960325588],
        "e_p": [2.0368788381775706, 1.6260245972055714],
        "principal_belief": {"density": [0.9878557011125368, 1.011741637482858],
                             "label": "principal"},
        "reservation": [0.17068199331767903, 0.07855259019535123],
        "states": {"atoms": ["s0", "s1"], "ref_prob": [0.49157116140722995, 0.50842883859277]},
        "types": [{"density": [0.5909472085109877, 1.39549006768709], "label": "theta0"},
                  {"density": [1.4118882621255109, 0.6017684757154095], "label": "theta1"}],
        "u": {"domain": "half-line", "family": "log"},
        "v": {"alpha": 1.0, "domain": "half-line", "family": "cara"},
    },
}


@pytest.mark.parametrize("seed", sorted(EQUIVALENCE_2X2))
def test_equivalence_gap_is_exactly_zero(tmp_path, seed):
    # menus and mechanisms are scored by one reduction of per-type values
    path = tmp_path / "inst_2x2.json"
    path.write_text(json.dumps(EQUIVALENCE_2X2[seed]))
    out = tmp_path / "e"
    assert main(["equivalence", "--instance", str(path), "--levels", "4",
                 "--out", str(out)]) == 0
    report = json.loads((out / "result.json").read_text())["report"]
    assert report["mechanism_value"] == report["menu_value"]
    assert report["gap"] == 0.0


def test_cli_import_loads_no_scipy_and_no_logging():
    # every `rcl` command, and every benchmark set-up, pays for importing
    # rcl.cli; scipy is imported only where a solve, a projection or a
    # tabulated utility runs, and logging not at all
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rcl.__file__).resolve().parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    probe = ("import sys, rcl.cli; print(sorted(name for name in sys.modules "
             "if name.partition('.')[0] in ('scipy', 'logging')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_outputs_independent_of_blas_threads(tmp_path, rng):
    # oracle, menu, equivalence and market write every file byte for byte
    # the same under one and two BLAS threads; only `solve` may differ
    # (README §Outputs)
    from conftest import make_instance

    inst = tmp_path / "inst.json"
    rcl.save_instance(make_instance(rng, m=3, n=3, n_priors=3, random_penalties=True), inst)
    argvs = [
        ["oracle", "--preset", "reinsurance_halfline", "--levels", "20"],
        ["oracle", "--instance", str(inst), "--levels", "3"],
        ["menu", "--instance", str(inst), "--levels", "2"],
        ["equivalence", "--preset", "reinsurance_wholeline", "--levels", "4"],
        ["market", "--preset", "cara_hedging"],
        ["market", "--preset", "log_delegation", "--beta", "0.25,0.5,1.0"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rcl.__file__).resolve().parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    outputs = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        runs = [[*argv, "--out", str(root / str(k))] for k, argv in enumerate(argvs)]
        probe = ("import json, sys; from rcl.cli import main; "
                 "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
        done = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                              capture_output=True, text=True, timeout=300,
                              env=dict(env, OPENBLAS_NUM_THREADS=threads))
        assert done.returncode == 0, done.stderr
        outputs[threads] = {path.relative_to(root): path.read_bytes()
                            for path in sorted(root.rglob("*")) if path.is_file()}
    assert all(Path(str(k), "result.json") in outputs["1"] for k in range(len(argvs)))
    assert outputs["1"] == outputs["2"]
