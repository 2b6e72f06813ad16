import json

import numpy as np
import pytest

from thermowork import __version__
from thermowork.cli import main
from thermowork.core import ClassicalObject, classical_gibbs, classical_to_object, object_to_json


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("THERMOWORK_OUTPUT_DIR", str(tmp_path / "env-out"))
    return tmp_path


def _write_object(path, classical):
    path.write_text(json.dumps(object_to_json(classical_to_object(classical))))
    return str(path)


class TestScenarioCommand:
    def test_fig1_flags(self, outdir, capsys):
        code = main(["scenario", "fig1", "--beta", "1", "--delta", "1", "--d", "3",
                     "--output-dir", str(outdir / "run")])
        out = capsys.readouterr().out
        assert code == 0
        assert "Feasible" in out
        assert "k_B = 1" in out  # conventions header
        reports = list((outdir / "run").glob("fig1-*/report.json"))
        assert len(reports) == 1

    def test_env_var_output_dir(self, outdir, capsys):
        code = main(["scenario", "fig1", "--beta", "1", "--delta", "1", "--d", "2"])
        assert code == 0
        assert list((outdir / "env-out").glob("fig1-*/report.json"))

    def test_unknown_scenario_is_usage_error(self, outdir, capsys):
        code = main(["scenario", "nope", "--output-dir", str(outdir)])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_config_file_run(self, outdir, capsys):
        cfg = {"schema": 1, "seed": 7, "beta": 1.0,
               "scenarios": [{"name": "fig1", "delta": 1.0, "d": 4}]}
        cfg_path = outdir / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["scenario", "fig1", "--config", str(cfg_path),
                     "--output-dir", str(outdir / "cfg-run")])
        assert code == 0

    def test_config_requires_seed(self, outdir, capsys):
        cfg_path = outdir / "bad.json"
        cfg_path.write_text(json.dumps({"schema": 1, "beta": 1.0}))
        code = main(["scenario", "fig1", "--config", str(cfg_path)])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, outdir, capsys):
        cfg_path = outdir / "broken.json"
        cfg_path.write_text('{"schema": 1,\n  "seed": oops}')
        code = main(["scenario", "fig1", "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_tolerance_range_validated(self, outdir, capsys):
        cfg_path = outdir / "tol.json"
        cfg_path.write_text(json.dumps({"schema": 1, "seed": 0,
                                        "tolerances": {"work": 0.5}}))
        code = main(["scenario", "fig1", "--config", str(cfg_path)])
        assert code == 1

    def test_all_scenarios_with_jobs(self, outdir, capsys):
        cfg = {"schema": 1, "seed": 3, "beta": 1.0, "scenarios": [
            {"name": "fig1", "delta": 1.0, "d": 3},
            {"name": "wbit-violation", "epsilon": 0.1},
        ]}
        cfg_path = outdir / "all.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["scenario", "all", "--config", str(cfg_path),
                     "--output-dir", str(outdir / "all-run")])
        assert code == 0
        assert list((outdir / "all-run").glob("fig1-*"))
        assert list((outdir / "all-run").glob("wbit_violation-*"))

    @pytest.mark.parametrize(("doc", "message"), [
        (["seed"], "JSON object"),
        ({"schema": 1, "seed": 0, "scenarios": ["fig1"]}, "list of JSON objects"),
        ({"schema": 1, "seed": 0, "scenarios": {"name": "fig1"}}, "list of JSON objects"),
    ])
    def test_config_of_the_wrong_shape_is_usage_error(self, outdir, capsys, doc, message):
        cfg_path = outdir / "shape.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["scenario", "fig1", "--config", str(cfg_path)])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("beta", [None, [1.0], {"value": 1.0}, 0, -1.0])
    def test_a_beta_that_is_no_positive_number_is_usage_error(self, outdir, capsys, beta):
        cfg_path = outdir / "beta.json"
        cfg_path.write_text(json.dumps({"schema": 1, "seed": 0, "beta": beta}))
        code = main(["scenario", "fig1", "--config", str(cfg_path)])
        assert code == 1
        assert f"beta must be a positive number, got {json.dumps(beta)}" in capsys.readouterr().err

    def test_a_config_without_beta_runs_at_beta_one(self, outdir, capsys):
        reports = []
        for name, beta in (("implicit", {}), ("explicit", {"beta": 1.0})):
            cfg_path = outdir / f"{name}.json"
            cfg_path.write_text(json.dumps({"seed": 1, **beta, "scenarios": [{"name": "fig1"}]}))
            assert main(["scenario", "all", "--config", str(cfg_path),
                         "--output-dir", str(outdir / name)]) == 0
            reports.append(next((outdir / name).glob("fig1-*/report.json")).read_bytes())
        assert reports[0] == reports[1]

    def test_same_seed_byte_identical_reports(self, outdir):
        for sub in ("a", "b"):
            main(["scenario", "superadditivity-search", "--beta", "1", "--seed", "11",
                  "--alpha", "2", "--output-dir", str(outdir / sub)])
        a = next((outdir / "a").glob("*/report.json")).read_bytes()
        b = next((outdir / "b").glob("*/report.json")).read_bytes()
        assert a == b

    def test_meta_file_holds_timestamp_not_report(self, outdir):
        main(["scenario", "fig1", "--beta", "1", "--d", "3",
              "--output-dir", str(outdir / "meta-run")])
        target = next((outdir / "meta-run").glob("fig1-*"))
        report = (target / "report.json").read_text()
        assert "written_at" not in report
        assert "written_at" in (target / "meta.json").read_text()


class TestCheckCommand:
    def test_wdet_violation_exits_two(self, outdir, capsys):
        code = main(["check", "free-nonpos", "--quantifier", "wdet",
                     "--epsilon", "0.1", "--delta", "0.05", "--beta", "1",
                     "--output-dir", str(outdir / "chk")])
        assert code == 2
        report = json.loads((outdir / "chk" / "check-free-nonpos.json").read_text())
        assert report["violations"]
        assert report["violations"][0]["witness"]  # exit-2 runs name a witness

    def test_wdet_clean_at_zero_epsilon(self, outdir):
        code = main(["check", "free-nonpos", "--quantifier", "wdet",
                     "--epsilon", "0", "--delta", "1.0", "--beta", "1",
                     "--output-dir", str(outdir / "chk0")])
        assert code == 0

    def test_axiom1_dfalpha_clean(self, outdir):
        code = main(["check", "axiom1", "--quantifier", "dfalpha", "--alpha", "2",
                     "--samples", "20", "--output-dir", str(outdir / "ax")])
        assert code == 0

    def test_axiom1_dfalpha_infinite_order(self, outdir, capsys):
        code = main(["check", "axiom1", "--quantifier", "dfalpha", "--alpha", "inf",
                     "--samples", "20", "--output-dir", str(outdir / "ax-inf")])
        assert code == 0
        assert "check axiom1: samples=80 skipped=0 violations=0" in capsys.readouterr().out
        report = json.loads((outdir / "ax-inf" / "check-axiom1.json").read_text())
        assert report["checker"] == "axiom1_cycle"
        assert (report["samples"], report["skipped"], report["violations"]) == (80, 0, [])
        assert report["passed"]

    def test_lemma2_clean(self, outdir):
        code = main(["check", "lemma2", "--quantifier", "dfalpha", "--alpha", "1",
                     "--samples", "20", "--output-dir", str(outdir / "lm")])
        assert code == 0

    def test_superadd_alpha2_finds_violation(self, outdir):
        code = main(["check", "superadd", "--quantifier", "dfalpha", "--alpha", "2",
                     "--samples", "200", "--seed", "1",
                     "--output-dir", str(outdir / "sa")])
        assert code == 2

    def test_superadd_alpha1_clean(self, outdir):
        code = main(["check", "superadd", "--quantifier", "dfalpha", "--alpha", "1",
                     "--samples", "200", "--seed", "1",
                     "--output-dir", str(outdir / "sa1")])
        assert code == 0

    @pytest.mark.parametrize("checker", ["lemma2", "superadd"])
    def test_wdet_without_a_monotone_is_usage_error(self, outdir, capsys, checker):
        code = main(["check", checker, "--quantifier", "wdet", "--samples", "2",
                     "--output-dir", str(outdir / "chk")])
        assert code == 1
        err = capsys.readouterr().err
        assert "dfalpha" in err and "mean" in err
        assert not (outdir / "chk").exists()

    def test_csv_summary_written(self, outdir):
        main(["check", "axiom1", "--samples", "5", "--output-dir", str(outdir / "csv")])
        body = (outdir / "csv" / "check-axiom1.csv").read_text()
        assert body.splitlines()[0].startswith("checker,")


class TestFeasibleCommand:
    def test_decisive_exit_zero(self, outdir, capsys):
        src = _write_object(outdir / "src.json", ClassicalObject([0.9, 0.1], [0.0, 1.0]))
        dst = _write_object(outdir / "dst.json", classical_gibbs([0.0, 1.0], 1.0))
        code = main(["feasible", "--src", src, "--dst", dst, "--beta", "1"])
        assert code == 0
        assert "Feasible" in capsys.readouterr().out

    def test_infeasible_still_decisive(self, outdir, capsys):
        src = _write_object(outdir / "src.json", classical_gibbs([0.0, 1.0], 1.0))
        dst = _write_object(outdir / "dst.json", ClassicalObject([0.9, 0.1], [0.0, 1.0]))
        code = main(["feasible", "--src", src, "--dst", dst, "--beta", "1"])
        assert code == 0
        assert "Infeasible" in capsys.readouterr().out

    def test_undetermined_exits_three(self, outdir, capsys):
        src = _write_object(outdir / "src.json",
                            ClassicalObject([0.5, 0.25, 0.25, 0.0], np.zeros(4)))
        dst = _write_object(outdir / "dst.json",
                            ClassicalObject([0.4, 0.4, 0.1, 0.1], np.zeros(4)))
        code = main(["feasible", "--src", src, "--dst", dst, "--beta", "1",
                     "--catalytic", "--grid-steps", "2"])
        assert code == 3

    def test_catalytic_finds_jp_catalyst(self, outdir, capsys):
        src = _write_object(outdir / "src.json",
                            ClassicalObject([0.5, 0.25, 0.25, 0.0], np.zeros(4)))
        dst = _write_object(outdir / "dst.json",
                            ClassicalObject([0.4, 0.4, 0.1, 0.1], np.zeros(4)))
        code = main(["feasible", "--src", src, "--dst", dst, "--beta", "1",
                     "--catalytic", "--grid-steps", "64"])
        assert code == 0
        assert "catalyst" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        code = main(["feasible", "--src", "/nonexistent.json",
                     "--dst", "/nonexistent.json", "--beta", "1"])
        assert code == 1


class TestDivergenceCommand:
    def test_gibbs_object_evaluates_to_zero(self, outdir, capsys):
        path = _write_object(outdir / "gibbs.json", classical_gibbs([0.0, 1.0], 1.0))
        code = main(["divergence", "--alpha", "1", "--object", path, "--beta", "1"])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.strip().splitlines()[-1].split("=")[-1])
        assert abs(value) < 1e-12

    def test_alpha_inf_accepted(self, outdir, capsys):
        path = _write_object(outdir / "obj.json", ClassicalObject([0.9, 0.1], [0.0, 1.0]))
        code = main(["divergence", "--alpha", "inf", "--object", path, "--beta", "1"])
        assert code == 0


class TestVersion:
    def test_version_prints(self, capsys):
        assert main(["version"]) == 0
        assert __version__ in capsys.readouterr().out


class TestMalformedInput:
    def test_feasible_src_json_list_is_usage_error(self, outdir, capsys):
        src = outdir / "list.json"
        src.write_text("[1, 2]")
        dst = _write_object(outdir / "dst.json", ClassicalObject([0.5, 0.5], [0.0, 1.0]))
        code = main(["feasible", "--src", str(src), "--dst", dst, "--beta", "1"])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err

    def test_divergence_object_json_string_is_usage_error(self, outdir, capsys):
        path = outdir / "string.json"
        path.write_text('"x"')
        code = main(["divergence", "--object", str(path), "--beta", "1"])
        assert code == 1
        assert "JSON object" in capsys.readouterr().err

    def test_feasible_non_finite_probability_is_usage_error(self, outdir, capsys):
        src = outdir / "nan.json"
        src.write_text('{"probs": [NaN, 1.0], "energies": [0.0, 1.0]}')
        dst = _write_object(outdir / "dst.json", ClassicalObject([0.5, 0.5], [0.0, 1.0]))
        code = main(["feasible", "--src", str(src), "--dst", dst, "--beta", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "finite" in captured.err
        assert "Feasible" not in captured.out

    def test_feasible_wrong_typed_field_names_the_file(self, outdir, capsys):
        src = outdir / "typed.json"
        src.write_text('{"probs": {"a": 1}, "energies": [0.0]}')
        dst = _write_object(outdir / "dst.json", ClassicalObject([0.5, 0.5], [0.0, 1.0]))
        code = main(["feasible", "--src", str(src), "--dst", dst, "--beta", "1"])
        assert code == 1
        assert str(src) in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--grid-steps", "--max-cat-dim"])
    def test_empty_catalyst_budget_is_usage_error(self, outdir, capsys, flag):
        src = _write_object(outdir / "src.json",
                            ClassicalObject([0.5, 0.25, 0.25, 0.0], np.zeros(4)))
        dst = _write_object(outdir / "dst.json",
                            ClassicalObject([0.4, 0.4, 0.1, 0.1], np.zeros(4)))
        code = main(["feasible", "--src", src, "--dst", dst, "--beta", "1",
                     "--catalytic", flag, "0"])
        assert code == 1
        assert "cost guard" in capsys.readouterr().err

    @pytest.mark.parametrize(("flag", "value"), [("--max-cat-dim", "0"), ("--max-cat-dim", "9"),
                                                 ("--grid-steps", "0")])
    def test_out_of_range_budget_is_usage_error_for_a_direct_pair(self, outdir, capsys, flag,
                                                                   value):
        # the direct check decides this pair, and the budget is refused all the same
        src = _write_object(outdir / "src.json", ClassicalObject([0.9, 0.1], [0.0, 1.0]))
        dst = _write_object(outdir / "dst.json", classical_gibbs([0.0, 1.0], 1.0))
        assert main(["feasible", "--src", src, "--dst", dst, "--beta", "1", "--catalytic"]) == 0
        capsys.readouterr()
        code = main(["feasible", "--src", src, "--dst", dst, "--beta", "1",
                     "--catalytic", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert "cost guard" in captured.err
        assert "Feasible" not in captured.out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_check_samples_below_one_is_usage_error(self, outdir, capsys, samples):
        code = main(["check", "axiom1", "--samples", samples,
                     "--output-dir", str(outdir / "chk")])
        assert code == 1
        assert "--samples" in capsys.readouterr().err
        assert not (outdir / "chk").exists()

    @pytest.mark.parametrize("argv", [
        ["check", "bogus"],
        ["feasible", "--src", "a.json"],
        ["scenario", "fig1", "--jobs", "2"],
    ])
    def test_argparse_error_is_usage_error(self, capsys, argv):
        # argparse exits 2, the code of a checker's violation; the CLI maps it to 1
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
