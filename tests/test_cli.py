import argparse
import gc
import json
import warnings

import numpy as np
import pytest

import crossrep.io as cio
from crossrep import ZPanel, no_association_pvalues, simulate_panel, twogroup
from crossrep.cli import build_parser, main
from crossrep.io import read_zpanel, write_zpanel
from helpers import concordant_design


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run(["simulate", "--out-dir", out, "--snps", 2000, "--seed", 7])
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("zpanel.tsv", "truth.tsv", "design.json", "simulate.run.json"):
            assert (sim_dir / name).exists()

    def test_design_matches_request(self, sim_dir):
        design = json.loads((sim_dir / "design.json").read_text())
        assert design["n_snps"] == 2000
        assert design["n_studies"] == 3
        assert design["seed"] == 7

    def test_panel_shape(self, sim_dir):
        panel = read_zpanel(sim_dir / "zpanel.tsv")
        assert panel.n_snps == 2000
        assert panel.n_studies == 3

    def test_design_file_round_trip(self, sim_dir, tmp_path):
        code = run(
            ["simulate", "--design", sim_dir / "design.json", "--out-dir", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "zpanel.tsv").read_bytes() == (
            sim_dir / "zpanel.tsv"
        ).read_bytes()

    def test_design_file_with_overrides(self, sim_dir, tmp_path):
        code = run(
            ["simulate", "--design", sim_dir / "design.json", "--out-dir", tmp_path,
             "--snps", 500, "--seed", 99]
        )
        assert code == 0
        design = json.loads((tmp_path / "design.json").read_text())
        assert design["n_snps"] == 500
        assert design["seed"] == 99

    @pytest.mark.parametrize("flags,change,exit_code", [
        (["--seed", "-1"], {}, 2),
        ([], {"seed": -3}, 2),
        ([], {"config_probs": [["000", 1.0]]}, 3),
        ([], {"effect_ranges": [[0.25, 0.5], [-0.5, -0.25]]}, 3),
    ], ids=["negative-seed-flag", "negative-seed-design", "listed-config-probs",
            "listed-effect-ranges"])
    def test_bad_seed_or_design_is_one_error_line(self, sim_dir, tmp_path, capsys, flags,
                                                  change, exit_code):
        design = json.loads((sim_dir / "design.json").read_text())
        (tmp_path / "design.json").write_text(json.dumps({**design, **change}))
        code = run(["simulate", "--design", tmp_path / "design.json", "--out-dir",
                    tmp_path / "out", *flags])
        assert code == exit_code
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "zpanel.tsv").exists()

    def test_replay_records_the_design_seed_and_size(self, sim_dir, tmp_path):
        code = run(
            ["simulate", "--design", sim_dir / "design.json", "--out-dir", tmp_path]
        )
        assert code == 0
        params = json.loads((tmp_path / "simulate.run.json").read_text())["parameters"]
        assert params == {"snps": 2000, "seed": 7, "statistic": "contingency"}


class TestFit:
    """fits.json, the per-study two-group fits that analyze writes."""

    def test_fit_reports_all_studies(self, sim_dir, tmp_path):
        code = run(["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "fits.json").read_text())
        assert len(payload["studies"]) == 3
        assert all(s["qualifies"] for s in payload["studies"])

    def test_pure_null_study_is_excluded(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        ok = np.concatenate([rng.normal(size=2700), rng.normal(3, 1, size=300)])
        z = np.vstack([ok, rng.uniform(-0.3, 0.3, size=3000)])
        panel = ZPanel(
            tuple(f"rs{j}" for j in range(3000)), ("ok", "flat"), z
        )
        write_zpanel(panel, tmp_path / "panel.tsv")
        for hypothesis, exit_code in (("na", 0), ("both", 4)):
            out = tmp_path / hypothesis
            code = run(["analyze", "--input", tmp_path / "panel.tsv", "--out-dir", out,
                        "--hypothesis", hypothesis])
            assert code == exit_code
            payload = json.loads((out / "fits.json").read_text())
            flat = [s for s in payload["studies"] if s["study_id"] == "flat"][0]
            assert not flat["qualifies"]
            assert "null fraction" in flat["exclusion_reason"]
            assert flat["fA_hat"] is None
        assert "nr analysis needs at least u = 2 qualifying studies, got 1" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "both").iterdir()) == ["fits.json"]


class TestAnalyze:
    def test_end_to_end_and_rerun_is_byte_identical(self, sim_dir, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            code = run(
                ["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", out]
            )
            assert code == 0
        for name in ("report_eb.tsv", "model.json", "analyze.run.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_report_columns(self, sim_dir, tmp_path):
        run(["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        header = (tmp_path / "report_eb.tsv").read_text().splitlines()[0].split("\t")
        assert header == [
            "snp_id",
            "local_fdr_nr", "fdr_nr", "rejected_nr",
            "local_fdr_na", "fdr_na", "rejected_na",
        ]

    def test_model_payload_shape(self, sim_dir, tmp_path):
        run(["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        model = json.loads((tmp_path / "model.json").read_text())
        assert len(model["configurations"]) == 27
        assert len(model["pi"]) == 27
        assert abs(sum(model["pi"]) - 1.0) < 1e-9
        assert model["converged"]
        assert set(model["thresholds"]) == {"nr", "na"}

    def test_too_few_studies_for_nr(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        panel = ZPanel(
            tuple(f"rs{j}" for j in range(2000)),
            ("solo",),
            rng.normal(size=(1, 2000)),
        )
        write_zpanel(panel, tmp_path / "panel.tsv")
        code = run(
            ["analyze", "--input", tmp_path / "panel.tsv", "--out-dir", tmp_path,
             "--hypothesis", "nr"]
        )
        assert code == 4
        assert "nr analysis needs at least u = 2 qualifying studies, got 1" in capsys.readouterr().err

    def test_unconverged_em_warns_and_succeeds(self, sim_dir, tmp_path, capsys):
        code = run(
            ["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path,
             "--em-max-iter", 3]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: EM did not converge in 3 iterations" in err
        model = json.loads((tmp_path / "model.json").read_text())
        assert not model["converged"]
        assert model["em_gap"] > 0
        assert "last relative change " in err
        assert f"log-likelihood gap at most {model['em_gap']:.3g} nats)" in err

    def test_unconverged_em_is_in_the_run_record(self, sim_dir, tmp_path, capsys):
        code = run(
            ["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path,
             "--em-max-iter", 3]
        )
        assert code == 0
        (warning,) = json.loads((tmp_path / "analyze.run.json").read_text())["warnings"]
        assert warning.startswith("EM did not converge in 3 iterations")
        assert f"warning: {warning}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("extremes", [(1.7e308,), (1e200, -1e200), (1e307,)],
                             ids=["1.7e308", "pm1e200", "1e307"])
    def test_extreme_z_is_a_model_error(self, tmp_path, capfd, extremes):
        # 1.7e308 overflows the bin grid's midpoints and 1e307 the density fit's centering,
        # both checked before numpy warns or LAPACK prints; with +-1e200 every bin center
        # of study A lies about 2e198 from 0, where the standard normal has no mass
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 2000))
        z[:, :200] *= 4
        z[0, : len(extremes)] = extremes
        write_zpanel(ZPanel(tuple(f"rs{j}" for j in range(2000)), ("A", "B"), z),
                     tmp_path / "panel.tsv")
        code = run(["analyze", "--input", tmp_path / "panel.tsv", "--out-dir", tmp_path])
        assert code == 4
        out, err = capfd.readouterr()
        assert out == "" and "warning:" not in err
        assert err.count("error: ") == 1 and "Traceback" not in err
        if len(extremes) == 1:
            assert err == "error: study A: z-scores too large to bin and center\n"
        else:
            assert "excluding study A: the standard normal has no mass at the bin centers" in err
            (study_a, _) = json.loads((tmp_path / "fits.json").read_text())["studies"]
            assert not study_a["qualifies"]
            assert study_a["exclusion_reason"].startswith("the standard normal has no mass")

    def test_na_only_on_single_study(self, tmp_path):
        rng = np.random.default_rng(2)
        z = np.concatenate([rng.normal(size=1800), rng.normal(3, 1, size=200)])
        panel = ZPanel(
            tuple(f"rs{j}" for j in range(2000)), ("solo",), z[None, :]
        )
        write_zpanel(panel, tmp_path / "panel.tsv")
        code = run(
            ["analyze", "--input", tmp_path / "panel.tsv", "--out-dir", tmp_path,
             "--hypothesis", "na"]
        )
        assert code == 0
        header = (tmp_path / "report_eb.tsv").read_text().splitlines()[0]
        assert "rejected_na" in header and "rejected_nr" not in header


class TestCompare:
    def test_report_includes_adjusted_columns(self, sim_dir, tmp_path):
        code = run(["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        assert code == 0
        header = (tmp_path / "report_meta.tsv").read_text().splitlines()[0].split("\t")
        assert header == [
            "snp_id",
            "p_nr", "p_adj_nr", "rejected_nr",
            "p_na", "p_adj_na", "rejected_na",
        ]

    def test_single_study_with_nr_is_config_error(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        panel = ZPanel(("rs1", "rs2"), ("solo",), rng.normal(size=(1, 2)))
        write_zpanel(panel, tmp_path / "panel.tsv")
        code = run(
            ["compare", "--input", tmp_path / "panel.tsv", "--out-dir", tmp_path]
        )
        assert code == 2
        assert "number of studies (1), got u = 2" in capsys.readouterr().err


class TestEvaluate:
    def test_metrics_for_both_hypotheses(self, sim_dir, tmp_path):
        run(["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        code = run(
            ["evaluate", "--report", tmp_path / "report_eb.tsv",
             "--truth", sim_dir / "truth.tsv", "--out-dir", tmp_path]
        )
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) == {"nr", "na"}
        for block in metrics.values():
            assert {"fdp", "n_rejected", "power", "true_discoveries"} <= set(block)
            assert 0.0 <= block["fdp"] <= 1.0

    def test_comparator_report_evaluates_too(self, sim_dir, tmp_path):
        run(["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        code = run(
            ["evaluate", "--report", tmp_path / "report_meta.tsv",
             "--truth", sim_dir / "truth.tsv", "--out-dir", tmp_path]
        )
        assert code == 0

    def test_mismatched_snp_sets(self, sim_dir, tmp_path, capsys):
        run(["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        other = tmp_path / "other"
        run(["simulate", "--out-dir", other, "--snps", 500, "--seed", 1])
        code = run(
            ["evaluate", "--report", tmp_path / "report_eb.tsv",
             "--truth", other / "truth.tsv", "--out-dir", tmp_path]
        )
        assert code == 3

    @pytest.mark.parametrize("report", ["report_eb.tsv", "report_meta.tsv"])
    def test_parses_no_float_of_the_truth(self, sim_dir, tmp_path, monkeypatch, report):
        command = "analyze" if report == "report_eb.tsv" else "compare"
        assert run([command, "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path]) == 0
        argv = ["evaluate", "--report", tmp_path / report, "--truth", sim_dir / "truth.tsv"]
        assert run(argv + ["--out-dir", tmp_path / "plain"]) == 0

        def no_floats(tokens):
            raise AssertionError("evaluate parsed a float column")

        monkeypatch.setattr(cio, "_floats", no_floats)
        assert run(argv + ["--out-dir", tmp_path / "patched"]) == 0
        plain, patched = (tmp_path / d / "metrics.json" for d in ("plain", "patched"))
        assert patched.read_bytes() == plain.read_bytes()

    def test_truth_line_missing_a_field_is_data_error(self, sim_dir, tmp_path, capsys):
        run(["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        lines = (sim_dir / "truth.tsv").read_text().splitlines()
        lines[4] = lines[4].rsplit("\t", 1)[0]
        (tmp_path / "truth.tsv").write_text("\n".join(lines) + "\n")
        code = run(
            ["evaluate", "--report", tmp_path / "report_meta.tsv",
             "--truth", tmp_path / "truth.tsv", "--out-dir", tmp_path]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'truth.tsv'}: line 5: expected 10 fields, got 9\n")


class TestErrorChannels:
    def test_malformed_row_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("snp_id\ta\tb\nrs1\t0.1\t0.2\nrs2\t0.3\n")
        code = run(["analyze", "--input", bad, "--out-dir", tmp_path])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", "missing.tsv"],
            ["simulate", "--design", "missing.json"],
            ["evaluate", "--report", "missing.tsv", "--truth", "missing_truth.tsv"],
        ],
    )
    def test_missing_input_file_is_data_error(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a.startswith("missing") else a for a in argv]
        code = run(argv + ["--out-dir", tmp_path])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing" in err

    def test_missing_truth_file_is_data_error(self, sim_dir, tmp_path, capsys):
        run(["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        code = run(
            ["evaluate", "--report", tmp_path / "report_meta.tsv",
             "--truth", tmp_path / "missing.tsv", "--out-dir", tmp_path]
        )
        assert code == 3
        assert "missing.tsv: cannot read" in capsys.readouterr().err

    def test_bad_truth_status_is_data_error(self, sim_dir, tmp_path, capsys):
        run(["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        lines = (sim_dir / "truth.tsv").read_text().splitlines()
        fields = lines[1].split("\t")
        fields[1] = "0.5"
        lines[1] = "\t".join(fields)
        (tmp_path / "truth.tsv").write_text("\n".join(lines) + "\n")
        code = run(
            ["evaluate", "--report", tmp_path / "report_meta.tsv",
             "--truth", tmp_path / "truth.tsv", "--out-dir", tmp_path]
        )
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_bytes_that_are_not_text_past_the_first_block(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "zpanel.tsv").read_bytes().split(b"\n")
        lines[1500] = b"\xff" + lines[1500]
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\n".join(lines))
        assert len(b"\n".join(lines[:1500])) > cio._READ_BLOCK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["analyze", "--input", bad, "--out-dir", tmp_path / "out"])
            gc.collect()
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not a text file: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_uncreatable_out_dir_is_config_error(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "file.txt" / "sub"
        (tmp_path / "file.txt").write_text("not a directory\n")
        code = run(["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: cannot create output directory: ")
        assert "Traceback" not in err

    def test_bad_bin_count_is_config_error(self, sim_dir, tmp_path, capsys):
        code = run(
            ["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path,
             "--bins", "5"]
        )
        assert code == 2

    def test_unconverged_density_fit_is_a_model_error(self, sim_dir, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setattr(twogroup, "IRLS_MAX_ITER", 1)
        code = run(["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: Poisson density fit did not converge in 1 iterations\n")

    @pytest.mark.parametrize(
        "flag", [["--em-tol", "-1"], ["--em-tol", "nan"], ["--em-tol", "inf"],
                 ["--em-max-iter", "0"], ["--em-max-iter", "-3"]],
    )
    def test_bad_em_setting_is_config_error_before_any_output(self, sim_dir, tmp_path, capsys,
                                                               flag):
        out = tmp_path / "out"
        code = run(["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", out, *flag])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: EM ")
        assert not out.exists()

    def test_bad_q_is_config_error(self, sim_dir, tmp_path):
        code = run(
            ["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path,
             "--q", "1.5"]
        )
        assert code == 2



SURFACE = {
    "analyze": ["--input", "--out-dir", "--bins", "--q", "--hypothesis", "--em-tol",
                "--em-max-iter"],
    "compare": ["--input", "--out-dir", "--q", "--hypothesis"],
    "simulate": ["--design", "--snps", "--seed", "--statistic", "--out-dir"],
    "evaluate": ["--report", "--truth", "--out-dir"],
}


def test_compare_on_a_written_panel_matches_the_library_bit_for_bit(tmp_path, monkeypatch):
    panel, _ = simulate_panel(cio.design_from_payload(concordant_design(8, 2000, 5)))
    write_zpanel(panel, tmp_path / "zpanel.tsv")
    columns = {}
    monkeypatch.setattr(cio, "write_comparison_report", lambda _p, _i, c: columns.update(c))
    assert run(["compare", "--input", tmp_path / "zpanel.tsv", "--out-dir", tmp_path,
                "--hypothesis", "na"]) == 0
    assert columns["na"]["p"].tobytes() == no_association_pvalues(panel.z).tobytes()


class TestSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_each_command_takes_only_its_own_flags(self, command):
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        options = [
            opt
            for action in commands.choices[command]._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        ]
        assert sorted(options) == sorted(SURFACE[command])

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--input", "panel.tsv", "--out-dir", "out", "--threads", "4"],
            ["evaluate", "--report", "r.tsv", "--truth", "t.tsv", "--out-dir", "out",
             "--q", "0.1"],
        ],
    )
    def test_foreign_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fit_is_not_a_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", "p.tsv", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRunRecords:
    def test_record_contains_digests_and_versions(self, sim_dir, tmp_path):
        run(["analyze", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        record = json.loads((tmp_path / "analyze.run.json").read_text())
        assert record["command"] == "analyze"
        assert len(record["inputs"]["zpanel"]) == 64
        assert set(record["versions"]) == {"crossrep", "numpy"}
        assert record["parameters"]["bins"] == 50
        assert record["parameters"]["q"] == 0.05

    @pytest.mark.parametrize("command", ["simulate", "analyze", "compare", "evaluate"])
    def test_records_list_no_warnings_when_there_are_none(self, sim_dir, tmp_path, command):
        argv = {
            "simulate": ["simulate", "--snps", 500],
            "analyze": ["analyze", "--input", sim_dir / "zpanel.tsv"],
            "compare": ["compare", "--input", sim_dir / "zpanel.tsv"],
            "evaluate": ["evaluate", "--report", tmp_path / "report_meta.tsv",
                         "--truth", sim_dir / "truth.tsv"],
        }[command]
        run(["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        assert run(argv + ["--out-dir", tmp_path]) == 0
        record = json.loads((tmp_path / f"{command}.run.json").read_text())
        assert record["warnings"] == []

    def test_simulate_record_notes_statistic(self, sim_dir):
        record = json.loads((sim_dir / "simulate.run.json").read_text())
        assert record["parameters"]["statistic"] == "contingency"

    @pytest.mark.parametrize("command", ["analyze", "compare", "simulate", "evaluate"])
    def test_record_parameters_are_the_commands_own_flags(self, sim_dir, tmp_path, command):
        argv = {
            "analyze": ["analyze", "--input", sim_dir / "zpanel.tsv"],
            "compare": ["compare", "--input", sim_dir / "zpanel.tsv"],
            "simulate": ["simulate", "--snps", 500],
            "evaluate": ["evaluate", "--report", tmp_path / "report_meta.tsv",
                         "--truth", sim_dir / "truth.tsv"],
        }[command]
        run(["compare", "--input", sim_dir / "zpanel.tsv", "--out-dir", tmp_path])
        assert run(argv + ["--out-dir", tmp_path]) == 0
        record = json.loads((tmp_path / f"{command}.run.json").read_text())
        files = {"--input", "--out-dir", "--design", "--report", "--truth"}
        flags = {f[2:].replace("-", "_") for f in SURFACE[command] if f not in files}
        assert set(record["parameters"]) == flags

    def test_library_warnings_reach_the_record_once_per_study(self, tmp_path, capsys):
        run(["simulate", "--out-dir", tmp_path / "sim", "--snps", 500, "--seed", 1])
        code = run(["analyze", "--input", tmp_path / "sim" / "zpanel.tsv", "--out-dir", tmp_path])
        assert code == 0
        notes = json.loads((tmp_path / "analyze.run.json").read_text())["warnings"]
        assert notes == [
            f"study 'study_{i}': null-fraction estimate from only 500 z-scores is unstable"
            for i in (1, 2, 3)
        ]
        err = capsys.readouterr().err
        assert "UserWarning" not in err
        for i in (1, 2, 3):
            assert err.count(f"warning: study 'study_{i}': null-fraction estimate") == 1
