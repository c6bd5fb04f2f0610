"""Exit codes, output formats, config-file handling, determinism."""

import csv
import io
import json

import pytest

from polybohr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRadiusCommand:
    def test_composed_order_one(self, capsys):
        code, out, _ = run(capsys, "radius", "--theorem", "composed_k", "--k", "1")
        assert code == 0
        assert "0.2360679775" in out
        assert "residual" in out

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run(capsys, "radius", "--theorem", "improved_squared")
        assert code == 0
        assert "0.638284738504" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "radius", "--theorem", "refined_p", "--p", "1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "radius"
        assert report["all_pass"] is True
        assert report["config"]["theorem"] == "refined_p"
        assert report["results"][0]["radius"] == pytest.approx(0.2)


class TestVerifyCommand:
    def test_refined_p1_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "refined_p", "--p", "1", "--seeds", "30", "--phases", "4")
        assert code == 0
        assert "30/30 pass" in out

    def test_squared_single_component_all_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "improved_squared", "--seeds", "30", "--m", "1", "--phases", "4"
        )
        assert code == 0
        assert "30/30 pass" in out

    def test_squared_mixed_components_reports_genuine_failures(self, capsys):
        # Mixed-m corpora contain slices that genuinely exceed the bound.
        code, out, _ = run(
            capsys, "verify", "--theorem", "improved_squared", "--seeds", "200", "--phases", "4"
        )
        assert code == 1
        assert "/200 pass" in out
        assert "exceed" in out

    def test_inconclusive_rows_are_not_called_genuine(self, capsys):
        # Of the five squared-functional failures in seeds 0..199, seed 182
        # fails only because its enclosure is loose: lower 0.9987, upper 1.0022.
        code, out, _ = run(capsys, "verify", "--theorem", "improved_squared", "--seeds", "200")
        assert code == 1
        assert "195/200 pass" in out
        assert "4 genuine (lower > 1), 1 inconclusive (lower <= 1 < upper)" in out
        # The per-component modulus bound leaves no refined p = 2 row inconclusive.
        code, out, _ = run(capsys, "verify", "--theorem", "refined_p", "--p", "2", "--seeds", "100")
        assert code == 0
        assert "100/100 pass" in out

    def test_classical_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "classical", "--seeds", "20", "--phases", "4")
        assert code == 0

    def test_rejects_radius_beyond_sharp(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "refined_p", "--p", "1", "--r", "0.5", "--seeds", "5")
        assert code == 2
        assert "witness" in err


class TestWitnessCommand:
    def test_finds_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "--theorem", "refined_p", "--p", "2", "--r", "0.4")
        assert code == 0
        assert "> 1" in out

    def test_requires_radius(self, capsys):
        code, _, err = run(capsys, "witness", "--theorem", "refined_p", "--p", "2")
        assert code == 2

    def test_below_radius_is_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", "--theorem", "classical", "--r", "0.2")
        assert code == 2


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, capsys):
        argv = (
            "sweep", "--theorem", "improved_squared", "--lambda", "0.52",
            "--r-min", "0.1", "--r-max", "0.9", "--r-steps", "5", "--format", "csv",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert out1 == out2
        rows = list(csv.reader(io.StringIO(out1)))
        assert rows[0] == [
            "theorem", "p", "k", "lambda_or_seed", "r",
            "value_lower", "value_upper", "tail", "bound_ok",
        ]
        assert len(rows) == 6
        # rows beyond the radius may exceed 1 without failing the run
        assert code1 == 0
        flags = [row[-1] for row in rows[1:]]
        assert flags == ["true", "true", "true", "false", "false"]
        assert "\r" not in out1

    def test_all_pass_when_grid_stays_below_radius(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--theorem", "refined_p", "--p", "1", "--lambda", "0.9",
            "--r-min", "0.0", "--r-max", "0.19", "--r-steps", "4", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert len(report["results"]) == 4
        assert all(row["bound_ok"] for row in report["results"])

    def test_seeded_slice_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--theorem", "composed_k", "--k", "2", "--seeds", "3",
            "--r-min", "0.05", "--r-max", "0.25", "--r-steps", "3", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"][0]["lambda_or_seed"] == 3

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--theorem", "classical", "--lambda", "0.5",
            "--r-min", "0.1", "--r-max", "0.3", "--r-steps", "3",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("theorem,")
        assert text.count("\n") == 4


class TestCounterexampleCommand:
    def test_succeeds(self, capsys):
        code, out, _ = run(
            capsys, "counterexample", "--theorem", "improved_squared",
            "--a1", "0.6", "--a2", "0.9999", "--r", "0.7",
        )
        assert code == 0
        assert "> 1" in out

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "counterexample", "--theorem", "improved_squared",
            "--a1", "0.5", "--a2", "0.9999", "--r", "0.7",
        )
        assert code == 2


class TestConfigAndUsage:
    def test_malformed_flags_exit_2(self, capsys):
        assert run(capsys, "radius", "--theorem", "nonsense")[0] == 2
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "radius")[0] == 2  # --theorem missing
        assert run(capsys, "radius", "--theorem", "refined_p")[0] == 2  # --p missing

    def test_numeric_domain_violations_exit_2(self, capsys):
        assert run(capsys, "verify", "--theorem", "classical", "--r", "1.0")[0] == 2
        assert run(capsys, "verify", "--theorem", "classical", "--seeds", "0")[0] == 2
        assert run(capsys, "verify", "--theorem", "classical", "--truncation", "4")[0] == 2

    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "theorem = refined_p\n"
            "p = 1\n"
            "lambda = 0.9\n"
            "rmin = 0.0\n"
            "rmax = 0.19\n"
            "rsteps = 3\n"
            "format = json\n"
        )
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        report = json.loads(out)
        assert report["config"]["theorem"] == "refined_p"
        assert len(report["results"]) == 3

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem = composed_k\nk = 1\n")
        code, out, _ = run(capsys, "radius", "--config", str(cfg), "--k", "2")
        assert code == 0
        assert "0.295597742522" in out

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorems = classical\n")
        assert run(capsys, "radius", "--config", str(cfg))[0] == 2

    def test_malformed_config_line_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem classical\n")
        assert run(capsys, "radius", "--config", str(cfg))[0] == 2

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        assert run(capsys, "radius", "--config", str(tmp_path / "nope.cfg"))[0] == 2

    def test_config_file_not_utf8_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"theorem = classical\n\xff\xfe\n")
        code, out, err = run(capsys, "radius", "--config", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error: ") and "UTF-8" in err

    def test_unwritable_output_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "x.json"
        code, out, err = run(capsys, "radius", "--theorem", "classical", "--out", str(target))
        assert code == 2
        assert out == "" and err.startswith("error: ") and "missing_dir" in err
        assert not target.parent.exists()

    def test_config_values_are_validated_like_flags(self, capsys, tmp_path):
        # `--format xml` and `--m 7` exit 2; the same values from a file must too.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem = classical\nformat = xml\n")
        code, out, err = run(capsys, "radius", "--config", str(cfg))
        assert code == 2
        assert out == "" and "invalid choice: 'xml'" in err
        cfg.write_text("theorem = refined_p\np = 1\nm = 7\n")
        code, out, _ = run(capsys, "verify", "--seeds", "2", "--phases", "4", "--config", str(cfg))
        assert code == 2
        assert out == ""

    def test_bad_config_entry_exits_2_even_when_a_flag_overrides_it(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem = classical\nformat = xml\nseeds = many\n")
        assert run(capsys, "radius", "--config", str(cfg), "--format", "json", "--seeds", "3")[0] == 2
        cfg.write_text("theorem = classical\nformat = xml\n")
        assert run(capsys, "radius", "--config", str(cfg), "--format", "json")[0] == 2
