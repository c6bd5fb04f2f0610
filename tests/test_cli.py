"""Exit codes, output formats, config-file handling, determinism."""

import csv
import io
import json
import math

import pytest

from polybohr import FunctionalSpec, closed_form_radius, eval_functional_batch, random_slice_batch
from polybohr import cli
from polybohr.cli import _emit, build_parser, main


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
        code, out, _ = run(capsys, "verify", "--theorem", "refined_p", "--p", "1", "--seeds", "30")
        assert code == 0
        assert "30/30 pass" in out

    def test_squared_single_component_all_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "improved_squared", "--seeds", "30", "--m", "1"
        )
        assert code == 0
        assert "30/30 pass" in out

    def test_squared_mixed_components_reports_genuine_failures(self, capsys):
        # Mixed-m corpora contain slices that genuinely exceed the bound.
        code, out, _ = run(
            capsys, "verify", "--theorem", "improved_squared", "--seeds", "200"
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
        code, out, _ = run(capsys, "verify", "--theorem", "classical", "--seeds", "20")
        assert code == 0

    def test_classical_component_count_is_rejected(self, capsys):
        # The classical sum takes one scalar series, whatever --m says.
        code, out, err = run(capsys, "verify", "--theorem", "classical", "--seeds", "2", "--m", "3", "--format", "json")
        assert code == 2
        assert out == ""
        assert "--m" in err

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

    def test_lambda_sweep_echoes_its_one_component(self, capsys):
        argv = ("sweep", "--theorem", "refined_p", "--p", "1", "--lambda", "0.5", "--r-steps", "2", "--format", "json")
        _, out, _ = run(capsys, *argv)
        _, one, _ = run(capsys, *argv, "--m", "1")
        report = json.loads(out)
        assert report["config"]["m"] == 1
        assert report["results"] == json.loads(one)["results"]

    @pytest.mark.parametrize(
        "kind",
        [("improved_squared",), ("refined_p", "--p", "1"), ("refined_p", "--p", "2"), ("composed_k", "--k", "1"),
         ("composed_k", "--k", "3")],
        ids=lambda kind: "-".join(kind).replace("--", ""),
    )
    def test_lambda_sweep_of_several_components_reports_the_one_component_values(self, capsys, kind):
        # The family's components are equal, so every m gives the values of m = 1; the report echoes the m given.
        argv = ("sweep", "--theorem", *kind, "--lambda", "0.9", "--r-steps", "5", "--format", "json")
        code, one, _ = run(capsys, *argv, "--m", "1")
        for m in (2, 3):
            got, out, _ = run(capsys, *argv, "--m", str(m))
            report = json.loads(out)
            assert got == code and report["config"]["m"] == m
            assert report["results"] == json.loads(one)["results"]

    def test_classical_lambda_sweep_echoes_no_component_count(self, capsys):
        _, out, _ = run(capsys, "sweep", "--theorem", "classical", "--lambda", "0.5", "--r-steps", "2", "--format", "json")
        assert "m" not in json.loads(out)["config"]

    @pytest.mark.parametrize("slice_args", [("--seeds", "3"), ("--lambda", "0.5")])
    def test_classical_component_count_is_rejected(self, capsys, slice_args):
        code, out, err = run(capsys, "sweep", "--theorem", "classical", *slice_args, "--m", "2", "--r-steps", "2")
        assert code == 2
        assert out == ""
        assert "--m" in err

    def test_lambda_and_seeds_together_exit_2_before_computing(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("computed although the slice is ambiguous")

        for name in ("eval_functional", "random_slice_batch", "extremal_slice"):
            monkeypatch.setattr(f"polybohr.cli.{name}", fail)
        code, out, err = run(capsys, "sweep", "--theorem", "classical", "--lambda", "0.5", "--seeds", "3")
        assert code == 2
        assert out == "" and "--lambda" in err and "--seeds" in err

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

    @pytest.mark.parametrize("command, flag, value", [
        ("radius", "--r", "0.5"),
        ("radius", "--r-min", "0.1"),
        ("radius", "--r-max", "0.2"),
        ("radius", "--r-steps", "2"),
        ("radius", "--lambda", "0.5"),
        ("radius", "--seeds", "3"),
        ("radius", "--m", "1"),
        ("radius", "--truncation", "32"),
        ("radius", "--a1", "0.5"),
        ("radius", "--a2", "0.9"),
        ("verify", "--r-min", "0.1"),
        ("verify", "--r-max", "0.2"),
        ("verify", "--r-steps", "2"),
        ("verify", "--lambda", "0.5"),
        ("verify", "--a1", "0.5"),
        ("verify", "--a2", "0.9"),
        ("witness", "--r-min", "0.1"),
        ("witness", "--r-max", "0.2"),
        ("witness", "--r-steps", "2"),
        ("witness", "--lambda", "0.5"),
        ("witness", "--seeds", "3"),
        ("witness", "--m", "1"),
        ("witness", "--a1", "0.5"),
        ("witness", "--a2", "0.9"),
        ("sweep", "--r", "0.5"),
        ("sweep", "--a1", "0.5"),
        ("sweep", "--a2", "0.9"),
        ("counterexample", "--r-min", "0.1"),
        ("counterexample", "--r-max", "0.2"),
        ("counterexample", "--r-steps", "2"),
        ("counterexample", "--lambda", "0.5"),
        ("counterexample", "--seeds", "3"),
        ("counterexample", "--m", "1"),
    ])
    def test_option_the_subcommand_does_not_read_exits_2(self, capsys, tmp_path, command, flag, value):
        base = {
            "radius": ("--theorem", "classical"),
            "verify": ("--theorem", "classical", "--seeds", "2"),
            "witness": ("--theorem", "classical", "--r", "0.5"),
            "sweep": ("--theorem", "classical", "--r-steps", "2"),
            "counterexample": ("--theorem", "improved_squared", "--a1", "0.6", "--a2", "0.9999", "--r", "0.7"),
        }[command]
        code, out, err = run(capsys, command, *base, flag, value)
        assert code == 2
        assert out == "" and f"{flag} {value}" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag.replace('-', '')} = {value}\n")
        code, out, err = run(capsys, command, *base, "--config", str(cfg))
        assert code == 2
        assert out == "" and f"{flag}={value}" in err

    @pytest.mark.parametrize("argv, name", [
        (("radius", "--theorem", "classical", "--k", "3"), "k"),
        (("verify", "--theorem", "classical", "--seeds", "2", "--k", "3"), "k"),
        (("radius", "--theorem", "composed_k", "--k", "2", "--p", "1"), "p"),
    ])
    def test_parameter_of_another_kind_exits_2(self, capsys, tmp_path, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and f"error: {name} applies only to kind" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {argv[-1]}\n")
        code, out, err = run(capsys, *argv[:-2], "--config", str(cfg))
        assert code == 2
        assert out == "" and f"error: {name} applies only to kind" in err

    def test_abbreviated_flag_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "classical", "--seeds", "2", "--trunc", "32")
        assert code == 2
        assert out == "" and "--trunc 32" in err

    def test_order_past_the_largest_float_exits_2(self, capsys):
        huge = "1" + "0" * 400
        for argv in (("radius",), ("verify", "--seeds", "2")):
            code, out, err = run(capsys, *argv, "--theorem", "composed_k", "--k", huge)
            assert code == 2
            assert out == "" and err.startswith("error: composition order k")

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

    def test_hash_starts_a_comment_only_after_whitespace(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        target = tmp_path / "res#1.json"
        cfg.write_text(f"  # indented comment\ntheorem = classical  # the scalar sum\nformat = json\t# tab\nout = {target}\n")
        code, out, _ = run(capsys, "radius", "--config", str(cfg))
        assert code == 0
        assert out == f"wrote {target}\n"
        assert json.loads(target.read_text())["config"]["out"] == str(target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res#1.json", "run.cfg"]

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorems = classical\n")
        assert run(capsys, "radius", "--config", str(cfg))[0] == 2

    def test_phase_count_is_not_an_option(self, capsys, tmp_path):
        # Every circle is sampled at slices.PHASES; neither a flag nor a key sets it.
        code, out, err = run(capsys, "verify", "--theorem", "classical", "--seeds", "2", "--phases", "4")
        assert code == 2
        assert out == "" and "--phases" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem = classical\nphases = 4\n")
        code, out, err = run(capsys, "verify", "--seeds", "2", "--config", str(cfg))
        assert code == 2
        assert out == "" and "unknown key 'phases'" in err

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

    def test_empty_output_path_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out =\n")
        for argv in (("--out", ""), ("--config", str(cfg))):
            code, out, err = run(capsys, "radius", "--theorem", "classical", *argv)
            assert code == 2
            assert out == "" and err.startswith("error: --out")

    def test_config_values_are_validated_like_flags(self, capsys, tmp_path):
        # `--format xml` and `--m 7` exit 2; the same values from a file must too.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem = classical\nformat = xml\n")
        code, out, err = run(capsys, "radius", "--config", str(cfg))
        assert code == 2
        assert out == "" and "invalid choice: 'xml'" in err
        cfg.write_text("theorem = refined_p\np = 1\nm = 7\n")
        code, out, _ = run(capsys, "verify", "--seeds", "2", "--config", str(cfg))
        assert code == 2
        assert out == ""

    def test_bad_config_entry_exits_2_even_when_a_flag_overrides_it(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem = classical\nformat = xml\nseeds = many\n")
        assert run(capsys, "verify", "--config", str(cfg), "--format", "json", "--seeds", "3")[0] == 2
        cfg.write_text("theorem = classical\nformat = xml\n")
        assert run(capsys, "radius", "--config", str(cfg), "--format", "json")[0] == 2

    def test_missing_output_directory_exits_2_before_computing(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("computed although the report cannot be written")

        for name in ("verify_batch", "eval_functional", "random_slice_batch", "extremal_slice"):
            monkeypatch.setattr(f"polybohr.cli.{name}", fail)
        target = tmp_path / "missing_dir" / "x.json"
        (tmp_path / "sub").mkdir()
        for argv in (
            ("verify", "--theorem", "classical", "--seeds", "3"),
            ("sweep", "--theorem", "classical", "--lambda", "0.5", "--r-steps", "2"),
        ):
            code, out, err = run(capsys, *argv, "--format", "json", "--out", str(target))
            assert code == 2
            assert out == "" and err.startswith("error: ") and "missing_dir" in err
            # An existing directory cannot take the report either.
            code, out, err = run(capsys, *argv, "--out", str(tmp_path / "sub"))
            assert code == 2
            assert out == "" and err.startswith("error: ") and "is a directory" in err
        assert not target.parent.exists()
        assert list((tmp_path / "sub").iterdir()) == []


class TestReportLayout:
    def test_json_config_echo(self, capsys):
        def config(*argv):
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            return json.loads(out)["config"]

        # Keys in a fixed order, unset options and those the subcommand does not take left out.
        echo = config("verify", "--theorem", "classical", "--seeds", "2")
        assert list(echo.items()) == [
            ("command", "verify"), ("theorem", "classical"), ("seeds", 2),
            ("truncation", 64), ("format", "json"),
        ]
        echo = config(
            "sweep", "--theorem", "refined_p", "--p", "1", "--lambda", "0.5", "--m", "2",
            "--r-min", "0.1", "--r-max", "0.2", "--r-steps", "2",
        )
        assert list(echo.items()) == [
            ("command", "sweep"), ("theorem", "refined_p"), ("p", 1), ("r_grid", [0.1, 0.2]),
            ("lambda", 0.5), ("m", 2), ("truncation", 64), ("format", "json"),
        ]
        echo = config("radius", "--theorem", "composed_k", "--k", "2")
        assert list(echo.items()) == [("command", "radius"), ("theorem", "composed_k"), ("k", 2), ("format", "json")]

    @pytest.mark.parametrize(
        "argv",
        [
            ("radius", "--theorem", "composed_k", "--k", "3"),
            ("verify", "--theorem", "refined_p", "--p", "2", "--seeds", "3"),
            ("verify", "--theorem", "classical", "--seeds", "1"),
            ("witness", "--theorem", "improved_squared", "--r", "0.65"),
            ("sweep", "--theorem", "composed_k", "--k", "2", "--lambda", "0.3", "--r-steps", "3"),
            ("counterexample", "--theorem", "improved_squared", "--a1", "0.6", "--a2", "0.9", "--r", "0.5"),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_json_report_is_laid_out_by_indent_2(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_json_report_file_keeps_the_layout_with_escaped_characters(self, capsys, tmp_path):
        target = tmp_path / 'r\u00e9sum\u00e9 "\u03bb" \\ report.json'
        code, out, _ = run(
            capsys, "verify", "--theorem", "refined_p", "--p", "1", "--seeds", "2", "--format", "json",
            "--out", str(target),
        )
        assert code == 0 and out == f"wrote {target}\n"
        text = target.read_text(encoding="utf-8")
        assert json.loads(text)["config"]["out"] == str(target)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_verify_csv_has_the_sweep_columns(self, capsys):
        _, verify, _ = run(capsys, "verify", "--theorem", "classical", "--seeds", "2", "--format", "csv")
        _, sweep, _ = run(capsys, "sweep", "--theorem", "classical", "--r-steps", "2", "--format", "csv")
        assert verify.splitlines()[0] == sweep.splitlines()[0]
        assert verify.splitlines()[0] == "theorem,p,k,lambda_or_seed,r,value_lower,value_upper,tail,bound_ok"
        assert len(verify.splitlines()) == 3

    @pytest.mark.parametrize(
        "argv, header",
        [
            (
                ("radius", "--theorem", "composed_k", "--k", "2"),
                "theorem,p,k,radius,bracket_lo,bracket_hi,residual,iterations",
            ),
            (
                ("counterexample", "--theorem", "composed_k", "--k", "1", "--a1", "0.5", "--a2", "0.9999", "--r", "0.5"),
                "theorem,p,k,a1,a2,r,value_lower,value_upper,analytic_bound,succeeded",
            ),
        ],
        ids=["radius", "counterexample"],
    )
    def test_record_csv_layout(self, capsys, argv, header):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == header
        assert len(lines) == 2 and len(next(csv.reader(lines[1:]))) == header.count(",") + 1

    @pytest.mark.parametrize(
        "theorem, spec",
        [(("refined_p", "--p", "2"), FunctionalSpec.refined(2)), (("classical",), FunctionalSpec.classical())],
        ids=["refined_p2", "classical"],
    )
    def test_verify_rows_hold_the_evaluated_values(self, capsys, theorem, spec):
        # 40 seeds: one draw block that hashes its seeds as columns.
        r = closed_form_radius(spec)
        values = eval_functional_batch(random_slice_batch(range(40), scalar=spec.kind == "classical"), spec, r)
        code, out, _ = run(capsys, "verify", "--theorem", *theorem, "--seeds", "40", "--format", "json")
        expected = [
            {
                "theorem": spec.kind, "p": spec.p, "k": None, "lambda_or_seed": seed, "r": r,
                "value_lower": value.lower, "value_upper": value.upper, "tail": value.tail,
                "bound_ok": value.upper <= 1.0,
            }
            for seed, value in enumerate(values)
        ]
        assert json.loads(out)["results"] == expected  # JSON floats read back exactly
        code, out, _ = run(capsys, "verify", "--theorem", *theorem, "--seeds", "40", "--format", "csv")
        assert out.splitlines()[1:] == [",".join(_fmt_cells(row.values())) for row in expected]

    def test_report_writer_agrees_with_the_json_and_csv_modules(self, capsys):
        # Shared values and columns of every cell type, with non-finite floats, a signed zero, a
        # mixed column, text that JSON escapes and CSV quotes, and NUL, which splits the JSON encoder's cells.
        columns = {
            "text": 'a {0} {b}, "c"\n\u03bb',
            "nul": ["\x00", "a\x00b", "\x00\x00"],
            "none": None,
            "int": [1, 2**70, -3],
            "float": [0.1, -0.0, 1e300],
            "odd": [math.inf, math.nan, -math.inf],
            "bool": [True, False, True],
            "mixed": [1, 2.5, "x,y"],
            "shared_float": 1 / 3,
        }
        rows = [
            {key: column[i] if isinstance(column, list) else column for key, column in columns.items()}
            for i in range(3)
        ]
        args = build_parser().parse_args(["verify", "--theorem", "classical", "--format", "json"])
        args.r_grid = None
        _emit(args, 0, columns, [])
        config = {"command": "verify", "theorem": "classical", "truncation": 64, "format": "json"}
        report = {"command": "verify", "config": config}
        assert capsys.readouterr().out == json.dumps({**report, "results": rows, "all_pass": True}, indent=2) + "\n"
        args.fmt = "csv"
        _emit(args, 0, columns, [])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([list(columns), *(_fmt_cells(row.values()) for row in rows)])
        assert capsys.readouterr().out == buf.getvalue()



class TestSharedParser:
    def test_a_mixed_sequence_on_the_shared_parser_matches_fresh_parsers(self, capsys, tmp_path, monkeypatch):
        # main() builds its parser once per process; every answer must be the one a freshly built parser gives,
        # whatever ran before on the shared one: a config file's entries, a usage error, each subcommand.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem = refined_p\np = 2\nformat = json\n")
        sequence = [
            ["radius", "--config", str(cfg)],
            ["radius", "--theorem", "classical", "--r", "0.5"],  # a flag radius does not take: usage error
            ["radius", "--theorem", "refined_p", "--p", "1"],  # nothing of the config's format carries over
            ["verify", "--config", str(cfg), "--seeds", "3", "--format", "csv"],
            ["verify", "--theorem", "composed_k", "--k", "2", "--m", "3", "--seeds", "3"],
            ["verify", "--theorem", "refined_p", "--seeds", "3"],  # p missing: a domain error
            ["witness", "--theorem", "refined_p", "--p", "1", "--r", "0.21"],
            ["sweep", "--theorem", "refined_p", "--p", "2", "--seeds", "5", "--r-steps", "3", "--format", "json"],
            ["sweep", "--theorem", "classical", "--lambda", "0.5", "--r-steps", "2"],
            ["counterexample", "--theorem", "composed_k", "--k", "1", "--a1", "0.5", "--a2", "0.9999", "--r", "0.5"],
            ["frobnicate"],
            ["radius", "--config", str(cfg)],
        ]
        assert cli._shared_parser() is cli._shared_parser()
        shared = [run(capsys, *argv) for argv in sequence]
        monkeypatch.setattr(cli, "_shared_parser", build_parser)
        fresh = [run(capsys, *argv) for argv in sequence]
        assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0]
        for argv, got, want in zip(sequence, shared, fresh):
            assert got == want, argv

def _fmt_cells(values):
    """Each value as the CSV report writes it: floats with 12 significant digits, bools in lower case, None empty."""
    return [
        "" if v is None else str(v).lower() if isinstance(v, bool) else f"{v:.12g}" if isinstance(v, float) else str(v)
        for v in values
    ]
