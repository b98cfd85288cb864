import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greyassess import assess, check_equivalence, load_counts_csv, tfn
from greyassess.cli import _round2, main

from conftest import G2_LOWER, G2_UPPER, PLAYERS_RAW_MEAN, PLAYERS_WHITENED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as the console script does."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "greyassess.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestAssessCommand:
    def test_counts_text_output(self, capsys, counts_csv):
        code, out, err = run(capsys, "assess", "--counts", str(counts_csv))
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "G1: mean=[62.42, 79.33] whitened=70.88 grade=C n=60 (A:20 B:15 C:7 D:10 F:8)"
        assert lines[1] == "G2: mean=[65.88, 79.53] whitened=72.71 grade=C n=85 (A:20 B:30 C:15 D:15 F:5)"

    def test_counts_json_full_precision(self, capsys, counts_csv):
        code, out, _ = run(capsys, "assess", "--counts", str(counts_csv), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [entry["group"] for entry in payload] == ["G1", "G2"]
        g2 = payload[1]
        assert g2["mean_gn"]["lower"] == pytest.approx(G2_LOWER, abs=1e-12)
        assert g2["mean_gn"]["upper"] == pytest.approx(G2_UPPER, abs=1e-12)
        assert g2["whitened"] == pytest.approx((G2_LOWER + G2_UPPER) / 2, abs=1e-12)
        assert g2["grade"] == "C"
        assert g2["t"] == 0.5
        assert g2["distribution"] == {"A": 20, "B": 30, "C": 15, "D": 15, "F": 5}

    def test_scores_text_output(self, capsys, scores_csv):
        code, out, _ = run(capsys, "assess", "--scores", str(scores_csv))
        assert code == 0
        assert "all: mean=[58.33, 79.63] whitened=68.98 grade=C n=30 (A:14 B:4 C:1 D:4 F:7)" in out
        assert "raw mean 72.07" in out
        assert "difference vs whitened 3.08" in out

    def test_scores_json_extras(self, capsys, scores_csv):
        code, out, _ = run(capsys, "assess", "--scores", str(scores_csv), "--format", "json")
        assert code == 0
        (entry,) = json.loads(out)
        assert entry["raw_mean"] == pytest.approx(PLAYERS_RAW_MEAN, abs=1e-12)
        assert entry["difference"] == pytest.approx(PLAYERS_RAW_MEAN - PLAYERS_WHITENED, abs=1e-9)
        assert entry["whitened"] == pytest.approx(PLAYERS_WHITENED, abs=1e-12)

    def test_check_tfn(self, capsys, counts_csv):
        code, out, _ = run(capsys, "assess", "--counts", str(counts_csv), "--check-tfn")
        assert code == 0
        assert out.count("tfn-equivalence PASS") == 2

    def test_check_tfn_json(self, capsys, counts_csv):
        code, out, _ = run(
            capsys, "assess", "--counts", str(counts_csv), "--check-tfn", "--format", "json"
        )
        payload = json.loads(out)
        assert all(entry["tfn_check"]["passed"] for entry in payload)

    @staticmethod
    def skew_tfn_mean(monkeypatch, failing_n):
        """Make the fuzzy route of the group of ``failing_n`` objects disagree."""
        exact = tfn.tfn_mean

        def skewed(dist, scale):
            mean = exact(dist, scale)
            if dist.n != failing_n:
                return mean
            return tfn.TriangularFuzzyNumber(mean.a, mean.b, mean.c * (1 + 1e-6))

        monkeypatch.setattr(tfn, "tfn_mean", skewed)

    def test_check_tfn_failure_is_reported_with_exit_0(self, capsys, counts_csv, monkeypatch):
        self.skew_tfn_mean(monkeypatch, failing_n=85)  # G2
        code, out, err = run(capsys, "assess", "--counts", str(counts_csv), "--check-tfn")
        assert code == 0 and err == ""
        assert "G1: tfn-equivalence PASS" in out
        assert "G2: tfn-equivalence FAIL (difference 4.0e-05, tolerance 1e-09)\n" in out

    @pytest.mark.parametrize("failing_n", [60, 85], ids=["first-entry", "later-entry"])
    def test_check_tfn_failure_json(self, capsys, counts_csv, scale, monkeypatch, failing_n):
        self.skew_tfn_mean(monkeypatch, failing_n)
        code, out, _ = run(
            capsys, "assess", "--counts", str(counts_csv), "--check-tfn", "--format", "json"
        )
        assert code == 0
        payload = [
            {**report.to_dict(), "tfn_check": vars(check_equivalence(report.distribution, scale))}
            for report in (
                assess(dist, scale, group_id=group)
                for group, dist in load_counts_csv(counts_csv, scale).items()
            )
        ]
        assert [entry["tfn_check"]["passed"] for entry in payload] == [
            entry["n"] != failing_n for entry in payload
        ]
        assert out.count('"passed": false') == 1
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_custom_t(self, capsys, counts_csv):
        code, out, _ = run(
            capsys, "assess", "--counts", str(counts_csv), "--t", "0.25", "--format", "json"
        )
        g1 = json.loads(out)[0]
        expected = 0.75 * g1["mean_gn"]["lower"] + 0.25 * g1["mean_gn"]["upper"]
        assert g1["whitened"] == pytest.approx(expected, abs=1e-12)

    def test_custom_scale_file(self, capsys, counts_csv, tmp_path):
        scale_file = tmp_path / "strict.txt"
        scale_file.write_text("A 90 100\nB 80 89\nC 70 79\nD 60 69\nF 0 59\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "assess", "--counts", str(counts_csv), "--scale", str(scale_file),
            "--format", "json",
        )
        g1 = json.loads(out)[0]
        assert g1["mean_gn"]["lower"] == pytest.approx(4090 / 60, abs=1e-9)
        assert g1["mean_gn"]["upper"] == pytest.approx(5050 / 60, abs=1e-9)
        assert g1["grade"] == "C"

    def test_neither_source_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["assess"])
        assert exc_info.value.code == 2

    def test_both_source_flags_is_usage_error(self, capsys, counts_csv, scores_csv):
        with pytest.raises(SystemExit) as exc_info:
            main(["assess", "--counts", str(counts_csv), "--scores", str(scores_csv)])
        assert exc_info.value.code == 2

    def test_t_out_of_range_is_usage_error(self, capsys, counts_csv):
        with pytest.raises(SystemExit) as exc_info:
            main(["assess", "--counts", str(counts_csv), "--t", "1.5"])
        assert exc_info.value.code == 2

    def test_t_not_a_number_is_usage_error(self, capsys, counts_csv):
        with pytest.raises(SystemExit) as exc_info:
            main(["assess", "--counts", str(counts_csv), "--t", "abc"])
        assert exc_info.value.code == 2
        assert "not a number: 'abc'" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "assess", "--counts", str(tmp_path / "absent.csv"))
        assert code == 1
        assert "error:" in err

    def test_bad_counts_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group,grade,count\nG1,A,-3\n", encoding="utf-8")
        code, _, err = run(capsys, "assess", "--counts", str(path))
        assert code == 1
        assert "line 2" in err

    def test_invalid_scale_file_rejected(self, capsys, counts_csv, tmp_path):
        scale_file = tmp_path / "broken.txt"
        scale_file.write_text("A 85 100\nB 80 90\n", encoding="utf-8")
        code, _, err = run(capsys, "assess", "--counts", str(counts_csv), "--scale", str(scale_file))
        assert code == 1
        assert "invalid scale" in err

    @pytest.mark.parametrize("command", ["assess", "compare"])
    def test_invalid_scale_is_one_error_line(self, capsys, counts_csv, tmp_path, command):
        scale_file = tmp_path / "broken.txt"
        scale_file.write_text("A 85 100\nB 80 90\n", encoding="utf-8")
        code, out, err = run(capsys, command, "--counts", str(counts_csv), "--scale", str(scale_file))
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid scale: grades 'A' and 'B' overlap: [85, 100] vs [80, 90]; "
            "lowest grade 'B' starts at 80, not at the domain minimum 0\n"
        )

    def test_point_grade_whitens_inside_its_interval(self, capsys, tmp_path):
        scale_file = tmp_path / "point.txt"
        scale_file.write_text("domain 0 84\nA 84 84\nB 0 83\n", encoding="utf-8")
        counts = tmp_path / "counts.csv"
        counts.write_text("group,grade,count\nG1,A,3\n", encoding="utf-8")
        code, out, err = run(
            capsys, "assess", "--counts", str(counts), "--scale", str(scale_file), "--t", "0.1"
        )
        assert code == 0 and err == ""
        assert out == "G1: mean=[84.00, 84.00] whitened=84.00 grade=A n=3 (A:3 B:0)\n"

    def test_byte_order_marks(self, capsys, counts_csv, tmp_path):
        scale_file = tmp_path / "scale.txt"
        scale_file.write_bytes(b"\xef\xbb\xbfA 85 100\nB 75 84\nC 60 74\nD 50 59\nF 0 49\n")
        counts = tmp_path / "counts.csv"
        counts.write_bytes(b"\xef\xbb\xbf" + counts_csv.read_bytes())
        plain = run(capsys, "assess", "--counts", str(counts_csv))
        assert run(capsys, "assess", "--counts", str(counts), "--scale", str(scale_file)) == plain

    def test_invalid_utf8_error_names_the_file(self, capsys, counts_csv, tmp_path):
        scale_file = tmp_path / "scale.txt"
        scale_file.write_bytes(b"A 85 100\nB 75 84\nC 60 74 \xff\nD 50 59\nF 0 49\n")
        code, out, err = run(
            capsys, "assess", "--counts", str(counts_csv), "--scale", str(scale_file)
        )
        assert code == 1 and out == ""
        assert err == f"error: {scale_file}: line 3: not valid UTF-8 at byte 0xff (invalid start byte)\n"

    def test_overflowing_mean_is_data_error(self, capsys, tmp_path):
        # the float endpoint sum 1.7e308 + 9e307 overflows; the exact mean is finite
        scale_file = tmp_path / "huge.txt"
        scale_file.write_text("domain 0 1.7e308\nA 1e308 1.7e308\nF 0 9e307\n", encoding="utf-8")
        counts = tmp_path / "counts.csv"
        counts.write_text("group,grade,count\nG1,A,1\nG1,F,1\n", encoding="utf-8")
        code, out, err = run(
            capsys, "assess", "--counts", str(counts), "--scale", str(scale_file), "--format", "json"
        )
        assert code == 0 and err == ""
        assert json.loads(out)[0]["mean_gn"] == {"lower": 5e307, "upper": 1.3e308}

    def test_count_too_large_for_a_float_is_data_error(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("group,grade,count\nG1,A,1\nG1,B," + "9" * 400 + "\n", encoding="utf-8")
        code, out, err = run_process("assess", "--counts", str(counts))
        assert code == 1 and out == ""
        assert err == "error: line 3: count for G1,B is too large for a float\n"

    def test_total_count_too_large_for_a_float_is_data_error(self, tmp_path):
        counts = tmp_path / "counts.csv"
        big = "1" + "0" * 308
        counts.write_text(f"group,grade,count\nG1,A,{big}\nG1,B,{big}\n", encoding="utf-8")
        code, out, err = run_process("assess", "--counts", str(counts), "--check-tfn")
        assert code == 1 and out == ""
        assert err == "error: total count of the distribution is too large for a float\n"

    def test_large_values_print_in_full_with_two_decimals(self, capsys, tmp_path):
        scale_file = tmp_path / "large.txt"
        scale_file.write_text("domain 0 1e27\nA 5e26 1e27\nB 0 4e26\n", encoding="utf-8")
        counts = tmp_path / "counts.csv"
        counts.write_text("group,grade,count\nG1,A,1\n", encoding="utf-8")
        whitened = "750000000000000100000000000.00"  # 7.500000000000001e+26
        code, out, err = run(capsys, "assess", "--counts", str(counts), "--scale", str(scale_file))
        assert code == 0 and err == ""
        assert out == (
            "G1: mean=[500000000000000000000000000.00, 1000000000000000000000000000.00] "
            f"whitened={whitened} grade=A n=1 (A:1 B:0)\n"
        )
        code, out, err = run(capsys, "compare", "--counts", str(counts), "--scale", str(scale_file))
        assert code == 0 and err == ""
        assert out == f"1. G1: whitened={whitened} grade=A\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_score_sum_is_data_error(self, capsys, tmp_path, fmt):
        scale_file = tmp_path / "huge.txt"
        scale_file.write_text("domain 0 1.7e308\nA 1e308 1.7e308\nB 0 0.85e308\n", encoding="utf-8")
        scores = tmp_path / "scores.csv"
        scores.write_text("subject,score\nP1,0.95e308\nP1,0.95e308\n", encoding="utf-8")
        code, out, err = run(
            capsys, "assess", "--scores", str(scores), "--scale", str(scale_file), "--format", fmt
        )
        assert code == 1 and out == ""
        assert err == "error: sum of the scores is too large for a float\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_overflowing_difference_is_data_error(self, capsys, tmp_path, fmt):
        scale_file = tmp_path / "symmetric.txt"
        scale_file.write_text(
            "domain -1.7e308 1.7e308\nA 1.6e308 1.7e308\nB -1.7e308 -1.6e308\n", encoding="utf-8"
        )
        scores = tmp_path / "scores.csv"
        scores.write_text("subject,score\nP1,1.5e308\n", encoding="utf-8")
        argv = ("assess", "--scores", str(scores), "--scale", str(scale_file), "--t", "0")
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 1 and out == ""
        assert err == (
            "error: difference of the raw mean and the whitened value is too large for a float\n"
        )

    def test_check_tfn_passes_near_the_largest_float(self, capsys, tmp_path):
        scale_file = tmp_path / "huge.txt"
        scale_file.write_text("domain 0 1.7e308\nA 1e308 1.7e308\nB 0 0.9e308\n", encoding="utf-8")
        counts = tmp_path / "counts.csv"
        counts.write_text("group,grade,count\nG1,A,1\n", encoding="utf-8")
        argv = ("assess", "--counts", str(counts), "--scale", str(scale_file), "--check-tfn")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "G1: tfn-equivalence PASS (difference 0.0e+00, tolerance 1e-09)"
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)[0]["tfn_check"]["tfn_value"] == 1.35e308


class TestCompareCommand:
    def test_counts_ranking(self, capsys, counts_csv):
        code, out, _ = run(capsys, "compare", "--counts", str(counts_csv))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1. G2:")
        assert lines[1].startswith("2. G1:")

    def test_scores_ranks_subjects_with_tie(self, capsys, scores_csv):
        code, out, _ = run(capsys, "compare", "--scores", str(scores_csv))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1. P4:")
        # P2 and P3 share the distribution A:4 B:2 and therefore tie at rank 2
        assert {lines[1].split()[1], lines[2].split()[1]} == {"P2:", "P3:"}
        assert "(tie)" in lines[1] and "(tie)" in lines[2]
        assert lines[3].startswith("4. P5:")
        assert lines[4].startswith("5. P1:")

    def test_json_ranks(self, capsys, counts_csv):
        code, out, _ = run(capsys, "compare", "--counts", str(counts_csv), "--format", "json")
        payload = json.loads(out)
        assert [(entry["rank"], entry["group"]) for entry in payload] == [(1, "G2"), (2, "G1")]


class TestValidateScaleCommand:
    def test_builtin_scale_ok(self, capsys):
        code, out, _ = run(capsys, "validate-scale")
        assert code == 0
        assert "scale OK" in out

    def test_violations_reported(self, capsys, tmp_path):
        scale_file = tmp_path / "broken.txt"
        scale_file.write_text("A 85 100\nB 80 90\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate-scale", "--scale", str(scale_file))
        assert code == 1
        assert "violation:" in out and "overlap" in out

    def test_json_output(self, capsys, tmp_path):
        scale_file = tmp_path / "broken.txt"
        scale_file.write_text("A 85 100\nB 80 90\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate-scale", "--scale", str(scale_file), "--format", "json")
        payload = json.loads(out)
        assert code == 1 and payload["valid"] is False and payload["violations"]

    def test_unparseable_scale_file(self, capsys, tmp_path):
        scale_file = tmp_path / "bad.txt"
        scale_file.write_text("A eighty 100\n", encoding="utf-8")
        code, _, err = run(capsys, "validate-scale", "--scale", str(scale_file))
        assert code == 1 and "error:" in err

    def test_empty_domain_is_a_violation(self, capsys, tmp_path):
        scale_file = tmp_path / "point.txt"
        scale_file.write_text("domain 5 5\nA 5 5\nB 5 5\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate-scale", "--scale", str(scale_file))
        assert code == 1
        assert "violation: score domain is empty: [5, 5]" in out


class TestCalcCommand:
    def test_addition(self, capsys):
        code, out, _ = run(capsys, "calc", "[1,2] + [3,4]")
        assert code == 0 and out.strip() == "[4, 6]"

    def test_rounding_to_four_places(self, capsys):
        code, out, _ = run(capsys, "calc", "[1,2] / [3,3]")
        assert code == 0 and out.strip() == "[0.3333, 0.6667]"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "calc", "--format", "json", "[1,2] / [4,5]")
        assert code == 0 and json.loads(out) == {"lower": 0.2, "upper": 0.5}

    def test_syntax_error_is_data_error(self, capsys):
        code, _, err = run(capsys, "calc", "[5,3]")
        assert code == 1 and "error:" in err

    def test_division_error_is_data_error(self, capsys):
        code, _, err = run(capsys, "calc", "[1,2] / [-1,1]")
        assert code == 1 and "containing zero" in err

    def test_unbalanced_parenthesis(self, capsys):
        code, _, err = run(capsys, "calc", "(1 + 2")
        assert code == 1 and "offset" in err

    @pytest.mark.parametrize("text, position", [("1+-\u00b2", 3), ("1+-.", 3), ("1 - -.x", 5)])
    def test_minus_before_a_non_number_is_data_error(self, capsys, text, position):
        code, out, err = run(capsys, "calc", text)
        assert code == 1 and out == ""
        assert err == f"error: unexpected character {text[position]!r} (at offset {position})\n"

    def test_overflowing_number_is_positioned_data_error(self, capsys):
        code, out, err = run(capsys, "calc", "1 + 1e400")
        assert code == 1 and out == ""
        assert err == (
            "error: invalid number literal: interval endpoints must be finite, "
            "got [inf, inf] (at offset 4)\n"
        )

    def test_deep_nesting(self, capsys):
        code, out, err = run(capsys, "calc", "(" * 5000 + "1" + ")" * 5000)
        assert code == 0 and err == ""
        assert out == "[1, 1]\n"

    def test_long_flat_sum(self, capsys):
        code, out, err = run(capsys, "calc", " + ".join(["[1,2]"] * 10000))
        assert code == 0 and err == ""
        assert out == "[10000, 20000]\n"

    def test_zero_divisor_under_a_long_sum(self, capsys):
        text = "(" + " + ".join(["1"] * 3000) + ") / [-1, 1]"
        code, out, err = run(capsys, "calc", text)
        assert code == 1 and out == ""
        assert err.startswith("error: division by interval containing zero in ")
        assert err.count("\n") == 1


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["calc", "--scale", "x", "1"], ["calc", "--t", "2", "1"], ["validate-scale", "--t", "0.5"]],
    )
    def test_option_of_another_subcommand_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2


def indent2(out):
    """``out`` re-encoded as ``json.dumps(..., indent=2)`` prints it."""
    return json.dumps(json.loads(out), indent=2) + "\n"


class TestJsonBytes:
    def test_validate_scale_with_non_ascii_label(self, capsys, tmp_path):
        scale_file = tmp_path / "accented.txt"
        scale_file.write_text("Á 85 100\nB 80 90\nÁ 0 10\n", encoding="utf-8")
        code, out, err = run(capsys, "validate-scale", "--scale", str(scale_file), "--format", "json")
        assert code == 1 and err == ""
        assert out == indent2(out)
        assert "\\u00c1" in out and "Á" not in out
        assert json.loads(out) == {
            "valid": False,
            "violations": [
                "duplicate grade label 'Á'",
                "grades 'Á' and 'B' overlap: [85, 100] vs [80, 90]",
            ],
        }

    @pytest.mark.parametrize("argv", [["assess"], ["assess", "--check-tfn"], ["compare"]])
    def test_non_ascii_group_id(self, capsys, tmp_path, argv):
        counts = tmp_path / "groups.csv"
        counts.write_text(
            "group,grade,count\nGrupa Żółw,A,3\nGrupa Żółw,B,2\nG2,C,4\n", encoding="utf-8"
        )
        code, out, err = run(capsys, *argv, "--counts", str(counts), "--format", "json")
        assert code == 0 and err == ""
        assert out == indent2(out)
        assert '"group": "Grupa \\u017b\\u00f3\\u0142w"' in out
        assert [entry["group"] for entry in json.loads(out)] == ["Grupa Żółw", "G2"]


class TestRound2:
    @pytest.mark.parametrize(
        "value, text",
        [
            (0.125, "0.13"),
            (2.675, "2.68"),
            (-0.005, "-0.01"),
            (-0.0, "-0.00"),
            (5e-324, "0.00"),
            (72.70588235294117, "72.71"),
            (1e26, "100000000000000000000000000.00"),
            (-1e30, "-1000000000000000000000000000000.00"),
        ],
    )
    def test_half_up_to_two_decimals(self, value, text):
        assert _round2(value) == text

    def test_largest_float_prints_its_shortest_repr_in_full(self):
        assert _round2(1.7976931348623157e308) == "17976931348623157" + "0" * 292 + ".00"
