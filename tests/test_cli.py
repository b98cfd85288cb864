import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greyassess.cli import main

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

    def test_overflowing_mean_is_data_error(self, capsys, tmp_path):
        scale_file = tmp_path / "huge.txt"
        scale_file.write_text("domain 0 1.7e308\nA 1e308 1.7e308\nF 0 9e307\n", encoding="utf-8")
        counts = tmp_path / "counts.csv"
        counts.write_text("group,grade,count\nG1,A,1\nG1,F,1\n", encoding="utf-8")
        code, out, err = run(capsys, "assess", "--counts", str(counts), "--scale", str(scale_file))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_count_too_large_for_a_float_is_data_error(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("group,grade,count\nG1,A,1\nG1,B," + "9" * 400 + "\n", encoding="utf-8")
        code, out, err = run_process("assess", "--counts", str(counts))
        assert code == 1 and out == ""
        assert err == "error: line 3: count for G1,B is too large for a float\n"


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

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2
