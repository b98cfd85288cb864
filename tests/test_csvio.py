from pathlib import Path

import pytest

from greyassess import (
    DataFormatError,
    dump_counts_csv,
    load_counts_csv,
    load_scores_csv,
    read_scale_file,
)

from conftest import PLAYER_SCORES, TABLE1_G1, TABLE1_G2


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCounts:
    def test_table_one(self, counts_csv, scale):
        groups = load_counts_csv(counts_csv, scale)
        assert list(groups) == ["G1", "G2"]
        assert groups["G1"].counts == TABLE1_G1
        assert groups["G2"].counts == TABLE1_G2
        assert groups["G1"].n == 60
        assert groups["G2"].n == 85

    def test_missing_grades_default_to_zero(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\nG1,A,3\n")
        groups = load_counts_csv(path, scale)
        assert groups["G1"].counts == {"A": 3, "B": 0, "C": 0, "D": 0, "F": 0}

    def test_comments_ignored(self, tmp_path, scale):
        path = write(tmp_path, "# table\ngroup,grade,count\n# middle\nG1,A,3\n")
        assert load_counts_csv(path, scale)["G1"].count("A") == 3

    def test_header_only(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_counts_csv(path, scale)

    def test_wrong_header(self, tmp_path, scale):
        path = write(tmp_path, "grp,grade,count\nG1,A,3\n")
        with pytest.raises(DataFormatError, match="header"):
            load_counts_csv(path, scale)

    def test_negative_count_reports_line(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\nG1,A,-3\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_counts_csv(path, scale)

    def test_count_too_large_for_a_float(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\nG1,A," + "9" * 400 + "\n")
        with pytest.raises(DataFormatError, match="line 2: count for G1,A is too large"):
            load_counts_csv(path, scale)

    def test_non_integer_count(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\nG1,A,lots\n")
        with pytest.raises(DataFormatError, match="not an integer"):
            load_counts_csv(path, scale)

    def test_unknown_grade(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\nG1,Z,3\n")
        with pytest.raises(DataFormatError, match="unknown grade"):
            load_counts_csv(path, scale)

    def test_duplicate_group_grade(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\nG1,A,3\nG1,A,4\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_counts_csv(path, scale)

    def test_duplicate_after_other_groups_reports_its_line(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\nG1,A,3\nG2,A,4\nG2,B,1\nG1,A,5\n")
        with pytest.raises(DataFormatError, match="line 5: duplicate entry for group 'G1' grade 'A'"):
            load_counts_csv(path, scale)

    def test_malformed_row(self, tmp_path, scale):
        path = write(tmp_path, "group,grade,count\nG1,A\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_counts_csv(path, scale)

    def test_round_trip(self, counts_csv, tmp_path, scale):
        groups = load_counts_csv(counts_csv, scale)
        out = tmp_path / "out.csv"
        dump_counts_csv(groups, out, scale)
        assert load_counts_csv(out, scale) == groups


class TestLoadScores:
    def test_example_two(self, scores_csv, scale):
        sheet = load_scores_csv(scores_csv, scale)
        assert len(sheet.subjects) == 5
        assert [subject for subject, _ in sheet.subjects] == ["P1", "P2", "P3", "P4", "P5"]
        assert all(len(scores) == 6 for _, scores in sheet.subjects)
        assert sheet.subjects == tuple(
            (subject, tuple(float(s) for s in scores)) for subject, scores in PLAYER_SCORES
        )

    def test_duplicate_scores_kept(self, scores_csv, scale):
        sheet = load_scores_csv(scores_csv, scale)
        p1_scores = dict(sheet.subjects)["P1"]
        assert p1_scores.count(49.0) == 2

    def test_non_numeric_score(self, tmp_path, scale):
        path = write(tmp_path, "subject,score\nP1,abc\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_scores_csv(path, scale)

    def test_out_of_domain_score(self, tmp_path, scale):
        path = write(tmp_path, "subject,score\nP1,50\nP1,130\n")
        with pytest.raises(DataFormatError, match="line 3.*P1.*130"):
            load_scores_csv(path, scale)

    def test_wrong_header(self, tmp_path, scale):
        path = write(tmp_path, "player,score\nP1,50\n")
        with pytest.raises(DataFormatError, match="header"):
            load_scores_csv(path, scale)

    def test_empty_file(self, tmp_path, scale):
        path = write(tmp_path, "")
        with pytest.raises(DataFormatError, match="empty file"):
            load_scores_csv(path, scale)

    def test_header_only(self, tmp_path, scale):
        path = write(tmp_path, "subject,score\n")
        with pytest.raises(DataFormatError, match="no data rows found"):
            load_scores_csv(path, scale)

    def test_malformed_row(self, tmp_path, scale):
        path = write(tmp_path, "subject,score\nP1,50\nP1,60,70\n")
        with pytest.raises(DataFormatError, match="line 3: expected 'subject,score'"):
            load_scores_csv(path, scale)


class TestEncoding:
    def test_byte_order_mark_before_counts_header(self, tmp_path, scale):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfgroup,grade,count\nG1,A,3\n")
        assert load_counts_csv(path, scale)["G1"].count("A") == 3

    def test_byte_order_mark_before_scores_header(self, tmp_path, scale):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfsubject,score\nP1,50\n")
        assert load_scores_csv(path, scale).subjects == (("P1", (50.0,)),)

    def test_invalid_utf8_names_file_and_line(self, tmp_path, scale):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"group,grade,count\nG1,A,\xff3\n")
        with pytest.raises(DataFormatError) as exc_info:
            load_counts_csv(path, scale)
        assert str(exc_info.value) == (
            f"{path}: line 2: not valid UTF-8 at byte 0xff (invalid start byte)"
        )

    def test_invalid_utf8_after_byte_order_mark_counts_lines_of_the_text(self, tmp_path, scale):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbfsubject,score\r\nP1,50\r\nP1,\xc3(\r\n")
        with pytest.raises(DataFormatError) as exc_info:
            load_scores_csv(path, scale)
        assert str(exc_info.value) == (
            f"{path}: line 3: not valid UTF-8 at byte 0xc3 (invalid continuation byte)"
        )


class TestShippedData:
    # the sample files under data/ must stay loadable and true to the
    # documented walkthrough
    data_dir = Path(__file__).resolve().parents[1] / "data"

    def test_table_one_file(self, scale):
        groups = load_counts_csv(self.data_dir / "table1.csv", scale)
        assert groups["G1"].n == 60 and groups["G2"].n == 85

    def test_players_file(self, scale):
        sheet = load_scores_csv(self.data_dir / "players.csv", scale)
        assert len(sheet.all_scores()) == 30

    def test_strict_scale_file(self):
        scale = read_scale_file(self.data_dir / "strict_scale.txt")
        assert scale.validate() == []
        assert scale.interval("A").lower == 90
