import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from greyassess import (
    DataFormatError,
    GradeDistribution,
    GradeScale,
    GreyNumber,
    ScoreSheet,
    default_scale,
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

    @pytest.mark.parametrize(
        "group",
        ["#x", " padded", "padded\t", "a,b", "a\nb", "a\u2028b", "G\ud800"],
        ids=["comment", "leading-space", "trailing-tab", "comma", "newline", "line-separator",
             "lone-surrogate"],
    )
    def test_dump_refuses_group_id_that_cannot_load_back(self, tmp_path, scale, group):
        out = tmp_path / "out.csv"
        groups = {"G1": GradeDistribution({"A": 1}), group: GradeDistribution({"B": 2})}
        with pytest.raises(ValueError, match=re.escape(f"group id {group!r} cannot be written")):
            dump_counts_csv(groups, out, scale)
        assert not out.exists()
        out.write_bytes(b"kept")
        with pytest.raises(ValueError, match=re.escape(f"group id {group!r} cannot be written")):
            dump_counts_csv(groups, out, scale)
        assert out.read_bytes() == b"kept"

    def test_dump_refuses_no_groups(self, tmp_path, scale):
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="no groups to write"):
            dump_counts_csv({}, out, scale)
        assert not out.exists()

    def test_dump_refuses_count_too_large_for_a_float(self, tmp_path, scale):
        out = tmp_path / "out.csv"
        groups = {"G1": GradeDistribution({"A": 1}), "G2": GradeDistribution({"B": 10**309})}
        with pytest.raises(ValueError, match="count for G2,B is too large for a float"):
            dump_counts_csv(groups, out, scale)
        assert not out.exists()

    def test_dump_refuses_grade_outside_the_scale(self, tmp_path, scale):
        out = tmp_path / "out.csv"
        groups = {"G1": GradeDistribution({"A": 1}), "G2": GradeDistribution({"Z": 5})}
        with pytest.raises(ValueError, match="group 'G2' has grade 'Z', which the scale does not define"):
            dump_counts_csv(groups, out, scale)
        assert not out.exists()

    def test_dump_writes_left_out_grades_as_zeros(self, tmp_path, scale):
        out = tmp_path / "out.csv"
        dump_counts_csv({"G1": GradeDistribution({"B": 3})}, out, scale)
        assert load_counts_csv(out, scale) == {
            "G1": GradeDistribution({label: 3 if label == "B" else 0 for label in scale.labels})
        }

    @pytest.mark.parametrize(
        "label", [" A", "A,B", "A\rB", "A\udc00"], ids=["padded", "comma", "return", "lone-surrogate"]
    )
    def test_dump_refuses_grade_label_that_cannot_load_back(self, tmp_path, label):
        scale = GradeScale(((label, GreyNumber(50, 100)), ("F", GreyNumber(0, 49))))
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(f"grade label {label!r} cannot be written")):
            dump_counts_csv({"G1": GradeDistribution({"F": 1})}, out, scale)
        assert not out.exists()
        out.write_bytes(b"kept")
        with pytest.raises(ValueError, match=re.escape(f"grade label {label!r} cannot be written")):
            dump_counts_csv({"G1": GradeDistribution({"F": 1})}, out, scale)
        assert out.read_bytes() == b"kept"


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

    def test_unit_separator_padding_is_trimmed(self, tmp_path, scale):
        # str.strip trims \x1f, float() does not, and splitlines does not break on it
        path = write(tmp_path, "subject,score\nP1,\x1f87.5\n\x1fP2\x1f,\t90\x1f\n")
        assert load_scores_csv(path, scale).subjects == (("P1", (87.5,)), ("P2", (90.0,)))


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
        assert dict(scale.entries)["A"].lower == 90


# Plain loaders that strip every cell of every line, kept as the reference the
# package's loaders must agree with: the same result, or the same first error.


def _reference_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _reference_check_header(lines, expected):
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise DataFormatError(f"empty file: expected header '{','.join(expected)}'") from None
    cells = [cell.strip() for cell in line.split(",")]
    if tuple(cell.lower() for cell in cells) != expected:
        raise DataFormatError(
            f"line {lineno}: expected header '{','.join(expected)}', got '{','.join(cells)}'"
        )


def _reference_load_counts(text, scale):
    lines = _reference_lines(text)
    _reference_check_header(lines, ("group", "grade", "count"))
    raw_counts = {}
    for lineno, line in lines:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != 3:
            raise DataFormatError(
                f"line {lineno}: expected 'group,grade,count', got {','.join(cells)!r}"
            )
        group, grade, count_text = cells
        try:
            count = int(count_text)
        except ValueError:
            raise DataFormatError(f"line {lineno}: count is not an integer: {count_text!r}") from None
        if count < 0:
            raise DataFormatError(f"line {lineno}: negative count {count} for {group},{grade}")
        try:
            float(count)
        except OverflowError:
            raise DataFormatError(
                f"line {lineno}: count for {group},{grade} is too large for a float"
            ) from None
        if grade not in scale.labels:
            raise DataFormatError(
                f"line {lineno}: unknown grade {grade!r}; scale defines {', '.join(scale.labels)}"
            )
        counts = raw_counts.setdefault(group, {})
        if grade in counts:
            raise DataFormatError(f"line {lineno}: duplicate entry for group {group!r} grade {grade!r}")
        counts[grade] = count
    if not raw_counts:
        raise DataFormatError("no data rows found")
    return {
        group: GradeDistribution({label: counts.get(label, 0) for label in scale.labels})
        for group, counts in raw_counts.items()
    }


def _reference_load_scores(text, scale):
    lines = _reference_lines(text)
    _reference_check_header(lines, ("subject", "score"))
    scores_by_subject = {}
    for lineno, line in lines:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != 2:
            raise DataFormatError(
                f"line {lineno}: expected 'subject,score', got {','.join(cells)!r}"
            )
        subject, score_text = cells
        try:
            score = float(score_text)
        except ValueError:
            raise DataFormatError(f"line {lineno}: score is not a number: {score_text!r}") from None
        if not scale.domain_min <= score <= scale.domain_max:
            raise DataFormatError(
                f"line {lineno}: subject {subject!r} score {score:g} outside domain "
                f"[{scale.domain_min:g}, {scale.domain_max:g}]"
            )
        scores_by_subject.setdefault(subject, []).append(score)
    if not scores_by_subject:
        raise DataFormatError("no data rows found")
    return ScoreSheet(scores_by_subject.items())


_pads = st.sampled_from(["", " ", "\t", "\x1f", "\u3000", " \t\x1f\u3000"])


def _pick(*strategies):
    # each equally often, where st.one_of favours its first branch
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def _padded(cells):
    return st.tuples(_pads, st.sampled_from(cells), _pads).map("".join)


# (valid cells, invalid cells) of each column
_counts_columns = (
    (["G1", "G2", "Ż", "", "G 1"], ["#g"]),
    (["A", "B", "F"], ["a", "Z", ""]),
    (
        ["0", "3", "17", "+5", "1_000", "\u0663"],
        ["-1", "lots", "1.5", "", "nan", "inf", "9" * 400, "-" + "9" * 400],
    ),
)
_scores_columns = (
    (["P1", "P2", "Ż", "", "P 1"], ["#p"]),
    (
        ["87.5", "0", "100", "49.99", "1e2", "-0", "8_5", "\u0663"],
        ["-0.5", "100.01", "nan", "-inf", "inf", "1e400", "abc", ""],
    ),
)
_comments = st.tuples(_pads, st.sampled_from(["#", "# note", "#G1,A,3"])).map("".join)


@st.composite
def _csv_texts(draw, header, columns):
    """A BOM, comments and blank lines, a header and rows of 1 to 4 padded cells."""
    def row(bad_column=None):
        return st.tuples(*(
            _padded(invalid if k == bad_column else valid)
            for k, (valid, invalid) in enumerate(columns)
        )).map(",".join)

    any_cell = _pick(*(_padded(valid + invalid) for valid, invalid in columns))
    odd_row = _pick(
        *map(row, range(len(columns))),
        st.lists(any_cell, min_size=1, max_size=4).map(",".join),
        _comments,
        _pads,
    )
    # rows stay mostly valid, so that the lines after the first are reached too
    rows = st.lists(_pick(row(), row(), row(), odd_row), min_size=1, max_size=16)
    lines = draw(st.lists(_pick(_comments, _pads), max_size=2))
    lines.append(draw(st.sampled_from(
        [header] * 5 + [header.upper(), " " + header.replace(",", " ,\t"), "x,y", ""]
    )))
    lines += draw(rows)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + draw(
        st.sampled_from(["", newline])
    )


def _outcome(load, *args):
    try:
        result = load(*args)
    except DataFormatError as exc:
        return str(exc)
    return list(result.items()) if isinstance(result, dict) else result


differential = settings(max_examples=200, deadline=None)


@differential
@given(_csv_texts("group,grade,count", _counts_columns))
def test_counts_loader_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential-counts.csv"
    path.write_bytes(text.encode("utf-8"))
    scale = default_scale()
    assert _outcome(load_counts_csv, path, scale) == _outcome(
        _reference_load_counts, text.removeprefix("\ufeff"), scale
    )


@differential
@given(_csv_texts("subject,score", _scores_columns))
def test_scores_loader_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential-scores.csv"
    path.write_bytes(text.encode("utf-8"))
    scale = default_scale()
    assert _outcome(load_scores_csv, path, scale) == _outcome(
        _reference_load_scores, text.removeprefix("\ufeff"), scale
    )
