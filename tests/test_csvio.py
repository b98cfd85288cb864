import gc
import itertools
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from greyassess import (
    DataFormatError,
    GradeDistribution,
    ScoreSheet,
    default_scale,
    load_counts_csv,
    ScaleFormatError,
    load_scores_csv,
    parse_scale_text,
    read_scale_file,
)
from greyassess import scale as scale_module
from greyassess.cli import main
from greyassess.scale import _PIECE, _file_pieces, _numbered

from conftest import PLAYER_SCORES, TABLE1_G1, TABLE1_G2, sheet_values


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


class TestLoadScores:
    def test_example_two(self, scores_csv, scale):
        sheet = load_scores_csv(scores_csv, scale)
        assert len(sheet.subjects) == 5
        assert [subject for subject, _ in sheet.subjects] == ["P1", "P2", "P3", "P4", "P5"]
        assert all(len(scores) == 6 for _, scores in sheet.subjects)
        assert sheet_values(sheet) == [
            (subject, [float(s) for s in scores]) for subject, scores in PLAYER_SCORES
        ]

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
        assert sheet_values(load_scores_csv(path, scale)) == [("P1", [87.5]), ("P2", [90.0])]


class TestEncoding:
    def test_byte_order_mark_before_counts_header(self, tmp_path, scale):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfgroup,grade,count\nG1,A,3\n")
        assert load_counts_csv(path, scale)["G1"].count("A") == 3

    def test_byte_order_mark_before_scores_header(self, tmp_path, scale):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfsubject,score\nP1,50\n")
        assert sheet_values(load_scores_csv(path, scale)) == [("P1", [50.0])]

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
        assert sum(len(scores) for _, scores in sheet.subjects) == 30

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
    except (DataFormatError, ScaleFormatError) as exc:
        return f"{type(exc).__name__}: {exc}"
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


# Files of several pieces: the loaders read one piece of _PIECE bytes at a
# time, each ending just after a "\n", and must give the lines, numbers and
# first error of splitting the whole text at once.

_SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class _Kind(NamedTuple):
    header: str
    row: Callable[[int], str]  # filler row i, padded so that a piece holds fewer rows
    rows: tuple[str, str]  # two other valid rows of 5 characters
    sep: str  # what separates a row's cells
    load: Callable
    reference: Callable  # the loader on the text, after any byte order mark
    error: type[ValueError]


def _scale_kind(bom):
    return _Kind(
        bom + "domain 0 100",
        lambda i: f"#{' ' * 48}{i}",
        ("A 1 2", "B 0 1"),
        " ",
        lambda path, _: read_scale_file(path),
        lambda text, _: parse_scale_text(text),
        ScaleFormatError,
    )


_KINDS = {
    "counts": _Kind(
        "group,grade,count",
        lambda i: f"G{i // 5},{'ABCDF'[i % 5]},{' ' * 48}3",
        ("X,A,1", "Y,C,2"),
        ",",
        load_counts_csv,
        _reference_load_counts,
        DataFormatError,
    ),
    "scores": _Kind(
        "subject,score",
        lambda i: f"P{i % 50},{' ' * 48}75.5",
        ("Q1,60", "Q2,70"),
        ",",
        load_scores_csv,
        _reference_load_scores,
        DataFormatError,
    ),
    # a scale file of padded comment lines, without and with a byte order mark
    "scale": _scale_kind(""),
    "scale-bom": _scale_kind("\ufeff"),
}


def _long_text(kind, middle, at, newlines=("\n", "\r\n"), size=200_000):
    """A ``kind`` CSV text of at least ``size`` characters with ``middle``
    starting at index ``at``; rows end in each of ``newlines`` in turn, and a
    comment line padded with spaces ends just before ``middle``."""
    header, row, rows = _KINDS[kind][:3]
    newline = newlines[0]
    filler = (row(i) + newlines[i % len(newlines)] for i in itertools.count())
    parts = [header + newline]
    length = len(parts[0])
    for part in filler:
        if length + len(part) + len(newline) >= at:
            break
        parts.append(part)
        length += len(part)
    parts += ["#".ljust(at - length - len(newline)) + newline, middle.format(*rows)]
    length = at + len(parts[-1])
    for part in filler:
        if length >= size:
            break
        parts.append(part)
        length += len(part)
    return "".join(parts)


def _cut_cases():
    for sep in _SEPARATORS:
        name = repr(sep).strip("'")
        for d in (-1, 0, 1):
            # the separator at index _PIECE + d, after a 5-character row
            yield pytest.param("{0}" + sep + "{1}\n", _PIECE + d - 5, id=f"{name}-at-cut{d:+d}")
        # the separator first in the piece after a "\n" at index _PIECE
        yield pytest.param(sep + "{1}\n", _PIECE + 1, id=f"{name}-after-cut")
    for d in (-4, -1, 0, 1):
        yield pytest.param(
            "\n \t\n# note\r\n#\n\x0c\n{0}\n", _PIECE + d, id=f"blank-and-comments-at-cut{d:+d}"
        )
    yield pytest.param(
        "# " + "x" * 2 * _PIECE + "\n{0}\n", _PIECE - 100, id="comment-longer-than-a-piece"
    )
    yield pytest.param(
        "{0}" + " " * 2 * _PIECE + "\r\n{1}\n", _PIECE - 100, id="row-longer-than-a-piece"
    )


def _both_ways(tmp_path, kind, text):
    """The loader's outcome on ``text`` as a file, and the reference's on ``text``."""
    load, reference = _KINDS[kind].load, _KINDS[kind].reference
    path = tmp_path / "long.csv"
    path.write_bytes(text.encode("utf-8"))
    text = text.removeprefix("\ufeff")
    assert list(_numbered(_file_pieces(path, DataFormatError))) == list(_reference_lines(text))
    return _outcome(load, path, default_scale()), _outcome(reference, text, default_scale())


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("middle,at", _cut_cases())
def test_lines_and_loaders_match_reference_across_pieces(tmp_path, kind, middle, at):
    text = _long_text(kind, middle, at)
    assert len(text) >= 3 * _PIECE and text.index(middle.format(*_KINDS[kind].rows)) == at
    got, expected = _both_ways(tmp_path, kind, text)
    assert got == expected and not isinstance(expected, str)


@pytest.mark.parametrize("kind", _KINDS)
def test_text_without_a_newline_is_one_piece(tmp_path, kind):
    text = _long_text(kind, "{0}\r{1}\r", _PIECE, newlines=("\r", "\u2028", "\r\x85"))
    assert "\n" not in text and len(text) >= 3 * _PIECE
    got, expected = _both_ways(tmp_path, kind, text)
    assert got == expected and not isinstance(expected, str)


@pytest.mark.parametrize("kind", _KINDS)
def test_malformed_row_in_the_third_piece_reports_its_line(tmp_path, kind):
    at = 2 * _PIECE + _PIECE // 2
    text = _long_text(kind, "{0}" + _KINDS[kind].sep + "9\r\n{1}\n", at)
    got, expected = _both_ways(tmp_path, kind, text)
    lineno = text[:at].count("\n") + 1
    assert got == expected
    assert expected.startswith(f"{_KINDS[kind].error.__name__}: line {lineno}: expected ")


# A piece's bytes are decoded before any of its rows are parsed, and the next
# piece is read only once they are: the first piece with a fault gives the
# error, and within a piece a bad byte comes before a malformed row (the
# after-malformed-row cases of test_bad_byte_in_the_third_piece_reports_its_line).


def _third_piece_start(data):
    return list(itertools.islice(_piece_starts(data), 2))[1]


@pytest.mark.parametrize("kind", _KINDS)
def test_malformed_row_in_the_first_piece_comes_before_a_bad_byte_in_the_third(tmp_path, kind):
    at = _PIECE // 2
    text = _long_text(kind, "{0}" + _KINDS[kind].sep + "9\r\n{1}\n", at)
    data = text.encode("utf-8")
    third = _third_piece_start(data)
    path = tmp_path / "long.csv"
    path.write_bytes(data[:third] + b"\xff" + data[third:])
    expected = _outcome(_KINDS[kind].reference, text.removeprefix("\ufeff"), default_scale())
    assert _outcome(_KINDS[kind].load, path, default_scale()) == expected
    lineno = text[:at].count("\n") + 1
    assert expected.startswith(f"{_KINDS[kind].error.__name__}: line {lineno}: expected ")


def test_data_error_mid_file_closes_every_file_read(tmp_path, monkeypatch, capsys):
    # the reader holds its file open while the loader parses; a fault in the
    # rows it gave must close it, with no help from the cycle collector
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(scale_module, "open", recording_open, raising=False)
    at = _PIECE + _PIECE // 2
    text = _long_text("scores", "{0},9\r\n{1}\n", at)
    path = tmp_path / "long.csv"
    path.write_bytes(text.encode("utf-8") + b"P1,\xff\n")
    scale_path = Path(__file__).resolve().parents[1] / "data" / "strict_scale.txt"
    gc.disable()
    try:
        code = main(["assess", "--scores", str(path), "--scale", str(scale_path)])
        assert [file.name for file in opened] == [str(scale_path), str(path)]
        assert all(file.closed for file in opened)
    finally:
        gc.enable()
    assert code == 1
    lineno = text[:at].count("\n") + 1
    assert capsys.readouterr().err == (
        f"error: line {lineno}: expected 'subject,score', got 'Q1,60,9'\n"
    )


def _hundred_thousand_scores(tmp_path):
    rows = 100_000
    path = tmp_path / "scores.csv"
    path.write_text(
        "subject,score\n" + "".join(f"S{i % 1000},{i % 10001 / 100}\n" for i in range(rows)),
        encoding="utf-8",
    )
    return path, rows


def test_scores_loader_memory_per_row(tmp_path):
    # the traced peak holds one piece's bytes, text and lines and the scores:
    # about 20 bytes a row, where holding the file's bytes and text whole
    # took about 26
    path, rows = _hundred_thousand_scores(tmp_path)
    tracemalloc.start()
    try:
        load_scores_csv(path, default_scale())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / rows < 23


def test_scores_sheet_memory_held_per_row(tmp_path):
    # what stays once the loader returns is the sheet: a packed double of 8
    # bytes a score, against 32 for a float object and its slot in a tuple
    path, rows = _hundred_thousand_scores(tmp_path)
    tracemalloc.start()
    try:
        sheet = load_scores_csv(path, default_scale())
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(scores) for _, scores in sheet.subjects) == rows
    assert held / rows <= 16


# A byte that is not UTF-8 is found when its piece is decoded, and its line
# is counted from the lines of the pieces before and of its own piece alone.


def _piece_starts(data):
    start = 0
    while start := data.find(b"\n", start + _PIECE) + 1:
        yield start


_BAD_BYTE_CASES = {
    "first": (0, b"", b"\xff", b"P1,50\n", "invalid start byte"),
    "after-cr": (0, b"\r", b"\xff", b"P1,50\n", "invalid start byte"),
    "after-crlf": (0, b"\r\n", b"\xff", b"P1,50\n", "invalid start byte"),
    "in-row-after-cr": (0, b"P1,5\r", b"\xff", b"0\n", "invalid start byte"),
    "after-nel": (0, "\x85".encode(), b"\xc3", b"(P1,50\n", "invalid continuation byte"),
    "mid-piece-after-cr": (5000, b"\r", b"\xff", b"", "invalid start byte"),
    "mid-piece-after-ls": (5000, "\u2028".encode(), b"\xff", b"\r\n", "invalid start byte"),
    # a row with a fault in every kind, in the bad byte's piece
    "after-malformed-row": (0, b"P1,5,6\n", b"\xff", b"P1,50\n", "invalid start byte"),
}


def _bad_byte_params():
    for kind in _KINDS:
        for case, values in _BAD_BYTE_CASES.items():
            for newline, name in (("\n", "lf"), ("\r\n", "crlf")):
                suffix = "" if kind == "scores" else f"-{kind}"
                yield pytest.param(kind, newline, *values, id=f"{case}-{name}{suffix}")


@pytest.mark.parametrize("kind, newline, offset, before, bad, after, reason", _bad_byte_params())
def test_bad_byte_in_the_third_piece_reports_its_line(
    tmp_path, kind, newline, offset, before, bad, after, reason
):
    header, row = _KINDS[kind][:2]
    filler = (header + newline + "".join(row(i) + newline for i in range(4000))).encode("utf-8")
    at = _third_piece_start(filler) + offset
    path = tmp_path / "bad.csv"
    path.write_bytes(filler[:at] + before + bad + after + filler[at:])
    assert path.stat().st_size >= 200_000
    # the line the reference numbers with "?" in place of the bad byte
    marked = (filler[:at] + before + b"?" + after + filler[at:]).decode("utf-8-sig")
    (lineno,) = [n for n, line in _reference_lines(marked) if "?" in line]
    with pytest.raises(_KINDS[kind].error) as exc_info:
        _KINDS[kind].load(path, default_scale())
    assert str(exc_info.value) == (
        f"{path}: line {lineno}: not valid UTF-8 at byte 0x{bad[0]:02x} ({reason})"
    )


def test_bad_byte_error_holds_no_second_copy_of_the_file(tmp_path):
    # the error comes once the rows before its piece are parsed, so the peak
    # is that of loading those rows: one piece's bytes, text and lines and
    # the scores, with no copy of the whole file in the error
    path, _ = _hundred_thousand_scores(tmp_path)
    with path.open("ab") as out:
        out.write(b"S1,5\xff0\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match=r": line 100002: not valid UTF-8 at byte 0xff"):
            load_scores_csv(path, default_scale())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * size
