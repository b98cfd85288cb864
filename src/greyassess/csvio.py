"""CSV ingestion for grade counts and raw score sheets.

Both formats are plain comma-separated UTF-8, after an optional byte order
mark, with a mandatory header and no quoting; lines starting with ``#`` and
blank lines are ignored. Counts files carry ``group,grade,count`` rows,
score files ``subject,score`` rows (one row per observation).
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Iterator

from .assessment import GradeDistribution, ScoreSheet
from .scale import GradeScale, _file_pieces, _numbered

COUNTS_HEADER = ("group", "grade", "count")
SCORES_HEADER = ("subject", "score")


class DataFormatError(ValueError):
    """A data file that cannot be parsed or fails validation."""


def _check_header(lines: Iterator[tuple[int, str]], expected: tuple[str, ...]) -> None:
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise DataFormatError(f"empty file: expected header '{','.join(expected)}'") from None
    cells = [cell.strip() for cell in line.split(",")]
    if tuple(cell.lower() for cell in cells) != expected:
        raise DataFormatError(
            f"line {lineno}: expected header '{','.join(expected)}', got '{','.join(cells)}'"
        )


def _stripped_cells(line: str) -> str:
    """``line`` with each comma-separated cell stripped."""
    return ",".join(cell.strip() for cell in line.split(","))


def load_counts_csv(path: str | Path, scale: GradeScale) -> dict[str, GradeDistribution]:
    """One grade distribution per group, in first-appearance order.

    Grades missing from the file default to count 0; every distribution
    carries the full label set of the scale.
    """
    lines = _numbered(_file_pieces(path, DataFormatError))
    _check_header(lines, COUNTS_HEADER)
    labels = scale.labels
    raw_counts: dict[str, dict[str, int]] = {}
    get_counts = raw_counts.get
    for lineno, line in lines:
        # the line is stripped, so only the inner side of an outer cell is padded
        cells = line.split(",")
        if len(cells) != 3:
            raise DataFormatError(
                f"line {lineno}: expected 'group,grade,count', got {_stripped_cells(line)!r}"
            )
        group, grade, count_text = cells
        group = group.rstrip()
        grade = grade.strip()
        count_text = count_text.lstrip()
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
        if grade not in labels:
            raise DataFormatError(
                f"line {lineno}: unknown grade {grade!r}; scale defines {', '.join(labels)}"
            )
        counts = get_counts(group)
        if counts is None:
            raw_counts[group] = {grade: count}
        elif grade in counts:
            raise DataFormatError(f"line {lineno}: duplicate entry for group {group!r} grade {grade!r}")
        else:
            counts[grade] = count
    if not raw_counts:
        raise DataFormatError("no data rows found")
    return {
        group: GradeDistribution({label: counts.get(label, 0) for label in labels})
        for group, counts in raw_counts.items()
    }


def load_scores_csv(path: str | Path, scale: GradeScale) -> ScoreSheet:
    """Score sheet grouping rows by subject in first-appearance order.

    Duplicate scores for a subject are kept; every score must lie within
    the scale's score domain.
    """
    lines = _numbered(_file_pieces(path, DataFormatError))
    _check_header(lines, SCORES_HEADER)
    domain_min, domain_max = scale.domain_min, scale.domain_max
    scores_by_subject: dict[str, array[float]] = {}
    get_scores = scores_by_subject.get
    for lineno, line in lines:
        # the line is stripped, so only the inner side of each cell is padded
        subject, comma, score_text = line.partition(",")
        if not comma or "," in score_text:
            raise DataFormatError(
                f"line {lineno}: expected 'subject,score', got {_stripped_cells(line)!r}"
            )
        subject = subject.rstrip()
        # float() does not strip every character str.strip() does, such as \x1f
        score_text = score_text.lstrip()
        try:
            score = float(score_text)
        except ValueError:
            raise DataFormatError(f"line {lineno}: score is not a number: {score_text!r}") from None
        if not domain_min <= score <= domain_max:
            raise DataFormatError(
                f"line {lineno}: subject {subject!r} score {score:g} outside domain "
                f"[{domain_min:g}, {domain_max:g}]"
            )
        scores = get_scores(subject)
        if scores is None:
            scores_by_subject[subject] = array("d", (score,))
        else:
            scores.append(score)
    if not scores_by_subject:
        raise DataFormatError("no data rows found")
    return ScoreSheet(scores_by_subject.items())
