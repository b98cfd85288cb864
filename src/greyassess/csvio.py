"""CSV ingestion and emission for grade counts and raw score sheets.

Both formats are plain comma-separated UTF-8, after an optional byte order
mark, with a mandatory header and no quoting; lines starting with ``#`` and
blank lines are ignored. Counts files carry ``group,grade,count`` rows,
score files ``subject,score`` rows (one row per observation).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Mapping

from .assessment import GradeDistribution, ScoreSheet
from .scale import GradeScale, _lines, _read_text

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
    lines = _lines(_read_text(path, DataFormatError))
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


def dump_counts_csv(
    groups: Mapping[str, GradeDistribution], path: str | Path, scale: GradeScale
) -> None:
    """Write groups back out; loading the result reproduces their counts.

    Every group is written with one row per scale label, so a grade a
    distribution leaves out loads back as an explicit zero. Anything that
    would not load back raises ValueError before anything is written: no
    groups at all; a group id or grade label holding a comma, a line break
    or a lone surrogate, padded with whitespace, or, for a group id,
    starting with ``#``; a count too large for a float; or a grade the
    scale does not define.
    """
    if not groups:
        raise ValueError("no groups to write to a counts CSV")
    for label in scale.labels:
        if not _loads_back(label):
            raise ValueError(f"grade label {label!r} cannot be written to a counts CSV")
    for group, dist in groups.items():
        if not _loads_back(group) or group.startswith("#"):
            raise ValueError(f"group id {group!r} cannot be written to a counts CSV")
        for label, count in dist.counts.items():
            if label not in scale.labels:
                raise ValueError(f"group {group!r} has grade {label!r}, which the scale does not define")
            try:
                float(count)
            except OverflowError:
                raise ValueError(f"count for {group},{label} is too large for a float") from None
    lines = [",".join(COUNTS_HEADER)]
    for group, dist in groups.items():
        for label in scale.labels:
            lines.append(f"{group},{label},{dist.count(label)}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _loads_back(cell: str) -> bool:
    """Whether ``cell`` reads back as itself from a cell of a loaded UTF-8
    line, which a lone surrogate cannot be written to."""
    return (
        "," not in cell
        and cell == cell.strip()
        and "".join(cell.splitlines()) == cell
        and cell.encode("utf-8", "replace").decode("utf-8") == cell
    )


def load_scores_csv(path: str | Path, scale: GradeScale) -> ScoreSheet:
    """Score sheet grouping rows by subject in first-appearance order.

    Duplicate scores for a subject are kept; every score must lie within
    the scale's score domain.
    """
    lines = _lines(_read_text(path, DataFormatError))
    _check_header(lines, SCORES_HEADER)
    domain_min, domain_max = scale.domain_min, scale.domain_max
    scores_by_subject: dict[str, list[float]] = {}
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
            scores_by_subject[subject] = [score]
        else:
            scores.append(score)
    if not scores_by_subject:
        raise DataFormatError("no data rows found")
    return ScoreSheet(scores_by_subject.items())
