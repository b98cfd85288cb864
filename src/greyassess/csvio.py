"""CSV ingestion and emission for grade counts and raw score sheets.

Both formats are plain comma-separated UTF-8 with a mandatory header and no
quoting; lines starting with ``#`` and blank lines are ignored. Counts files
carry ``group,grade,count`` rows, score files ``subject,score`` rows (one
row per observation).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Mapping

from .assess import GradeDistribution, ScoreSheet
from .scale import GradeScale

COUNTS_HEADER = ("group", "grade", "count")
SCORES_HEADER = ("subject", "score")


class DataFormatError(ValueError):
    """A data file that cannot be parsed or fails validation."""


def _data_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, [cell.strip() for cell in line.split(",")]


def _check_header(rows: Iterator[tuple[int, list[str]]], expected: tuple[str, ...]) -> None:
    try:
        lineno, cells = next(rows)
    except StopIteration:
        raise DataFormatError(f"empty file: expected header '{','.join(expected)}'") from None
    if tuple(cell.lower() for cell in cells) != expected:
        raise DataFormatError(
            f"line {lineno}: expected header '{','.join(expected)}', got '{','.join(cells)}'"
        )


def load_counts_csv(path: str | Path, scale: GradeScale) -> dict[str, GradeDistribution]:
    """One grade distribution per group, in first-appearance order.

    Grades missing from the file default to count 0; every distribution
    carries the full label set of the scale.
    """
    rows = _data_rows(path)
    _check_header(rows, COUNTS_HEADER)
    known = set(scale.labels)
    raw_counts: dict[str, dict[str, int]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, cells in rows:
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
        if grade not in known:
            raise DataFormatError(
                f"line {lineno}: unknown grade {grade!r}; scale defines {', '.join(scale.labels)}"
            )
        if (group, grade) in seen:
            raise DataFormatError(f"line {lineno}: duplicate entry for group {group!r} grade {grade!r}")
        seen.add((group, grade))
        raw_counts.setdefault(group, {})[grade] = count
    if not raw_counts:
        raise DataFormatError("no data rows found")
    return {
        group: GradeDistribution({label: counts.get(label, 0) for label in scale.labels})
        for group, counts in raw_counts.items()
    }


def dump_counts_csv(
    groups: Mapping[str, GradeDistribution], path: str | Path, scale: GradeScale
) -> None:
    """Write groups back out; loading the result reproduces them exactly."""
    lines = [",".join(COUNTS_HEADER)]
    for group, dist in groups.items():
        for label in scale.labels:
            lines.append(f"{group},{label},{dist.count(label)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_scores_csv(path: str | Path, scale: GradeScale) -> ScoreSheet:
    """Score sheet grouping rows by subject in first-appearance order.

    Duplicate scores for a subject are kept; every score must lie within
    the scale's score domain.
    """
    rows = _data_rows(path)
    _check_header(rows, SCORES_HEADER)
    scores_by_subject: dict[str, list[float]] = {}
    for lineno, cells in rows:
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
    return ScoreSheet(
        tuple((subject, tuple(scores)) for subject, scores in scores_by_subject.items())
    )
