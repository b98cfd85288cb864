"""Grade scales: ordered linguistic grades mapped to disjoint score intervals.

A scale assigns each linguistic grade (A, B, ...) a closed score interval,
ordered from highest to lowest, covering a score domain (0-100 by default).
Classification of a real score uses the contiguous partition induced by the
grade lower bounds, so values falling in the real-valued gaps between grade
intervals (e.g. 84.5 between B [75, 84] and A [85, 100]) still classify.
"""

from __future__ import annotations

from bisect import bisect_right
from codecs import BOM_UTF8
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator

from .grey import GreyNumber, IntervalError


class UnknownGradeError(ValueError):
    """A grade label that does not exist in the scale."""


class OutOfDomainError(ValueError):
    """A score outside the scale's score domain."""


class ScaleFormatError(ValueError):
    """A scale definition file that cannot be parsed."""


@dataclass(frozen=True)
class GradeScale:
    """Ordered (label, interval) pairs, highest grade first, over a domain.

    Construction is permissive; use :meth:`validate` to check the structural
    invariants (disjoint descending intervals covering the domain, unique
    labels) and get back a list of violations.
    """

    entries: tuple[tuple[str, GreyNumber], ...]
    domain_min: float = 0.0
    domain_max: float = 100.0
    #: The grade labels in scale order, derived from ``entries``.
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: The grade endpoints in scale order as integers over one power of two.
    lower_nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    upper_nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)
    #: The prefix minima of the lower bounds, ascending, and the grade that
    #: a score takes from the number of them it reaches.
    floors: tuple[float, ...] = field(init=False, repr=False, compare=False)
    floor_labels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((str(l), gn) for l, gn in self.entries))
        object.__setattr__(self, "labels", tuple(label for label, _ in self.entries))
        ratios = [x.as_integer_ratio() for _, gn in self.entries for x in (gn.lower, gn.upper)]
        den = max([d for _, d in ratios], default=1)
        nums = [n * (den // d) for n, d in ratios]
        object.__setattr__(self, "lower_nums", tuple(nums[0::2]))
        object.__setattr__(self, "upper_nums", tuple(nums[1::2]))
        object.__setattr__(self, "denominator", den)
        floors = accumulate((gn.lower for _, gn in self.entries), min)
        object.__setattr__(self, "floors", tuple(floors)[::-1])
        object.__setattr__(self, "floor_labels", self.labels[-1:] + self.labels[::-1])
        object.__setattr__(self, "domain_min", float(self.domain_min))
        object.__setattr__(self, "domain_max", float(self.domain_max))

    def classify(self, score: float) -> str:
        """Grade containing the score under the contiguous-partition rule.

        A score belongs to a grade iff it is >= that grade's lower bound and
        below the next-higher grade's lower bound; the top grade is closed
        above at the domain maximum.
        """
        if not self.domain_min <= score <= self.domain_max:
            raise OutOfDomainError(
                f"score {score} outside domain [{self.domain_min:g}, {self.domain_max:g}]"
            )
        # the first grade whose lower bound the score reaches is the first
        # whose prefix minimum it reaches; on an unvalidated scale a score
        # below every bound falls to the lowest grade
        return self.floor_labels[bisect_right(self.floors, score)]

    def validate(self) -> list[str]:
        """All invariant violations, empty when the scale is well formed."""
        violations: list[str] = []
        if len(self.entries) < 2:
            violations.append(f"scale must define at least 2 grades, has {len(self.entries)}")
        if not self.domain_min < self.domain_max:
            violations.append(
                f"score domain is empty: [{self.domain_min:g}, {self.domain_max:g}]"
            )
        seen: set[str] = set()
        for label, gn in self.entries:
            if not label:
                violations.append("empty grade label")
            elif label in seen:
                violations.append(f"duplicate grade label {label!r}")
            seen.add(label)
            if gn.lower < self.domain_min or gn.upper > self.domain_max:
                violations.append(
                    f"grade {label!r} interval {gn} leaves the score domain "
                    f"[{self.domain_min:g}, {self.domain_max:g}]"
                )
        for i, (label_a, gn_a) in enumerate(self.entries):
            for label_b, gn_b in self.entries[i + 1 :]:
                if max(gn_a.lower, gn_b.lower) <= min(gn_a.upper, gn_b.upper):
                    violations.append(
                        f"grades {label_a!r} and {label_b!r} overlap: {gn_a} vs {gn_b}"
                    )
        for (label_hi, gn_hi), (label_lo, gn_lo) in zip(self.entries, self.entries[1:]):
            if gn_hi.upper < gn_lo.lower:
                violations.append(
                    f"grades {label_hi!r} and {label_lo!r} are not in descending order"
                )
        if self.entries:
            bottom_label, bottom = self.entries[-1]
            top_label, top = self.entries[0]
            if bottom.lower != self.domain_min:
                violations.append(
                    f"lowest grade {bottom_label!r} starts at {bottom.lower:g}, "
                    f"not at the domain minimum {self.domain_min:g}"
                )
            if top.upper != self.domain_max:
                violations.append(
                    f"highest grade {top_label!r} ends at {top.upper:g}, "
                    f"not at the domain maximum {self.domain_max:g}"
                )
        return violations


def default_scale() -> GradeScale:
    """The five-grade scale A [85,100], B [75,84], C [60,74], D [50,59], F [0,49]."""
    return GradeScale(
        (
            ("A", GreyNumber(85, 100)),
            ("B", GreyNumber(75, 84)),
            ("C", GreyNumber(60, 74)),
            ("D", GreyNumber(50, 59)),
            ("F", GreyNumber(0, 49)),
        )
    )


def validate_scale(scale: GradeScale) -> list[str]:
    return scale.validate()


def parse_scale_text(text: str) -> GradeScale:
    """Parse a scale definition.

    One entry per line, ``<LABEL> <lower> <upper>``, highest grade first.
    Lines starting with ``#`` are comments. An optional leading line
    ``domain <min> <max>`` overrides the default domain 0 100.
    """
    return _parse_scale(_numbered([text.splitlines()]))


def read_scale_file(path: str | Path) -> GradeScale:
    return _parse_scale(_numbered(_file_pieces(path, ScaleFormatError)))


def _parse_scale(lines: Iterable[tuple[int, str]]) -> GradeScale:
    entries: list[tuple[str, GreyNumber]] = []
    domain = (0.0, 100.0)
    domain_seen = False
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "domain":
            if entries or domain_seen:
                raise ScaleFormatError(
                    f"line {lineno}: domain line must come before any grade entry"
                )
            if len(parts) != 3:
                raise ScaleFormatError(f"line {lineno}: expected 'domain <min> <max>'")
            domain = (_parse_num(parts[1], lineno), _parse_num(parts[2], lineno))
            domain_seen = True
            continue
        if len(parts) != 3:
            raise ScaleFormatError(
                f"line {lineno}: expected '<LABEL> <lower> <upper>', got {line!r}"
            )
        label = parts[0]
        lo = _parse_num(parts[1], lineno)
        hi = _parse_num(parts[2], lineno)
        try:
            entries.append((label, GreyNumber(lo, hi)))
        except IntervalError as exc:
            raise ScaleFormatError(f"line {lineno}: {exc}") from None
    if not entries:
        raise ScaleFormatError("no grade entries found")
    return GradeScale(tuple(entries), domain[0], domain[1])


def _parse_num(cell: str, lineno: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ScaleFormatError(f"line {lineno}: not a number: {cell!r}") from None


def _numbered(pieces: Iterable[list[str]]) -> Iterator[tuple[int, str]]:
    """Each stripped line of ``pieces``, lists of consecutive lines, that is
    neither blank nor a ``#`` comment, with its number from 1."""
    lineno = 0
    for lines in pieces:
        for lineno, line in enumerate(map(str.strip, lines), lineno + 1):
            if line and line[0] != "#":
                yield lineno, line


#: The bytes :func:`_file_pieces` reads at once, up to the next ``b"\n"``.
_PIECE = 1 << 16


def _file_pieces(path: str | Path, error: type[ValueError]) -> Iterator[list[str]]:
    """The file's lines, one list a piece: UTF-8 after an optional byte order
    mark, split as ``str.splitlines`` splits the text.

    The file is read and decoded one piece at a time, each ending just after
    the first ``b"\n"`` at or past :data:`_PIECE` bytes from its start, or at
    the end of the file. A ``"\n"`` always ends a line, and in UTF-8 it is never
    part of another character, so the pieces' lines are the lines of the whole.
    Bytes that are not UTF-8 raise ``error`` naming the file and the line, when
    their piece is reached.
    """
    with open(path, "rb") as file:
        piece = file.read(_PIECE).removeprefix(BOM_UTF8) + file.readline()
        lineno = 0
        while piece:
            try:
                lines = piece.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                # the lines before the bad byte's and its own: "?" stands for it,
                # so that a line break just before it counts
                lineno += len((piece[: exc.start].decode("utf-8") + "?").splitlines())
                raise error(
                    f"{path}: line {lineno}: not valid UTF-8 at byte "
                    f"0x{piece[exc.start]:02x} ({exc.reason})"
                ) from None
            # free the bytes before the loader parses the lines, so that what
            # it allocates can take their place on the heap
            del piece
            yield lines
            lineno += len(lines)
            piece = file.read(_PIECE) + file.readline()
