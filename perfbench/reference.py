"""Exact reference answers and the checks that compare program output with them.

Nothing here imports the package under test. Means, whitened values and
grades follow the paper with ``fractions.Fraction``: the mean grey number is
(sum count*lower / n, sum count*upper / n), whitened at t = 1/2, and graded
by the contiguous partition at the grade lower bounds. ``calc`` answers come
from Fraction interval arithmetic on the generated postfix program.

Numbers are compared with a relative tolerance, grades, counts, ranks and
exit statuses exactly. Every compared unit is one *op*: one graded group in
one command's output, or one evaluated expression. A failed op whose
mismatch matches a catalogued known defect is counted as failed *and* as
known; any other failed op is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from corpus import DEEP_TREE, DEFAULT_SCALE, Corpus

REL_TOL = 1e-9
T = Fraction(1, 2)

#: Known defects of the package, kept visible: they count as failed ops.
KNOWN_DEFECTS = {
    "boundary-rounding": "exact whitened value lies on a grade lower bound; "
                         "the float mean lands one ulp below and takes the lower grade",
    "deep-tree-recursion": "left-deep expression tree taller than the recursion limit; "
                           "the recursive evaluator raises RecursionError",
}


class ReferenceCheckError(Exception):
    """The reference itself failed its check, so no run can be judged."""


@dataclass
class GroupRef:
    name: str
    n: int
    counts: dict  # label -> count, every label of the scale in scale order
    lower: float
    upper: float
    whitened: float
    exact_whitened: Fraction
    grade: str
    on_boundary: bool
    rank: int = 0
    tied: bool = False


@dataclass
class CalcRef:
    zero_division: bool
    lower: float = 0.0
    upper: float = 0.0
    magnitude: float = 0.0
    height: int = 0


class Tally:
    """Op counts, failures, and failures attributed to known defects."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.known: Counter = Counter()
        self.unexpected = 0
        self.grade_mismatch = 0
        self.examples: list[str] = []

    def record(self, where: str, problems: list[str], defect: str | None = None) -> None:
        self.ops += 1
        if not problems:
            return
        self.failed += 1
        if defect:
            self.known[defect] += 1
            return
        self.unexpected += 1
        if len(self.examples) < 8:
            self.examples.append(f"{where}: {'; '.join(problems)}")


# -- assessment reference ----------------------------------------------------

def classify(scale, value: Fraction) -> str:
    for label, lo, _ in scale:
        if value >= lo:
            return label
    return scale[-1][0]


def assess_exact(name: str, counts: dict, scale) -> GroupRef:
    n = sum(counts.values())
    lower = Fraction(sum(counts.get(label, 0) * lo for label, lo, _ in scale), n)
    upper = Fraction(sum(counts.get(label, 0) * hi for label, _, hi in scale), n)
    whitened = (1 - T) * lower + T * upper
    return GroupRef(
        name, n, {label: counts.get(label, 0) for label, _, _ in scale},
        float(lower), float(upper), float(whitened), whitened,
        classify(scale, whitened), any(whitened == lo for _, lo, _ in scale[:-1]),
    )


def rank_exact(refs: list[GroupRef]) -> None:
    """Competition ranks by exact whitened value, best first; equal values tie.

    With every group of at most 10^4 objects, distinct whitened values differ
    by more than the package's 1e-9 tie tolerance, so exact ties are its ties.
    """
    ordered = sorted(refs, key=lambda r: -r.exact_whitened)
    sizes = Counter(r.exact_whitened for r in refs)
    for i, ref in enumerate(ordered):
        if i and ref.exact_whitened == ordered[i - 1].exact_whitened:
            ref.rank = ordered[i - 1].rank
        else:
            ref.rank = i + 1
        ref.tied = sizes[ref.exact_whitened] > 1


def counts_reference(corpus: Corpus) -> list[GroupRef]:
    refs = [assess_exact(name, counts, corpus.scale) for name, counts in corpus.groups]
    rank_exact(refs)
    return refs


@dataclass
class ScoresRef:
    pooled: GroupRef
    raw_mean: float
    subjects: list[GroupRef]


def scores_reference(corpus: Corpus) -> ScoresRef:
    scale = corpus.scale
    # scores are whole hundredths and bounds are integers: classify exactly
    # in integer hundredths, lowest grade first for bisect
    bounds = [lo * 100 for _, lo, _ in reversed(scale)]
    labels = [label for label, _, _ in reversed(scale)]
    pooled: Counter = Counter()
    subjects = []
    total = count = 0
    for name, cents in corpus.subjects:
        own = Counter(labels[bisect.bisect_right(bounds, c) - 1] for c in cents)
        pooled.update(own)
        subjects.append(assess_exact(name, own, scale))
        total += sum(cents)
        count += len(cents)
    rank_exact(subjects)
    return ScoresRef(assess_exact("all", pooled, scale), float(Fraction(total, 100 * count)), subjects)


def check_table1(path: Path) -> None:
    """The reference must reproduce the paper's worked example (G1 70.875 C, G2 C)."""
    groups: dict[str, dict] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#") and line != "group,grade,count":
            group, grade, count = line.split(",")
            groups.setdefault(group, {})[grade] = int(count)
    g1 = assess_exact("G1", groups["G1"], DEFAULT_SCALE)
    g2 = assess_exact("G2", groups["G2"], DEFAULT_SCALE)
    if (g1.exact_whitened, g1.grade, g2.grade) != (Fraction(70875, 1000), "C", "C"):
        raise ReferenceCheckError(
            f"reference disagrees with the paper on {path.name}: "
            f"G1 {g1.exact_whitened} {g1.grade}, G2 {g2.grade}"
        )


# -- assessment checks -------------------------------------------------------

def _close(got, want: float) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool) and math.isfinite(got)
            and abs(got - want) <= REL_TOL * max(1.0, abs(want)))


def _near2(text: str, want: float) -> bool:
    """A value printed with 2 decimals is within half a unit of the exact one."""
    try:
        return abs(float(text) - want) <= 0.005 + 1e-9
    except ValueError:
        return False


def _judge_grade(got_grade, got_whitened, ref: GroupRef, problems: list[str],
                 tally: Tally) -> str | None:
    """Record a grade mismatch; return the known defect the op's failure matches, if any.

    A boundary-rounding miss: the group's exact whitened value is a grade lower
    bound, the program's float value lies just below it (within tolerance), it
    got the grade just below, and nothing else is wrong. A value *on* the bound
    graded low is a classification fault, not this defect.
    """
    if got_grade == ref.grade:
        return None
    tally.grade_mismatch += 1
    problems.append(f"grade {got_grade!r}, expected {ref.grade!r} (exact {ref.exact_whitened})")
    labels = list(ref.counts)
    below = labels[labels.index(ref.grade) + 1] if ref.grade != labels[-1] else None
    if (ref.on_boundary and got_grade == below and len(problems) == 1
            and isinstance(got_whitened, float) and got_whitened < ref.whitened
            and _close(got_whitened, ref.whitened)):
        return "boundary-rounding"
    return None


def check_entry(entry: dict, ref: GroupRef, tally: Tally, where: str, *,
                tfn: bool = False, rank: bool = False, raw_mean: float | None = None) -> None:
    """One JSON report object (CLI output or the library's ``to_dict``)."""
    problems: list[str] = []
    if entry.get("group") != ref.name:
        problems.append(f"group {entry.get('group')!r}, expected {ref.name!r}")
    if entry.get("n") != ref.n:
        problems.append(f"n {entry.get('n')!r}, expected {ref.n}")
    if entry.get("distribution") != ref.counts:
        problems.append("distribution differs")
    if entry.get("t") != 0.5:
        problems.append(f"t {entry.get('t')!r}")
    mean = entry.get("mean_gn") or {}
    if not (_close(mean.get("lower"), ref.lower) and _close(mean.get("upper"), ref.upper)):
        problems.append(f"mean_gn {mean}, expected [{ref.lower!r}, {ref.upper!r}]")
    whitened = entry.get("whitened")
    if not _close(whitened, ref.whitened):
        problems.append(f"whitened {whitened!r}, expected {ref.whitened!r}")
    if rank and entry.get("rank") != ref.rank:
        problems.append(f"rank {entry.get('rank')!r}, expected {ref.rank}")
    if tfn:
        check = entry.get("tfn_check") or {}
        if not all(_close(check.get(key), ref.whitened) for key in ("gn_value", "tfn_value", "peak")):
            problems.append(f"tfn_check values {check}")
        diff = check.get("difference")
        if check.get("passed") is not True or not _close(diff, 0.0) or diff > 1e-9:
            problems.append(f"tfn_check verdict {check.get('passed')!r} difference {diff!r}")
    if raw_mean is not None:
        if not _close(entry.get("raw_mean"), raw_mean):
            problems.append(f"raw_mean {entry.get('raw_mean')!r}, expected {raw_mean!r}")
        if not _close(entry.get("difference"), raw_mean - ref.whitened):
            problems.append(f"difference {entry.get('difference')!r}")
    defect = _judge_grade(entry.get("grade"), whitened, ref, problems, tally)
    tally.record(f"{where} {ref.name}", problems, defect)


def check_entries(entries, refs: list[GroupRef], tally: Tally, where: str, *,
                  tfn: bool = False, rank: bool = False) -> dict[str, object]:
    """A list of report objects covering every group exactly once.

    Returns each group's reported whitened value.
    """
    if not isinstance(entries, list):
        for ref in refs:
            tally.record(f"{where} {ref.name}", ["output is not a JSON array"])
        return {}
    whitened = {}
    by_name = {ref.name: ref for ref in refs}
    seen = set()
    last_rank = 0
    for entry in entries:
        ref = by_name.get(entry.get("group")) if isinstance(entry, dict) else None
        if ref is None or ref.name in seen:
            tally.record(where, [f"unexpected or repeated entry {str(entry)[:80]}"])
            continue
        seen.add(ref.name)
        if rank:
            if not isinstance(entry.get("rank"), int) or entry["rank"] < last_rank:
                tally.record(f"{where} {ref.name}", [f"rank {entry.get('rank')!r} out of order"])
                continue
            last_rank = entry["rank"]
        check_entry(entry, ref, tally, where, tfn=tfn, rank=rank)
        whitened[ref.name] = entry.get("whitened")
    for ref in refs:
        if ref.name not in seen:
            tally.record(f"{where} {ref.name}", ["group missing from output"])
    return whitened


_COMPARE_LINE = re.compile(r"^(\d+)\. (\S+): whitened=(-?\d+\.\d\d) grade=(\S+)( \(tie\))?$")


def check_compare_text(text: str, refs: list[GroupRef], tally: Tally, where: str,
                       whitened: dict[str, object]) -> None:
    """``compare`` text output: one ranked line per group.

    Text rounds to 2 decimals, so a grade miss is judged against the full
    precision ``whitened`` the same program reported for the group in JSON.
    """
    by_name = {ref.name: ref for ref in refs}
    seen = set()
    for line in text.splitlines():
        match = _COMPARE_LINE.match(line)
        ref = by_name.get(match.group(2)) if match else None
        if ref is None or ref.name in seen:
            tally.record(where, [f"unparsable or repeated line {line[:80]!r}"])
            continue
        seen.add(ref.name)
        problems: list[str] = []
        if int(match.group(1)) != ref.rank:
            problems.append(f"rank {match.group(1)}, expected {ref.rank}")
        if not _near2(match.group(3), ref.whitened):
            problems.append(f"whitened {match.group(3)}, expected {ref.whitened!r}")
        if bool(match.group(5)) != ref.tied:
            problems.append(f"tie marker {bool(match.group(5))}, expected {ref.tied}")
        defect = _judge_grade(match.group(4), whitened.get(ref.name), ref, problems, tally)
        tally.record(f"{where} {ref.name}", problems, defect)
    for ref in refs:
        if ref.name not in seen:
            tally.record(f"{where} {ref.name}", ["group missing from output"])


_ASSESS_LINE = re.compile(
    r"^(\S+): mean=\[(-?[\d.]+), (-?[\d.]+)\] whitened=(-?[\d.]+) grade=(\S+) n=(\d+) \((.*)\)$"
)
_RAW_LINE = re.compile(r"^raw mean (-?[\d.]+), difference vs whitened (-?[\d.]+)$")


def check_assess_text(text: str, ref: GroupRef, raw_mean: float, tally: Tally, where: str) -> None:
    """Pooled ``assess --scores`` text output: the report line and the raw-mean line."""
    lines = text.splitlines()
    problems: list[str] = []
    match = _ASSESS_LINE.match(lines[0]) if lines else None
    raw = _RAW_LINE.match(lines[1]) if len(lines) == 2 else None
    if not match or not raw:
        tally.record(where, [f"unparsable output {text[:120]!r}"])
        return
    dist = " ".join(f"{label}:{count}" for label, count in ref.counts.items())
    if match.group(1) != ref.name or int(match.group(6)) != ref.n or match.group(7) != dist:
        problems.append("group, n or distribution differs")
    for got, want in ((match.group(2), ref.lower), (match.group(3), ref.upper),
                      (match.group(4), ref.whitened), (raw.group(1), raw_mean),
                      (raw.group(2), raw_mean - ref.whitened)):
        if not _near2(got, want):
            problems.append(f"{got} differs from {want!r}")
    defect = _judge_grade(match.group(5), None, ref, problems, tally)
    tally.record(f"{where} {ref.name}", problems, defect)


# -- calc reference and checks -----------------------------------------------

def calc_reference(corpus: Corpus) -> list[CalcRef]:
    return [_eval_rpn(expr.rpn, expr.height) for expr in corpus.expressions]


def _eval_rpn(rpn: list, height: int) -> CalcRef:
    """Exact interval arithmetic; each stack item is (lower, upper, magnitude bound)."""
    stack: list[tuple[Fraction, Fraction, Fraction]] = []
    for item in rpn:
        if isinstance(item, tuple):
            lo, hi = Fraction(item[1]), Fraction(item[2])
            stack.append((lo, hi, max(abs(lo), abs(hi))))
            continue
        b_lo, b_hi, b_mag = stack.pop()
        a_lo, a_hi, a_mag = stack.pop()
        if item == "+":
            stack.append((a_lo + b_lo, a_hi + b_hi, a_mag + b_mag))
        elif item == "-":
            stack.append((a_lo - b_hi, a_hi - b_lo, a_mag + b_mag))
        elif item == "*":
            products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
            stack.append((min(products), max(products), a_mag * b_mag))
        else:
            if b_lo <= 0 <= b_hi:
                return CalcRef(True, height=height)
            quotients = (a_lo / b_lo, a_lo / b_hi, a_hi / b_lo, a_hi / b_hi)
            stack.append((min(quotients), max(quotients), a_mag / min(abs(b_lo), abs(b_hi))))
    (lo, hi, mag), = stack
    return CalcRef(False, float(lo), float(hi), float(mag), height)


def _calc_close(got, want: float, ref: CalcRef) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool) and math.isfinite(got)
            and abs(got - want) <= REL_TOL * max(1.0, ref.magnitude))


def check_calc_cli(status: int, stdout: str, stderr: str, ref: CalcRef, tally: Tally, where: str) -> None:
    """One ``calc --format json`` process: exit status, stdout and stderr."""
    problems: list[str] = []
    defect = None
    if ref.zero_division:
        if status != 1 or stdout or len(stderr.splitlines()) != 1 or not stderr.startswith("error: "):
            problems.append(f"expected exit 1 with one 'error:' line, got exit {status}")
    elif status != 0 or stderr:
        problems.append(f"exit {status}, stderr {stderr.strip().splitlines()[-1:]!r}")
        if status == 1 and "Traceback" in stderr and \
                stderr.strip().splitlines()[-1].startswith("RecursionError") and ref.height >= DEEP_TREE:
            defect = "deep-tree-recursion"
    else:
        try:
            value = json.loads(stdout)
        except ValueError:
            value = None
        if not isinstance(value, dict) or not (_calc_close(value.get("lower"), ref.lower, ref)
                                               and _calc_close(value.get("upper"), ref.upper, ref)):
            problems.append(f"result {stdout.strip()[:80]!r}, expected [{ref.lower!r}, {ref.upper!r}]")
    tally.record(where, problems, defect)


def check_calc_lib(outcome: tuple, ref: CalcRef, tally: Tally, where: str) -> None:
    """One in-process parse+evaluate: ("ok", lower, upper) or ("raised", type name)."""
    problems: list[str] = []
    defect = None
    if ref.zero_division:
        if outcome[:2] != ("raised", "ZeroDivisorError"):
            problems.append(f"expected ZeroDivisorError, got {outcome}")
    elif outcome[0] != "ok":
        problems.append(f"raised {outcome[1]}")
        if outcome[1] == "RecursionError" and ref.height >= DEEP_TREE:
            defect = "deep-tree-recursion"
    elif not (_calc_close(outcome[1], ref.lower, ref) and _calc_close(outcome[2], ref.upper, ref)):
        problems.append(f"result [{outcome[1]!r}, {outcome[2]!r}], expected [{ref.lower!r}, {ref.upper!r}]")
    tally.record(where, problems, defect)
