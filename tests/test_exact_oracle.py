"""`assess` and `compare` against an exact oracle, through the JSON and text CLI.

Each reported mean endpoint and whitened value must equal its exact value
rounded once: the oracle computes it with ``Fraction`` from the floats the
scale file parses to and rounds it with ``float``. The grade is the grade of
the reported whitened value, ranks are competition ranks by that value, and
groups tie exactly when their whitened values are equal. The counts route
is drawn; the scores route is not checked here, though its raw mean is
also the exact mean of the scores rounded once (``assessment.raw_mean``).
"""

import contextlib
import io
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from greyassess.cli import main

COMPARE_LINE = re.compile(r"^(\d+)\. (\S+): whitened=\S+ grade=\S+( \(tie\))?$")


@st.composite
def cases(draw):
    """(domain, entries, groups, t): a valid scale with decimal bounds, its
    entries ``(label, lower, upper)`` highest first, and the groups' counts in
    scale order, some groups repeated so that they tie."""
    k = draw(st.integers(2, 5))
    exponent = draw(st.integers(-12, 296))
    mantissas = sorted(draw(st.lists(
        st.integers(-10**4, 10**4), min_size=2 * k, max_size=2 * k, unique=True
    )))
    bounds = [float(f"{m}e{exponent}") for m in mantissas]
    entries = tuple(
        (f"L{i}", bounds[2 * i], bounds[2 * i + 1]) for i in reversed(range(k))
    )
    count = st.one_of(st.integers(0, 10), st.integers(0, 10**15))
    distinct = draw(st.lists(
        st.lists(count, min_size=k, max_size=k).filter(any), min_size=1, max_size=3
    ))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=6))
    groups = tuple(tuple(distinct[i]) for i in picks)
    return (bounds[0], bounds[-1]), entries, groups, draw(st.floats(0.0, 1.0))


def oracle(entries, groups, t):
    """Each group's (lower, upper, whitened, grade), each number rounded once."""
    rows = []
    for counts in groups:
        n = sum(counts)
        lower = sum(c * Fraction(lo) for c, (_, lo, _) in zip(counts, entries)) / n
        upper = sum(c * Fraction(hi) for c, (_, _, hi) in zip(counts, entries)) / n
        whitened = float(lower + Fraction(t) * (upper - lower))
        grade = next((label for label, lo, _ in entries if whitened >= lo), entries[-1][0])
        rows.append((float(lower), float(upper), whitened, grade))
    return rows


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(cases())
# 13 * 85.3 and 43 * 0.1 round in floats, and so does 1 - t
@example(((0.0, 100.0), (("A", 85.3, 100.0), ("B", 75.3, 85.2), ("C", 0.0, 75.2)), ((13, 0, 0),), 0.0))
@example(((0.1, 100.0), (("A", 50.1, 100.0), ("F", 0.1, 50.0)), ((0, 43),), 0.0))
@example((
    (0.0, 90.26), (("A", 64.55, 90.26), ("B", 0.0, 64.5)), ((1, 0),),
    math.nextafter(0.28977051730844, 1.0),
))
# four groups of A's that whiten to the same 853000000000.1 and tie
@example((
    (0.0, 1e12), (("A", 853000000000.1, 1e12), ("B", 0.0, 853000000000.0)),
    ((1, 0), (3, 0), (7, 0), (13, 0)), 0.0,
))
# P5 of data/players.csv on data/strict_scale.txt: whitened 106/3
@example((
    (0.0, 100.0),
    (("A", 90.0, 100.0), ("B", 80.0, 89.0), ("C", 70.0, 79.0), ("D", 60.0, 69.0), ("F", 0.0, 59.0)),
    ((0, 0, 0, 1, 5),), 0.5,
))
def test_reports_are_exact_values_rounded_once(case):
    (low, high), entries, groups, t = case
    expected = oracle(entries, groups, t)
    names = [f"g{j}" for j in range(len(groups))]
    with tempfile.TemporaryDirectory() as tmp:
        scale = Path(tmp, "scale.txt")
        scale.write_text(
            f"domain {low!r} {high!r}\n" + "".join(f"{l} {lo!r} {hi!r}\n" for l, lo, hi in entries),
            encoding="utf-8",
        )
        counts = Path(tmp, "counts.csv")
        counts.write_text("group,grade,count\n" + "".join(
            f"{name},{label},{c}\n"
            for name, row in zip(names, groups) for (label, _, _), c in zip(entries, row)
        ), encoding="utf-8")
        common = ["--counts", str(counts), "--scale", str(scale), f"--t={t!r}"]
        assessed = json.loads(run("assess", *common, "--format", "json"))
        compared = json.loads(run("compare", *common, "--format", "json"))
        text = run("compare", *common).splitlines()

    got = [
        (e["group"], e["mean_gn"]["lower"], e["mean_gn"]["upper"], e["whitened"], e["grade"])
        for e in assessed
    ]
    assert got == [(name, *row) for name, row in zip(names, expected)]

    whitened = [row[2] for row in expected]
    order = sorted(range(len(groups)), key=lambda j: -whitened[j])
    ranks = [1 + sum(w > whitened[j] for w in whitened) for j in order]
    ties = [whitened.count(whitened[j]) > 1 for j in order]
    assert [(e["rank"], e["group"], e["whitened"], e["grade"]) for e in compared] == [
        (rank, names[j], *expected[j][2:]) for rank, j in zip(ranks, order)
    ]
    lines = [COMPARE_LINE.match(line).groups() for line in text]
    assert lines == [
        (str(rank), names[j], " (tie)" if tie else None) for rank, j, tie in zip(ranks, order, ties)
    ]
