"""The CLI's JSON list printer against ``json.dumps(..., indent=2)``.

The list printer writes a top-level list one entry at a time, each entry
filled into one template that ``json.dumps`` renders from the first entry
with its leaves left open. It must give the bytes ``json`` gives, and so
must ``assess`` and ``compare`` against the payloads built as dicts.
"""

import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from greyassess import (
    AssessmentReport,
    GradeDistribution,
    ScoreSheet,
    assess,
    check_equivalence,
    compare_groups,
    default_scale,
    load_counts_csv,
    load_scores_csv,
    raw_mean,
    read_scale_file,
    scores_to_distribution,
)
from greyassess.cli import _print_json_list, _report_leaves, main

# Non-ASCII, control characters, quotes, backslashes and lone surrogates
# all go through json's own escaping.
texts = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "\n", "\t", " ", "Á", "\ud800", "😀"]),
    ),
    max_size=8,
)
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, 1.7976931348623157e308, 0.1, 1e16, 1e-7]),
)
ints = st.one_of(st.integers(), st.integers(-(10**60), 10**60), st.sampled_from([2**63, -(2**64), 10**300]))
scalars = st.one_of(texts, ints, st.booleans(), floats)
# The list printer's entries: dicts whose values are scalars or such dicts.
# Keys may hold "%", quotes and the text a leaf hole renders as.
keys = st.one_of(texts, st.sampled_from(["%", "%s", "%%", '""', ': ""', "\\u0000"]))
entries = st.recursive(
    st.dictionaries(keys, scalars, max_size=4),
    lambda inner: st.dictionaries(keys, st.one_of(scalars, inner), max_size=4),
    max_leaves=12,
)
same_type = {str: texts, bool: st.booleans(), int: ints, float: floats}


def same_keys(entry):
    """Entries with the nested keys of ``entry``, in its order, and leaves of the same types."""
    parts = [same_keys(v) if isinstance(v, dict) else same_type[type(v)] for v in entry.values()]
    return st.tuples(*parts).map(lambda values: dict(zip(entry, values)))


def leaves(entry) -> tuple:
    """The leaf values of ``entry`` in key order, as the list printer takes them."""
    found = []
    for value in entry.values():
        if isinstance(value, dict):
            found.extend(leaves(value))
        elif isinstance(value, str):
            found.append(encode_basestring_ascii(value))
        elif isinstance(value, bool):
            found.append("true" if value else "false")
        else:
            found.append(value)
    return tuple(found)


def printed(first, rows) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        _print_json_list(first, rows)
    return out.getvalue()


@settings(max_examples=30, deadline=None)
@given(st.data(), entries)
def test_list_printer_matches_json_dumps_indent_2(data, first):
    listed = [first, *data.draw(st.lists(same_keys(first), max_size=3))]
    assert printed(first, map(leaves, listed)) == json.dumps(listed, indent=2) + "\n"


def test_list_printer_writes_each_entry_before_drawing_the_next():
    out = io.StringIO()
    written_when_drawn = []

    def rows():
        for k in range(3):
            written_when_drawn.append(out.getvalue())
            yield (k,)

    with redirect_stdout(out):
        _print_json_list({"k": 0}, rows())
    assert written_when_drawn[0] == ""
    for k in (1, 2):
        assert f'"k": {k - 1}\n  }}' in written_when_drawn[k]
        assert f'"k": {k}' not in written_when_drawn[k]
    assert out.getvalue() == json.dumps([{"k": 0}, {"k": 1}, {"k": 2}], indent=2) + "\n"


def test_non_finite_report_leaf_raises_value_error():
    report = assess(GradeDistribution({"A": 1, "F": 2}), default_scale())
    broken = AssessmentReport(
        report.group_id, report.n, report.mean_gn, math.inf, report.grade,
        report.distribution, report.t, report.scale,
    )
    message = "Out of range float values are not JSON compliant: inf"
    with pytest.raises(ValueError, match=message):
        printed(report.to_dict(), map(_report_leaves, [report, broken]))
    with pytest.raises(ValueError, match=message):
        printed(broken.to_dict(), map(_report_leaves, [broken]))


def test_leaves_that_do_not_match_the_first_entry_fail_at_once():
    with pytest.raises(AssertionError):
        printed({"a": 1, "b": 2}, [(2, 1)])
    with pytest.raises(TypeError):  # a key the leaves leave out
        printed({"a": 1, "b": 2}, [(1,)])


# Scale labels and group ids as the scale file and the CSV formats hold
# them: no comma, no line break, no padding and no leading "#"; a label has
# no whitespace at all, is not "domain" and does not start with a byte order
# mark. A lone surrogate cannot be written as UTF-8, so no file holds one.
pieces = st.one_of(
    st.characters(exclude_categories=("Cs",)),
    st.sampled_from(["%", "%s", "%d", '"', "\\", "\x00", "\\u0000", "Ż", "😀", " "]),
)


def _is_cell(text: str) -> bool:
    return (
        "," not in text
        and text == text.strip()
        and "".join(text.splitlines()) == text
        and not text.startswith(("#", "\ufeff"))
    )


group_ids = st.lists(pieces, min_size=1, max_size=4).map("".join).filter(_is_cell)
labels = group_ids.filter(lambda text: text.split() == [text] and text != "domain")


@st.composite
def cli_cases(draw):
    """Scale labels, lower bounds of all grades but the lowest, groups with
    their counts in label order, and t."""
    scale_labels = draw(st.lists(labels, min_size=2, max_size=4, unique=True))
    k = len(scale_labels)
    cuts = draw(st.lists(st.integers(1, 99), min_size=k - 1, max_size=k - 1, unique=True))
    counts = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    groups = draw(
        st.lists(st.tuples(group_ids, counts), min_size=1, max_size=4, unique_by=lambda g: g[0])
    )
    if draw(st.booleans()):  # one group tied with the first
        taken = {group for group, _ in groups}
        groups.append((draw(group_ids.filter(lambda g: g not in taken)), groups[0][1]))
    t = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return tuple(scale_labels), sorted(cuts, reverse=True), groups, t


def run_json(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    return out.getvalue()


def ranked(reports) -> list[dict]:
    payload = []
    for tie_group in compare_groups(reports):
        rank = len(payload) + 1
        payload.extend({"rank": rank, **report.to_dict()} for report in tie_group)
    return payload


@settings(max_examples=40, deadline=None)
@given(cli_cases())
@example((("\x00", "A"), [50], [("\x00", [1, 2]), ("%s", [1, 2]), ('"\\u0000"', [0, 3])], 0.5))
def test_cli_json_matches_the_payloads_built_as_dicts(case):
    scale_labels, cuts, groups, t = case
    highs = [100, *(cut - 1 for cut in cuts)]
    lows = [*cuts, 0]
    with tempfile.TemporaryDirectory() as tmp:
        scale_path, counts_path, scores_path = (str(Path(tmp, n)) for n in ("s.txt", "c.csv", "p.csv"))
        scale_lines = (f"{label} {low} {high}\n" for label, low, high in zip(scale_labels, lows, highs))
        Path(scale_path).write_text("".join(scale_lines), encoding="utf-8")
        count_rows = (f"{g},{label},{n}\n" for g, c in groups for label, n in zip(scale_labels, c))
        Path(counts_path).write_text("group,grade,count\n" + "".join(count_rows), encoding="utf-8")
        # each score is its grade's lower bound, which classifies as that grade
        rows = (f"{g},{low}\n" for g, c in groups for low, count in zip(lows, c) for _ in range(count))
        Path(scores_path).write_text("subject,score\n" + "".join(rows), encoding="utf-8")

        loaded = read_scale_file(scale_path)
        counts = load_counts_csv(counts_path, loaded)
        reports = [assess(d, loaded, t, group_id=g) for g, d in counts.items()]
        sheet = load_scores_csv(scores_path, loaded)
        pooled = assess(scores_to_distribution(sheet, loaded), loaded, t, group_id="all")
        mean = raw_mean(sheet)
        scores_entry = {**pooled.to_dict(), "raw_mean": mean, "difference": mean - pooled.whitened}
        subjects = [
            assess(scores_to_distribution(ScoreSheet((s,)), loaded), loaded, t, group_id=s[0])
            for s in sheet.subjects
        ]
        expected = {
            ("assess", "--counts", counts_path): [r.to_dict() for r in reports],
            ("assess", "--counts", counts_path, "--check-tfn"): [
                {**r.to_dict(), "tfn_check": vars(check_equivalence(r.distribution, loaded))}
                for r in reports
            ],
            ("assess", "--scores", scores_path): [scores_entry],
            ("assess", "--scores", scores_path, "--check-tfn"): [
                {**scores_entry, "tfn_check": vars(check_equivalence(pooled.distribution, loaded))}
            ],
            ("compare", "--counts", counts_path): ranked(reports),
            ("compare", "--scores", scores_path): ranked(subjects),
        }
        for argv, payload in expected.items():
            out = run_json(*argv, "--scale", scale_path, "--t", str(t))
            assert out == json.dumps(payload, indent=2) + "\n"
