"""The CLI contract over generated valid scales, counts CSVs and scores CSVs,
over arbitrary input files and over ``calc`` token streams.

Scales have 2-4 grades over [0, m] or [-m, m], with m between 100 and
1e300 or near the largest float; groups may be empty or hold counts large
enough that a sum overflows, and scores lie anywhere in the domain,
including the gaps between grades. ``assess`` (with and without
``--check-tfn``) and ``compare`` run in text and JSON, and every run must
exit 0 or 1, print one ``error:`` line and nothing else on exit 1, and on
exit 0 report whitened values that lie in their mean interval and in the
domain.

Arbitrary scale, counts and scores files (invalid scales, byte order marks,
bad UTF-8, repeated rows, ``nan``, ``inf``, ``1e400``, huge and negative
numbers) and arbitrary ``calc`` expressions must exit 0, 1 or 2, raise
nothing but ``SystemExit``, and on exit 1 from ``assess``, ``compare`` or
``calc`` print one ``error:`` line and nothing else.
"""

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from greyassess import GradeScale, GreyNumber
from greyassess.cli import main

COMMANDS = (("assess",), ("assess", "--check-tfn"), ("compare",))


#: Domain maxima spread over many magnitudes, and near the largest float,
#: where a sum or difference of two in-domain values can overflow.
DOMAIN_MAXIMA = st.one_of(
    st.floats(2.0, 300.0).map(lambda e: 10.0 ** e), st.floats(1e308, sys.float_info.max)
)

#: Whitening parameters, often an end of [0, 1].
TS = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)


@st.composite
def scales(draw):
    """A valid scale over [0, m] or [-m, m], highest grade first."""
    k = draw(st.integers(2, 4))
    domain_max = draw(DOMAIN_MAXIMA)
    domain_min = draw(st.sampled_from((0.0, -domain_max)))
    inner = sorted(draw(st.lists(
        st.integers(1, 999), min_size=2 * k - 2, max_size=2 * k - 2, unique=True
    )))
    # each term is at most m in size, where domain_max - domain_min can overflow
    bounds = [
        domain_min,
        *((1 - i / 1000) * domain_min + i / 1000 * domain_max for i in inner),
        domain_max,
    ]
    entries = tuple(
        (f"G{i}", GreyNumber(bounds[2 * i], bounds[2 * i + 1])) for i in reversed(range(k))
    )
    scale = GradeScale(entries, domain_min, domain_max)
    assert scale.validate() == []
    return scale


@st.composite
def counts_rows(draw, labels):
    """Counts CSV rows for 1-4 groups, each listing a subset of the labels
    with counts up to 50, 5e21, 5e301 or 5e307, so a total may overflow."""
    rows = []
    for group in range(draw(st.integers(1, 4))):
        for label in draw(st.lists(st.sampled_from(labels), min_size=1, unique=True)):
            count = draw(st.integers(0, 50)) * 10 ** draw(st.sampled_from((0, 0, 0, 20, 300, 306)))
            rows.append(f"G{group},{label},{count}")
    return rows


@st.composite
def scores_rows(draw, scale):
    """Scores CSV rows for 1-3 subjects with 1-4 scores each, anywhere in the
    domain, often on a grade's end or on the top of the gap below a grade,
    which classifies into the grade below."""
    edges = sorted(
        {gn.lower for _, gn in scale.entries}
        | {gn.upper for _, gn in scale.entries}
        | {math.nextafter(gn.lower, -math.inf) for _, gn in scale.entries[:-1]}
    )
    score = st.floats(scale.domain_min, scale.domain_max) | st.sampled_from(edges)
    rows = []
    for subject in range(draw(st.integers(1, 3))):
        rows.extend(f"P{subject},{s!r}" for s in draw(st.lists(score, min_size=1, max_size=4)))
    return rows


def scale_text(scale):
    lines = [f"domain {scale.domain_min!r} {scale.domain_max!r}"]
    lines.extend(f"{label} {gn.lower!r} {gn.upper!r}" for label, gn in scale.entries)
    return "\n".join(lines) + "\n"


def run(*argv):
    """Exit code, stdout and stderr of one ``cli.main`` run; a usage error's
    ``SystemExit`` gives the exit code, and any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def is_one_error_line(out, err):
    return out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def check_every_command(workdir, scale, source, header, rows, t):
    """Run each command on ``rows`` as a ``source`` CSV under ``scale``; check the contract."""
    scale_file, data_file = workdir / "scale.txt", workdir / "data.csv"
    scale_file.write_text(scale_text(scale), encoding="utf-8")
    data_file.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    for command, *flags in COMMANDS:
        argv = (command, source, str(data_file), "--scale", str(scale_file), "--t", repr(t), *flags)
        text_code, text_out, text_err = run(*argv)
        code, out, err = run(*argv, "--format", "json")
        assert (text_code, text_err) == (code, err)
        assert code in (0, 1)
        if code == 1:
            assert text_out == "" and is_one_error_line(out, err)
            continue
        assert err == ""
        for entry in json.loads(out):
            mean, whitened = entry["mean_gn"], entry["whitened"]
            assert mean["lower"] <= whitened <= mean["upper"]
            assert scale.domain_min <= whitened <= scale.domain_max


@settings(max_examples=40, deadline=None)
@given(st.data(), TS)
def test_every_run_keeps_the_contract(workdir, data, t):
    scale = data.draw(scales())
    rows = data.draw(counts_rows(scale.labels))
    check_every_command(workdir, scale, "--counts", "group,grade,count", rows, t)


#: A gap score far above a bottom grade near the largest float: the raw
#: mean minus the whitened value overflows, so it is a data error.
FAR_GAP_SCORE = (
    GradeScale(
        (("A", GreyNumber(1.6e308, 1.7e308)), ("B", GreyNumber(-1.7e308, -1.6e308))),
        -1.7e308,
        1.7e308,
    ),
    ["P0,1.5e308"],
)


@settings(max_examples=40, deadline=None)
@given(scales().flatmap(lambda scale: st.tuples(st.just(scale), scores_rows(scale))), TS)
@example(FAR_GAP_SCORE, 0.0)
def test_every_scores_run_keeps_the_contract(workdir, sheet, t):
    scale, rows = sheet
    check_every_command(workdir, scale, "--scores", "subject,score", rows, t)


#: Numbers as an input file may spell them: in and out of a scale's domain,
#: negative, huge, beyond the float range, not finite, or not numbers at all.
NUMBER_TEXTS = (
    st.sampled_from(("0", "49", "84.5", "100", "-3", "1e400", "-1e400", "nan", "inf", "x", ""))
    | st.sampled_from(("1" + "0" * 400, "-" + "9" * 400))
    | st.integers(-10**6, 10**6).map(str)
    | st.floats().map(repr)
)

LABELS = st.sampled_from(("A", "B", "F", "G0", "G1", "Z"))


@st.composite
def file_bytes(draw, lines):
    """``lines`` as UTF-8, sometimes a row repeated, after a byte order mark
    or with a byte that is not UTF-8."""
    if lines and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines)))
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def scale_files(draw):
    """A valid scale, or up to 4 rows that may overlap, leave the domain or not parse."""
    if draw(st.booleans()):
        lines = scale_text(draw(scales())).splitlines()
    else:
        row = st.tuples(LABELS | st.just("domain"), NUMBER_TEXTS, NUMBER_TEXTS).map(" ".join)
        lines = draw(st.lists(row, max_size=4))
    return draw(file_bytes(lines))


@st.composite
def csv_files(draw, header, row):
    """A CSV file with ``header`` and up to 5 of the rows ``row`` draws."""
    return draw(file_bytes([header, *draw(st.lists(row, max_size=5))]))


COUNTS_FILES = csv_files(
    "group,grade,count",
    st.tuples(st.sampled_from(("G1", "G2")), LABELS, NUMBER_TEXTS).map(",".join),
)
SCORES_FILES = csv_files(
    "subject,score", st.tuples(st.sampled_from(("P1", "P2")), NUMBER_TEXTS).map(",".join)
)


@settings(max_examples=60, deadline=None)
@given(st.none() | scale_files(), COUNTS_FILES, SCORES_FILES)
def test_every_input_file_keeps_the_contract(workdir, scale_data, counts_data, scores_data):
    counts_file, scores_file = workdir / "counts.csv", workdir / "scores.csv"
    counts_file.write_bytes(counts_data)
    scores_file.write_bytes(scores_data)
    scale_args = ()
    if scale_data is not None:
        scale_file = workdir / "any-scale.txt"
        scale_file.write_bytes(scale_data)
        scale_args = ("--scale", str(scale_file))
    argvs = [("validate-scale",)] + [
        (command, source, str(path))
        for command in ("assess", "compare")
        for source, path in (("--counts", counts_file), ("--scores", scores_file))
    ]
    for argv in argvs:
        for fmt in ("text", "json"):
            code, out, err = run(*argv, *scale_args, "--format", fmt)
            assert code in (0, 1, 2)
            if code == 1 and argv[0] != "validate-scale":
                assert is_one_error_line(out, err), (argv, out, err)


#: Pieces of ``calc`` expressions: brackets, commas, operators, signed,
#: huge and subnormal numbers, and characters the grammar has no place for.
CALC_TOKENS = st.sampled_from((
    "[", "]", "(", ")", ",", "+", "-", "*", "/", " ",
    "0", "1", "-2.5", "1e308", "-1e308", "1e400", "1e-320", "9" * 400,
    "x", "#", "\u00e9", ".", "e", "nan", "inf",
))


def reject_constant(constant):
    raise AssertionError(f"non-finite number {constant} in the JSON output")


@settings(max_examples=300, deadline=None)
@given(st.lists(CALC_TOKENS, max_size=12), st.sampled_from(("", " ")), st.sampled_from(("text", "json")))
def test_every_calc_keeps_the_contract(tokens, separator, fmt):
    code, out, err = run("calc", "--format", fmt, separator.join(tokens))
    assert code in (0, 1, 2)
    if code == 1:
        assert is_one_error_line(out, err), (out, err)
    elif code == 0:
        assert err == "" and out.count("\n") == 1 and out.endswith("\n")
        if fmt == "json":
            json.loads(out, parse_constant=reject_constant)
