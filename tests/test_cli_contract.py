"""The CLI contract over generated valid scales and counts CSVs.

Scales have 2-4 grades over [0, domain maximum], the maximum between 100
and 1e300; groups may be empty or hold counts large enough that a sum
overflows. ``assess`` (with and without ``--check-tfn``) and ``compare``
run in text and JSON, and every run must exit 0 or 1, print one ``error:``
line and nothing else on exit 1, and on exit 0 report whitened values that
lie in their mean interval and in the domain.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from greyassess import GradeScale, GreyNumber
from greyassess.cli import main

COMMANDS = (("assess",), ("assess", "--check-tfn"), ("compare",))


@st.composite
def scales(draw):
    """A valid scale over [0, domain_max], highest grade first."""
    k = draw(st.integers(2, 4))
    domain_max = 10.0 ** draw(st.floats(2.0, 300.0))
    inner = sorted(draw(st.lists(
        st.integers(1, 999), min_size=2 * k - 2, max_size=2 * k - 2, unique=True
    )))
    bounds = [0.0, *(i / 1000 * domain_max for i in inner), domain_max]
    entries = tuple(
        (f"G{i}", GreyNumber(bounds[2 * i], bounds[2 * i + 1])) for i in reversed(range(k))
    )
    scale = GradeScale(entries, 0.0, domain_max)
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


def scale_text(scale):
    lines = [f"domain {scale.domain_min!r} {scale.domain_max!r}"]
    lines.extend(f"{label} {gn.lower!r} {gn.upper!r}" for label, gn in scale.entries)
    return "\n".join(lines) + "\n"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=40, deadline=None)
@given(st.data(), st.floats(0.0, 1.0))
def test_every_run_keeps_the_contract(workdir, data, t):
    scale = data.draw(scales())
    rows = data.draw(counts_rows(scale.labels))
    scale_file, counts = workdir / "scale.txt", workdir / "counts.csv"
    scale_file.write_text(scale_text(scale), encoding="utf-8")
    counts.write_text("group,grade,count\n" + "\n".join(rows) + "\n", encoding="utf-8")
    for command, *flags in COMMANDS:
        argv = (command, "--counts", str(counts), "--scale", str(scale_file), "--t", repr(t), *flags)
        text_code, text_out, text_err = run(*argv)
        code, out, err = run(*argv, "--format", "json")
        assert (text_code, text_err) == (code, err)
        assert code in (0, 1)
        if code == 1:
            assert out == text_out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            continue
        assert err == ""
        for entry in json.loads(out):
            mean, whitened = entry["mean_gn"], entry["whitened"]
            assert mean["lower"] <= whitened <= mean["upper"]
            assert scale.domain_min <= whitened <= scale.domain_max
