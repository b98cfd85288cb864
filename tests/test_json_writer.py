"""The CLI's indent-2 JSON writer against ``json.dumps(..., indent=2)``.

The writer renders the report payloads without the pure-Python encoder that
``json`` falls back to when ``indent`` is set, and the list printer writes a
top-level list one entry at a time. Both must give the bytes ``json`` gives.
"""

import io
import json
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from greyassess.cli import _json_text, _print_json_list

examples = settings(max_examples=100, deadline=None)

# Non-ASCII, control characters, quotes, backslashes and lone surrogates
# all go through json's own escaping.
texts = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "\n", "\t", " ", "Á", "\ud800", "😀"]),
    ),
    max_size=8,
)
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, 1.7976931348623157e308, 0.1, 1e16, 1e-7]),
)
ints = st.one_of(st.integers(), st.integers(-(10**60), 10**60), st.sampled_from([2**63, -(2**64), 10**300]))
scalars = st.one_of(texts, ints, st.booleans(), floats)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=12,
)


def printed(entries) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        _print_json_list(entries)
    return out.getvalue()


@examples
@given(payloads)
def test_writer_matches_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@settings(max_examples=30, deadline=None)
@given(st.lists(payloads, max_size=3))
def test_list_printer_matches_json_dumps_indent_2(entries):
    assert printed(iter(entries)) == json.dumps(entries, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [{}, [], [{}], [[]], {"": []}, {"a": {}}, -0.0, 5e-324, 1e308, 10**100, True, False, "\x00Á😀"],
)
def test_writer_edge_values(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_list_printer_with_no_entries_prints_an_empty_list():
    assert printed(iter(())) == "[]\n"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, [1.0, math.inf], {"x": math.nan}])
def test_non_finite_float_raises_value_error(value):
    with pytest.raises(ValueError):
        _json_text(value)


@pytest.mark.parametrize("value", [{1}, None, (1, 2), {"x": {1}}, {1: "x"}, b"x"])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_list_printer_writes_each_entry_before_drawing_the_next():
    out = io.StringIO()
    written_when_drawn = []

    def entries():
        for k in range(3):
            written_when_drawn.append(out.getvalue())
            yield {"k": k}

    with redirect_stdout(out):
        _print_json_list(entries())
    assert written_when_drawn[0] == ""
    for k in (1, 2):
        assert f'"k": {k - 1}\n  }}' in written_when_drawn[k]
        assert f'"k": {k}' not in written_when_drawn[k]
    assert out.getvalue() == json.dumps([{"k": 0}, {"k": 1}, {"k": 2}], indent=2) + "\n"
