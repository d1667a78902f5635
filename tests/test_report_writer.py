"""The CLI's report writer against json.dumps under the hex rule."""

import json

import pytest

from pitkit.cli import _json_text

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def hexed(obj):
    """obj with every int too long for a decimal conversion replaced by its
    "0x..." string and every tuple made a list, as the CLI prepared each
    report for json.dumps before it had a writer of its own."""
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    if isinstance(obj, int) and not isinstance(obj, bool):
        try:
            str(obj)
        except ValueError:
            return hex(obj)
    return obj


# ints on both sides of the 4300-digit limit, of either sign
long_ints = st.builds(lambda digits, low, sign: sign * (10 ** digits + low),
                      st.integers(4295, 4305), st.integers(0, 10 ** 6), st.sampled_from([1, -1]))
texts = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", " ", "é", "\U0001f600",
                                     'a "quoted" \\ path'])
scalars = st.none() | st.booleans() | st.integers() | long_ints | texts
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300)
@given(values)
def test_the_writer_is_json_dumps_under_the_hex_rule(obj):
    assert _json_text(obj) == json.dumps(hexed(obj), sort_keys=True, indent=2)
    assert _json_text(obj, indent=False) == json.dumps(hexed(obj), sort_keys=True)


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}}, {"a": [[], {}]}, [()]])
def test_empty_containers(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
    assert _json_text(obj, indent=False) == json.dumps(obj, sort_keys=True)


def test_a_value_json_cannot_hold_is_refused():
    with pytest.raises(TypeError):
        _json_text({"a": {1, 2}})
