"""Hypothesis properties of SparsePoly: the laws of a commutative ring, and
the round trip of the text format, over Q, F_7 and F_(2^61-1)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.polynomials import SparsePoly, poly_from_text, poly_to_text  # noqa: E402

Q = FieldSpec("rational")
F7 = FieldSpec("prime", 7)
F61 = FieldSpec("prime", (1 << 61) - 1)
FIELDS = [Q, F7, F61]
FIELD_IDS = ["Q", "F7", "F2^61-1"]


@st.composite
def polys(draw, field, n):
    """A polynomial in n variables, the zero polynomial among them: over Q
    with fractional coefficients, over F_p with unreduced integers."""
    monos = st.tuples(*[st.integers(0, 3)] * n)
    if field.kind == "rational":
        coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    else:
        coeffs = st.integers(-(1 << 64), 1 << 64)
    return SparsePoly(field, n, draw(st.dictionaries(monos, coeffs, max_size=5)))


@st.composite
def triples(draw, field):
    n = draw(st.integers(1, 3))
    return tuple(draw(polys(field, n)) for _ in range(3))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_addition_and_multiplication_are_associative(field, data):
    f, g, h = data.draw(triples(field))
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_addition_and_multiplication_are_commutative(field, data):
    f, g, _ = data.draw(triples(field))
    assert f + g == g + f
    assert f * g == g * f


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_multiplication_distributes_over_addition(field, data):
    f, g, h = data.draw(triples(field))
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_additive_inverse_and_identities(field, data):
    f, g, _ = data.draw(triples(field))
    zero, one = SparsePoly.zero(field, f.nvars), SparsePoly.one(field, f.nvars)
    assert (f + (-f)).is_zero and (f - f).is_zero
    assert f - g == f + (-g)
    assert f + zero == f and f * one == f and (f * zero).is_zero


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_text_round_trip(field, data):
    style = data.draw(st.sampled_from(["x", "z", "t"]))
    n = 1 if style == "t" else data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n))
    text = poly_to_text(f, style=style)
    g = poly_from_text(text, field, n, style=style)
    assert g == f
    assert poly_to_text(g, style=style) == text


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_substitute_is_the_sum_of_the_term_images(field, data):
    """f(g_1, ..., g_n) = sum of c * prod g_i^e_i, summed one term at a time
    with +, and terms that cancel across f's terms leave nothing: x1^2 - x2
    at (g, g^2) is zero."""
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n))
    images = [data.draw(polys(field, m)) for _ in range(n)]
    want = SparsePoly.zero(field, m)
    for exps, c in f.terms.items():
        term = SparsePoly.constant(field, m, c)
        for g, e in zip(images, exps):
            term = term * g ** e
        want = want + term
    got = f.substitute(images)
    assert got == want and all(not field.is_zero(c) for c in got.terms.values())
    g = images[0]
    x1, x2 = SparsePoly.variable(field, 2, 0), SparsePoly.variable(field, 2, 1)
    assert (x1 ** 2 - x2).substitute([g, g * g]).terms == {}
