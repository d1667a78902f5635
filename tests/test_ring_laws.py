"""Hypothesis properties of SparsePoly: the laws of a commutative ring, the
round trip of the text format and the reading of any text of its grammar,
over Q, F_7 and F_(2^61-1)."""

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
    n = data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n))
    text = poly_to_text(f)
    g = poly_from_text(text, field, n)
    assert g == f
    assert poly_to_text(g) == text


@st.composite
def grammar_texts(draw, field, n):
    """(text, terms): a text of the grammar sign? term (sign term)*, with
    blanks and tabs between its tokens, num/den coefficients, variables
    repeated within a term and terms repeated or cancelled; terms lists
    each term as (coefficient, exponent vector)."""
    gap = st.sampled_from(["", " ", "\t", " \t  "])
    dens = st.integers(1, 60).filter(lambda d: not field.is_zero(field.from_int(d)))
    coeff = st.tuples(st.just("c"), st.integers(0, 60), st.none() | dens)
    var = st.tuples(st.just("v"), st.integers(0, n - 1), st.none() | st.integers(0, 4))
    text, terms = draw(gap), []
    for j in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from("+-"))
        factors = draw(st.lists(coeff | var, min_size=1, max_size=4))
        c, exps, parts = field.from_int(-1 if sign == "-" else 1), [0] * n, []
        for kind, a, b in factors:
            if kind == "c":
                c = field.mul(c, field.div(field.from_int(a), field.from_int(b or 1)))
                parts.append(str(a) if b is None else "%d%s/%s%d" % (a, draw(gap), draw(gap), b))
            else:
                exps[a] += 1 if b is None else b
                parts.append("x%d" % (a + 1) if b is None
                             else "x%d%s^%s%d" % (a + 1, draw(gap), draw(gap), b))
        body = parts[0] + "".join(draw(gap) + "*" + draw(gap) + t for t in parts[1:])
        if j or sign == "-" or draw(st.booleans()):
            body = sign + draw(gap) + body
        text += ("" if j == 0 else draw(gap)) + body
        terms.append((c, exps))
        if draw(st.booleans()):
            # the same term again, with the same sign or cancelling
            again = draw(st.sampled_from("+-"))
            text += draw(gap) + again + draw(gap) + body.lstrip("+-").lstrip()
            terms.append((c if again == sign else field.neg(c), exps))
    return text + draw(gap), terms


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_any_text_of_the_grammar_reads_as_the_sum_of_its_terms(field, data):
    n = data.draw(st.integers(1, 3))
    text, terms = data.draw(grammar_texts(field, n))
    want = SparsePoly.zero(field, n)
    for c, exps in terms:
        want = want + SparsePoly.monomial(field, n, exps, c)
    got = poly_from_text(text, field, n)
    assert got == want and all(not field.is_zero(c) for c in got.terms.values())


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
