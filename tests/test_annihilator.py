"""The annihilator's linear map, built on packed monomials, against a
direct reference built from SparsePoly products over the same monomial
basis.

annihilator packs every exponent vector into one int of B =
(cap * delta).bit_length() bits per variable.  The families with cap * delta
= 2^B - 1 fill a slot to its top value, so a slot one bit too narrow would
carry into the next variable and merge two rows of the map.  The kernel
vector is compared before normalize_monic as well as after it: it is the
unique combination with a 1 at the first dependent column, whatever the
row order.
"""

from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _gen import int_rows  # noqa: E402
from pitkit import independence, linalg  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.independence import (  # noqa: E402
    _monomials_upto,
    _perron_cap,
    _subset_dependent,
    annihilator,
)
from pitkit.polynomials import SparsePoly, normalize_monic, poly_from_text  # noqa: E402

Q = FieldSpec("rational")
FIELDS = [FieldSpec("prime", 2), FieldSpec("prime", 3), FieldSpec("prime", 101),
          FieldSpec("prime", (1 << 61) - 1), Q]
FIELD_IDS = ["F2", "F3", "F101", "F2^61-1", "Q"]

# (cap, delta) with cap * delta = 2^B - 1: the top exponent fills its slot
TIGHT = [(1, 1), (3, 1), (1, 3), (7, 1), (5, 3), (3, 5)]


def reference_kernel(fs, cap):
    """The first kernel vector of F -> F(fs) over the monomials of degree
    <= cap, as a polynomial in len(fs) variables, or None.  Column j is the
    product of the powers of fs in monomial j; rows are in sorted order."""
    field, n, m = fs[0].field, fs[0].nvars, len(fs)
    monos = _monomials_upto(m, cap)
    images = []
    for mono in monos:
        g = SparsePoly.one(field, n)
        for f, e in zip(fs, mono):
            g = g * f ** e
        images.append(g)
    rows = sorted({e for g in images for e in g.terms}) or [None]
    matrix = [[g.terms.get(e, field.zero()) for g in images] for e in rows]
    vec = linalg.kernel_vector(*int_rows(matrix, field), field)
    if vec is None:
        return None
    return SparsePoly(field, m, dict(zip(monos, vec)))


def annihilator_with_kernel(fs, cap):
    """annihilator(fs, cap) and the polynomial of its kernel vector, taken
    before normalize_monic scales it (None when there is none)."""
    seen = []

    def capture(F):
        seen.append(F)
        return normalize_monic(F)

    with mock.patch.object(independence, "normalize_monic", capture):
        A = annihilator(fs, cap)
    return A, (seen[0] if seen else None)


def check_against_reference(fs, cap):
    ref = reference_kernel(fs, cap)
    A, kernel = annihilator_with_kernel(fs, cap)
    assert kernel == ref
    assert A == (None if ref is None else normalize_monic(ref))


@st.composite
def polys(draw, field, n, delta, top=False):
    """A polynomial in n variables of degree at most delta, with up to
    three terms; with top, x_1^delta is one of them."""
    terms = {}
    for _ in range(draw(st.integers(0 if top else 1, 3))):
        budget, exps = delta, []
        for _ in range(n):
            e = draw(st.integers(0, budget))
            exps.append(e)
            budget -= e
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        if field.kind == "prime":
            c = c.numerator
        key = tuple(exps)
        terms[key] = field.add(terms.get(key, field.zero()), field.normalize(c))
    if top:
        terms[(delta,) + (0,) * (n - 1)] = field.one()
    return SparsePoly(field, n, terms)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_packed_map_matches_reference_at_full_slots(field, data):
    cap, delta = data.draw(st.sampled_from(TIGHT))
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3 if cap <= 3 else 2))
    fs = [data.draw(polys(field, n, delta, top=(i == 0))) for i in range(m)]
    assert max(f.degree() or 0 for f in fs) == delta
    check_against_reference(fs, cap)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_packed_map_matches_reference(field, data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    delta = data.draw(st.integers(0, 3))
    cap = data.draw(st.integers(0, 4 if m < 3 else 2))
    fs = [data.draw(polys(field, n, data.draw(st.integers(0, delta)))) for _ in range(m)]
    check_against_reference(fs, cap)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_subset_dependent_at_the_perron_cap(field, data):
    n = data.draw(st.integers(1, 3))
    u = data.draw(st.integers(1, n))
    delta = data.draw(st.integers(1, 2))
    fs = [data.draw(polys(field, n, delta)) for _ in range(u)]
    # the designed dependence: the last member is a product or sum of others
    if u >= 2 and data.draw(st.booleans()):
        fs[-1] = fs[0] * fs[1] if u >= 3 and delta == 1 else fs[0] + fs[-2]
    cap = _perron_cap(fs)
    seed = data.draw(st.integers(0, 3))
    dep, ann, method = _subset_dependent(fs, cap, seed, independence.DEFAULT_COLUMN_BUDGET)
    ref = reference_kernel(fs, cap)
    assert dep == (ref is not None), method
    assert ann == (None if ref is None else normalize_monic(ref))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("texts, nvars, cap", [
    # x1^2 packs like x2 in a one-bit slot: independent, no annihilator
    (["x1", "x2"], 2, 3),
    (["x1^3", "x2"], 2, 1),
    (["x1^5 + x2", "x2^3"], 3, 3),
    # members of degree 0, alone and next to one of degree 1
    (["3"], 1, 1),
    (["2", "x1"], 2, 2),
    (["x1^2 + 1", "x1"], 1, 2),
])
def test_packed_map_on_fixed_families(field, texts, nvars, cap):
    fs = [poly_from_text(t, field, nvars) for t in texts]
    check_against_reference(fs, cap)


@pytest.mark.parametrize("texts, nvars, cap", [
    # no annihilator up to cap 6: 84 columns of a cleared family
    (["x1 + 2/3", "x2 + 5/7*x1^2 - 1", "x1*x2 + 3*x3^2 + 1/2"], 3, 6),
    # annihilators with fractional coefficients, so D^e_j differs by column
    (["x1 + 2/3", "5/7*x1^2 - 1"], 1, 2),
    (["1/2*x1*x2 + 1/3", "x1 + 3/4", "2/5*x2"], 2, 2),
    (["1/3*x1^2", "x1^3 + 1/2", "x2"], 2, 6),
])
def test_cleared_members_over_q(texts, nvars, cap):
    # the map is built on D_i f_i; its kernel vector, rescaled by
    # D^e_j / D^e_j0, must be the one of fs itself
    fs = [poly_from_text(t, Q, nvars) for t in texts]
    check_against_reference(fs, cap)
