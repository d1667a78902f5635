"""The one expansion of a polynomial under a substitution,
polynomials.substitution: SparsePoly.substitute, AffineMap.apply and the
line of the depth-4 preservation leg (depth4._line) each equal the
reference built from SparsePoly +, * and ** alone
(_gen.substitute_reference), over F_2, F_3, F_101, F_(2^61-1) and Q."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _gen import map_images, substitute_reference  # noqa: E402
from pitkit import depth4  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.independence import _random_point, _subseed  # noqa: E402
from pitkit.polynomials import SparsePoly, poly_from_text  # noqa: E402
from pitkit.varmaps import KroneckerMap, VandermondeMap  # noqa: E402

Q = FieldSpec("rational")
F101 = FieldSpec("prime", 101)
FIELDS = [FieldSpec("prime", 2), FieldSpec("prime", 3), F101,
          FieldSpec("prime", (1 << 61) - 1), Q]
FIELD_IDS = ["F2", "F3", "F101", "F2^61-1", "Q"]


@st.composite
def polys(draw, field, n, max_exp=3):
    """A polynomial in n variables, zero and constant ones among them: over
    Q with fractional coefficients, over F_p with unreduced integers."""
    monos = st.tuples(*[st.integers(0, max_exp)] * n)
    if draw(st.booleans()):
        monos = st.just((0,) * n)
    if field.kind == "rational":
        coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    else:
        coeffs = st.integers(-(1 << 64), 1 << 64)
    return SparsePoly(field, n, draw(st.dictionaries(monos, coeffs, max_size=5)))


@st.composite
def maps(draw, field, n):
    """A Vandermonde or a Kronecker map of x_1..x_n, with a small p and,
    over Q, a fractional c."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if field.kind == "rational":
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    else:
        c = draw(st.integers(1, field.p - 1))
    if draw(st.booleans()):
        r = draw(st.integers(1, 2))
        return VandermondeMap(field, n, r, draw(st.integers(2, 40)), draw(st.integers(2, 6)), p, c)
    r = draw(st.integers(1, n))
    kept = draw(st.lists(st.integers(1, n), min_size=r, max_size=r, unique=True))
    return KroneckerMap(field, n, r, kept, draw(st.integers(2, 9)), p, c)


def line_images(mp, seed):
    """The image of each x_i on the line z = a + t e_0 of depth4._line,
    a the seeded point, by the reference."""
    field = mp.field
    a = _random_point(field, random.Random(_subseed(seed, 4)), mp.nvars_out)
    t = SparsePoly.variable(field, 1, 0)
    z = [t + SparsePoly.constant(field, 1, a[0])] + [
        SparsePoly.constant(field, 1, x) for x in a[1:]]
    return [substitute_reference(g, z) for g in map_images(mp)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_every_expansion_equals_the_reference(field, data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n))
    m = data.draw(st.integers(0, 3))
    images = [data.draw(polys(field, m)) for _ in range(n)]
    assert f.substitute(images) == substitute_reference(f, images)
    mp = data.draw(maps(field, n))
    # a second polynomial of higher degree through the same map widens the
    # packing, and the first one still expands right afterwards
    g = data.draw(polys(field, n, max_exp=7))
    for h in (f, g, f):
        assert mp.apply(h) == substitute_reference(h, map_images(mp))
    if isinstance(mp, VandermondeMap):
        seed = data.draw(st.integers(0, 50))
        line = depth4._line(mp, seed)
        for h in (f, g):
            assert line(h) == substitute_reference(h, line_images(mp, seed))


@pytest.mark.parametrize("field", [F101, Q], ids=["F101", "Q"])
def test_one_substitution_converts_once(field, monkeypatch):
    f = poly_from_text("1/2*x1^3*x2 - x2^2 + 3", field, 2)
    images = [poly_from_text("2/3*x1 + x2", field, 2), poly_from_text("x1^2 - 5", field, 2)]
    mp = VandermondeMap(field, 2, 1, 9, 3, 5, field.from_int(2))
    want = [substitute_reference(f, images), substitute_reference(f, map_images(mp)),
            substitute_reference(f, line_images(mp, 3))]
    calls = []
    real = FieldSpec.from_integers
    monkeypatch.setattr(FieldSpec, "from_integers",
                        lambda self, *args: calls.append(args) or real(self, *args))
    line = depth4._line(mp, 3)
    for expand, expected in zip((lambda: f.substitute(images), lambda: mp.apply(f),
                                 lambda: line(f)), want):
        calls.clear()
        assert expand() == expected
        assert len(calls) == 1


def test_substitute_and_apply_expand_a_power_of_degree_3000():
    f = poly_from_text("x1^3000 + x2", Q, 2)
    images = [poly_from_text("2/3*x1", Q, 1), poly_from_text("x1 + 1", Q, 1)]
    assert f.substitute(images) == substitute_reference(f, images)
    mp = KroneckerMap(Q, 2, 1, (1,), 5, 7, Fraction(3, 2))
    assert mp.apply(f) == substitute_reference(f, map_images(mp))
