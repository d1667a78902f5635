"""Hypothesis properties of the lattice simplex that the hitting sets walk
(the point-by-point reference _gen.lattice, which tests/test_integer_walk.py
holds the walk by runs to): its size and order, and the lemma that makes
it a hitting set, over Q, F_7, F_11 and F_101."""

import itertools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _gen import int_rows  # noqa: E402
from _gen import lattice as _lattice  # noqa: E402
from pitkit import linalg  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.polynomials import SparsePoly  # noqa: E402

Q = FieldSpec("rational")
F7 = FieldSpec("prime", 7)
F11 = FieldSpec("prime", 11)
F101 = FieldSpec("prime", 101)

ws = st.integers(1, 4)
ds = st.integers(0, 6)


def monomials(w, d):
    """Every exponent vector in w variables of total degree <= d."""
    return [e for e in itertools.product(range(d + 1), repeat=w) if sum(e) <= d]


@st.composite
def axes(draw, field, d):
    """d + 1 distinct field elements, in the order drawn."""
    if field.kind == "rational":
        ints = st.integers(-20, 20)
    else:
        ints = st.integers(0, field.p - 1)
    drawn = draw(st.lists(ints, min_size=d + 1, max_size=d + 1, unique=True))
    return [field.from_int(v) for v in drawn]


@given(w=ws, d=ds, extra=st.integers(0, 2))
def test_lattice_yields_comb_points(w, d, extra):
    values = list(range(d + 1 + extra))
    assert sum(1 for _ in _lattice(values, w, d)) == math.comb(d + w, w)


@given(w=ws, d=ds, extra=st.integers(0, 2))
def test_lattice_is_a_lexicographic_subsequence_of_the_product(w, d, extra):
    values = list(range(d + 1 + extra))
    pts = list(_lattice(values, w, d))
    assert pts == [a for a in itertools.product(values, repeat=w) if sum(a) <= d]


@given(w=ws, axis=st.integers(1, 4))
def test_lattice_without_a_degree_is_the_product(w, axis):
    values = list(range(axis))
    assert list(_lattice(values, w)) == list(itertools.product(values, repeat=w))


def evaluation_matrix(field, values, w, d):
    """Monomials of total degree <= d (columns) at the lattice points of
    the axis values (rows)."""
    return [
        [field.normalize(math.prod(field.pow(a, e) for a, e in zip(pt, mono)))
         for mono in monomials(w, d)]
        for pt in _lattice(values, w, d)
    ]


@pytest.mark.parametrize("field", [Q, F7, F11], ids=["Q", "F7", "F11"])
def test_monomials_against_lattice_points_is_square_and_nonsingular(field):
    # every w <= 4 and d <= 6 on the axis the hitting sets use
    for w, d in itertools.product(range(1, 5), range(7)):
        matrix = evaluation_matrix(field, [field.from_int(v) for v in range(d + 1)], w, d)
        assert len(matrix) == len(matrix[0]) == math.comb(d + w, w)
        assert linalg.rank(*int_rows(matrix, field))[0] == len(matrix), (w, d)


@pytest.mark.parametrize("field", [F7, F11], ids=["F7", "F11"])
@given(data=st.data(), w=ws, d=ds)
def test_lattice_matrix_is_nonsingular_on_any_distinct_axis(field, data, w, d):
    matrix = evaluation_matrix(field, data.draw(axes(field, d)), w, d)
    assert linalg.rank(*int_rows(matrix, field))[0] == len(matrix) == len(matrix[0])


@pytest.mark.parametrize("field", [Q, F101], ids=["Q", "F101"])
@given(data=st.data(), w=ws, d=ds)
def test_a_nonzero_polynomial_is_nonzero_at_some_lattice_point(field, data, w, d):
    values = data.draw(axes(field, d))
    if field.kind == "rational":
        nonzero = st.integers(-50, 50).filter(bool)
    else:
        nonzero = st.integers(1, field.p - 1)
    coeffs = data.draw(st.dictionaries(
        st.sampled_from(monomials(w, d)), nonzero.map(field.from_int), min_size=1, max_size=6
    ))
    f = SparsePoly(field, w, coeffs)
    assert not f.is_zero and f.degree() <= d
    assert any(not field.is_zero(f.eval(pt)) for pt in _lattice(values, w, d))
