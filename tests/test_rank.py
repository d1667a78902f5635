"""Differential tests of the scalar echelon, of the polynomial Bareiss and of
the evaluated-rank screen.

linalg's one forward elimination runs on integers: residues over F_p and
Bareiss's fraction-free elimination over Q.  The references are textbook
elimination in the field (Fractions over Q, residues over F_p) and sympy's
rank over QQ and GF(p).  poly_matrix_rank runs
the same elimination on packed integer polynomials; its reference is the
separate loop it ran on before, with the pivot of least degree, on sympy
Polys, and for a Jacobian that loop on the f.derivative(j) matrix.  evaluated_rank stops
at a ceiling; a ceiling that bounds the rank at every point must leave its
answer alone.
"""

import ast
import pathlib
import random
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import pitkit  # noqa: E402
from pitkit import linalg  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.independence import (  # noqa: E402
    MAX_JACOBIAN_PRODUCTS,
    _random_point,
    _subseed,
    evaluated_rank,
    jacobian,
    jacobian_rank,
    trdeg,
    verify_trdeg_certificate,
)
from _gen import form_matrix, int_columns, int_rows  # noqa: E402
from pitkit.linalg import (  # noqa: E402
    eval_matrix,
    kernel_vector,
    poly_matrix_rank,
    rank,
)
from pitkit.polynomials import (  # noqa: E402
    PackedPoly,
    SparsePoly,
    eval_form,
    poly_from_text,
)
from pitkit.varmaps import KroneckerMap, VandermondeMap  # noqa: E402

Q = FieldSpec("rational")
F101 = FieldSpec("prime", 101)
F2 = FieldSpec("prime", 2)
F31 = FieldSpec("prime", (1 << 31) - 1)
F61 = FieldSpec("prime", (1 << 61) - 1)
FIELDS = [Q, F101, F31, F61]
FIELD_IDS = ["Q", "F101", "F2^31-1", "F2^61-1"]


def elements(field):
    """Raw elements as callers pass them: over Q ints (some past 2^63) and
    Fractions; over F_p residues, unreduced ints (negative ones, and ones
    past 2^63) and Fractions whose denominator is a unit."""
    fractions = st.fractions(min_value=-30, max_value=30, max_denominator=9)
    big = st.integers(-(1 << 70), 1 << 70)
    if field.kind == "rational":
        return st.one_of(st.integers(-30, 30), fractions, big)
    p = field.p
    return st.one_of(
        st.integers(0, p - 1),
        big,
        fractions.filter(lambda v: v.denominator % p),
    )


@st.composite
def planted(draw, field, large):
    """A matrix of rank at most k: a product L R of a rows x k and a k x cols
    matrix, computed over Q (reduction to F_p is a ring homomorphism on
    these entries), with some rows and columns then zeroed.  large picks 8
    to 12 rows and columns, small 1 to 7."""
    if large:
        rows, cols = draw(st.integers(8, 12)), draw(st.integers(8, 12))
    else:
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(rows, cols)))
    entries = st.one_of(st.just(0), elements(field))
    L = [[draw(entries) for _ in range(k)] for _ in range(rows)]
    R = [[draw(entries) for _ in range(cols)] for _ in range(k)]
    M = [[sum(L[i][t] * R[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        M[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in M:
            row[j] = 0
    return M


def to_field(field, v):
    v = Fraction(v)
    if field.kind == "rational":
        return v
    return v.numerator * pow(v.denominator, -1, field.p) % field.p


def reference(matrix, field):
    """(rank, pivot_rows): elimination in the field, the first nonzero entry
    of each column as pivot (rows swapped, not rotated), the pivot row
    scaled to 1."""
    p = field.p if field.kind == "prime" else None

    def reduce(v):
        return v % p if p else v

    A = [[to_field(field, v) for v in row] for row in matrix]
    rows, cols = len(A), len(A[0])
    idx = list(range(rows))
    r = 0
    for j in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if A[i][j] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        idx[r], idx[piv] = idx[piv], idx[r]
        s = pow(A[r][j], -1, p) if p else 1 / A[r][j]
        A[r] = [reduce(a * s) for a in A[r]]
        for i in range(r + 1, rows):
            x = A[i][j]
            A[i] = [reduce(a - x * b) for a, b in zip(A[i], A[r])]
        r += 1
    return r, sorted(idx[:r])


def sympy_rank(matrix, field):
    if not matrix or not matrix[0]:
        return 0
    if field.kind == "rational":
        dom = sympy.QQ
        rows = [[dom(v.numerator, v.denominator) for v in map(Fraction, row)] for row in matrix]
    else:
        dom = sympy.GF(field.p)
        rows = [[dom(to_field(field, v)) for v in row] for row in matrix]
    return DomainMatrix(rows, (len(matrix), len(matrix[0])), dom).rank()


def check_kernel(matrix, field, kernel):
    """kernel lists the unique vector with a 1 in the first dependent column
    j up to that column, and matrix * kernel = 0; or is None when the
    columns are independent."""
    cols = len(matrix[0])
    if kernel is None:
        assert sympy_rank(matrix, field) == cols
        return
    one = to_field(field, 1)
    j = len(kernel) - 1
    assert kernel[j] == one and j < cols
    left = [row[:j] for row in matrix]
    assert sympy_rank(left, field) == j  # every column left of j is independent
    for row in matrix:
        acc = sum(to_field(field, a) * c for a, c in zip(row, kernel))
        assert (acc % field.p if field.kind == "prime" else acc) == 0
    if field.kind == "rational":
        assert all(type(c) is Fraction for c in kernel)
    else:
        assert all(type(c) is int and 0 <= c < field.p for c in kernel)


@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_echelon_matches_field_elimination_and_sympy(field, large, data):
    M = data.draw(planted(field, large))
    r, pivot_rows = rank(*int_rows(M, field))
    assert (r, pivot_rows) == reference(M, field)
    assert r == sympy_rank(M, field)
    assert sympy_rank([M[i] for i in pivot_rows], field) == r
    check_kernel(M, field, kernel_vector(*int_columns(M, field), field))


# -- the polynomial Bareiss ---------------------------------------------------


def separate_poly_bareiss(M):
    """The polynomial Bareiss loop poly_matrix_rank ran on before it shared
    _eliminate with the scalar matrices, kept as the oracle: the pivot is
    the first entry of least degree in its column, every update of a column
    right of it is divided by the previous pivot (the polynomial 1 at the
    first step), and pivot_rows stay in pivot order.  Its products and
    exact divisions are sympy's (Poly, exquo), so that it shares no
    arithmetic with the packed polynomials it checks."""
    if not M or not M[0]:
        return 0, [], []
    field, nvars = M[0][0].field, M[0][0].nvars
    gens = sympy.symbols("x1:%d" % (nvars + 1))
    dom = sympy.QQ if field.kind == "rational" else sympy.GF(field.p)

    def poly(f):
        terms = {e: sympy.Rational(c.numerator, c.denominator) if field.kind == "rational" else c
                 for e, c in f.terms.items()}
        return sympy.Poly.from_dict(terms or {(0,) * nvars: 0}, gens, domain=dom)

    A = [[poly(f) for f in row] for row in M]
    zero = poly(SparsePoly.zero(field, nvars))
    idx = list(range(len(A)))
    rows, cols = len(A), len(A[0])
    prev = poly(SparsePoly.one(field, nvars))
    pivot_cols = []
    r = 0
    for j in range(cols):
        if r == rows:
            break
        piv, best = None, None
        for i in range(r, rows):
            if not A[i][j].is_zero:
                d = A[i][j].total_degree()
                if best is None or d < best:
                    piv, best = i, d
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            idx[r], idx[piv] = idx[piv], idx[r]
        for i in range(r + 1, rows):
            for c in range(j + 1, cols):
                A[i][c] = (A[r][j] * A[i][c] - A[i][j] * A[r][c]).exquo(prev)
            A[i][j] = zero
        prev = A[r][j]
        pivot_cols.append(j)
        r += 1
    return r, idx[:r], pivot_cols


@st.composite
def poly_matrices(draw, field):
    """A 1..4 x 1..4 SparsePoly matrix in two variables.  Its entries are
    zero or of degree at most 2 on six monomials, so candidate pivots often
    tie in degree, and a row below the first may be a polynomial
    combination of rows above it, so the rank falls short."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    monos = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    nonzero = st.dictionaries(monos, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    terms = st.one_of(st.just({}), nonzero, nonzero, nonzero)

    def entry():
        return SparsePoly(field, 2, draw(terms))

    M = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            u, v = (M[draw(st.integers(0, i - 1))] for _ in range(2))
            a, b = entry(), entry()
            M[i] = [a * s + b * t for s, t in zip(u, v)]
    return M


@pytest.mark.parametrize("field", [Q, F101, F2], ids=["Q", "F101", "F2"])
@given(data=st.data())
def test_poly_matrix_rank_matches_the_separate_bareiss_loop(field, data):
    M = data.draw(poly_matrices(field))
    before = [row[:] for row in M]
    assert poly_matrix_rank(form_matrix(M), MAX_JACOBIAN_PRODUCTS) == separate_poly_bareiss(M)
    assert M == before


# -- the Jacobian's rank on packed integer polynomials ------------------------

F3, F5 = FieldSpec("prime", 3), FieldSpec("prime", 5)
JACOBIAN_FIELDS = [Q, F2, F3, F5, F101, F61]
JACOBIAN_FIELD_IDS = ["Q", "F2", "F3", "F5", "F101", "F2^61-1"]


@st.composite
def families(draw, field):
    """(family, n): n = 0..5 variables and m = 1..5 members of degree at
    most 8.  A member is sparse, a constant, x_i^p (its derivative vanishes
    in characteristic p; x_i^8 where p > 8, and x_i^2 over Q), or the
    product of two earlier members, so the rank often falls short of
    min(m, n)."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    p = field.characteristic
    coeffs = (st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=4))
              if not p else st.integers(1, p - 1))
    monos = st.lists(st.integers(0, n - 1), max_size=8).map(
        lambda vs: tuple(vs.count(v) for v in range(n))) if n else st.just(())
    fs = []
    while len(fs) < m:
        kind = draw(st.sampled_from(["sparse"] * 3 + ["constant", "power", "product"]))
        if kind == "constant":
            fs.append(SparsePoly.constant(field, n, draw(coeffs)))
        elif kind == "power" and n:
            x = SparsePoly.variable(field, n, draw(st.integers(0, n - 1)))
            fs.append(x ** (8 if p > 8 else p or 2))
        elif kind == "product" and fs:
            a, b = draw(st.sampled_from(fs)), draw(st.sampled_from(fs))
            assume((a.degree() or 0) + (b.degree() or 0) <= 8)
            fs.append(a * b)
        else:
            fs.append(SparsePoly(field, n, draw(st.dictionaries(monos, coeffs, min_size=1,
                                                                max_size=4))))
    return fs, n


def packed_keys_checked():
    """A patch of PackedPoly that checks every polynomial an elimination
    builds: no key has a guard bit set, so no exponent overflowed its
    field.  Returns (patch, top), top[0] the largest exponent seen as a
    fraction of the field's value range: >= 1/2 when some exponent needs
    the top value bit."""
    top = [0.0]
    real = PackedPoly.__init__

    def init(self, terms, ring):
        real(self, terms, ring)
        w, mask = ring.width, (1 << ring.width) - 1
        for key in terms:
            assert not key & ring.guard, "an exponent overflowed its field"
            for v in range(ring.nvars):
                top[0] = max(top[0], (key >> (w * v) & mask) / (1 << (w - 1)))

    return mock.patch.object(PackedPoly, "__init__", init), top


@pytest.mark.parametrize("field", JACOBIAN_FIELDS, ids=JACOBIAN_FIELD_IDS)
@settings(max_examples=100)
@given(data=st.data())
def test_jacobian_rank_matches_the_sparse_poly_bareiss_of_the_derivatives(field, data):
    fs, n = data.draw(families(field))
    derivatives = [[f.derivative(j) for j in range(n)] for f in fs]
    patch, _ = packed_keys_checked()
    with patch:
        got = jacobian_rank(fs)
    assert got == separate_poly_bareiss(derivatives)
    J = jacobian(fs)
    rng = random.Random(data.draw(st.integers(0, 1000)))
    for _ in range(2):
        pt = _random_point(field, rng, n)
        block = field.block(pt)
        for row, want in zip(J, derivatives):
            values = [field.from_integers(*eval_form(e, block, field.p))[0] for e in row]
            assert values == [g.eval(pt) for g in want]


@pytest.mark.parametrize("field", [Q, F101], ids=["Q", "F101"])
def test_jacobian_rank_products_fill_the_packing_width(field):
    """J = [[4 x1^3 x2, x1^4], [5 x1^4, 5 x2^4]]: the largest exponent of an
    entry is 4 and the one Bareiss step multiplies x1^4 by x1^4, so x1^8
    needs the four value bits the width gives; one bit fewer overflows."""
    fs = [poly_from_text(t, field, 2) for t in ("x1^4*x2", "x1^5 + x2^5")]
    patch, top = packed_keys_checked()
    with patch:
        got = jacobian_rank(fs)
    assert top[0] >= 0.5
    assert got == separate_poly_bareiss([[f.derivative(j) for j in range(2)] for f in fs])
    assert got == (2, [0, 1], [0, 1])


def test_no_module_builds_a_sparse_poly_jacobian():
    """Only polynomials calls .derivative(, and Bareiss never sees a
    SparsePoly: poly_matrix_rank packs a hand-made matrix too."""
    src = pathlib.Path(pitkit.__file__).parent
    callers = {path.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "derivative"}
    assert callers <= {"polynomials.py"}
    seen = []
    real = linalg._eliminate

    def eliminate(A, *args):
        seen.extend(type(v) for row in A for v in row)
        return real(A, *args)

    x = [SparsePoly.variable(Q, 2, i) for i in range(2)]
    fs = [x[0] * x[1], x[0] + x[1] * x[1]]
    with mock.patch.object(linalg, "_eliminate", eliminate):
        cert = trdeg(fs)
        assert verify_trdeg_certificate(fs, cert)
        M = form_matrix([[x[0], x[1]], [x[1], x[0]]])
        assert poly_matrix_rank(M, MAX_JACOBIAN_PRODUCTS)[0] == 2
    assert seen and set(seen) == {PackedPoly}


# -- the evaluated-rank screen -------------------------------------------------


@st.composite
def dependent_families(draw, field, coeffs=st.integers(-9, 9).filter(bool)):
    """(family, n): up to four polynomials built from at most n base
    polynomials by products, sums and squares, so that the trdeg can be
    well below min(m, n)."""
    n = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 2)] * n)
    base = []
    for _ in range(draw(st.integers(1, n))):
        f = SparsePoly(field, n, draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3)))
        assume(not f.is_constant)
        base.append(f)
    fs = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        fs.append(draw(st.sampled_from([a, a * b, a + b, a * a + b])))
    return fs, n


@pytest.mark.parametrize("field", [Q, F61], ids=["Q", "F2^61-1"])
@given(data=st.data())
def test_rank_screen_with_a_true_ceiling_returns_the_all_trials_max(field, data):
    fs, n = data.draw(dependent_families(field))
    seed = data.draw(st.integers(0, 1000))
    cert = trdeg(fs, mode="auto")
    assume(cert.exact)
    J = jacobian(fs)

    def jac_at(pt):
        return eval_matrix(J, field.integers(pt))

    rng = random.Random(_subseed(seed, 2))
    full = max(rank(jac_at(_random_point(field, rng, n))[0], field.characteristic)[0]
               for _ in range(4))
    assert full <= cert.r
    assert evaluated_rank(jac_at, field, n, cert.r, seed)[0] == full
    # a ceiling of n, the column count, stops only at min(rows, cols)
    assert evaluated_rank(jac_at, field, n, n, seed)[0] == full


def counting_jac_at(fs):
    """(jac_at, calls): the evaluated Jacobian of fs, and the list of the
    points it was asked for."""
    J = jacobian(fs)
    calls = []

    def jac_at(pt):
        calls.append(pt)
        return eval_matrix(J, Q.integers(pt))

    return jac_at, calls


def test_rank_screen_stops_at_the_first_point_that_reaches_the_ceiling():
    x = [SparsePoly.variable(Q, 3, i) for i in range(3)]
    u = x[0] * x[1]
    fs = [u, u + x[2], u * u]  # a 3 x 3 Jacobian of rank 2 = trdeg
    jac_at, calls = counting_jac_at(fs)
    assert evaluated_rank(jac_at, Q, 3, 2, seed=5)[0] == 2
    assert len(calls) == 1
    # with the ceiling 3 only min(rows, cols) = 3 stops it, out of reach
    jac_at, calls = counting_jac_at(fs)
    assert evaluated_rank(jac_at, Q, 3, 3, seed=5)[0] == 2
    assert len(calls) == 4
    # a 2 x 3 Jacobian of rank 2 stops at min(rows, cols) under the ceiling 3
    jac_at, calls = counting_jac_at([x[0], x[1] * x[2]])
    assert evaluated_rank(jac_at, Q, 3, 3, seed=5)[0] == 2
    assert len(calls) == 1


@given(data=st.data())
def test_chain_rule_integer_rows_keep_the_rank_and_pivot_rows_over_q(data):
    """mp.jacobian_at hands linalg.rank integer rows over one unreduced
    denominator, never a Fraction.  Over Q, with rational coefficients, c =
    3/2 and rational points, their (rank, pivot_rows) is that of textbook
    Fraction elimination of the symbolic image Jacobian at the same point."""
    rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    fs, n = data.draw(dependent_families(Q, rationals.filter(bool)))
    J = jacobian(fs)
    c = Fraction(3, 2)
    maps = [VandermondeMap(Q, n, 2, 28, 2, 11, c), VandermondeMap(Q, n, 1, 9, 2, 5, c),
            KroneckerMap(Q, n, min(2, n), sorted({1, n}), 10, 13, c)]
    for mp in maps:
        imgs = [mp.apply(f) for f in fs]
        w = mp.nvars_out
        a = data.draw(st.lists(st.fractions(-30, 30, max_denominator=7), min_size=w, max_size=w))
        raw = [[g.derivative(j).eval(a) for j in range(w)] for g in imgs]
        rows, den = mp.jacobian_at(J, a)
        assert all(type(v) is int for row in rows for v in row) and type(den) is int
        got = rank(rows, 0)
        assert got == reference(raw, Q)
        assert got[0] == sympy_rank(raw, Q)
