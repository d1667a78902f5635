import fractions
import itertools
import random

import pytest

from _gen import form_matrix, int_columns, int_rows, rand_poly
from pitkit.fields import FieldSpec
from pitkit.independence import MAX_JACOBIAN_PRODUCTS
from pitkit.linalg import (
    eval_matrix,
    kernel_vector,
    poly_matrix_rank,
    rank,
)
from pitkit.polynomials import SparsePoly

Q = FieldSpec("rational")
F101 = FieldSpec("prime", 101)


def _mat(field, rows):
    """The integer rows and modulus of a matrix of ints taken into field."""
    return int_rows([[field.from_int(v) for v in row] for row in rows], field)


def _cols(field, rows):
    """The integer columns and modulus of a matrix of ints taken into field."""
    return int_columns([[field.from_int(v) for v in row] for row in rows], field)


def _rank(A, p):
    return rank(A, p)[0]


def test_rank_basic():
    assert _rank(*_mat(F101, [[1, 2], [2, 4]])) == 1
    assert _rank(*_mat(F101, [[1, 0], [0, 1]])) == 2
    assert _rank(*_mat(Q, [[0, 0], [0, 0]])) == 0
    assert _rank([], 101) == 0


def test_rank_is_modular():
    # rows collide mod 5 but not over the rationals
    M = [[1, 2], [6, 7]]
    assert _rank(*_mat(FieldSpec("prime", 5), M)) == 1
    assert _rank(*_mat(Q, M)) == 2


def test_rank_invariant_under_row_ops():
    rng = random.Random(3)
    for _ in range(20):
        M = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        r = _rank(*_mat(F101, M))
        swapped = [M[1], M[0], M[2]]
        assert _rank(*_mat(F101, swapped)) == r
        scaled = [[7 * v for v in M[0]]] + M[1:]
        assert _rank(*_mat(F101, scaled)) == r


def test_rank_fraction_agrees():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(20):
        M = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        assert _rank(*_mat(Q, M)) == sympy.Matrix(M).rank()


def test_rank_near_int64_boundary():
    # pivot products around (2^31)^2
    p = (1 << 31) - 1
    F = FieldSpec("prime", p)
    M = _mat(F, [[p - 1, 1], [p - 2, 2]])
    assert _rank(*M) == 1
    M2 = _mat(F, [[p - 1, 1], [p - 2, 3]])
    assert _rank(*M2) == 2
    # padded with an identity block to 8 x 8
    for rows, want in (([[p - 1, 1], [p - 2, 2]], 7), ([[p - 1, 1], [p - 2, 3]], 8)):
        padded = [row + [0] * 6 for row in rows]
        padded += [[0] * (2 + i) + [1] + [0] * (5 - i) for i in range(6)]
        assert _rank(*_mat(F, padded)) == want
    # same matrices over a wider modulus
    big = FieldSpec("prime", (1 << 61) - 1)
    assert _rank(*_mat(big, [[-1, 1], [-2, 2]])) == 1
    assert _rank(*_mat(big, [[-1, 1], [-2, 3]])) == 2


def test_kernel_vector():
    M = [[F101.from_int(v) for v in row] for row in [[1, 2], [2, 4]]]
    v = kernel_vector(*int_columns(M, F101), F101)
    assert v is not None and any(not F101.is_zero(c) for c in v)
    for row in M:
        acc = F101.zero()
        for a, c in zip(row, v):
            acc = F101.add(acc, F101.mul(a, c))
        assert F101.is_zero(acc)
    assert kernel_vector(*_cols(F101, [[1, 0], [0, 1]]), F101) is None


def _poly_rank(M):
    """poly_matrix_rank of a matrix of SparsePolys, under the budget of
    the symbolic Jacobian rank."""
    return poly_matrix_rank(form_matrix(M), MAX_JACOBIAN_PRODUCTS)


def test_eval_matrix():
    x = SparsePoly.variable(Q, 2, 0)
    y = SparsePoly.variable(Q, 2, 1)
    M = [[x, y], [x * y, x + y]]
    pt = (Q.from_int(3), Q.from_int(5))
    E, den = eval_matrix(form_matrix(M), Q.integers(pt))
    for i in range(2):
        for j in range(2):
            assert Q.from_integers(E[i], den)[j] == M[i][j].eval(pt)


def test_poly_matrix_rank():
    x = SparsePoly.variable(Q, 2, 0)
    y = SparsePoly.variable(Q, 2, 1)
    one = SparsePoly.one(Q, 2)
    assert _poly_rank([[x, y], [x, y]])[0] == 1
    assert _poly_rank([[x, one], [one, x]])[0] == 2


def test_poly_matrix_rank_pivots_on_least_degree_first_on_ties():
    x = SparsePoly.variable(Q, 2, 0)
    y = SparsePoly.variable(Q, 2, 1)
    one = SparsePoly.one(Q, 2)
    # the entry of least degree wins, and pivot_rows stay in pivot order
    assert _poly_rank([[x * x, one], [x, one]]) == (2, [1, 0], [0, 1])
    # x and y tie in degree: the first is the pivot
    assert _poly_rank([[x, y], [y, x], [x * y, one]]) == (2, [0, 1], [0, 1])
    # a zero column holds no pivot
    zero = SparsePoly.zero(Q, 2)
    assert _poly_rank([[zero, x * y], [zero, y]]) == (1, [1], [1])


def test_evaluated_rank_never_exceeds_symbolic():
    rng = random.Random(29)
    for _ in range(15):
        M = [[rand_poly(rng, Q, 2, 2, 2) for _ in range(3)] for _ in range(2)]
        sym = _poly_rank(M)[0]
        pt = (Q.from_int(rng.randint(-20, 20)), Q.from_int(rng.randint(-20, 20)))
        assert _rank(eval_matrix(form_matrix(M), Q.integers(pt))[0], 0) <= sym


def _low_rank(rng, p, rows, cols, k):
    """A rows x cols matrix mod p of rank at most k: the product of a
    rows x k and a k x cols matrix with entries in [0, p), left unreduced,
    so that the entries come near k p^2."""
    left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@pytest.mark.parametrize("p", [101, (1 << 31) - 1])
def test_echelon_kernel_is_valid_on_low_rank_matrices(p):
    F = FieldSpec("prime", p)
    rng = random.Random(p)
    shapes = [(3, 3), (2, 5), (6, 4), (7, 9), (8, 8), (12, 9), (9, 20), (30, 24)]
    for rows, cols in shapes:
        for k in (1, min(rows, cols) - 1, min(rows, cols)):
            M = _low_rank(rng, p, rows, cols, max(k, 1))
            r, pivot_rows = rank(*int_rows(M, F))
            assert r == len(pivot_rows) and r <= max(k, 1), (rows, cols, k)
            assert _rank(*int_rows([M[i] for i in pivot_rows], F)) == r
            kernel = kernel_vector(*int_columns(M, F), F)
            assert (kernel is None) == (r == cols)
            if kernel is not None:
                assert _is_kernel_vector(M, F, kernel)


def _is_kernel_vector(M, field, v):
    p = field.p
    return any(v) and all(
        sum(field.normalize(a) * c for a, c in zip(row, v)) % p == 0 for row in M
    )


def test_echelon_normalizes_fraction_entries():
    # (i + j) / 2 has the rank of i + j over F_101: 2.  Truncated to
    # integers, the Fractions gave rank 3.
    M = [[fractions.Fraction(i + j, 2) for j in range(8)] for i in range(8)]
    assert rank(*int_rows(M, F101)) == (2, [0, 1])
    # column 2 = 2 * column 1 - column 0
    kernel = kernel_vector(*int_columns(M, F101), F101)
    assert kernel == [1, 99, 1]
    assert _is_kernel_vector(M, F101, kernel)


@pytest.mark.parametrize("p", [101, (1 << 31) - 1])
def test_echelon_reduces_big_integer_entries(p):
    # 2^70 + i*j is c + i*j mod p with c != 0: rank 2.  Entries past 2^63
    # do not fit a machine word.
    F = FieldSpec("prime", p)
    M = [[(1 << 70) + i * j for j in range(8)] for i in range(8)]
    assert rank(*int_rows(M, F)) == (2, [0, 1])
    assert _is_kernel_vector(M, F, kernel_vector(*int_columns(M, F), F))


def _to_sympy(f, xs):
    import sympy

    total = sympy.Integer(0)
    for exps, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if f.field.kind == "rational" else c
        for x, e in zip(xs, exps):
            term *= x ** e
        total += term
    return total


def _sympy_minor_rank(M, dom, xs):
    """(rank, minor): the rank of a SparsePoly matrix by the definition, the
    largest k with a nonzero k x k minor, in sympy's polynomial ring dom,
    and minor(rows, cols), that minor's determinant for any index lists."""
    from sympy.polys.matrices import DomainMatrix

    rows, cols = len(M), len(M[0])
    D = DomainMatrix([[dom.from_sympy(_to_sympy(f, xs)) for f in row] for row in M],
                     (rows, cols), dom)

    def minor(I, J):
        return D.extract(list(I), list(J)).det()

    r = 0
    for k in range(1, min(rows, cols) + 1):
        if any(minor(I, J) for I in itertools.combinations(range(rows), k)
               for J in itertools.combinations(range(cols), k)):
            r = k
    return r, minor


@pytest.mark.parametrize("field", [Q, F101], ids=["Q", "F101"])
def test_poly_matrix_rank_agrees_with_sympy(field):
    # the reference is sympy's determinant in QQ[x1, x2] or GF(101)[x1, x2];
    # sympy's own rank() fails over GF(p)[x1, x2], where it cannot convert
    # constants to the fraction field
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1 x2")
    dom = (sympy.QQ if field.kind == "rational" else sympy.GF(field.p))[xs]
    rng = random.Random(41)
    ranks = set()
    for rows, cols in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)):
        for _ in range(3):
            M = [[rand_poly(rng, field, 2, 2, 2) for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and rng.random() < 0.5:
                # a polynomial combination of two rows: rank deficient
                a, b = rand_poly(rng, field, 2, 1, 2), rand_poly(rng, field, 2, 1, 2)
                M[-1] = [a * u + b * v for u, v in zip(M[0], M[1 % (rows - 1)])]
            if rng.random() < 0.3:
                M[rng.randrange(rows)][rng.randrange(cols)] = SparsePoly.zero(field, 2)
            r, pivot_rows, pivot_cols = _poly_rank(M)
            want, minor = _sympy_minor_rank(M, dom, xs)
            assert r == want == len(pivot_rows) == len(pivot_cols), (rows, cols)
            if r:
                assert minor(pivot_rows, pivot_cols)
            ranks.add((min(rows, cols), r))
    # full and deficient ranks both occur
    assert any(r < m for m, r in ranks) and any(r == m > 1 for m, r in ranks)
