import fractions
import random

import pytest

from _gen import rand_poly
from pitkit.fields import FieldSpec
from pitkit.linalg import (
    _NP_MIN_ENTRIES,
    _echelon_np,
    _echelon_py,
    echelon,
    eval_matrix,
    kernel_vector,
    poly_matrix_det,
    poly_matrix_rank,
    rank,
)
from pitkit.polynomials import SparsePoly, poly_from_text, resultant

Q = FieldSpec("rational")
F101 = FieldSpec("prime", 101)


def _mat(field, rows):
    return [[field.from_int(v) for v in row] for row in rows]


def test_rank_basic():
    assert rank(_mat(F101, [[1, 2], [2, 4]]), F101) == 1
    assert rank(_mat(F101, [[1, 0], [0, 1]]), F101) == 2
    assert rank(_mat(Q, [[0, 0], [0, 0]]), Q) == 0
    assert rank([], F101) == 0


def test_rank_is_modular():
    # rows collide mod 5 but not over the rationals
    M = [[1, 2], [6, 7]]
    assert rank(_mat(FieldSpec("prime", 5), M), FieldSpec("prime", 5)) == 1
    assert rank(_mat(Q, M), Q) == 2


def test_rank_invariant_under_row_ops():
    rng = random.Random(3)
    for _ in range(20):
        M = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        r = rank(_mat(F101, M), F101)
        swapped = [M[1], M[0], M[2]]
        assert rank(_mat(F101, swapped), F101) == r
        scaled = [[7 * v for v in M[0]]] + M[1:]
        assert rank(_mat(F101, scaled), F101) == r


def test_rank_fraction_agrees():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(20):
        M = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        assert rank(_mat(Q, M), Q) == sympy.Matrix(M).rank()


def test_rank_near_int64_boundary():
    # pivot products around (2^31)^2 must not overflow the fast path
    p = (1 << 31) - 1
    F = FieldSpec("prime", p)
    M = _mat(F, [[p - 1, 1], [p - 2, 2]])
    assert rank(M, F) == 1
    M2 = _mat(F, [[p - 1, 1], [p - 2, 3]])
    assert rank(M2, F) == 2
    # padded with an identity block to the size the numpy loop takes
    for rows, want in (([[p - 1, 1], [p - 2, 2]], 7), ([[p - 1, 1], [p - 2, 3]], 8)):
        padded = [row + [0] * 6 for row in rows]
        padded += [[0] * (2 + i) + [1] + [0] * (5 - i) for i in range(6)]
        assert len(padded) * len(padded[0]) >= _NP_MIN_ENTRIES
        assert rank(_mat(F, padded), F) == want
    # same matrices through the pure-python lane of a wider modulus
    big = FieldSpec("prime", (1 << 61) - 1)
    assert rank(_mat(big, [[-1, 1], [-2, 2]]), big) == 1
    assert rank(_mat(big, [[-1, 1], [-2, 3]]), big) == 2


def test_kernel_vector():
    M = _mat(F101, [[1, 2], [2, 4]])
    v = kernel_vector(M, F101)
    assert v is not None and any(not F101.is_zero(c) for c in v)
    for row in M:
        acc = F101.zero()
        for a, c in zip(row, v):
            acc = F101.add(acc, F101.mul(a, c))
        assert F101.is_zero(acc)
    assert kernel_vector(_mat(F101, [[1, 0], [0, 1]]), F101) is None


def test_eval_matrix():
    x = SparsePoly.variable(Q, 2, 0)
    y = SparsePoly.variable(Q, 2, 1)
    M = [[x, y], [x * y, x + y]]
    pt = (Q.from_int(3), Q.from_int(5))
    E = eval_matrix(M, pt)
    for i in range(2):
        for j in range(2):
            assert E[i][j] == M[i][j].eval(pt)


def test_poly_matrix_det():
    x = SparsePoly.variable(Q, 2, 0)
    one = SparsePoly.one(Q, 2)
    assert poly_matrix_det([[x, one], [one, x]]) == poly_from_text("x1^2 - 1", Q, 2)
    y = SparsePoly.variable(Q, 2, 1)
    assert poly_matrix_det([[x, y], [x, y]]).is_zero


def test_poly_matrix_rank():
    x = SparsePoly.variable(Q, 2, 0)
    y = SparsePoly.variable(Q, 2, 1)
    one = SparsePoly.one(Q, 2)
    assert poly_matrix_rank([[x, y], [x, y]])[0] == 1
    assert poly_matrix_rank([[x, one], [one, x]])[0] == 2


def test_evaluated_rank_never_exceeds_symbolic():
    rng = random.Random(29)
    for _ in range(15):
        M = [[rand_poly(rng, Q, 2, 2, 2) for _ in range(3)] for _ in range(2)]
        sym = poly_matrix_rank(M)[0]
        pt = (Q.from_int(rng.randint(-20, 20)), Q.from_int(rng.randint(-20, 20)))
        assert rank(eval_matrix(M, pt), Q) <= sym


def _low_rank(rng, p, rows, cols, k):
    """A rows x cols matrix mod p of rank at most k, entries spread over
    [0, p) so that products reach p^2 on the int64 path."""
    left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]


@pytest.mark.parametrize("p", [101, (1 << 31) - 1])
def test_numpy_and_python_echelon_loops_agree(p):
    F = FieldSpec("prime", p)
    rng = random.Random(p)
    shapes = [(3, 3), (2, 5), (6, 4), (7, 9), (8, 8), (12, 9), (9, 20), (30, 24)]
    sizes = [rows * cols for rows, cols in shapes]
    assert min(sizes) < _NP_MIN_ENTRIES <= max(sizes)
    for rows, cols in shapes:
        for k in (1, min(rows, cols) - 1, min(rows, cols)):
            M = _low_rank(rng, p, rows, cols, max(k, 1))
            fast, slow = _echelon_np(M, F, False), _echelon_py(M, F, False)
            assert fast == slow, (rows, cols, k)
            assert echelon(M, F) == slow
            # stopping at the first dependent column finds the same kernel
            early = _echelon_py(M, F, True)
            assert _echelon_np(M, F, True) == early
            assert early[2] == slow[2] == kernel_vector(M, F)
            r, pivot_rows, kernel = slow
            assert r == len(pivot_rows) and r <= max(k, 1)
            if kernel is not None:
                assert any(kernel)
                assert all(sum(a * b for a, b in zip(row, kernel)) % p == 0 for row in M)


def _is_kernel_vector(M, field, v):
    p = field.p
    return any(v) and all(
        sum(field.normalize(a) * c for a, c in zip(row, v)) % p == 0 for row in M
    )


def test_numpy_loop_normalizes_fraction_entries():
    # (i + j) / 2 has the rank of i + j over F_101: 2.  Cast straight to
    # int64, the Fractions were truncated, and the loop found rank 3.
    M = [[fractions.Fraction(i + j, 2) for j in range(8)] for i in range(8)]
    assert len(M) * len(M[0]) >= _NP_MIN_ENTRIES
    assert echelon(M, F101) == _echelon_np(M, F101, False) == _echelon_py(M, F101, False)
    r, pivot_rows, kernel = echelon(M, F101)
    assert (r, pivot_rows) == (2, [0, 1])
    # column 2 = 2 * column 1 - column 0
    assert kernel == [1, 99, 1, 0, 0, 0, 0, 0] == kernel_vector(M, F101)
    assert _is_kernel_vector(M, F101, kernel)


@pytest.mark.parametrize("p", [101, (1 << 31) - 1])
def test_numpy_loop_reduces_big_integer_entries(p):
    # 2^70 + i*j is c + i*j mod p with c != 0: rank 2.  Cast straight to
    # int64, the entries past 2^63 raised OverflowError.
    F = FieldSpec("prime", p)
    M = [[(1 << 70) + i * j for j in range(8)] for i in range(8)]
    assert echelon(M, F) == _echelon_np(M, F, False) == _echelon_py(M, F, False)
    r, pivot_rows, kernel = echelon(M, F)
    assert (r, pivot_rows) == (2, [0, 1])
    assert kernel == kernel_vector(M, F) and _is_kernel_vector(M, F, kernel)


def _to_sympy(f, xs):
    import sympy

    total = sympy.Integer(0)
    for exps, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if f.field.kind == "rational" else c
        for x, e in zip(xs, exps):
            term *= x ** e
        total += term
    return total


def _same_poly(ours, theirs, xs):
    import sympy

    field = ours.field
    want = {}
    for exps, c in sympy.Poly(theirs, *xs).as_dict().items():
        c = sympy.Rational(c)
        v = field.normalize(fractions.Fraction(int(c.p), int(c.q)))
        if not field.is_zero(v):
            want[tuple(exps)] = v
    return ours.terms == want


@pytest.mark.parametrize("field", [Q, F101], ids=["Q", "F101"])
def test_bareiss_det_and_resultant_agree_with_sympy(field):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1 x2")
    rng = random.Random(41)
    for size in (1, 2, 3):
        for _ in range(6):
            M = [[rand_poly(rng, field, 2, 2, 2) for _ in range(size)] for _ in range(size)]
            if size > 1 and rng.random() < 0.3:
                M[-1] = list(M[0])  # singular: det 0
            ours = poly_matrix_det(M)
            theirs = sympy.Matrix([[_to_sympy(f, xs) for f in row] for row in M]).det()
            assert _same_poly(ours, sympy.expand(theirs), xs)
    # the reference is the determinant of sympy's Sylvester matrix: sympy's
    # resultant() answers Res(g, f) = -Res(f, g) for some odd-degree pairs
    from sympy.polys.subresultants_qq_zz import sylvester

    checked = 0
    for _ in range(12):
        f = rand_poly(rng, field, 2, 3, 3)
        g = rand_poly(rng, field, 2, 3, 3)
        if f.degree_in(0) == 0 or g.degree_in(0) == 0:
            continue
        theirs = sylvester(_to_sympy(f, xs), _to_sympy(g, xs), xs[0]).det()
        assert _same_poly(resultant(f, g, 0), sympy.expand(theirs), xs)
        checked += 1
    assert checked >= 5
