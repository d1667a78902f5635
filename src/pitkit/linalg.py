"""Exact linear algebra: scalar matrices over a field, Bareiss on polynomial
matrices.

Scalar matrices go through one forward elimination on integers, _eliminate.
Over F_p it works on residues and scales each pivot row to 1.  Over Q it
clears the matrix of its denominators and runs Bareiss's fraction-free
elimination (Math. Comp. 1968): every update divides exactly by the previous
pivot, so no Fraction is built until the kernel vector.  It pivots on the
first nonzero entry of each column, so the rows below a pivot are nonzero
multiples of those of elimination in the field, entry for entry: the zero
pattern, the rank, the pivot rows and the kernel vector are those of
textbook elimination.

echelon and kernel_vector back-substitute its rows into the first kernel
vector.  reduced_echelon back-reduces them to the reduced row echelon form,
the canonical basis of a row space that the Vandermonde candidate screens
use as the key of an affine image."""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import SparsePoly, _prepare_point, divide_exact


def echelon(matrix, field):
    """(rank, pivot_rows, kernel) of a list-of-rows matrix of raw elements.

    pivot_rows lists, ascending, the original indices of the rows that carry
    the pivots, so those rows are linearly independent.  kernel is the first
    right-kernel vector or None: columns are scanned left to right, and the
    vector has a 1 in the first column that depends on its predecessors and
    zeros in all later columns, so it is deterministic and minimal in column
    order.  Its entries are raw elements (Fractions over Q).
    """
    if not matrix or not matrix[0]:
        return 0, [], None
    return _echelon(matrix, field, False)


def rank(matrix, field) -> int:
    """Rank of a list-of-rows matrix of raw field elements."""
    return echelon(matrix, field)[0]


def kernel_vector(matrix, field):
    """First right-kernel vector of the matrix, or None (see echelon).
    Elimination stops at the first dependent column."""
    if not matrix or not matrix[0]:
        return None
    return _echelon(matrix, field, True)[2]


def _integer_rows(matrix, field):
    """A matrix of raw elements as integer rows with the same row space:
    the residues in [0, p) over F_p, and over Q the rows times the common
    denominator of the entries."""
    if field.kind == "prime":
        p = field.p
        return [[v % p if type(v) is int else field.normalize(v) for v in row] for row in matrix]
    rows = [[v if type(v) in (Fraction, int) else field.normalize(v) for v in row]
            for row in matrix]
    return _numerators(rows)[0]


def _eliminate(A, p, until_kernel):
    """Forward elimination of the integer rows A in place; p is the modulus,
    0 over Q.  Returns (rank, idx, pivot_cols): A[:rank] are the echelon
    rows, idx[i] the original index of row i, and pivot_cols the pivot
    column of each echelon row.  With until_kernel it stops at the first
    column without a pivot."""
    rows, cols = len(A), len(A[0])
    idx = list(range(rows))
    pivot_cols = []
    prev = 1  # over Q: the previous Bareiss pivot, which divides every update
    r = 0
    for j in range(cols):
        if r == rows:
            break
        piv = None
        for i in range(r, rows):
            if A[i][j]:
                piv = i
                break
        if piv is None:
            if until_kernel:
                break
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            idx[r], idx[piv] = idx[piv], idx[r]
        top = A[r]
        if p:
            inv = pow(top[j], -1, p)
            top = A[r] = [a * inv % p for a in top]
            for i in range(r + 1, rows):
                x = A[i][j]
                if x:
                    A[i] = [(a - x * b) % p for a, b in zip(A[i], top)]
        else:
            # every row below is updated, also those with a zero in column
            # j: that keeps each entry a minor of the matrix, which is what
            # makes the division by the previous pivot exact
            d = top[j]
            for i in range(r + 1, rows):
                x = A[i][j]
                A[i] = [(d * a - x * b) // prev for a, b in zip(A[i], top)]
            prev = d
        pivot_cols.append(j)
        r += 1
    return r, idx, pivot_cols


def _echelon(matrix, field, until_kernel):
    """(rank, pivot_rows, kernel) as in echelon.  With until_kernel the
    kernel is the same, and rank and pivot_rows cover the columns left of
    the first dependent column."""
    p = field.p if field.kind == "prime" else 0
    A = _integer_rows(matrix, field)
    r, idx, pivot_cols = _eliminate(A, p, until_kernel)
    cols = len(A[0])
    # the first column without a pivot; every column left of it is a pivot
    # column, so pivot k sits in column k there
    j = 0
    while j < r and pivot_cols[j] == j:
        j += 1
    kernel = None
    if j < cols:
        # over Q the pivot rows are not scaled to 1: divide by the pivot, in
        # Fractions, so the entries are raw elements of Q
        kernel = [field.zero()] * cols
        kernel[j] = field.one()
        for k in range(j - 1, -1, -1):
            rowk = A[k]
            s = 0
            for c in range(k + 1, j + 1):
                if rowk[c] and kernel[c]:
                    s += rowk[c] * kernel[c]
            kernel[k] = (-s) % p if p else Fraction(-s) / rowk[k]
    return r, sorted(idx[:r]), kernel


def reduced_echelon(matrix, field):
    """(rank, rows): the nonzero rows of the reduced row echelon form of a
    list-of-rows matrix of raw elements, as tuples: residues over F_p, and
    over Q each row scaled to the primitive integer vector with a positive
    pivot.  They are a canonical basis of the row space: two matrices of
    the same width have the same row space iff they have the same rows
    here.  The echelon rows of _eliminate are reduced from the last up:
    each is made canonical, then cleared from the rows above it."""
    if not matrix or not matrix[0]:
        return 0, ()
    p = field.p if field.kind == "prime" else 0
    A = _integer_rows(matrix, field)
    r, _, pivot_cols = _eliminate(A, p, False)
    for k in range(r - 1, -1, -1):
        j = pivot_cols[k]
        top = A[k]
        if not p:  # over F_p the pivot is 1 already
            g = math.gcd(*top)
            if top[j] < 0:
                g = -g
            top = A[k] = [a // g for a in top]
        d = top[j]
        for i in range(k):
            x = A[i][j]
            if x:
                if p:
                    A[i] = [(a - x * b) % p for a, b in zip(A[i], top)]
                else:
                    A[i] = [d * a - x * b for a, b in zip(A[i], top)]
    return r, tuple(map(tuple, A[:r]))


# -- polynomial matrices -------------------------------------------------------


def poly_matrix_rank(M):
    """(rank, pivot_rows, pivot_cols) of a SparsePoly matrix.

    Fraction-free elimination (Bareiss, Math. Comp. 1968): every interior
    division is exact.  At each step the pivot is the lowest-degree nonzero
    entry of the current column.  pivot_rows holds original row indices, so
    the listed submatrix has a nonzero minor.
    """
    if not M or not M[0]:
        return 0, [], []
    field, nvars = M[0][0].field, M[0][0].nvars
    zero = SparsePoly.zero(field, nvars)
    A = [row[:] for row in M]
    idx = list(range(len(A)))
    rows, cols = len(A), len(A[0])
    prev = SparsePoly.one(field, nvars)
    pivot_cols = []
    r = 0
    for j in range(cols):
        if r == rows:
            break
        piv, best = None, None
        for i in range(r, rows):
            if not A[i][j].is_zero:
                d = A[i][j].degree()
                if best is None or d < best:
                    piv, best = i, d
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            idx[r], idx[piv] = idx[piv], idx[r]
        for i in range(r + 1, rows):
            for c in range(j + 1, cols):
                A[i][c] = divide_exact(A[r][j] * A[i][c] - A[i][j] * A[r][c], prev)
            A[i][j] = zero
        prev = A[r][j]
        pivot_cols.append(j)
        r += 1
    return r, idx[:r], pivot_cols


def eval_matrix(M, point):
    """Evaluate a SparsePoly matrix at a point; returns raw rows."""
    if not M or not M[0]:
        return [list(row) for row in M]
    first = M[0][0]
    if len(point) != first.nvars:
        raise ValueError("point arity != nvars")
    x = _prepare_point(first.field, point)
    return [[entry._eval_prepared(x) for entry in row] for row in M]


def _numerators(M):
    """(integer rows, D): the rows of a rational matrix times their common
    denominator D."""
    # a set: lcm gets the distinct denominators (mostly just 1), not one
    # argument per entry, which measurably raised peak memory
    den = math.lcm(*{v.denominator for row in M for v in row})
    return [[v.numerator * (den // v.denominator) for v in row] for row in M], den
