"""Exact linear algebra: scalar matrices over a field, Bareiss on polynomial
matrices.

Scalar matrices go through one echelon routine with two loops on integers: a
numpy int64 loop for prime moduli below 2^31 on matrices of at least
_NP_MIN_ENTRIES entries, and a pure-Python loop for everything else (small
matrices, big primes, rationals).  Over F_p both loops work on residues and
scale the pivot row to 1.  Over Q the Python loop clears the matrix of its
denominators and runs Bareiss's fraction-free elimination (Math. Comp. 1968):
every update divides exactly by the previous pivot, so no Fraction is built
until the kernel vector.  Every loop pivots on the first nonzero entry of
each column.  The rows below a pivot are then nonzero multiples of those of
elimination in the field, entry for entry, so the zero pattern, the rank,
the pivot rows and the kernel vector are the same whatever the loop.

reduced_echelon is the one other scalar elimination: Gauss-Jordan to the
canonical basis of a row space, which the Vandermonde candidate screens use
as the key of an affine image."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .polynomials import SparsePoly, _prepare_point, bareiss

_NP_LIMIT = 1 << 31
# Below this many entries the per-column numpy overhead outweighs the
# vectorized row updates.  Measured on random dense matrices, mod 101 and
# mod 2^31 - 1: pure Python wins up to 8x8 (6x6: 42 vs 68 us mod 101), numpy
# from about 64 entries on (10x10: 120 vs 136 us; 60x60: 1.5 vs 17 ms).
_NP_MIN_ENTRIES = 64


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
    return _echelon_loop(matrix, field)(matrix, field, False)


def rank(matrix, field) -> int:
    """Rank of a list-of-rows matrix of raw field elements."""
    return echelon(matrix, field)[0]


def kernel_vector(matrix, field):
    """First right-kernel vector of the matrix, or None (see echelon).
    Elimination stops at the first dependent column."""
    if not matrix or not matrix[0]:
        return None
    return _echelon_loop(matrix, field)(matrix, field, True)[2]


def _echelon_loop(matrix, field):
    if field.kind == "prime" and field.p < _NP_LIMIT:
        if len(matrix) * len(matrix[0]) >= _NP_MIN_ENTRIES:
            return _echelon_np
    return _echelon_py


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


def _first_dependent(pivot_cols, cols):
    """The first column without a pivot, or None; every column left of it
    is a pivot column, so pivot k sits in column k there."""
    j = 0
    while j < len(pivot_cols) and pivot_cols[j] == j:
        j += 1
    return j if j < cols else None


# The two loops below share their contract: (rank, pivot_rows, kernel) as in
# echelon.  With until_kernel they stop at the first dependent column, so the
# kernel is the same and rank and pivot_rows cover the columns left of it.


def _echelon_np(matrix, field, until_kernel):
    p = field.p
    A = np.array(matrix)
    if A.dtype == np.int64:
        A %= p
    else:
        # Fractions, bools or ints past int64: numpy would truncate or
        # round them, so reduce them entry by entry as the Python loop does
        A = np.array(_integer_rows(matrix, field), dtype=np.int64)
    rows, cols = A.shape
    idx = list(range(rows))
    pivot_cols = []
    r = 0
    for j in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, j])[0]
        if nz.size == 0:
            if until_kernel:
                break
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
            idx[r], idx[i] = idx[i], idx[r]
        inv = pow(int(A[r, j]), -1, p)
        A[r] = A[r] * inv % p
        below = A[r + 1 :, j]
        mask = below != 0
        if mask.any():
            A[r + 1 :][mask] = (A[r + 1 :][mask] - np.outer(below[mask], A[r])) % p
        pivot_cols.append(j)
        r += 1
    kernel = None
    j = _first_dependent(pivot_cols, cols)
    if j is not None:
        # back-substitute over the echelon rows left of column j.  Python
        # ints here: an int64 dot product would overflow near p^2.
        kernel = [0] * cols
        kernel[j] = 1
        for k in range(j - 1, -1, -1):
            rowk = A[k]
            s = 0
            for c in range(k + 1, j + 1):
                x = int(rowk[c])
                if x and kernel[c]:
                    s += x * kernel[c]
            kernel[k] = (-s) % p
    return r, sorted(idx[:r]), kernel


def _echelon_py(matrix, field, until_kernel):
    p = field.p if field.kind == "prime" else 0
    A = _integer_rows(matrix, field)
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
    kernel = None
    j = _first_dependent(pivot_cols, cols)
    if j is not None:
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
    here.  Gauss-Jordan on integers, for the small matrices whose
    canonical form is the point (echelon gives ranks and kernels); over Q
    every update divides the row by its content, so no Fraction is built."""
    p = field.p if field.kind == "prime" else 0
    A = _integer_rows(matrix, field)
    rows, cols = len(A), len(A[0]) if A else 0
    r = 0
    for j in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if A[i][j]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        top = A[r]
        if p:
            inv = pow(top[j], -1, p)
            top = A[r] = [a * inv % p for a in top]
        d = top[j]  # over Q: rows are scaled by d, not divided by it
        for i in range(rows):
            x = A[i][j]
            if x and i != r:
                if p:
                    A[i] = [(a - x * b) % p for a, b in zip(A[i], top)]
                else:
                    row = [d * a - x * b for a, b in zip(A[i], top)]
                    g = math.gcd(*row)
                    A[i] = [a // g for a in row] if g > 1 else row
        r += 1
    if not p:
        for i in range(r):
            row = A[i]
            g = math.gcd(*row)
            if next(a for a in row if a) < 0:
                g = -g
            A[i] = [a // g for a in row]
    return r, tuple(map(tuple, A[:r]))


# -- polynomial matrices -------------------------------------------------------


def poly_matrix_rank(M):
    """(rank, pivot_rows, pivot_cols) of a SparsePoly matrix.

    Fraction-free Bareiss elimination (polynomials.bareiss); at each step the
    pivot is the lowest-degree nonzero entry in the current column.
    pivot_rows holds original row indices, so the listed submatrix has a
    nonzero minor.
    """
    if not M or not M[0]:
        return 0, [], []
    return bareiss(M)[:3]


def poly_matrix_det(M) -> SparsePoly:
    """Determinant of a square SparsePoly matrix (Bareiss, row pivoting)."""
    return bareiss(M)[3]


def eval_matrix(M, point):
    """Evaluate a SparsePoly matrix at a point; returns raw rows."""
    if not M or not M[0]:
        return [list(row) for row in M]
    first = M[0][0]
    if len(point) != first.nvars:
        raise ValueError("point arity != nvars")
    x = _prepare_point(first.field, point)
    return [[entry._eval_prepared(x) for entry in row] for row in M]


def matmul(A, B, field):
    """The product of two raw matrices (lists of rows), one integer sum per
    entry: of residues over F_p, and over Q of numerators over the common
    denominator of each matrix, made a Fraction at the end."""
    cols = list(zip(*B))
    if field.kind == "prime":
        p = field.p
        return [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in A]
    (A, da), (cols, db) = _numerators(A), _numerators(cols)
    den = da * db
    return [[Fraction(sum(a * b for a, b in zip(row, col)), den) for col in cols] for row in A]


def _numerators(M):
    """(integer rows, D): the rows of a rational matrix times their common
    denominator D."""
    # a set: lcm gets the distinct denominators (mostly just 1), not one
    # argument per entry, which measurably raised peak memory
    den = math.lcm(*{v.denominator for row in M for v in row})
    return [[v.numerator * (den // v.denominator) for v in row] for row in M], den
