"""Exact linear algebra: one forward elimination, _eliminate, for scalar
matrices over a field and for polynomial matrices.

A scalar matrix is only ever given as integer rows A, eliminated in place,
with the modulus p = field.characteristic: residues in [0, p) over F_p, and
over Q integers, such as numerators over one denominator (FieldSpec.integers),
which have the same row space.  Over F_p _eliminate scales each pivot row
to 1.  Over Q it runs Bareiss's fraction-free elimination (Math. Comp.
1968): after the first step every update divides exactly by the previous
pivot, so no Fraction is built until the kernel vector.  The same Bareiss
steps run on SparsePoly matrices over F[x] (poly_matrix_rank), where the
exact division is divide_exact.  Scalar elimination pivots on the first
nonzero entry of each column, so the rows below a pivot are nonzero
multiples of those of elimination in the field, entry for entry: the zero
pattern, the rank, the pivot rows and the kernel vector are those of
textbook elimination, and scaling a row by a nonzero constant changes none.

rank reads the rank and the pivot rows; kernel_vector back-substitutes the
echelon rows into the first kernel vector; reduced_echelon back-reduces
them to the canonical basis of a row space that the Vandermonde candidate
screens use as the key of an affine image."""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import SparsePoly


def rank(A, p):
    """(rank, pivot_rows) of the integer rows A with the modulus p.

    pivot_rows lists, ascending, the original indices of the rows that carry
    the pivots, so those rows are linearly independent.
    """
    if not A or not A[0]:
        return 0, []
    r, idx, _ = _eliminate(A, p, False)
    return r, sorted(idx[:r])


def kernel_vector(A, p, field):
    """The first right-kernel vector of the integer rows A with the modulus
    p = field.characteristic, or None.  Columns are scanned left to right,
    and the vector has a 1 in the first column that depends on its
    predecessors and zeros in all later columns, so it is deterministic and
    minimal in column order.  Its entries are raw elements of field
    (Fractions over Q).

    Elimination stops at the first dependent column j, so pivot k sits in
    column k for every k < j, and j is the rank."""
    if not A or not A[0]:
        return None
    j = _eliminate(A, p, True)[0]
    cols = len(A[0])
    if j == cols:
        return None
    # over Q the pivot rows are not scaled to 1: divide by the pivot, in
    # Fractions, so the entries are raw elements of Q
    kernel = [field.zero()] * cols
    kernel[j] = field.one()
    for k in range(j - 1, -1, -1):
        rowk = A[k]
        s = sum(rowk[c] * kernel[c] for c in range(k + 1, j + 1) if rowk[c] and kernel[c])
        kernel[k] = (-s) % p if p else Fraction(-s) / rowk[k]
    return kernel


def _eliminate(A, p, until_kernel, size=None):
    """Forward elimination of the rows A in place: integers, or with p = 0
    SparsePolys.  p is the modulus of integer residues, 0 for Bareiss over Z
    or F[x].  Returns (rank, idx, pivot_cols): A[:rank] are the echelon
    rows, idx[i] the original index of row i, and pivot_cols the pivot
    column of each echelon row.  The pivot is the first nonzero entry of
    its column, or with a size key the first of least size.  With
    until_kernel it stops at the first column without a pivot."""
    rows, cols = len(A), len(A[0])
    zero = A[0][0] - A[0][0]  # of the entries' ring
    idx = list(range(rows))
    pivot_cols = []
    prev = None  # Bareiss: the previous pivot, which divides every update
    r = 0
    for j in range(cols):
        if r == rows:
            break
        nonzero = (i for i in range(r, rows) if A[i][j])
        if size is None:
            piv = next(nonzero, None)
        else:
            piv = min(nonzero, key=lambda i: size(A[i][j]), default=None)
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
            d, right = top[j], top[j + 1:]
            for i in range(r + 1, rows):
                row = A[i]
                x = row[j]
                if prev is None:
                    row[j + 1:] = [d * a - x * b for a, b in zip(row[j + 1:], right)]
                elif x:
                    row[j + 1:] = [(d * a - x * b) // prev for a, b in zip(row[j + 1:], right)]
                else:
                    row[j + 1:] = [d * a // prev for a in row[j + 1:]]
                row[j] = zero
            prev = d
        pivot_cols.append(j)
        r += 1
    return r, idx, pivot_cols


def reduced_echelon(A, p):
    """(rank, rows): the nonzero rows of the reduced row echelon form of the
    integer rows A with the modulus p, as tuples: residues over F_p, and
    over Q each row scaled to the primitive integer vector with a positive
    pivot.  They are a canonical basis of the row space: two matrices of
    the same width have the same row space iff they have the same rows
    here.  The echelon rows of _eliminate are reduced from the last up:
    each is made canonical, then cleared from the rows above it."""
    if not A or not A[0]:
        return 0, ()
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
    """(rank, pivot_rows, pivot_cols) of a SparsePoly matrix, by _eliminate's
    Bareiss steps over F[x].  At each step the pivot is the nonzero entry of
    least degree in the current column, the first on ties.  pivot_rows holds
    original row indices in pivot order, so the listed submatrix has a
    nonzero minor.
    """
    if not M or not M[0]:
        return 0, [], []
    r, idx, pivot_cols = _eliminate([row[:] for row in M], 0, False, SparsePoly.degree)
    return r, idx[:r], pivot_cols


def eval_matrix(M, x):
    """The SparsePoly matrix M at the point x = (a, q) in the integer form
    of FieldSpec.integers, in that form: (rows, den), entry (i, j) being
    rows[i][j] / den, residues and den = 1 over F_p."""
    if not M or not M[0]:
        return [[] for _ in M], 1
    first = M[0][0]
    if len(x[0]) != first.nvars:
        raise ValueError("point arity != nvars")
    cols = len(M[0])
    flat, den = first.field.over_one_denominator([f._eval_integers(x) for row in M for f in row])
    return [flat[i:i + cols] for i in range(0, len(flat), cols)], den
