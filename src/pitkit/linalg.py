"""Exact linear algebra: one forward elimination, _eliminate, for scalar
and polynomial matrices, and kernel_vector on a stream of sparse columns.

A scalar matrix is only ever given as integer rows A, eliminated in place,
with the modulus p = field.characteristic: residues in [0, p) over F_p, and
over Q integers, such as numerators over one denominator (FieldSpec.integers),
which have the same row space.  Over F_p _eliminate scales each pivot row
to 1.  Over Q it runs Bareiss's fraction-free elimination (Math. Comp.
1968): after the first step every update divides exactly by the previous
pivot, so no Fraction is built.  The same Bareiss steps give the rank of a
polynomial matrix over F[x] (poly_matrix_rank), whose entries are integer
polynomials on packed monomials (polynomials.PackedRing), each row over one
denominator, with the exact division of PackedRing.quotient, the heap
division that divide_exact runs too.  A
polynomial matrix is a FormMatrix, its entries in the integer form of
SparsePoly._compile (the Jacobian, independence.jacobian), and eval_matrix
evaluates it through polynomials.eval_form.  Scalar elimination pivots on
the first nonzero entry of each column, so the rows below a pivot are
nonzero multiples of those of elimination in the field, entry for entry:
the zero pattern, the rank and the pivot rows are those of textbook
elimination, and scaling a row by a nonzero constant changes none.

rank reads the rank and the pivot rows.  kernel_vector reads a matrix
column by column and stops at the first column that depends on those
before it, whose combination of them is the kernel vector: no back
substitution, and no later column is built."""

from __future__ import annotations

import math

from .fields import FieldSpec
from .polynomials import PackedPoly, PackedRing, eval_form


def rank(A, p):
    """(rank, pivot_rows) of the integer rows A with the modulus p.

    pivot_rows lists, ascending, the original indices of the rows that carry
    the pivots, so those rows are linearly independent.
    """
    if not A or not A[0]:
        return 0, []
    r, idx, _ = _eliminate(A, p)
    return r, sorted(idx[:r])


def kernel_vector(columns, p, field):
    """The first kernel vector of a stream of integer columns with the
    modulus p = field.characteristic, or None.  Each column is a dict {row
    key: integer} of its nonzero entries (residues over F_p), the keys
    mutually ordered.  The vector has a 1 at the first column j that
    depends on the columns before it and support in columns 0..j, so it is
    unique; it is returned as its entries 0..j, raw elements of field
    (Fractions over Q).  No column after j is read.

    A column is reduced against the independent columns before it and
    carries its combination of the columns.  Each independent column is the
    pivot of its largest key: while the largest key of a column is a pivot,
    the column is cross-multiplied with that pivot's column to cancel it,
    and over Q divided, with its combination, by their common content.  A
    column whose largest key is no pivot is independent; one that reduces
    to zero is dependent, and its combination is the kernel vector."""
    pivots = {}  # pivot key -> (its reduced column, the combination)
    for j, col in enumerate(columns):
        vec, comb = col, {j: 1}
        while vec and (key := max(vec)) in pivots:
            top, top_comb = pivots[key]
            g = math.gcd(vec[key], top[key])
            s, t = top[key] // g, -vec[key] // g
            vec, comb = _combine(s, vec, t, top, p), _combine(s, comb, t, top_comb, p)
            if not p:
                g = math.gcd(*vec.values(), *comb.values())
                vec, comb = ({k: c // g for k, c in d.items()} for d in (vec, comb))
        if not vec:
            return field.from_integers([comb.get(i, 0) for i in range(j + 1)], comb[j])
        pivots[key] = vec, comb
    return None


def _combine(s, x, t, y, p):
    """s x + t y of the sparse vectors x and y, mod p when p, without zero
    entries."""
    out = {k: s * c for k, c in x.items()}
    for k, c in y.items():
        out[k] = out.get(k, 0) + t * c
    if p:
        return {k: c % p for k, c in out.items() if c % p}
    return {k: c for k, c in out.items() if c}


def _eliminate(A, p, size=None):
    """Forward elimination of the rows A in place: integers, or with p = 0
    PackedPolys (poly_matrix_rank).  p is the modulus of integer residues, 0
    for Bareiss over Z or over F[x] on packed integer polynomials.  Returns
    (rank, idx, pivot_cols): A[:rank] are the echelon rows, idx[i] the
    original index of row i, and pivot_cols the pivot column of each
    echelon row.  The pivot is the first nonzero entry of its column, or
    with a size key the first of least size."""
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


# -- polynomial matrices -------------------------------------------------------


class FormMatrix:
    """A matrix of polynomials over field in nvars variables, each entry in
    the integer form (D, terms, d) of SparsePoly._compile (a Jacobian,
    independence.jacobian).  It reads as its list of rows."""

    __slots__ = ("field", "nvars", "rows")

    def __init__(self, field, nvars: int, rows):
        self.field, self.nvars, self.rows = field, nvars, rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def columns(self, cols):
        """The submatrix of the columns cols, in that order."""
        return FormMatrix(self.field, self.nvars, [[row[j] for j in cols] for row in self.rows])


def poly_matrix_rank(M, limit: int):
    """(rank, pivot_rows, pivot_cols) of the FormMatrix M over F[x], by
    _eliminate's Bareiss steps on packed integer polynomials (PackedRing).
    At each step the pivot is the nonzero entry of least degree in the
    current column, the first on ties.  pivot_rows holds original row
    indices in pivot order, so the listed submatrix has a nonzero minor.
    Past limit term products (PackedRing.work) raises BudgetExceeded.

    Each row is cleared of its common denominator over Q (residues over
    F_p): scaling a row by a nonzero constant scales every minor through
    it by that constant, which keeps the zero pattern and the degree of
    every Bareiss entry, so the pivots and the rank.  An entry at step t
    is a minor of order t + 1, of degree at most t + 1 times the largest
    degree d in M; a step multiplies two of them, and only steps with
    t + 1 < min(rows, cols) update anything, which sets the packing width.
    """
    if not M or not M[0]:
        return 0, [], []
    rows, cols = len(M.rows), len(M.rows[0])
    d = max(f[2] for row in M.rows for f in row)
    bits = (max(1, 2 * (min(rows, cols) - 1)) * d).bit_length()
    p = M.field.characteristic
    ring = PackedRing(p, M.nvars, bits, limit)
    A = []
    for row in M.rows:
        den = 1 if p else FieldSpec.common_denominator(D for D, _, _ in row)
        A.append([ring.pack(terms, den // D) for D, terms, _ in row])
    r, idx, pivot_cols = _eliminate(A, 0, PackedPoly.degree)
    return r, idx[:r], pivot_cols


def eval_matrix(M, x):
    """The FormMatrix M at the point x = (a, q) in the integer form of
    FieldSpec.integers, in that form: (rows, den), entry (i, j) being
    rows[i][j] / den, residues and den = 1 over F_p.  Each entry is
    evaluated on x as a block of one point (eval_form)."""
    if not M or not M[0]:
        return [[] for _ in M], 1
    a, q = x
    if len(a) != M.nvars:
        raise ValueError("point arity != nvars")
    block = [[v] for v in a], q
    p = M.field.p
    cols = len(M.rows[0])
    values = (eval_form(f, block, p) for row in M.rows for f in row)
    flat, den = M.field.over_one_denominator([(nums[0], D) for nums, D in values])
    return [flat[i:i + cols] for i in range(0, len(flat), cols)], den
