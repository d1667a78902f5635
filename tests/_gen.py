"""Seeded instance builders shared by the unit and acceptance suites.

Every builder is deterministic in its seed.  Ground truth for the
constructed zero instances is always the expand oracle, never the hitting
sets under test.
"""

import itertools
import random

from pitkit.circuits import Circuit, ComposedCircuit, Depth4Circuit
from pitkit.depth4 import lift_identity
from pitkit.fields import FieldSpec
from pitkit.linalg import FormMatrix
from pitkit.polynomials import SparsePoly, poly_from_text

RATIONAL = FieldSpec("rational")
BIG_PRIME = (1 << 61) - 1
BIG_FIELD = FieldSpec("prime", BIG_PRIME)
AGREE_FIELD = FieldSpec("prime", 1000003)


def rand_poly(rng, field, nvars, max_deg, max_terms, coeff_bound=3):
    """Random nonzero sparse polynomial with total degree <= max_deg."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        key = tuple(exps)
        cur = terms.get(key, field.zero())
        terms[key] = field.add(cur, field.from_int(c))
    terms = {e: c for e, c in terms.items() if not field.is_zero(c)}
    if not terms:
        # accumulation cancelled everything; rare, just redraw
        return rand_poly(rng, field, nvars, max_deg, max_terms, coeff_bound)
    return SparsePoly(field, nvars, terms)


def form_poly(form, field, nvars):
    """The SparsePoly of an integer form (D, terms, d) of
    SparsePoly._compile, such as an entry of independence.jacobian: the sum
    of N x^mon / D over its terms."""
    D, terms, _ = form
    out = {}
    for N, mon, _ in terms:
        exps = [0] * nvars
        for v, e in mon:
            exps[v] = e
        out[tuple(exps)] = field.from_integers([N], D)[0]
    return SparsePoly(field, nvars, out)


def form_matrix(M):
    """A nonempty matrix of SparsePolys as the linalg.FormMatrix that
    poly_matrix_rank and eval_matrix take: each entry in its integer form
    (SparsePoly._compile)."""
    first = M[0][0]
    return FormMatrix(first.field, first.nvars,
                      [[f._compiled or f._compile() for f in row] for row in M])


def int_rows(matrix, field):
    """(A, p): a list-of-rows matrix of raw elements (or ints) as the
    integer rows that linalg takes, all over one denominator
    (FieldSpec.integers), and the modulus p = field.characteristic.  The
    rows are fresh lists, so linalg may eliminate them in place."""
    if not matrix:
        return [], field.characteristic
    cols = len(matrix[0])
    flat = field.integers([v for row in matrix for v in row])[0]
    return [flat[i:i + cols] for i in range(0, len(flat), cols)], field.characteristic


def int_columns(matrix, field):
    """(columns, p): the columns of int_rows(matrix, field) as
    linalg.kernel_vector takes them, one dict {row index: integer} of the
    nonzero entries per column, and the modulus p."""
    A, p = int_rows(matrix, field)
    cols = len(matrix[0]) if matrix else 0
    return [{i: row[j] for i, row in enumerate(A) if row[j]} for j in range(cols)], p


def substitute_reference(f, images):
    """f(images) from SparsePoly +, * and ** alone: the sum over the terms
    of f of c * prod g_i ** e_i, one term at a time."""
    field, m = images[0].field, images[0].nvars
    out = SparsePoly.zero(field, m)
    for exps, c in f.terms.items():
        term = SparsePoly.constant(field, m, c)
        for g, e in zip(images, exps):
            term = term * g ** e
        out = out + term
    return out


def lattice(values, w, d=None):
    """The points of values^w whose indices sum to at most d, lazily, in
    lexicographic order (a subsequence of itertools.product); with d=None,
    the whole product: the reference point by point for the hitting sets'
    walk by runs (hitting._runs), which states the lemma that makes the
    simplex a hitting set."""
    if d is None:
        yield from itertools.product(values, repeat=w)
        return
    idx = [0] * w
    total = 0
    while True:
        yield tuple(map(values.__getitem__, idx))
        # the next index vector: bump the last coordinate that can grow
        # once the coordinates after it are reset to 0
        k = w - 1
        while k >= 0 and total >= d:
            total -= idx[k]
            idx[k] = 0
            k -= 1
        if k < 0:
            return
        idx[k] += 1
        total += 1


def map_images(mp):
    """The image of each x_i under the affine map mp, in z_0..z_(w-1), from
    its integer columns alone: x_i = (b_i + sum_t M[i][t] z_t) / L."""
    field, w = mp.field, mp.nvars_out
    const, cols, L = mp._integer_columns()
    inv = field.inv(field.from_int(L))
    images = []
    for i, b in enumerate(const):
        img = SparsePoly.constant(field, w, b)
        for t, col in enumerate(cols):
            img = img + SparsePoly.variable(field, w, t).scale(col[i])
        images.append(img.scale(inv))
    return images


def rand_family(seed):
    """Family for the jacobian-vs-bruteforce agreement corpus.

    The field stays far above delta^r, so the Jacobian rank is exact; m is
    capped when n and delta are both large to keep the bruteforce subsets
    affordable.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    delta = rng.randint(1, 3)
    m = rng.randint(1, 4)
    if delta >= 3 and n >= 3:
        m = min(m, 3)
    return [rand_poly(rng, AGREE_FIELD, n, delta, 3) for _ in range(m)]


def rand_composed(seed, field=BIG_FIELD):
    """Random composed circuit C(f_1, ..., f_m), small enough to expand."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    m = rng.randint(2, 3)
    inners = [rand_poly(rng, field, n, 2, 3) for _ in range(m)]
    outer = rand_poly(rng, field, m, 2, 4)
    return ComposedCircuit(Circuit.from_poly(outer), inners)


# outer texts are annihilators of the matching dependent inner tuples
_ZERO_OUTERS = ("x2 - x1^2", "x3 - x1*x2", "x3 - x1 - x2")


def zero_composed(seed, field=BIG_FIELD):
    """Identically-zero composition: annihilator outer on dependent inners."""
    rng = random.Random(seed)
    kind = seed % 3
    n = rng.randint(2, 3)
    f = rand_poly(rng, field, n, 2, 3)
    g = rand_poly(rng, field, n, 2, 3)
    if kind == 0:
        inners = [f, f * f]
    elif kind == 1:
        inners = [f, g, f * g]
    else:
        inners = [f, g, f + g]
    outer = poly_from_text(_ZERO_OUTERS[kind], field, len(inners))
    return ComposedCircuit(Circuit.from_poly(outer), inners)


def rand_depth4(seed, field=BIG_FIELD, k=2, s=3, n=4, delta=2):
    rng = random.Random(seed)
    rows = [
        [rand_poly(rng, field, n, delta, 3) for _ in range(s)] for _ in range(k)
    ]
    return Depth4Circuit(field, n, delta, rows)


def cancelling_depth4(seed, field=BIG_FIELD):
    """T1 - T1: two identical multiplication terms with opposite signs."""
    rng = random.Random(seed)
    row = [rand_poly(rng, field, 4, 2, 3) for _ in range(3)]
    neg = [row[0].scale(field.from_int(-1))] + list(row[1:])
    return Depth4Circuit(field, 4, 2, [row, neg])


def hint_family(field):
    """Four sparse quartics in four variables with transcendence degree 3."""
    fs = []
    for i in range(1, 5):
        head = poly_from_text("x1^%d + x2^2 + x3^2 + x4^2" % i, field, 4)
        tail = poly_from_text("x4^%d" % i, field, 4)
        fs.append(head * tail)
    return fs


_DEPTH3_ROWS = (("x1",), ("x2",), ("-x1 - x2",))


def depth3_identity(field=BIG_FIELD):
    """x1 + x2 - (x1 + x2) == 0; simple, minimal, delta = 1, k = 3."""
    rows = [[poly_from_text(t, field, 2) for t in row] for row in _DEPTH3_ROWS]
    return Depth4Circuit(field, 2, 1, rows)


def lifted_identity(delta_target=2, field=BIG_FIELD):
    return lift_identity(depth3_identity(field), delta_target)


def gcd_depth4(seed, field=BIG_FIELD, k=2):
    """Depth-4 instance whose rows share a designed nonconstant factor."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    g = rand_poly(rng, field, n, rng.randint(1, 2), 2)
    while g.is_constant:
        g = rand_poly(rng, field, n, 2, 2)
    rows = [
        [g] + [rand_poly(rng, field, n, 2, 2) for _ in range(2)]
        for _ in range(k)
    ]
    delta = max(f.degree() for row in rows for f in row)
    return Depth4Circuit(field, n, delta, rows)


def _triangular_inners(rng, field, n):
    """Inner families of trdeg exactly n, provable by construction.

    n = 1: a single degree-1 univariate.  n = 2: (x1 + a, x2 + h(x1)), a
    triangular pair whose Jacobian determinant is 1 in any characteristic.
    """
    if n == 1:
        terms = {(1,): field.one()}
        if rng.randint(0, 1):
            terms[(0,)] = field.one()
        return [SparsePoly(field, 1, terms)]
    f = {(1, 0): field.one()}
    if rng.randint(0, 1):
        f[(0, 0)] = field.one()
    g = {(0, 1): field.one()}
    if rng.randint(0, 1):
        g[(1, 0)] = field.from_int(rng.randint(1, field.p - 1))
    if rng.randint(0, 1):
        g[(0, 0)] = field.one()
    return [SparsePoly(field, 2, f), SparsePoly(field, 2, g)]


def smallchar_instance(seed):
    """Composed instance over F_2 or F_3 whose verdict is decidable on the
    base-field grid.

    Zero instances compose an annihilator outer with a dependent extension
    of a full-trdeg triangular family.  Nonzero instances are screened with
    the expand oracle to take a nonzero value somewhere on F_q^n; the
    screen never touches the hitting-set machinery being tested.
    """
    rng = random.Random(seed)
    field = FieldSpec("prime", 2 if seed % 2 == 0 else 3)
    q = field.p
    n = rng.randint(1, 2)
    base = _triangular_inners(rng, field, n)
    make_zero = seed % 5 < 2
    if make_zero:
        if n == 1:
            inners = [base[0], base[0] * base[0]]
            outer = poly_from_text("x2 - x1^2", field, 2)
        elif rng.randint(0, 1):
            inners = base + [base[0] * base[1]]
            outer = poly_from_text("x3 - x1*x2", field, 3)
        else:
            inners = base + [base[0] + base[1]]
            outer = poly_from_text("x3 - x1 - x2", field, 3)
        return ComposedCircuit(Circuit.from_poly(outer), inners), True
    inners = list(base)
    if n == 1 and rng.randint(0, 1):
        inners.append(base[0] * base[0])
    m = len(inners)
    points = _full_grid(field, n)
    for _ in range(200):
        outer = rand_poly(rng, field, m, 2, 3, coeff_bound=q - 1)
        comp = ComposedCircuit(Circuit.from_poly(outer), inners)
        poly = comp.expand(10000)
        if any(not field.is_zero(poly.eval(pt)) for pt in points):
            return comp, False
    raise AssertionError("no function-nonzero outer found for seed %d" % seed)


def _full_grid(field, n):
    points = [()]
    for _ in range(n):
        points = [
            pt + (field.from_int(v),) for pt in points for v in range(field.p)
        ]
    return points


def rand_sparse_univariate(rng):
    """Nonzero integer univariate, at most 8 terms, degree in [2, 512]."""
    ell = rng.randint(1, 8)
    d = rng.randint(2, 512)
    exps = rng.sample(range(d + 1), min(ell, d + 1))
    if d not in exps:
        exps[0] = d
    terms = {}
    for e in exps:
        c = 0
        while c == 0:
            c = rng.randint(-9, 9)
        terms[(e,)] = RATIONAL.from_int(c)
    return SparsePoly(RATIONAL, 1, terms)
