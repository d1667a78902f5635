"""The hitting-set walk on blocks of points in the integer form.

A HittingSet holds one stream of blocks (cols, den) of coordinate columns,
of 1, 16 and then MAX_BLOCK = 256 points (hitting.BLOCK_GROWTH), none
holding the images of two maps, and every circuit kind has one evaluation
on a block, which returns a column of values
(circuits.Blackbox._evaluate_integers); hitting.pit walks the blocks
through it and converts only the witness and its value.  The blocks are
built by runs of the simplex's last coordinate (hitting._runs): a map's
images along a run are one affine progression per coordinate.  The tests
compare each piece with a reference on raw elements, point by point: the
values with a forward pass in field arithmetic, the walk by runs with
AffineMap._integer_image of each point of the lattice (_gen.lattice),
points() and the block sizes with the lattice and the map images
recomputed from their definitions, and pit's verdict with a walk of evaluate over
points(), with max_points at every block boundary and around the set's
size.  A circuit nonzero at its first point is evaluated at that point
alone, and a walk cut short builds no run past the block it fills.  A
guard counts the conversions inside pit_circuit: they must not grow with
the number of points walked, and the evaluated-Jacobian certificate of a
map must reach elimination without converting an entry back to raw
elements.
"""
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from _gen import lattice, map_images
from pitkit import hitting, varmaps
from pitkit.circuits import Circuit, ComposedCircuit, Depth4Circuit
from pitkit.fields import FieldSpec, block_size
from pitkit.hitting import (
    MAX_BLOCK,
    _adaptive_set,
    _lattice_blocks,
    _identity_set,
    _image_set,
    hitting_set_arbitrary_char,
    hitting_set_depth4,
    hitting_set_sparse_inputs,
    pit_circuit,
    sz_grid,
)
from pitkit.independence import evaluated_rank, jacobian
from pitkit.polynomials import REDUCE_EVERY, BudgetExceeded, SparsePoly, poly_from_text
from pitkit.varmaps import (
    KroneckerMap,
    MergingMap,
    SearchExhausted,
    VandermondeMap,
    schedule,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

Q = FieldSpec("rational")
BIG = FieldSpec("prime", (1 << 61) - 1)
FIELDS = [FieldSpec("prime", 2), FieldSpec("prime", 3), FieldSpec("prime", 101), BIG, Q]
FIELD_IDS = ["F2", "F3", "F101", "F2^61-1", "Q"]


# -- references on raw elements ------------------------------------------------


def ref_poly(f, pt):
    field = f.field
    acc = field.zero()
    for exps, c in f.terms.items():
        for v, e in zip(pt, exps):
            c = field.mul(c, field.pow(v, e))
        acc = field.add(acc, c)
    return acc


def ref_dag(C, pt):
    field = C.field
    vals = []
    for op, arg in C.nodes:
        if op == "input":
            vals.append(pt[arg])
        elif op == "const":
            vals.append(arg)
        elif op == "add":
            vals.append(field.zero())
            for k in arg:
                vals[-1] = field.add(vals[-1], vals[k])
        else:
            vals.append(field.one())
            for k in arg:
                vals[-1] = field.mul(vals[-1], vals[k])
    return vals[C.output]


def ref_value(C, pt):
    field = C.field
    if isinstance(C, ComposedCircuit):
        return ref_dag(C.outer, [ref_poly(f, pt) for f in C.inputs])
    if isinstance(C, Depth4Circuit):
        acc = field.zero()
        for row in C.rows:
            prod = field.one()
            for f in row:
                prod = field.mul(prod, ref_poly(f, pt))
            acc = field.add(acc, prod)
        return acc
    return ref_dag(C, pt)


def ref_lattice(values, w, d):
    """values^w in lexicographic order, only the index vectors of sum <= d
    unless d is None."""
    return [tuple(values[i] for i in idx)
            for idx in itertools.product(range(len(values)), repeat=w)
            if d is None or sum(idx) <= d]


def ref_image(mp, a):
    return tuple(ref_poly(img, a) for img in map_images(mp))


# -- strategies ---------------------------------------------------------------------


def elements(field):
    """Raw elements; over Q small integers and fractions."""
    if field.characteristic:
        return st.integers(0, field.p - 1)
    return st.one_of(st.integers(-9, 9).map(Fraction),
                     st.fractions(min_value=-9, max_value=9, max_denominator=6))


def polys(field, n, max_terms=3, max_deg=2, nonzero=False, coefficients=None):
    exps = st.tuples(*[st.integers(0, max_deg)] * n).filter(lambda e: sum(e) <= max_deg)
    if coefficients is None:
        coefficients = elements(field)
    terms = st.dictionaries(exps, coefficients, min_size=int(nonzero), max_size=max_terms)
    made = terms.map(lambda t: SparsePoly(field, n, t))
    return made.filter(bool) if nonzero else made


@st.composite
def dags(draw, field, n, max_gates=4):
    nodes = [("input", i) for i in range(n)] + [("const", draw(elements(field)))]
    for _ in range(draw(st.integers(1, max_gates))):
        kids = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=3))
        nodes.append((draw(st.sampled_from(("add", "mul"))), tuple(kids)))
    return Circuit(field, n, nodes, len(nodes) - 1)


@st.composite
def mixed_sums(draw, field, n):
    """A composed circuit whose outer sums mix a column over 1 (an inner
    with integer coefficients, at integer points), a const (a fraction over
    Q) and a column over q > 1 (an inner with a coefficient 1/q), and a
    product of such a sum with a column."""
    whole = draw(polys(field, n, nonzero=True,
                       coefficients=st.integers(-9, 9).map(field.normalize)))
    if field.characteristic:
        part = draw(elements(field))
    else:
        part = Fraction(1, draw(st.integers(2, 6)))
    part = draw(polys(field, n)) + SparsePoly.constant(field, n, part)
    const = draw(elements(field))
    nodes = [("input", 0), ("input", 1), ("const", const), ("add", (0, 2, 1)),
             ("mul", (3, 1)), ("add", (4, 0, 2))]
    return ComposedCircuit(Circuit(field, 2, nodes, 5), [whole, part])


@st.composite
def circuits(draw, field, n):
    kind = draw(st.sampled_from(("dag", "depth4", "composed", "mixed")))
    if kind == "dag":
        return draw(dags(field, n))
    if kind == "depth4":
        # rows share factor objects, and some are longer than REDUCE_EVERY
        pool = draw(st.lists(polys(field, n, nonzero=True), min_size=1, max_size=3))
        widths = st.sampled_from((1, 2, REDUCE_EVERY + 2))
        rows = draw(st.lists(widths.flatmap(
            lambda s: st.lists(st.sampled_from(pool), min_size=s, max_size=s)),
            min_size=1, max_size=3))
        return Depth4Circuit(field, n, 2, rows)
    if kind == "mixed":
        return draw(mixed_sums(field, n))
    m = draw(st.integers(1, 3))
    # zero inners allowed; the outer is a polynomial or a dag, with
    # non-integer consts over Q
    inners = draw(st.lists(polys(field, n), min_size=m, max_size=m))
    outer = draw(st.one_of(polys(field, m, max_terms=4).map(Circuit.from_poly), dags(field, m)))
    return ComposedCircuit(outer, inners)


# -- one evaluation per circuit kind --------------------------------------------------


def as_block(field, pts, n):
    """The points pts (n coordinates each) as one block (cols, den)."""
    ints, den = field.integers([v for pt in pts for v in pt])
    return [ints[i::n] for i in range(n)], den


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_the_integer_form_value_is_the_reference_value(field, data):
    n = data.draw(st.integers(1, 3))
    C = data.draw(circuits(field, n))
    pts = data.draw(st.lists(st.lists(elements(field), min_size=n, max_size=n),
                             min_size=1, max_size=5))
    want = [ref_value(C, pt) for pt in pts]
    nums, den = C._evaluate_integers(as_block(field, pts, n))
    assert all(type(v) is int for v in nums) and type(den) is int
    assert field.from_integers(nums, den) == want
    assert [C.evaluate(pt) for pt in pts] == want
    if field.characteristic:
        assert den == 1 and all(0 <= v < field.p for v in nums)
    else:
        # any common denominator, as a map image gives it, not only the least
        cols, q = as_block(field, pts, n)
        nums, den = C._evaluate_integers(([[6 * v for v in col] for col in cols], 6 * q))
        assert [Fraction(v, den) for v in nums] == want


def long_products(field, k):
    """A dag node, a depth-4 row and a monomial, each a product of k
    factors in two variables (the monomial in k)."""
    x1, x2 = (poly_from_text(t, field, 2) for t in ("x1 + 2", "x2 + 3"))
    dag = Circuit(field, 2, [("input", 0), ("input", 1), ("const", 3), ("add", (0, 2)),
                             ("mul", (3, 1) * (k // 2))], 4)
    row = Depth4Circuit(field, 2, 1, [[x1, x2] * (k // 2), [x2]])
    monomial = SparsePoly(field, k, {(1,) * k: 5, (0,) * k: 1})
    return dag, row, monomial


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_long_products_are_reduced_on_the_way(field):
    """Products of more than REDUCE_EVERY factors have the reference
    values, and over F_p no product grows past REDUCE_EVERY + 2 residues
    (unreduced, its length would grow with every factor)."""
    k = 3 * REDUCE_EVERY + 2
    # -1, -2, ...: residues as long as p
    pts = [(field.normalize(-1 - v), field.normalize(-2 - 2 * v)) for v in range(5)]
    mono_pts = [tuple(field.normalize(-1 - j - i) for i in range(k)) for j in range(3)]
    bits = []

    def mul(a, b):
        bits.append((a * b).bit_length())
        return a * b

    with mock.patch("pitkit.circuits.mul", mul), mock.patch("pitkit.polynomials.mul", mul):
        dag, row, monomial = long_products(field, k)
        for C in (dag, row):
            want = [ref_value(C, [field.normalize(v) for v in pt]) for pt in pts]
            assert field.from_integers(*C._evaluate_integers(as_block(field, pts, 2))) == want
        want = [ref_poly(monomial, [field.normalize(v) for v in pt]) for pt in mono_pts]
        assert field.from_integers(*monomial._eval_integers(as_block(field, mono_pts, k))) == want
    if field.characteristic:
        assert max(bits) <= (REDUCE_EVERY + 2) * field.p.bit_length()


@pytest.mark.parametrize("pt", [(2, 3), (Fraction(1, 2), 3), (0, Fraction(-2, 3))])
def test_rational_consts_and_inners_and_zero_inners(pt):
    """Over Q: an outer with non-integer consts, a zero inner, and inners
    with rational coefficients, at integer and rational points."""
    f = poly_from_text("1/2*x1^2 - x2", Q, 2)
    g = poly_from_text("3*x1*x2 + 1/3", Q, 2)
    outers = ["1/2*x1*x2 - x3", "x1*x2 - 2*x3", "x3^2 + x1"]
    for text in outers:
        for inners in ([f, g, f * g], [f, SparsePoly.zero(Q, 2), g], [g, g, f]):
            C = ComposedCircuit(Circuit.from_poly(poly_from_text(text, Q, 3)), inners)
            want = ref_value(C, [Fraction(v) for v in pt])
            assert C.evaluate(pt) == want
            (num,), den = C._evaluate_integers(Q.block(pt))
            assert Fraction(num, den) == want


# -- one stream of blocks per hitting set ------------------------------------------------


def schedule_of(size):
    """The block sizes of a stream of `size` points from one map: 1, 16,
    256 = MAX_BLOCK, MAX_BLOCK, ..., the last block cut."""
    sizes, step = [], 1
    while size > 0:
        sizes.append(min(step, size))
        size -= sizes[-1]
        step = min(16 * step, MAX_BLOCK)
    return sizes


def stream_prefix(hs, count=400):
    """The first count points of hs, checking that its blocks are the
    points in the integer form."""
    pts = list(itertools.islice(hs.points(), count))
    field, xs = hs.field, []
    for cols, den in hs.blocks():
        assert len(cols) == hs.arity and len({len(col) for col in cols}) == 1
        assert type(den) is int and den > 0
        for col in cols:
            assert all(type(v) is int for v in col)
            if field.characteristic:
                assert den == 1 and all(0 <= v < field.p for v in col)
        xs.extend(tuple(field.from_integers(pt, den)) for pt in zip(*cols))
        if len(xs) >= count:
            break
    assert pts == xs[:count]
    return pts


def block_sizes(hs, count):
    return [block_size(cols) for cols, _ in itertools.islice(hs.blocks(), count)]


def grid(field, d):
    """The axis values 0 .. d, truncated to the elements of F_p."""
    return [field.from_int(v) for v in range(d + 1)[:field.p]]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_identity_and_grid_sets_are_their_lattices(field, data):
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(0, 4))
    hs = _identity_set(field, n, "sparse-char0", n, d)
    axis = grid(field, d)
    # a field with fewer than d + 1 elements truncates the axis: the whole grid
    whole = len(axis) <= d
    assert hs.provenance["grid_truncated"] is whole
    lattice = ref_lattice(axis, n, None if whole else d)
    assert stream_prefix(hs) == lattice[:400]
    assert block_sizes(hs, 20) == schedule_of(len(lattice))[:20]
    values = data.draw(st.lists(elements(field), min_size=1, max_size=4, unique=True))
    bound = data.draw(st.sampled_from([None] + list(range(len(values)))))
    g = sz_grid(field, values, n, d=bound)
    assert stream_prefix(g) == ref_lattice([field.normalize(v) for v in values], n, bound)[:400]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_adaptive_sets_are_the_map_images(field, data):
    n = data.draw(st.integers(2, 3))
    r = data.draw(st.integers(1, n - 1))
    d = data.draw(st.integers(0, 3))
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    c = data.draw(elements(field).filter(bool))
    if data.draw(st.booleans()):
        mp = VandermondeMap(field, n, r, data.draw(st.integers(2, 5)),
                            data.draw(st.integers(2, 5)), p, c)
    else:
        kept = data.draw(st.lists(st.integers(1, n), min_size=r, max_size=r, unique=True))
        mp = KroneckerMap(field, n, r, kept, data.draw(st.integers(2, 5)), p, c)
    hs = _adaptive_set(mp, "sparse-char0", {}, d)
    axis = grid(field, d)
    lattice = ref_lattice(axis, mp.nvars_out, None if len(axis) <= d else d)
    want = [ref_image(mp, a) for a in lattice][:400]
    assert stream_prefix(hs) == want
    assert block_sizes(hs, 20) == schedule_of(len(lattice))[:20]
    assert [mp.point_images(a) for a in lattice[:400]] == want


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_exact_sets_are_the_images_of_every_map(field):
    cases = [(schedule("sparse-char0", n=2, delta=2, r=1, d=2, ell=2),
              hitting_set_sparse_inputs(field, 2, 2, 1, 2, 2), 2),
             (schedule("any-char", n=3, delta=2, r=2, d=2),
              hitting_set_arbitrary_char(field, 3, 2, 2, 2), 3),
             (schedule("depth4", n=3, delta=1, k=2, s=2), hitting_set_depth4(field, 3, 1, 2, 2), 3)]
    for sched, hs, n in cases:
        d = sched.h2_size - 1
        axis = grid(field, d)
        lattice = ref_lattice(axis, sched.w(n), None if len(axis) <= d else d)
        want = []
        for mp in sched.maps(field, n):
            want.extend(ref_image(mp, a) for a in lattice)
            if len(want) >= 400:
                break
        assert stream_prefix(hs) == want[:400]
        # the sizes start again at each map: no block holds two maps' images
        assert block_sizes(hs, 40) == (schedule_of(len(lattice)) * 40)[:40]


# -- one walk loop ---------------------------------------------------------------------


def reference_walk(C, hs, max_points):
    """(outcome, witness, value, points_checked) of evaluate over points()."""
    checked = 0
    for pt in hs.points():
        if max_points is not None and checked >= max_points:
            return "inconclusive", None, None, checked
        v = C.evaluate(pt)
        checked += 1
        if not C.field.is_zero(v):
            return "nonzero", pt, v, checked
    return "zero", None, None, checked


def fields_of(verdict):
    return verdict.outcome, verdict.witness, verdict.value, verdict.points_checked


def cuts(size):
    """max_points at 0, around every block boundary (after 1, 17 and 273
    points) and those of blocks that double (after 3, 7 and 255), and
    around the size of a set of that many points."""
    return [None, 0, 1, 2, 3, 4, 7, 8, 16, 17, 18, 255, 256, 257, 272, 273, 274,
            size - 1, size, size + 1]


def assert_walks_agree(C, hs):
    """pit on the blocks, and on the raw view through C.evaluate, gives the
    point-by-point verdict at every cut."""
    for max_points in cuts(hs.size_bound):
        want = reference_walk(C, hs, max_points)
        assert fields_of(hitting.pit(C, hs, max_points=max_points)) == want, max_points
        assert fields_of(hitting.pit(C.evaluate, hs, max_points=max_points)) == want


@st.composite
def pit_inputs(draw, field):
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("dag", "depth4", "composed", "zero-composed")))
    if kind == "dag":
        return draw(dags(field, n, max_gates=3))
    if kind == "depth4":
        rows = draw(st.lists(st.lists(polys(field, n, max_terms=2, max_deg=1, nonzero=True),
                                      min_size=1, max_size=2), min_size=2, max_size=2))
        return Depth4Circuit(field, n, 1, rows)
    f = draw(polys(field, n, max_terms=2))
    g = draw(polys(field, n, max_terms=2))
    if kind == "zero-composed":
        outer, inners = poly_from_text("x1*x2 - x3", field, 3), [f, g, f * g]
    else:
        # c * y1 + y3^2, c not an integer over Q for the Fraction fallback
        c = draw(elements(field).filter(bool))
        outer = SparsePoly(field, 3, {(1, 0, 0): c, (0, 0, 2): 1})
        inners = [f, g, f + g]
    return ComposedCircuit(Circuit.from_poly(outer), inners)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_pit_circuit_is_a_walk_of_evaluate_over_points(field, data):
    C = data.draw(pit_inputs(field))
    max_points = data.draw(st.sampled_from([None, 0, 1, 3, 8, 20, 257]))
    walks = []
    real = hitting.pit

    def spy(oracle, hs, max_points=None):
        got = real(oracle, hs, max_points=max_points)
        walks.append((oracle, hs, max_points, got))
        return got

    with mock.patch.object(hitting, "pit", spy):
        try:
            verdict = pit_circuit(C, max_points=max_points)
        except (SearchExhausted, BudgetExceeded):
            return
    if verdict.provenance.get("construction") == "constant-composition":
        assert not walks
        return
    (oracle, hs, limit, got), = walks
    assert oracle is C and limit == max_points
    assert fields_of(got) == reference_walk(C, hs, max_points)
    # a raw oracle walks the same points to the same verdict, at every cut
    assert_walks_agree(C, hs)
    if verdict.outcome != "inconclusive" or got.outcome == "inconclusive":
        assert fields_of(verdict) == fields_of(got)
    else:
        # a truncated grid walked to the end proves nothing
        assert got.outcome == "zero" and verdict.points_checked == got.points_checked


def late_circuits(field):
    """Per circuit kind, a zero circuit and one that vanishes where x1 = 0,
    so that on a circuit's own simplex its witness lies past the first 66
    points, inside a block.  n = 3."""
    x1, x2, x3 = (poly_from_text("x%d" % i, field, 3) for i in (1, 2, 3))
    f, g = poly_from_text("x1 + 2*x2*x3", field, 3), poly_from_text("x3^2 + 1", field, 3)
    minus = field.neg(field.one())
    return [
        Circuit(field, 3, [("input", 0), ("input", 1), ("const", minus), ("mul", (0, 1)),
                           ("mul", (2, 1, 0)), ("add", (3, 4))], 5),
        Circuit(field, 3, [("input", 0), ("input", 1), ("input", 2), ("const", 2),
                           ("add", (2, 3)), ("mul", (0, 1, 4))], 5),
        Depth4Circuit(field, 3, 2, [[f, g], [f.scale(minus), g]]),
        Depth4Circuit(field, 3, 1, [[x1, x2], [x1, x2 + x3]]),
        ComposedCircuit(Circuit.from_poly(poly_from_text("x1*x2 - x3", field, 3)), [f, g, f * g]),
        ComposedCircuit(Circuit.from_poly(poly_from_text("x1*x2", field, 2)), [x1, x2 + x3]),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_block_walk_is_the_point_walk_past_every_block_boundary(field):
    """The circuit's own simplex of degree 10 in three variables (286
    points, or the whole grid of a small field) and the images of a
    Vandermonde map (w = 2, degree 22: 276 points), each walked with
    max_points at every block boundary and around the set's size."""
    sets = [_identity_set(field, 3, "sparse-char0", 3, 10),
            _adaptive_set(VandermondeMap(field, 3, 1, 3, 2, 5, 2 if field.characteristic == 3 else 3),
                          "sparse-char0", {}, 22)]
    for hs in sets:
        for C in late_circuits(field):
            assert_walks_agree(C, hs)
    if field.characteristic not in (2, 3):
        assert [hs.size_bound for hs in sets] == [286, 276]
        assert hitting.pit(late_circuits(field)[0], sets[0]).outcome == "zero"


def test_an_exact_set_over_maps_of_different_denominators_is_walked_point_by_point():
    # c = 1/2, 2/3 and 3: L = 2^E, 3^E and 1, so each map's blocks have
    # their own denominator; three maps of 91 points each
    maps = [VandermondeMap(Q, 3, 1, 3, 2, 5, c) for c in (Fraction(1, 2), Fraction(2, 3), 3)]
    assert len({mp._integer_columns()[2] for mp in maps}) == 3
    hs = _image_set(Q, 3, {"mode": "exact"}, lambda: iter(maps), 3, 2, 12, True)
    assert hs.size_bound == 273
    assert block_sizes(hs, 30) == schedule_of(91) * 3
    assert len({den for _, den in hs.blocks()}) == 3
    for C in late_circuits(Q):
        assert_walks_agree(C, hs)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_circuit_nonzero_at_its_first_point_is_evaluated_there_alone(field):
    """The walk starts with a block of one point: a circuit nonzero there
    is evaluated once, on one point, and every polynomial in it too."""
    x1, x2, x3 = (poly_from_text(t, field, 3) for t in ("x1 + 1", "x2 + 1", "x3"))
    circuits = [Circuit.from_poly(x1 * x2 + x3),
                Depth4Circuit(field, 3, 1, [[x1, x2], [x3]]),
                ComposedCircuit(Circuit.from_poly(poly_from_text("x1*x2 + x3", field, 3)),
                                [x1, x2, x3])]
    for C in circuits:
        sizes, poly_sizes = [], []
        kind, real, eval_poly = type(C), type(C)._evaluate_integers, SparsePoly._eval_integers

        def spy(self, block):
            sizes.append(block_size(block[0]))
            return real(self, block)

        def poly_spy(self, block):
            poly_sizes.append(block_size(block[0]))
            return eval_poly(self, block)

        with mock.patch.object(kind, "_evaluate_integers", spy), \
                mock.patch.object(SparsePoly, "_eval_integers", poly_spy):
            verdict = pit_circuit(C)
        assert verdict.outcome == "nonzero" and verdict.points_checked == 1, kind.__name__
        assert sizes == [1] and set(poly_sizes) <= {1}


# -- no conversion per point --------------------------------------------------------------


def conversions(run, *args):
    """run(*args) and the number of FieldSpec.integers and
    FieldSpec.from_integers calls it made."""
    counts = Counter()

    def counting(name):
        fn = getattr(FieldSpec, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return fn(self, *args, **kwargs)
        return wrapper

    with mock.patch.object(FieldSpec, "integers", counting("integers")), \
            mock.patch.object(FieldSpec, "from_integers", counting("from_integers")):
        value = run(*args)
    return value, counts


def zero_compositions(field, k):
    """Two zero compositions whose walks grow with k: y1*y2 - y3 at x1^k,
    x2^k, (x1*x2)^k, walked on its own simplex of degree 2k in two
    variables (comb(2k + 2, 2) points), and y1^2 - y2 at f = x1*x2^k + x3
    and f^2, of trdeg 1 in three variables, walked on the images of a
    Vandermonde map to two variables over the simplex of degree 2k + 2
    (comb(2k + 4, 2) points)."""
    def composed(outer, inners):
        return ComposedCircuit(Circuit.from_poly(poly_from_text(outer, field, len(inners))),
                               inners)
    x1, x2 = poly_from_text("x1^%d" % k, field, 2), poly_from_text("x2^%d" % k, field, 2)
    f = poly_from_text("x1*x2^%d + x3" % k, field, 3)
    return [composed("x1*x2 - x3", [x1, x2, x1 * x2]), composed("x1^2 - x2", [f, f * f])]


@pytest.mark.parametrize("field", [Q, BIG], ids=["Q", "F2^61-1"])
def test_the_walk_converts_no_point(field):
    walks = [[conversions(pit_circuit, C) for C in zero_compositions(field, k)] for k in (5, 6)]
    for (short, short_counts), (long, long_counts) in zip(*walks):
        assert short.outcome == long.outcome == "zero"
        assert 50 <= short.points_checked < long.points_checked
        # the same conversions for a walk half as long again: none per point
        assert short_counts == long_counts
        assert sum(short_counts.values()) < 20
    assert walks[0][0][0].provenance["map"] == "identity"
    assert walks[0][1][0].provenance["map"]["kind"] == "psi"


@pytest.mark.parametrize("field", [Q, BIG], ids=["Q", "F2^61-1"])
def test_the_evaluated_jacobian_converts_no_entry(field):
    # trdeg 3 in three variables, kept by the psi map with c = 3/2 over Q:
    # its columns and the Jacobian entries have denominators
    fs = [poly_from_text(t, field, 3) for t in ("x1 + x2^2", "x2*x3", "x1^2*x3 + 1/3*x2")]
    c = Fraction(3, 2) if field.kind == "rational" else 2
    mp = VandermondeMap(field, 3, 3, 256, 2, 5, c)
    J = jacobian(fs)
    cert, counts = conversions(varmaps._certify, fs, J, mp, 3, 0)
    assert cert is not None and cert.witness["method"] == "evaluated-jacobian-meets-upper-bound"
    assert counts["from_integers"] == 0
    (rho, _, _), counts = conversions(evaluated_rank, lambda a: mp.jacobian_at(J, a), field,
                                      4, 3, 0)
    assert rho == 3 and counts["from_integers"] == 0


# -- the walk by runs ------------------------------------------------------------------


def concatenated(blocks):
    """The columns and the one denominator of a stream of blocks, and the
    block sizes."""
    cols, dens, sizes = None, set(), []
    for block, den in blocks:
        cols = [[] for _ in block] if cols is None else cols
        for col, part in zip(cols, block):
            col += part
        dens.add(den)
        sizes.append(block_size(block))
    return cols, dens, sizes


@st.composite
def walk_maps(draw, field, w):
    """A Kronecker, Vandermonde or merging map with w output variables."""
    kinds = ["phi", "sigma"] + (["psi"] if w >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(w, w + 2))
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    c = draw(elements(field).filter(bool))
    if kind == "psi":
        return VandermondeMap(field, n, w - 1, draw(st.integers(2, 9)), draw(st.integers(2, 9)),
                              p, c)
    if kind == "phi":
        kept = draw(st.lists(st.integers(1, n), min_size=w, max_size=w, unique=True))
        return KroneckerMap(field, n, w, kept, draw(st.integers(2, 9)), p, c)
    # every class holds a variable
    cls = list(range(w)) + draw(st.lists(st.integers(0, w - 1), min_size=n - w, max_size=n - w))
    return MergingMap(field, tuple(draw(st.permutations(cls))))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_the_walk_by_runs_is_the_image_of_the_point_lattice(field, data):
    """A map's blocks, concatenated, are AffineMap._integer_image of each
    point of the lattice, in the same integers over the same denominator,
    cut as schedule_of says: w = 1..4, d = 0..8, the axis truncated to the
    elements of F_2 and F_3 (the whole grid) when d passes them."""
    w = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(0, 8))
    mp = data.draw(walk_maps(field, w))
    hs = _image_set(field, mp.n, {}, lambda: (mp,), 1, w, d, False)
    m = len(grid(field, d))
    points = list(lattice(range(m), w, None if m <= d else d))
    images = [mp._integer_image((list(pt), 1)) for pt in points]
    want = [list(col) for col in zip(*[image for image, _ in images])]
    cols, dens, sizes = concatenated(hs.blocks())
    assert cols == want and dens == {den for _, den in images}
    assert sizes == schedule_of(len(points)) and len(points) == hs.size_bound


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_the_walk_by_runs_of_an_axis_is_its_point_lattice(field, data):
    """The identity's and sz_grid's blocks, concatenated, are the point
    lattice of their axis values: any distinct values, w = 0..4, with and
    without a degree bound."""
    w = data.draw(st.integers(0, 4))
    values = data.draw(st.lists(elements(field), min_size=1, max_size=9, unique=True))
    values = list(dict.fromkeys(field.normalize(v) for v in values))
    d = data.draw(st.sampled_from([None] + list(range(len(values)))))
    axis = field.integers(values)
    points = list(lattice(axis[0], w, d))
    cols, dens, sizes = concatenated(_lattice_blocks(axis, w, d))
    assert dens == {axis[1]} and sizes == schedule_of(len(points))
    if w:
        assert list(zip(*cols)) == points
        assert list(sz_grid(field, values, w, d).points()) == list(lattice(values, w, d))


def test_a_walk_cut_short_builds_no_run_past_its_block():
    """The dag x1^(2^19) - x1 (19 squarings) walks a grid axis of 2^19 + 1
    values as one run, and is nonzero first at its third point.  With
    max_points 5 the walk builds one block of one point and one of 16, cut
    from that run, and never the run itself."""
    field = BIG
    nodes = [("input", 0)] + [("mul", (i, i)) for i in range(19)]
    nodes += [("const", field.neg(field.one())), ("mul", (0, 20)), ("add", (19, 21))]
    C = Circuit(field, 1, nodes, 22)
    assert C.syntactic_degree() == 1 << 19
    built = []
    real = hitting._blocks

    def counting(runs, n, piece):
        for cols in real(runs, n, piece):
            built.append(block_size(cols))
            yield cols

    with mock.patch.object(hitting, "_blocks", counting):
        verdict = pit_circuit(C, max_points=5)
    assert (verdict.outcome, verdict.points_checked, verdict.witness) == ("nonzero", 3, (2,))
    assert built == [1, 16]


# x1^(2^19) - x1 over F_(2^61 - 1), timed and traced in a fresh interpreter
_BIG_AXIS_DAG = """
import json, time, tracemalloc
from pitkit.circuits import Circuit
from pitkit.fields import FieldSpec
from pitkit.hitting import pit_circuit
field = FieldSpec("prime", (1 << 61) - 1)
nodes = [("input", 0)] + [("mul", (i, i)) for i in range(19)]
nodes += [("const", field.neg(field.one())), ("mul", (0, 20)), ("add", (19, 21))]
C = Circuit(field, 1, nodes, 22)
tracemalloc.start()
t0 = time.perf_counter()
v = pit_circuit(C, max_points=5)
seconds = time.perf_counter() - t0
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([v.outcome, v.points_checked, list(v.witness), seconds, peak]))
"""


def test_a_dag_walk_builds_nothing_for_its_grid_axis():
    """The same dag's walk of an axis of 2^19 + 1 values, cut at 5 points,
    neither lists the axis nor builds its elements (hitting._axis): under
    1 s and a traced peak under 5 MB, where listing the axis as field
    elements, their integer form and a set of them peaked near 50 MB."""
    path = os.environ.get("PYTHONPATH")
    src = os.path.dirname(os.path.dirname(hitting.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", _BIG_AXIS_DAG], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    outcome, checked, witness, seconds, peak = json.loads(proc.stdout)
    assert (outcome, checked, witness) == ("nonzero", 3, [2])
    assert seconds < 1 and peak < 5 << 20, (seconds, peak)
