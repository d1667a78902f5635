"""The hitting-set walk on the integer form.

A HittingSet holds one stream of points (ints, den), and every circuit kind
has one evaluation on that form (circuits.Blackbox._evaluate_integers);
hitting.pit walks the stream through it and converts only the witness and
its value.  The tests compare each piece with a reference on raw elements:
the value with a forward pass in field arithmetic, points() with the
lattice and the map images recomputed from their definitions, and
pit_circuit's verdict with a walk of evaluate over points().  A guard
counts the conversions inside pit_circuit: they must not grow with the
number of points walked, and the evaluated-Jacobian certificate of a map
must reach elimination without converting an entry back to raw elements.
"""

import itertools
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from _gen import map_images
from pitkit import hitting, varmaps
from pitkit.circuits import Circuit, ComposedCircuit, Depth4Circuit
from pitkit.fields import FieldSpec
from pitkit.hitting import (
    _adaptive_set,
    _identity_set,
    hitting_set_arbitrary_char,
    hitting_set_depth4,
    hitting_set_sparse_inputs,
    pit_circuit,
    sz_grid,
)
from pitkit.independence import evaluated_rank, jacobian
from pitkit.polynomials import BudgetExceeded, SparsePoly, poly_from_text
from pitkit.varmaps import KroneckerMap, SearchExhausted, VandermondeMap, schedule

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


def polys(field, n, max_terms=3, max_deg=2, nonzero=False):
    exps = st.tuples(*[st.integers(0, max_deg)] * n).filter(lambda e: sum(e) <= max_deg)
    terms = st.dictionaries(exps, elements(field), min_size=int(nonzero), max_size=max_terms)
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
def circuits(draw, field, n):
    kind = draw(st.sampled_from(("dag", "depth4", "composed")))
    if kind == "dag":
        return draw(dags(field, n))
    if kind == "depth4":
        rows = draw(st.lists(st.lists(polys(field, n, nonzero=True), min_size=1, max_size=2),
                             min_size=1, max_size=3))
        return Depth4Circuit(field, n, 2, rows)
    m = draw(st.integers(1, 3))
    # zero inners allowed; the outer is a polynomial or a dag, with
    # non-integer consts over Q
    inners = draw(st.lists(polys(field, n), min_size=m, max_size=m))
    outer = draw(st.one_of(polys(field, m, max_terms=4).map(Circuit.from_poly), dags(field, m)))
    return ComposedCircuit(outer, inners)


# -- one evaluation per circuit kind --------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_the_integer_form_value_is_the_reference_value(field, data):
    n = data.draw(st.integers(1, 3))
    C = data.draw(circuits(field, n))
    pt = data.draw(st.lists(elements(field), min_size=n, max_size=n))
    want = ref_value(C, pt)
    num, den = C._evaluate_integers(field.integers(pt))
    assert type(num) is int and type(den) is int
    assert field.from_integers([num], den)[0] == want
    assert C.evaluate(pt) == want
    if field.characteristic:
        assert den == 1 and 0 <= num < field.p
    else:
        # any common denominator, as a map image gives it, not only the least
        ints, q = field.integers(pt)
        num, den = C._evaluate_integers(([6 * v for v in ints], 6 * q))
        assert Fraction(num, den) == want


@pytest.mark.parametrize("pt", [(2, 3), (Fraction(1, 2), 3), (0, Fraction(-2, 3))])
def test_the_fraction_fallback_and_zero_inners(pt):
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
            assert Fraction(*C._evaluate_integers(Q.integers(pt))) == want


# -- one integer stream per hitting set -------------------------------------------------


def stream_prefix(hs, count=400):
    pts = list(itertools.islice(hs.points(), count))
    xs = list(itertools.islice(hs.integer_points(), count))
    field = hs.field
    assert pts == [tuple(field.from_integers(*x)) for x in xs]
    for ints, den in xs:
        assert all(type(v) is int for v in ints) and type(den) is int and den > 0
        if field.characteristic:
            assert den == 1 and all(0 <= v < field.p for v in ints)
    return pts


def grid(field, d):
    return field.sample_elements(d + 1)


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
    assert stream_prefix(hs) == ref_lattice(axis, n, None if whole else d)[:400]
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
    max_points = data.draw(st.sampled_from([None, 1, 3, 20]))
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
    # a raw oracle walks the same points to the same verdict
    assert fields_of(real(C.evaluate, hs, max_points=max_points)) == fields_of(got)
    if verdict.outcome != "inconclusive" or got.outcome == "inconclusive":
        assert fields_of(verdict) == fields_of(got)
    else:
        # a truncated grid walked to the end proves nothing
        assert got.outcome == "zero" and verdict.points_checked == got.points_checked


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
    x2^k, (x1*x2)^k, walked on its own simplex of degree 4k in two
    variables, and y1^2 - y2 at f = x1*x2^k + x3 and f^2, of trdeg 1 in
    three variables, walked on the images of a Vandermonde map."""
    def composed(outer, inners):
        return ComposedCircuit(Circuit.from_poly(poly_from_text(outer, field, len(inners))),
                               inners)
    x1, x2 = poly_from_text("x1^%d" % k, field, 2), poly_from_text("x2^%d" % k, field, 2)
    f = poly_from_text("x1*x2^%d + x3" % k, field, 3)
    return [composed("x1*x2 - x3", [x1, x2, x1 * x2]), composed("x1^2 - x2", [f, f * f])]


@pytest.mark.parametrize("field", [Q, BIG], ids=["Q", "F2^61-1"])
def test_the_walk_converts_no_point(field):
    walks = [[conversions(pit_circuit, C) for C in zero_compositions(field, k)] for k in (3, 4)]
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
