"""The degree bound every composed and depth-4 walk is sized by.

degree_bound() is the outer dag's syntactic degree with input i weighted by
deg f_i: no node of C(f) has a degree above its own, so the bound holds,
and it never exceeds the product bound syntactic degree * max_i deg f_i.
A family of products, and of sums with constants, attains it in every
field, and a composition of degree D that vanishes on the simplex of
degree D - 1 shows that the walk needs every layer it takes.  Over Q
the smaller grid also keeps values small enough for walks the product
bound refused.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pitkit.circuits import Circuit, ComposedCircuit, Depth4Circuit  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.hitting import _adaptive_set, pit, pit_circuit, sz_grid  # noqa: E402
from pitkit.polynomials import SparsePoly, poly_from_text  # noqa: E402
from pitkit.varmaps import map_from_json_dict  # noqa: E402

Q = FieldSpec("rational")
F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
F101 = FieldSpec("prime", 101)
F61 = FieldSpec("prime", (1 << 61) - 1)
FIELDS = [Q, F2, F3, F101, F61]
FIELD_IDS = ["Q", "F2", "F3", "F101", "F2^61-1"]

consts = st.integers(-3, 3)


@st.composite
def inners(draw, field, n=2, nonconstant=False):
    """A polynomial of up to 4 terms in n variables, each exponent at most
    2; a constant, zero among them, unless nonconstant."""
    monos = st.tuples(*[st.integers(0, 2)] * n)
    if nonconstant:
        monos = monos.filter(any)
    f = SparsePoly(field, n, draw(st.dictionaries(monos, consts, max_size=4)))
    return f if f.degree() or not nonconstant else SparsePoly.variable(field, n, 0)


@st.composite
def outer_dags(draw, field, m):
    """A dag over m inputs: const, add and mul nodes whose children are any
    earlier nodes, shared between nodes and repeated within one."""
    nodes = [("input", j) for j in range(m)]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["const", "add", "mul"]))
        if kind == "const":
            nodes.append(("const", field.from_int(draw(consts))))
        else:
            kids = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=2))
            nodes.append((kind, tuple(kids)))
    return Circuit(field, m, nodes, draw(st.integers(0, len(nodes) - 1)))


@st.composite
def depth4_circuits(draw, field, attained=False):
    """Ragged rows of nonzero factors in two variables.  attained appends
    x1 to a row of the largest degree sum, which makes that row's the only
    top-degree part, so the expansion has exactly that degree."""
    rows = draw(st.lists(st.lists(inners(field, nonconstant=True), min_size=1, max_size=3),
                         min_size=1, max_size=3))
    if attained:
        top = max(rows, key=lambda row: sum(f.degree() for f in row))
        top.append(SparsePoly.variable(field, 2, 0))
    delta = max(f.degree() for row in rows for f in row)
    return Depth4Circuit(field, 2, delta, rows)


def product_bound(C):
    """syntactic degree * max_i deg f_i, the bound degree_bound replaces."""
    return C.outer.syntactic_degree() * max(f.degree() or 0 for f in C.inputs)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_composed_bound_lies_between_degree_and_product_bound(field, data):
    m = data.draw(st.integers(1, 3))
    C = ComposedCircuit(data.draw(outer_dags(field, m)),
                        [data.draw(inners(field)) for _ in range(m)])
    assert (C.expand().degree() or 0) <= C.degree_bound() <= product_bound(C)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_depth4_bound_is_the_largest_row_sum(field, data):
    C = data.draw(depth4_circuits(field))
    bound = C.degree_bound()
    assert bound == max(sum(f.degree() for f in row) for row in C.rows)
    assert (C.expand().degree() or 0) <= bound <= C.delta * C.s


@st.composite
def attaining_dags(draw, field, m):
    """Products of earlier nonconstant nodes and sums of one with
    constants: over a field a product of nonzero polynomials has the sum
    of their degrees, and adding a constant to a nonconstant node keeps
    its degree, so every node attains its weighted degree."""
    nodes = [("input", j) for j in range(m)]
    grown = list(range(m))
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            kids = draw(st.lists(st.sampled_from(grown), min_size=1, max_size=2))
            nodes.append(("mul", tuple(kids)))
        else:
            kid = draw(st.sampled_from(grown))
            nodes.append(("const", field.from_int(draw(consts))))
            nodes.append(("add", (len(nodes) - 1, kid)))
        grown.append(len(nodes) - 1)
    return Circuit(field, m, nodes, len(nodes) - 1)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_the_bound_is_attained(field, data):
    m = data.draw(st.integers(1, 3))
    C = ComposedCircuit(data.draw(attaining_dags(field, m)),
                        [data.draw(inners(field, nonconstant=True)) for _ in range(m)])
    assert C.expand().degree() == C.degree_bound()
    D4 = data.draw(depth4_circuits(field, attained=True))
    assert D4.expand().degree() == D4.degree_bound()


def falling(field, D):
    """The dag y1 (y1 - 1) ... (y1 - D + 1) + y2 - y1^2 over y1, y2."""
    nodes = [("input", 0), ("input", 1)]
    for j in range(D):
        nodes += [("const", field.from_int(-j)), ("add", (0, len(nodes)))]
    nodes.append(("mul", tuple(range(3, 2 + 2 * D, 2))))
    top = len(nodes) - 1
    nodes += [("const", field.from_int(-1)), ("mul", (0, 0, top + 1))]
    nodes.append(("add", (top, 1, top + 2)))
    return Circuit(field, 2, nodes, len(nodes) - 1)


@pytest.mark.parametrize("field", [Q, F101, F61], ids=["Q", "F101", "F2^61-1"])
@pytest.mark.parametrize("D", [2, 5, 9])
def test_a_composition_of_degree_d_needs_the_simplex_of_degree_d(field, D):
    # at (f, f^2) with f affine, y2 - y1^2 is zero, and the product is
    # f (f - 1) ... (f - D + 1): degree D, against a product bound of 2D.
    # It vanishes wherever f is an integer 0..D - 1, which on the grid
    # 0, 1, 2, ... is the simplex of degree D - 1 when f is the sum of the
    # walked coordinates; the walk finds its first nonzero at (0, D), the
    # (D + 1)-th point of the simplex of degree D
    for n, text in ((2, "x1 + x2"), (3, "x1 - 1")):
        f = poly_from_text(text, field, n)
        C = ComposedCircuit(falling(field, D), [f, f * f])
        assert C.expand().degree() == C.degree_bound() == D < product_bound(C) == 2 * D
        v = pit_circuit(C)
        assert v.outcome == "nonzero" and v.points_checked == D + 1
        if n == 2:
            # w = 2 >= n: the circuit's own simplex, f the coordinate sum
            assert v.provenance["map"] == "identity"
            assert v.witness == (field.zero(), field.from_int(D))
            short = sz_grid(field, [field.from_int(v) for v in range(D)], n, d=D - 1)
        else:
            # w = 2 < n: a psi map, whose image of f is the coordinate sum
            mp = map_from_json_dict(v.provenance["map"])
            assert mp.nvars_out == 2 < n
            assert mp.apply(f) == poly_from_text("x1 + x2", field, 2)
            short = _adaptive_set(mp, "sparse-char0", {}, D - 1)
        assert pit(C, short).outcome == "zero"


def test_a_walk_the_product_bound_refused_over_q_answers():
    # y1^1024 + y2 + 1 at (x1, x1^85): the weighted bound 1024 keeps the
    # largest coordinate at 11 bits, so the value bound is about
    # 1024 * 85 * 11 bits, under MAX_VALUE_BITS = 2^20; the product bound
    # 1024 * 85 = 87,040 made it 1024 * 85 * 17 bits, and the walk was
    # refused before its first point
    outer = Circuit.from_poly(poly_from_text("x1^1024 + x2 + 1", Q, 2))
    C = ComposedCircuit(outer, [poly_from_text("x1", Q, 1), poly_from_text("x1^85", Q, 1)])
    assert C.degree_bound() == 1024 and product_bound(C) == 87040
    v = pit_circuit(C)
    assert (v.outcome, v.points_checked, v.witness) == ("nonzero", 1, (0,))
