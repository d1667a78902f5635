import json
import random

import pytest

from _gen import rand_poly
from pitkit.circuits import (
    Circuit,
    ComposedCircuit,
    Depth4Circuit,
    circuit_from_json_dict,
)
from pitkit.fields import FieldSpec
from pitkit.polynomials import BudgetExceeded, SparsePoly, poly_from_text

Q = FieldSpec("rational")
F101 = FieldSpec("prime", 101)


def P(text, nvars, field=Q):
    return poly_from_text(text, field, nvars)


def _pt(field, *vals):
    return tuple(field.from_int(v) for v in vals)


def test_evaluate():
    C = Depth4Circuit(Q, 3, 1, [[P("x1", 3), P("x2", 3)], [P("x3", 3)]])
    assert C.evaluate(_pt(Q, 1, 2, 3)) == Q.from_int(5)
    zero = Circuit.from_poly(SparsePoly.zero(Q, 2))
    assert zero.evaluate(_pt(Q, 9, -4)) == Q.zero()


def test_evaluate_algebraic_identity():
    # (x+1)(x-1) - x^2 is the constant -1 everywhere
    C = Circuit.from_poly(P("x1 + 1", 1) * P("x1 - 1", 1) - P("x1^2", 1))
    rng = random.Random(4)
    for _ in range(10):
        v = rng.randint(-50, 50)
        assert C.evaluate(_pt(Q, v)) == Q.from_int(-1)


def test_evaluate_arity_checked():
    C = Circuit.from_poly(P("x1 + x2", 2))
    with pytest.raises(Exception):
        C.evaluate(_pt(Q, 1))


def test_compose():
    f = P("x1^2 + x2", 2)
    outer = Circuit.from_poly(P("x1 - x2", 2))
    assert ComposedCircuit(outer, [f, f]).expand(1000).is_zero
    sq = ComposedCircuit(Circuit.from_poly(P("x1*x2", 2)), [P("x1", 1), P("x1", 1)])
    assert sq.expand(1000) == P("x1^2", 1)
    # annihilator relation composed with (f, f^2)
    ann = Circuit.from_poly(P("x2 - x1^2", 2))
    rng = random.Random(9)
    for _ in range(5):
        g = rand_poly(rng, Q, 2, 2, 3)
        assert ComposedCircuit(ann, [g, g * g]).expand(100000).is_zero


def test_compose_pointwise_consistency():
    rng = random.Random(21)
    for _ in range(10):
        inners = [rand_poly(rng, F101, 2, 2, 3) for _ in range(2)]
        outer_poly = rand_poly(rng, F101, 2, 2, 3)
        comp = ComposedCircuit(Circuit.from_poly(outer_poly), inners)
        pt = _pt(F101, rng.randrange(101), rng.randrange(101))
        inner_vals = tuple(f.eval(pt) for f in inners)
        assert comp.evaluate(pt) == outer_poly.eval(inner_vals)


def test_expand_matches_evaluate():
    rng = random.Random(6)
    for _ in range(10):
        C = ComposedCircuit(
            Circuit.from_poly(rand_poly(rng, F101, 2, 2, 3)),
            [rand_poly(rng, F101, 2, 2, 3) for _ in range(2)],
        )
        f = C.expand(100000)
        pt = _pt(F101, rng.randrange(101), rng.randrange(101))
        assert f.eval(pt) == C.evaluate(pt)
        assert C.degree_bound() >= (f.degree() or 0)


def test_expand_budget():
    # (x1+1)(x2+1)...(x6+1) has 64 terms, over any budget of 10
    n = 6
    rows = [[P("x%d + 1" % (i + 1), n) for i in range(n)]]
    C = Depth4Circuit(Q, n, 1, rows)
    assert C.expand(100).num_terms() == 64
    with pytest.raises(BudgetExceeded):
        C.expand(10)
    # a composed circuit: (x1 + x2 + 1)^3 has 10 terms, past a budget of 5
    cube = ComposedCircuit(Circuit.from_poly(P("x1*x2*x3", 3)), [P("x1 + x2 + 1", 2)] * 3)
    assert cube.expand(10) == P("x1 + x2 + 1", 2) ** 3
    with pytest.raises(BudgetExceeded):
        cube.expand(5)


def test_depth4_shape():
    rows = [
        [P("x1", 4), P("x2", 4), P("x1 + 1", 4)],
        [P("x3", 4)],
    ]
    C = Depth4Circuit(Q, 4, 1, rows)
    assert C.k == 2
    assert C.s == 3  # ragged rows, s is the widest
    assert C.term(0) == P("x1^2*x2 + x1*x2", 4)
    assert C.term(1) == P("x3", 4)
    sub = C.subcircuit((0,))
    assert sub.k == 1 and sub.expand(1000) == C.term(0)
    assert C.subcircuit((0, 1)).expand(1000) == C.expand(1000)
    with pytest.raises(Exception):
        C.subcircuit(())


def test_depth4_cancellation():
    C = Depth4Circuit(Q, 1, 1, [[P("x1", 1)], [P("-x1", 1)]])
    assert C.expand(100).is_zero


def test_depth4_factor_constraints():
    with pytest.raises(Exception):
        Depth4Circuit(Q, 2, 1, [[SparsePoly.zero(Q, 2)]])  # zero factor
    with pytest.raises(Exception):
        Depth4Circuit(Q, 2, 1, [[P("x1^2", 2)]])  # degree above delta


def test_sparse_factors_first_appearance_order():
    shared = P("x1 + x2", 3)
    rows = [[shared, P("x3", 3)], [P("x3", 3), shared, P("x1", 3)]]
    C = Depth4Circuit(Q, 3, 1, rows)
    assert C.sparse_factors() == [shared, P("x3", 3), P("x1", 3)]


def test_json_round_trip_bit_exact():
    rng = random.Random(14)
    f = rand_poly(rng, F101, 2, 2, 3)
    dag = Circuit.from_poly(f)
    comp = ComposedCircuit(Circuit.from_poly(rand_poly(rng, F101, 2, 2, 2)), [f, f * f])
    d4 = Depth4Circuit(F101, 2, 2, [[f], [rand_poly(rng, F101, 2, 2, 2)]])
    for C in (dag, comp, d4):
        blob = json.dumps(C.to_json_dict(), sort_keys=True)
        again = circuit_from_json_dict(json.loads(blob))
        assert json.dumps(again.to_json_dict(), sort_keys=True) == blob
        pt = _pt(F101, 7, 9)
        assert again.evaluate(pt) == C.evaluate(pt)


def test_json_kind_dispatch():
    d = {"kind": "nope", "field": {"kind": "rational"}}
    with pytest.raises(Exception):
        circuit_from_json_dict(d)
