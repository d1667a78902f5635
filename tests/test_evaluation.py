"""Differential tests of the integer evaluation kernels and of the chain-rule
image Jacobian.

References: substitution into constant polynomials (field arithmetic, no
evaluation kernel), sympy for rational polynomials, and the symbolic image
Jacobian jacobian([mp.apply(f) ...]) evaluated entry by entry at a.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _gen import map_images, rand_poly  # noqa: E402
from pitkit.circuits import Circuit, ComposedCircuit  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.independence import jacobian, verify_trdeg_certificate  # noqa: E402
from pitkit.polynomials import SparsePoly, poly_from_text  # noqa: E402
from pitkit.varmaps import (  # noqa: E402
    KroneckerMap,
    VandermondeMap,
    map_from_json_dict,
    search_kronecker_map,
    search_vandermonde_map,
)

Q = FieldSpec("rational")
F2 = FieldSpec("prime", 2)
F101 = FieldSpec("prime", 101)
F61 = FieldSpec("prime", (1 << 61) - 1)
PRIME_FIELDS = [F2, F101, F61]
ALL_FIELDS = [Q] + PRIME_FIELDS
FIELD_IDS = ["Q", "F2", "F101", "F2^61-1"]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
integers = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
# integer points, negative ones among them, and non-integral rational points
rational_coords = st.one_of(integers.map(Fraction), integers, rationals)


@st.composite
def polys(draw, field, coeffs, n=None, max_exp=4):
    n = draw(st.integers(1, 3)) if n is None else n
    monos = st.tuples(*[st.integers(0, max_exp)] * n)
    terms = draw(st.dictionaries(monos, coeffs, max_size=6))
    return SparsePoly(field, n, terms)


def at_constants(f, point):
    """f(point) by substitution into constant polynomials."""
    consts = [SparsePoly.constant(f.field, 0, v) for v in point]
    return f.substitute(consts).constant_term()


def sympy_value(f, point):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x1:%d" % (f.nvars + 1))
    expr = sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*[x ** e for x, e in zip(xs, exps)])
         for exps, c in f.terms.items()),
        sympy.Integer(0),
    )
    val = expr.subs({x: sympy.Rational(v.numerator, v.denominator)
                     for x, v in zip(xs, map(Fraction, point))})
    return Fraction(int(val.p), int(val.q))


@given(st.data())
def test_eval_over_q_matches_substitution_and_sympy(data):
    f = data.draw(polys(Q, rationals))
    point = data.draw(st.lists(rational_coords, min_size=f.nvars, max_size=f.nvars))
    v = f.eval(point)
    assert type(v) is Fraction
    assert v == at_constants(f, point) == sympy_value(f, point)


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=FIELD_IDS[1:])
@given(data=st.data())
def test_eval_over_prime_fields_matches_substitution(field, data):
    coeffs = st.integers(min_value=-(1 << 70), max_value=1 << 70)
    f = data.draw(polys(field, coeffs))
    # unreduced and negative coordinates, and rationals with a unit denominator
    coords = st.one_of(
        coeffs,
        st.fractions(max_denominator=field.p - 1).filter(lambda v: v.denominator % field.p),
    )
    point = data.draw(st.lists(coords, min_size=f.nvars, max_size=f.nvars))
    v = f.eval(point)
    assert type(v) is int and 0 <= v < field.p
    assert v == at_constants(f, point)


def test_eval_at_rational_points_by_hand():
    f = poly_from_text("1/2*x1^3 - 2/3*x1*x2 + 5", Q, 2)
    assert f.eval([Fraction(1, 2), 3]) == Fraction(1, 16) - 1 + 5
    assert f.eval([2, Fraction(-3, 4)]) == 4 + 1 + 5
    assert f.eval([0, 0]) == 5
    assert SparsePoly.zero(Q, 2).eval([Fraction(1, 3), 1]) == Fraction(0)


@st.composite
def dags(draw, field, consts, max_nodes=8):
    """A random dag over 2 inputs with nodes of every kind."""
    n = 2
    nodes = [("input", 0), ("input", 1)]
    for _ in range(draw(st.integers(1, max_nodes))):
        kind = draw(st.sampled_from(["const", "add", "mul"]))
        if kind == "const":
            nodes.append(("const", draw(consts)))
        else:
            kids = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=3))
            nodes.append((kind, tuple(kids)))
    return Circuit(field, n, nodes, len(nodes) - 1)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_circuit_evaluate_matches_expansion(field, data):
    consts = rationals if field.kind == "rational" else integers
    # integral consts take the integer loop over Q; rational ones the other
    C = data.draw(dags(field, st.one_of(integers, consts)))
    coords = rational_coords if field.kind == "rational" else integers
    point = data.draw(st.lists(coords, min_size=2, max_size=2))
    v = C.evaluate(point)
    assert v == at_constants(C.expand(), point)
    assert type(v) is (Fraction if field.kind == "rational" else int)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
@given(data=st.data())
def test_composed_evaluate_matches_expansion(field, data):
    consts = rationals if field.kind == "rational" else integers
    outer = data.draw(dags(field, consts, max_nodes=5))
    inners = [data.draw(polys(field, consts, n=2, max_exp=2)) for _ in range(2)]
    CC = ComposedCircuit(outer, inners)
    coords = rational_coords if field.kind == "rational" else integers
    point = data.draw(st.lists(coords, min_size=2, max_size=2))
    assert CC.evaluate(point) == at_constants(CC.expand(), point)


@pytest.mark.parametrize("c", ["3/2", "-5/7", "5"])
@pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
def test_point_images_of_a_loaded_map_match_its_images(field, c):
    if field.kind == "prime":
        c = int(c) if "/" not in c else 3
    obj = {"kind": "psi", "field": field.to_json(), "n": 3, "r": 2,
           "D1": 27, "D2": 2, "p": 7, "c": c}
    mp = map_from_json_dict(obj)
    rng = random.Random(5)
    for _ in range(6):
        if field.kind == "rational":
            a = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 5])) for _ in range(3)]
        else:
            a = [rng.randrange(-field.p, 2 * field.p) for _ in range(3)]
        want = tuple(at_constants(img, a) for img in map_images(mp))
        assert mp.point_images(a) == want
    kron = KroneckerMap(field, 3, 2, (1, 3), 5, 7, mp.c)
    b = [Fraction(2, 3), -4] if field.kind == "rational" else [2, -4]
    assert kron.point_images(b) == tuple(at_constants(img, b) for img in map_images(kron))


def maps_for(field, n, rng):
    top = 6 if field.kind == "rational" else min(6, field.p - 1)
    c = Fraction(3, 2) if field.kind == "rational" else 1 + rng.randrange(field.p - 1)
    yield VandermondeMap(field, n, 2, 28, 2, 11, c)
    yield VandermondeMap(field, n, 1, 9, 2, 5, 1 + rng.randrange(top))
    yield KroneckerMap(field, n, 2, (1, n), 10, 13, c)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=FIELD_IDS)
def test_chain_rule_jacobian_matches_symbolic_image_jacobian(field):
    rng = random.Random(11)
    for _ in range(4):
        n = 3
        fs = [rand_poly(rng, field, n, 3, 4) for _ in range(rng.randint(1, 3))]
        J = jacobian(fs)
        for mp in maps_for(field, n, rng):
            imgs = [mp.apply(f) for f in fs]
            for _ in range(3):
                if field.kind == "rational":
                    a = [Fraction(rng.randint(-30, 30), rng.choice([1, 1, 3]))
                         for _ in range(mp.nvars_out)]
                else:
                    a = [rng.randrange(field.p) for _ in range(mp.nvars_out)]
                rows, den = mp.jacobian_at(J, a)
                want = [[g.derivative(j).eval(a) for j in range(mp.nvars_out)] for g in imgs]
                assert [field.from_integers(row, den) for row in rows] == want


def test_screen_miss_falls_back_to_symbolic_images(monkeypatch):
    # over F_2 the derivative of z^2 vanishes, so every evaluated Jacobian of
    # the Kronecker images has rank 0; the symbolic trdeg fallback builds
    # the images and certifies trdeg 1 by annihilator search
    applied = []
    real_apply = KroneckerMap.apply
    monkeypatch.setattr(KroneckerMap, "apply",
                        lambda mp, f: applied.append(f) or real_apply(mp, f))
    fs = [poly_from_text("x1^2 + x2^2", F2, 2)]
    found = search_kronecker_map(fs)
    assert applied
    assert found.image_cert.mode == "bruteforce" and found.image_cert.r == 1
    imgs = [real_apply(found.map, f) for f in fs]
    assert verify_trdeg_certificate(imgs, found.image_cert, upper_bound=1)


def test_small_field_vandermonde_search_builds_images_only_on_fallback(monkeypatch):
    # over F_101 there is no randomized screen, but all 31 rejected
    # candidates have linear rank below the input trdeg 3 and die on that
    # point-free screen, so no image is ever built
    applied = []
    real_apply = VandermondeMap.apply
    monkeypatch.setattr(VandermondeMap, "apply",
                        lambda mp, f: applied.append(f) or real_apply(mp, f))
    fs = [poly_from_text(t, F101, 3) for t in ("x1 + x2^2", "x2*x3", "x3")]
    found = search_vandermonde_map(fs)
    assert applied == []
    assert (found.map.p, found.map.c, found.candidates_tried) == (5, 2, 32)
    assert found.image_cert.to_json_dict() == {
        "r": 3, "mode": "jacobian", "basis": [0, 1, 2],
        "witness": {"method": "evaluated-jacobian-meets-upper-bound",
                    "upper_bound": 3, "point": [47, 93, 52, 1]},
    }
    imgs = [real_apply(found.map, f) for f in fs]
    assert verify_trdeg_certificate(imgs, found.image_cert, upper_bound=found.input_cert.r)


def test_small_field_vandermonde_fallback_rejects_full_linear_rank_candidate(monkeypatch):
    # over F_101 with n = 4, the candidate p = 2, c = 2 sends x1 and x3 to
    # the same affine form 2 + z0 + 2 z1 while its linear rank is full
    # (2 = r + 1, from x2 -> 2 + z0 + z1): it passes the point-free screen,
    # misses the evaluated leg, and the symbolic trdeg of its images
    # (x1 - x3 maps to 0) rejects it.  c = 1 has linear rank 1, the input
    # trdeg, and takes the same route at p = 2; at p = 3 it is the same
    # map, counted and not tried again, and p = 3, c = 2 wins
    applied = []
    real_apply = VandermondeMap.apply
    monkeypatch.setattr(VandermondeMap, "apply",
                        lambda mp, f: applied.append(mp) or real_apply(mp, f))
    fs = [poly_from_text("x1 - x3", F101, 4)]
    found = search_vandermonde_map(fs)
    assert (found.map.p, found.map.c, found.candidates_tried) == (3, 2, 4)
    rejected = [mp for mp in applied if mp is not found.map]
    assert [(mp.p, mp.c, mp.linear_rank()) for mp in rejected] == [(2, 1, 1), (2, 2, 2)]
    assert rejected[1].nvars_out == 2 and real_apply(rejected[1], fs[0]).is_zero
