import itertools
import json
import random

import pytest

from pitkit.circuits import Circuit, ComposedCircuit
from pitkit.fields import FieldSpec
from pitkit.hitting import (
    _adaptive_set,
    bad_prime_bound,
    bad_prime_census,
    hitting_set_arbitrary_char,
    hitting_set_depth4,
    hitting_set_sparse_inputs,
    pit,
    pit_circuit,
    sz_grid,
)
from pitkit.independence import trdeg
from pitkit.polynomials import SparsePoly, poly_from_text, poly_to_text
from pitkit.primes import primes_in
from pitkit.varmaps import search_kronecker_map

from _gen import (
    RATIONAL,
    cancelling_depth4,
    hint_family,
    lifted_identity,
    rand_depth4,
    rand_poly,
    rand_sparse_univariate,
    smallchar_instance,
)

Q = RATIONAL
F101 = FieldSpec("prime", 101)
F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)


def vals(field, k):
    return [field.from_int(i) for i in range(k)]


def composed(field, outer_text, inners):
    outer = poly_from_text(outer_text, field, len(inners))
    return ComposedCircuit(Circuit.from_poly(outer), list(inners))


def test_sz_grid_odometer_order():
    g = sz_grid(F101, vals(F101, 3), 2)
    pts = [tuple(int(c) for c in p) for p in g.points()]
    assert pts == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
    ]
    # restartable: a second pass yields the same stream
    assert pts == [tuple(int(c) for c in p) for p in g.points()]
    assert g.arity == 2
    assert g.size_bound == 9
    assert g.provenance["construction"] == "sz-grid"


def test_sz_grid_guarantee_classes():
    assert sz_grid(F101, vals(F101, 3), 1, d=2).guarantee == "certified"
    assert sz_grid(F101, vals(F101, 3), 1).guarantee == "corpus"


def test_sz_grid_rejects_bad_input():
    with pytest.raises(ValueError, match="distinct"):
        sz_grid(F101, [F101.from_int(0), F101.from_int(0)], 1)
    with pytest.raises(ValueError, match="d\\+1"):
        sz_grid(F101, vals(F101, 2), 1, d=2)
    with pytest.raises(ValueError):
        sz_grid(F101, vals(F101, 2), 0)


def test_binary_grid_hits_every_nonzero_line():
    F5 = FieldSpec("prime", 5)
    g = sz_grid(F5, vals(F5, 2), 1, d=1)
    for a in range(5):
        for b in range(5):
            if a == 0 and b == 0:
                continue
            f = SparsePoly(F5, 1, {(1,): F5.from_int(a), (0,): F5.from_int(b)})
            assert pit(f.eval, g).outcome == "nonzero"


def test_first_witness_in_enumeration_order():
    f = poly_from_text("x1*x2", F101, 2)
    g = sz_grid(F101, vals(F101, 3), 2, d=2)
    v = pit(f.eval, g)
    assert v.outcome == "nonzero"
    assert tuple(int(c) for c in v.witness) == (1, 1)
    assert int(v.value) == 1
    assert v.points_checked == 5


def test_grid_complete_for_random_bivariate_cubics():
    rng = random.Random(2)
    g = sz_grid(F101, vals(F101, 4), 2, d=3)
    for _ in range(50):
        f = rand_poly(rng, F101, 2, 3, 6, coeff_bound=100)
        if f.is_zero:
            continue
        v = pit(f.eval, g)
        assert v.outcome == "nonzero"
        assert not F101.is_zero(f.eval(v.witness))


def test_grid_complete_for_small_univariates_exhaustively():
    g = sz_grid(F101, vals(F101, 4), 1, d=3)
    for coeffs in itertools.product(range(4), repeat=4):
        if not any(coeffs):
            continue
        f = SparsePoly(F101, 1, {(k,): F101.from_int(c) for k, c in enumerate(coeffs) if c})
        assert pit(f.eval, g).outcome == "nonzero"


def test_pit_zero_oracle_exhausts():
    g = sz_grid(F101, vals(F101, 3), 2, d=2)
    v = pit(lambda pt: F101.zero(), g)
    assert v.outcome == "zero"
    assert v.points_checked == 6
    assert v.guarantee == "certified"
    assert v.witness is None and v.value is None


def test_pit_constant_one_stops_at_first_point():
    g = sz_grid(F101, vals(F101, 3), 2, d=2)
    v = pit(lambda pt: F101.one(), g)
    assert v.outcome == "nonzero"
    assert v.points_checked == 1
    assert tuple(int(c) for c in v.witness) == (0, 0)


def test_pit_budget_cutoff_is_inconclusive():
    g = sz_grid(F101, vals(F101, 3), 2, d=2)
    v = pit(lambda pt: F101.zero(), g, max_points=3)
    assert v.outcome == "inconclusive"
    assert v.points_checked == 3


def test_verdict_json_shape():
    g = sz_grid(F101, vals(F101, 3), 1, d=2)
    f = poly_from_text("x1 - 1", F101, 1)
    d = pit(f.eval, g).to_json_dict(F101)
    assert d["outcome"] == "nonzero"
    assert d["witness"] == [0]
    assert d["value"] == 100
    assert d["points_checked"] == 1
    assert d["guarantee"] == "certified"
    assert d["provenance"]["construction"] == "sz-grid"
    z = pit(lambda pt: F101.zero(), g).to_json_dict(F101)
    assert z["witness"] is None and z["value"] is None


def kronecker_set(polys, r, d):
    """The adaptive any-char set as pit_circuit builds it, pinned to the
    Kronecker reduction even where a Vandermonde one applies: the first
    certified Kronecker map over the simplex of degree d."""
    found = search_kronecker_map(polys, r=r)
    evidence = {"image_certificate": found.image_cert.to_json_dict()}
    return _adaptive_set(found.map, "any-char", evidence, d)


def test_sparse_inputs_zero_composition():
    # trdeg 1 in one variable: a psi map would have w = 2 > n = 1, so the
    # circuit's own simplex of degree 8 is walked, certified, no search
    f = poly_from_text("x1^2 + 2*x1", Q, 1)
    C = composed(Q, "x2 - x1^2", [f, f * f])
    v = pit_circuit(C)
    assert v.outcome == "zero"
    assert v.points_checked == 9
    assert v.guarantee == "certified"
    assert v.provenance["construction"] == "sparse-char0"
    assert v.provenance["mode"] == "adaptive"
    assert v.provenance["map"] == "identity" and v.provenance["w"] == 2
    assert "image_certificate" not in v.provenance
    # trdeg 1 in three variables: w = 2 < n, the map search runs
    f = poly_from_text("x1^2 + 2*x2*x3", Q, 3)
    C = composed(Q, "x2 - x1^2", [f, f * f])
    v = pit_circuit(C)
    assert v.outcome == "zero"
    assert v.points_checked == 45
    assert v.guarantee == "corpus"
    assert v.provenance["construction"] == "sparse-char0"
    assert v.provenance["mode"] == "adaptive"
    assert v.provenance["map"]["kind"] == "psi" and "image_certificate" in v.provenance


def test_sparse_inputs_independent_pair_witnessed():
    # n = 2: the identity simplex starts at the origin, where x1 + x2 is 0
    xs = [poly_from_text(t, Q, 2) for t in ("x1", "x2")]
    C = composed(Q, "x1 + x2", xs)
    v = pit_circuit(C)
    assert v.provenance["construction"] == "sparse-char0"
    assert v.provenance["map"] == "identity"
    assert v.outcome == "nonzero"
    assert v.points_checked == 2
    assert not Q.is_zero(C.evaluate(v.witness))
    # n = 4 > w = 3: the first image of the psi map found is a witness
    xs = [poly_from_text(t, Q, 4) for t in ("x1", "x2")]
    C = composed(Q, "x1 + x2", xs)
    v = pit_circuit(C)
    assert v.provenance["construction"] == "sparse-char0"
    assert v.provenance["map"]["kind"] == "psi"
    assert v.outcome == "nonzero"
    assert v.points_checked == 1
    assert not Q.is_zero(C.evaluate(v.witness))


def test_sparse_inputs_quartic_family_witnessed():
    # four sparse quartics of transcendence degree 3 under a random cubic
    fs = hint_family(Q)
    assert trdeg(fs).r == 3
    rng = random.Random(3)
    outer = rand_poly(rng, Q, 4, 3, 5)
    assert not outer.is_zero
    C = ComposedCircuit(Circuit.from_poly(outer), fs)
    v = pit_circuit(C, seed=0)
    # w = 4 = n: the identity simplex, which starts at the origin
    assert v.provenance["construction"] == "sparse-char0"
    assert v.provenance["map"] == "identity"
    assert v.outcome == "nonzero"
    assert v.points_checked == 3
    assert not Q.is_zero(C.evaluate(v.witness))
    # the same quartics in five variables: w = 4 < n, a psi map is searched
    fs = [poly_from_text(poly_to_text(f), Q, 5) for f in fs]
    C = ComposedCircuit(Circuit.from_poly(outer), fs)
    v = pit_circuit(C, seed=0)
    assert v.provenance["construction"] == "sparse-char0"
    assert v.provenance["map"]["kind"] == "psi"
    assert v.outcome == "nonzero"
    assert v.points_checked == 1
    assert not Q.is_zero(C.evaluate(v.witness))


def test_sparse_inputs_exact_mode_is_certified():
    hs = hitting_set_sparse_inputs(Q, 1, 3, 1, 1, 1)
    assert hs.guarantee == "certified"
    assert hs.size_bound == 42250
    v = pit(lambda pt: Q.zero(), hs, max_points=50)
    assert v.outcome == "inconclusive"
    assert v.points_checked == 50


def test_arbitrary_char_zero_over_f2():
    g1 = poly_from_text("x1", F2, 1)
    C = composed(F2, "x1 + x2", [g1, g1])
    hs = kronecker_set([g1, g1], 1, 2)
    v = pit(C.evaluate, hs)
    assert v.outcome == "zero"
    assert v.points_checked == 2
    assert v.guarantee == "corpus"
    assert hs.provenance["construction"] == "any-char"


def test_arbitrary_char_constant_one_over_f2():
    f1 = poly_from_text("x1", F2, 1)
    f2 = poly_from_text("x1 + 1", F2, 1)
    C = composed(F2, "x1 + x2", [f1, f2])
    hs = kronecker_set([f1, f2], 1, 2)
    v = pit(C.evaluate, hs)
    assert v.outcome == "nonzero"
    assert v.points_checked == 1
    assert int(v.value) == 1


def test_arbitrary_char_f3_agrees_with_expand():
    h = poly_from_text("x1^2 + x1", F3, 1)
    C = composed(F3, "x1*x2 + 1", [h, h * h])
    assert not C.expand(10 ** 6).is_zero
    hs = kronecker_set([h, h * h], 1, C.degree_bound())
    v = pit(C.evaluate, hs)
    assert v.outcome == "nonzero"
    assert not F3.is_zero(C.evaluate(v.witness))


def test_arbitrary_char_exact_mode_streams_deterministically():
    a = hitting_set_arbitrary_char(Q, 1, 2, 1, 1)
    b = hitting_set_arbitrary_char(Q, 1, 2, 1, 1)
    assert a.guarantee == "certified"
    first = list(itertools.islice(a.points(), 5))
    assert first == list(itertools.islice(b.points(), 5))
    assert all(len(p) == 1 for p in first)


def test_exact_vandermonde_sets_over_f2_from_trdeg_two_are_not_certified():
    # c = 1 is the only candidate, so every point has x1 = x2, and x1 + x2
    # (1-sparse linear inputs x1, x2 of trdeg 2 under the outer y1 + y2) is
    # a nonzero member of the class that vanishes on all of them
    hs = hitting_set_sparse_inputs(F2, 2, 1, 2, 1, 2)
    assert hs.guarantee == "corpus" and hs.provenance["char_gate"] is False
    assert all(p[0] == p[1] for p in itertools.islice(hs.points(), 200))
    assert hitting_set_depth4(F2, 2, 1, 3, 1).guarantee == "corpus"
    assert hitting_set_depth4(F2, 2, 1, 2, 1).guarantee == "certified"


def test_driver_answers_every_small_characteristic_instance():
    # F_2 instances with affine inners of trdeg 2 used to walk primes up to
    # p_max ~ 6.9e9 in the Vandermonde search; they take the Kronecker set
    for seed in range(60):
        C, _ = smallchar_instance(seed)
        v = pit_circuit(C, seed=seed)
        zero = C.expand(10 ** 4).is_zero
        # constant compositions evaluate once, on no grid
        truncated = v.provenance.get("grid_truncated", False)
        assert (v.outcome == "nonzero") == (not zero), seed
        if v.outcome == "zero":
            assert not truncated and zero, seed
        assert (v.outcome == "inconclusive") == (truncated and zero), seed


def test_truncated_any_char_set_walks_the_whole_grid():
    # a degree-3 bound wants 4 values per axis and F_3 hosts 3: the simplex
    # lemma needs d + 1 values, so the whole truncated grid is walked
    xs = [poly_from_text(t, F3, 2) for t in ("x1", "x2")]
    hs = kronecker_set(xs, 2, 3)
    assert hs.provenance["grid_truncated"] is True
    assert hs.provenance["points"] == "grid"
    assert hs.size_bound == 3 ** 2
    pts = [tuple(int(c) for c in p) for p in hs.points()]
    assert pts == list(itertools.product(range(3), repeat=2))
    exact = hitting_set_arbitrary_char(F3, 2, 3, 2, 1)
    assert exact.provenance["points"] == "grid"


def test_small_field_witness_off_the_simplex_is_found():
    # smallchar_instance seed 38: inners x1 + 1 and x2 over F_2 of degree
    # bound 2 on a two-value axis; the witness (1, 1) has index sum 2, past
    # any simplex the truncated axis could hold
    C, zero = smallchar_instance(38)
    assert not zero
    v = pit_circuit(C, seed=38)
    assert v.outcome == "nonzero"
    assert tuple(int(c) for c in v.witness) == (1, 1)
    assert v.provenance["points"] == "grid"


def test_depth4_lifted_identity_is_zero():
    # n = 4 = w = R + 1: the identity simplex of degree 2, certified
    L = lifted_identity(2, Q)
    v = pit_circuit(L, R=3)
    assert v.outcome == "zero"
    assert v.points_checked == 15
    assert v.guarantee == "certified"
    assert v.provenance["construction"] == "depth4"
    assert v.provenance["map"] == "identity" and v.provenance["w"] == 4
    # n = 6 > w: a depth-4 map is searched, and its images walked
    L = lifted_identity(3, Q)
    v = pit_circuit(L, R=3)
    assert v.outcome == "zero"
    assert v.points_checked == 35
    assert v.guarantee == "corpus"
    assert v.provenance["construction"] == "depth4"
    assert v.provenance["map"]["kind"] == "psi" and "evidence" in v.provenance


def test_depth4_cancelling_rows_are_zero():
    C = cancelling_depth4(4)
    v = pit_circuit(C)
    assert v.outcome == "zero"
    assert v.points_checked == 28


def test_depth4_random_nonzero_agree_with_expand():
    for seed in range(10):
        C = rand_depth4(seed)
        v = pit_circuit(C, seed=seed)
        assert (v.outcome == "zero") == C.expand(10 ** 6).is_zero


def test_depth4_exact_mode_top_fanin_two():
    # k=2 pins the rank bound at 1 and needs no characteristic gate
    hs = hitting_set_depth4(Q, 2, 1, 2, 1)
    assert hs.guarantee == "certified"
    assert hs.provenance["schedule"]["r"] == 1
    hs2 = hitting_set_depth4(F2, 2, 1, 2, 1)
    assert hs2.provenance["schedule"]["r"] == 1


def test_pit_deterministic_reruns():
    C = rand_depth4(5)
    runs = []
    for _ in range(2):
        v = pit_circuit(C, seed=5)
        runs.append(json.dumps(v.to_json_dict(C.field), sort_keys=True))
    assert runs[0] == runs[1]


def test_bad_prime_census_of_cyclotomic_like_binomial():
    f = poly_from_text("x1^6 - 1", Q, 1)
    count, bad = bad_prime_census(f, primes_in(7))
    assert (count, bad) == (2, [2, 3])
    assert count <= bad_prime_bound(2, 6) == 4


def test_bad_prime_census_of_constant():
    one = poly_from_text("1", Q, 1)
    assert bad_prime_census(one, primes_in(7)) == (0, [])


def test_bad_prime_bound_small_degrees():
    assert bad_prime_bound(3, 1) == 2
    assert bad_prime_bound(1, 2) == 0


def test_census_within_bound_on_random_sparse_inputs():
    rng = random.Random(12)
    ps = primes_in(50)
    for _ in range(30):
        f = rand_sparse_univariate(rng)
        count, _ = bad_prime_census(f, ps)
        assert count <= bad_prime_bound(f.num_terms(), f.degree())
