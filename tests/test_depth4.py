import itertools
import json
import random

import pytest

from pitkit.circuits import Depth4Circuit
from pitkit.depth4 import (
    coprime_basis,
    gcd_and_simple_part,
    gcd_part,
    is_minimal,
    lift_identity,
    rank,
    search_depth4_map,
    simple_part,
    verify_simple_preservation,
)
from pitkit.fields import FieldSpec
from pitkit.hitting import pit_circuit
from pitkit.linalg import rank as matrix_rank
from pitkit.polynomials import SparsePoly, gcd_poly, poly_from_text, poly_to_text
from pitkit.varmaps import KroneckerMap, VandermondeMap, pc_candidates, schedule

from _gen import (
    BIG_FIELD,
    RATIONAL,
    cancelling_depth4,
    depth3_identity,
    gcd_depth4,
    int_rows,
    lifted_identity,
    rand_depth4,
)

Q = RATIONAL
F3 = FieldSpec("prime", 3)
F101 = FieldSpec("prime", 101)


def P(text, nvars):
    return poly_from_text(text, Q, nvars)


def circuit(rows_text, nvars, delta):
    rows = [[P(t, nvars) for t in row] for row in rows_text]
    return Depth4Circuit(Q, nvars, delta, rows)


def full_sum(C):
    total = SparsePoly.zero(C.field, C.nvars)
    for i in range(C.k):
        total = total + C.term(i)
    return total


def test_gcd_and_simple_part_shared_factor():
    C = circuit([["x1", "x2"], ["x1", "x3"]], 3, 1)
    assert poly_to_text(gcd_part(C)) == "x1"
    S = simple_part(C)
    assert [[poly_to_text(f) for f in row] for row in S.rows] == [["x2"], ["x3"]]
    assert poly_to_text(gcd_part(S)) == "1"


def test_gcd_part_takes_minimum_multiplicity():
    C = circuit([["x1^2", "x2"], ["x1^2", "x3"]], 3, 2)
    assert poly_to_text(gcd_part(C)) == "x1^2"
    S = simple_part(C)
    assert [[poly_to_text(f) for f in row] for row in S.rows] == [["x2"], ["x3"]]


def test_gcd_part_single_term_is_whole_product():
    C = circuit([["x1^2", "x1*x2"]], 2, 2)
    assert poly_to_text(gcd_part(C)) == "x1^3*x2"
    S = simple_part(C)
    assert full_sum(S).is_constant


def test_gcd_times_simple_matches_expansion():
    rng = random.Random(11)
    for seed in range(12):
        C = rand_depth4(seed, field=BIG_FIELD, k=2, s=2, n=3, delta=2)
        g = gcd_part(C)
        S = simple_part(C)
        assert (g * full_sum(S) - full_sum(C)).is_zero
        # dividing the shared part out leaves nothing shared
        assert gcd_part(S).is_constant
        g_both, S_both = gcd_and_simple_part(C)
        assert g_both == g and (S_both.delta, S_both.rows) == (S.delta, S.rows)


def test_coprime_basis_shape_and_reconstruction():
    C = circuit([["x1", "x2"], ["x1", "x3"]], 3, 1)
    cb = coprime_basis(C)
    assert [poly_to_text(b) for b in cb.basis] == ["x3", "x2", "x1"]
    assert cb.row_exponents == ((0, 1, 1), (1, 0, 1))
    for i, (exps, c) in enumerate(zip(cb.row_exponents, cb.row_scalars)):
        prod = SparsePoly.constant(Q, 3, c)
        for b, e in zip(cb.basis, exps):
            prod = prod * b ** e
        assert (prod - C.term(i)).is_zero
    for i, b1 in enumerate(cb.basis):
        for b2 in cb.basis[i + 1 :]:
            assert gcd_poly(b1, b2).is_constant


def test_coprime_basis_on_random_circuits():
    for seed in (0, 5, 9):
        C = gcd_depth4(seed, field=Q)
        cb = coprime_basis(C)
        for i, (exps, c) in enumerate(zip(cb.row_exponents, cb.row_scalars)):
            prod = SparsePoly.constant(Q, C.nvars, c)
            for b, e in zip(cb.basis, exps):
                prod = prod * b ** e
            assert (prod - C.term(i)).is_zero


def test_rank_disjoint_variables():
    C = circuit([["x1*x2"], ["x3*x4"]], 4, 2)
    assert rank(C) == 2


def test_rank_powers_of_one_linear_form():
    lin = P("x1 + x2", 2)
    C = Depth4Circuit(Q, 2, 2, [[lin * lin], [lin.scale(Q.from_int(3))]])
    assert rank(C) == 1


def test_rank_of_linear_circuit_matches_matrix_rank():
    # for degree-1 factors the transcendence degree is the rank of the
    # matrix of linear coefficients
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        rows = []
        for _ in range(k):
            facs = []
            for _ in range(rng.randint(1, 2)):
                terms = {}
                for i in range(n):
                    c = rng.randint(-2, 2)
                    if c:
                        terms[tuple(1 if j == i else 0 for j in range(n))] = Q.from_int(c)
                c0 = rng.randint(-2, 2)
                if c0:
                    terms[(0,) * n] = Q.from_int(c0)
                f = SparsePoly(Q, n, terms)
                if f.is_zero:
                    f = SparsePoly.variable(Q, n, 0)
                facs.append(f)
            rows.append(facs)
        C = Depth4Circuit(Q, n, 1, rows)
        mat = []
        for f in C.sparse_factors():
            unit = lambda i: tuple(1 if j == i else 0 for j in range(n))
            mat.append([f.terms.get(unit(i), Q.zero()) for i in range(n)])
        assert rank(C) == matrix_rank(*int_rows(mat, Q))[0]


def test_is_minimal_detects_vanishing_pair():
    C = circuit([["x1"], ["-x1"], ["x2"]], 2, 1)
    assert is_minimal(C) is False


def test_is_minimal_accepts_identity_with_no_vanishing_subset():
    C = depth3_identity(Q)
    assert full_sum(C).is_zero
    assert is_minimal(C) is True


def test_is_minimal_trivial_cases():
    # proper subsets of a 2-term circuit are single products, never zero
    C = circuit([["x1", "x2"], ["x1^2"]], 2, 2)
    assert is_minimal(C) is True
    assert is_minimal(circuit([["x1"]], 1, 1)) is True


def test_is_minimal_rejects_bad_arguments():
    T = circuit([["x1"], ["x2"], ["x1 + x2"]], 2, 1)
    with pytest.raises(ValueError):
        is_minimal(T, k_cap=2)


def test_simple_preservation_verifier():
    C = circuit([["x1"], ["x2"]], 2, 1)
    bad = VandermondeMap(Q, 2, 1, D1=3, D2=2, p=5, c=Q.from_int(1))
    good = VandermondeMap(Q, 2, 1, D1=3, D2=2, p=5, c=Q.from_int(2))
    assert verify_simple_preservation(C, bad) is False
    assert verify_simple_preservation(C, good) is True


def test_simple_preservation_threshold():
    C = circuit([["x1"], ["x2"]], 2, 1)
    low = VandermondeMap(Q, 2, 1, D1=2, D2=2, p=5, c=Q.from_int(2))
    with pytest.raises(ValueError, match="below the preservation thresholds"):
        verify_simple_preservation(C, low)


def test_simple_preservation_refuses_a_kronecker_map():
    C = circuit([["x1"], ["x2"]], 2, 1)
    phi = KroneckerMap(Q, 2, 1, [1], D=3, p=5, c=Q.from_int(2))
    with pytest.raises(ValueError, match="Vandermonde maps only"):
        verify_simple_preservation(C, phi)


def test_simple_preservation_of_a_factor_of_degree_1200():
    # the line's powers of x_1(t) are built one from the last, so a factor
    # of degree 1200 does not exhaust the recursion limit
    F = BIG_FIELD
    rows = [[poly_from_text("x1^1200 + x2", F, 3)], [poly_from_text("x3 + x1", F, 3)]]
    C = Depth4Circuit(F, 3, 1200, rows)
    mp = VandermondeMap(F, 3, 1, 2 * 1200 ** 2 + 1, 1201, 7, 3)
    assert verify_simple_preservation(C, mp) is True


def _preserved_row_by_row(C, mp):
    """The definition, kept as an oracle: no factor of C maps to zero, and
    the simple part of the image circuit is the image of the simple part,
    row product by row product, up to one unit."""

    def image_circuit(circ):
        rows = [[mp.apply(f) for f in row] for row in circ.rows]
        return Depth4Circuit(mp.field, mp.nvars_out, circ.delta, rows)

    try:
        image = image_circuit(C)
    except ValueError:
        # the map killed a factor
        return False
    lhs = image_circuit(simple_part(C))
    rhs = simple_part(image)
    field = C.field
    unit = field.div(rhs.term(0).leading_coefficient(), lhs.term(0).leading_coefficient())
    return all(rhs.term(i) == lhs.term(i).scale(unit) for i in range(C.k))


def _first_candidates(C, R=None):
    """Every map search_depth4_map tries at the first three primes."""
    n, delta = C.nvars, C.delta
    r = schedule("depth4", n=n, delta=delta, k=C.k, s=C.s, r=R).r
    D2 = delta + 1
    D1 = max(2 * delta * delta + 1, delta * r + 1, (n + 1) ** (r + 1), D2)
    for p, c in pc_candidates(C.field, 5, max(8, 2 * delta * C.k * C.s * r), 1):
        yield VandermondeMap(C.field, n, r, D1, D2, p, c)


def _mapped_rows(C, mp):
    return [[mp.apply(f) for f in row] for row in C.rows]


@pytest.mark.parametrize("field", [Q, BIG_FIELD, F3, F101], ids=["Q", "F_2^61-1", "F3", "F101"])
def test_preservation_agrees_with_old_definition(field):
    # c = 1 sends every x_i to the same affine form, so x1 - x2 maps to 0
    killable = [["x1 - x2", "x1 + x3"], ["x2", "x3"]]
    cases = [
        (rand_depth4(0, field=field, k=2, s=2, n=3, delta=2), None),
        (gcd_depth4(0, field=field), None),
        (gcd_depth4(5, field=field, k=3), 1),
        (cancelling_depth4(0, field=field), None),
        (depth3_identity(field), 1),
        (Depth4Circuit(field, 3, 1, [[poly_from_text(t, field, 3) for t in row]
                                     for row in killable]), None),
    ]
    pairs = killed = vanished = 0
    for C, R in cases:
        maps = list(_first_candidates(C, R))
        for size in range(1, C.k + 1):
            for I in itertools.combinations(range(C.k), size):
                sub = C.subcircuit(I)
                sim = simple_part(sub)
                for mp in maps:
                    new = verify_simple_preservation(sub, mp)
                    assert new == _preserved_row_by_row(sub, mp), (I, mp, mp.c)
                    pairs += 1
                    if any(f.is_zero for row in _mapped_rows(sub, mp) for f in row):
                        killed += 1
                        continue
                    mapped = Depth4Circuit(field, mp.nvars_out, C.delta, _mapped_rows(sim, mp))
                    if mapped.expand().is_zero:
                        h = mapped.term(0)
                        for i in range(1, mapped.k):
                            h = gcd_poly(h, mapped.term(i))
                        if not h.is_constant:
                            # the map sends the subcircuit to zero and shares
                            # a factor between its rows: not preserved
                            vanished += 1
                            assert new is False, (I, mp, mp.c)
    # over F_3 each prime has only c = 1 and c = 2
    assert pairs > (100 if field == F3 else 1000)
    assert killed > 0
    assert vanished > 0


def test_a_map_that_kills_the_circuit_certifies_no_zero():
    # over F_3 the first candidate, p = 2 and c = 1, sends all three
    # variables to one form and this nonzero circuit to zero; its rows share
    # a factor image, so the candidate keeps no simple part
    C = rand_depth4(2, F3, k=2, s=2, n=3, delta=1)
    assert not C.expand().is_zero
    first = next(_first_candidates(C))
    assert (first.p, first.c) == (2, 1)
    assert first.apply(full_sum(C)).is_zero
    assert verify_simple_preservation(C, first) is False
    assert pit_circuit(C).outcome == "nonzero"


def test_lift_preserves_simple_minimal_identity():
    base = depth3_identity(Q)
    assert poly_to_text(gcd_part(base)) == "1"
    assert is_minimal(base)
    L = lift_identity(base, 2)
    assert (L.delta, L.nvars, L.k) == (2, 4, 3)
    assert full_sum(L).is_zero
    assert is_minimal(L)
    assert poly_to_text(gcd_part(L)) == "1"
    rows = [[poly_to_text(f) for f in row] for row in simple_part(L).rows]
    assert rows == [["x1*x2"], ["x3*x4"], ["-x1*x2 - x3*x4"]]


def test_lift_to_higher_degree_stays_zero():
    L = lift_identity(depth3_identity(Q), 3)
    assert (L.delta, L.nvars) == (3, 6)
    assert full_sum(L).is_zero


def test_lift_keeps_nonzero_circuits_nonzero():
    C = circuit([["x1"], ["x2"]], 2, 1)
    L = lift_identity(C, 2)
    assert not full_sum(L).is_zero


def test_lift_rejects_higher_degree_input():
    C = circuit([["x1^2"], ["x2"]], 2, 2)
    with pytest.raises(ValueError, match="delta = 1"):
        lift_identity(C, 3)


def test_search_depth4_map_frozen_run():
    G = gcd_depth4(3, field=Q)
    res = search_depth4_map(G, seed=0)
    assert res.r == 1
    assert res.candidates_tried == 2
    assert res.map.to_json_dict() == {
        "kind": "psi",
        "field": {"kind": "rational"},
        "n": 2,
        "r": 1,
        "D1": 9,
        "D2": 3,
        "p": 2,
        "c": "2",
    }
    assert len(res.evidence) == 2 ** G.k - 1
    for entry in res.evidence:
        assert set(entry) == {"I", "rank", "image_rank_at_least", "simple_part_preserved"}
        assert entry["image_rank_at_least"] == entry["rank"]
        assert entry["simple_part_preserved"] is True
    assert verify_simple_preservation(G, res.map) is True


# searches over small prime fields as run before the evaluated rank screen
# and the rank certificate became one pass: (circuit, keywords, map (r, D1,
# D2, p, c), candidates_tried, evidence (I, rank, image_rank_at_least)).
# Over F_101 and F_3 a rank leg can miss at every seeded point and fall
# back to the symbolic trdeg of the images; the first, fourth and sixth
# cases take that path.
FROZEN_SMALL_FIELD_SEARCHES = [
    (lifted_identity(2, F101), {"R": 3},
     (3, 625, 3, 5, 2), 79,
     [([0], 0, 0), ([1], 0, 0), ([2], 0, 0), ([0, 1], 2, 2), ([0, 2], 2, 2), ([1, 2], 2, 2),
      ([0, 1, 2], 2, 2)]),
    (gcd_depth4(0, F101, k=3), {"R": 3},
     (3, 256, 3, 5, 2), 202,
     [([0], 0, 0), ([1], 0, 0), ([2], 0, 0), ([0, 1], 2, 2), ([0, 2], 2, 2), ([1, 2], 3, 3),
      ([0, 1, 2], 3, 3)]),
    (rand_depth4(1, F101, k=2, s=2, n=3, delta=2), {},
     (1, 16, 3, 3, 2), 20,
     [([0], 0, 0), ([1], 0, 0), ([0, 1], 2, 2)]),
    (rand_depth4(6, F3, k=2, s=2, n=3, delta=1), {},
     (1, 16, 2, 3, 2), 4,
     [([0], 0, 0), ([1], 0, 0), ([0, 1], 1, 1)]),
    (rand_depth4(3, F3, k=2, s=2, n=3, delta=2), {},
     (1, 16, 3, 5, 2), 6,
     [([0], 0, 0), ([1], 0, 0), ([0, 1], 3, 2)]),
    (lifted_identity(2, F3), {"R": 3},
     (3, 625, 3, 7, 2), 8,
     [([0], 0, 0), ([1], 0, 0), ([2], 0, 0), ([0, 1], 2, 2), ([0, 2], 2, 2), ([1, 2], 2, 2),
      ([0, 1, 2], 2, 2)]),
    (gcd_depth4(0, F3, k=3), {"R": 3},
     (3, 256, 3, 7, 2), 8,
     [([0], 0, 0), ([1], 0, 0), ([2], 0, 0), ([0, 1], 3, 3), ([0, 2], 3, 3), ([1, 2], 2, 2),
      ([0, 1, 2], 3, 3)]),
]


@pytest.mark.parametrize("C, kw, mp, tried, evidence", FROZEN_SMALL_FIELD_SEARCHES)
def test_small_field_depth4_searches_are_frozen(C, kw, mp, tried, evidence):
    res = search_depth4_map(C, **kw)
    r, D1, D2, p, c = mp
    assert res.map.to_json_dict() == {
        "kind": "psi", "field": C.field.to_json(), "n": C.nvars, "r": r,
        "D1": D1, "D2": D2, "p": p, "c": c,
    }
    assert res.candidates_tried == tried
    assert res.evidence == [
        {"I": I, "rank": rho, "image_rank_at_least": bound, "simple_part_preserved": True}
        for I, rho, bound in evidence
    ]


def test_search_depth4_map_deterministic():
    G = gcd_depth4(3, field=Q)
    a = json.dumps(search_depth4_map(G, seed=0).to_json_dict(), sort_keys=True)
    b = json.dumps(search_depth4_map(G, seed=0).to_json_dict(), sort_keys=True)
    assert a == b
