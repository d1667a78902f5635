"""The point-free candidate screens of the Vandermonde searches.

VandermondeMap.affine_summary gives the linear rank k of a map x = b + M z
and a canonical key of its affine image b + colspace(M).  The searches
reject a candidate whose k is below the target (the rank bound) and, in
the depth-4 search, a candidate whose key repeats one whose preservation
leg failed (equal keys).  Before either, the candidate stream skips every
prime whose generic linear rank (varmaps.generic_linear_rank) is below
the target (the whole-prime screen).  Tested here: the lemmas as
hypothesis properties, the canonical form behind the key, and
differential runs showing that the screens change no search result.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _gen import gcd_depth4, int_rows, lifted_identity, rand_depth4, rand_poly  # noqa: E402
from pitkit import depth4, linalg, varmaps  # noqa: E402
from pitkit.circuits import Depth4Circuit  # noqa: E402
from pitkit.depth4 import search_depth4_map, verify_simple_preservation  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.independence import evaluated_rank, jacobian, trdeg  # noqa: E402
from pitkit.polynomials import poly_from_text  # noqa: E402
from pitkit.varmaps import VandermondeMap, search_vandermonde_map  # noqa: E402

Q = FieldSpec("rational")
F3 = FieldSpec("prime", 3)
F101 = FieldSpec("prime", 101)
F61 = FieldSpec("prime", (1 << 61) - 1)
RANK_FIELDS = [F3, F101, Q, F61]
SEARCH_FIELDS = [Q, F101, F61]
SEARCH_IDS = ["Q", "F101", "F2^61-1"]


def no_screens(monkeypatch):
    """Make every summary the no-op one: full linear rank, and a key no
    other map shares; and every prime's generic linear rank full."""
    monkeypatch.setattr(VandermondeMap, "affine_summary",
                        lambda mp: (mp.nvars_out, object()))
    monkeypatch.setattr(varmaps, "generic_linear_rank", lambda n, r, *_: r + 1)


@st.composite
def vandermonde_maps(draw, field, n):
    """A map with small p, so that degenerate (low linear rank) maps are
    common among the draws."""
    r = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    top = 6 if field.kind == "rational" else min(6, field.p - 1)
    c = field.from_int(draw(st.integers(1, top)))
    D1 = draw(st.integers(2, 40))
    D2 = draw(st.integers(2, 6))
    return VandermondeMap(field, n, r, D1, D2, p, c)


# -- the canonical form behind the key -------------------------------------


@given(st.data())
@pytest.mark.parametrize("field", [F3, F101, Q], ids=["F3", "F101", "Q"])
def test_reduced_echelon_is_a_canonical_basis_of_the_row_space(field, data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 5))
    ints = st.integers(-4, 4)
    A = [[field.normalize(data.draw(ints)) for _ in range(cols)] for _ in range(rows)]
    rank, basis = linalg.reduced_echelon(*int_rows(A, field))
    assert rank == linalg.rank(*int_rows(A, field))[0] == len(basis)
    # an invertible row transform (a random unit lower-triangular matrix
    # times a permutation) keeps the row space and so the canonical rows
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    perm = rng.sample(range(rows), rows)
    B = [list(A[i]) for i in perm]
    for i in range(rows):
        for j in range(i):
            x = field.from_int(rng.randint(-3, 3))
            B[i] = [field.add(a, field.mul(x, b)) for a, b in zip(B[i], B[j])]
    assert linalg.reduced_echelon(*int_rows(B, field)) == (rank, basis)
    # and each canonical row lies in the row space of A
    for row in basis:
        assert linalg.rank(*int_rows(A + [list(row)], field))[0] == rank


def test_reduced_echelon_rows_over_q_are_primitive_with_positive_pivot():
    A = [[Fraction(2), Fraction(4), Fraction(1, 3)], [Fraction(-1), Fraction(-2), Fraction(5)]]
    assert linalg.reduced_echelon(*int_rows(A, Q)) == (2, ((1, 2, 0), (0, 0, 1)))
    assert linalg.reduced_echelon(*int_rows([[Fraction(-3, 2), Fraction(9, 4)]], Q)) == (1, ((2, -3),))


def test_summary_of_a_p2_map_is_the_diagonal_line_for_every_c():
    # p = 2 and n + 1 = 4 even: every x_i maps to 1 + c z0 + z1 (D1 = 16
    # even, D2 = 3 odd), so the image is the diagonal line for every c
    summaries = {VandermondeMap(Q, 3, 1, 16, 3, 2, c).affine_summary() for c in range(1, 7)}
    assert summaries == {(1, ((1, 0, 0, 0), (0, 1, 1, 1)))}


def test_linear_rank_equal_to_the_target_passes_the_screen():
    # n = 2 = r0: no map has linear rank above the target, so the screen
    # must let k == r0 through; the winner p = 2, c = 2 is such a map
    fs = [poly_from_text(t, Q, 2) for t in ("x1 + x2^2", "x2")]
    mp = VandermondeMap(Q, 2, 2, 27, 2, 2, Q.from_int(2))
    assert mp.affine_summary()[0] == 2
    cert = varmaps._certify(fs, jacobian(fs), mp, 2, 0)
    assert cert is not None and cert.r == 2
    # and in the depth-4 search: the winner's linear rank is the target 1
    found = search_depth4_map(rand_depth4(2, Q, k=2, s=2, n=3))
    assert found.map.affine_summary()[0] == found.r == 1
    assert found.candidates_tried == 1


# -- lemma 1: the rank bound ---------------------------------------------------


@given(st.data())
@pytest.mark.parametrize("field", RANK_FIELDS, ids=["F3", "F101", "Q", "F2^61-1"])
def test_linear_rank_bounds_image_jacobian_rank_and_trdeg(field, data):
    n = data.draw(st.integers(2, 4))
    mp = data.draw(vandermonde_maps(field, n))
    k, _ = mp.affine_summary()
    w = mp.nvars_out
    units = [tuple(int(q == t) for q in range(w)) for t in range(w)]
    M = [[img.terms.get(u, field.zero()) for u in units] for img in mp.images()]
    assert k == linalg.rank(*int_rows(M, field))[0] <= min(n, mp.nvars_out)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    fs = [rand_poly(rng, field, n, 2, 3) for _ in range(data.draw(st.integers(1, 3)))]
    J = jacobian(fs)
    seed = data.draw(st.integers(0, 50))
    # seeded points: no trial of the screen, with a ceiling of w (out of
    # reach: only min(rows, cols) stops it) or of k, passes k, and a ceiling
    # of k leaves the max over the trials as it is
    w = mp.nvars_out
    full = evaluated_rank(lambda a: mp.jacobian_at(J, a), field, w, w, seed)[0]
    capped = evaluated_rank(lambda a: mp.jacobian_at(J, a), field, w, k, seed)[0]
    assert full == capped <= k
    if mp.nvars_out <= 3:
        assert trdeg([mp.apply(f) for f in fs], mode="auto").r <= k


# -- the whole-prime screen ---------------------------------------------------


F2 = FieldSpec("prime", 2)
BOUND_FIELDS = [F2, F3, F101, F61, Q]
BOUND_IDS = ["F2", "F3", "F101", "F2^61-1", "Q"]


@given(st.data())
@pytest.mark.parametrize("field", BOUND_FIELDS, ids=BOUND_IDS)
def test_generic_linear_rank_bounds_the_linear_rank_of_every_c(field, data):
    n = data.draw(st.integers(1, 6))
    r = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    D1 = data.draw(st.integers(2, 400))
    D2 = data.draw(st.integers(2, 6))
    bound = varmaps.generic_linear_rank(n, r, D1, D2, p)
    assert 1 <= bound <= min(n, r + 1)
    top = 12 if field.kind == "rational" else min(12, field.p - 1)
    cs = [field.from_int(v) for v in range(1, top + 1)]
    if field.kind == "rational":
        cs += [Q.div(Q.from_int(a), Q.from_int(3)) for a in (-2, -1, 1, 2)]
    ranks = [VandermondeMap(field, n, r, D1, D2, p, c).affine_summary()[0] for c in cs]
    assert max(ranks) <= bound


def test_generic_linear_ranks_of_the_exact_psi_schedule():
    # {x1 + x2^2, x2*x3, x1^2 + x3}: n = r = 3, delta = 2, ell = 2.  The
    # exact search needs linear rank 3; only p = 5 can give it
    sched = varmaps.schedule("sparse-char0", n=3, delta=2, r=3, d=2, ell=2)
    assert (sched.D1, sched.D2) == (20736, 2)
    assert [varmaps.generic_linear_rank(3, 3, sched.D1, sched.D2, p)
            for p in (2, 3, 5)] == [1, 2, 3]


def _walk(maps, fs, r0, seed):
    """(map, candidates_tried) of the first map of maps that _certify
    proves, or the SearchExhausted message."""
    J = jacobian(fs)
    try:
        mp, _, tried = varmaps.first_certified(
            maps, lambda mp: varmaps._certify(fs, J, mp, r0, seed), "test", 13)
    except varmaps.SearchExhausted as exc:
        return str(exc)
    return mp.to_json_dict(), tried


@given(st.data())
@pytest.mark.parametrize("field", SEARCH_FIELDS, ids=SEARCH_IDS)
def test_screened_stream_finds_the_map_of_the_plain_stream(field, data):
    n = data.draw(st.integers(2, 4))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    fs = [rand_poly(rng, field, n, 2, 3) for _ in range(data.draw(st.integers(2, 3)))]
    r0 = trdeg(fs).r
    r = data.draw(st.integers(max(1, r0), 3))
    D1 = data.draw(st.integers(2, 100))
    D2 = data.draw(st.integers(2, 6))
    c_max, c_per_p = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 1))
    seed = data.draw(st.integers(0, 50))
    plain = (VandermondeMap(field, n, r, D1, D2, p, c)
             for p, c in varmaps.pc_candidates(field, 13, c_max, c_per_p))
    screened = varmaps.vandermonde_candidates(field, n, r, D1, D2, 13, c_max, c_per_p, r0)
    assert _walk(screened, fs, r0, seed) == _walk(plain, fs, r0, seed)


# -- lemma 2: equal keys, equal preservation verdicts ------------------------


@given(st.data())
@pytest.mark.parametrize("field", SEARCH_FIELDS, ids=SEARCH_IDS)
def test_equal_keys_give_equal_preservation_verdicts(field, data):
    # p = 2 with n odd: every x_i maps to b + c^(D2 mod 2) z0 + z1 + ... +
    # z_r with b in {1, c}, so all c share the diagonal line as key
    n = 3
    delta = 2
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    k = data.draw(st.integers(2, 3))
    s = data.draw(st.integers(1, 2))
    rows = [[rand_poly(rng, field, n, delta, 3) for _ in range(s)] for _ in range(k)]
    if data.draw(st.booleans()):
        # a shared factor, so that the simple part differs from C
        g = rand_poly(rng, field, n, 1, 2)
        rows = [[g] + row for row in rows]
    C = Depth4Circuit(field, n, delta, rows)
    r = data.draw(st.integers(1, 3))
    D1 = data.draw(st.integers(2 * delta * delta + 1, 40))
    D2 = data.draw(st.integers(delta + 1, 6))
    top = 6 if field.kind == "rational" else 100
    c1, c2 = (field.from_int(data.draw(st.integers(1, top))) for _ in range(2))
    m1 = VandermondeMap(field, n, r, D1, D2, 2, c1)
    m2 = VandermondeMap(field, n, r, D1, D2, 2, c2)
    assert m1.affine_summary() == m2.affine_summary()
    assert verify_simple_preservation(C, m1) == verify_simple_preservation(C, m2)


def test_equal_key_pairs_cover_both_verdicts():
    # the lemma above is not vacuous: among p = 2 maps of one key, some
    # circuits keep their simple part and some do not
    field = F101
    x = [poly_from_text("x%d" % i, field, 3) for i in (1, 2, 3)]
    one = poly_from_text("1", field, 3)
    kept = Depth4Circuit(field, 3, 2, [[x[0]], [x[1] + one]])
    lost = Depth4Circuit(field, 3, 2, [[x[0]], [x[1]]])
    maps = [VandermondeMap(field, 3, 1, 16, 3, 2, c) for c in (1, 2, 5)]
    assert len({mp.affine_summary() for mp in maps}) == 1
    assert [verify_simple_preservation(kept, mp) for mp in maps] == [True] * 3
    assert [verify_simple_preservation(lost, mp) for mp in maps] == [False] * 3


# -- the screens change no search result --------------------------------------


def depth4_cases(field):
    yield "random k=2 #%d", [
        (rand_depth4(seed, field, k=2, s=2, n=3), {}) for seed in range(4)]
    yield "gcd-sharing k=3 #%d", [
        (gcd_depth4(seed, field, k=3), {"R": 3}) for seed in range(2)]
    yield "lifted identity #%d", [(lifted_identity(2, field), {"R": 3})]


@pytest.mark.parametrize("field", SEARCH_FIELDS, ids=SEARCH_IDS)
def test_screens_change_no_depth4_search_result(field, monkeypatch):
    preserved = []
    real_preserves = depth4._preserves_simple_part
    monkeypatch.setattr(depth4, "_preserves_simple_part",
                        lambda *a: preserved.append(1) or real_preserves(*a))
    screened = {}
    for name, cases in depth4_cases(field):
        for i, (C, kw) in enumerate(cases):
            screened[name % i] = search_depth4_map(C, **kw).to_json_dict()
    checks_with_screens = len(preserved)
    no_screens(monkeypatch)
    for name, cases in depth4_cases(field):
        for i, (C, kw) in enumerate(cases):
            assert search_depth4_map(C, **kw).to_json_dict() == screened[name % i], name % i
    # the screens did reject candidates here, or the comparison shows nothing
    assert checks_with_screens < len(preserved) - checks_with_screens


def faithful_families(field):
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randint(2, 4)
        yield [rand_poly(rng, field, n, 2, 3) for _ in range(rng.randint(1, 3))]
    yield [poly_from_text(t, field, 3) for t in ("x1 + x2^2", "x2*x3", "x3")]
    yield [poly_from_text("x1 - x3", field, 4)]


@pytest.mark.parametrize("field", SEARCH_FIELDS, ids=SEARCH_IDS)
def test_screens_change_no_faithful_search_result(field, monkeypatch):
    screened = [search_vandermonde_map(fs).to_json_dict() for fs in faithful_families(field)]
    assert any(res["candidates_tried"] > 1 for res in screened)
    no_screens(monkeypatch)
    assert [search_vandermonde_map(fs).to_json_dict()
            for fs in faithful_families(field)] == screened


@pytest.mark.parametrize("screens", [True, False], ids=["screens", "no-screens"])
def test_a_rank_leg_miss_does_not_reject_the_key(screens, monkeypatch):
    # over a big field the evaluated rank leg can miss at every seeded point
    # by bad luck; simulate that for the first candidate.  The next
    # candidate has the same key (p = 2 maps the variables to one line) and
    # must still be certified: only preservation failures are remembered.
    C = rand_depth4(2, Q, k=2, s=2, n=3)
    first = search_depth4_map(C)
    assert (first.map.p, first.candidates_tried) == (2, 1)
    second = VandermondeMap(Q, 3, 1, first.map.D1, first.map.D2, 2, Q.from_int(2))
    assert second.affine_summary()[1] == first.map.affine_summary()[1]
    if not screens:
        no_screens(monkeypatch)
    real_rank = depth4.evaluated_rank

    def unlucky_first(jac_at, *args, **kw):
        mp = jac_at.func.__self__
        return (0, [], None) if (mp.p, mp.c) == (2, 1) else real_rank(jac_at, *args, **kw)

    monkeypatch.setattr(depth4, "evaluated_rank", unlucky_first)
    found = search_depth4_map(C)
    assert (found.map.p, found.map.c, found.candidates_tried) == (2, 2, 2)
