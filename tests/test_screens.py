"""The point-free candidate screens of the Vandermonde searches.

VandermondeMap.affine_summary gives the linear rank k of a map x = b + M z
and a canonical key of its affine image b + colspace(M).  The searches
reject a candidate whose k is below the target (the rank bound) and, in
the depth-4 search, a candidate whose key repeats one whose preservation
leg failed (equal keys).  Before either, the candidate stream skips every
prime whose generic linear rank (varmaps.generic_linear_rank) is below
the target (the whole-prime screen).  The depth-4 search also decides
preservation once per prime through sigma_p, the map that merges the
variables of equal exponent rows (the sigma screen).  Tested here: the
lemmas as hypothesis properties, the canonical form behind the key, and
differential runs showing that the screens change no search result.
"""

import itertools
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _gen import (gcd_depth4, int_rows, lifted_identity, map_images, rand_depth4,  # noqa: E402
                  rand_poly, substitute_reference)
from pitkit import depth4, linalg, varmaps  # noqa: E402
from pitkit.circuits import Depth4Circuit  # noqa: E402
from pitkit.depth4 import search_depth4_map, verify_simple_preservation  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit.hitting import pit_circuit  # noqa: E402
from pitkit.independence import _random_point, _subseed, evaluated_rank, jacobian, trdeg  # noqa: E402
from pitkit.polynomials import SparsePoly, poly_from_text  # noqa: E402
from pitkit.varmaps import VandermondeMap, search_vandermonde_map  # noqa: E402

Q = FieldSpec("rational")
F3 = FieldSpec("prime", 3)
F101 = FieldSpec("prime", 101)
F61 = FieldSpec("prime", (1 << 61) - 1)
RANK_FIELDS = [F3, F101, Q, F61]
SEARCH_FIELDS = [Q, F101, F61]
SEARCH_IDS = ["Q", "F101", "F2^61-1"]


def full_images_only(mp, image, seed):
    """depth4._preservation without the line leg and the one-row shortcut:
    every subset, one-row ones too, gets its simple part, and the
    criterion runs on the images in w variables."""

    def preserved(C, sim):
        if sim is None:
            sim = depth4.simple_part(C)
        return depth4._preserves_simple_part(C, sim, image, lambda f: image(f).is_zero)

    return preserved


def no_screens(monkeypatch):
    """Make every summary the no-op one: full linear rank, and a key no
    other map shares; every prime's generic linear rank full; give every
    prime a sigma_p that decides nothing (no class count any linear rank
    equals, nothing killed, nothing shared); and decide every preservation
    leg on the full images (full_images_only)."""
    monkeypatch.setattr(VandermondeMap, "affine_summary",
                        lambda mp: (mp.nvars_out, object()))
    monkeypatch.setattr(varmaps, "generic_linear_rank", lambda n, r, *_: r + 1)
    monkeypatch.setattr(depth4, "_merge", lambda C, sims, table: depth4._Merge(None, (), False, ()))
    monkeypatch.setattr(depth4, "_preservation", full_images_only)


def random_vandermonde_map(rng, field, n):
    """A map with small p, so that degenerate (low linear rank) maps are
    common among the draws."""
    r = rng.randint(1, 3)
    p = rng.choice([2, 3, 5, 7])
    top = 6 if field.kind == "rational" else min(6, field.p - 1)
    c = field.from_int(rng.randint(1, top))
    D1 = rng.randint(2, 40)
    D2 = rng.randint(2, 6)
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


@given(st.integers(0, 10 ** 9))
@pytest.mark.parametrize("field", RANK_FIELDS, ids=["F3", "F101", "Q", "F2^61-1"])
def test_linear_rank_bounds_image_jacobian_rank_and_trdeg(field, stream):
    rng = random.Random(stream)
    n = rng.randint(2, 4)
    mp = random_vandermonde_map(rng, field, n)
    k, _ = mp.affine_summary()
    w = mp.nvars_out
    units = [tuple(int(q == t) for q in range(w)) for t in range(w)]
    M = [[img.terms.get(u, field.zero()) for u in units] for img in map_images(mp)]
    assert k == linalg.rank(*int_rows(M, field))[0] <= min(n, mp.nvars_out)
    fs = [rand_poly(rng, field, n, 2, 3) for _ in range(rng.randint(1, 3))]
    J = jacobian(fs)
    seed = rng.randint(0, 50)
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


@given(st.integers(0, 10 ** 9))
@pytest.mark.parametrize("field", SEARCH_FIELDS, ids=SEARCH_IDS)
def test_equal_keys_give_equal_preservation_verdicts(field, stream):
    # p = 2 with n odd: every x_i maps to b + c^(D2 mod 2) z0 + z1 + ... +
    # z_r with b in {1, c}, so all c share the diagonal line as key.  All
    # draws come from one seeded stream (see the test of sigma's verdict)
    n = 3
    delta = 2
    rng = random.Random(stream)
    k = rng.randint(2, 3)
    s = rng.randint(1, 2)
    rows = [[rand_poly(rng, field, n, delta, 3) for _ in range(s)] for _ in range(k)]
    if rng.random() < 0.5:
        # a shared factor, so that the simple part differs from C
        g = rand_poly(rng, field, n, 1, 2)
        rows = [[g] + row for row in rows]
    C = Depth4Circuit(field, n, delta, rows)
    r = rng.randint(1, 3)
    D1 = rng.randint(2 * delta * delta + 1, 40)
    D2 = rng.randint(delta + 1, 6)
    top = 6 if field.kind == "rational" else 100
    c1, c2 = (field.from_int(rng.randint(1, top)) for _ in range(2))
    m1 = VandermondeMap(field, n, r, D1, D2, 2, c1)
    m2 = VandermondeMap(field, n, r, D1, D2, 2, c2)
    assert m1.affine_summary() == m2.affine_summary()
    assert verify_simple_preservation(C, m1) == verify_simple_preservation(C, m2)


def test_equal_key_pairs_cover_both_verdicts(monkeypatch):
    # the lemma above is not vacuous: among p = 2 maps of one key, some
    # circuits keep their simple part and some do not.  These maps have
    # linear rank 1, so the line decides both verdicts, and no image in w
    # variables is ever built
    field = F101
    x = [poly_from_text("x%d" % i, field, 3) for i in (1, 2, 3)]
    one = poly_from_text("1", field, 3)
    kept = Depth4Circuit(field, 3, 2, [[x[0]], [x[1] + one]])
    lost = Depth4Circuit(field, 3, 2, [[x[0]], [x[1]]])
    maps = [VandermondeMap(field, 3, 1, 16, 3, 2, c) for c in (1, 2, 5)]
    assert len({mp.affine_summary() for mp in maps}) == 1
    assert maps[0].affine_summary()[0] == 1

    def no_image(mp, f):
        raise AssertionError("a full image was built")

    monkeypatch.setattr(varmaps.AffineMap, "apply", no_image)
    assert [verify_simple_preservation(kept, mp) for mp in maps] == [True] * 3
    assert [verify_simple_preservation(lost, mp) for mp in maps] == [False] * 3


def test_one_row_subsets_get_no_coprime_basis(monkeypatch):
    # k = 2: of the subsets {0}, {1} and {0, 1}, only the pair needs a
    # simple part
    calls = []
    real = depth4.coprime_basis
    monkeypatch.setattr(depth4, "coprime_basis", lambda C: calls.append(C) or real(C))
    found = search_depth4_map(rand_depth4(2, Q, k=2, s=2, n=3))
    assert [e["I"] for e in found.evidence] == [[0], [1], [0, 1]]
    assert len(calls) == 1


@pytest.mark.parametrize("field", RANK_FIELDS, ids=["F3", "F101", "Q", "F2^61-1"])
def test_line_decision_matches_the_full_images(field):
    """The line leg of depth4._preservation gives the verdict of the
    criterion on the full images, on random subcircuits and maps.  The
    draws reach a rank-1 pass and fail, and maps of rank >= 2 that the line
    decides and that fall back to the full images.  All draws come from
    one seeded stream, as in the test of sigma's verdict, so that the
    coverage does not hang on which integers hypothesis favours."""
    seen = set()

    @settings(max_examples=150)
    @given(st.integers(0, 10 ** 9))
    def check(stream):
        rng = random.Random(stream)
        n = rng.randint(2, 4)
        mp = random_vandermonde_map(rng, field, n)
        delta = rng.randint(1, 2)
        k = rng.randint(1, 3)
        rows = [[rand_poly(rng, field, n, delta, 3) for _ in range(rng.randint(1, 2))]
                for _ in range(k)]
        # x = b + M z; the line of the leg runs along M_0
        images = map_images(mp)
        b = [img.terms.get((0,) * mp.nvars_out, field.zero()) for img in images]
        m0 = [img.terms[(1,) + (0,) * mp.r] for img in images]
        unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        extra = rng.choice(["none", "a shared factor", "a shared root"])
        if extra == "a shared factor":
            g = rand_poly(rng, field, n, 1, 2)
            rows = [[g] + row for row in rows]
        elif extra == "a shared root":
            # x_j - x_j(b + M_0) in each row: their images under a map of
            # linear rank 1 all vanish where the one linear form is 1
            for row in rows:
                j = rng.randrange(n)
                row.insert(0, SparsePoly(field, n, {
                    unit[j]: field.one(), (0,) * n: field.neg(field.add(b[j], m0[j]))}))
        if rng.random() < 0.5:
            # a factor whose top form vanishes at M_0, so that its line
            # image drops in degree
            rows[0].append(SparsePoly(field, n, {
                unit[0]: m0[1], unit[1]: field.neg(m0[0]), (0,) * n: field.one()}))
        C = Depth4Circuit(field, n, delta, rows)
        seed = rng.randint(0, 50)
        full = depth4._memo(mp.apply)
        expected = depth4._preserves_simple_part(
            C, depth4.simple_part(C), full, lambda f: full(f).is_zero)
        built = []
        image = depth4._memo(lambda f: built.append(f) or mp.apply(f))
        got = depth4._preservation(mp, image, seed)(C, depth4.simple_part(C) if k > 1 else None)
        assert got == expected
        # the line images are psi(f) at z = a + t e_0 for the seeded a
        a = _random_point(field, random.Random(_subseed(seed, 4)), mp.nvars_out)
        t = SparsePoly(field, 1, {(1,): field.one()})
        z = [t + SparsePoly.constant(field, 1, a[0])] + [
            SparsePoly.constant(field, 1, x) for x in a[1:]]
        line = depth4._line(mp, seed)
        line_images = [substitute_reference(img, z) for img in images]
        for f in {f for row in C.rows for f in row}:
            assert line(f) == substitute_reference(f, line_images)
        rank = mp.affine_summary()[0]
        if rank == 1:
            assert not built
            seen.add(("rank 1", got))
        else:
            seen.add(("rank >= 2", "fallback" if built else "line"))

    check()
    assert seen == {("rank 1", True), ("rank 1", False),
                    ("rank >= 2", "line"), ("rank >= 2", "fallback")}


# -- sigma_p: the map that merges variables of equal exponent rows -----------


def _search_spied(C, monkeypatch, **kw):
    """search_depth4_map(C, **kw) as a JSON dict, with the (p, c) of every
    candidate that reaches _certify_depth4, of every AffineMap.apply call
    and of every two-value test (with its outcome)."""
    seen = {"certify": [], "apply": [], "two-value": []}
    real_certify, real_apply = depth4._certify_depth4, varmaps.AffineMap.apply
    real_nonconstant = depth4._nonconstant_image

    def certify(mp, *args):
        seen["certify"].append((mp.p, mp.c))
        return real_certify(mp, *args)

    def apply(mp, f):
        seen["apply"].append((mp.p, mp.c))
        return real_apply(mp, f)

    def nonconstant(mp, *args):
        out = real_nonconstant(mp, *args)
        seen["two-value"].append((mp.p, mp.c, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(depth4, "_certify_depth4", certify)
        m.setattr(varmaps.AffineMap, "apply", apply)
        m.setattr(depth4, "_nonconstant_image", nonconstant)
        return search_depth4_map(C, **kw).to_json_dict(), seen


def _unscreened(C, monkeypatch, **kw):
    with monkeypatch.context() as m:
        no_screens(m)
        return search_depth4_map(C, **kw).to_json_dict()


def test_a_prime_where_sigma_kills_a_factor_is_skipped_whole(monkeypatch):
    # n = 3, D1 = 16, D2 = 3: at p = 2 every variable has the exponent row
    # (0, 1, 0), so sigma_2 merges all three and sends x1 - x2 to 0
    x1, x2, x3 = (poly_from_text("x%d" % i, Q, 3) for i in (1, 2, 3))
    one = SparsePoly.one(Q, 3)
    C = Depth4Circuit(Q, 3, 2, [[x1 - x2, x3 + one], [x1 + x3 * x3, x2 + one]])
    table = varmaps.vandermonde_exponents(3, 1, 16, 3, 2)
    merge = depth4._merge(C, [depth4.simple_part(C)], table)
    assert (merge.q, merge.killed) == (1, True)
    found, seen = _search_spied(C, monkeypatch)
    assert found["map"]["p"] > 2
    assert all(p > 2 for p, _ in seen["certify"])
    # the whole prime counts as its c sample, so the count is unchanged
    assert found == _unscreened(C, monkeypatch)


def test_a_prime_where_sigma_kills_a_factor_rejects_every_candidate(monkeypatch):
    # (x1 - x2)(x3 + 1) - (x2 - x3)(x1 + 2) is nonzero; at p = 2 sigma_p
    # merges all three variables and kills x1 - x2, so every map there sends
    # the circuit to 0.  Without the whole-prime skip, each candidate at
    # p = 2 reaches _certify_depth4, which must reject it just the same
    x1, x2, x3 = (poly_from_text("x%d" % i, Q, 3) for i in (1, 2, 3))
    C = Depth4Circuit(Q, 3, 1, [[x1 - x2, x3 + poly_from_text("1", Q, 3)],
                                [x3 - x2, x1 + poly_from_text("2", Q, 3)]])
    screened = pit_circuit(C).to_json_dict(Q)
    assert screened["outcome"] == "nonzero"
    assert (screened["provenance"]["map"]["p"], screened["provenance"]["map"]["c"]) == (3, "2")
    real = depth4.vandermonde_candidates
    monkeypatch.setattr(depth4, "vandermonde_candidates", lambda *args: real(*args[:-1], None))
    assert pit_circuit(C).to_json_dict(Q) == screened


def test_the_q1_prime_2_of_a_random_k2_circuit_is_skipped_whole(monkeypatch):
    # at p = 2 every variable of this circuit merges into one (q = 1), and
    # the merged rows share a factor: no c at p = 2 preserves the simple
    # part, nor does the diagonal map x_i -> 1 + z_0 + z_1, which c = 1 at
    # p = 3 is; its key is rejected before any rank leg
    C = rand_depth4(0, Q, k=2, s=2, n=3)
    table = varmaps.vandermonde_exponents(3, 1, 16, 3, 2)
    merge = depth4._merge(C, [depth4.simple_part(C)], table)
    assert merge.q == 1 and not merge.killed and merge.shared
    ranked = []
    real_rank = depth4.evaluated_rank

    def spy_rank(jac_at, *args, **kw):
        mp = jac_at.func.__self__
        ranked.append((mp.p, mp.c))
        return real_rank(jac_at, *args, **kw)

    monkeypatch.setattr(depth4, "evaluated_rank", spy_rank)
    found, seen = _search_spied(C, monkeypatch)
    assert (found["map"]["p"], found["candidates_tried"]) == (3, 20)
    assert all(p > 2 for p, _ in seen["certify"]) and (3, 1) in seen["certify"]
    assert (3, 1) not in ranked
    assert found == _unscreened(C, monkeypatch)


def test_a_candidate_of_linear_rank_q_takes_the_verdict_of_sigma(monkeypatch):
    # at p = 2 this circuit's variables all merge (q = 1) and its merged
    # rows share no factor; the first candidate has linear rank 1 = q and
    # wins with no preservation check and no image
    C = rand_depth4(2, Q, k=2, s=2, n=3)
    checks = []
    real_preserves = depth4._preserves_simple_part
    monkeypatch.setattr(depth4, "_preserves_simple_part",
                        lambda *a: checks.append(1) or real_preserves(*a))
    found, seen = _search_spied(C, monkeypatch)
    assert (found["map"]["p"], found["candidates_tried"]) == (2, 1)
    assert not checks and not seen["apply"]
    assert found == _unscreened(C, monkeypatch)
    assert checks


def test_the_lifted_identity_at_delta_7_is_rejected_at_p5_by_two_values(monkeypatch):
    # n = 14: at p = 5 the exponent rows merge the variables into q = 4
    # classes, whose images share a factor; every candidate there has
    # linear rank below 4, and the two-value test rejects it without
    # building an image
    C = lifted_identity(7, Q)
    found, seen = _search_spied(C, monkeypatch)
    at5 = [out for p, _, out in seen["two-value"] if p == 5]
    assert at5 and all(at5)
    assert not any(p == 5 for p, _ in seen["apply"])
    assert found["map"]["p"] == 11 and found["candidates_tried"] == 523


@pytest.mark.parametrize("field", SEARCH_FIELDS, ids=SEARCH_IDS)
def test_at_linear_rank_q_the_verdict_is_that_of_sigma(field):
    """For every map psi of linear rank k = q, the number of classes of
    sigma_p, verify_simple_preservation(C, psi) is V_p: sigma_p kills no
    factor of C and keeps its simple part.  The draws plant factors that
    sigma_p kills or makes common to the rows, and reach both verdicts
    with q = 1 and with q > 1.  Everything is drawn from one seeded
    stream: hypothesis favours some integers, and which ones depends on
    the modules loaded, so direct draws can miss a verdict in one test
    run and not in another."""
    seen = set()

    @settings(max_examples=150)
    @given(st.integers(0, 10 ** 9))
    def check(seed):
        rng = random.Random(seed)
        n, delta, r = rng.randint(2, 4), rng.randint(1, 2), rng.randint(1, 3)
        p = rng.choice([2, 3, 5, 7])
        D2 = rng.randint(delta + 1, 6)
        D1 = rng.randint(max(2 * delta * delta + 1, D2), 40)
        top = 6 if field.kind == "rational" else field.p - 1
        mp = VandermondeMap(field, n, r, D1, D2, p, field.from_int(rng.randint(1, top)))
        table = varmaps.vandermonde_exponents(n, r, D1, D2, p)
        rows = [[rand_poly(rng, field, n, delta, 3) for _ in range(rng.randint(1, 2))]
                for _ in range(rng.randint(1, 3))]
        # two variables of one class, if there are any
        i, j = next(((i, j) for i in range(n) for j in range(i + 1, n)
                     if table[i] == table[j]), (0, 1))
        x = [SparsePoly.variable(field, n, v) for v in range(n)]
        plant = rng.choice(["none", "a killed factor", "a merged common factor"])
        if plant == "a killed factor":
            rows[-1].append(x[i] - x[j])
        elif plant == "a merged common factor":
            # x_i + 1 and x_j + 1 are coprime, but sigma_p makes them equal
            one = SparsePoly.one(field, n)
            for row, v in zip(rows, itertools.cycle((i, j))):
                row.append(x[v] + one)
        C = Depth4Circuit(field, n, delta, rows)
        merge = depth4._merge(C, [depth4.simple_part(C)], table)
        if mp.affine_summary()[0] != merge.q:
            return
        verdict = not merge.killed and not merge.shared
        assert verify_simple_preservation(C, mp) == verdict
        seen.add(("q = 1" if merge.q == 1 else "q > 1", verdict))

    check()
    assert seen == {("q = 1", True), ("q = 1", False), ("q > 1", True), ("q > 1", False)}


# -- the screens change no search result --------------------------------------


def depth4_cases(field):
    yield "random k=2 #%d", [
        (rand_depth4(seed, field, k=2, s=2, n=3), {}) for seed in range(4)]
    yield "gcd-sharing k=3 #%d", [
        (gcd_depth4(seed, field, k=3), {"R": 3}) for seed in range(2)]
    yield "lifted identity #%d", [(lifted_identity(2, field), {"R": 3})]
    # sigma_p merges variables at the first primes: the lifted identities at
    # delta = 3..5 (n = 2 delta; R = 1 at delta = 5 keeps the unscreened run
    # short) reach the two-value rejection, and at p = 2 the gcd-sharing
    # circuit merges every variable into one and fails, a skipped prime
    yield "lifted identity at delta = 3..5 #%d", [
        (lifted_identity(3, field), {"R": 3}), (lifted_identity(4, field), {"R": 3}),
        (lifted_identity(5, field), {"R": 1})]
    yield "gcd-sharing k=3, R=1 #%d", [(gcd_depth4(0, field, k=3), {"R": 1})]


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
