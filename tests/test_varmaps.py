import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from _gen import rand_poly
from pitkit.fields import FieldError, FieldSpec
from pitkit.independence import trdeg, verify_trdeg_certificate
from pitkit.polynomials import SparsePoly, poly_from_text, poly_to_text
from pitkit.primes import primes_in
from pitkit.varmaps import (
    KroneckerMap,
    SearchExhausted,
    SkippedPrime,
    VandermondeMap,
    ceil_log2,
    conjectured_rank_bound,
    family_sizes,
    first_certified,
    map_from_json_dict,
    schedule,
    search_kronecker_map,
    search_vandermonde_map,
    vandermonde_applies,
)

Q = FieldSpec("rational")
F101 = FieldSpec("prime", 101)


def P(text, nvars, field=Q):
    return poly_from_text(text, field, nvars)


def tightness_family(field=Q):
    return [P("x1", 2, field), P("x2 - x1^2", 2, field), P("x2^2", 2, field)]


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_schedule_sparse_char0():
    s = schedule("sparse-char0", n=1, delta=1, r=1, d=3, ell=1)
    assert (s.D1, s.D2) == (4, 2)
    assert s.p_max == 65 and s.h1_size == 65 and s.h2_size == 4
    assert s.kind == "sparse-char0" and s.r == 1


def test_schedule_any_char():
    s = schedule("any-char", n=3, delta=2, r=1, d=4)
    assert s.D1 == 5 and s.D2 is None
    # (3 + 2)^32 * ceil(log2 5)^2 + 1, checked by hand with big integers
    assert s.p_max == 209547579288482666015626
    assert s.h1_size == 419095158576965332031252
    assert s.h2_size == 5


def test_schedule_depth4():
    s = schedule("depth4", n=1, delta=1, k=2, s=1)
    assert (s.D1, s.D2) == (4, 2)
    assert s.r == 1  # proven bound for top fanin 2
    assert s.p_max == 4294967297
    assert s.h1_size == 274877907008
    assert s.h2_size == 2


def test_schedule_depth4_rank_defaults():
    assert schedule("depth4", n=2, delta=2, k=3, s=2).r == 6  # trivial ks
    assert schedule("depth4", n=2, delta=1, k=3, s=3, conjecture_R=True).r == 6
    assert conjectured_rank_bound(1, 3, 3) == 6
    assert conjectured_rank_bound(2, 2, 5) == 12


def test_schedule_validation():
    with pytest.raises(ValueError):
        schedule("sparse-char0", n=1, delta=1, r=1, d=3)  # ell missing
    with pytest.raises(ValueError):
        schedule("bogus", n=1, delta=1)


def test_schedule_json():
    s = schedule("sparse-char0", n=2, delta=2, r=1, d=4, ell=2)
    d = s.to_json_dict()
    assert d["p_max"] == (2 * 2 * 1 * 2) ** 4 * ceil_log2(64) ** 2 + 1
    assert d["provenance"] == "exact-sparse-char0"
    assert d["params"]["ell"] == 2


# c as a residue, and over Q with a denominator, so that the integer columns
# of the maps are scaled by L = q^E
MAP_FIELDS = [
    (F101, 2),
    (Q, Fraction(3, 2)),
    (Q, Fraction(-5, 7)),
    (FieldSpec("prime", (1 << 61) - 1), 3),
]
MAP_IDS = ["F101", "Q-3/2", "Q-neg5/7", "F2^61-1"]


def power(field, c, e):
    """c^e as a Fraction power over Q and a modular power over F_p."""
    return Fraction(c) ** e if field.kind == "rational" else pow(c, e, field.p)


@pytest.mark.parametrize("field, c", MAP_FIELDS, ids=MAP_IDS)
def test_kronecker_map_images(field, c):
    # n=3, r=1, I={1}, D=5, p=3: residues 5 mod 3 = 2 and 25 mod 3 = 1,
    # so the dropped variables go to c^2 and c^1
    mp = KroneckerMap(field, 3, 1, [1], 5, 3, c)
    imgs = [mp.apply(P("x%d" % (i + 1), 3, field)) for i in range(3)]
    assert poly_to_text(imgs[0]) == "x1"
    assert imgs[1] == SparsePoly.constant(field, 1, power(field, c, 2))
    assert imgs[2] == SparsePoly.constant(field, 1, power(field, c, 1))


@pytest.mark.parametrize("field, c", MAP_FIELDS, ids=MAP_IDS)
def test_vandermonde_map_images(field, c):
    # spot-check the definition against plain integer arithmetic
    n, r, D1, D2, p = 2, 1, 3, 2, 5
    mv = VandermondeMap(field, n, r, D1, D2, p, c)
    for i in range(1, n + 1):
        want = {
            (0, 0): power(field, c, pow(D1, i, p)),
            (1, 0): power(field, c, pow(D2, i, p)),
            (0, 1): power(field, c, (i * 3) % p),
        }
        img = mv.apply(P("x%d" % i, n, field))
        assert dict(img.sorted_terms()) == want


def test_maps_are_homomorphisms():
    rng = random.Random(12)
    mp = KroneckerMap(F101, 3, 1, [2], 5, 7, F101.from_int(3))
    mv = VandermondeMap(F101, 3, 1, 9, 2, 7, F101.from_int(3))
    for mapping in (mp, mv):
        for _ in range(8):
            f = rand_poly(rng, F101, 3, 2, 3)
            g = rand_poly(rng, F101, 3, 2, 3)
            assert mapping.apply(f * g) == mapping.apply(f) * mapping.apply(g)
            assert mapping.apply(f + g) == mapping.apply(f) + mapping.apply(g)


def test_point_images_consistency():
    rng = random.Random(18)
    mp = KroneckerMap(F101, 3, 1, [1], 5, 3, F101.from_int(2))
    mv = VandermondeMap(F101, 3, 2, 16, 2, 7, F101.from_int(5))
    for mapping, arity in ((mp, 1), (mv, 3)):
        for _ in range(8):
            f = rand_poly(rng, F101, 3, 2, 3)
            zpt = tuple(F101.from_int(rng.randrange(101)) for _ in range(arity))
            assert mapping.apply(f).eval(zpt) == f.eval(mapping.point_images(zpt))


def test_residues_match_naive_powers():
    # the map reduces D^i mod p by modular exponentiation, never holding
    # D^i itself; compare against materialized big integers
    c, D, p = 3, 5, 7
    mp = KroneckerMap(F101, 4, 1, [1], D, p, F101.from_int(c))
    for i, xname in enumerate(("x2", "x3", "x4"), start=1):
        img = mp.apply(P(xname, 4, F101))
        naive_exp = (D ** i) % p
        assert img == P(str(pow(c, naive_exp, 101)), 1, F101)


def test_search_kronecker_trivial():
    res = search_kronecker_map([P("x1", 2)], r=1)
    d = res.map.to_json_dict()
    assert d["I"] == [1] and d["D"] == 2 and d["p"] == 2 and d["c"] == "1"
    assert res.candidates_tried == 1
    assert res.image_cert.r == 1 and res.image_cert.exact


def test_search_kronecker_identity_when_r_equals_n():
    res = search_kronecker_map(tightness_family(), r=2)
    assert res.map.to_json_dict()["I"] == [1, 2]
    assert res.image_cert.r == 2


def test_search_kronecker_drops_variables():
    s = P("x1 + x2 + x3", 3)
    res = search_kronecker_map([s, s * s], r=1)
    d = res.map.to_json_dict()
    assert (d["I"], d["D"], d["p"], d["c"]) == ([1], 5, 2, "1")
    assert res.candidates_tried == 1
    assert trdeg([res.map.apply(f) for f in (s, s * s)]).r == 1


def test_search_vandermonde_tightness():
    res = search_vandermonde_map(tightness_family(), r=2)
    d = res.map.to_json_dict()
    assert (d["D1"], d["D2"], d["p"], d["c"]) == (27, 2, 2, "2")
    assert res.candidates_tried == 2
    assert res.input_cert.r == 2 and res.image_cert.r == 2


def test_search_vandermonde_dependent_pair():
    rng = random.Random(0)
    f = rand_poly(rng, Q, 2, 2, 3)
    res = search_vandermonde_map([f, f * f], r=1)
    assert res.image_cert.r == 1 and res.image_cert.exact
    imgs = [res.map.apply(g) for g in (f, f * f)]
    cert = trdeg(imgs)
    assert cert.r == 1 and verify_trdeg_certificate(imgs, cert)


def test_search_certificates_reverify():
    fs = tightness_family()
    res = search_vandermonde_map(fs, r=2)
    assert verify_trdeg_certificate(fs, res.input_cert)
    imgs = [res.map.apply(f) for f in fs]
    assert verify_trdeg_certificate(imgs, res.image_cert, upper_bound=res.input_cert.r)


def test_search_rejects_r_below_trdeg():
    with pytest.raises(ValueError):
        search_kronecker_map([P("x1", 1)], r=0)
    with pytest.raises(ValueError):
        search_vandermonde_map([P("x1", 2), P("x2", 2)], r=1)


def test_vandermonde_char_gate():
    F2 = FieldSpec("prime", 2)
    with pytest.raises(FieldError):
        search_vandermonde_map([P("x1^2", 1, F2)], r=1)
    # over F_2 the only c is 1: every x_i maps to the same affine form
    with pytest.raises(FieldError):
        search_vandermonde_map([P("x1 + 1", 2, F2), P("x2", 2, F2)])
    assert vandermonde_applies(F2, 1, 1) and not vandermonde_applies(F2, 1, 2)
    F3 = FieldSpec("prime", 3)
    assert vandermonde_applies(F3, 1, 2) and not vandermonde_applies(F3, 2, 2)
    assert vandermonde_applies(Q, 5, 4)


def test_map_json_round_trip():
    mp = KroneckerMap(F101, 3, 1, [2], 5, 7, F101.from_int(3))
    mv = VandermondeMap(F101, 3, 2, 16, 3, 7, F101.from_int(5))
    rng = random.Random(40)
    for mapping in (mp, mv):
        blob = json.dumps(mapping.to_json_dict(), sort_keys=True)
        again = map_from_json_dict(json.loads(blob))
        assert json.dumps(again.to_json_dict(), sort_keys=True) == blob
        f = rand_poly(rng, F101, 3, 2, 3)
        assert again.apply(f) == mapping.apply(f)


def test_search_determinism():
    fs = tightness_family()
    a = search_vandermonde_map(fs, r=2, seed=123)
    b = search_vandermonde_map(fs, r=2, seed=123)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


def test_exact_psi_search_takes_the_first_certified_map_of_the_schedule():
    # (x1 - 1)(x2 - 1) and x3^2 over F_101, trdeg 2: the exact search walks
    # schedule("sparse-char0", ...).maps(field, n) and stops at the first
    # map whose images keep trdeg 2; every earlier map loses it
    fs = [P("x1*x2 - x1 - x2 + 1", 3, F101), P("x3^2", 3, F101)]
    res = search_vandermonde_map(fs, mode="exact")
    delta, ell = family_sizes(fs)
    sched = schedule("sparse-char0", n=3, delta=delta, r=2, d=2, ell=ell)
    walked = list(itertools.islice(sched.maps(F101, 3), res.candidates_tried))
    assert res.candidates_tried == 102
    assert walked[-1].to_json_dict() == res.map.to_json_dict()
    assert all(trdeg([mp.apply(f) for f in fs]).r < 2 for mp in walked[:-1])


def test_schedule_maps_match_count_and_arity():
    for kind, kw in (("any-char", {"r": 2, "d": 1}), ("sparse-char0", {"r": 1, "d": 1, "ell": 1}),
                     ("depth4", {"k": 2, "s": 1})):
        sched = schedule(kind, n=2, delta=1, **kw)
        maps = list(itertools.islice(sched.maps(F101, 2), 10 ** 4))
        # F_101 caps the c sample at 100 per prime, far below h1_size
        assert len(maps) < sched.count(2)
        assert {mp.nvars_out for mp in maps} == {sched.w(2)}
    # one map per prime up to p_max and per c; count is p_max * h1_size
    sched = schedule("any-char", n=1, delta=1, r=1, d=1)
    walked = sum(1 for _ in sched.maps(Q, 1))
    assert walked == len(primes_in(sched.p_max)) * sched.h1_size < sched.count(1)


def _toy_maps(field, ps):
    """Stand-ins for candidate maps: first_certified reads only field and p."""
    return [SimpleNamespace(field=field, p=p, name=name) for p, name in zip(ps, "abcd")]


def test_first_certified_returns_the_first_proof():
    toys = _toy_maps(F101, [2, 2, 3, 3])
    assert first_certified(iter(toys), lambda m: m.name.upper() if m.name > "b" else None,
                           "toy", 7) == (toys[2], "C", 3)
    with pytest.raises(SearchExhausted, match="no certified toy map after 4 candidates "
                                              r"\(p bound 7\)"):
        first_certified(iter(toys), lambda m: None, "toy", 7)
    # over F_2 every prime repeats the maps of p = 2: the loop stops at p = 3
    with pytest.raises(SearchExhausted, match="no certified toy map over F_2 after 2 "
                                              "candidates"):
        first_certified(iter(_toy_maps(FieldSpec("prime", 2), [2, 2, 3, 3])),
                        lambda m: None, "toy", 7)


def test_first_certified_counts_a_skipped_prime_as_its_candidates():
    toys = _toy_maps(F101, [3, 3])
    maps = [SkippedPrime(F101, 2, 40), *toys]
    assert first_certified(iter(maps), lambda m: m.name if m.name == "b" else None,
                           "toy", 7) == (toys[1], "b", 42)
    with pytest.raises(SearchExhausted, match="after 42 candidates"):
        first_certified(iter(maps), lambda m: None, "toy", 7)
    # the F_2 rule reads a skipped prime as it reads a map
    F2 = FieldSpec("prime", 2)
    maps = [SkippedPrime(F2, 2, 1), SkippedPrime(F2, 3, 1)]
    with pytest.raises(SearchExhausted, match="over F_2 after 1 candidates"):
        first_certified(iter(maps), lambda m: None, "toy", 7)
