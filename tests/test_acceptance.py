"""Acceptance gate: nine corpus-level criteria, one pass line each.

Every test prints "AC<n> PASS" with its runtime and enforces the stated
budget, so a full run gives one line per criterion.
"""

import json
import math
import time

from pitkit.depth4 import gcd_part, search_depth4_map, simple_part, verify_simple_preservation
from pitkit.fields import FieldSpec
from pitkit.hitting import _adaptive_set, bad_prime_census, pit, pit_circuit
from pitkit.independence import annihilator, trdeg, verify_trdeg_certificate
from pitkit.polynomials import SparsePoly, normalize_monic, poly_from_text, poly_to_text
from pitkit.primes import primes_in
from pitkit.varmaps import (
    conjectured_rank_bound,
    schedule,
    search_kronecker_map,
    search_vandermonde_map,
)

from _gen import (
    AGREE_FIELD,
    BIG_FIELD,
    RATIONAL,
    cancelling_depth4,
    gcd_depth4,
    hint_family,
    lifted_identity,
    rand_composed,
    rand_depth4,
    rand_family,
    rand_sparse_univariate,
    rand_poly,
    smallchar_instance,
    zero_composed,
)

Q = RATIONAL


def _report(name, t0, budget, detail=""):
    dt = time.time() - t0
    assert dt < budget, "%s exceeded its %ds budget (%.1fs)" % (name, budget, dt)
    print("%s PASS%s (%.2fs)" % (name, " " + detail if detail else "", dt))


def _full_sum(C):
    total = SparsePoly.zero(C.field, C.nvars)
    for i in range(C.k):
        total = total + C.term(i)
    return total


def _pit_zero(C, seed, R=None):
    """The driver's verdict on C, as "is C zero"."""
    return pit_circuit(C, seed=seed, R=R).outcome == "zero"


def test_ac1_tightness_family():
    t0 = time.time()
    fs = [poly_from_text(t, Q, 2) for t in ("x1", "x2 - x1^2", "x2^2")]
    cert = trdeg(fs)
    assert cert.r == 2 and cert.exact
    assert annihilator(fs, 3) is None
    F = annihilator(fs, 4)
    assert F is not None
    assert F.substitute(fs).is_zero
    assert poly_to_text(normalize_monic(F)) == "x1^4 + 2*x1^2*x2 + x2^2 - x3"
    _report("AC1", t0, 10, "tightness family: r=2, no cap-3 annihilator, cap-4 verified")


def test_ac2_jacobian_matches_bruteforce():
    t0 = time.time()
    total = 0
    for seed in range(200):
        fs = rand_family(seed)
        rj = trdeg(fs, mode="jacobian")
        rb = trdeg(fs, mode="bruteforce")
        assert rj.r == rb.r, (seed, rj.r, rb.r)
        assert rb.exact
        total += 1
    _report("AC2", t0, 300, "jacobian == bruteforce on %d families" % total)


def test_ac3_quartic_family_faithful_map():
    t0 = time.time()
    fs = hint_family(Q)
    cert = trdeg(fs)
    assert cert.r == 3 and cert.exact
    found = search_vandermonde_map(fs, r=3, seed=0)
    assert found.input_cert.r == 3
    assert found.image_cert.r == 3
    assert verify_trdeg_certificate(fs, found.input_cert)
    imgs = [found.map.apply(f) for f in fs]
    assert verify_trdeg_certificate(imgs, found.image_cert, upper_bound=found.input_cert.r)
    _report("AC3", t0, 60, "r=3 preserved by certified Vandermonde reduction")


def test_ac4_pit_agrees_with_expand():
    t0 = time.time()
    composed_n = zeros = 0
    for seed in range(100):
        C = rand_composed(seed)
        assert _pit_zero(C, seed) == C.expand(10 ** 6).is_zero, seed
        composed_n += 1
    for seed in range(12):
        C = zero_composed(seed)
        assert C.expand(10 ** 6).is_zero
        assert _pit_zero(C, seed) is True, seed
        composed_n += 1
        zeros += 1
    depth4_n = 0
    for seed in range(100):
        C = rand_depth4(seed)
        assert _pit_zero(C, seed) == C.expand(10 ** 6).is_zero, seed
        depth4_n += 1
    for seed in range(8):
        C = cancelling_depth4(seed)
        assert _pit_zero(C, seed) is True, seed
        depth4_n += 1
        zeros += 1
    for field in (Q, BIG_FIELD):
        L = lifted_identity(2, field)
        assert _full_sum(L).is_zero
        assert _pit_zero(L, 0, R=3) is True, field.kind
        depth4_n += 1
        zeros += 1
    assert composed_n >= 100 and depth4_n >= 100 and zeros >= 20
    _report(
        "AC4", t0, 600,
        "%d composed + %d depth-4 instances, %d constructed zeros" % (composed_n, depth4_n, zeros),
    )


def test_ac5_simple_part_preservation():
    t0 = time.time()
    checked = 0
    for seed in range(35):
        field = Q if seed % 2 else BIG_FIELD
        C = gcd_depth4(seed, field=field)
        assert not gcd_part(C).is_constant
        res = search_depth4_map(C, seed=seed)
        assert verify_simple_preservation(C, res.map) is True, seed
        assert (gcd_part(C) * _full_sum(simple_part(C)) - _full_sum(C)).is_zero
        checked += 1
    for seed in range(15):
        field = Q if seed % 2 else BIG_FIELD
        C = gcd_depth4(seed, field=field, k=3)
        assert not gcd_part(C).is_constant
        res = search_depth4_map(C, R=3, seed=seed)
        assert verify_simple_preservation(C, res.map) is True, seed
        assert (gcd_part(C) * _full_sum(simple_part(C)) - _full_sum(C)).is_zero
        checked += 1
    _report("AC5", t0, 300, "preservation held on %d circuits with nontrivial gcd" % checked)


def test_ac6_sparse_pit_prime_bound():
    t0 = time.time()
    import random

    rng = random.Random(99)
    ps = primes_in(521)
    for _ in range(500):
        f = rand_sparse_univariate(rng)
        ell, d = f.num_terms(), f.degree()
        count, _ = bad_prime_census(f, ps)
        assert count <= math.floor(ell * math.log2(d) - 1), (ell, d, count)
    t6 = poly_from_text("x1^6 - 1", Q, 1)
    count, bad = bad_prime_census(t6, ps)
    assert (count, bad) == (2, [2, 3])
    _report("AC6", t0, 60, "census within floor(ell*log2(d) - 1) on 500 inputs")


def test_ac7_small_characteristic_path():
    t0 = time.time()
    zeros = nonzeros = 0
    for seed in range(60):
        C, is_zero = smallchar_instance(seed)
        inners = list(C.inputs)
        r0 = trdeg(inners).r
        d = max(1, C.degree_bound())
        found = search_kronecker_map(inners, r=min(max(r0, 1), C.nvars), seed=seed)
        evidence = {"image_certificate": found.image_cert.to_json_dict()}
        hs = _adaptive_set(found.map, "any-char", evidence, d)
        verdict = pit(C.evaluate, hs)
        assert (verdict.outcome == "zero") == is_zero, seed
        zeros += is_zero
        nonzeros += not is_zero
    assert zeros >= 10 and nonzeros >= 10
    _report("AC7", t0, 300, "%d zero + %d nonzero instances over F2/F3" % (zeros, nonzeros))


def _clog2(x):
    return (x - 1).bit_length()


def _expect_sparse(n, delta, r, d, ell):
    D1 = (2 * delta * n) ** (r + 1)
    p_max = (2 * n * r * ell) ** (2 * (r + 1)) * _clog2(D1) ** 2 + 1
    return {"D1": D1, "D2": 2, "p_max": p_max, "h1": delta * r * p_max, "h2": d + 1, "r": r}


def _expect_anychar(n, delta, r, d):
    D = delta ** (r + 1) + 1
    p_max = (n + delta ** r) ** (8 * delta ** (r + 1)) * _clog2(D) ** 2 + 1
    return {"D1": D, "D2": None, "p_max": p_max, "h1": delta ** r * r * p_max, "h2": d + 1, "r": r}


def _expect_depth4(n, delta, k, s, r):
    D1 = (2 * delta * n) ** (2 * r)
    p_max = (
        2 ** (2 * (k + 1))
        * (2 * k * r * s * n * delta ** 2) ** (8 * delta ** 2 + 4 * delta * r)
        * _clog2(D1) ** 2
        + 1
    )
    h1 = 2 ** (k + 2) * k ** 2 * r * s ** 2 * delta ** 4 * p_max
    return {"D1": D1, "D2": delta + 1, "p_max": p_max, "h1": h1, "h2": delta * s + 1, "r": r}


def _check_schedule(sched, expect):
    assert sched.D1 == expect["D1"]
    assert sched.D2 == expect["D2"]
    assert sched.p_max == expect["p_max"]
    assert sched.h1_size == expect["h1"]
    assert sched.h2_size == expect["h2"]
    assert sched.r == expect["r"]


def test_ac8_schedules_match_hand_computation():
    t0 = time.time()
    # anchor values worked out by hand, big-integer exact
    anchor = schedule("sparse-char0", n=1, delta=1, r=1, d=3, ell=1)
    assert (anchor.D1, anchor.D2, anchor.p_max, anchor.h1_size, anchor.h2_size) == (4, 2, 65, 65, 4)
    anchor = schedule("any-char", n=3, delta=2, r=1, d=4)
    assert anchor.D1 == 5 and anchor.D2 is None
    assert anchor.p_max == 209547579288482666015626
    assert anchor.h1_size == 419095158576965332031252
    assert anchor.h2_size == 5
    anchor = schedule("depth4", n=1, delta=1, k=2, s=1)
    assert (anchor.D1, anchor.D2, anchor.r) == (4, 2, 1)
    assert anchor.p_max == 4294967297
    assert anchor.h1_size == 274877907008
    assert anchor.h2_size == 2

    for n, delta, r, d, ell in ((1, 1, 1, 3, 1), (2, 2, 1, 4, 2), (3, 3, 2, 9, 4), (5, 2, 3, 10, 3)):
        _check_schedule(
            schedule("sparse-char0", n=n, delta=delta, r=r, d=d, ell=ell),
            _expect_sparse(n, delta, r, d, ell),
        )
    for n, delta, r, d in ((1, 1, 1, 2), (3, 2, 1, 4), (2, 3, 2, 6)):
        _check_schedule(
            schedule("any-char", n=n, delta=delta, r=r, d=d),
            _expect_anychar(n, delta, r, d),
        )
    _check_schedule(schedule("depth4", n=1, delta=1, k=2, s=1), _expect_depth4(1, 1, 2, 1, 1))
    _check_schedule(schedule("depth4", n=2, delta=2, k=3, s=2), _expect_depth4(2, 2, 3, 2, 6))
    assert conjectured_rank_bound(1, 3, 3) == 3 * max(1, _clog2(4))
    _check_schedule(
        schedule("depth4", n=2, delta=1, k=3, s=3, conjecture_R=True),
        _expect_depth4(2, 1, 3, 3, 6),
    )
    _report("AC8", t0, 1, "10 parameter tuples, big-integer exact")


def test_ac9_reruns_are_byte_identical():
    t0 = time.time()

    def depth4_run(seed):
        C = rand_depth4(seed)
        found = search_depth4_map(C, seed=seed)
        hs = _adaptive_set(found.map, "depth4", {"evidence": found.evidence}, C.delta * C.s)
        v = pit(C.evaluate, hs)
        return json.dumps(
            {"verdict": v.to_json_dict(C.field), "provenance": hs.provenance},
            sort_keys=True, default=str,
        )

    def faithful_run(seed):
        fs = rand_family(seed)
        found = search_vandermonde_map(fs, seed=seed)
        return json.dumps(found.to_json_dict(), sort_keys=True)

    def composed_run(seed):
        C = rand_composed(seed)
        return json.dumps({"zero": _pit_zero(C, seed)}, sort_keys=True)

    def schedule_run(seed):
        s = schedule("sparse-char0", n=1 + seed % 3, delta=1 + seed % 2, r=1, d=3, ell=2)
        return json.dumps(s.to_json_dict(), sort_keys=True)

    for runner in (depth4_run, faithful_run, composed_run, schedule_run):
        for seed in range(10):
            assert runner(seed) == runner(seed), (runner.__name__, seed)
    _report("AC9", t0, 300, "four corpora re-run byte-identical")
