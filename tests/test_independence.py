import itertools
import json
import random
from unittest import mock

import pytest

from _gen import form_poly, rand_poly
from pitkit import independence
from pitkit.fields import FieldSpec
from pitkit.linalg import eval_matrix
from pitkit.independence import (
    TrdegCertificate,
    annihilator,
    evaluated_rank,
    jacobian,
    trdeg,
    verify_trdeg_certificate,
)
from pitkit.polynomials import BudgetExceeded, SparsePoly, normalize_monic, poly_from_text

Q = FieldSpec("rational")
F2 = FieldSpec("prime", 2)
# first prime at or above 2^61, for the large-field randomized-rank contract
HUGE = FieldSpec("prime", 2305843009213693967)


def P(text, nvars, field=Q):
    return poly_from_text(text, field, nvars)


def tightness_family(field=Q):
    return [P("x1", 2, field), P("x2 - x1^2", 2, field), P("x2^2", 2, field)]


def hint_family():
    # f_i = (x1^i + x2^2 + x3^2 + x4^2) * x4^i, i = 1..4
    fs = []
    for i in range(1, 5):
        head = P("x1^%d + x2^2 + x3^2 + x4^2" % i, 4)
        fs.append(head * P("x4^%d" % i, 4))
    return fs


def entries(fs):
    """jacobian(fs) as SparsePolys, each checked against f.derivative(j)."""
    rows = [[form_poly(e, Q, 2) for e in row] for row in jacobian(fs)]
    assert rows == [[f.derivative(j) for j in range(2)] for f in fs]
    return rows


def test_jacobian_entries():
    J = entries([P("x1", 2), P("x2", 2)])
    assert J[0] == [P("1", 2), P("0", 2)]
    assert J[1] == [P("0", 2), P("1", 2)]
    J = entries(tightness_family())
    assert J[0] == [P("1", 2), P("0", 2)]
    assert J[1] == [P("-2*x1", 2), P("1", 2)]
    assert J[2] == [P("0", 2), P("2*x2", 2)]
    J = entries([P("7", 2)])
    assert all(e.is_zero for e in J[0])


def jacobian_rank(fs):
    return independence.jacobian_rank(fs)[0]


def test_jacobian_rank():
    assert jacobian_rank(tightness_family()) == 2
    rng = random.Random(8)
    f = rand_poly(rng, Q, 2, 2, 3)
    assert jacobian_rank([f, f * f]) == 1
    assert jacobian_rank([P("3", 2), P("-1", 2)]) == 0


def test_randomized_rank_never_exceeds_symbolic():
    rng = random.Random(42)
    agree = total = 0
    for seed in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        fs = [rand_poly(rng, HUGE, n, 2, 3) for _ in range(m)]
        J = jacobian(fs)
        sym = jacobian_rank(fs)
        rnd = evaluated_rank(lambda pt: eval_matrix(J, HUGE.integers(pt)), HUGE, n, n, seed)[0]
        assert rnd <= sym
        agree += rnd == sym
        total += 1
    # Schwartz-Zippel at field size >= 2^61: equality essentially always
    assert agree >= 0.99 * total


def test_trdeg_tightness():
    cert = trdeg(tightness_family())
    assert cert.r == 2 and cert.exact


def test_trdeg_hint_family():
    cert = trdeg(hint_family())
    assert cert.r == 3 and cert.exact


def test_trdeg_dependent_pair():
    rng = random.Random(77)
    for _ in range(5):
        f = rand_poly(rng, Q, 2, 2, 3)
        cert = trdeg([f, f * f])
        assert cert.r == 1 and cert.exact


def test_trdeg_modes_agree_small():
    rng = random.Random(3)
    for seed in range(25):
        n = rng.randint(1, 2)
        m = rng.randint(1, 3)
        fs = [rand_poly(rng, Q, n, 2, 2) for _ in range(m)]
        assert trdeg(fs, mode="jacobian").r == trdeg(fs, mode="bruteforce").r


def test_small_characteristic_gate():
    # d/dx(x^2) = 0 over F_2, yet x^2 is transcendental; the Jacobian alone
    # must not be trusted as exact here
    fs = [P("x1^2", 1, F2)]
    auto = trdeg(fs, mode="auto")
    assert auto.r == 1 and auto.exact and auto.mode == "bruteforce"
    jac = trdeg(fs, mode="jacobian")
    assert jac.r == 0 and not jac.exact and jac.mode == "jacobian-lower-bound"



def test_an_independent_subset_past_the_entry_limit_gives_a_flagged_bound():
    # over F_5 the Jacobian gate fails (5 <= 2^4), and the annihilator
    # search alone decides each subset; the independent {f1, f2, f3} keeps
    # every column it builds, 1,555 entries at its Perron cap 4.  No other
    # decision stands in when a search passes the limit: trdeg gives the
    # Jacobian rank as a flagged lower bound
    F5 = FieldSpec("prime", 5)
    texts = ["x1^2 + 2*x2*x3 + x4 + 1", "x2^2 + x3*x4 - x1 + 3", "x3^2 + 2*x1*x4 + x2^2 + x1"]
    fs = [P(t, 4, F5) for t in texts]
    fs.append(fs[0] + fs[1])
    cert = trdeg(fs)
    assert (cert.r, cert.exact) == (3, True)
    assert [e["method"] for e in cert.witness["independence_chain"]] == ["kernel-empty"] * 3
    with mock.patch.object(independence, "MAX_STREAM_ENTRIES", 1554):
        bound = trdeg(fs)
        with pytest.raises(BudgetExceeded):
            trdeg(fs, mode="bruteforce")
    assert (bound.r, bound.exact, bound.mode) == (3, False, "jacobian-lower-bound")
    assert bound.witness["method"] == "bruteforce-budget-exceeded"

def test_annihilator_dependent_pair():
    A = annihilator([P("x1", 1), P("x1^2", 1)], 2)
    assert normalize_monic(A) == P("x1^2 - x2", 2)
    rng = random.Random(19)
    for _ in range(3):
        f = rand_poly(rng, Q, 2, 2, 2)
        A = annihilator([f, f * f], 2)
        assert A is not None and not A.is_zero
        assert A.substitute([f, f * f]).is_zero


def test_annihilator_independent_none():
    assert annihilator([P("x1", 2), P("x2", 2)], 3) is None


def test_annihilator_tightness_cap():
    # delta = 2, n = 2: nothing below degree delta^n = 4
    fs = tightness_family()
    assert annihilator(fs, 3) is None
    A = annihilator(fs, 4)
    assert normalize_monic(A) == P("x1^4 + 2*x1^2*x2 + x2^2 - x3", 3)
    assert A.substitute(fs).is_zero


def test_matroid_maximal_independent_sets():
    # every greedy-maximal independent subset has size trdeg
    rng = random.Random(55)
    for seed in range(8):
        n = rng.randint(1, 2)
        fs = [rand_poly(rng, Q, n, 2, 2) for _ in range(rng.randint(2, 4))]
        r = trdeg(fs).r

        def independent(sub):
            return len(sub) == trdeg(list(sub)).r if sub else True

        for perm in itertools.islice(itertools.permutations(range(len(fs))), 6):
            chosen = []
            for i in perm:
                if independent([fs[j] for j in chosen] + [fs[i]]):
                    chosen.append(i)
            assert len(chosen) == r


def test_trdeg_monotone_and_unit_steps():
    rng = random.Random(66)
    for _ in range(10):
        fs = [rand_poly(rng, Q, 2, 2, 2) for _ in range(3)]
        r = trdeg(fs).r
        assert trdeg(fs[:2]).r <= r <= trdeg(fs[:2]).r + 1


def test_trdeg_invariant_under_recombination():
    rng = random.Random(91)
    for _ in range(8):
        fs = [rand_poly(rng, Q, 2, 2, 2) for _ in range(3)]
        mixed = [fs[0], fs[1] + fs[0].scale(Q.from_int(3)), fs[2] - fs[1]]
        assert trdeg(mixed).r == trdeg(fs).r


def test_certificate_verification_and_round_trip():
    fs = tightness_family()
    cert = trdeg(fs)
    assert verify_trdeg_certificate(fs, cert)
    blob = json.dumps(cert.to_json_dict(), sort_keys=True)
    again = TrdegCertificate.from_json_dict(json.loads(blob))
    assert verify_trdeg_certificate(fs, again)
    assert json.dumps(again.to_json_dict(), sort_keys=True) == blob

    bad = json.loads(blob)
    bad["r"] = cert.r + 1
    assert not verify_trdeg_certificate(fs, TrdegCertificate.from_json_dict(bad))

    bf = trdeg(fs, mode="bruteforce")
    assert bf.r == 2 and verify_trdeg_certificate(fs, bf)
    tampered = json.loads(json.dumps(bf.to_json_dict()))
    tampered["basis"] = [0]
    tampered["r"] = 1
    assert not verify_trdeg_certificate(fs, TrdegCertificate.from_json_dict(tampered))
