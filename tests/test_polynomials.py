import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import pitkit
from _gen import rand_poly
from pitkit import polynomials
from pitkit.fields import FieldSpec
from pitkit.independence import annihilator
from pitkit.polynomials import (
    ExactDivisionError,
    PackedRing,
    ParseError,
    SparsePoly,
    divide_exact,
    divides,
    gcd_poly,
    gradedlex_key,
    normalize_monic,
    poly_from_text,
    poly_to_text,
)

Q = FieldSpec("rational")
F7 = FieldSpec("prime", 7)


def P(text, nvars, field=Q):
    return poly_from_text(text, field, nvars)


def test_add_sub_mul():
    x = SparsePoly.variable(Q, 2, 0)
    y = SparsePoly.variable(Q, 2, 1)
    assert (x + y) + (x - y) == P("2*x1", 2)
    assert (x - y) * (x + y) == P("x1^2 - x2^2", 2)
    assert x * SparsePoly.zero(Q, 2) == SparsePoly.zero(Q, 2)


def test_mixed_ring_rejected():
    x = SparsePoly.variable(Q, 2, 0)
    t = SparsePoly.variable(Q, 1, 0)
    u = SparsePoly.variable(F7, 2, 0)
    for bad in (t, u):
        with pytest.raises(Exception):
            x + bad


def test_eval():
    f = P("x1^2*x2", 2)
    assert f.eval((Q.from_int(2), Q.from_int(3))) == Q.from_int(12)
    g = P("x1^5", 1, F7)
    assert g.eval((F7.from_int(2),)) == F7.from_int(4)  # 32 mod 7
    h = P("x1*x2 + 5", 2)
    assert h.eval((Q.zero(), Q.zero())) == Q.from_int(5)


def test_derivative():
    f = P("x1^2*x2", 2)
    assert f.derivative(0) == P("2*x1*x2", 2)
    # characteristic annihilates the exponent
    F3 = FieldSpec("prime", 3)
    assert P("x1^3", 1, F3).derivative(0).is_zero
    assert P("x1^4", 1, F3).derivative(0) == P("x1^3", 1, F3)
    assert P("x1^7", 1, F7).derivative(0).is_zero


def test_derivative_product_rule():
    rng = random.Random(11)
    for field in (Q, F7):
        for _ in range(20):
            f = rand_poly(rng, field, 2, 3, 4)
            g = rand_poly(rng, field, 2, 3, 4)
            for i in range(2):
                lhs = (f * g).derivative(i)
                rhs = f * g.derivative(i) + g * f.derivative(i)
                assert lhs == rhs


def test_substitute():
    f = P("x1*x2", 2)
    z = SparsePoly.variable(Q, 1, 0)
    assert f.substitute([z, z]) == P("x1^2", 1)
    g = P("x1 + x2", 2)
    c = SparsePoly(Q, 2, {(0, 0): Q.from_int(5)})
    z1 = SparsePoly.variable(Q, 2, 0)
    assert g.substitute([z1, c]) == P("x1 + 5", 2)
    ident = [SparsePoly.variable(Q, 2, i) for i in range(2)]
    assert g.substitute(ident) == g


def test_substitute_is_homomorphism():
    rng = random.Random(23)
    for _ in range(15):
        f = rand_poly(rng, Q, 2, 2, 3)
        g = rand_poly(rng, Q, 2, 2, 3)
        images = [rand_poly(rng, Q, 2, 2, 2) for _ in range(2)]
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
        assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


def test_gcd_examples():
    assert gcd_poly(P("x1^2 - x2^2", 2), P("x1 - x2", 2)) == P("x1 - x2", 2)
    assert gcd_poly(P("x1^2*x2 + x1*x2^2", 2), P("x1*x2", 2)) == P("x1*x2", 2)
    assert gcd_poly(P("x1 + x2", 2), P("x1 - x2", 2)) == SparsePoly.one(Q, 2)


def test_gcd_properties():
    rng = random.Random(5)
    for _ in range(12):
        f = rand_poly(rng, Q, 2, 2, 2)
        g = rand_poly(rng, Q, 2, 2, 2)
        h = rand_poly(rng, Q, 2, 2, 2)
        d = gcd_poly(f * h, g * h)
        assert divides(d, f * h) and divides(d, g * h)
        # the common factor h must be absorbed, up to the monic normalization
        assert divides(normalize_monic(h), d)
        assert normalize_monic(d) == d  # idempotent normalization
    with pytest.raises(Exception):
        gcd_poly(SparsePoly.zero(Q, 1), SparsePoly.zero(Q, 1))


def test_zero_divides_only_zero():
    zero = SparsePoly.zero(Q, 1)
    assert not divides(zero, P("x1 + 1", 1))
    assert divides(zero, zero)
    assert divides(P("x1 + 1", 1), zero)


def test_divide_exact():
    f = P("x1^2 - x2^2", 2)
    g = P("x1 - x2", 2)
    assert divide_exact(f, g) == P("x1 + x2", 2)
    with pytest.raises(ExactDivisionError):
        divide_exact(P("x1^2 + 1", 2), g)


def test_text_round_trip():
    rng = random.Random(13)
    for field in (Q, F7):
        for nvars in (3, 2, 1):
            for _ in range(10):
                f = rand_poly(rng, field, nvars, 3, 4)
                text = poly_to_text(f)
                assert poly_from_text(text, field, nvars) == f


def test_a_coefficient_too_long_for_decimal_round_trips_in_hex():
    # 3^10000 has 4,772 digits, past Python's decimal limit of 4300
    big = 3 ** 10000
    x1, x2 = P("x1", 2), P("x2", 2)
    f = x1.scale(Q.normalize(Fraction(big, 7))) - x2.scale(Q.normalize(Fraction(5, big)))
    text = poly_to_text(f)
    assert text == "%s/7*x1 - 5/%s*x2" % (hex(big), hex(big))
    assert poly_from_text(text, Q, 2) == f
    assert poly_from_text(hex(big) + "*x1", F7, 1) == P(str(big % 7) + "*x1", 1, F7)
    for bad in ("0x", "0xg", "0X1", "x1^0x2", "0x-1"):
        with pytest.raises(ParseError):
            poly_from_text(bad, Q, 2)


# texts outside the grammar, with a variable other than x1..x3, or with a
# zero denominator
MALFORMED = ["x1 + $", "--x1", "x1 +", "x1^", "2/x1", "x1/2", "3/4/5", "x1^2^3", "x0", "x01",
             "z0", "t", "2 3", "xx", "1/0", "", " \t ", "*x1", "x1*", "+", "x4", "x1 x2", "2^3",
             "x1^-1", "1.5", "X1", "(x1)", "x 1"]


def test_parse_errors():
    for field in (Q, F7):
        for text in MALFORMED:
            with pytest.raises(ParseError):
                poly_from_text(text, field, 3)
    with pytest.raises(ParseError, match="zero denominator"):
        poly_from_text("x1 + 3/7", F7, 1)


def test_hostile_texts_are_read_in_linear_time():
    x1 = P("x1", 1)
    for text, want in [("1" * 4000 + " " * 100_000 + "x", None),
                       (" " * 10 ** 6 + "x1", x1),
                       ("x1*" * 200_000 + "1", x1 ** 200_000)]:
        t0 = time.perf_counter()
        if want is None:
            with pytest.raises(ParseError):
                poly_from_text(text, Q, 1)
        else:
            assert poly_from_text(text, Q, 1) == want
        assert time.perf_counter() - t0 < 2


def test_parsing_is_linear_in_the_number_of_terms():
    # adding each term to the polynomial parsed so far took about 2 s for
    # 16,000 distinct terms and about 19 s for these 50,000; some repeat
    # and some cancel
    rng = random.Random(19)
    text, monos = [], []
    for _ in range(50_000):
        e, c = (rng.randrange(300), rng.randrange(300)), rng.choice([-2, -1, 1, 2])
        text.append("%s %d*x1^%d*x2^%d" % ("-" if c < 0 else "+", abs(c), *e))
        monos.append(SparsePoly.monomial(Q, 2, e, c))
    t0 = time.perf_counter()
    f = poly_from_text(" ".join(text), Q, 2)
    assert time.perf_counter() - t0 < 8
    # the term-by-term sum, added pairwise to keep it fast
    while len(monos) > 1:
        monos = [a + b for a, b in zip(monos[::2], monos[1::2])] + monos[len(monos) & ~1:]
    assert f == monos[0]


def test_ring_axioms():
    rng = random.Random(2)
    for field in (Q, F7):
        for _ in range(10):
            f = rand_poly(rng, field, 2, 2, 3)
            g = rand_poly(rng, field, 2, 2, 3)
            h = rand_poly(rng, field, 2, 2, 3)
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f - f).is_zero
            assert f + g == g + f
            assert f * g == g * f


def test_gradedlex_order_and_degree():
    f = P("x1^2 + x1*x2^2 + 1", 2)
    exps = [e for e, _ in f.sorted_terms()]
    assert exps == sorted(exps, key=gradedlex_key, reverse=True)
    assert f.degree() == 3
    assert f.num_terms() == 3
    assert SparsePoly.zero(Q, 2).degree() is None
    assert SparsePoly.zero(Q, 2).num_terms() == 0


# -- the one packed encoding ---------------------------------------------------


def test_packed_guard_closed_form_is_the_sum_of_its_fields():
    for nvars in range(6):
        for bits in range(5):
            ring = PackedRing(0, nvars, bits, 0)
            assert ring.guard == sum(1 << (s + bits) for s in ring.shifts)


def test_a_ring_in_a_million_variables_builds_at_once():
    # a sum of nvars shifted guard ints is quadratic in nvars: about 100 s
    # here at 10^6 variables, where the closed form takes milliseconds
    src = os.path.dirname(os.path.dirname(pitkit.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    code = "from pitkit.polynomials import PackedRing; PackedRing(0, 10 ** 6, 1, 0)"
    subprocess.run([sys.executable, "-c", code], env=env, timeout=30, check=True)


def test_product_division_substitution_and_annihilator_run_on_packed_ring(monkeypatch):
    """pack() is gone, and each of SparsePoly's product, divide_exact,
    substitution and the annihilator's columns builds a PackedRing, so a
    second encoding of monomials cannot quietly return."""
    assert not hasattr(polynomials, "pack")
    built = []
    real = PackedRing.__init__

    def init(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(PackedRing, "__init__", init)
    x, y = SparsePoly.variable(Q, 2, 0), SparsePoly.variable(Q, 2, 1)
    f = P("x1^2*x2 + x1", 2)
    calls = {
        "mul": lambda: x * y,
        "divide_exact": lambda: divide_exact(f, x),
        "substitution": lambda: f.substitute([y, x]),
        # independent: no annihilator, so no substitution check either
        "annihilator": lambda: annihilator([x, y], 2),
    }
    for name, call in calls.items():
        built.clear()
        call()
        assert built, name


def test_a_product_by_a_constant_builds_no_packed_ring(monkeypatch):
    """A constant side scales the other operand, and the constant 1 returns
    it as it is: Circuit.expand starts every product from one."""
    x = P("x1^2*x2 + x1", 2)
    results = {}
    for field in (Q, F7):
        f = P("3*x1^2*x2 - x1 + 2", 2, field)
        one, three, zero = (SparsePoly.constant(field, 2, c) for c in (1, 3, 0))
        results[field] = f, one, three, zero, f.scale(3)

    def refuse(*args):
        raise AssertionError("a product by a constant packed its operands")

    monkeypatch.setattr(polynomials, "PackedRing", refuse)
    for f, one, three, zero, tripled in results.values():
        assert f * one is f and one * f is f
        assert f * three == three * f == tripled
        assert f * zero == zero * f == zero and (f * zero).is_zero
        assert one * one == one and three * three == one.scale(9)
    with pytest.raises(AssertionError):
        x * x
