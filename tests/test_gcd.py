"""Differential tests of the gcd core: gcd_poly (its monomial content
split off and its modular certificate in front of the primitive PRS), the
product, divide_exact and coprime_basis, against sympy over Q, F_101 and
F_(2^61-1), and over F_2 and F_3 where the certificate's fixed point
collapses and the PRS answers.  coprime_basis is also compared with the
pairwise refinement plus trial division it replaced.
"""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pitkit.circuits import Depth4Circuit  # noqa: E402
from pitkit.depth4 import coprime_basis  # noqa: E402
from pitkit.fields import FieldSpec  # noqa: E402
from pitkit import polynomials  # noqa: E402
from pitkit.polynomials import (  # noqa: E402
    _GCD_PRIME,
    ExactDivisionError,
    SparsePoly,
    _gcd_certificate,
    _gcd_degree_mod,
    _gcd_point,
    divide_exact,
    gcd_poly,
    normalize_monic,
    poly_from_text,
)

Q = FieldSpec("rational")
F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
F101 = FieldSpec("prime", 101)
F61 = FieldSpec("prime", (1 << 61) - 1)
FIELDS = [Q, F101, F61]
FIELD_IDS = ["Q", "F101", "F2^61-1"]
ALL_FIELDS = [F2, F3] + FIELDS
ALL_IDS = ["F2", "F3"] + FIELD_IDS


@st.composite
def polys(draw, field, n, max_exp=3, max_terms=4, nonconstant=False):
    monos = st.tuples(*[st.integers(0, max_exp)] * n)
    coeffs = st.integers(-20, 20).filter(bool)
    if field.kind == "rational":
        coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool)
    terms = draw(st.dictionaries(monos, coeffs, min_size=1, max_size=max_terms))
    f = SparsePoly(field, n, terms)
    assume(not f.is_zero and not (nonconstant and f.is_constant))
    return f


def to_sympy(f):
    gens = sympy.symbols("x1:%d" % (f.nvars + 1))
    if f.field.kind == "rational":
        dom = sympy.QQ
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
    else:
        dom = sympy.GF(f.field.p)
        terms = dict(f.terms)
    return sympy.Poly.from_dict(terms or {(0,) * f.nvars: 0}, gens, domain=dom)


def from_sympy(field, n, P):
    terms = {}
    for exps, c in P.terms():
        if field.kind == "rational":
            c = sympy.Rational(c)
            terms[exps] = Fraction(int(c.p), int(c.q))
        else:
            terms[exps] = int(c) % field.p
    return SparsePoly(field, n, terms)


def sympy_gcd(f, g):
    """sympy's gcd, made monic under graded-lex like gcd_poly's."""
    return normalize_monic(from_sympy(f.field, f.nvars, to_sympy(f).gcd(to_sympy(g))))


def collapsing_factor(field, n):
    """(x1 - a1)(x2 - a2) + 1 at the certificate's point a: its restriction
    to every line through the point along x1 or x2 is the constant 1, and
    lc_x1, lc_x2 vanish there."""
    p = field.p if field.kind == "prime" else _GCD_PRIME
    a = _gcd_point(p, n)
    x = [SparsePoly.variable(field, n, i) for i in range(n)]
    const = [SparsePoly.constant(field, n, field.from_int(v)) for v in a]
    return (x[0] - const[0]) * (x[1] - const[1]) + SparsePoly.one(field, n)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
@given(st.data())
def test_gcd_of_planted_common_factor_matches_sympy(field, data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(polys(field, n))
    b = data.draw(polys(field, n))
    h = data.draw(polys(field, n, max_exp=2, max_terms=3, nonconstant=True))
    f, g = a * h, b * h
    got = gcd_poly(f, g)
    assert got == sympy_gcd(f, g)
    assert not got.is_constant
    assert divide_exact(f, got) * got == f


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
@given(st.data())
def test_gcd_of_unrelated_pairs_matches_sympy(field, data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n))
    g = data.draw(polys(field, n))
    assert gcd_poly(f, g) == sympy_gcd(f, g)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
@given(st.data())
def test_gcd_of_equal_and_divisor_pairs(field, data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n, nonconstant=True))
    q = data.draw(polys(field, n))
    # 1..50, or 1..p-1 over F_2 and F_3: a unit in every field
    unit = field.from_int(1 + data.draw(st.integers(0, 49)) % ((field.characteristic or 51) - 1))
    monic = normalize_monic(f)
    # equal up to a unit, and f dividing f*q from either side
    for u, v in ((f, f.scale(unit)), (f, f * q), (f * q, f)):
        assert gcd_poly(u, v) == sympy_gcd(u, v) == monic
        # the certificate settles these pairs, unless a leading coefficient
        # vanishes at its point
        assert _gcd_certificate(u, v) in (None, monic)


@pytest.mark.parametrize("field", [F2, F3] + FIELDS, ids=["F2", "F3"] + FIELD_IDS)
def test_certificate_answers_coprime_and_divisor_pairs(field):
    n = 3
    x1, x2, x3 = (SparsePoly.variable(field, n, i) for i in range(n))
    one = SparsePoly.one(field, n)
    f = x1 * x2 + x3 + one
    g = x1 + x2 * x3
    assert _gcd_certificate(f, g) == one
    assert _gcd_certificate(f, f * g) == _gcd_certificate(f * g, f) == f
    assert _gcd_certificate(f.scale(field.from_int(5)), f) == f
    # no variable in which both sides have positive degree
    assert _gcd_certificate(x1 + one, x2 * x3) == one


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_monomial_content_pairs_skip_the_prs(field, monkeypatch):
    # the only common factor is a monomial: its split answers exactly, and
    # the images settle the rest, so the PRS never runs
    calls = []
    prem = polynomials._prem
    monkeypatch.setattr(polynomials, "_prem", lambda *a: calls.append(a) or prem(*a))

    def P(text):
        return poly_from_text(text, field, 3)

    for f, g, d in (("x1^2", "x1*x2", "x1"), ("-4*x1^2", "-x1^2 + 2*x1", "x1"),
                    ("x1*x2 - 1/2*x1", "x1*x2 - 2*x1", "x1"), ("x2*x3", "x2^2", "x2")):
        assert gcd_poly(P(f), P(g)) == gcd_poly(P(g), P(f)) == P(d)
    assert not calls


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
@given(st.data())
def test_gcd_with_monomial_content_matches_sympy(field, data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n))
    g = data.draw(polys(field, n))
    a, b = (data.draw(st.tuples(*[st.integers(0, 3)] * n)) for _ in range(2))
    u = f * SparsePoly.monomial(field, n, a)
    v = g * SparsePoly.monomial(field, n, b)
    assert gcd_poly(u, v) == sympy_gcd(u, v)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
@given(st.data())
def test_product_matches_sympy(field, data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n, max_terms=6))
    g = data.draw(polys(field, n, max_terms=6))
    assert f * g == from_sympy(field, n, to_sympy(f) * to_sympy(g))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
@given(st.data())
def test_divide_exact_matches_sympy(field, data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(polys(field, n))
    g = data.draw(polys(field, n))
    assert divide_exact(f * g, g) == f
    try:
        quo = divide_exact(f, g)
    except ExactDivisionError:
        quo = None
    try:
        ref = from_sympy(field, n, to_sympy(f).exquo(to_sympy(g)))
    except sympy.polys.polyerrors.ExactQuotientFailed:
        ref = None
    assert quo == ref


@pytest.mark.parametrize("field", ALL_FIELDS, ids=ALL_IDS)
def test_divide_exact_edge_cases(field):
    P = lambda text: poly_from_text(text, field, 2)  # noqa: E731
    # a divisor of higher degree, even one whose exponents outgrow the
    # packing width that deg f sets
    for f, g in [("x1", "x1^2"), ("x1^3 + 1", "x2^200 + x1")]:
        with pytest.raises(ExactDivisionError):
            divide_exact(P(f), P(g))
    assert divide_exact(P("0"), P("x1^5 + x2")) == P("0")
    with pytest.raises(ZeroDivisionError):
        divide_exact(P("x1"), P("0"))
    assert divide_exact(P("3*x1^3*x2 + x1^2*x2^2"), P("x1^2*x2")) == P("3*x1 + x2")
    with pytest.raises(ExactDivisionError):
        divide_exact(P("x1^3 + x2"), P("x1^2"))
    # a divisor whose numerators have content 2 over Q (zero over F_2)
    f, g = P("x1^2 + 2*x1"), P("2*x1 + 4")
    if field.p != 2:
        assert divide_exact(f, g) * g == f
    if field.kind == "rational":
        assert divide_exact(f, g) == P("1/2*x1")
        with pytest.raises(ExactDivisionError):
            divide_exact(P("x1^2 + 3*x1"), g)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(st.data())
def test_coprime_basis_matches_sympy(field, data):
    n = data.draw(st.integers(1, 3))
    h = data.draw(polys(field, n, max_exp=2, max_terms=3, nonconstant=True))
    rows = []
    for _ in range(data.draw(st.integers(2, 3))):
        row = [data.draw(polys(field, n, max_exp=2, max_terms=3)) for _ in range(2)]
        # plant a shared factor in some rows, so the basis has to split
        if data.draw(st.booleans()):
            row[0] = row[0] * h
        rows.append(row)
    C = Depth4Circuit(field, n, max(f.degree() for row in rows for f in row), rows)
    cb = coprime_basis(C)
    basis = [to_sympy(b) for b in cb.basis]
    for i in range(len(basis)):
        assert basis[i].total_degree() > 0
        assert normalize_monic(cb.basis[i]) == cb.basis[i]
        for j in range(i):
            assert basis[i].gcd(basis[j]).total_degree() == 0
    for row, exps, scalar in zip(C.rows, cb.row_exponents, cb.row_scalars):
        product = to_sympy(SparsePoly.constant(field, n, scalar))
        for b, e in zip(basis, exps):
            product *= b ** e
        expected = to_sympy(SparsePoly.one(field, n))
        for f in row:
            expected *= to_sympy(f)
        assert product == expected


def refined_and_trial_divided(C):
    """The earlier coprime_basis, kept as an oracle: refine the distinct
    monic factors pair by pair, restarting the scan after every split,
    then recover each row's exponents and scalar by trial division.
    Returns (basis, row exponents, row scalars)."""
    basis = sorted({normalize_monic(f) for row in C.rows for f in row if not f.is_constant},
                   key=lambda f: f.sort_key())
    split = True
    while split:
        split = False
        for a, b in itertools.combinations(basis, 2):
            g = gcd_poly(a, b)
            if g.is_constant:
                continue
            pool = set(basis) - {a, b}
            pool.add(g)
            for q in (divide_exact(a, g), divide_exact(b, g)):
                if not q.is_constant:
                    pool.add(normalize_monic(q))
            basis = sorted(pool, key=lambda f: f.sort_key())
            split = True
            break
    exponents, scalars = [], []
    for row in C.rows:
        exps = [0] * len(basis)
        scalar = C.field.one()
        for f in row:
            for i, b in enumerate(basis):
                while True:
                    try:
                        f = divide_exact(f, b)
                    except ExactDivisionError:
                        break
                    exps[i] += 1
            assert f.is_constant
            scalar = C.field.mul(scalar, f.constant_term())
        exponents.append(tuple(exps))
        scalars.append(scalar)
    return tuple(basis), tuple(exponents), tuple(scalars)


@pytest.mark.parametrize("field", [Q, F101, F3, F2], ids=["Q", "F101", "F3", "F2"])
@given(st.data())
def test_coprime_basis_matches_refinement_and_trial_division(field, data):
    n = data.draw(st.integers(1, 3))
    pool = [data.draw(polys(field, n, max_exp=2, max_terms=3, nonconstant=True))
            for _ in range(data.draw(st.integers(1, 3)))]
    pick = st.sampled_from(pool)
    factor = st.one_of(
        pick,  # shared between rows, or repeated within one
        st.tuples(pick, pick).map(lambda ab: ab[0] * ab[1]),
        st.tuples(pick, st.integers(2, 3)).map(lambda fe: fe[0] ** fe[1]),
        polys(field, n, max_exp=2, max_terms=3),  # fresh, possibly a constant
    )
    rows = [[data.draw(factor) for _ in range(data.draw(st.integers(1, 3)))]
            for _ in range(data.draw(st.integers(2, 3)))]
    C = Depth4Circuit(field, n, max(1, max(f.degree() for row in rows for f in row)), rows)
    cb = coprime_basis(C)
    assert (cb.basis, cb.row_exponents, cb.row_scalars) == refined_and_trial_divided(C)


@pytest.mark.parametrize("field", [F2, F3, Q, F101, F61], ids=["F2", "F3"] + FIELD_IDS)
@given(st.data())
def test_certificate_point_collapse_takes_the_fallback(field, data):
    # the planted factor's leading coefficients in x1 and x2 vanish at the
    # certificate's point, so the certificate must step aside and the PRS
    # find the factor
    n = data.draw(st.integers(2, 3))
    h = collapsing_factor(field, n)
    a = data.draw(polys(field, n, max_exp=2))
    b = data.draw(polys(field, n, max_exp=2))
    f, g = a * h, b * h
    assert _gcd_certificate(f, g) is None
    got = gcd_poly(f, g)
    assert got == sympy_gcd(f, g)
    divide_exact(got, h)  # h divides the gcd


@pytest.mark.parametrize("field", [F2, F3, Q, F101, F61], ids=["F2", "F3"] + FIELD_IDS)
def test_certificate_never_calls_a_planted_common_factor_constant(field):
    # without its leading-coefficient check the certificate would read
    # gcd(a, b) = 1 on every line through its point and answer 1 here
    n = 2
    x1, x2 = (SparsePoly.variable(field, n, i) for i in range(n))
    one = SparsePoly.one(field, n)
    h = collapsing_factor(field, n)
    for a, b in ((x1 + one, x2), (x1 * x2 + x2 + one, x1 + x2 * x2),
                 (x1 + x2 + one, x1 * x1 + one)):
        f, g = a * h, b * h
        known = _gcd_certificate(f, g)
        assert known is None or not known.is_constant
        assert not gcd_poly(f, g).is_constant


# -- the univariate gcd degree mod p --------------------------------------------

MOD_PRIMES = [2, 3, 101, (1 << 61) - 1]
MOD_IDS = ["F2", "F3", "F101", "F2^61-1"]


@st.composite
def dense_mod(draw, p, max_deg=6):
    """A dense coefficient list mod p, low to high, with a nonzero leading
    entry: the input of _gcd_degree_mod."""
    d = draw(st.integers(0, max_deg))
    low = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    return low + [draw(st.integers(1, p - 1))]


def mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return out


def sympy_gcd_degree(a, b, p):
    x = sympy.Symbol("x")
    A, B = (sympy.Poly(c[::-1], x, domain=sympy.GF(p)) for c in (a, b))
    return A.gcd(B).degree()


def check_gcd_degree(a, b, p):
    """_gcd_degree_mod in both orders against sympy, and its arguments
    left as they were."""
    want = sympy_gcd_degree(a, b, p)
    copies = a[:], b[:]
    assert _gcd_degree_mod(a, b, p) == _gcd_degree_mod(b, a, p) == want
    assert (a, b) == copies
    return want


@pytest.mark.parametrize("p", MOD_PRIMES, ids=MOD_IDS)
@given(st.data())
def test_gcd_degree_mod_of_random_pairs_matches_sympy(p, data):
    check_gcd_degree(data.draw(dense_mod(p)), data.draw(dense_mod(p)), p)


@pytest.mark.parametrize("p", MOD_PRIMES, ids=MOD_IDS)
@given(st.data())
def test_gcd_degree_mod_of_planted_common_factor_matches_sympy(p, data):
    h = data.draw(dense_mod(p, max_deg=3))
    a, b = data.draw(dense_mod(p, max_deg=4)), data.draw(dense_mod(p, max_deg=4))
    assert check_gcd_degree(mul_mod(a, h, p), mul_mod(b, h, p), p) >= len(h) - 1


def test_gcd_degree_mod_takes_no_inverse(monkeypatch):
    def no_inverse(base, exp, *mod):
        assert exp >= 0, "an inverse mod p"
        return pow(base, exp, *mod)

    # (x + 1)(x + 2) and (x + 1)(3x + 5) over F_101: the remainders have
    # leading coefficients other than 1
    monkeypatch.setattr(polynomials, "pow", no_inverse, raising=False)
    assert _gcd_degree_mod([2, 3, 1], [5, 8, 3], 101) == 1
    assert _gcd_degree_mod([7, 0, 4, 9], [3, 1], 101) == 0
