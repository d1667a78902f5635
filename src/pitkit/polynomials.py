"""Sparse multivariate polynomials with exact coefficients.

A SparsePoly maps exponent vectors (tuples of nonnegative ints, one slot per
variable) to nonzero raw field elements.  The monomial order used everywhere
for leading terms, canonical printing, and normalization is graded
lexicographic: compare total degree first, then the exponent tuple
lexicographically (so x1 beats x2 at equal degree).

The text format accepted and produced here looks like ``3*x1^2*x2 - x3 + 7``,
over the variables x1..xn (1-based) only.  Its grammar is regular (no
parentheses, no signed numbers), so a text is read by splitting it at its
signs and at '*' and matching each factor against one regular expression.
Whitespace may surround every sign, '*', '/' and '^', and parsing
round-trips exactly on canonical output.

Evaluation and substitution run on integers: the points or the images and
the coefficients are taken to the integer form of FieldSpec.integers
(residues over F_p, numerators over one denominator over Q), and the
result is made raw elements at the end.  Evaluation takes a block of
points as coordinate columns (FieldSpec.block) and returns a column of
values, each term costing one list operation per factor for the whole
block; eval() is a block of one point.  The one evaluation body is
eval_form, on a polynomial's integer form (SparsePoly._compile), which the
entries of a Jacobian share.

Arithmetic runs on one encoding, PackedRing: an integer form packed with
PackedRing.pack, each monomial one int.  packed_product is the one product
(SparsePoly's *, substitution, the annihilator's columns), PackedRing.quotient
the one exact division (divide_exact, the symbolic Jacobian rank), and
PackedRing.unpack the one way back to a SparsePoly.

gcd_poly reads a second cache of each polynomial, its gcd images
(SparsePoly._gcd_images): the monomial content splits off exactly, the
modular images decide the rest in most cases, and the primitive PRS is the
last resort.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import mul

from .fields import FieldError, FieldSpec, block_size, int_from_text


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division has a remainder."""


class BudgetExceeded(RuntimeError):
    """A size budget was hit; the caller should switch strategy (e.g. PIT)."""


# The largest value, in bits, pitkit evaluates a polynomial to over Q: a
# dag on its grid (hitting.pit_circuit) and a family at a seeded point
# (varmaps.search_vandermonde_map); past it the input is refused with
# BudgetExceeded before any evaluation.
MAX_VALUE_BITS = 1 << 20


class ParseError(ValueError):
    pass


# Over F_p, a column of products or sums is reduced mod p after this many
# operations (a term's factors, a dag node's children, a depth-4 row's
# factors), so no value grows past REDUCE_EVERY + 1 residues multiplied.
REDUCE_EVERY = 8


def gradedlex_key(exps):
    """Sort key: graded-lex, larger key = later monomial."""
    return (sum(exps), exps)


class SparsePoly:
    """Immutable-by-convention sparse polynomial over a FieldSpec.

    Nothing assigns to terms after construction, which is what lets a
    polynomial keep two caches derived from its terms, each built on first
    use and living as long as the polynomial: its integer evaluation form
    (_compile), which evaluation and the Jacobian read, and its gcd images
    (_gcd_images), which gcd_poly reads.
    """

    __slots__ = ("field", "nvars", "terms", "_hash", "_compiled", "_images")

    def __init__(self, field: FieldSpec, nvars: int, terms):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector length != nvars")
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative integers")
            c = field.normalize(c)
            if not field.is_zero(c):
                clean[exps] = c
        self.field = field
        self.nvars = nvars
        self.terms = clean
        self._hash = None
        self._compiled = None
        self._images = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field, nvars):
        return SparsePoly(field, nvars, {})

    @staticmethod
    def constant(field, nvars, value):
        return SparsePoly(field, nvars, {(0,) * nvars: value})

    @staticmethod
    def one(field, nvars):
        return SparsePoly.constant(field, nvars, 1)

    @staticmethod
    def variable(field, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return SparsePoly(field, nvars, {exps: 1})

    @staticmethod
    def monomial(field, nvars, exps, coeff=1):
        return SparsePoly(field, nvars, {tuple(exps): coeff})

    # -- basic queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def degree(self):
        """Total degree; None for the zero polynomial (no -inf arithmetic)."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def sorted_terms(self):
        """The terms, graded-lex largest monomial first."""
        return sorted(self.terms.items(), key=lambda t: gradedlex_key(t[0]), reverse=True)

    def leading_term(self):
        """(exps, coeff) of the graded-lex largest monomial; None if zero."""
        if not self.terms:
            return None
        exps = max(self.terms, key=gradedlex_key)
        return exps, self.terms[exps]

    def leading_coefficient(self):
        lt = self.leading_term()
        return None if lt is None else lt[1]

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def num_terms(self) -> int:
        return len(self.terms)

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.field, self.nvars, frozenset(self.terms.items()))
            )
        return self._hash

    def sort_key(self):
        """A total-order key for deterministic sorting of polynomial lists."""
        items = self.sorted_terms()
        flat = []
        for exps, c in items:
            if isinstance(c, Fraction):
                flat.append((exps, (c.numerator, c.denominator)))
            else:
                flat.append((exps, (c,)))
        return (self.nvars, tuple(flat))

    def _check_ring(self, other):
        if self.field != other.field:
            raise FieldError("mixed-field operation rejected")
        if self.nvars != other.nvars:
            raise ValueError("operands live in different polynomial rings")

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        self._check_ring(other)
        field = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = field.add(out.get(exps, 0), c) if self.field.kind == "prime" else (
                out.get(exps, Fraction(0)) + c
            )
            if field.is_zero(acc):
                out.pop(exps, None)
            else:
                out[exps] = acc
        return self._raw(field, self.nvars, out)

    def __neg__(self):
        field = self.field
        return self._raw(
            field, self.nvars, {e: field.neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product on packed monomials (PackedRing): both integer forms
        (_compile) packed, multiplied once, and unpacked once.  A constant
        side scales the other instead, which is itself for the constant 1."""
        self._check_ring(other)
        for const, poly in ((other, self), (self, other)):
            if const.is_constant:
                c = const.constant_term()
                return poly if c == 1 else poly.scale(c)
        D, a, d = self._compiled or self._compile()
        E, b, e = other._compiled or other._compile()
        ring = PackedRing(self.field.characteristic, self.nvars, (d + e).bit_length(), math.inf)
        return ring.unpack(self.field, (ring.pack(a, 1) * ring.pack(b, 1)).terms, D * E)

    def __floordiv__(self, other):
        """The exact quotient (divide_exact)."""
        return divide_exact(self, other)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return SparsePoly.one(self.field, self.nvars) if result is None else result

    def scale(self, c):
        field = self.field
        c = field.normalize(c)
        if field.is_zero(c):
            return SparsePoly.zero(field, self.nvars)
        return self._raw(
            field, self.nvars, {e: field.mul(v, c) for e, v in self.terms.items()}
        )

    @staticmethod
    def _raw(field, nvars, terms):
        # internal: terms already canonical raw values with no zeros
        p = SparsePoly.__new__(SparsePoly)
        p.field = field
        p.nvars = nvars
        p.terms = terms
        p._hash = None
        p._compiled = None
        p._images = None
        return p

    # -- evaluation and substitution -----------------------------------------------

    def eval(self, point):
        """Evaluate at a point of raw elements; returns raw.

        Integer arithmetic throughout: the point goes through
        FieldSpec.block, the polynomial through _compile (once), and
        _eval_integers does the sum on that block of one point.
        """
        if len(point) != self.nvars:
            raise ValueError("point arity != nvars")
        nums, den = self._eval_integers(self.field.block(point))
        return self.field.from_integers(nums, den)[0]

    def _eval_integers(self, block):
        """The values at the points of block = (cols, q) as (nums, D):
        eval_form of the polynomial's integer form (_compile)."""
        return eval_form(self._compiled or self._compile(), block, self.field.p)

    def _compile(self):
        """(D, terms, d): the integer form, built once per polynomial, which
        eval_form evaluates and independence.jacobian differentiates.

        terms lists (N, ((var, exp), ...), total degree) with the
        coefficients in the integer form of FieldSpec.integers, N = D *
        coefficient, zero exponents left out; D is their common denominator
        (1 over F_p); d is the total degree (0 for the zero polynomial).
        """
        nums, den = self.field.integers(self.terms.values())
        terms = tuple(
            (N, tuple((i, e) for i, e in enumerate(exps) if e), sum(exps))
            for N, exps in zip(nums, self.terms)
        )
        self._compiled = (den, terms, max((t[2] for t in terms), default=0))
        return self._compiled

    def _gcd_images(self):
        """(deg, low, images): the gcd images of a nonzero polynomial, built
        once per polynomial from its integer form (_compile), which
        polynomials._gcd_certificate compares.

        deg[v] and low[v] are the largest and the smallest exponent of x_v
        over the terms, so x^low is the monomial content.  For each v with
        deg[v] > 0, images[v] lists (low to high) the coefficients mod p of
        the polynomial as one in x_v, every other variable fixed at
        _gcd_point(p, nvars); p is the field's over F_p and _GCD_PRIME over
        Q, where the integer numerators stand for the polynomial.
        images[v] is None for deg[v] = 0.
        """
        field = self.field
        p = field.p if field.kind == "prime" else _GCD_PRIME
        point = _gcd_point(p, self.nvars)
        cols = list(zip(*self.terms))
        deg = [max(c) for c in cols]
        live = [v for v, d in enumerate(deg) if d]
        images = [[0] * (d + 1) if d else None for d in deg]
        for N, mon, _ in (self._compiled or self._compile())[1]:
            powers = [(i, e, pow(point[i], e, p)) for i, e in mon]
            for v in live:
                c, k = N, 0
                for i, e, w in powers:
                    if i == v:
                        k = e
                    else:
                        c = c * w % p
                images[v][k] += c
        for v in live:
            images[v] = [c % p for c in images[v]]
        self._images = (deg, [min(c) for c in cols], images)
        return self._images

    def derivative(self, i: int):
        """Formal partial derivative in variable i.

        The exponent multiplies into the coefficient through the field, so in
        characteristic p any term with p | e_i drops out.
        """
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        field = self.field
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            c2 = field.mul(c, field.from_int(e))
            if field.is_zero(c2):
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1 :]
            # distinct source monomials stay distinct after one decrement
            out[new] = c2
        return self._raw(field, self.nvars, out)

    def substitute(self, images):
        """Ring homomorphism: send variable i to images[i].

        All images must live in one common ring over the same field; the
        result lives there.  The images go to the integer form over one
        common denominator, and substitution expands.
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if self.nvars == 0:
            raise ValueError("cannot infer target ring; no variables")
        tf, tn = images[0].field, images[0].nvars
        for g in images:
            if g.field != tf or g.nvars != tn:
                raise ValueError("images live in different rings")
        if tf != self.field:
            raise FieldError("substitution must stay over one field")
        nums, den = tf.integers([c for g in images for c in g.terms.values()])
        nums = iter(nums)
        ints = [{exps: next(nums) for exps in g.terms} for g in images]
        return substitution(tf, tn, ints, den)(self)

    def coeff_in(self, v: int, k: int):
        """Coefficient of x_v^k, as a polynomial in the same ring (v-degree 0)."""
        out = {}
        for exps, c in self.terms.items():
            if exps[v] == k:
                out[exps[:v] + (0,) + exps[v + 1 :]] = c
        return self._raw(self.field, self.nvars, out)

    def __repr__(self):
        return "SparsePoly(%s)" % poly_to_text(self)


# -- evaluation of the integer form -----------------------------------------------


def eval_form(form, block, p):
    """The values of the polynomial with the integer form form = (D, terms,
    d) of SparsePoly._compile at the points of block = (cols, q),
    coordinate i of point j being cols[i][j] / q, as (nums, D'): value j
    is nums[j] / D'.  p is the modulus, None over Q.  The one evaluation
    of a polynomial: SparsePoly._eval_integers, and the entries of a
    Jacobian (independence.jacobian, linalg.eval_matrix), which are forms
    only.

    Each term is one column: its coefficient times its first factor in
    one pass, then one list operation per further factor; the columns
    are summed point by point.  Over F_p (q = 1) a term is reduced
    after every REDUCE_EVERY factors and the sum once, and D' = 1.  Over
    Q one integer sum over the cleared denominators,
    f(a/q) = sum N_e a^e q^(d-|e|) / (D q^d), not reduced.
    """
    den, terms, d = form
    cols, q = block
    if not d:
        # a constant: its numerator, a residue over F_p
        return [terms[0][0] if terms else 0] * block_size(cols), den
    # pow(v, e, None) is v ** e
    if q != 1:
        den *= q ** d
    columns = []
    for c, mon, k in terms:
        if q != 1:
            c *= q ** (d - k)
        if not mon:
            columns.append([c] * block_size(cols))
            continue
        i, e = mon[0]
        if e != 1:
            col = [c * pow(v, e, p) for v in cols[i]]
        else:
            col = cols[i] if c == 1 else [c * v for v in cols[i]]
        for j, (i, e) in enumerate(mon[1:], 1):
            col = list(map(mul, col, cols[i] if e == 1 else map(pow, cols[i], repeat(e), repeat(p))))
            if p is not None and j % REDUCE_EVERY == 0:
                col = [v % p for v in col]
        columns.append(col)
    nums = columns[0] if len(columns) == 1 else map(sum, zip(*columns))
    return (list(nums) if p is None else [v % p for v in nums]), den


# -- packed monomials ---------------------------------------------------------------


def packed_product(a, b, p: int):
    """The product of two integer polynomials on packed monomials, dicts
    {key: int}, reduced mod p when p > 0, its cancelled terms dropped."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            terms[e] = terms.get(e, 0) + c1 * c2
    if p:
        return {e: c % p for e, c in terms.items() if c % p}
    return {e: c for e, c in terms.items() if c}


class PackedRing:
    """The integer polynomials in nvars variables, reduced mod p when p > 0,
    on graded packed monomials (Monagan and Pearce, CASC 2007): pitkit's
    one encoding of a polynomial for arithmetic.  SparsePoly's product and
    exact division, substitution, the annihilator's columns and the
    symbolic Bareiss (linalg.poly_matrix_rank) all run on it.

    A monomial x^e in nvars variables is one int: e_v in a field of bits + 1
    bits at bit (bits + 1) * (nvars - 1 - v), and the total degree above
    them all, at bit shift.  So int order is graded-lex (degree first, then
    x1 before x2), the key of a product is the sum of the keys, the leading
    term of a polynomial is max(key) and its degree max(key) >> shift.  The
    top bit of each exponent field is a guard, clear in every monomial
    while each exponent stays below 2^bits: then a difference of two keys
    is nonnegative with no guard bit set exactly when the one monomial
    divides the other.

    work counts the term products, |a| |b| per product and |g| per step of
    a division by g; past limit they raise BudgetExceeded.
    """

    __slots__ = ("p", "nvars", "width", "shifts", "shift", "guard", "limit", "work")

    def __init__(self, p: int, nvars: int, bits: int, limit):
        self.p, self.nvars, self.width = p, nvars, bits + 1
        self.shifts = [self.width * (nvars - 1 - v) for v in range(nvars)]
        self.shift = self.width * nvars
        # the guard bits, 2^bits in every field: a geometric sum in 2^width
        self.guard = (1 << bits) * ((1 << self.shift) - 1) // ((1 << self.width) - 1)
        self.limit, self.work = limit, 0

    def pack(self, terms, scale):
        """The PackedPoly of scale times the terms (N, ((var, exp), ...), k)
        of an integer form (SparsePoly._compile), residues over F_p (where
        scale is 1), the terms with N = 0 left out; exponents below
        2^bits."""
        shifts, shift = self.shifts, self.shift
        out = {}
        for N, mon, k in terms:
            if N:
                key = k << shift
                for v, e in mon:
                    key |= e << shifts[v]
                out[key] = N * scale
        return PackedPoly(out, self)

    def unpack(self, field, terms, den):
        """The SparsePoly of the packed dict terms {key: int} over den in
        the integer form of FieldSpec.integers, made raw elements by one
        from_integers; the terms that vanish in the field are dropped."""
        mask, shifts = (1 << self.width - 1) - 1, self.shifts
        coeffs = field.from_integers(list(terms.values()), den)
        return SparsePoly._raw(field, self.nvars, {
            tuple([key >> s & mask for s in shifts]): c for key, c in zip(terms, coeffs) if c})

    def charge(self, products: int):
        """Count products term products against the limit."""
        self.work += products
        if self.work > self.limit:
            raise BudgetExceeded("the symbolic Jacobian rank takes more than %d term products"
                                 % self.limit)

    def quotient(self, f, g):
        """f / g for packed dicts {key: int} when g divides f, leading
        term by leading term: the remainder's keys wait in a heap, the
        largest first.  ExactDivisionError when a leading monomial is not
        divisible by lt(g), or over Z its coefficient is not."""
        p = self.p
        top = max(g)
        lc = g[top]
        inv = pow(lc, -1, p) if p else None
        tail = [(k, c) for k, c in g.items() if k != top]
        r = dict(f)
        heap = [-k for k in r]
        heapify(heap)
        q = {}
        while heap:
            key = -heappop(heap)
            c = r.pop(key)
            if not c:
                continue
            m = key - top
            if m < 0 or m & self.guard:
                raise ExactDivisionError("division is not exact")
            if p:
                c = c * inv % p
            else:
                c, rem = divmod(c, lc)
                if rem:
                    raise ExactDivisionError("division is not exact")
            q[m] = c
            self.charge(len(g))
            # k + m < key, since k < top: never popped, so a key in r is
            # in the heap
            for k, cg in tail:
                k += m
                old = r.get(k)
                if old is None:
                    old = 0
                    heappush(heap, -k)
                r[k] = (old - c * cg) % p if p else old - c * cg
        return q


class PackedPoly:
    """An element of a PackedRing: terms is a dict {packed monomial:
    nonzero int}.  It has the arithmetic linalg._eliminate runs on, and
    degree, its pivot size."""

    __slots__ = ("terms", "ring")

    def __init__(self, terms, ring: PackedRing):
        self.terms, self.ring = terms, ring

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        return max(self.terms) >> self.ring.shift

    def __sub__(self, other):
        p = self.ring.p
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) - c
            if p:
                v %= p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return PackedPoly(out, self.ring)

    def __mul__(self, other):
        ring = self.ring
        ring.charge(len(self.terms) * len(other.terms))
        return PackedPoly(packed_product(self.terms, other.terms, ring.p), ring)

    def __floordiv__(self, other):
        return PackedPoly(self.ring.quotient(self.terms, other.terms), self.ring)


def substitution(field: FieldSpec, nvars: int, images, den: int):
    """f -> f(g_1 / den, ..., g_n / den), the one expansion of a polynomial
    under a substitution (SparsePoly.substitute, varmaps.AffineMap.apply
    and the line of depth4._line).

    images[i] is the integer polynomial g_i in nvars variables, a dict
    {exponent tuple: int}, over den in the integer form of
    FieldSpec.integers (residues and den = 1 over F_p).  With f = (1/D)
    sum N_m x^m of total degree d (SparsePoly._compile),

        D den^d f(g / den) = sum N_m den^(d - |m|) prod g_i^(m_i),

    one integer sum in a PackedRing (pack, packed_product), made a
    SparsePoly by one unpack at the end.  Each power g_i^e is built from
    g_i^(e-1) and kept while the returned function lives, for every f it
    expands.  No exponent of a term of f's expansion exceeds d times the
    largest degree of the g_i, which sets the packing width; a wider one
    packs the powers again.
    """
    p = field.characteristic
    deg = max((sum(m) for g in images for m in g), default=0)
    ring, powers = None, []

    def power(i, e):
        pw = powers[i]
        while len(pw) <= e:
            pw.append(packed_product(pw[-1], pw[1], p))
        return pw[e]

    def expand(f):
        nonlocal ring, powers
        D, terms, d = f._compiled or f._compile()
        bits = (max(d, 1) * deg).bit_length()
        if ring is None or bits >= ring.width:
            ring = PackedRing(p, nvars, bits, math.inf)
            powers = [[{0: 1}, ring.pack([(c, tuple((v, e) for v, e in enumerate(m) if e), sum(m))
                                          for m, c in g.items()], 1).terms] for g in images]
        acc = {}
        for N, mon, k in terms:
            if den != 1:
                N *= den ** (d - k)
            prod = {0: 1}
            for j, (i, e) in enumerate(mon):
                prod = power(i, e) if j == 0 else packed_product(prod, power(i, e), p)
            for key, c in prod.items():
                acc[key] = acc.get(key, 0) + N * c
        return ring.unpack(field, acc, D * den ** d)

    return expand


# -- normalization and division ---------------------------------------------------


def normalize_monic(f: SparsePoly) -> SparsePoly:
    """Scale so the graded-lex leading coefficient is 1 (zero stays zero)."""
    if f.is_zero:
        return f
    lc = f.leading_coefficient()
    return f if lc == f.field.one() else f.scale(f.field.inv(lc))


def divide_exact(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Return q with f = q*g, or raise ExactDivisionError.

    PackedRing.quotient on the integer forms (_compile), as wide as deg f
    needs: no term of the quotient or of a remainder has a larger degree,
    and deg g > deg f is not exact at once.  Over Q, f = A / D and g =
    c B / E with B primitive: by Gauss's lemma B divides E A over Z exactly
    when g | f over Q, and q = (E A / B) / (D c).
    """
    f._check_ring(g)
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return f
    D, a, d = f._compiled or f._compile()
    E, b, e = g._compiled or g._compile()
    if e > d:
        raise ExactDivisionError("division is not exact")
    c = 1 if f.field.kind == "prime" else math.gcd(*(N for N, _, _ in b))
    ring = PackedRing(f.field.characteristic, f.nvars, d.bit_length(), math.inf)
    B = ring.pack([(N // c, mon, k) for N, mon, k in b], 1).terms
    return ring.unpack(f.field, ring.quotient(ring.pack(a, E).terms, B), D * c)


def divides(g: SparsePoly, f: SparsePoly) -> bool:
    """True when g divides f; 0 divides only 0."""
    f._check_ring(g)
    if g.is_zero:
        return f.is_zero
    try:
        divide_exact(f, g)
        return True
    except ExactDivisionError:
        return False


def _prem(f: SparsePoly, g: SparsePoly, v: int) -> SparsePoly:
    """Pseudo-remainder of f by g with respect to variable v (deg_v g >= 1)."""
    field = f.field
    b = g.degree_in(v)
    lcg = g.coeff_in(v, b)
    while not f.is_zero:
        a = f.degree_in(v)
        if a < b:
            break
        lcf = f.coeff_in(v, a)
        shift = tuple(a - b if j == v else 0 for j in range(f.nvars))
        f = f * lcg - lcf * SparsePoly.monomial(field, f.nvars, shift) * g
    return f


def _content(f: SparsePoly, v: int) -> SparsePoly:
    """gcd of the coefficients of f viewed as a polynomial in x_v."""
    parts = [f.coeff_in(v, k) for k in range(f.degree_in(v) + 1)]
    acc = SparsePoly.zero(f.field, f.nvars)
    for part in parts:
        if not part.is_zero:
            acc = gcd_poly(acc, part)
    return acc


# the word prime the gcd images reduce integer numerators modulo over Q
_GCD_PRIME = (1 << 61) - 1


@lru_cache(maxsize=None)
def _gcd_point(p: int, nvars: int):
    """The fixed point mod p at which the gcd images specialize every
    variable but one: nonzero residues spread by a golden-ratio step."""
    return tuple(1 + (i + 1) * 0x9E3779B97F4A7C15 % (p - 1) for i in range(nvars))


def _gcd_degree_mod(a, b, p: int) -> int:
    """Degree of gcd(a, b) over F_p for dense coefficient lists (low to
    high) with nonzero leading entries.

    Euclid's algorithm on pseudo-remainders, with no inverse: each step
    a <- lc(b) a - lc(a) x^k b cancels the leading term of a, and scaling
    by the unit lc(b) changes no gcd (Knuth, TAOCP vol. 2, 4.6.1)."""
    while b:
        lb, nb = b[-1], len(b)
        a = a[:]
        while len(a) >= nb:
            la, shift = a.pop(), len(a) + 1 - nb
            for i in range(shift):
                a[i] = a[i] * lb % p
            for j in range(nb - 1):
                a[shift + j] = (a[shift + j] * lb - la * b[j]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _shift(f: SparsePoly, m, sign=1) -> SparsePoly:
    """x^m * f, or f / x^m for sign = -1 when x^m divides f."""
    if not any(m):
        return f
    return SparsePoly._raw(f.field, f.nvars, {
        tuple(e + sign * k for e, k in zip(exps, m)): c for exps, c in f.terms.items()})


def _gcd_certificate(f: SparsePoly, g: SparsePoly):
    """gcd(f, g), monic, for nonzero f and g when their gcd images
    (SparsePoly._gcd_images) settle it, else None.

    The monomial content splits off first: f = x^a f' and g = x^b g' with
    no variable dividing f' or g', and the variables are prime, so gcd(f,
    g) = x^min(a, b) gcd(f', g').  The image of f' in x_v is that of f with
    its a_v low coefficients dropped, up to a unit (the point has no zero
    coordinate).

    For each variable v in which both f' and g' have positive degree, the
    images fix every other variable at _gcd_point mod p, and the univariate
    gcd mod p is taken.  When lc_v of both sides survives at the point, a
    common factor h of positive degree in v stays a common factor of degree
    deg_v h there: over Q by Gauss's lemma, h can be taken in Z[x] dividing
    the numerators in Z[x], and reduction mod p is a ring map.  So if every
    such gcd is constant, gcd(f', g') is constant.  If every such gcd has
    the degree of one side, that side may divide the other, which an exact
    division of the built f' and g' decides.  Anything else is left to the
    PRS.
    """
    (df, lf, fi), (dg, lg, gi) = f._images or f._gcd_images(), g._images or g._gcd_images()
    df = [d - e for d, e in zip(df, lf)]
    dg = [d - e for d, e in zip(dg, lg)]
    p = f.field.p if f.field.kind == "prime" else _GCD_PRIME
    coprime = g_in_f = f_in_g = True
    for v in range(f.nvars):
        if not (df[v] and dg[v]):
            continue
        a, b = fi[v][lf[v]:], gi[v][lg[v]:]
        if not a[-1] or not b[-1]:
            return None
        d = _gcd_degree_mod(a, b, p)
        coprime = coprime and d == 0
        g_in_f = g_in_f and d == dg[v]
        f_in_g = f_in_g and d == df[v]
        if not (coprime or g_in_f or f_in_g):
            return None
    m = tuple(map(min, lf, lg))
    if coprime:
        return SparsePoly._raw(f.field, f.nvars, {m: f.field.one()})
    f, g = _shift(f, lf, -1), _shift(g, lg, -1)
    # a divisor's degree in each variable is at most the other side's
    if g_in_f and all(a <= b for a, b in zip(dg, df)) and divides(g, f):
        return _shift(normalize_monic(g), m)
    if f_in_g and all(a <= b for a, b in zip(df, dg)) and divides(f, g):
        return _shift(normalize_monic(f), m)
    return None


def gcd_poly(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Greatest common divisor: modular images first, the primitive
    Euclidean recursion on variables as the last resort.

    The unique representative returned is monic under graded-lex.  Both
    arguments zero is rejected: no gcd exists.  _gcd_certificate answers
    from the gcd images that each polynomial builds once and keeps
    (SparsePoly._gcd_images): the monomial content exactly, and the rest
    when it is constant or one side divides the other.  Only a pair it
    leaves open runs the PRS, on the content-free parts; a polynomial never
    changes after construction, so its cached images stay its own.
    """
    f._check_ring(g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if f.is_zero:
        return normalize_monic(g)
    if g.is_zero:
        return normalize_monic(f)
    known = _gcd_certificate(f, g)
    if known is not None:
        return known
    # the certificate built both images, and left open only a pair whose
    # content-free parts have a variable of positive degree in both
    lf, lg = f._images[1], g._images[1]
    f, g = _shift(f, lf, -1), _shift(g, lg, -1)
    v = next(i for i in range(f.nvars) if f.degree_in(i) and g.degree_in(i))
    cf = _content(f, v)
    cg = _content(g, v)
    d = gcd_poly(cf, cg)
    fp = divide_exact(f, cf)
    gp = divide_exact(g, cg)
    while not gp.is_zero:
        r = _prem(fp, gp, v)
        fp = gp
        gp = r if r.is_zero else divide_exact(r, _content(r, v))
    d = normalize_monic(d * divide_exact(fp, _content(fp, v)))
    return _shift(d, tuple(map(min, lf, lg)))


# -- text format --------------------------------------------------------------------

# The grammar is regular: a text splits at its signs into terms and each
# term at '*' into factors.  A factor, stripped, is num, num/den, a
# variable, or variable^exp, where num and den are decimal, or hexadecimal
# "0x..." as fields.int_to_text writes an integer too long for decimal.
# No two quantifiers in sequence can match the same characters, and a
# hexadecimal number is tried only after the decimal form stops at its
# 'x', so one fullmatch takes time linear in the factor.
_SIGN_RE = re.compile(r"([+-])")
_FACTOR_RE = re.compile(
    r"(\d+|0x[0-9a-f]+)(?:\s*/\s*(\d+|0x[0-9a-f]+))?|([a-z]\d*)(?:\s*\^\s*(\d+))?")


def _number(digits: str) -> int:
    """The int of a number token, decimal or "0x..." (fields.int_from_text);
    a ParseError, not Python's ValueError, for a decimal past its limit on
    the length of an integer string (sys.get_int_max_str_digits(), 4300 by
    default)."""
    try:
        return int_from_text(digits)
    except ValueError:
        raise ParseError("a number of %d digits is too long" % len(digits)) from None


def poly_from_text(text: str, field: FieldSpec, nvars: int) -> SparsePoly:
    """Parse the canonical text format into a SparsePoly.

    Grammar: sign? term (('+'|'-') term)*, term = factor ('*' factor)*,
    factor = number ('/' number)? | variable ('^' integer)?, where a number
    is an integer in decimal or, as poly_to_text writes one too long for
    decimal, in hexadecimal "0x...".  Integer coefficients are reduced into
    the field; num/den fractions are accepted so canonical rational output
    round-trips.  Every malformed text, a decimal number too long for int()
    included, raises ParseError.
    """
    # split first: a text that is not a str raises TypeError, which the CLI
    # reports as malformed input
    parts = _SIGN_RE.split(text)
    if not text.strip():
        raise ParseError("empty polynomial text")
    # a blank before the first sign makes that sign a leading one
    parts = ["+"] + parts if parts[0].strip() else parts[1:]
    # the terms summed in one dict, as SparsePoly.__add__ sums them; adding
    # each term to the polynomial so far would copy it once per term
    terms = {}
    for sign, term in zip(parts[::2], parts[1::2]):
        num, den = (-1 if sign == "-" else 1), 1
        exps = [0] * nvars
        for factor in map(str.strip, term.split("*")):
            m = _FACTOR_RE.fullmatch(factor)
            if m is None:
                raise ParseError("malformed factor %r" % factor[:40] if factor else "missing factor")
            digits, under, name, power = m.groups()
            if digits is not None:
                num *= _number(digits)
                if under is not None:
                    den *= _number(under)
                    if field.is_zero(field.from_int(den)):
                        raise ParseError("zero denominator in %s/%s" % (digits, under))
            elif name[0] != "x" or len(name) == 1:
                raise ParseError("unknown variable %r" % name)
            elif name[1] == "0" or not 1 <= _number(name[1:]) <= nvars:
                raise ParseError("variable %r is not one of x1..x%d" % (name, nvars))
            else:
                exps[int(name[1:]) - 1] += _number(power) if power else 1
        coeff = field.from_int(num) if den == 1 else field.normalize(Fraction(num, den))
        exps = tuple(exps)
        c = terms.get(exps)
        c = coeff if c is None else field.add(c, coeff)
        if field.is_zero(c):
            terms.pop(exps, None)
        else:
            terms[exps] = c
    return SparsePoly._raw(field, nvars, terms)


def poly_to_text(f: SparsePoly) -> str:
    """Canonical text: terms descending graded-lex, e.g. ``3*x1^2*x2 - x3 + 7``."""
    if f.is_zero:
        return "0"
    field = f.field
    parts = []
    for exps, c in f.sorted_terms():
        ctext = str(field.scalar_to_json(c))
        negative = ctext.startswith("-")
        if negative:
            ctext = ctext[1:]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append("x%d" % (i + 1))
            elif e > 1:
                factors.append("x%d^%d" % (i + 1, e))
        if not factors:
            body = ctext
        elif ctext == "1":
            body = "*".join(factors)
        else:
            body = ctext + "*" + "*".join(factors)
        parts.append(("-" if negative else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += (" - " if sign == "-" else " + ") + body
    return out
