"""Reference arithmetic for the benchmark, written apart from pitkit.

Fields are F_p (canonical residues) or Q (fractions.Fraction).  A
polynomial is a dict {exponent tuple: nonzero coefficient}.  The checker
re-derives every answer it needs from these routines and from sympy, so a
fault in pitkit's own arithmetic cannot vouch for itself.
"""

from __future__ import annotations

import re
from fractions import Fraction

BIG_PRIME = (1 << 61) - 1


class Field:
    """F_p when p is an int, Q when p is None."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    @property
    def name(self):
        return "Q" if self.p is None else "F%d" % self.p

    def norm(self, v):
        if self.p is None:
            return Fraction(v)
        if isinstance(v, Fraction):
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return v % self.p

    def inv(self, a):
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def to_json(self):
        return {"kind": "rational"} if self.p is None else {"kind": "prime", "p": self.p}

    def scalar(self, obj):
        """A scalar as pitkit writes it in JSON: int, or "num/den" for Q."""
        if isinstance(obj, bool) or not isinstance(obj, (int, str)):
            raise ValueError("bad scalar %r" % (obj,))
        return self.norm(Fraction(obj))

    def rand_point(self, rng, n):
        if self.p is None:
            return tuple(Fraction(rng.randrange(-10 ** 9, 10 ** 9 + 1)) for _ in range(n))
        return tuple(rng.randrange(self.p) for _ in range(n))


# -- polynomials ---------------------------------------------------------------


def padd(F, a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = F.norm(out.get(e, 0) + sign * c)
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(F, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: v for e, v in ((e, F.norm(c)) for e, c in out.items()) if v}


def pscale(F, a, c):
    return {e: v for e, v in ((e, F.norm(x * c)) for e, x in a.items()) if v}


def pdeg(a):
    return max((sum(e) for e in a), default=-1)


def peval(F, a, pt):
    acc = 0
    for e, c in a.items():
        t = c
        for x, k in zip(pt, e):
            if k:
                t = t * x ** k if F.p is None else t * pow(x, k, F.p)
        acc += t
    return F.norm(acc)


def pderiv(F, a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            v = F.norm(c * e[i])
            if v:
                d = list(e)
                d[i] -= 1
                out[tuple(d)] = v
    return out


def psubst(F, a, images, nvars_out):
    """a(images[0], ..., images[m-1]) by plain expansion."""
    acc = {}
    for e, c in a.items():
        t = {(0,) * nvars_out: c}
        for img, k in zip(images, e):
            for _ in range(k):
                t = pmul(F, t, img)
        acc = padd(F, acc, t)
    return acc


def _coeff_text(F, c):
    if F.p is not None and c > F.p // 2:
        c -= F.p
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def ptext(F, a):
    """pitkit's input text format; signed coefficients, graded order."""
    if not a:
        return "0"
    out = []
    for e in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        ct = _coeff_text(F, a[e])
        neg = ct.startswith("-")
        ct = ct.lstrip("-")
        fac = ["x%d" % (i + 1) if k == 1 else "x%d^%d" % (i + 1, k) for i, k in enumerate(e) if k]
        body = "*".join(([ct] if ct != "1" or not fac else []) + fac)
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


_TOK = re.compile(r"\s*(?:(\d+)(?:/(\d+))?|x(\d+)(?:\^(\d+))?|([+\-*]))")


def parse(F, text, nvars):
    """Parse pitkit's output text in x1..xn."""
    out = {}
    pos, sign = 0, 1
    coeff, exps = None, [0] * nvars
    text = text.strip()
    if text == "0":
        return {}

    def flush():
        c = F.norm(sign * (1 if coeff is None else coeff))
        return padd(F, out, {tuple(exps): c}) if c else out

    while pos < len(text):
        m = _TOK.match(text, pos)
        if not m:
            raise ValueError("cannot parse %r at %d" % (text, pos))
        pos = m.end()
        num, den, idx, pw, op = m.groups()
        if num is not None:
            v = Fraction(int(num), int(den) if den else 1)
            coeff = v if coeff is None else coeff * v
        elif idx is not None:
            i = int(idx) - 1
            if not 0 <= i < nvars:
                raise ValueError("variable out of range in %r" % text)
            exps[i] += int(pw) if pw else 1
        elif op in "+-":
            if coeff is not None or any(exps):
                out = flush()
                coeff, exps = None, [0] * nvars
            sign = 1 if op == "+" else -1
    return flush()


# -- linear algebra ------------------------------------------------------------


def rank(F, rows):
    """Rank of a matrix over F by plain Gaussian elimination."""
    A = [[F.norm(v) for v in row] for row in rows]
    r = 0
    ncols = len(A[0]) if A else 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(A)) if A[i][j]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = F.inv(A[r][j])
        for i in range(r + 1, len(A)):
            if A[i][j]:
                f = F.norm(A[i][j] * inv)
                A[i] = [F.norm(x - f * y) for x, y in zip(A[i], A[r])]
        r += 1
    return r


def jacobian_rank_at(F, fs, nvars, pt):
    return rank(F, [[peval(F, pderiv(F, f, i), pt) for i in range(nvars)] for f in fs])


def generic_rank(F, fs, nvars, rng, trials=3):
    """Max evaluated Jacobian rank over random points: trdeg in char 0 or
    large characteristic, with overwhelming probability."""
    return max(jacobian_rank_at(F, fs, nvars, F.rand_point(rng, nvars)) for _ in range(trials))
