"""Exact scalar arithmetic: prime fields F_p and arbitrary-precision rationals.

Raw field elements are plain Python values: canonical residues in [0, p) for a
prime field, `fractions.Fraction` in lowest terms for the rationals.  A
FieldSpec bundles arithmetic on raw values.  Mixed-field operations are
rejected everywhere.  The exact kernels run on integers: integers() and
from_integers() are the one conversion into that form and back.  The
evaluations take points in blocks of that form, (cols, den) with
coordinate i of point j equal to cols[i][j] / den; block() is one point as
such a block.  A map's image of one point takes integers() of the point
itself (varmaps.AffineMap._integer_image).  No element is enumerated
here: a grid axis is the indices 0 .. m - 1, their own integer form
(hitting._axis).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .primes import is_prime


def int_to_text(v: int) -> str:
    """str(v), or hex(v) ("0x...", "-0x..." if negative) when v is too long
    for Python's decimal conversion (int_max_str_digits, 4300 digits by
    default): the rule for every integer of a report (README)."""
    try:
        return str(v)
    except ValueError:
        return hex(v)


def int_from_text(text: str) -> int:
    """The int that int_to_text wrote as text; ValueError for any other
    text, a decimal past Python's limit included."""
    return int(text, 16) if "x" in text else int(text)


# Mersenne prime 2^61 - 1; the default "62-bit class" working field.
DEFAULT_PRIME = (1 << 61) - 1


class FieldError(ValueError):
    pass


def block_size(cols) -> int:
    """The number of points in a block with coordinate columns cols; a
    block of no columns is one point with no coordinates."""
    return len(cols[0]) if cols else 1


class FieldSpec:
    """A prime field F_p or the rational field Q."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p=None):
        if kind == "prime":
            if not isinstance(p, int) or p < 2:
                raise FieldError("prime field needs an integer modulus >= 2")
            try:
                prime = is_prime(p)
            except ValueError as e:
                raise FieldError("cannot decide whether the modulus is prime: %s" % e)
            if not prime:
                raise FieldError("%d is not prime" % p)
        elif kind == "rational":
            if p is not None:
                raise FieldError("rational field takes no modulus")
        else:
            raise FieldError("unknown field kind %r" % (kind,))
        self.kind = kind
        self.p = p

    # -- identity ----------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "prime" else 0

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "prime":
            return "FieldSpec(prime, p=%d)" % self.p
        return "FieldSpec(rational)"

    # -- raw-value arithmetic ----------------------------------------------

    def zero(self):
        return 0 if self.kind == "prime" else Fraction(0)

    def one(self):
        return 1 if self.kind == "prime" else Fraction(1)

    def from_int(self, a: int):
        if self.kind == "prime":
            return a % self.p
        return Fraction(a)

    def normalize(self, v):
        """Coerce an int or Fraction into a raw element."""
        if self.kind == "prime":
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    # exact rational into F_p: num * den^-1
                    return v.numerator * pow(v.denominator, -1, self.p) % self.p
                v = v.numerator
            if not isinstance(v, int):
                raise FieldError("prime-field element must be an integer")
            return v % self.p
        if isinstance(v, bool):
            raise FieldError("bool is not a field element")
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, Fraction):
            return v
        raise FieldError("rational element must be int or Fraction")

    def is_zero(self, a) -> bool:
        return a == 0

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "prime" else a - b

    def neg(self, a):
        return (-a) % self.p if self.kind == "prime" else -a

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "prime":
            return pow(a, -1, self.p)
        return 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a**e by square-and-multiply (builtin pow); e may be negative."""
        if e < 0:
            a = self.inv(a)
            e = -e
        return pow(a, e, self.p) if self.kind == "prime" else a ** e

    # -- the integer form ------------------------------------------------------

    def integers(self, values):
        """(ints, den) with values[i] = ints[i] / den: residues and den = 1
        over F_p, numerators over the least common denominator over Q."""
        if self.kind == "prime":
            p = self.p
            return [v % p if type(v) is int else self.normalize(v) for v in values], 1
        vals = [v if type(v) in (Fraction, int) else self.normalize(v) for v in values]
        return self.over_one_denominator([(v.numerator, v.denominator) for v in vals])

    def block(self, values):
        """integers(values) as a block of one point: (cols, den) with one
        column of one entry per coordinate."""
        ints, den = self.integers(values)
        return [[v] for v in ints], den

    def over_one_denominator(self, pairs):
        """integers() of the values N / D given as pairs (N, D) of ints, D >
        0, without a Fraction: the numerators over the lcm of the D, not
        reduced.  Over F_p each N is a residue and D = 1, as
        SparsePoly._eval_integers gives them."""
        # a set: lcm gets the distinct denominators (mostly just 1), not one
        # argument per value, which measurably raised peak memory
        den = math.lcm(*{D for _, D in pairs})
        if den == 1:
            return [N for N, _ in pairs], 1
        return [N * (den // D) for N, D in pairs], den

    @staticmethod
    def common_denominator(dens):
        """The lcm of the positive ints dens: the denominator of a sum in
        the circuits' forward pass."""
        return math.lcm(*set(dens))

    def from_integers(self, ints, den=1):
        """The raw elements ints[i] / den, the inverse of integers."""
        if self.kind == "prime":
            p = self.p
            if den == 1:
                return [v % p for v in ints]
            inv = pow(den, -1, p)
            return [v * inv % p for v in ints]
        if den == 1:
            return [Fraction(v) for v in ints]
        return [Fraction(v, den) for v in ints]

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "rational"}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise FieldError("bad field object: %r" % (obj,))
        if obj["kind"] == "prime":
            return FieldSpec("prime", obj.get("p"))
        if obj["kind"] == "rational":
            return FieldSpec("rational")
        raise FieldError("unknown field kind %r" % (obj["kind"],))

    def scalar_to_json(self, v):
        """Raw element -> JSON value (int, or "num/den" string for
        rationals, each part written by int_to_text)."""
        if self.kind == "prime":
            return v
        v = self.normalize(v)
        if v.denominator == 1:
            return int_to_text(v.numerator)
        return "%s/%s" % (int_to_text(v.numerator), int_to_text(v.denominator))

    def scalar_from_json(self, obj):
        if isinstance(obj, bool):
            # bool is an int: true and false would read as 1 and 0
            raise FieldError("a field scalar is a number, not the JSON boolean %s"
                             % str(obj).lower())
        if self.kind == "prime":
            if not isinstance(obj, int):
                raise FieldError("prime-field scalar must be a JSON integer")
            return obj % self.p
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            try:
                if "0x" in obj:
                    num, sep, den = obj.partition("/")
                    return Fraction(int_from_text(num), int_from_text(den) if sep else 1)
                return Fraction(obj)
            except (ValueError, ZeroDivisionError) as e:
                raise FieldError("bad rational scalar %r: %s" % (obj, e))
        raise FieldError("rational scalar must be int or 'num/den' string")
