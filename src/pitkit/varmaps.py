"""Variable-count reduction maps that preserve transcendence degree.

Both of the paper's reductions are affine maps x = b + M z whose nonzero
entries are powers of a field element c, with exponents reduced mod a prime
p.  AffineMap holds the one representation, integer columns built from an
exponent table, and implements apply (one polynomials.substitution per
map), point_images, affine_summary and the chain-rule jacobian_at once.
The two constructions only give the table:

* KroneckerMap (kind "phi"): keeps a chosen r-subset of the variables alive
  as z_1..z_r and pins every dropped variable to the constant c^(D^j mod p),
  j being the position among the dropped variables.  Works over any field.
* VandermondeMap (kind "psi"): sends every variable to an affine-linear
  polynomial in z_0..z_r whose coefficients are powers of c with exponents
  reduced mod p.  Needs the characteristic to be zero or larger than
  delta^r, but also preserves the structure of depth-4 circuits, which the
  Kronecker map does not.

The search helpers enumerate candidates in a fixed order (p ascending over
primes, c ascending, variable subsets in lexicographic order) and certify
each candidate by recomputing the transcendence degree of the images, so a
returned map is correct regardless of which lemma motivated the parameter
ranges.  A candidate whose linear rank is below the target cannot keep it
and is rejected before any point is evaluated (AffineMap.affine_summary);
a prime at which no c can reach the target is skipped whole
(vandermonde_candidates, the one enumerator of Vandermonde maps;
kronecker_candidates is its counterpart for Kronecker maps).
ParamSchedule packages the closed-form parameter sizes of each family and
enumerates its maps (ParamSchedule.maps), unscreened, behind the exact
hitting sets and the exact searches; the integers are astronomically large
for all but toy inputs, which is why the searches default to adaptive
mode.  first_certified is the one candidate loop of every search.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

from . import linalg
from .fields import FieldError, FieldSpec
from .independence import (POINT_BOUND, check_value_bits, evaluated_certificate,
                           evaluated_rank, jacobian, trdeg)
from .polynomials import BudgetExceeded, SparsePoly, substitution
from .primes import iter_primes


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


class SearchExhausted(RuntimeError):
    """Candidate enumeration hit its bound without certifying a map."""


def map_arity(kind: str, r: int, n: int) -> int:
    """The number of output variables of a map of the family kind that keeps
    trdeg (or rank) r of inputs in n variables: min(r, n) for a Kronecker
    map ("any-char"), r + 1 for a Vandermonde one ("sparse-char0",
    "depth4")."""
    return min(r, n) if kind == "any-char" else r + 1


class ParamSchedule:
    """Closed-form parameter sizes for one reduction family.

    kind is "sparse-char0", "any-char", or "depth4".  h1_size bounds the c
    sample, h2_size the per-axis evaluation grid, p_max the prime range.
    provenance labels these as the exact closed-form values; searches that
    shrink them for practicality label their own results "adaptive".
    """

    __slots__ = ("kind", "r", "D1", "D2", "p_max", "h1_size", "h2_size", "params", "provenance")

    def __init__(self, kind, r, D1, D2, p_max, h1_size, h2_size, params):
        self.kind = kind
        self.r = r
        self.D1 = D1
        self.D2 = D2
        self.p_max = p_max
        self.h1_size = h1_size
        self.h2_size = h2_size
        self.params = dict(params)
        self.provenance = "exact-" + kind

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "D1": self.D1,
            "D2": self.D2,
            "p_max": self.p_max,
            "h1_size": self.h1_size,
            "h2_size": self.h2_size,
            "params": self.params,
            "provenance": self.provenance,
        }

    def w(self, n: int) -> int:
        """The number of output variables of every map of the family."""
        return map_arity(self.kind, self.r, n)

    def count(self, n: int) -> int:
        """A bound on the number of maps maps(field, n) yields: p_max * h1_size
        per kept subset (there are fewer primes than p_max, and a prime
        field caps the c sample)."""
        count = self.p_max * self.h1_size
        if self.kind == "any-char":
            count *= math.comb(n, self.w(n))
        return count

    def maps(self, field: FieldSpec, n: int):
        """The closed-form family, lazily: every (p, c) of pc_candidates up
        to p_max with the c sample h1_size, in that order; for "any-char" a
        KroneckerMap per kept w(n)-subset (lexicographic) with D = D1, else
        a VandermondeMap with D1 and D2.  No prime is skipped: a hitting
        set needs the points of every map."""
        if self.kind == "any-char":
            return kronecker_candidates(field, n, self.w(n), self.D1, self.p_max, self.h1_size, 0)
        return vandermonde_candidates(field, n, self.r, self.D1, self.D2, self.p_max,
                                      self.h1_size, 0, 0)

    def __repr__(self):
        return "ParamSchedule(kind=%r, r=%d)" % (self.kind, self.r)


def conjectured_rank_bound(delta: int, k: int, s: int) -> int:
    # speculative small alternative to the proven k*s; opt-in only, results
    # derived from it are never labeled certified
    return max(1, delta * k * ceil_log2(s + 1))


# The largest power, in bits, schedule() computes; its logarithm is
# compared first, so a larger one is refused without being built.
MAX_SCHEDULE_BITS = 1 << 20


def _power(base: int, exp: int) -> int:
    """base ** exp for base >= 2, or BudgetExceeded when it would have more
    than MAX_SCHEDULE_BITS bits."""
    if exp > MAX_SCHEDULE_BITS or exp * math.log2(base) > MAX_SCHEDULE_BITS:
        raise BudgetExceeded(
            "a schedule size exceeds the limit of %d bits" % MAX_SCHEDULE_BITS
        )
    return base ** exp


def schedule(
    kind: str,
    *,
    n: int,
    delta: int,
    r: int | None = None,
    d: int | None = None,
    ell: int | None = None,
    k: int | None = None,
    s: int | None = None,
    conjecture_R: bool = False,
) -> ParamSchedule:
    """Parameter sizes for the certified enumeration of each family.

    Raises BudgetExceeded when a size would exceed 2^MAX_SCHEDULE_BITS.
    """
    if n < 1 or delta < 1:
        raise ValueError("need n >= 1 and delta >= 1")
    if kind == "sparse-char0":
        if r is None or d is None or ell is None:
            raise ValueError("sparse-char0 needs r, d, and ell")
        if r < 1 or d < 0 or ell < 1:
            raise ValueError("bad sparse-char0 sizes")
        D1 = _power(2 * delta * n, r + 1)
        D2 = 2
        lg = ceil_log2(D1)
        p_max = _power(2 * n * r * ell, 2 * (r + 1)) * lg * lg + 1
        return ParamSchedule(
            kind,
            r,
            D1,
            D2,
            p_max,
            delta * r * p_max,
            d + 1,
            {"n": n, "delta": delta, "r": r, "d": d, "ell": ell},
        )
    if kind == "any-char":
        if r is None or d is None:
            raise ValueError("any-char needs r and d")
        if r < 1 or d < 0:
            raise ValueError("bad any-char sizes")
        D = delta ** (r + 1) + 1
        lg = ceil_log2(D)
        p_max = _power(n + delta ** r, 8 * delta ** (r + 1)) * lg * lg + 1
        return ParamSchedule(
            kind,
            r,
            D,
            None,
            p_max,
            delta ** r * r * p_max,
            d + 1,
            {"n": n, "delta": delta, "r": r, "d": d},
        )
    if kind == "depth4":
        if k is None or s is None:
            raise ValueError("depth4 needs k and s")
        if k < 2 or s < 1 or (k > 2 and r is not None and r < 1):
            raise ValueError("bad depth4 sizes")
        if k == 2:
            rr = 1
        elif r is not None:
            rr = r
        elif conjecture_R:
            rr = conjectured_rank_bound(delta, k, s)
        else:
            rr = k * s
        D1 = _power(2 * delta * n, 2 * rr)
        D2 = delta + 1
        lg = ceil_log2(D1)
        p_max = (
            2 ** (2 * (k + 1))
            * _power(2 * k * rr * s * n * delta ** 2, 8 * delta ** 2 + 4 * delta * rr)
            * lg
            * lg
            + 1
        )
        h1 = 2 ** (k + 2) * k ** 2 * rr * s ** 2 * delta ** 4 * p_max
        return ParamSchedule(
            kind,
            rr,
            D1,
            D2,
            p_max,
            h1,
            delta * s + 1,
            {
                "n": n,
                "delta": delta,
                "k": k,
                "s": s,
                "conjectured": bool(conjecture_R and k != 2 and r is None),
            },
        )
    raise ValueError("unknown schedule kind %r" % (kind,))


class AffineMap:
    """A reduction map x_i -> b_i + sum_t M[i][t] z_t whose nonzero entries
    are powers of c: the one representation behind phi and psi.

    A subclass gives the exponent table (_exponents): row i holds the
    exponent of the constant b_i and of each M[i][t], None for a zero
    entry.  The map keeps only its integer columns (b, the columns M_t, L),
    with x = (b + M z) / L: residues with L = 1 over F_p, and over Q, with
    c = a/q and E the largest exponent, c^e as a^e q^(E - e) over L = q^E.
    """

    __slots__ = ("field", "n", "r", "p", "c", "_cols", "_substitution", "_summary")

    def __init__(self, field: FieldSpec, n: int, r: int, p: int, c):
        c = field.normalize(c)
        if field.is_zero(c):
            raise ValueError("c must be nonzero")
        self.field = field
        self.n = n
        self.r = r
        self.p = p
        self.c = c
        self._cols = None
        self._substitution = None
        self._summary = None

    def _integer_columns(self):
        """(b, M-columns, L) as integers, built once from the exponent table."""
        if self._cols is None:
            table = self._exponents()
            exps = {e for row in table for e in row if e is not None}
            if self.field.kind == "prime":
                L = 1
                power = {e: pow(self.c, e, self.field.p) for e in exps}
            else:
                a, q, E = self.c.numerator, self.c.denominator, max(exps)
                L = q ** E
                power = {e: a ** e * q ** (E - e) for e in exps}
            cols = tuple(zip(*[[0 if e is None else power[e] for e in row] for row in table]))
            self._cols = (cols[0], cols[1:], L)
        return self._cols

    def affine_summary(self):
        """(k, key) for the affine part x = b + M z of the map: k = rank(M),
        the linear rank, and key the canonical form of the affine image
        b + colspace(M), exact in every field (no residues of rationals).

        Both come from one reduced echelon of the homogenized spanning
        vectors (1, b) and (0, M_t), whose span determines the image and is
        determined by it: the image is {x : (1, x) in the span}, and the
        first vector is the only one with a nonzero first coordinate, so
        the span has rank 1 + k.  Two maps with one key differ by an
        invertible affine change of z (README, "How candidates are
        screened")."""
        if self._summary is None:
            # (1, b) times L
            const, cols, L = self._integer_columns()
            vectors = [[L, *const]] + [[0, *col] for col in cols]
            rank, key = linalg.reduced_echelon(vectors, self.field.characteristic)
            self._summary = (rank - 1, key)
        return self._summary

    def apply(self, f: SparsePoly) -> SparsePoly:
        """The image f(b + M z) in z_0..z_(w-1), expanded by one
        polynomials.substitution per map, built from the integer columns:
        x_i = (b_i + sum_t M[i][t] z_t) / L."""
        if f.field != self.field or f.nvars != self.n:
            raise ValueError("polynomial ring does not match the map")
        if self._substitution is None:
            const, cols, L = self._integer_columns()
            w = self.nvars_out
            units = [(0,) * w] + [tuple(int(q == t) for q in range(w)) for t in range(w)]
            images = [dict(zip(units, entries)) for entries in zip(const, *cols)]
            self._substitution = substitution(self.field, w, images, L)
        return self._substitution(f)

    def point_images(self, a):
        """The x-space point this map sends the z-point a to."""
        field = self.field
        return tuple(field.from_integers(*self._integer_image(field.integers(a))))

    def _integer_image(self, x):
        """The image of the z-point x = (a, q) in the integer form of
        FieldSpec.integers, in that form: (residues, 1) over F_p, and over
        Q numerators over L * q, not reduced."""
        a, q = x
        if len(a) != self.nvars_out:
            raise ValueError("expected a point with %d coordinates" % self.nvars_out)
        const, cols, L = self._integer_columns()
        out = list(const) if q == 1 else [c * q for c in const]
        for col, v in zip(cols, a):
            if v:
                out = [x + c * v for x, c in zip(out, col)]
        if self.field.kind == "prime":
            p = self.field.p
            return [v % p for v in out], 1
        return out, L * q

    def jacobian_at(self, J, a):
        """The Jacobian of the images of fs at the z-point a, where J is
        jacobian(fs), in the integer form of linalg.eval_matrix: (rows,
        den).  By the chain rule J(f o mp)(a) = J_f(mp(a)) M, one integer
        dot product per entry, on the entries of J(mp(a)) over their common
        denominator.  J is evaluated only in the variables whose row of M
        is nonzero; the others add nothing."""
        const, cols, L = self._integer_columns()
        live = [i for i in range(self.n) if any(col[i] for col in cols)]
        field = self.field
        x = self._integer_image(field.integers(a))
        rows, den = linalg.eval_matrix([[row[i] for i in live] for row in J], x)
        cols = [[col[i] for i in live] for col in cols]
        p = field.characteristic
        out = [[sum(u * v for u, v in zip(row, col)) for col in cols] for row in rows]
        if p:
            return [[v % p for v in row] for row in out], 1
        return out, den * L


class KroneckerMap(AffineMap):
    """x_i -> z_(position in I) for i in I, else the constant c^(D^j mod p)
    where j counts the dropped variable's position (1-based)."""

    __slots__ = ("kept", "D")

    def __init__(self, field: FieldSpec, n: int, r: int, kept, D: int, p: int, c):
        kept = tuple(sorted(kept))
        if not (1 <= r <= n):
            raise ValueError("need 1 <= r <= n")
        if len(kept) != r or len(set(kept)) != r:
            raise ValueError("kept must be r distinct variable indices")
        if any(i < 1 or i > n for i in kept):
            raise ValueError("kept indices are 1-based in [1, n]")
        if D < 2 or p < 2:
            raise ValueError("need D >= 2 and p >= 2")
        super().__init__(field, n, r, p, c)
        self.kept = kept
        self.D = D

    @property
    def nvars_out(self) -> int:
        return self.r

    def _exponents(self):
        pos = {v: t for t, v in enumerate(self.kept)}
        rows = []
        j = 0
        for i in range(1, self.n + 1):
            row = [None] * (self.r + 1)
            if i in pos:
                row[pos[i] + 1] = 0
            else:
                j += 1
                row[0] = pow(self.D, j, self.p)
            rows.append(row)
        return rows

    def to_json_dict(self) -> dict:
        return {
            "kind": "phi",
            "field": self.field.to_json(),
            "n": self.n,
            "r": self.r,
            "I": list(self.kept),
            "D": self.D,
            "p": self.p,
            "c": self.field.scalar_to_json(self.c),
        }

    def __repr__(self):
        return "KroneckerMap(n=%d, r=%d, I=%s, D=%d, p=%d)" % (
            self.n,
            self.r,
            list(self.kept),
            self.D,
            self.p,
        )


def vandermonde_exponents(n: int, r: int, D1: int, D2: int, p: int):
    """The exponent table of every VandermondeMap with these n, r, D1, D2
    and p, whatever c is: row i - 1 holds the exponents (D1^i, D2^i,
    i (n+1)^1, ..., i (n+1)^r), each mod p."""
    steps = [pow(n + 1, j, p) for j in range(1, r + 1)]
    return [[pow(D1, i, p), pow(D2, i, p)] + [i * s % p for s in steps]
            for i in range(1, n + 1)]


def generic_linear_rank(n: int, r: int, D1: int, D2: int, p: int) -> int:
    """The rank of the linear part M of a VandermondeMap at prime p over
    Q(c), c an indeterminate: an upper bound on the linear rank
    (AffineMap.affine_summary) of every c at p, in every field.

    Every entry of M is c^e, so a k x k minor of M is an integer polynomial
    in c whose coefficients are sums of k! signs, of absolute value at most
    w! for w = r + 1 columns.  By Cauchy's bound every root of a nonzero one
    has absolute value at most 1 + w!, so M at C0 = w! + 2 keeps every
    nonzero minor: its integer rank is the rank over Q(c).  A minor that
    vanishes over Z[c] vanishes mod every prime, and evaluating at c can
    only send more minors to 0, so no field and no c gives a larger rank.
    """
    c0 = math.factorial(r + 1) + 2
    table = vandermonde_exponents(n, r, D1, D2, p)
    power = {e: c0 ** e for row in table for e in row[1:]}
    return linalg.rank([[power[e] for e in row[1:]] for row in table], 0)[0]


class VandermondeMap(AffineMap):
    """x_i -> c^(D1^i mod p) + c^(D2^i mod p) z_0 + sum_j c^(i (n+1)^j mod p) z_j."""

    __slots__ = ("D1", "D2")

    def __init__(self, field: FieldSpec, n: int, r: int, D1: int, D2: int, p: int, c):
        if n < 1 or r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        if D1 < 2 or D2 < 2 or p < 2:
            raise ValueError("need D1, D2, p >= 2")
        super().__init__(field, n, r, p, c)
        self.D1 = D1
        self.D2 = D2

    @property
    def nvars_out(self) -> int:
        return self.r + 1

    def _exponents(self):
        return vandermonde_exponents(self.n, self.r, self.D1, self.D2, self.p)

    def to_json_dict(self) -> dict:
        return {
            "kind": "psi",
            "field": self.field.to_json(),
            "n": self.n,
            "r": self.r,
            "D1": self.D1,
            "D2": self.D2,
            "p": self.p,
            "c": self.field.scalar_to_json(self.c),
        }

    def __repr__(self):
        return "VandermondeMap(n=%d, r=%d, D1=%d, D2=%d, p=%d)" % (
            self.n,
            self.r,
            self.D1,
            self.D2,
            self.p,
        )


def map_from_json_dict(obj) -> "KroneckerMap | VandermondeMap":
    field = FieldSpec.from_json(obj["field"])
    kind = obj.get("kind")
    if kind == "phi":
        return KroneckerMap(
            field,
            obj["n"],
            obj["r"],
            obj["I"],
            obj["D"],
            obj["p"],
            field.scalar_from_json(obj["c"]),
        )
    if kind == "psi":
        return VandermondeMap(
            field,
            obj["n"],
            obj["r"],
            obj["D1"],
            obj["D2"],
            obj["p"],
            field.scalar_from_json(obj["c"]),
        )
    raise ValueError("unknown map kind %r" % (kind,))


class FaithfulResult:
    """A certified reduction: trdeg of the images equals trdeg of the inputs."""

    __slots__ = ("map", "input_cert", "image_cert", "candidates_tried")

    def __init__(self, mp, input_cert, image_cert, candidates_tried):
        self.map = mp
        self.input_cert = input_cert
        self.image_cert = image_cert
        self.candidates_tried = candidates_tried

    def to_json_dict(self) -> dict:
        return {
            "map": self.map.to_json_dict(),
            "input_certificate": self.input_cert.to_json_dict(),
            "image_certificate": self.image_cert.to_json_dict(),
            "candidates_tried": self.candidates_tried,
        }


def family_sizes(fs):
    """(delta, ell) of a family: its largest degree and its largest number
    of terms, each at least 1."""
    delta = max(1, max((f.degree() or 0) for f in fs))
    ell = max(1, max(f.num_terms() for f in fs))
    return delta, ell


def _c_samples(field: FieldSpec, p_max: int, c_max: int, c_per_p: int):
    """(p, top) for p ascending over the primes up to p_max, where the c
    sample at p is 1, 2, ..., top = c_max + c_per_p * p, capped at the
    nonzero elements of a prime field."""
    for p in iter_primes():
        if p > p_max:
            return
        top = c_max + c_per_p * p
        if field.kind == "prime":
            top = min(top, field.p - 1)
        yield p, top


def pc_candidates(field: FieldSpec, p_max: int, c_max: int, c_per_p: int = 0):
    """The (p, c) parameter pairs every search and exact enumeration walks:
    p ascending over the primes up to p_max, then c = 1, 2, ... up to
    c_max + c_per_p * p, capped at the nonzero elements of a prime field.
    Lazy: exact-mode budgets are far too large to materialize."""
    for p, top in _c_samples(field, p_max, c_max, c_per_p):
        for v in range(1, top + 1):
            yield p, field.from_int(v)


class SkippedPrime:
    """The count candidates at prime p of a search over field that no c
    can certify (see vandermonde_candidates)."""

    __slots__ = ("field", "p", "count")

    def __init__(self, field: FieldSpec, p: int, count: int):
        self.field = field
        self.p = p
        self.count = count


def kronecker_candidates(field: FieldSpec, n: int, r: int, D: int, p_max: int, c_max: int,
                         c_per_p: int):
    """The KroneckerMap of every (p, c) of pc_candidates(field, p_max,
    c_max, c_per_p), in that order, and at each (p, c) one per kept
    r-subset of the n variables, in lexicographic order."""
    subsets = list(itertools.combinations(range(1, n + 1), r))
    for p, c in pc_candidates(field, p_max, c_max, c_per_p):
        for kept in subsets:
            yield KroneckerMap(field, n, r, kept, D, p, c)


def vandermonde_candidates(field: FieldSpec, n: int, r: int, D1: int, D2: int, p_max: int,
                           c_max: int, c_per_p: int, floor: int):
    """The VandermondeMap of every (p, c) of pc_candidates(field, p_max,
    c_max, c_per_p), in that order, for a search that rejects every map of
    linear rank below floor: the whole-prime screen.  At a prime whose
    generic_linear_rank is below floor, no c reaches floor, so one
    SkippedPrime with the size of its c sample stands for its maps.  The
    bound is computed only for floor >= 2: every entry c^e of M is nonzero,
    so every map has linear rank at least 1."""
    for p, top in _c_samples(field, p_max, c_max, c_per_p):
        if floor >= 2 and generic_linear_rank(n, r, D1, D2, p) < floor:
            yield SkippedPrime(field, p, top)
            continue
        for v in range(1, top + 1):
            yield VandermondeMap(field, n, r, D1, D2, p, field.from_int(v))


def vandermonde_applies(field: FieldSpec, delta: int, r: int) -> bool:
    """May a Vandermonde reduction preserve trdeg r of degree-delta inputs?

    It needs characteristic 0 or above delta^r.  Over F_2 it also needs
    r < 2: the only nonzero c is 1, which sends every variable to the same
    affine form 1 + z_0 + ... + z_r, so the images have trdeg at most 1.
    """
    ch = field.characteristic
    if ch == 2 and r >= 2:
        return False
    return ch == 0 or ch > delta ** max(1, r)


def _certify(fs, J, mp, r0: int, seed: int):
    """The image certificate of trdeg r0 for the candidate mp, or None.

    J = jacobian(fs).  A candidate whose linear rank k (see
    AffineMap.affine_summary) is below r0 is rejected before any point is
    evaluated: with M = B C and k = rank(M), every image f(b + B (C z))
    lies in F[C z], so the images have trdeg at most k.  (A Kronecker
    candidate has k = r >= r0 and always passes.)  Then one seeded
    evaluated_rank pass reads the image Jacobian through the chain rule
    (mp.jacobian_at): it is the rank screen and the certificate at once.
    The images cannot gain trdeg, so a point of rank r0 proves trdeg r0.
    A miss rejects over a big field, where a faithful candidate shows rank
    r0 at a random point with overwhelming probability; over a small field
    the symbolic trdeg of the images decides, and only there are the
    images mp(f) built.
    """
    if mp.affine_summary()[0] < r0:
        return None
    field = mp.field
    rho, pivot_rows, pt = evaluated_rank(partial(mp.jacobian_at, J), field, mp.nvars_out, r0, seed)
    if rho == r0:
        return evaluated_certificate(field, rho, pivot_rows, pt)
    ch = field.characteristic
    if ch == 0 or ch >= (1 << 20):
        return None
    cert = trdeg([mp.apply(f) for f in fs], mode="auto")
    if cert.exact and cert.r == r0:
        return cert
    return None


def _search_start(fs, r, mode, input_cert):
    """The checks and the input certificate every map search starts from:
    (input certificate, target r, which defaults to max(1, trdeg)).  The
    certificate is trdeg(fs, mode="auto"), computed here unless the caller
    passes it."""
    if mode not in ("adaptive", "exact"):
        raise ValueError("mode must be adaptive or exact")
    if not fs:
        raise ValueError("need at least one polynomial")
    if input_cert is None:
        input_cert = trdeg(fs, mode="auto")
    r0 = input_cert.r
    if r is None:
        r = max(1, r0)
    if r < r0:
        raise ValueError("r=%d below the input transcendence degree %d" % (r, r0))
    return input_cert, r


def first_certified(maps, certify, name, p_max):
    """The first map of maps that certify proves: (map, proof, tried), where
    proof = certify(map) is not None and tried counts the candidates up to
    and including it.  A SkippedPrime among the maps counts as its count
    candidates, none of them certified.  Raises SearchExhausted when maps
    runs out; name and the p bound p_max go into its message.  Over F_2 the
    only c is 1, and every power of 1 is 1, so every prime repeats the maps
    of p = 2: the search walks p = 2 only and raises SearchExhausted at the
    first map or SkippedPrime with p > 2."""
    tried = 0
    for mp in maps:
        if mp.field.characteristic == 2 and mp.p > 2:
            raise SearchExhausted(
                "no certified %s map over F_2 after %d candidates: every prime "
                "repeats the maps of p = 2" % (name, tried)
            )
        if isinstance(mp, SkippedPrime):
            tried += mp.count
            continue
        tried += 1
        proof = certify(mp)
        if proof is not None:
            return mp, proof, tried
    raise SearchExhausted(
        "no certified %s map after %d candidates (p bound %d)" % (name, tried, p_max)
    )


def _first_faithful(fs, maps, input_cert, seed, name, p_max):
    """The first candidate map whose images keep the input trdeg."""
    J = jacobian(fs)
    mp, cert, tried = first_certified(
        maps, lambda mp: _certify(fs, J, mp, input_cert.r, seed), name, p_max
    )
    return FaithfulResult(mp, input_cert, cert, tried)


def search_kronecker_map(fs, r: int | None = None, mode: str = "adaptive", seed: int = 0,
                         input_cert=None) -> FaithfulResult:
    """Smallest certified Kronecker substitution for the family fs.

    Candidates are tried with p ascending over primes, then c ascending,
    then the kept subset I in lexicographic order; the first candidate whose
    images provably keep the transcendence degree wins.  Exact mode walks
    the closed-form family, schedule("any-char", ...).maps(field, n), whose
    c sample per prime is the full h1 budget.  Works in any
    characteristic.  Raises SearchExhausted past the closed-form p bound,
    or over F_2 past p = 2 (see first_certified).
    input_cert, when given, must be trdeg(fs, mode="auto"); the
    search then does not compute it again.
    """
    input_cert, r = _search_start(fs, r, mode, input_cert)
    field, n = fs[0].field, fs[0].nvars
    if r > n:
        raise ValueError("r cannot exceed the number of variables")
    delta, _ = family_sizes(fs)
    # the search walks maps, not a grid: the grid degree d is immaterial
    sched = schedule("any-char", n=n, delta=delta, r=r, d=delta)
    if mode == "exact":
        maps = sched.maps(field, n)
    else:
        # the c sample grows by delta^r * r per unit of p
        maps = kronecker_candidates(field, n, r, sched.D1, sched.p_max, 0, delta ** r * r)
    return _first_faithful(fs, maps, input_cert, seed, "Kronecker", sched.p_max)


def search_vandermonde_map(fs, r: int | None = None, mode: str = "adaptive", seed: int = 0,
                           input_cert=None) -> FaithfulResult:
    """Certified Vandermonde-style reduction for the family fs.

    Requires vandermonde_applies: characteristic zero or larger than
    delta^r, and r < 2 over F_2.  Candidate order is p ascending over
    primes, then c ascending.  Adaptive mode uses the smallest D1, D2 the
    faithfulness argument allows; exact mode walks the closed-form family,
    schedule("sparse-char0", ...).maps(field, n).  Both skip, and count,
    every prime whose generic linear rank is below the input trdeg (see
    vandermonde_candidates).  Raises SearchExhausted
    past the p bound, or over F_2 past p = 2 (see first_certified).
    Over Q it raises BudgetExceeded, before any candidate, when delta
    times the bits of a seeded point coordinate exceeds MAX_VALUE_BITS:
    the Jacobian is evaluated at such points.
    input_cert as in search_kronecker_map.
    """
    input_cert, r = _search_start(fs, r, mode, input_cert)
    field, n = fs[0].field, fs[0].nvars
    r0 = input_cert.r
    delta, ell = family_sizes(fs)
    check_value_bits(field, delta, POINT_BOUND.bit_length(), "a seeded point")
    if not vandermonde_applies(field, delta, r0):
        raise FieldError(
            "Vandermonde reduction needs characteristic 0 or > delta^r, "
            "and r < 2 over F_2 (char %d, delta %d, r %d)"
            % (field.characteristic, delta, r0)
        )
    sched = schedule("sparse-char0", n=n, delta=delta, r=r, d=delta, ell=ell)
    # _certify rejects every map of linear rank below r0
    if mode == "exact":
        maps = vandermonde_candidates(field, n, r, sched.D1, sched.D2, sched.p_max,
                                      sched.h1_size, 0, r0)
    else:
        D1 = max(delta * r + 1, (n + 1) ** (r + 1))
        maps = vandermonde_candidates(field, n, r, D1, 2, sched.p_max, 0, delta * r, r0)
    return _first_faithful(fs, maps, input_cert, seed, "Vandermonde", sched.p_max)
