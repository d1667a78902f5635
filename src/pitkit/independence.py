"""Algebraic independence: Jacobian ranks, transcendence degree with
checkable certificates, and annihilating polynomials by exhaustive search.

Soundness notes that the code below leans on (all characteristic-free unless
said otherwise):

* rank of the Jacobian is a lower bound for the transcendence degree in any
  characteristic; equality needs ch(K) = 0 or ch(K) large relative to the
  degrees (see _jacobian_trusted for the exact gate used).  The Jacobian
  has one representation: jacobian builds its entries from each member's
  integer form, and they are only evaluated (linalg.eval_matrix) or
  eliminated on packed integer polynomials (jacobian_rank); no SparsePoly
  derivative is built.
* a set of m polynomials in n variables has transcendence degree at most
  min(m, n); any subset larger than n is dependent outright.
* if a size-u subset with max degree delta is dependent, it admits an
  annihilating polynomial of total degree at most delta^(u-1), so searching
  up to that cap decides dependence of the subset exactly.  That search,
  annihilator, is the one decision of subset dependence, for the brute-force
  trdeg and for its verification alike, and it draws no random point, so
  neither takes a seed.  It streams the columns of its linear map degree by
  degree and stops at the first dependent one, so the cap bounds it: a
  subset whose first dependency has low degree never builds the columns
  above it.
* algebraic independence is a matroid: a maximal independent set found by
  greedy single-element extension has the full rank as its size.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import linalg
from .fields import FieldSpec
from .polynomials import (
    MAX_VALUE_BITS,
    BudgetExceeded,
    PackedRing,
    SparsePoly,
    normalize_monic,
    packed_product,
    poly_from_text,
    poly_to_text,
)

DEFAULT_COLUMN_BUDGET = 50_000
# the entries, over the columns it has built, past which an annihilator
# search raises BudgetExceeded: linalg.kernel_vector keeps every column
# before the first dependent one
MAX_STREAM_ENTRIES = 2_000_000
# the term products (polynomials.PackedRing.work) past which the symbolic
# Jacobian rank raises BudgetExceeded: four dense quartics in four
# variables take 1.9 million, four dense sextics 51 million
MAX_JACOBIAN_PRODUCTS = 8_000_000


def _check_family(fs):
    if not fs:
        raise ValueError("need at least one polynomial")
    f0 = fs[0]
    for f in fs:
        if f.field != f0.field or f.nvars != f0.nvars:
            raise ValueError("family members live in different rings")
    return f0.field, f0.nvars


def _max_degree(fs) -> int:
    return max((f.degree() or 0) for f in fs)


def jacobian(fs):
    """The m x n Jacobian of fs as a linalg.FormMatrix: entry (i, v) is the
    partial derivative of fs[i] in x_v, in the integer form of
    SparsePoly._compile over fs[i]'s own denominator D: each term (N, mon,
    k) of fs[i] with e = e_v > 0 gives the term (N e, mon - e_v, k - 1),
    reduced mod p, and dropped when that is 0 (p | e in characteristic p,
    as in SparsePoly.derivative).  No polynomial is built."""
    field, n = _check_family(fs)
    p = field.p
    rows = []
    for f in fs:
        D, terms, _ = f._compiled or f._compile()
        row = [[] for _ in range(n)]
        for N, mon, k in terms:
            for t, (v, e) in enumerate(mon):
                c = N * e % p if p else N * e
                if c:
                    rest = mon[:t] + ((v, e - 1),) + mon[t + 1:] if e > 1 else mon[:t] + mon[t + 1:]
                    row[v].append((c, rest, k - 1))
        rows.append([(D, tuple(ts), max(t[2] for t in ts)) if ts else (D, (), 0) for ts in row])
    return linalg.FormMatrix(field, n, rows)


def jacobian_rank(fs, J=None):
    """(rank, pivot_rows, pivot_cols) of the symbolic Jacobian of fs over
    F(x) (linalg.poly_matrix_rank); J, when given, is jacobian(fs).
    Raises BudgetExceeded past MAX_JACOBIAN_PRODUCTS term products."""
    return linalg.poly_matrix_rank(jacobian(fs) if J is None else J, MAX_JACOBIAN_PRODUCTS)


def _subseed(seed: int, salt: int) -> int:
    # integer-only mixing; never hash strings (PYTHONHASHSEED would break
    # run-to-run determinism)
    return (seed * 1_000_003 + salt * 7_919 + 12_345) % (1 << 62)


# the coordinates of a seeded point over Q lie in [-POINT_BOUND, POINT_BOUND]
POINT_BOUND = 10 ** 9


def _random_point(field: FieldSpec, rng: random.Random, n: int):
    if field.kind == "prime":
        return tuple(rng.randrange(field.p) for _ in range(n))
    return tuple(Fraction(rng.randrange(-POINT_BOUND, POINT_BOUND + 1)) for _ in range(n))


# the seeded points evaluated_rank tries
_TRIALS = 4
# Characteristic 0 or at least this is a big field: there a family's
# generic Jacobian rank shows at a seeded point almost surely (it misses
# with probability at most D/|S|, Schwartz-Zippel), so one miss rejects.
BIG_CHARACTERISTIC = 1 << 20


def big_field(field) -> bool:
    """Does one seeded point decide a rejection over field
    (BIG_CHARACTERISTIC)?"""
    ch = field.characteristic
    return ch == 0 or ch >= BIG_CHARACTERISTIC


def evaluated_rank(jac_at, field, nvars: int, ceiling: int, seed: int = 0, target=None):
    """The rank of a Jacobian given by its values, as a lower bound, with
    the point that shows it: (rank, pivot rows, point).  jac_at(pt) is the
    evaluated Jacobian at a point of nvars coordinates as (rows, den), in
    the integer form of linalg.eval_matrix.  The rank is the
    max over _TRIALS seeded random points, taken at the first point that
    reaches it; it never exceeds the symbolic rank, since evaluation is a
    specialization.  The points are the ones a report names, so they stay
    the stream of _subseed(seed, 2).

    The trials stop once the rank reaches min(rows, cols, ceiling).  No
    point can pass min(rows, cols).  A ceiling that bounds the rank at
    every point leaves the answer equal to the max over all trials.  Such
    bounds are the trdeg of the family (an evaluated Jacobian's rank is at
    most the trdeg in every characteristic) and, for the images of an
    affine map x = b + M z, the linear rank of M (the images lie in a ring
    generated by rank(M) linear forms, so their trdeg is at most that).
    Any other ceiling leaves min(rank, ceiling) unchanged, which is all a
    caller that compares the rank against the ceiling reads.

    target, when given, is the rank below which the caller rejects.  Over
    a big field (big_field) the first point decides that: a first rank
    below target ends the trials there, and the caller rejects on it.  A
    first point that meets target still takes the later trials towards
    the ceiling, so the rank and point of an accepted family are those of
    the run without target.  Over a small field target changes nothing.

    A rank that meets a known upper bound on the trdeg (images under a
    ring homomorphism cannot gain trdeg) proves equality in any
    characteristic; evaluated_certificate records it."""
    rng = random.Random(_subseed(seed, 2))
    stop_on_miss = target is not None and big_field(field)
    best = (-1, [], None)
    for _ in range(_TRIALS):
        pt = _random_point(field, rng, nvars)
        M = jac_at(pt)[0]
        rho, pivot_rows = linalg.rank(M, field.characteristic)
        if rho > best[0]:
            best = (rho, pivot_rows, pt)
        if rho >= min(len(M), len(M[0]) if M else 0, ceiling):
            break
        if stop_on_miss and best[0] < target:
            # true at the first point or never: best only grows
            break
    return best


def check_value_bits(field, delta: int, bits: int, point: str):
    """Over Q, raise BudgetExceeded before evaluating the Jacobian of a
    family of degree delta at a point whose integer form has up to bits
    bits, when its values could pass MAX_VALUE_BITS."""
    if field.kind == "rational" and delta * bits > MAX_VALUE_BITS:
        raise BudgetExceeded("Jacobian values at %s may exceed the limit of %d bits"
                             % (point, MAX_VALUE_BITS))


class TrdegCertificate:
    """Transcendence degree plus re-checkable evidence.

    mode is one of:
      "jacobian"             exact value backed by a Jacobian rank argument
      "bruteforce"           exact value backed by annihilator (non)existence
      "jacobian-lower-bound" flagged: only r <= trdeg is guaranteed
    basis is an independent index subset of the input family (best-effort for
    the flagged mode).  witness holds the JSON-able evidence details.
    """

    __slots__ = ("r", "mode", "basis", "witness")

    def __init__(self, r: int, mode: str, basis, witness: dict):
        self.r = r
        self.mode = mode
        self.basis = tuple(basis)
        self.witness = witness

    @property
    def exact(self) -> bool:
        return self.mode in ("jacobian", "bruteforce")

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "mode": self.mode,
            "basis": list(self.basis),
            "witness": self.witness,
        }

    @staticmethod
    def from_json_dict(obj) -> "TrdegCertificate":
        return TrdegCertificate(obj["r"], obj["mode"], obj["basis"], obj["witness"])

    def __repr__(self):
        return "TrdegCertificate(r=%d, mode=%s)" % (self.r, self.mode)


def _jacobian_trusted(field, delta: int, rho: int, m: int, n: int) -> bool:
    """May the Jacobian rank rho be reported as the exact trdeg?

    Safe cases, in order: characteristic zero; rank meets the universal
    upper bound min(m, n) (lower bound meets upper bound, any char); all
    polynomials affine-linear (rank of the linear parts is the trdeg in any
    characteristic); characteristic above delta^min(m,n) (which dominates
    delta^trdeg, the hypothesis the criterion actually needs).  Gating on
    delta^rho alone would be unsound: {x^2} over F_2 has rank 0 and the gate
    2 > delta^0 would pass, yet the trdeg is 1.
    """
    if field.characteristic == 0:
        return True
    U = min(m, n)
    if rho == U:
        return True
    if delta <= 1:
        return True
    return field.characteristic > delta ** U


def trdeg(
    fs,
    mode: str = "auto",
    col_budget: int = DEFAULT_COLUMN_BUDGET,
    J=None,
) -> TrdegCertificate:
    """Transcendence degree of the family fs with a certificate.

    mode "jacobian": symbolic Jacobian rank; exact when the characteristic
    gate passes, otherwise returned as a flagged lower bound.
    mode "bruteforce": greedy matroid extension, each extension decided by
    one annihilator search at the Perron cap; exact in every characteristic.
    mode "auto": Jacobian first, bruteforce fallback when the gate fails,
    flagged lower bound if the fallback exceeds its budget.
    No mode evaluates at a random point, so the answer depends on fs alone.
    J, when given, is jacobian(fs).  The symbolic rank raises
    BudgetExceeded past MAX_JACOBIAN_PRODUCTS (jacobian_rank).
    """
    if mode not in ("auto", "jacobian", "bruteforce"):
        raise ValueError("mode must be auto, jacobian, or bruteforce")
    field, n = _check_family(fs)
    m = len(fs)
    delta = _max_degree(fs)

    if mode in ("auto", "jacobian"):
        rho, prows, pcols = jacobian_rank(fs, J)

        def symbolic(cert_mode, method):
            witness = {
                "method": method,
                "pivot_rows": list(prows),
                "pivot_cols": list(pcols),
                "max_degree": delta,
            }
            return TrdegCertificate(rho, cert_mode, prows, witness)

        if _jacobian_trusted(field, delta, rho, m, n):
            return symbolic("jacobian", "symbolic-rank")
        if mode == "jacobian":
            return symbolic("jacobian-lower-bound", "symbolic-rank-untrusted-characteristic")
        try:
            return _trdeg_bruteforce(fs, col_budget)
        except BudgetExceeded:
            return symbolic("jacobian-lower-bound", "bruteforce-budget-exceeded")
    return _trdeg_bruteforce(fs, col_budget)


def evaluated_certificate(field, rank: int, pivot_rows, point) -> TrdegCertificate:
    """The exact certificate of trdeg rank for a family whose trdeg the
    caller knows to be at most rank: an evaluated Jacobian of that rank at
    point, with those pivot rows (see evaluated_rank)."""
    return TrdegCertificate(
        rank,
        "jacobian",
        pivot_rows,
        {
            "method": "evaluated-jacobian-meets-upper-bound",
            "upper_bound": rank,
            "point": [field.scalar_to_json(v) for v in point],
        },
    )


def _monomials(u: int, cap: int):
    """Exponent tuples in u variables of total degree <= cap, ascending
    graded-lex: by degree, and lexicographically within one degree."""

    def compositions(d, k):
        if k == 1:
            yield (d,)
            return
        for first in range(d + 1):
            for rest in compositions(d - first, k - 1):
                yield (first,) + rest

    for d in range(cap + 1):
        yield from compositions(d, u)


def _monomial_products(u: int, cap: int, times):
    """The packed column of each monomial of _monomials(u, cap), in that
    order, made degree by degree: {0: 1} for the constant monomial, and
    times(v, i) for a monomial whose first variable is y_i, v the column of
    the monomial over y_i.  Only the last degree's columns are kept."""
    last, layer, deg = {}, {}, 0
    for mono in _monomials(u, cap):
        d = sum(mono)
        if d != deg:
            last, layer, deg = layer, {}, d
        if d:
            i = next(k for k, e in enumerate(mono) if e)
            value = times(last[mono[:i] + (mono[i] - 1,) + mono[i + 1:]], i)
        else:
            value = {0: 1}
        layer[mono] = value
        yield value


def _column_count(u: int, cap: int, col_budget: int) -> int:
    """The number of monomials in u variables of degree <= cap; raises
    BudgetExceeded past col_budget."""
    ncols = math.comb(cap + u, u)
    if ncols > col_budget:
        raise BudgetExceeded(
            "monomial basis has %d columns, budget is %d" % (ncols, col_budget)
        )
    return ncols


def annihilator(fs, cap: int, col_budget: int = DEFAULT_COLUMN_BUDGET):
    """A nonzero F with deg(F) <= cap and F(f_1, ..., f_m) = 0, or None.

    Exhaustive and exact: the columns of the linear map sending the
    coefficient vector of F to that of F(f_1, ..., f_m), over the monomial
    basis of degree <= cap in graded-lex order, stream to
    linalg.kernel_vector, whose kernel vector, 1 at the first dependent
    column, is unique; no later column is built, so cap bounds the search.
    The returned polynomial is monic under graded-lex, lives in m fresh
    variables, and is verified by substitution before being returned.
    Raises BudgetExceeded when the basis has more than col_budget monomials,
    or once the columns built hold more than MAX_STREAM_ENTRIES entries.

    The map is built on integers in every field, for the cleared members
    g_i = D_i f_i (D_i = 1 over F_p): its column j is D^e_j times that of
    fs, so the first dependent column j0 stays, and the kernel vector G
    gives F_j = G_j D^e_j / D^e_j0, still 1 at j0.

    The columns are built on packed monomials (polynomials.PackedRing and
    packed_product, Monagan and Pearce, CASC 2007), as every substitution
    is: each member's integer form (SparsePoly._compile) is packed in one
    ring of B = (cap * delta).bit_length() bits per exponent, delta the
    largest degree in fs, so a product of two terms is one int addition.
    Every term of every product, cancelled or not, has total degree at most
    cap * delta < 2^B, so every exponent fits its field and distinct
    monomials keep distinct keys.  The keys index the rows and are never
    unpacked.  A column is one of the last degree's times one g_i, reduced
    once (over F_p), its cancelled terms dropped.
    """
    field, n = _check_family(fs)
    m = len(fs)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    _column_count(m, cap, col_budget)
    p = field.characteristic
    ring = PackedRing(p, n, (cap * _max_degree(fs)).bit_length(), math.inf)
    dens, packed = zip(*[(D, ring.pack(terms, 1).terms)
                         for D, terms, _ in (f._compiled or f._compile() for f in fs)])
    held = 1  # the entries of the columns built, the constant one's first

    def times(column, i):
        nonlocal held
        terms = packed_product(column, packed[i], p)
        held += len(terms)
        if held > MAX_STREAM_ENTRIES:
            raise BudgetExceeded(
                "the annihilator's columns hold more than %d entries" % MAX_STREAM_ENTRIES
            )
        return terms

    vec = linalg.kernel_vector(_monomial_products(m, cap, times), p, field)
    if vec is None:
        return None
    monos = list(itertools.islice(_monomials(m, cap), len(vec)))
    scale = [math.prod(d ** e for d, e in zip(dens, mono)) for mono in monos]
    ratio = field.from_integers(scale, scale[-1])
    F = SparsePoly(field, m, {mono: field.mul(v, r)
                              for mono, v, r in zip(monos, vec, ratio) if v})
    if not F.substitute(fs).is_zero:
        raise AssertionError("kernel vector failed substitution check")
    return normalize_monic(F)


def _perron_cap(polys) -> int:
    """max(1, delta)^(u-1): a dependent size-u subset of max degree delta has
    an annihilator of at most this degree."""
    return max(1, _max_degree(polys)) ** (len(polys) - 1)


def _trdeg_bruteforce(fs, col_budget: int) -> TrdegCertificate:
    field, n = _check_family(fs)
    m = len(fs)
    basis = []
    extensions = []
    chain = []
    for j in range(m):
        subset = basis + [j]
        u = len(subset)
        if u > n:
            extensions.append(
                {"subset": subset, "reason": "more-polynomials-than-variables"}
            )
            continue
        polys = [fs[i] for i in subset]
        cap = _perron_cap(polys)
        ann = annihilator(polys, cap, col_budget)
        if ann is not None:
            extensions.append(
                {
                    "subset": subset,
                    "cap": cap,
                    "annihilator": poly_to_text(ann),
                }
            )
        else:
            basis.append(j)
            chain.append({"subset": subset, "cap": cap, "method": "kernel-empty"})
    return TrdegCertificate(
        len(basis),
        "bruteforce",
        basis,
        {
            "method": "greedy-matroid-extension",
            "independence_chain": chain,
            "dependent_extensions": extensions,
        },
    )


def is_evaluated(cert: TrdegCertificate) -> bool:
    """Is cert an evaluated-Jacobian certificate, its rank at one point
    meeting an upper bound (evaluated_certificate)?"""
    return (cert.mode in ("jacobian", "jacobian-lower-bound")
            and cert.witness.get("method") == "evaluated-jacobian-meets-upper-bound")


def verify_evaluated_certificate(cert, jac_at, field, m: int, n: int, delta: int,
                                 upper_bound=None) -> bool:
    """Re-check an evaluated-Jacobian certificate (is_evaluated) of m
    polynomials of degree at most delta in n variables, whose Jacobian at a
    point of raw elements is jac_at(point), in the integer form of
    linalg.eval_matrix: its rank at the witness point is cert.r, with the
    basis as its pivot rows, and cert.r meets min(m, n) or upper_bound (as
    in verify_trdeg_certificate).  A witness point too large to evaluate
    at raises BudgetExceeded (check_value_bits)."""
    basis = list(cert.basis)
    if not all(0 <= i < m for i in basis):
        return False
    point = [field.scalar_from_json(v) for v in cert.witness["point"]]
    ints, den = field.integers(point)
    check_value_bits(field, delta, max(abs(v).bit_length() for v in ints + [den]),
                     "the witness point")
    rho, prows = linalg.rank(jac_at(point)[0], field.characteristic)
    return rho == cert.r and basis == prows and cert.r in (min(m, n), upper_bound)


def verify_trdeg_certificate(fs, cert: TrdegCertificate, upper_bound=None) -> bool:
    """Re-check a certificate against the family it was issued for.

    Every bound is recomputed here, none is read from the certificate, and
    the chain's annihilator searches run within the verifier's own
    DEFAULT_COLUMN_BUDGET.  An evaluated-Jacobian certificate proves trdeg
    >= r only, so its r must also meet an upper bound the verifier knows:
    min(m, n), or upper_bound, which the caller passes when it has proven
    trdeg(fs) <= upper_bound itself (e.g. fs are images under a ring
    homomorphism of a family whose certificate of trdeg upper_bound it has
    verified).  A witness point too large to evaluate at raises
    BudgetExceeded (check_value_bits).
    """
    field, n = _check_family(fs)
    m = len(fs)
    basis = list(cert.basis)
    if not all(0 <= i < m for i in basis):
        return False
    if cert.mode == "jacobian" or cert.mode == "jacobian-lower-bound":
        J = jacobian(fs)
        if is_evaluated(cert):
            return verify_evaluated_certificate(
                cert, lambda a: linalg.eval_matrix(J, field.integers(a)), field, m, n,
                _max_degree(fs), upper_bound)
        rho, prows, _ = jacobian_rank(fs, J)
        if rho != cert.r or basis != prows:
            return False
        if cert.mode == "jacobian":
            return _jacobian_trusted(field, _max_degree(fs), rho, m, n)
        return True
    if cert.mode == "bruteforce":
        # the greedy run that issued the certificate: the chain holds the
        # basis prefixes in order, and the extension of element j is the
        # basis elements before j plus j itself
        w = cert.witness
        chain = w.get("independence_chain", [])
        if [entry["subset"] for entry in chain] != [basis[:u] for u in range(1, len(basis) + 1)]:
            return False
        seen_dependent = set()
        for entry in w.get("dependent_extensions", []):
            subset = entry["subset"]
            if not subset or not 0 <= subset[-1] < m:
                return False
            j = subset[-1]
            if subset[:-1] != [b for b in basis if b < j]:
                return False
            seen_dependent.add(j)
            if "reason" in entry:
                if len(subset) <= n:
                    return False
                continue
            polys = [fs[i] for i in subset]
            F = poly_from_text(entry["annihilator"], field, len(subset))
            if F.is_zero:
                return False
            d = F.degree()
            if d is not None and d > _perron_cap(polys):
                return False
            if not F.substitute(polys).is_zero:
                return False
        # a chain entry's method is not read, so a report whose chain
        # carries an older tag verifies as well
        for entry in chain:
            polys = [fs[i] for i in entry["subset"]]
            if annihilator(polys, _perron_cap(polys)) is not None:
                return False
        expected_dependents = set(range(m)) - set(basis)
        if seen_dependent != expected_dependents:
            return False
        return cert.r == len(basis)
    return False
