"""Algebraic independence: Jacobian ranks, transcendence degree with
checkable certificates, and annihilating polynomials by exhaustive search.

Soundness notes that the code below leans on (all characteristic-free unless
said otherwise):

* rank of the Jacobian is a lower bound for the transcendence degree in any
  characteristic; equality needs ch(K) = 0 or ch(K) large relative to the
  degrees (see _jacobian_trusted for the exact gate used).
* a set of m polynomials in n variables has transcendence degree at most
  min(m, n); any subset larger than n is dependent outright.
* if a size-u subset with max degree delta is dependent, it admits an
  annihilating polynomial of total degree at most delta^(u-1), so searching
  up to that cap decides dependence of the subset exactly.
* algebraic independence is a matroid: a maximal independent set found by
  greedy single-element extension has the full rank as its size.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import linalg
from .fields import FieldSpec
from .polynomials import (
    BudgetExceeded,
    SparsePoly,
    normalize_monic,
    poly_from_text,
    poly_to_text,
)

DEFAULT_COLUMN_BUDGET = 50_000


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
    """m x n matrix of partial derivatives; row i is the gradient of fs[i]."""
    field, n = _check_family(fs)
    return [[f.derivative(j) for j in range(n)] for f in fs]


def _subseed(seed: int, salt: int) -> int:
    # integer-only mixing; never hash strings (PYTHONHASHSEED would break
    # run-to-run determinism)
    return (seed * 1_000_003 + salt * 7_919 + 12_345) % (1 << 62)


def _random_point(field: FieldSpec, rng: random.Random, n: int):
    if field.kind == "prime":
        return tuple(rng.randrange(field.p) for _ in range(n))
    return tuple(Fraction(rng.randrange(-(10 ** 9), 10 ** 9 + 1)) for _ in range(n))


def jacobian_rank(fs, method: str = "symbolic", seed: int = 0, trials: int = 3) -> int:
    """Rank of the Jacobian of fs.

    symbolic: fraction-free Bareiss elimination on the polynomial entries.
    randomized: max rank of the Jacobian evaluated at `trials` seeded random
    points; always <= the symbolic rank, since evaluation is a specialization.
    It stops early only at min(rows, cols), which no point can exceed.
    """
    field, n = _check_family(fs)
    J = jacobian(fs)
    if method == "symbolic":
        return linalg.poly_matrix_rank(J)[0]
    if method == "randomized":
        return randomized_rank(
            lambda pt: linalg.eval_matrix(J, pt), field, n, seed=seed, trials=trials
        )
    raise ValueError("method must be 'symbolic' or 'randomized'")


def randomized_rank(
    jac_at, field, nvars: int, seed: int = 0, trials: int = 3, ceiling: int | None = None
) -> int:
    """The randomized method of jacobian_rank, for a Jacobian given by its
    values: jac_at(pt) is the evaluated Jacobian at a point of nvars
    coordinates.  Max rank over `trials` seeded random points.

    The trials stop once the best rank reaches min(rows, cols, ceiling).
    No point can pass min(rows, cols).  A ceiling that bounds the rank at
    every point, such as the trdeg of the family (an evaluated Jacobian's
    rank is at most the trdeg in every characteristic), leaves the answer
    equal to the max over all trials.  Any other ceiling leaves
    min(answer, ceiling) unchanged, which is all a caller that compares the
    answer against the ceiling reads."""
    rng = random.Random(_subseed(seed, 1))
    best = 0
    for _ in range(max(1, trials)):
        pt = _random_point(field, rng, nvars)
        M = jac_at(pt)
        best = max(best, linalg.rank(M, field))
        top = min(len(M), len(M[0]) if M else 0)
        if best >= (top if ceiling is None else min(top, ceiling)):
            break
    return best


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
    seed: int = 0,
    col_budget: int = DEFAULT_COLUMN_BUDGET,
) -> TrdegCertificate:
    """Transcendence degree of the family fs with a certificate.

    mode "jacobian": symbolic Jacobian rank; exact when the characteristic
    gate passes, otherwise returned as a flagged lower bound.
    mode "bruteforce": greedy matroid extension decided by annihilator
    search at the Perron cap; exact in every characteristic.
    mode "auto": Jacobian first, bruteforce fallback when the gate fails,
    flagged lower bound if the fallback exceeds its budget.
    """
    if mode not in ("auto", "jacobian", "bruteforce"):
        raise ValueError("mode must be auto, jacobian, or bruteforce")
    field, n = _check_family(fs)
    m = len(fs)
    delta = _max_degree(fs)

    if mode in ("auto", "jacobian"):
        rho, prows, pcols = linalg.poly_matrix_rank(jacobian(fs))

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
            return _trdeg_bruteforce(fs, seed, col_budget)
        except BudgetExceeded:
            return symbolic("jacobian-lower-bound", "bruteforce-budget-exceeded")
    return _trdeg_bruteforce(fs, seed, col_budget)


def upper_bound_certificate(jac_at, field, nvars: int, upper_bound: int, seed: int = 0):
    """A cheap exact certificate for a family whose trdeg the caller knows
    to be at most upper_bound (e.g. images under a ring homomorphism, which
    cannot gain trdeg): an evaluated Jacobian of rank upper_bound proves
    equality in any characteristic.  jac_at gives the Jacobian by its
    values, as in randomized_rank.  The certificate of the first of four
    seeded points where the rank reaches upper_bound, or None."""
    rng = random.Random(_subseed(seed, 2))
    for _ in range(4):
        pt = _random_point(field, rng, nvars)
        rho, pivot_rows, _ = linalg.echelon(jac_at(pt), field)
        if rho >= upper_bound:
            return TrdegCertificate(
                rho,
                "jacobian",
                pivot_rows,
                {
                    "method": "evaluated-jacobian-meets-upper-bound",
                    "upper_bound": upper_bound,
                    "point": [field.scalar_to_json(v) for v in pt],
                },
            )
    return None


def _monomials_upto(nvars: int, cap: int):
    """Exponent tuples with total degree <= cap, ascending graded-lex."""
    out = []

    def compositions(d, k):
        if k == 1:
            yield (d,)
            return
        for first in range(d + 1):
            for rest in compositions(d - first, k - 1):
                yield (first,) + rest

    for d in range(cap + 1):
        out.extend(compositions(d, nvars))
    return out


def _column_count(u: int, cap: int, col_budget: int) -> int:
    """The number of monomials in u variables of degree <= cap; raises
    BudgetExceeded past col_budget."""
    ncols = math.comb(cap + u, u)
    if ncols > col_budget:
        raise BudgetExceeded(
            "monomial basis has %d columns, budget is %d" % (ncols, col_budget)
        )
    return ncols


def _monomial_basis(u: int, cap: int):
    """The monomials of _monomials_upto(u, cap) and how to build each from
    an earlier one: steps[j] = (j', i) when monomial j is monomial j' times
    y_i, None for monomial 0 (the constant 1)."""
    monos = _monomials_upto(u, cap)
    index = {mono: j for j, mono in enumerate(monos)}
    steps = [None]
    for mono in monos[1:]:
        i = next(k for k, e in enumerate(mono) if e > 0)
        prev = list(mono)
        prev[i] -= 1
        steps.append((index[tuple(prev)], i))
    return monos, steps


def annihilator(fs, cap: int, col_budget: int = DEFAULT_COLUMN_BUDGET):
    """A nonzero F with deg(F) <= cap and F(f_1, ..., f_m) = 0, or None.

    Exhaustive and exact: the linear map sending the coefficient vector of F
    to the coefficient vector of F(f_1, ..., f_m) is materialized over the
    monomial basis of degree <= cap (graded-lex ascending columns) and its
    kernel is computed by exact elimination.  The returned polynomial is
    monic under graded-lex, lives in m fresh variables, and is verified by
    substitution before being returned.  Raises BudgetExceeded when the
    basis has more than col_budget monomials.
    """
    field, n = _check_family(fs)
    m = len(fs)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    ncols = _column_count(m, cap, col_budget)
    monos, steps = _monomial_basis(m, cap)

    composed = []
    row_index = {}
    cols = []
    for step in steps:
        poly = SparsePoly.one(field, n) if step is None else composed[step[0]] * fs[step[1]]
        composed.append(poly)
        col = {}
        for exps, c in poly.terms.items():
            ridx = row_index.setdefault(exps, len(row_index))
            col[ridx] = c
        cols.append(col)

    nrows = len(row_index)
    zero = field.zero()
    matrix = [[zero] * ncols for _ in range(nrows)]
    for j, col in enumerate(cols):
        for ridx, c in col.items():
            matrix[ridx][j] = c
    if nrows == 0:
        # every composed monomial is the zero polynomial (only possible if
        # some f is zero and cap >= 1); x_i with f_i = 0 annihilates
        matrix = [[zero] * ncols]

    vec = linalg.kernel_vector(matrix, field)
    if vec is None:
        return None
    terms = {monos[j]: v for j, v in enumerate(vec) if not field.is_zero(field.normalize(v))}
    F = SparsePoly(field, m, terms)
    if not F.substitute(fs).is_zero:
        raise AssertionError("kernel vector failed substitution check")
    return normalize_monic(F)


def _subset_dependent(polys, cap: int, seed: int, col_budget: int):
    """Decide dependence of a polynomial subset exactly.

    Returns (dependent, annihilator_or_None, method_tag).  Phase 1 evaluates
    every monomial column at seeded points: full column rank of that matrix
    already proves there is no annihilator at the cap (specialization can
    only lose rank), which is the common fast exit for independent subsets
    over a decent-sized prime field.  Phase 2 is the exact symbolic kernel.
    """
    field, n = _check_family(polys)
    ncols = _column_count(len(polys), cap, col_budget)
    run_eval = (
        field.kind == "prime"
        and field.p < (1 << 31)
        and field.p ** min(n, 64) > ncols * 2
    )
    if run_eval:
        _, steps = _monomial_basis(len(polys), cap)
        rng = random.Random(_subseed(seed, 3))
        p = field.p
        rows = []
        for _ in range(ncols + 8):
            pt = tuple(rng.randrange(p) for _ in range(n))
            fv = [f.eval(pt) for f in polys]
            vals = [1]
            for j, i in steps[1:]:
                vals.append(vals[j] * fv[i] % p)
            rows.append(vals)
        if linalg.rank(rows, field) == ncols:
            return False, None, "evaluation-full-rank"
    F = annihilator(polys, cap, col_budget)
    if F is None:
        return False, None, "kernel-empty"
    return True, F, "kernel"


def _perron_cap(polys) -> int:
    """max(1, delta)^(u-1): a dependent size-u subset of max degree delta has
    an annihilator of at most this degree."""
    return max(1, _max_degree(polys)) ** (len(polys) - 1)


def _trdeg_bruteforce(fs, seed: int, col_budget: int) -> TrdegCertificate:
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
        dep, ann, method = _subset_dependent(polys, cap, seed, col_budget)
        if dep:
            extensions.append(
                {
                    "subset": subset,
                    "cap": cap,
                    "annihilator": poly_to_text(ann),
                }
            )
        else:
            basis.append(j)
            chain.append({"subset": subset, "cap": cap, "method": method})
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


def verify_trdeg_certificate(
    fs, cert: TrdegCertificate, col_budget=DEFAULT_COLUMN_BUDGET, upper_bound=None
) -> bool:
    """Re-check a certificate against the family it was issued for.

    Every bound is recomputed here, none is read from the certificate.  An
    evaluated-Jacobian certificate proves trdeg >= r only, so its r must also
    meet an upper bound the verifier knows: min(m, n), or upper_bound, which
    the caller passes when it has proven trdeg(fs) <= upper_bound itself
    (e.g. fs are images under a ring homomorphism of a family whose
    certificate of trdeg upper_bound it has verified).
    """
    field, n = _check_family(fs)
    m = len(fs)
    basis = list(cert.basis)
    if not all(0 <= i < m for i in basis):
        return False
    if cert.mode == "jacobian" or cert.mode == "jacobian-lower-bound":
        J = jacobian(fs)
        w = cert.witness
        if w.get("method") == "evaluated-jacobian-meets-upper-bound":
            pt = [field.scalar_from_json(v) for v in w["point"]]
            rho, prows, _ = linalg.echelon(linalg.eval_matrix(J, pt), field)
            return rho == cert.r and basis == prows and cert.r in (min(m, n), upper_bound)
        rho, prows, _ = linalg.poly_matrix_rank(J)
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
        for entry in chain:
            polys = [fs[i] for i in entry["subset"]]
            dep, _, _ = _subset_dependent(polys, _perron_cap(polys), 0, col_budget)
            if dep:
                return False
        expected_dependents = set(range(m)) - set(basis)
        if seen_dependent != expected_dependents:
            return False
        return cert.r == len(basis)
    return False
