"""Structure of depth-4 powered-product circuits.

A Depth4Circuit is a sum of k products of sparse factors of degree at most
delta.  Everything here revolves around the gcd/simple decomposition: pull
out the largest common divisor of the k products, rewrite what remains over
a pairwise-coprime basis, and measure the circuit by the transcendence
degree of that remainder's factors (its rank).  Reductions to few variables
are certified per candidate, never assumed from the parameter ranges.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, partial

from .circuits import DEFAULT_EXPAND_BUDGET, Depth4Circuit
from .independence import _random_point, _subseed, evaluated_rank, jacobian, trdeg
from .polynomials import (
    BudgetExceeded,
    SparsePoly,
    divide_exact,
    gcd_poly,
    normalize_monic,
    substitution,
)
from .varmaps import (SearchExhausted, VandermondeMap, first_certified, schedule,
                      vandermonde_candidates, vandermonde_exponents)


class CoprimeBasis:
    """Pairwise-coprime monic generators for the factors of a circuit.

    row_exponents[i][b] is the multiplicity of basis[b] in the product of
    row i; row_scalars[i] is the leftover constant, so row i's product is
    exactly row_scalars[i] * prod(basis[b] ** row_exponents[i][b]).
    """

    __slots__ = ("basis", "row_exponents", "row_scalars")

    def __init__(self, basis, row_exponents, row_scalars):
        self.basis = tuple(basis)
        self.row_exponents = tuple(tuple(e) for e in row_exponents)
        self.row_scalars = tuple(row_scalars)


def coprime_basis(C: Depth4Circuit) -> CoprimeBasis:
    """The pairwise-coprime basis of the circuit's factors, by factor
    refinement that carries each row's exponents (Bach, Driscoll and
    Shallit, "Factor refinement", J. Algorithms 1993).

    Every distinct monic factor starts on a worklist with its multiplicity
    in each row.  An element a taken from the list is checked against the
    elements already known to be pairwise coprime; at the first b with a
    nonconstant g = gcd(a, b), b leaves that set and g, a/g and b/g go on
    the list, with exponents from a^ea b^eb = g^(ea+eb) (a/g)^ea (b/g)^eb
    (a constant quotient is dropped).  Each split lowers the total degree
    of the list and the set, so this terminates.  Row scalars are the
    leading coefficients the factors lose to being made monic.
    """
    field, k = C.field, C.k
    todo = {}
    row_scalars = []
    for i, row in enumerate(C.rows):
        scalar = field.one()
        for f in row:
            scalar = field.mul(scalar, f.leading_coefficient())
            if not f.is_constant:
                todo.setdefault(normalize_monic(f), [0] * k)[i] += 1
        row_scalars.append(scalar)
    todo = list(todo.items())
    done = []
    while todo:
        a, ea = todo.pop()
        for j, (b, eb) in enumerate(done):
            g = gcd_poly(a, b)
            if g.is_constant:
                continue
            del done[j]
            todo.append((g, [x + y for x, y in zip(ea, eb)]))
            for u, eu in ((a, ea), (b, eb)):
                q = divide_exact(u, g)
                if not q.is_constant:
                    todo.append((q, eu))
            break
        else:
            done.append((a, ea))
    done.sort(key=lambda be: be[0].sort_key())
    return CoprimeBasis(
        [b for b, _ in done], [[eb[i] for _, eb in done] for i in range(k)], row_scalars
    )


def _min_exponents(cb: CoprimeBasis):
    return [min(row[b] for row in cb.row_exponents) for b in range(len(cb.basis))]


def gcd_and_simple_part(C: Depth4Circuit):
    """(gcd_part(C), simple_part(C)), from one coprime basis."""
    cb = coprime_basis(C)
    return _gcd_part(C, cb), _simple_part(C, cb)


def gcd_part(C: Depth4Circuit) -> SparsePoly:
    """Monic gcd of the k row products."""
    return _gcd_part(C, coprime_basis(C))


def _gcd_part(C, cb):
    mins = _min_exponents(cb)
    g = SparsePoly.one(C.field, C.nvars)
    for b, e in zip(cb.basis, mins):
        if e:
            g = g * b ** e
    return g


def simple_part(C: Depth4Circuit) -> Depth4Circuit:
    """The circuit with the row gcd divided out, re-chunked to degree delta.

    Residual basis powers b^e are emitted as factors b^q with q the largest
    power fitting the degree budget (q * deg(b) <= delta), so the result is
    again a valid circuit with the same delta.  Row scalars are folded into
    the first factor; a fully cancelled row becomes a constant factor.  A
    basis element of degree above delta cannot arise from factors of degree
    at most delta, but if it ever did the output circuit's recorded delta is
    raised to fit rather than producing an invalid circuit.
    """
    return _simple_part(C, coprime_basis(C))


def _simple_part(C, cb):
    field = C.field
    mins = _min_exponents(cb)
    delta_out = max([C.delta] + [b.degree() for b in cb.basis])
    rows_out = []
    for exps, scalar in zip(cb.row_exponents, cb.row_scalars):
        factors = []
        for b_idx, e in enumerate(exps):
            rem = e - mins[b_idx]
            if rem <= 0:
                continue
            b = cb.basis[b_idx]
            chunk = max(1, delta_out // b.degree())
            while rem > chunk:
                factors.append(b ** chunk)
                rem -= chunk
            factors.append(b ** rem)
        if factors:
            if not field.is_zero(field.sub(scalar, field.one())):
                factors[0] = factors[0].scale(scalar)
        else:
            factors = [SparsePoly.constant(field, C.nvars, scalar)]
        rows_out.append(factors)
    return Depth4Circuit(field, C.nvars, delta_out, rows_out)


def is_minimal(C: Depth4Circuit, budget: int = DEFAULT_EXPAND_BUDGET, k_cap: int = 12) -> bool:
    """True when no proper nonempty subset of the rows sums to zero.

    Checks the 2^k - 2 proper subsets smallest first, each by exact
    expansion, and stops at the first vanishing one.
    """
    if C.k > k_cap:
        raise ValueError("k=%d exceeds the subset cap %d" % (C.k, k_cap))
    # size-1 subsets are single products of nonzero factors, never zero
    for size in range(2, C.k):
        for I in itertools.combinations(range(C.k), size):
            if C.subcircuit(I).expand(budget).is_zero:
                return False
    return True


def rank(C: Depth4Circuit) -> int:
    """Transcendence degree of the circuit's factor set Sp(C)."""
    facs = C.sparse_factors()
    cert = trdeg(facs, mode="auto")
    if not cert.exact:
        raise BudgetExceeded("rank computation fell back to an inexact certificate")
    return cert.r


def verify_simple_preservation(C: Depth4Circuit, mp: VandermondeMap) -> bool:
    """Does mapping commute with taking simple parts on this circuit?

    True exactly when the image of simple_part(C) equals simple_part of the
    image circuit up to a unit, with no factor of C mapped to zero.  A
    simple part is a tuple of rows, not their sum, so a map that sends the
    circuit to zero preserves nothing by that alone.  The map must be a
    VandermondeMap with D1 >= 2*delta^2 + 1 and D1 >= D2 >= delta + 1, the
    regime in which preservation can hold at all for degree-delta factors.

    Criterion: no factor of C maps to zero, and h = gcd_i psi(sim_i) is
    constant, where sim_i are the rows of simple_part(C).  Proof: row i of
    C is g * sim_i and psi is a ring homomorphism, so the rows of psi(C)
    are psi(g) * psi(sim_i) and simple_part(psi(C)) = psi(sim) / h up to a
    unit, row by row.  That equals psi(sim) up to a unit iff h is
    constant.  Neither simple part of the image is computed; the decision
    is the one search_depth4_map makes where sigma_p leaves it open
    (_preservation; see _Merge).
    """
    if not isinstance(mp, VandermondeMap):
        raise ValueError("simple-part preservation is decided for Vandermonde maps only")
    delta = C.delta
    if mp.D1 < 2 * delta * delta + 1 or mp.D2 < delta + 1 or mp.D1 < mp.D2:
        raise ValueError("map parameters below the preservation thresholds")
    if mp.n != C.nvars or mp.field != C.field:
        raise ValueError("map does not match the circuit ring")
    return _preservation(mp, _memo(mp.apply), 0)(C, simple_part(C))


def _memo(fn):
    """fn, computed once per distinct polynomial while the returned
    function lives (one candidate)."""
    images = {}

    def image(f):
        img = images.get(f)
        if img is None:
            img = images[f] = fn(f)
        return img

    return image


def _preservation(mp, image, seed):
    """The one preservation decision for the Vandermonde map psi = mp, as
    a function (C, sim) -> bool: the criterion of verify_simple_preservation
    for sim = simple_part(C), with image = _memo(mp.apply).  sim is None for
    a one-row C: one row is its own gcd, so its simple part is one constant
    row, and only "no factor of C maps to zero" is left to check.

    Each factor f is first restricted to the line z = a + t e_0 through a
    seeded point a: line(f) = f(b + M a + t M_0) (_line), memoized like
    image and exact in every field.  Every entry c^e of the column M_0 is
    nonzero.  With k the linear rank of M:

    - k = 1: every column of M is a multiple of M_0, so psi(f) = F(l) for
      F(s) = f(b + s M_0) and the linear form l = mu.z with mu_0 = 1, and
      line(f) = F(mu.a + t).  Both s -> l and s -> mu.a + t are injective
      maps out of F[s] that keep zero-ness and gcd constancy, so the line
      verdict is the verdict, pass or fail.
    - k >= 2: when deg line(f) = deg f for every factor f of sim, the
      z_0-leading coefficient of each psi(f) is the nonzero constant
      f_top(M_0), and so is that of every factor of psi(f).  A nonconstant
      h dividing a factor image in every row then stays nonconstant on the
      line, so a pass on the line proves preservation, and line(f) != 0
      proves psi(f) != 0.  Any other outcome is decided on the full images.
    """
    k = mp.affine_summary()[0]
    line = _memo(_line(mp, seed))

    def maps_to_zero(f):
        return line(f).is_zero and (k == 1 or image(f).is_zero)

    def preserved(C, sim):
        if sim is None:
            return not any(maps_to_zero(f) for f in C.rows[0])
        if k == 1:
            return _preserves_simple_part(C, sim, line, maps_to_zero)
        if (all(line(f).degree() == f.degree() for row in sim.rows for f in row)
                and _preserves_simple_part(C, sim, line, maps_to_zero)):
            return True
        return _preserves_simple_part(C, sim, image, maps_to_zero)

    return preserved


def _line(mp, seed):
    """f -> f(b + M a + t M_0) in F[t], psi(f) restricted to the line
    z = a + t e_0 through the seeded point a: polynomials.substitution on
    the one-column map x = (u + v t) / D, built from the integer form."""
    field = mp.field
    a = _random_point(field, random.Random(_subseed(seed, 4)), mp.nvars_out)
    u, D = mp._integer_image(field.integers(a))
    _, cols, L = mp._integer_columns()
    # u is over D = L * q and M_0 over L
    return substitution(field, 1, [{(0,): x, (1,): y * (D // L)} for x, y in zip(u, cols[0])], D)


def _preserves_simple_part(C, sim, image, maps_to_zero):
    """The criterion of verify_simple_preservation, for sim = simple_part(C),
    image = psi applied to one polynomial (or its restriction to a line)
    and maps_to_zero(f) = psi(f) == 0 (see _preservation).
    """
    if any(maps_to_zero(f) for row in C.rows for f in row):
        return False
    return not _common_factors(sim, image)


def _common_factors(sim, image):
    """The nonconstant gcds that divide a factor image in every row of sim,
    empty iff h = gcd_i image(sim_i) is constant.

    h is nonconstant iff some irreducible divides a factor image in every
    row.  So the test carries the nonconstant gcds of one factor image per
    row, row by row, never a gcd of expanded row products; h is constant
    iff that set runs empty.
    """
    common = {img for img in map(image, sim.rows[0]) if not img.is_constant}
    for row in sim.rows[1:]:
        imgs = [img for img in map(image, row) if not img.is_constant]
        shared = set()
        for u in common:
            for v in imgs:
                g = gcd_poly(u, v)
                if not g.is_constant:
                    shared.add(g)
        common = shared
    return common


class _Merge:
    """sigma_p, the map of one prime p that merges the variables with equal
    rows in vandermonde_exponents: x_i -> y_cls(i), q classes, reps[j] the
    first variable of class j.  killed: sigma_p sends a factor of C to 0.
    shared: the nonconstant common factors that the criterion of
    verify_simple_preservation carries to the end on the images sigma_p(f)
    of some simple part (_common_factors).  V_p, the verdict of sigma_p,
    passes iff neither.

    Equal rows give equal affine forms for every c, so every psi = psi_(p,c)
    is tau_c o sigma_p, with tau_c: y_j -> the form of class j, and psi's
    linear rank k is that of tau_c.  At k = q, tau_c is an affine change of
    coordinates followed by an inclusion of polynomial rings, which keeps
    zero-ness, degrees and gcds, so psi's verdict is V_p (README, "How
    candidates are screened").
    """

    __slots__ = ("q", "reps", "killed", "shared")

    def __init__(self, q, reps, killed, shared):
        self.q = q
        self.reps = reps
        self.killed = killed
        self.shared = shared

    @property
    def dooms(self):
        """No psi at p certifies: each one sends the factor that sigma_p
        kills to 0 too, and at q = 1 each one has linear rank k = q (every
        map has k >= 1) and so takes V_p, which a shared factor fails."""
        return self.killed or (self.q == 1 and bool(self.shared))


def _merge(C, sims, table):
    """The _Merge of the exponent table of one prime, for C and the simple
    parts sims of its subcircuits.  At q = n, sigma_p only renames the
    variables, so it kills no factor and keeps every simple part."""
    first = {}
    cls = [first.setdefault(tuple(row), len(first)) for row in table]
    q = len(first)
    reps = tuple(cls.index(j) for j in range(q))
    if q == C.nvars:
        return _Merge(q, reps, False, ())
    units = [tuple(int(t == j) for t in range(q)) for j in range(q)]
    sigma = _memo(substitution(C.field, q, [{units[j]: 1} for j in cls], 1))
    if any(sigma(f).is_zero for row in C.rows for f in row):
        return _Merge(q, reps, True, ())
    return _Merge(q, reps, False, tuple(G for sim in sims for G in _common_factors(sim, sigma)))


def _nonconstant_image(mp, merge, seed):
    """Does psi = mp send some G of merge.shared to a nonconstant
    polynomial?  True when psi(G) takes two different values at two seeded
    z-points; then psi(G) divides psi(sim_i) in every row of that simple
    part, and psi fails to preserve it.  False decides nothing."""
    rng = random.Random(_subseed(seed, 5))
    values = []
    for _ in range(2):
        x = mp.point_images(_random_point(mp.field, rng, mp.nvars_out))
        y = [x[i] for i in merge.reps]
        values.append([G.eval(y) for G in merge.shared])
    return values[0] != values[1]


def lift_identity(C: Depth4Circuit, delta_target: int) -> Depth4Circuit:
    """Replace each variable of a depth-3 circuit by a product of fresh ones.

    x_i becomes x_{i,1} * ... * x_{i,delta_target} over n*delta_target
    variables, turning linear factors into degree-delta_target factors.  The
    lift is zero iff C is zero: one direction is substitution, the other
    sets x_{i,1} = x_i and the remaining fresh variables to 1.
    """
    if C.delta != 1:
        raise ValueError("lift_identity expects a depth-3 circuit (delta = 1)")
    t = delta_target
    if t < 1:
        raise ValueError("delta_target must be at least 1")
    if t == 1:
        return C
    field = C.field
    n = C.nvars
    images = []
    for i in range(n):
        exps = [0] * (n * t)
        for u in range(t):
            exps[i * t + u] = 1
        images.append(SparsePoly.monomial(field, n * t, exps, field.one()))
    rows = [[f.substitute(images) for f in row] for row in C.rows]
    return Depth4Circuit(field, n * t, t, rows)


class Depth4MapResult:
    """A certified depth-4 reduction with per-subset evidence."""

    __slots__ = ("map", "r", "evidence", "candidates_tried")

    def __init__(self, mp, r, evidence, candidates_tried):
        self.map = mp
        self.r = r
        self.evidence = list(evidence)
        self.candidates_tried = candidates_tried

    def to_json_dict(self) -> dict:
        return {
            "map": self.map.to_json_dict(),
            "r": self.r,
            "evidence": self.evidence,
            "candidates_tried": self.candidates_tried,
        }


def search_depth4_map(
    C: Depth4Circuit,
    R: int | None = None,
    seed: int = 0,
    conjecture_R: bool = False,
) -> Depth4MapResult:
    """A Vandermonde map certified to respect this circuit's structure.

    A candidate is accepted only if, for every nonempty subset I of the
    rows, it preserves the simple part of the subcircuit C_I and keeps the
    rank of that simple part up to the target min(rank, r).  Candidates are
    tried with p ascending over primes and c ascending; enumeration stops
    at the closed-form p bound.  r defaults to 1 for k = 2 (where it is
    proven sufficient) and k*s otherwise; conjecture_R opts into a smaller
    speculative bound.  Over F_2 the only c is 1, so a circuit with a
    target min(rank, r) of 2 or more raises SearchExhausted at once, and
    any other one past p = 2 (see first_certified).

    Two kinds of prime are counted without being walked, each as one
    SkippedPrime (varmaps.vandermonde_candidates): one where no c can reach
    the largest target, and one where sigma_p, the map that merges the
    variables of equal exponent rows (_Merge), sends a factor of C to 0 or
    merges every variable into one and fails to preserve a simple part.
    Every psi at p factors through sigma_p, so no c there certifies, and
    neither does the diagonal map x_i -> 1 + z_0 + ... + z_r, whose key
    goes into the failed keys of _certify_depth4.  sigma_p's data is
    computed once per prime, kept for that prime only, and dropped with the
    search.

    A one-row subset is its own gcd, so its simple part is one constant
    row of rank 0: it gets no coprime basis, trdeg or jacobian, and a
    candidate only has to keep its factors nonzero.  Preservation is
    decided by sigma_p's verdict wherever that is exact, then on a line of
    z-space (_preservation), and only then on the images (_certify_depth4).
    """
    field, n, delta = C.field, C.nvars, C.delta
    sched = schedule(
        "depth4", n=n, delta=delta, k=C.k, s=C.s, r=R, conjecture_R=conjecture_R
    )
    r = sched.r
    D2 = delta + 1
    D1 = max(2 * delta * delta + 1, delta * r + 1, (n + 1) ** (r + 1), D2)

    # subset data does not depend on the candidate; compute it once
    subsets = []
    for size in range(1, C.k + 1):
        for I in itertools.combinations(range(C.k), size):
            sub = C.subcircuit(I)
            if size == 1:
                # one row is its own gcd: its simple part is one constant
                # row, of rank 0 (see _preservation for sim = None)
                subsets.append((I, sub, None, (), None, 0))
                continue
            sim = simple_part(sub)
            facs = sim.sparse_factors()
            rho = trdeg(facs, mode="auto")
            if not rho.exact:
                raise BudgetExceeded(
                    "rank of a subcircuit's simple part is not decidable "
                    "within budget"
                )
            subsets.append((I, sub, sim, facs, jacobian(facs), rho.r))
    # _certify_depth4 rejects every map of linear rank below this
    floor = max(min(rho, r) for *_, rho in subsets)
    if field.characteristic == 2 and floor >= 2:
        # over F_2 the only c is 1: every variable maps to the same affine
        # form 1 + z_0 + ... + z_r, so no image has trdeg 2 or more
        raise SearchExhausted(
            "no depth-4 map over F_2 keeps a rank of 2 or more (target %d)" % floor
        )

    sims = [sim for _, _, sim, *_ in subsets if sim is not None]

    @lru_cache(maxsize=1)
    def merge(p):
        return _merge(C, sims, vandermonde_exponents(n, r, D1, D2, p))

    # affine-image keys of the candidates that failed a preservation leg
    failed = set()

    def doomed(p):
        # no c at p certifies, and neither does the diagonal map (c = 1 at
        # every prime), which factors through sigma_p too
        if merge(p).dooms:
            failed.add(VandermondeMap(field, n, r, D1, D2, p, field.one()).affine_summary()[1])
            return True
        return False

    # keep the per-prime sample small: when a prime's residue pattern is
    # degenerate (p = 2 collapses most exponents) no c works, so move on
    # quickly instead of exhausting a lemma-sized sample
    maps = vandermonde_candidates(field, n, r, D1, D2, sched.p_max,
                                  max(8, 2 * delta * C.k * C.s * r), 1, floor, doomed)
    mp, evidence, tried = first_certified(
        maps, lambda mp: _certify_depth4(mp, subsets, r, seed, failed, merge(mp.p)),
        "depth-4", sched.p_max
    )
    return Depth4MapResult(mp, r, evidence, tried)


def _certify_depth4(mp, subsets, r, seed, failed, merge):
    """Per-subset evidence that the map psi = mp respects the circuit, or
    None.

    Each entry of subsets is (I, C_I, sim = simple_part(C_I), the distinct
    factors of sim, their jacobian, the rank of sim); for a one-row C_I it
    is (I, C_I, None, (), None, 0).  merge is the _Merge of mp's prime.
    Every distinct factor is mapped at most once per candidate, and all
    legs share the image.  A
    rank leg holds when the images of sim's factors keep rank min(rank, r):
    one seeded evaluated_rank pass, with ceiling min(rank, k), reads the
    image Jacobian through the chain rule (mp.jacobian_at on the
    precomputed jacobian of the factors).  A miss rejects over a big
    field; over a small field the symbolic trdeg of the images decides.
    A subset of rank 0 has only constant factors, so its bound is 0 with
    no evaluation.
    A preservation leg holds when no factor of C_I maps to zero and
    h = gcd_i psi(sim_i) is constant.  Proof: the rows of psi(C_I) are
    psi(g) * psi(sim_i), so simple_part(psi(C_I)) = psi(sim) / h up to a
    unit, which is psi(sim) up to a unit iff h is constant.

    Screens come first and build no image (README, "How candidates are
    screened"); the candidate stream of search_depth4_map has already
    skipped every prime whose generic linear rank is below the largest
    target, or where sigma_p dooms every c.  The linear rank k of mp
    bounds the trdeg of every image family, so k below some subset's
    target rejects.  failed holds the affine-image keys of earlier
    candidates of this search whose preservation leg failed; a candidate
    with the same key differs from one of them by an invertible affine
    change of z, an automorphism of F[z] that keeps every preservation
    verdict, so it is rejected too.  A prime that sigma_p dooms
    (_Merge.dooms) rejects each of its candidates here too, whether or not
    the stream skipped it.  At k = q the preservation verdict is V_p,
    sigma_p's own.  Below q, when V_p fails, psi fails too as soon as
    psi(G) is nonconstant for a shared G (_nonconstant_image).  Otherwise
    _preservation decides it on univariate restrictions of the images to
    one line wherever that is exact, and builds psi's images in w
    variables only where the line leaves the verdict open.  A preservation
    failure adds mp's key to failed.  A rank-leg miss does not: over a big
    field it depends on the seeded points.
    """
    k, key = mp.affine_summary()
    if key in failed or any(k < min(rho, r) for *_, rho in subsets):
        return None
    if merge.dooms or (merge.shared and (k == merge.q or _nonconstant_image(mp, merge, seed))):
        failed.add(key)
        return None
    image = _memo(mp.apply)
    # rank legs first: evaluated rank never exceeds the function-field rank,
    # which never exceeds trdeg, so meeting the target at one point already
    # proves the lower bound, and degenerate (p, c) candidates die on cheap
    # point evaluations before the gcd-based preservation pass below
    field, w = mp.field, mp.nvars_out
    ch = field.characteristic
    bounds = []
    for I, sub, sim, facs, J, rho in subsets:
        if rho == 0:
            # every factor of sim is constant, so the image Jacobian is zero
            bounds.append(0)
            continue
        target = min(rho, r)
        # rho and k bound the rank of the images at every point (their trdeg
        # is at most both), so stopping there leaves the max over the trials
        # as it is
        bound = evaluated_rank(partial(mp.jacobian_at, J), field, w, min(rho, k), seed)[0]
        if bound < target:
            if ch == 0 or ch >= (1 << 20):
                # over a big field a candidate of full image rank passes the
                # evaluated screen almost surely; treat the miss as a reject
                # and let a later candidate win
                return None
            bound = trdeg([image(f) for f in facs], mode="auto").r
            if bound < target:
                return None
        bounds.append(bound)
    # at k = q, V_p passed (it failed above otherwise): every leg holds
    preserved = (lambda sub, sim: True) if k == merge.q else _preservation(mp, image, seed)
    evidence = []
    for (I, sub, sim, facs, J, rho), bound in zip(subsets, bounds):
        if not preserved(sub, sim):
            failed.add(key)
            return None
        evidence.append(
            {
                "I": list(I),
                "rank": rho,
                "image_rank_at_least": bound,
                "simple_part_preserved": True,
            }
        )
    return evidence
