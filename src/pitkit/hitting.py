"""Hitting sets and the blackbox identity-testing driver.

A HittingSet is a deterministic lazily-enumerated point set with a stated
guarantee:

* "certified": the closed-form construction covers the whole stated class,
  or the points are the circuit's own simplex (a dag's grid, or an
  adaptive reduction that cannot reduce, below), so exhausting the
  enumeration proves the blackbox is the zero polynomial.
* "corpus": the points come from a map certified for one concrete input
  family (adaptive mode) or from a construction whose hypotheses could not
  be met exactly (e.g. the base field has too few elements); exhausting the
  enumeration proves zeroness for inputs covered by that certificate only.

Every construction ends on a grid with one axis of field values per
variable, and every polynomial evaluated on it has total degree <= d (the
maps are affine).  When the axis holds d + 1 distinct values v_0..v_d, the
points whose index sum is at most d (the lattice simplex, comb(d + w, w)
points in w variables) already see every nonzero such polynomial, and the
set enumerates only those ("points": "simplex").  A grid truncated to a
small field, or a grid without a degree bound, is enumerated whole
("points": "grid").

An adaptive reduction cuts n variables down to w: w = r + 1 for a
Vandermonde map (composed circuits, depth-4) and w = r for a Kronecker
map.  When w >= n it cuts nothing, and comb(d + n, n) <= comb(d + w, w):
the circuit's own simplex of total degree d in its n variables is never
larger than a map's, needs no map search, and is certified unless the
field truncates the axis.  pit_circuit walks it, and its provenance says
"map": "identity" and gives w.

A set holds one stream of points in the integer form of
FieldSpec.integers, (ints, den) with coordinate i = ints[i] / den: the
lattice of the grid's integers, or its images under each map
(AffineMap._integer_image), residues over F_p and numerators over one
denominator over Q.  pit() walks that stream through the circuit's own
integer evaluation (circuits.Blackbox) and makes only the witness and its
value raw elements; points() is the raw view of the same stream, which
`hitting-set` prints.

Exact-mode enumerations are complete but their closed-form sizes are
astronomically large for all but toy parameters; pit() therefore takes a
max_points cutoff and reports "inconclusive" when the stream is cut short.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

from .circuits import Blackbox, ComposedCircuit, Depth4Circuit
from .depth4 import search_depth4_map
from .fields import FieldSpec
from .independence import trdeg
from .polynomials import MAX_VALUE_BITS, BudgetExceeded
from .varmaps import (
    family_sizes,
    map_arity,
    schedule,
    search_kronecker_map,
    search_vandermonde_map,
    vandermonde_applies,
)


class HittingSet:
    """Deterministic point enumeration with a guarantee label.

    The set holds one stream of points in the integer form of
    FieldSpec.integers, (ints, den) with coordinate i = ints[i] / den;
    points() is its raw view."""

    __slots__ = ("field", "arity", "guarantee", "provenance", "size_bound", "_factory")

    def __init__(self, field, arity, guarantee, provenance, size_bound, factory):
        if guarantee not in ("certified", "corpus"):
            raise ValueError("guarantee must be 'certified' or 'corpus'")
        self.field = field
        self.arity = arity
        self.guarantee = guarantee
        self.provenance = dict(provenance)
        self.size_bound = size_bound
        self._factory = factory

    def integer_points(self):
        """A fresh iterator over the points as (ints, den)."""
        return self._factory()

    def points(self):
        """A fresh iterator over the point tuples of raw elements."""
        from_integers = self.field.from_integers
        return (tuple(from_integers(ints, den)) for ints, den in self._factory())


class PitVerdict:
    """Outcome of running a blackbox over a hitting set.

    outcome is "nonzero" (with a witness point and its value), "zero" (the
    enumeration was exhausted without a nonzero value; only as strong as the
    hitting set's guarantee), or "inconclusive" (cut off by max_points).
    """

    __slots__ = ("outcome", "witness", "value", "points_checked", "guarantee", "provenance")

    def __init__(self, outcome, witness, value, points_checked, guarantee, provenance):
        self.outcome = outcome
        self.witness = witness
        self.value = value
        self.points_checked = points_checked
        self.guarantee = guarantee
        self.provenance = provenance

    def to_json_dict(self, field: FieldSpec) -> dict:
        return {
            "outcome": self.outcome,
            "witness": None
            if self.witness is None
            else [field.scalar_to_json(v) for v in self.witness],
            "value": None if self.value is None else field.scalar_to_json(self.value),
            "points_checked": self.points_checked,
            "guarantee": self.guarantee,
            "provenance": self.provenance,
        }


def pit(oracle, hs: HittingSet, max_points=None) -> PitVerdict:
    """Evaluate the oracle over the hitting set until a nonzero value.

    The oracle is a circuit (circuits.Blackbox), evaluated on the set's
    integer stream, or any callable taking one point tuple of raw
    elements.  Points are consumed in the set's deterministic order; only
    the witness and its value are made raw elements.
    """
    field = hs.field
    if isinstance(oracle, Blackbox):
        value = oracle._evaluate_integers
    else:
        def value(x):
            (num,), den = field.integers([oracle(tuple(field.from_integers(*x)))])
            return num, den
    checked = 0
    for x in hs.integer_points():
        if max_points is not None and checked >= max_points:
            return PitVerdict(
                "inconclusive", None, None, checked, hs.guarantee, hs.provenance
            )
        num, den = value(x)
        checked += 1
        if num:
            witness = tuple(field.from_integers(*x))
            v = field.from_integers([num], den)[0]
            return PitVerdict("nonzero", witness, v, checked, hs.guarantee, hs.provenance)
    return PitVerdict("zero", None, None, checked, hs.guarantee, hs.provenance)


# The largest grid axis any hitting set builds; past it (or past
# MAX_VALUE_BITS for a dag's values over Q) the input is refused with
# BudgetExceeded before anything is built.
MAX_GRID_AXIS = 1 << 20


def _check_axis(field: FieldSpec, d: int):
    """Raise BudgetExceeded when a grid axis for total degree d would hold
    more than MAX_GRID_AXIS values."""
    axis = d + 1 if field.kind == "rational" else min(d + 1, field.p)
    if axis > MAX_GRID_AXIS:
        # the sizes themselves may be too long to print
        raise BudgetExceeded("a grid axis exceeds the limit of %d values" % MAX_GRID_AXIS)


def _grid_values(field: FieldSpec, d: int):
    """The first d + 1 field elements for one grid axis, and the degree
    its lattice simplex certifies: d, or None when the field has fewer
    elements (the axis is truncated, and the whole grid is walked).

    Raises BudgetExceeded, before building anything, when the axis would
    hold more than MAX_GRID_AXIS values.
    """
    _check_axis(field, d)
    want = d + 1
    vals = field.sample_elements(want, start=0)
    return vals, d if len(vals) == want else None


def _lattice(values, w: int, d=None):
    """The points of values^w whose indices sum to at most d, lazily, in
    lexicographic order (a subsequence of itertools.product); with d=None,
    the whole product.

    With d + 1 distinct values v_0..v_d, a polynomial f of total degree
    <= d that vanishes on these comb(d + w, w) points is zero (Chung and
    Yao, SIAM J. Numer. Anal. 1977).  Write f = sum_k g_k N_k in the Newton
    basis N_k = prod_{j<k} (x_w - v_j) of its last variable, g_k of total
    degree <= d - k.  Once g_0..g_{k-1} are zero, f on the slice x_w = v_k
    is g_k N_k(v_k) with N_k(v_k) != 0, and the slice holds the simplex of
    degree d - k in w - 1 variables; by induction on w, g_k = 0.
    """
    if d is None:
        yield from itertools.product(values, repeat=w)
        return
    idx = [0] * w
    total = 0
    while True:
        yield tuple(values[i] for i in idx)
        # the next index vector: bump the last coordinate that can grow
        # once the coordinates after it are reset to 0
        k = w - 1
        while k >= 0 and total >= d:
            total -= idx[k]
            idx[k] = 0
            k -= 1
        if k < 0:
            return
        idx[k] += 1
        total += 1


def _integer_lattice(field, values, w, d=None):
    """_lattice(values, w, d) in the integer form: (ints, den) per point,
    den the axis's common denominator."""
    ints, den = field.integers(values)
    return ((pt, den) for pt in _lattice(ints, w, d))


def _lattice_size(axis: int, w: int, d=None) -> int:
    """The number of points _lattice yields for an axis of that size."""
    return axis ** w if d is None else math.comb(d + w, w)


def sz_grid(field: FieldSpec, values, r: int, d=None) -> HittingSet:
    """The grid values^r, or with a total-degree bound d its lattice
    simplex (_lattice): certified for total degree <= d when the axis has
    more than d distinct values."""
    values = tuple(field.normalize(v) for v in values)
    if len(set(values)) != len(values):
        raise ValueError("grid values must be distinct")
    if r < 1:
        raise ValueError("r must be at least 1")
    if d is not None and len(values) <= d:
        raise ValueError("need at least d+1 grid values")
    certified = d is not None
    return HittingSet(
        field,
        r,
        "certified" if certified else "corpus",
        {
            "construction": "sz-grid",
            "axis_size": len(values),
            "arity": r,
            "degree_bound": d,
            "points": "simplex" if certified else "grid",
        },
        _lattice_size(len(values), r, d),
        partial(_integer_lattice, field, values, r, d),
    )


def _image_set(field, n, provenance, maps, count, w, d, certified):
    """The hitting set of the images of a lattice simplex under a stream of
    maps: the image of a for every map mp of maps() (count of them, each
    of w output variables) and every a of the simplex of total degree d in
    the grid with d + 1 values per axis, or of the whole grid when the
    field truncates the axis; maps=None is the identity (w = n, count 1).
    Certified when certified is true and the axis is whole.  provenance
    gains "grid_truncated" and "points"."""
    grid, d = _grid_values(field, d)
    provenance = dict(
        provenance, grid_truncated=d is None, points="grid" if d is None else "simplex"
    )

    def factory():
        if maps is None:
            return _integer_lattice(field, grid, w, d)
        return (mp._integer_image(x) for mp in maps() for x in _integer_lattice(field, grid, w, d))

    return HittingSet(
        field,
        n,
        "certified" if certified and d is not None else "corpus",
        provenance,
        count * _lattice_size(len(grid), w, d),
        factory,
    )


def _exact_set(field, n, construction, sched, certified, **provenance):
    """Every map of the closed-form family sched.maps(field, n) over the
    simplex of total degree h2_size - 1; provenance joins the set's."""
    provenance.update(construction=construction, mode="exact", schedule=sched.to_json_dict())
    return _image_set(field, n, provenance, partial(sched.maps, field, n), sched.count(n),
                      sched.w(n), sched.h2_size - 1, certified)


def _adaptive_set(mp, construction, evidence, d):
    """The corpus hitting set of one certified map over the simplex of total
    degree d; evidence joins the provenance."""
    provenance = dict(evidence, construction=construction, mode="adaptive",
                      map=mp.to_json_dict())
    return _image_set(mp.field, mp.n, provenance, lambda: (mp,), 1, mp.nvars_out, d, False)


def _identity_set(field, n, construction, w, d, mode="adaptive"):
    """The certified set of a reduction to w >= n variables, which cuts
    nothing: the circuit's own simplex of total degree d, no larger than a
    map's (module docstring) and found without a search."""
    provenance = {"construction": construction, "mode": mode, "map": "identity", "w": w}
    return _image_set(field, n, provenance, None, 1, n, d, True)


def hitting_set_sparse_inputs(field: FieldSpec, n: int, d: int, r: int, delta: int,
                              ell: int) -> HittingSet:
    """The closed-form hitting set for degree-d compositions of ell-sparse
    degree-delta polynomials with transcendence degree r, via Vandermonde
    reductions: every map of the schedule (all primes up to its bound, the
    c sample) over the grid.  Certified when a Vandermonde reduction
    applies (varmaps.vandermonde_applies) and the field hosts the full
    grid."""
    sched = schedule("sparse-char0", n=n, delta=delta, r=r, d=d, ell=ell)
    char_ok = vandermonde_applies(field, delta, r)
    return _exact_set(field, n, "sparse-char0", sched, char_ok, char_gate=char_ok)


def hitting_set_arbitrary_char(field: FieldSpec, n: int, d: int, r: int,
                               delta: int) -> HittingSet:
    """The closed-form hitting set for degree-d compositions of degree-delta
    polynomials of transcendence degree r over any characteristic, via
    Kronecker maps.

    The enumeration unions over all primes up to the schedule bound, the c
    sample, and all r-subsets of kept variables; the grid has arity r and
    is walked on its simplex of total degree d unless truncated.
    """
    sched = schedule("any-char", n=n, delta=delta, r=r, d=d)
    return _exact_set(field, n, "any-char", sched, True)


def hitting_set_depth4(field: FieldSpec, n: int, delta: int, k: int, s: int, R=None,
                       conjecture_R: bool = False) -> HittingSet:
    """The closed-form hitting set for depth-4 powered products with k rows,
    up to s factors per row, factor degree at most delta.

    The reduction arity is r+1 where r is 1 for k=2, the proven k*s bound
    otherwise (or R when given), or a speculative smaller bound under
    conjecture_R.  Certified when a Vandermonde reduction applies, the field
    hosts the full grid and the bound is not conjectured.
    """
    sched = schedule("depth4", n=n, delta=delta, k=k, s=s, r=R, conjecture_R=conjecture_R)
    char_ok = vandermonde_applies(field, delta, sched.r)
    return _exact_set(field, n, "depth4", sched, char_ok and not sched.params["conjectured"],
                      char_gate=char_ok)


def pit_circuit(
    circ, mode: str = "adaptive", seed: int = 0, max_points=None, R=None,
    conjecture_R: bool = False,
) -> PitVerdict:
    """Blackbox PIT of a circuit through the construction that fits it.

    Depth-4 circuits use the depth-4 construction (R and conjecture_R as
    there); one with a single row walks its own simplex in either mode.  A
    composed circuit C(f_1, ..., f_m) first gets r0 = trdeg(f): r0 = 0
    makes it a constant, decided by one evaluation; otherwise its
    points come from the sparse-input (Vandermonde) construction when a
    Vandermonde reduction applies, else from the any-characteristic
    (Kronecker) one.  Exact mode walks the closed-form hitting set.
    Adaptive mode first takes the map's output arity w (r + 1 for depth-4
    with the schedule's rank bound r, r0 + 1 for a Vandermonde map, r0 for
    a Kronecker one).  When w >= n no map can reduce, and it walks the
    circuit's own simplex of degree degree_bound(), certified, with
    "map": "identity" in the provenance.  Otherwise it searches one map
    certified for this circuit (the searches start from the trdeg
    certificate) and walks its images.  A plain dag runs over the simplex
    of the grid sized to its syntactic degree, in either mode.

    A grid too small for the degree (truncated to a small field, or a dag
    grid without its degree bound) cannot see every nonzero polynomial, so
    exhausting it answers "inconclusive", not "zero".  A dag whose grid
    axis or whose values over Q would exceed MAX_GRID_AXIS or
    MAX_VALUE_BITS raises BudgetExceeded before any evaluation.
    """
    if mode not in ("adaptive", "exact"):
        raise ValueError("mode must be 'exact' or 'adaptive'")
    exact = mode == "exact"
    field, n = circ.field, circ.nvars
    if isinstance(circ, Depth4Circuit):
        if circ.k == 1:
            # one row, a product of nonzero factors: no depth-4 family has
            # k = 1, and no map can do better than the circuit's own simplex
            hs = _identity_set(field, n, "depth4", n, circ.degree_bound(), mode)
        elif exact:
            hs = hitting_set_depth4(field, n, circ.delta, circ.k, circ.s, R=R,
                                    conjecture_R=conjecture_R)
        else:
            w = schedule("depth4", n=n, delta=circ.delta, k=circ.k, s=circ.s, r=R,
                         conjecture_R=conjecture_R).w(n)
            if w >= n:
                hs = _identity_set(field, n, "depth4", w, circ.degree_bound())
            else:
                found = search_depth4_map(circ, R=R, seed=seed, conjecture_R=conjecture_R)
                hs = _adaptive_set(found.map, "depth4", {"evidence": found.evidence},
                                   circ.degree_bound())
        truncated = hs.provenance["grid_truncated"]
    elif isinstance(circ, ComposedCircuit):
        inputs = list(circ.inputs)
        input_cert = trdeg(inputs, mode="auto", seed=seed)
        r0 = input_cert.r
        if r0 == 0:
            point = tuple(field.zero() for _ in range(n))
            value = field.normalize(circ.evaluate(point))
            provenance = {"construction": "constant-composition"}
            if field.is_zero(value):
                return PitVerdict("zero", None, None, 1, "certified", provenance)
            return PitVerdict("nonzero", point, value, 1, "certified", provenance)
        delta, ell = family_sizes(inputs)
        d = max(1, circ.degree_bound())
        sparse = vandermonde_applies(field, delta, r0)
        if exact and sparse:
            hs = hitting_set_sparse_inputs(field, n, d, r0, delta, ell)
        elif exact:
            hs = hitting_set_arbitrary_char(field, n, d, r0, delta)
        else:
            construction = "sparse-char0" if sparse else "any-char"
            w = map_arity(construction, r0, n)
            if w >= n:
                hs = _identity_set(field, n, construction, w, d)
            else:
                # _image_set would refuse the grid axis of the map found;
                # refuse it before the search, which can run long at such
                # degrees
                _check_axis(field, d)
                search = search_vandermonde_map if sparse else search_kronecker_map
                # r0 <= n: trdeg never exceeds the number of variables
                found = search(inputs, r=r0, seed=seed, input_cert=input_cert)
                evidence = {"image_certificate": found.image_cert.to_json_dict()}
                hs = _adaptive_set(found.map, construction, evidence, d)
        truncated = hs.provenance["grid_truncated"]
    else:
        d = max(1, circ.syntactic_degree())
        if field.kind == "rational":
            # the grid's largest coordinate is d
            bits = circ.value_bits(d.bit_length())
            if bits > MAX_VALUE_BITS:
                raise BudgetExceeded(
                    "dag values may exceed the limit of %d bits" % MAX_VALUE_BITS
                )
        values, deg = _grid_values(field, d)
        hs = sz_grid(field, values, n, d=deg)
        truncated = deg is None
    verdict = pit(circ, hs, max_points=max_points)
    if verdict.outcome == "zero" and truncated:
        return PitVerdict(
            "inconclusive", None, None, verdict.points_checked, hs.guarantee, hs.provenance
        )
    return verdict


def bad_prime_census(f, primes):
    """Primes p for which f vanishes identically modulo t^p - 1.

    f must be univariate.  Folding every exponent mod p and summing the
    coefficients per residue class computes f mod (t^p - 1) directly on the
    sparse representation.
    """
    if f.nvars != 1:
        raise ValueError("census is defined for univariate polynomials")
    field = f.field
    bad = []
    for p in primes:
        folded = {}
        for (e,), c in f.terms.items():
            q = e % p
            folded[q] = field.add(folded.get(q, field.zero()), c)
        if all(field.is_zero(v) for v in folded.values()):
            bad.append(p)
    return len(bad), bad


def bad_prime_bound(ell: int, d: int) -> int:
    """Upper bound on the number of bad primes for an ell-sparse degree-d
    univariate: each bad prime divides some exponent difference <= d, and an
    ell-sparse polynomial has fewer than ell distinct differences to cover."""
    if ell < 1 or d < 0:
        raise ValueError("need ell >= 1 and d >= 0")
    if d <= 1:
        return max(0, ell - 1)
    return max(0, int(ell * math.log2(d)) - 1)
