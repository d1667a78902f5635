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
("points": "grid").  The axis of every construction but sz_grid's is the
indices 0 .. m - 1, their own integer form: _axis gives m and the degree
it certifies, and nothing is built for the axis.

An adaptive reduction cuts n variables down to w: w = r + 1 for a
Vandermonde map (composed circuits, depth-4) and w = r for a Kronecker
map.  When w >= n it cuts nothing, and comb(d + n, n) <= comb(d + w, w):
the circuit's own simplex of total degree d in its n variables is never
larger than a map's, needs no map search, and is certified unless the
field truncates the axis.  pit_circuit walks it, and its provenance says
"map": "identity" and gives w.

A set holds one stream of points in the integer form of
FieldSpec.integers, cut into blocks (cols, den) of coordinate columns,
coordinate i of point j being cols[i][j] / den: the lattice of the axis's
integers (_lattice_blocks), or its images under each map (_image_blocks),
residues over F_p and numerators over one denominator over Q.  Both walk
the simplex by runs of its last coordinate (_runs): along a run only that
coordinate moves, so the lattice's columns repeat the prefix's values and
slice the axis, and a map's images are one affine progression per
coordinate, from the image of the run's prefix, which moves by one column
of the map from run to run.  The blocks hold 1, BLOCK_GROWTH and then
MAX_BLOCK points, in the order of the points, a run cut where a block is
full, and a block never holds the images of two maps: a circuit nonzero at
the first point is evaluated at that point alone, and a long walk costs
each node, term or factor one list operation per MAX_BLOCK points.  pit() walks the
blocks through the circuit's own block evaluation (circuits.Blackbox),
takes the first nonzero value of each block, and makes only the witness
and its value raw elements; points() is the raw view of the same stream,
which `hitting-set` prints.

Exact-mode enumerations are complete but their closed-form sizes are
astronomically large for all but toy parameters; pit() therefore takes a
max_points cutoff and reports "inconclusive" when the stream is cut short.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from operator import add

from .circuits import Blackbox, ComposedCircuit, Depth4Circuit
from .depth4 import search_depth4_map
from .fields import FieldSpec, block_size
from .independence import jacobian, trdeg
from .polynomials import MAX_VALUE_BITS, BudgetExceeded
from .varmaps import (
    family_sizes,
    map_arity,
    schedule,
    search_kronecker_map,
    search_vandermonde_map,
    vandermonde_applies,
)


# The largest block of points a hitting set streams, and the factor by
# which its blocks grow from one point up to it (module docstring).
MAX_BLOCK = 256
BLOCK_GROWTH = 16


class HittingSet:
    """Deterministic point enumeration with a guarantee label.

    The set holds one stream of blocks of points in the integer form of
    FieldSpec.integers, (cols, den) with coordinate i of point j equal to
    cols[i][j] / den; points() is its raw view, point by point."""

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

    def blocks(self):
        """A fresh iterator over the blocks of points as (cols, den)."""
        return self._factory()

    def points(self):
        """A fresh iterator over the point tuples of raw elements."""
        return (pt for block in self._factory() for pt in _raw_points(self.field, block))


def _raw_points(field, block):
    """The points of a block as tuples of raw elements."""
    cols, den = block
    if not cols:
        return [()]
    return list(zip(*[field.from_integers(col, den) for col in cols]))


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
    blocks, or any callable taking one point tuple of raw elements.
    Points are consumed in the set's deterministic order, a block at a
    time; a block that would pass max_points is cut to the points left,
    and the first nonzero value of a block is the witness, so the verdict
    and points_checked are those of a walk point by point.  Only the
    witness and its value are made raw elements.
    """
    field = hs.field
    if isinstance(oracle, Blackbox):
        values = oracle._evaluate_integers
    else:
        def values(block):
            return field.integers([oracle(pt) for pt in _raw_points(field, block)])
    checked = 0
    for cols, den in hs.blocks():
        size = block_size(cols)
        cut = max_points is not None and checked + size > max_points
        if cut:
            size = max_points - checked
            cols = [col[:size] for col in cols]
        if size > 0:
            nums, vden = values((cols, den))
            if any(nums):
                j = next(itertools.compress(itertools.count(), nums))
                witness = tuple(field.from_integers([col[j] for col in cols], den))
                v = field.from_integers([nums[j]], vden)[0]
                return PitVerdict("nonzero", witness, v, checked + j + 1, hs.guarantee,
                                  hs.provenance)
            checked += size
        if cut:
            return PitVerdict("inconclusive", None, None, checked, hs.guarantee, hs.provenance)
    return PitVerdict("zero", None, None, checked, hs.guarantee, hs.provenance)


# The largest grid axis any hitting set builds; past it (or past
# MAX_VALUE_BITS for a dag's values over Q) the input is refused with
# BudgetExceeded before anything is built.
MAX_GRID_AXIS = 1 << 20


def _axis(field: FieldSpec, d: int):
    """The size m of the grid axis for total degree d, the indices 0 .. m -
    1 (d + 1 of them, truncated to the p elements of F_p), and the degree
    its lattice simplex certifies: d, or None when the field truncates the
    axis (and the whole grid is walked).  Nothing is built for the axis.

    Raises BudgetExceeded when the axis would hold more than MAX_GRID_AXIS
    values.
    """
    m = d + 1 if field.kind == "rational" else min(d + 1, field.p)
    if m > MAX_GRID_AXIS:
        # the sizes themselves may be too long to print
        raise BudgetExceeded("a grid axis exceeds the limit of %d values" % MAX_GRID_AXIS)
    return m, d if m == d + 1 else None


def _runs(m: int, w: int, d=None):
    """The index vectors in [0, m)^w whose indices sum to at most d (with
    d=None, all of them), in lexicographic order, as runs of the last
    coordinate: one (k, prefix, length) per prefix of the first w - 1
    indices, whose run holds the vectors prefix + (s,) for s = 0 ..
    length - 1, that is up to the budget d - sum(prefix) (m - 1 with
    d=None).  k is the prefix coordinate that grew by one since the last
    run, the coordinates after it back at 0 (-1 at the first run); prefix
    is one list, updated in place.  w >= 1, and m > d when d is given.

    With d + 1 distinct values v_0..v_d on the axis, a polynomial f of
    total degree <= d that vanishes on these comb(d + w, w) points is zero
    (Chung and Yao, SIAM J. Numer. Anal. 1977).  Write f = sum_k g_k N_k in
    the Newton basis N_k = prod_{j<k} (x_w - v_j) of its last variable, g_k
    of total degree <= d - k.  Once g_0..g_{k-1} are zero, f on the slice
    x_w = v_k is g_k N_k(v_k) with N_k(v_k) != 0, and the slice holds the
    simplex of degree d - k in w - 1 variables; by induction on w, g_k = 0.
    """
    top = m - 1
    idx = [0] * (w - 1)
    total = 0
    k = -1
    while True:
        yield k, idx, (top if d is None else d - total) + 1
        # the next prefix: bump the last coordinate that can grow once the
        # coordinates after it are reset to 0
        k = w - 2
        while k >= 0 and (idx[k] == top if d is None else total >= d):
            total -= idx[k]
            idx[k] = 0
            k -= 1
        if k < 0:
            return
        idx[k] += 1
        total += 1


def _blocks(runs, n: int, piece):
    """Cut a stream of runs into blocks of n coordinate columns holding 1,
    BLOCK_GROWTH, BLOCK_GROWTH^2, ... and then MAX_BLOCK points.  runs
    yields (run, length); piece(cols, run, lo, hi) appends the points lo ..
    hi - 1 of a run to the columns.  A run longer than the room left in a
    block is cut there, so nothing longer than one block is built."""
    size = room = 1
    cols = [[] for _ in range(n)]
    for run, length in runs:
        lo = 0
        while lo < length:
            hi = min(length, lo + room)
            piece(cols, run, lo, hi)
            room -= hi - lo
            lo = hi
            if not room:
                yield cols
                size = room = min(size * BLOCK_GROWTH, MAX_BLOCK)
                cols = [[] for _ in range(n)]
    if room < size:
        yield cols


def _lattice_blocks(axis, w: int, d=None):
    """The lattice of an axis in the integer form, axis = (ints, den): the
    points of ints^w whose indices sum to at most d (with d=None, all of
    them), in lexicographic order, as blocks (cols, den) of w coordinate
    columns (_blocks).  Per run (_runs) the first w - 1 columns repeat the
    prefix's values and the last takes a slice of the axis.  With w = 0
    the lattice is one point, a block of no columns."""
    ints, den = axis
    if w == 0:
        yield [], den
        return

    def piece(cols, prefix, lo, hi):
        for col, i in zip(cols, prefix):
            col += [ints[i]] * (hi - lo)
        cols[-1] += ints[lo:hi]

    runs = ((prefix, length) for _, prefix, length in _runs(len(ints), w, d))
    for cols in _blocks(runs, w, piece):
        yield cols, den


def _image_blocks(mp, m: int, d=None):
    """The images under the map mp of the lattice of the axis 0 .. m - 1 in
    mp.nvars_out = w >= 1 variables (_lattice_blocks), as blocks of the
    columns of AffineMap._integer_image: (residue columns, 1) over F_p, and
    over Q numerator columns over L.

    Along a run (_runs) only the last coordinate moves, so image i of its
    point s is x0_i + s * M[i][w - 1], one progression per coordinate, with
    x0 the image of the run's prefix; x0 moves by one column of M from run
    to run.  base[t] is the image of the prefix's first t coordinates."""
    const, mcols, L = mp._integer_columns()
    w, last, p = len(mcols), mcols[-1], mp.field.p

    def runs():
        base = [list(const)] * w
        for k, _, length in _runs(m, w, d):
            if k >= 0:
                moved = list(map(add, base[k + 1], mcols[k]))
                base[k + 1:] = [moved] * (w - 1 - k)
            yield base[-1], length

    def piece(cols, x0, lo, hi):
        for col, x, step in zip(cols, x0, last):
            col += range(x + step * lo, x + step * hi, step) if step else [x] * (hi - lo)

    for cols in _blocks(runs(), len(const), piece):
        if p is not None:
            cols = [[v % p for v in col] for col in cols]
        yield cols, L


def _lattice_size(axis: int, w: int, d=None) -> int:
    """The number of points in the lattice of an axis of that size
    (_lattice_blocks)."""
    return axis ** w if d is None else math.comb(d + w, w)


def sz_grid(field: FieldSpec, values, r: int, d=None) -> HittingSet:
    """The grid values^r, or with a total-degree bound d its lattice
    simplex (_runs): certified for total degree <= d when the axis has
    more than d distinct values."""
    values = tuple(field.normalize(v) for v in values)
    if len(set(values)) != len(values):
        raise ValueError("grid values must be distinct")
    if r < 1:
        raise ValueError("r must be at least 1")
    if d is not None and len(values) <= d:
        raise ValueError("need at least d+1 grid values")
    return _grid(field, field.integers(values), r, d)


def _grid(field, axis, r: int, d=None) -> HittingSet:
    """sz_grid of arity r >= 1 on an axis already in the integer form,
    axis = (ints, den) of distinct values, more than d of them when d is
    given."""
    certified = d is not None
    return HittingSet(
        field,
        r,
        "certified" if certified else "corpus",
        {
            "construction": "sz-grid",
            "axis_size": len(axis[0]),
            "arity": r,
            "degree_bound": d,
            "points": "simplex" if certified else "grid",
        },
        _lattice_size(len(axis[0]), r, d),
        partial(_lattice_blocks, axis, r, d),
    )


def _image_set(field, n, provenance, maps, count, w, d, certified, circ=None):
    """The hitting set of the images of a lattice simplex under a stream of
    maps: the image of a for every map mp of maps() (count of them, each
    of w output variables) and every a of the simplex of total degree d in
    the grid with d + 1 values per axis, or of the whole grid when the
    field truncates the axis; maps=None is the identity (w = n, count 1).
    Certified when certified is true and the axis is whole.  provenance
    gains "grid_truncated" and "points".  With circ, the stream refuses
    each map, before its first block, when the walk of circ on its images
    may pass MAX_VALUE_BITS (_check_walk_bits at _map_walk_bits); a bound
    that passed once is not computed again."""
    m, d = _axis(field, d)
    provenance = dict(
        provenance, grid_truncated=d is None, points="grid" if d is None else "simplex"
    )

    allowed = set()

    def image_blocks(mp):
        if circ is not None and field.kind == "rational":
            bits = _map_walk_bits(mp, d)
            if bits not in allowed:
                _check_walk_bits(circ, *bits)
                allowed.add(bits)
        return _image_blocks(mp, m, d)

    def factory():
        if maps is None:
            # the axis 0 .. m - 1 is its own integer form
            return _lattice_blocks((range(m), 1), w, d)
        return (block for mp in maps() for block in image_blocks(mp))

    return HittingSet(
        field,
        n,
        "certified" if certified and d is not None else "corpus",
        provenance,
        count * _lattice_size(m, w, d),
        factory,
    )


def _exact_set(field, n, construction, sched, certified, circ, **provenance):
    """Every map of the closed-form family sched.maps(field, n) over the
    simplex of total degree h2_size - 1; provenance joins the set's, and
    circ is as in _image_set."""
    provenance.update(construction=construction, mode="exact", schedule=sched.to_json_dict())
    return _image_set(field, n, provenance, partial(sched.maps, field, n), sched.count(n),
                      sched.w(n), sched.h2_size - 1, certified, circ)


def _adaptive_set(mp, construction, evidence, d, circ=None):
    """The corpus hitting set of one certified map over the simplex of total
    degree d; evidence joins the provenance, and circ is as in
    _image_set."""
    provenance = dict(evidence, construction=construction, mode="adaptive",
                      map=mp.to_json_dict())
    return _image_set(mp.field, mp.n, provenance, lambda: (mp,), 1, mp.nvars_out, d, False,
                      circ)


def _map_walk_bits(mp, d):
    """(bits, integral) of the images of the simplex of total degree d
    under the map mp over Q, as _check_walk_bits takes them: an image
    coordinate is (b_i + sum_t M[i][t] z_t) / L with 0 <= z_t <= d."""
    const, cols, L = mp._integer_columns()
    top = max(abs(b) + d * sum(abs(col[i]) for col in cols) for i, b in enumerate(const))
    return max(top, L).bit_length(), L == 1


def _identity_set(field, n, construction, w, d, mode="adaptive", circ=None):
    """The certified set of a reduction to w >= n variables, which cuts
    nothing: the circuit's own simplex of total degree d, no larger than a
    map's (module docstring) and found without a search.  Refused when the
    walk of circ, if given, may pass MAX_VALUE_BITS (_check_walk_bits)."""
    provenance = {"construction": construction, "mode": mode, "map": "identity", "w": w}
    hs = _image_set(field, n, provenance, None, 1, n, d, True)
    if circ is not None:
        _check_walk_bits(circ, d.bit_length(), True)
    return hs


def hitting_set_sparse_inputs(field: FieldSpec, n: int, d: int, r: int, delta: int,
                              ell: int, *, circ=None) -> HittingSet:
    """The closed-form hitting set for degree-d compositions of ell-sparse
    degree-delta polynomials with transcendence degree r, via Vandermonde
    reductions: every map of the schedule (all primes up to its bound, the
    c sample) over the grid.  Certified when a Vandermonde reduction
    applies (varmaps.vandermonde_applies) and the field hosts the full
    grid.  circ, the circuit that pit_circuit walks on the set, bounds the
    walk map by map (_image_set)."""
    sched = schedule("sparse-char0", n=n, delta=delta, r=r, d=d, ell=ell)
    char_ok = vandermonde_applies(field, delta, r)
    return _exact_set(field, n, "sparse-char0", sched, char_ok, circ, char_gate=char_ok)


def hitting_set_arbitrary_char(field: FieldSpec, n: int, d: int, r: int,
                               delta: int, *, circ=None) -> HittingSet:
    """The closed-form hitting set for degree-d compositions of degree-delta
    polynomials of transcendence degree r over any characteristic, via
    Kronecker maps.

    The enumeration unions over all primes up to the schedule bound, the c
    sample, and all r-subsets of kept variables; the grid has arity r and
    is walked on its simplex of total degree d unless truncated.  circ as
    in hitting_set_sparse_inputs.
    """
    sched = schedule("any-char", n=n, delta=delta, r=r, d=d)
    return _exact_set(field, n, "any-char", sched, True, circ)


def hitting_set_depth4(field: FieldSpec, n: int, delta: int, k: int, s: int, R=None,
                       conjecture_R: bool = False, *, circ=None) -> HittingSet:
    """The closed-form hitting set for depth-4 powered products with k rows,
    up to s factors per row, factor degree at most delta.

    The reduction arity is r+1 where r is 1 for k=2, the proven k*s bound
    otherwise (or R when given), or a speculative smaller bound under
    conjecture_R.  Certified when a Vandermonde reduction applies, the field
    hosts the full grid and the bound is not conjectured.  circ as in
    hitting_set_sparse_inputs.
    """
    sched = schedule("depth4", n=n, delta=delta, k=k, s=s, r=R, conjecture_R=conjecture_R)
    char_ok = vandermonde_applies(field, delta, sched.r)
    return _exact_set(field, n, "depth4", sched, char_ok and not sched.params["conjectured"],
                      circ, char_gate=char_ok)


def pit_circuit(
    circ, mode: str = "adaptive", seed: int = 0, max_points=None, R=None,
    conjecture_R: bool = False,
) -> PitVerdict:
    """Blackbox PIT of a circuit through the construction that fits it.

    Depth-4 circuits use the depth-4 construction (R and conjecture_R as
    there); one with a single row, and a constant one (no variables, or
    delta = 0), walks its own simplex in either mode.  A composed circuit
    C(f_1, ..., f_m) first gets r0 = trdeg(f): r0 = 0 makes it a
    constant, decided by one evaluation; otherwise its
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
    of the grid sized to its syntactic degree, in either mode; one with no
    variables is a constant, decided by one evaluation.

    A grid too small for the degree (truncated to a small field, or a dag
    grid without its degree bound) cannot see every nonzero polynomial, so
    exhausting it answers "inconclusive", not "zero".  A dag whose grid
    axis or whose values over Q would exceed MAX_GRID_AXIS or
    MAX_VALUE_BITS raises BudgetExceeded before any evaluation, and so
    does a composed circuit of trdeg 0 whose outer dag's values at its
    constant inners could exceed MAX_VALUE_BITS, and so does every walk
    whose values could (_check_walk_bits): a closed-form set's walk map by
    map, before the map's first point.
    """
    if mode not in ("adaptive", "exact"):
        raise ValueError("mode must be 'exact' or 'adaptive'")
    if max_points is not None and max_points < 0:
        # read as 0, it would answer "inconclusive" on every circuit, and
        # verify's re-run would agree
        raise ValueError("max_points must be nonnegative")
    exact = mode == "exact"
    field, n = circ.field, circ.nvars
    if isinstance(circ, Depth4Circuit):
        if circ.k == 1 or not (n and circ.delta):
            # one row, a product of nonzero factors, or a constant: no
            # depth-4 family has k = 1, n = 0 or delta = 0, and no map can
            # do better than the circuit's own simplex (one point if constant)
            hs = _identity_set(field, n, "depth4", n, circ.degree_bound() if n else 0, mode,
                               circ)
        elif exact:
            hs = hitting_set_depth4(field, n, circ.delta, circ.k, circ.s, R=R,
                                    conjecture_R=conjecture_R, circ=circ)
        else:
            w = schedule("depth4", n=n, delta=circ.delta, k=circ.k, s=circ.s, r=R,
                         conjecture_R=conjecture_R).w(n)
            if w >= n:
                hs = _identity_set(field, n, "depth4", w, circ.degree_bound(), circ=circ)
            else:
                found = search_depth4_map(circ, R=R, seed=seed, conjecture_R=conjecture_R)
                hs = _adaptive_set(found.map, "depth4", {"evidence": found.evidence},
                                   circ.degree_bound(), circ)
        truncated = hs.provenance["grid_truncated"]
    elif isinstance(circ, ComposedCircuit):
        inputs = list(circ.inputs)
        J = jacobian(inputs)
        input_cert = trdeg(inputs, mode="auto", J=J)
        r0 = input_cert.r
        if r0 == 0:
            if field.kind == "rational":
                # every inner is a constant, an input of the outer dag
                consts = [f.constant_term() for f in inputs]
                bits = [max(c.numerator.bit_length(), c.denominator.bit_length()) for c in consts]
                _check_value_bits(circ.outer, bits, all(c.denominator == 1 for c in consts))
            return _constant_verdict(circ, "constant-composition")
        delta, ell = family_sizes(inputs)
        d = max(1, circ.degree_bound())
        sparse = vandermonde_applies(field, delta, r0)
        if exact and sparse:
            hs = hitting_set_sparse_inputs(field, n, d, r0, delta, ell, circ=circ)
        elif exact:
            hs = hitting_set_arbitrary_char(field, n, d, r0, delta, circ=circ)
        else:
            construction = "sparse-char0" if sparse else "any-char"
            w = map_arity(construction, r0, n)
            if w >= n:
                hs = _identity_set(field, n, construction, w, d, circ=circ)
            else:
                # _image_set would refuse the grid axis of the map found;
                # refuse it before the search, which can run long at such
                # degrees
                _axis(field, d)
                search = search_vandermonde_map if sparse else search_kronecker_map
                # r0 <= n: trdeg never exceeds the number of variables
                found = search(inputs, r=r0, seed=seed, input_cert=input_cert, J=J)
                evidence = {"image_certificate": found.image_cert.to_json_dict()}
                hs = _adaptive_set(found.map, construction, evidence, d, circ)
        truncated = hs.provenance["grid_truncated"]
    else:
        d = max(1, circ.syntactic_degree())
        if field.kind == "rational":
            # the grid's largest coordinate is d
            _check_value_bits(circ, [d.bit_length()] * n)
        if n == 0:
            return _constant_verdict(circ, "constant-dag")
        m, deg = _axis(field, d)
        hs = _grid(field, (range(m), 1), n, deg)
        truncated = deg is None
    verdict = pit(circ, hs, max_points=max_points)
    if verdict.outcome == "zero" and truncated:
        return PitVerdict(
            "inconclusive", None, None, verdict.points_checked, hs.guarantee, hs.provenance
        )
    return verdict


def _check_walk_bits(circ, input_bits, integral):
    """Over Q, the dag's rule (_check_value_bits) for a walk of the
    composed or depth-4 circuit circ (through its composed view) at points
    whose coordinates have at most input_bits bits, integers when integral:
    the outer dag's, with input j at the bits of the inner value f_j.  An
    inner f(a/q) is sum N_e a^e q^(d - |e|) / (D q^d)
    (SparsePoly._eval_integers), of at most max(bits N, bits D) + d *
    input_bits + bits(#terms) bits."""
    if circ.field.kind != "rational":
        return
    if isinstance(circ, Depth4Circuit):
        circ = circ._composed()
    forms = [f._compiled or f._compile() for f in circ.inputs]
    bits = [max([D.bit_length()] + [abs(N).bit_length() for N, _, _ in terms])
            + d * input_bits + len(terms).bit_length() for D, terms, d in forms]
    _check_value_bits(circ.outer, bits, integral and all(D == 1 for D, _, _ in forms))


def _check_value_bits(dag, input_bits, integral_inputs=True):
    """Over Q, refuse a dag whose values at inputs of input_bits[j] bits at
    input j (Circuit.value_bits) may exceed MAX_VALUE_BITS, before any
    evaluation."""
    if dag.value_bits(input_bits, integral_inputs) > MAX_VALUE_BITS:
        raise BudgetExceeded("dag values may exceed the limit of %d bits" % MAX_VALUE_BITS)


def _constant_verdict(circ, construction):
    """The certified verdict on a circuit that is a constant: its one value,
    at the origin."""
    field = circ.field
    point = tuple(field.zero() for _ in range(circ.nvars))
    value = field.normalize(circ.evaluate(point))
    provenance = {"construction": construction}
    if field.is_zero(value):
        return PitVerdict("zero", None, None, 1, "certified", provenance)
    return PitVerdict("nonzero", point, value, 1, "certified", provenance)


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
