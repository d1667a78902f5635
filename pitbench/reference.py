"""Expected answers for a corpus, rebuilt from the seed without pitkit.

    python3 pitbench/reference.py --workload depth4-pit --seed 1

prints one JSON object per instance: the zero/nonzero label from sympy
expansion (with the construction's label beside it where there is one), the
transcendence degree r from the evaluated Jacobian rank, whether an
annihilator within the cap exists (sympy nullspace), and the monic gcd part
of depth-4 circuits (sympy gcd).  run.py checks pitkit's reports against the
same functions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
from refalg import Field, generic_rank, jacobian_rank_at  # noqa: E402


def field_of(meta):
    return Field(meta["field"])


def _sym():
    import sympy
    from sympy.polys.matrices import DomainMatrix

    return sympy, DomainMatrix


def _domain(F):
    sympy, _ = _sym()
    return sympy.QQ if F.p is None else sympy.GF(F.p)


def to_sympy(F, f, gens):
    sympy, _ = _sym()
    nv = len(gens)
    rep = {e: (sympy.Rational(c.numerator, c.denominator) if F.p is None else int(c))
           for e, c in f.items()}
    if not rep:
        rep = {(0,) * nv: 0}
    if F.p is None:
        return sympy.Poly.from_dict(rep, *gens, domain=sympy.QQ)
    return sympy.Poly.from_dict(rep, *gens, modulus=F.p)


def from_sympy(F, P):
    out = {}
    for e, c in P.as_dict().items():
        if F.p is None:
            c = sympy_fraction(c)
        else:
            c = int(c) % F.p
        if c:
            out[tuple(e)] = c
    return out


def sympy_fraction(c):
    import sympy

    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def gens(n):
    sympy, _ = _sym()
    return sympy.symbols("x1:%d" % (n + 1))


def sympy_compose(F, outer, inners, n):
    """outer(inners) expanded with sympy polynomial arithmetic."""
    g = gens(n)
    P = [to_sympy(F, f, g) for f in inners]
    acc = to_sympy(F, {}, g)
    for e, c in outer.items():
        t = to_sympy(F, {(0,) * n: c}, g)
        for Pi, k in zip(P, e):
            if k:
                t = t * Pi ** k
        acc = acc + t
    return acc


def row_products(F, rows, n):
    g = gens(n)
    out = []
    for row in rows:
        t = to_sympy(F, {(0,) * n: 1}, g)
        for f in row:
            t = t * to_sympy(F, f, g)
        out.append(t)
    return out


def depth4_sum(F, rows, n):
    prods = row_products(F, rows, n)
    return sum(prods[1:], prods[0])


def is_zero(meta):
    """sympy's verdict on a pit instance."""
    F = field_of(meta)
    if meta["kind"] == "depth4":
        return depth4_sum(F, meta["rows"], meta["nvars"]).is_zero
    return sympy_compose(F, meta["outer"], meta["inners"], meta["nvars"]).is_zero


def trdeg_of(F, fs, n, small_field_r=None):
    """Transcendence degree.  Over Q and large prime fields it is the
    Jacobian rank at random points.  Small fields use the construction's
    triangular families, whose base rows have a unit-diagonal Jacobian: the
    rank at any point confirms the construction's r."""
    if F.p is not None and F.p < 100:
        pt = tuple(0 for _ in range(n))
        if jacobian_rank_at(F, fs, n, pt) != small_field_r:
            raise AssertionError("triangular family lost its rank")
        return small_field_r
    return generic_rank(F, fs, n, random.Random("ref-rank/%d" % len(fs)), trials=4)


def annihilator_exists(F, fs, n, cap):
    """Is there a nonzero F of degree <= cap with F(fs) = 0?  A sympy
    nullspace over the monomials y^a, |a| <= cap."""
    _, DomainMatrix = _sym()
    K = _domain(F)
    m = len(fs)
    g = gens(n)
    P = [to_sympy(F, f, g) for f in fs]
    cols = []
    for d in range(cap + 1):
        for a in itertools.product(range(d + 1), repeat=m):
            if sum(a) == d:
                t = to_sympy(F, {(0,) * n: 1}, g)
                for Pi, k in zip(P, a):
                    if k:
                        t = t * Pi ** k
                cols.append(from_sympy(F, t))
    rows_keys = sorted({e for c in cols for e in c})
    conv = (lambda v: K(v.numerator, v.denominator)) if F.p is None else (lambda v: K(int(v)))
    M = DomainMatrix([[conv(c.get(e, 0)) for c in cols] for e in rows_keys],
                     (len(rows_keys), len(cols)), K)
    return M.nullspace().shape[0] > 0


def vanishes(F, ann, fs, n):
    """Does ann(fs) expand to 0 under sympy?"""
    return sympy_compose(F, ann, fs, n).is_zero


def monic_gcd(F, rows, n):
    """gcd of the row products, by sympy, made monic by monic()."""
    prods = row_products(F, rows, n)
    acc = prods[0]
    for t in prods[1:]:
        acc = acc.gcd(t)
    return monic(F, from_sympy(F, acc))


def monic(F, f):
    """f divided by its graded-lex leading coefficient (largest total
    degree, then largest exponent tuple), so that two polynomials that
    differ by a unit map to the same one."""
    if not f:
        return f
    lead = max(f, key=lambda e: (sum(e), e))
    inv = F.inv(f[lead])
    return {e: F.norm(c * inv) for e, c in f.items()}


def expected(inst):
    """Every reference answer for one instance."""
    meta = inst["meta"]
    F = field_of(meta)
    out = {"id": inst["id"]}
    kind = meta["kind"]
    if kind in ("depth4", "composed") and inst["calls"][0][0] == "pit":
        out["zero"] = bool(is_zero(meta))
        out["construction_zero"] = meta.get("zero", None)
        if kind == "composed":
            out["r"] = trdeg_of(F, meta["inners"], meta["nvars"])
    elif kind == "family":
        out["r"] = trdeg_of(F, meta["polys"], meta["nvars"], meta["r"])
        if meta["command"] == "annihilator":
            out["annihilator_exists"] = annihilator_exists(F, meta["polys"], meta["nvars"],
                                                           meta["cap"])
    elif kind == "depth4":
        out["gcd"] = sorted(
            [list(e), str(c)] for e, c in monic_gcd(F, meta["rows"], meta["nvars"]).items())
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    for inst in corpus.WORKLOADS[args.workload](args.seed):
        ref = expected(inst)
        if ref.get("construction_zero") and not ref["zero"]:
            raise SystemExit("%s: constructed zero does not expand to zero" % inst["id"])
        print(json.dumps(ref, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
