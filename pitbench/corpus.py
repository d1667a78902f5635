"""Seeded corpora for the three workloads.

Everything here is built with the benchmark's own arithmetic (refalg) and
written out as pitkit input files; pitkit itself only ever reads the files.
An instance is a list of CLI calls plus what the construction knows about
the answer (the "meta"), which the checker and the reference use.

The make-up of each corpus is a fixed list of slots.  Within a slot the
sizes, supports and base coefficients are fixed by the slot alone.  The
seed draws a nonzero scale for every generated polynomial and the
coefficients of the outer polynomials and of the lifted identity (see
Draw).  Scaling keeps transcendence degrees, gcd structure and the map
searches' candidate order, so the seed changes the numbers pitkit computes
with but not how much work a corpus is; a first draft that let the seed
pick the supports too made the corpus time vary by 27% from seed to seed,
because a support decides whether the first map candidates survive.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from refalg import BIG_PRIME, Field, generic_rank, padd, pdeg, pmul, ptext, pscale

Q = Field(None)
FBIG = Field(BIG_PRIME)


class Draw:
    """Two random streams: `shape` depends on the slot only and fixes
    sizes, supports and base coefficients; `coef` depends on the seed."""

    def __init__(self, slot, seed):
        self.shape = random.Random("shape/" + slot)
        self.coef = random.Random("coef/%d/%s" % (seed, slot))

    def coeff(self, F, bound=3, seeded=False):
        rng = self.coef if seeded else self.shape
        if F.p is not None and F.p <= 2 * bound + 1:
            return rng.randrange(1, F.p)
        return rng.choice([v for v in range(-bound, bound + 1) if v])

    def scale(self, F):
        """A seeded nonzero scalar: any unit of F_p, or +-1..+-5 over Q."""
        if F.p is not None:
            return self.coef.randrange(1, F.p)
        return self.coef.choice([v for v in range(-5, 6) if v])


def rand_poly(d, F, nvars, max_deg, max_terms, min_terms=1, seeded=False):
    """Random sparse polynomial with its support from d.shape; fixed base
    coefficients times a seeded scale, or (seeded=True) seeded coefficients."""
    support = set()
    for _ in range(d.shape.randint(min_terms, max_terms)):
        exps = [0] * nvars
        for _ in range(d.shape.randint(0, max_deg)):
            exps[d.shape.randrange(nvars)] += 1
        support.add(tuple(exps))
    f = {e: F.norm(d.coeff(F, seeded=seeded)) for e in sorted(support)}
    return f if seeded else pscale(F, f, d.scale(F))


def nonconstant(d, F, nvars, max_deg, max_terms, **kw):
    while True:
        f = rand_poly(d, F, nvars, max_deg, max_terms, **kw)
        if pdeg(f) >= 1:
            return f


def independent(d, F, n, r, draw):
    """r polynomials from draw() whose Jacobian has rank r at random points,
    so that the construction's trdeg r holds; a degenerate support is drawn
    again from the slot's shape stream."""
    while True:
        fs = [draw() for _ in range(r)]
        if generic_rank(F, fs, n, random.Random(d.shape.random())) == r:
            return fs


def outer_dag(F, outer, m):
    """pitkit's dag node list for the polynomial `outer` in y1..ym: one mul
    node per term, all summed."""
    nodes = [{"op": "input", "var": i} for i in range(m)]
    terms = []
    for e in sorted(outer, key=lambda e: (sum(e), e), reverse=True):
        c = outer[e]
        if F.p is not None and c > F.p // 2:
            c -= F.p
        c = Fraction(c)
        nodes.append({"op": "const", "value": str(c) if F.p is None else int(c)})
        kids = [len(nodes) - 1]
        for i, k in enumerate(e):
            kids.extend([i] * k)
        nodes.append({"op": "mul", "args": kids})
        terms.append(len(nodes) - 1)
    nodes.append({"op": "add", "args": terms})
    return {"nvars": m, "nodes": nodes, "output": len(nodes) - 1}


def depth4_file(F, nvars, delta, rows):
    return {
        "kind": "depth4",
        "field": F.to_json(),
        "nvars": nvars,
        "delta": delta,
        "rows": [[ptext(F, f) for f in row] for row in rows],
    }


def composed_file(F, nvars, inners, outer):
    return {
        "kind": "composed",
        "field": F.to_json(),
        "nvars": nvars,
        "inputs": [ptext(F, f) for f in inners],
        "outer": outer_dag(F, outer, len(inners)),
    }


def family_file(F, nvars, polys):
    return {"field": F.to_json(), "nvars": nvars, "polys": [ptext(F, f) for f in polys]}


def var(F, nvars, i, c=1):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): F.norm(c)}


def const(F, nvars, c):
    return {(0,) * nvars: F.norm(c)} if F.norm(c) else {}


# -- depth4-pit ----------------------------------------------------------------


def _rand_depth4(d, F):
    n = 3
    rows = [[rand_poly(d, F, n, 2, 3) for _ in range(2)] for _ in range(2)]
    return n, 2, rows, {}


def _gcd_depth4(d, F, k):
    n = d.shape.randint(2, 3)
    g = nonconstant(d, F, n, d.shape.randint(1, 2), 2)
    rows = [[g] + [rand_poly(d, F, n, 2, 2) for _ in range(2)] for _ in range(k)]
    return n, max(pdeg(f) for row in rows for f in row), rows, {}


def _cancelling_depth4(d, F):
    n = 4
    row = [rand_poly(d, F, n, 2, 3) for _ in range(3)]
    neg = [pscale(F, row[0], -1)] + row[1:]
    return n, 2, [row, neg], {"zero": True}


def _lifted_identity(d, F, t=2):
    """a*x1 + b*x2 - (a*x1 + b*x2) with x_i replaced by a product of t fresh
    variables: zero by construction."""
    a, b = d.scale(F), d.scale(F)
    n = 2 * t

    def block(i, c):
        e = [0] * n
        for u in range(t):
            e[i * t + u] = 1
        return {tuple(e): F.norm(c)}

    rows = [[block(0, a)], [block(1, b)], [padd(F, block(0, -a), block(1, -b))]]
    return n, t, rows, {"zero": True}


# The mix follows the depth-4 part of pitkit's acceptance tests AC4 and AC5
# (100 random, 35 gcd k=2, 15 gcd k=3, 8 cancelling, 2 lifted), scaled to
# 100 instances and split evenly between the two fields.  The random
# circuits are smaller than AC4's (n=3, s=2 instead of n=4, s=3): at AC4's
# size a single one takes up to 5 s, and a round would outlast a run.
DEPTH4_SLOTS = (
    # (name, generator, extra pit flags, count per field)
    ("rand", _rand_depth4, (), 31),
    ("gcd2", lambda d, F: _gcd_depth4(d, F, 2), (), 11),
    ("gcd3", lambda d, F: _gcd_depth4(d, F, 3), ("--R", "3"), 5),
    ("cancel", _cancelling_depth4, (), 2),
    ("lifted", _lifted_identity, ("--R", "3"), 1),
)


def depth4_pit(seed, scale=1.0):
    out = []
    for F in (Q, FBIG):
        for name, build, flags, count in DEPTH4_SLOTS:
            for j in range(max(1, round(count * scale))):
                iid = "d4-%s-%s-%d" % (name, F.name, j)
                n, delta, rows, meta = build(Draw(iid, seed), F)
                out.append(
                    {
                        "id": iid,
                        "files": {iid + ".json": depth4_file(F, n, delta, rows)},
                        "calls": [["pit", iid + ".json", *flags]],
                        "meta": dict(meta, kind="depth4", field=F.p, nvars=n, delta=delta,
                                     rows=rows),
                    }
                )
    return out


# -- sparse-pit ----------------------------------------------------------------


def _sparse_shape(d):
    n = d.shape.randint(2, 5)
    return n, d.shape.randint(1, min(3, n))


def _sparse_inners(d, F, n, r, delta):
    """r independent sparse polynomials of degree <= delta in n variables."""
    return independent(d, F, n, r, lambda: nonconstant(d, F, n, delta, 3, min_terms=2))


def _sparse_zero(d, F):
    """Annihilating outer on a dependent extension of the base family."""
    n, r = _sparse_shape(d)
    base = _sparse_inners(d, F, n, r, d.shape.randint(1, 2))
    y = [var(F, r + 1, i) for i in range(r + 1)]
    if r == 1 or d.shape.randint(0, 1):
        extra = pmul(F, base[0], base[0] if r == 1 else base[1])
        ann = padd(F, y[r], pmul(F, y[0], y[0] if r == 1 else y[1]), -1)
    else:
        extra = padd(F, base[0], base[1])
        ann = padd(F, y[r], padd(F, y[0], y[1]), -1)
    # multiplying the annihilator by a linear form keeps the composition zero
    mult = padd(F, var(F, r + 1, d.shape.randrange(r + 1), d.coeff(F, seeded=True)),
                const(F, r + 1, d.coeff(F, seeded=True)))
    return n, base + [extra], pmul(F, ann, mult), True


def _sparse_rand(d, F):
    n, r = _sparse_shape(d)
    inners = _sparse_inners(d, F, n, r, d.shape.randint(1, 3))
    return n, inners, nonconstant(d, F, r, 2, 4, seeded=True), None


SPARSE_SLOTS = (("zero", _sparse_zero, 17), ("rand", _sparse_rand, 34))


def sparse_pit(seed, scale=1.0):
    out = []
    for F in (Q, FBIG):
        for name, build, count in SPARSE_SLOTS:
            for j in range(max(1, round(count * scale))):
                iid = "sp-%s-%s-%d" % (name, F.name, j)
                n, inners, outer, zero = build(Draw(iid, seed), F)
                meta = {"kind": "composed", "field": F.p, "nvars": n, "inners": inners,
                        "outer": outer}
                if zero:
                    meta["zero"] = True
                out.append(
                    {
                        "id": iid,
                        "files": {iid + ".json": composed_file(F, n, inners, outer)},
                        "calls": [["pit", iid + ".json"]],
                        "meta": meta,
                    }
                )
    return out


# -- certify-verify ------------------------------------------------------------


def _family(d, F, n, r, m, delta):
    """m polynomials of trdeg at most r: r base polynomials plus products
    and sums of them."""
    base = independent(d, F, n, r, lambda: nonconstant(d, F, n, delta, 3))
    fs = list(base)
    while len(fs) < m:
        a, b = d.shape.sample(range(r), 2) if r >= 2 else (0, 0)
        if r < 2 or d.shape.randint(0, 1):
            fs.append(pmul(F, base[a], base[b]))
        else:
            fs.append(padd(F, base[a], base[b]))
    return fs


def _triangular_family(d, F):
    """(x1 + a, x2 + b*x1^2 + c) in three variables has trdeg 2 in every
    characteristic: its Jacobian has a unit diagonal.  A third member
    depends on the first two.  With trdeg below min(m, n) and degree 2 the
    Jacobian gate fails over F_2 and F_3, so trdeg falls back to the
    annihilator search there."""
    n = 3
    f = padd(F, var(F, n, 0), const(F, n, d.shape.randint(0, 1) * d.coeff(F)))
    g = padd(F, var(F, n, 1), {(2, 0, 0): F.norm(d.coeff(F))})
    g = padd(F, g, const(F, n, d.shape.randint(0, 1) * d.coeff(F)))
    f, g = pscale(F, f, d.scale(F)), pscale(F, g, d.scale(F))
    extra = pmul(F, f, g) if d.shape.randint(0, 1) else padd(F, f, g)
    return n, [f, g, extra], 2


CERT_FIELDS = (Field(2), Field(3), Field(101), Q, FBIG)


def certify_verify(seed, scale=1.0):
    """Per field and slot: trdeg, annihilator, faithful phi and (where the
    Vandermonde map applies) psi on one family, and depth4 on one circuit
    over the larger fields; every report is then verified."""
    out = []
    for F in CERT_FIELDS:
        for j in range(max(1, round(6 * scale))):
            tag = "%s-%d" % (F.name, j)
            d = Draw("cv-" + tag, seed)
            if F.p is not None and F.p < 100:
                n, fs, r = _triangular_family(d, F)
            else:
                n = d.shape.randint(2, 4)
                r = d.shape.randint(1, min(3, n))
                fs = _family(d, F, n, r, r + 1, 2)
            fam = "cv-fam-%s.json" % tag
            # cap 2 admits the designed relation; cap 1 admits it only when
            # the dependent member is a sum, so odd slots mostly find none
            cap = 2 if j % 2 == 0 else 1
            calls = {
                "trdeg": ["trdeg", fam],
                "annihilator": ["annihilator", fam, "--cap", str(cap)],
                "phi": ["faithful", fam, "--kind", "phi"],
            }
            if F.p is None or F.p == BIG_PRIME:
                calls["psi"] = ["faithful", fam, "--kind", "psi"]
            meta = {"kind": "family", "field": F.p, "nvars": n, "polys": fs, "r": r, "cap": cap}
            for cmd, argv in calls.items():
                rep = "cv-%s-%s.out.json" % (cmd, tag)
                out.append({
                    "id": "cv-%s-%s" % (cmd, tag),
                    "files": {fam: family_file(F, n, fs)},
                    "calls": [argv, ["verify", rep, "--against", fam]],
                    "meta": dict(meta, command=cmd, report=rep),
                })
            if F.p is None or F.p > 100:
                n4, delta, rows, _ = _gcd_depth4(d, F, 2)
                circ = "cv-d4-%s.json" % tag
                rep = "cv-depth4-%s.out.json" % tag
                out.append({
                    "id": "cv-depth4-%s" % tag,
                    "files": {circ: depth4_file(F, n4, delta, rows)},
                    "calls": [["depth4", circ], ["verify", rep, "--against", circ]],
                    "meta": {"kind": "depth4", "field": F.p, "nvars": n4, "delta": delta,
                             "rows": rows, "command": "depth4", "report": rep},
                })
    return out


WORKLOADS = {
    "depth4-pit": depth4_pit,
    "sparse-pit": sparse_pit,
    "certify-verify": certify_verify,
}


def write(instances, directory):
    os.makedirs(directory, exist_ok=True)
    for inst in instances:
        for name, obj in inst["files"].items():
            with open(os.path.join(directory, name), "w") as fh:
                json.dump(obj, fh, sort_keys=True)
