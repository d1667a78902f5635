"""Checks of pitkit's reports against the reference and the benchmark's own
arithmetic.  check() returns a list of problems; an empty list means the
instance's outputs are correct."""

from __future__ import annotations

import itertools
import json
import random

import reference
from refalg import Field, jacobian_rank_at, padd, parse, peval, pmul, psubst


def circuit_value(meta, pt):
    """The instance's circuit at pt, by the benchmark's arithmetic."""
    F = Field(meta["field"])
    if meta["kind"] == "depth4":
        acc = 0
        for row in meta["rows"]:
            t = F.norm(1)
            for f in row:
                t = F.norm(t * peval(F, f, pt))
            acc += t
        return F.norm(acc)
    return peval(F, meta["outer"], [peval(F, f, pt) for f in meta["inners"]])


def sum_of_products(F, rows, n):
    total = {}
    for row in rows:
        t = {(0,) * n: F.norm(1)}
        for f in row:
            t = pmul(F, t, f)
        total = padd(F, total, t)
    return total


def check_pit(inst, report, ref):
    meta = inst["meta"]
    F = Field(meta["field"])
    v = report["verdict"]
    if v["outcome"] == "zero":
        return [] if ref["zero"] else ["verdict zero on a nonzero circuit"]
    if v["outcome"] != "nonzero":
        return ["verdict %r" % v["outcome"]]
    pt = [F.scalar(x) for x in v["witness"]]
    if len(pt) != meta["nvars"]:
        return ["witness has %d coordinates" % len(pt)]
    val = circuit_value(meta, pt)
    if not val:
        return ["witness evaluates to 0"]
    if val != F.scalar(v["value"]):
        return ["witness value differs from the circuit's value"]
    if ref["zero"]:
        return ["verdict nonzero on a circuit that sympy expands to 0"]
    return []


def map_images(F, m):
    """Images of x_1..x_n under a reported map, from its own parameters:
    phi keeps x_i (i in I) as z's and sends the j-th dropped variable to
    c^(D^j mod p); psi sends x_i to c^(D1^i mod p) + c^(D2^i mod p) z_0 +
    sum_j c^(i (n+1)^j mod p) z_j."""
    n, r, p = m["n"], m["r"], m["p"]
    c = F.scalar(m["c"])
    cp = lambda e: F.norm(c ** e) if F.p is None else pow(c, e, F.p)
    if m["kind"] == "phi":
        kept = list(m["I"])
        w, out, j = r, [], 0
        for i in range(1, n + 1):
            if i in kept:
                e = [0] * w
                e[kept.index(i)] = 1
                out.append({tuple(e): F.norm(1)})
            else:
                j += 1
                out.append({(0,) * w: cp(pow(m["D"], j, p))})
        return w, out
    w, out = r + 1, []
    for i in range(1, n + 1):
        img = {(0,) * w: cp(pow(m["D1"], i, p))}
        coefs = [cp(pow(m["D2"], i, p))] + [cp(i * pow(n + 1, j, p) % p) for j in range(1, r + 1)]
        for t, a in enumerate(coefs):
            e = [0] * w
            e[t] = 1
            img = padd(F, img, {tuple(e): a})
        out.append(img)
    return w, out


def image_rank(F, fs, images, w):
    """Max evaluated Jacobian rank of fs(images): all points of a small
    field, else random points."""
    imgs = [psubst(F, f, images, w) for f in fs]
    if F.p is not None and F.p ** w <= 256:
        pts = itertools.product(range(F.p), repeat=w)
    else:
        rng = random.Random("image-rank")
        pts = (F.rand_point(rng, w) for _ in range(4))
    return max(jacobian_rank_at(F, imgs, w, pt) for pt in pts)


def check_faithful(inst, report, ref):
    meta = inst["meta"]
    F = Field(meta["field"])
    res = report["result"]
    m = res["map"]
    r = ref["r"]
    probs = []
    if m["n"] != meta["nvars"] or Field(m["field"].get("p")) != F:
        return ["map ring does not match the family"]
    if res["input_certificate"]["r"] != r or res["image_certificate"]["r"] != r:
        probs.append("certificates claim r=%s/%s, expected %d" % (
            res["input_certificate"]["r"], res["image_certificate"]["r"], r))
    w, images = map_images(F, m)
    got = image_rank(F, meta["polys"], images, w)
    if got != r:
        probs.append("images have Jacobian rank %d, expected %d" % (got, r))
    return probs


def check_trdeg(inst, report, ref):
    r = inst["meta"]["r"]
    if ref["r"] != r:
        return ["the Jacobian rank %d does not confirm the construction's r=%d" % (ref["r"], r)]
    return [] if report["r"] == r else ["trdeg r=%s, expected %d" % (report["r"], r)]


def check_annihilator(inst, report, ref):
    meta = inst["meta"]
    F = Field(meta["field"])
    if not report["found"]:
        return ["no annihilator reported, but one exists"] if ref["annihilator_exists"] else []
    ann = parse(F, report["annihilator"], len(meta["polys"]))
    if not ann:
        return ["annihilator is zero"]
    if max(sum(e) for e in ann) > meta["cap"]:
        return ["annihilator exceeds the cap"]
    if not reference.vanishes(F, ann, meta["polys"], meta["nvars"]):
        return ["annihilator does not vanish on the family"]
    return []


def check_depth4(inst, report, ref):
    meta = inst["meta"]
    F = Field(meta["field"])
    n = meta["nvars"]
    g = parse(F, report["gcd"], n)
    expect = {tuple(e): F.norm(reference.sympy_fraction(c)) if F.p is None else int(c)
              for e, c in ref["gcd"]}
    if reference.monic(F, g) != reference.monic(F, expect):
        return ["gcd part differs from sympy's gcd"]
    simple = [[parse(F, f, n) for f in row] for row in report["simple"]]
    if pmul(F, g, sum_of_products(F, simple, n)) != sum_of_products(F, meta["rows"], n):
        return ["g * sum(simple rows) differs from sum(rows)"]
    return []


def check(inst, outs, ref):
    """Problems with one instance's outputs [(exit code, stdout), ...]."""
    try:
        report = json.loads(outs[0][1])
    except ValueError:
        return ["report is not JSON"]
    cmd = inst["calls"][0][0]
    if cmd == "pit":
        probs = check_pit(inst, report, ref)
        want = 0 if report["verdict"]["outcome"] == "zero" else 1
    else:
        want = 0
        if cmd == "trdeg":
            probs = check_trdeg(inst, report, ref)
        elif cmd == "annihilator":
            probs = check_annihilator(inst, report, ref)
        elif cmd == "faithful":
            probs = check_faithful(inst, report, ref)
        elif cmd == "depth4":
            probs = check_depth4(inst, report, ref)
        else:
            probs = ["unknown command %s" % cmd]
    if outs[0][0] != want:
        probs.append("exit code %s, expected %d" % (outs[0][0], want))
    for rc, out in outs[1:]:
        ver = json.loads(out)
        if rc != 0 or ver.get("verified") is not True:
            probs.append("verify rejected the report: %s" % ver.get("detail"))
    return probs
