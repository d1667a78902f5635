"""Self-test of the benchmark; takes well under a minute.

    python3 pitbench/selftest.py

Run from the root of a pitkit checkout.  It runs every workload end to end on
a tiny corpus, confirms that the checker rejects corrupted reports (a
flipped verdict, a witness that evaluates to 0, a map whose images drop
rank, a wrong r), that it accepts a depth-4 gcd that pitkit and sympy scale
differently, and that run.py refuses to run without pitkit's sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from refalg import Field  # noqa: E402

TINY = 0.05


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print("ok  %s" % what)


def rejects(inst, outs, ref, fragment, what):
    probs = check.check(inst, outs, ref)
    expect(any(fragment in p for p in probs), "%s is rejected (%s)" % (what, probs))


def reports(cli, insts, wanted):
    """Run the first instance matching each predicate, plus `verify` of its
    report if it is a pit call; {name: (inst, outs)}."""
    directory = os.path.abspath(os.path.join(run.WORK, "selftest"))
    corpus.write(insts, directory)
    home = os.getcwd()
    os.chdir(directory)
    try:
        out = {}
        for name, pred in wanted.items():
            for inst in insts:
                if pred(inst):
                    _, outs = run.run_instance(cli, inst)
                    if name.startswith("nonzero") and outs[0][0] != 1:
                        continue
                    if inst["calls"][0][0] == "pit":
                        outs.append(run.verify_report(cli, inst, outs[0][1]))
                    out[name] = (inst, outs)
                    break
        return out
    finally:
        os.chdir(home)
        shutil.rmtree(directory, ignore_errors=True)


def corrupted_reports(cli):
    d4 = corpus.depth4_pit(1, TINY)
    cv = corpus.certify_verify(1, TINY)
    got = reports(cli, d4, {"nonzero": lambda i: i["id"].startswith("d4-rand"),
                            "zero": lambda i: i["id"].startswith("d4-cancel")})
    got.update(reports(cli, cv, {
        "psi": lambda i: i["meta"].get("command") == "psi" and i["meta"]["r"] >= 2,
        "trdeg": lambda i: i["meta"].get("command") == "trdeg",
    }))

    inst, outs = got["nonzero"]
    ref = reference.expected(inst)
    expect(not check.check(inst, outs, ref), "the genuine nonzero pit report passes")
    rep = json.loads(outs[0][1])
    flipped = copy.deepcopy(rep)
    flipped["verdict"].update(outcome="zero", witness=None, value=None)
    rejects(inst, [(0, json.dumps(flipped))], ref, "verdict zero on a nonzero", "a flipped verdict")

    inst, outs = got["zero"]
    ref = reference.expected(inst)
    expect(not check.check(inst, outs, ref), "the genuine zero pit report passes")
    rep = json.loads(outs[0][1])
    F = Field(inst["meta"]["field"])
    one = 1 if F.p else "1"
    rep["verdict"].update(outcome="nonzero", witness=[one] * inst["meta"]["nvars"], value=one)
    rejects(inst, [(1, json.dumps(rep))], ref, "witness evaluates to 0",
            "a witness that evaluates to 0")

    inst, outs = got["psi"]
    ref = reference.expected(inst)
    expect(not check.check(inst, outs, ref), "the genuine faithful psi report passes")
    rep = json.loads(outs[0][1])
    # c = 1 sends every x_i to the same affine form, so the images have rank <= 1
    F = Field(inst["meta"]["field"])
    rep["result"]["map"]["c"] = 1 if F.p else "1"
    rejects(inst, [(0, json.dumps(rep))] + outs[1:], ref, "images have Jacobian rank",
            "a map whose images drop rank")

    inst, outs = got["trdeg"]
    ref = reference.expected(inst)
    expect(not check.check(inst, outs, ref), "the genuine trdeg report passes")
    rep = json.loads(outs[0][1])
    rep["r"] += 1
    rejects(inst, [(0, json.dumps(rep))] + outs[1:], ref, "trdeg r=", "a wrong r")


def gcd_up_to_a_unit(cli):
    """pitkit makes the gcd part monic in graded-lex order, sympy's gcd is
    monic in lex order: for g = x1 + 2*x2^2 pitkit prints x2^2 + 1/2*x1 and
    sympy gives x1 + 2*x2^2.  The checker must accept both as the same gcd."""
    for F in (corpus.Q, corpus.FBIG):
        n = 2
        g = {(1, 0): F.norm(1), (0, 2): F.norm(2)}
        rows = [[g, {(1, 0): F.norm(1), (0, 0): F.norm(1)}], [g, {(0, 1): F.norm(3)}]]
        iid = "selftest-gcd-%s" % F.name
        circ, rep = iid + ".json", iid + ".out.json"
        inst = {
            "id": iid,
            "files": {circ: corpus.depth4_file(F, n, 3, rows)},
            "calls": [["depth4", circ], ["verify", rep, "--against", circ]],
            "meta": {"kind": "depth4", "field": F.p, "nvars": n, "delta": 3, "rows": rows,
                     "command": "depth4", "report": rep},
        }
        inst, outs = reports(cli, [inst], {"gcd": lambda i: True})["gcd"]
        probs = check.check(inst, outs, reference.expected(inst))
        expect(not probs, "the gcd x1 + 2*x2^2 over %s passes (%s)" % (F.name, probs))


def counts_failures():
    """A call that ends without a verdict is a failed operation."""
    pit = {"calls": [["pit", "c.json"]]}
    cert = {"calls": [["trdeg", "f.json"], ["verify", "r.json", "--against", "f.json"]]}
    expect(run.completed(pit, [(1, "{}")]) and run.completed(cert, [(0, "{}"), (4, "{}")]),
           "verdicts, and a verify that rejects with a report, count as completed")
    expect(not run.completed(pit, [(2, "{}")]), "an inconclusive pit counts as failed")
    expect(not run.completed(cert, [(4, ""), (0, "{}")]),
           "an error exit without a report counts as failed")


def refuses_without_sources():
    bare = os.path.abspath(os.path.join(run.WORK, "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "pitbench"))
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "pitbench", name))
    proc = subprocess.run(
        [sys.executable, "pitbench/run.py", "--workload", "sparse-pit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py exits %d without a result when src/ is missing" % proc.returncode)


def main():
    for workload in corpus.WORKLOADS:
        result, detail = run.run(workload, 1, 0, 0, scale=TINY)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               "%s runs end to end on %d instances" % (workload, detail["instances"]))
    cli = run.import_pitkit()
    corrupted_reports(cli)
    gcd_up_to_a_unit(cli)
    counts_failures()
    refuses_without_sources()
    # tracing wraps pitkit for the rest of the process, so it goes last
    result, _ = run.run("depth4-pit", 1, 0, 1, scale=TINY)
    m = result["metrics"]
    expect(result["correct"] and m["depth4.candidates_tried"]["value"] > 0
           and m["polynomials.gcd_poly.calls"]["value"] > 0, "the traced run counts layers")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
