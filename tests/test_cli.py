import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import pitkit
from pitkit.circuits import Circuit, ComposedCircuit, Depth4Circuit
from pitkit.cli import main
from pitkit.fields import FieldSpec
from pitkit.polynomials import SparsePoly, poly_from_text
from pitkit.varmaps import schedule

from _gen import RATIONAL, cancelling_depth4

Q = RATIONAL
F101 = FieldSpec("prime", 101)
F2 = FieldSpec("prime", 2)

TIGHT_FAMILY = {
    "field": {"kind": "rational"},
    "nvars": 2,
    "polys": ["x1", "x2 - x1^2", "x2^2"],
}
PAIR_FAMILY = {"field": {"kind": "rational"}, "nvars": 1, "polys": ["x1", "x1^2"]}


def P(text, nvars, field=Q):
    return poly_from_text(text, field, nvars)


def zero_composition():
    f = P("x1^2 + 2*x1", 1)
    return ComposedCircuit(Circuit.from_poly(P("x2 - x1^2", 2)), [f, f * f])


def shared_factor_depth4():
    rows = [[P("x1", 3), P("x2", 3)], [P("x1", 3), P("x3", 3)]]
    return Depth4Circuit(Q, 3, 1, rows)


def dump(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pit_zero_composition(tmp_path, capsys):
    path = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    code, out, _ = run(capsys, ["pit", path])
    report = json.loads(out)
    assert code == 0
    assert report["command"] == "pit"
    assert report["circuit_kind"] == "composed"
    assert report["verdict"]["outcome"] == "zero"
    assert report["config"]["mode"] == "adaptive"


def test_pit_nonzero_dag(tmp_path, capsys):
    dag = Circuit.from_poly(P("x1^2 - x2", 2, F101))
    path = dump(tmp_path, "dag.json", dag.to_json_dict())
    code, out, _ = run(capsys, ["pit", path])
    report = json.loads(out)
    assert code == 1
    assert report["circuit_kind"] == "dag"
    assert report["verdict"]["outcome"] == "nonzero"
    assert report["verdict"]["witness"] == [0, 1]
    assert report["verdict"]["points_checked"] == 2


def test_pit_budget_exit_code(tmp_path, capsys):
    path = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    code, out, _ = run(capsys, ["pit", path, "--max-points", "1"])
    assert code == 2
    assert json.loads(out)["verdict"]["outcome"] == "inconclusive"


def test_pit_constant_composition(tmp_path, capsys):
    outer = Circuit.from_poly(P("x1 + x2", 2))
    two = SparsePoly.constant(Q, 1, Q.from_int(2))
    minus_two = SparsePoly.constant(Q, 1, Q.from_int(-2))
    zpath = dump(tmp_path, "cz.json", ComposedCircuit(outer, [two, minus_two]).to_json_dict())
    code, out, _ = run(capsys, ["pit", zpath])
    report = json.loads(out)
    assert code == 0
    assert report["verdict"]["provenance"] == {"construction": "constant-composition"}
    npath = dump(tmp_path, "cn.json", ComposedCircuit(outer, [two, two]).to_json_dict())
    code, out, _ = run(capsys, ["pit", npath])
    assert code == 1
    assert json.loads(out)["verdict"]["value"] == "4"


def test_pit_depth4_circuit(tmp_path, capsys):
    C = cancelling_depth4(4)
    path = dump(tmp_path, "cancel.json", C.to_json_dict())
    code, out, _ = run(capsys, ["pit", path])
    assert code == 0
    assert json.loads(out)["circuit_kind"] == "depth4"


@pytest.mark.parametrize("mode", ["adaptive", "exact"])
def test_pit_one_row_depth4_walks_its_own_simplex(tmp_path, capsys, mode):
    # no depth-4 family has k = 1; this circuit once exited 4 ("bad depth4 sizes")
    circ = {"kind": "depth4", "field": {"kind": "rational"}, "nvars": 2, "delta": 1,
            "rows": [["x1", "x2"]]}
    path = dump(tmp_path, "row.json", circ)
    code, out, _ = run(capsys, ["pit", path, "--mode", mode])
    verdict = json.loads(out)["verdict"]
    assert code == 1 and verdict["outcome"] == "nonzero"
    assert verdict["guarantee"] == "certified"
    assert verdict["provenance"] == {"construction": "depth4", "mode": mode, "map": "identity",
                                     "w": 2, "grid_truncated": False, "points": "simplex"}
    report = dump(tmp_path, "report.json", out)
    assert run(capsys, ["verify", report, "--against", path])[0] == 0


def test_trdeg_report(tmp_path, capsys):
    path = dump(tmp_path, "tight.json", TIGHT_FAMILY)
    code, out, _ = run(capsys, ["trdeg", path])
    report = json.loads(out)
    assert code == 0
    assert report["r"] == 2
    assert report["exact"] is True
    assert set(report["certificate"]) == {"basis", "mode", "r", "witness"}
    assert set(report["config"]) == {"mode", "seed", "budget_columns"}


def test_annihilator_found_and_absent(tmp_path, capsys):
    pair = dump(tmp_path, "pair.json", PAIR_FAMILY)
    code, out, _ = run(capsys, ["annihilator", pair, "--cap", "2"])
    report = json.loads(out)
    assert code == 0
    assert report["found"] is True
    assert report["annihilator"] == "x1^2 - x2"
    assert report["m"] == 2
    tight = dump(tmp_path, "tight.json", TIGHT_FAMILY)
    code, out, _ = run(capsys, ["annihilator", tight, "--cap", "3"])
    report = json.loads(out)
    assert report["found"] is False
    assert report["annihilator"] is None


def test_depth4_report(tmp_path, capsys):
    path = dump(tmp_path, "d4.json", shared_factor_depth4().to_json_dict())
    code, out, _ = run(capsys, ["depth4", path])
    report = json.loads(out)
    assert code == 0
    assert report["gcd"] == "x1"
    assert report["simple"] == [["x2"], ["x3"]]
    assert report["rank"] == 3
    assert report["minimal"] is True
    assert (report["delta"], report["k"], report["s"]) == (1, 2, 2)
    code, out, _ = run(capsys, ["depth4", path, "--skip-minimal"])
    assert json.loads(out)["minimal"] is None


def test_depth4_rejects_other_kinds(tmp_path, capsys):
    path = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    code, _, err = run(capsys, ["depth4", path])
    assert code == 3
    assert "depth4" in json.loads(err)["error"]


def test_depth4_report_and_its_verify_share_one_coprime_basis(tmp_path, capsys, monkeypatch):
    from pitkit import depth4
    calls = []
    real = depth4.coprime_basis
    monkeypatch.setattr(depth4, "coprime_basis", lambda C: calls.append(C) or real(C))
    path = dump(tmp_path, "d4.json", shared_factor_depth4().to_json_dict())
    code, out, _ = run(capsys, ["depth4", path])
    assert code == 0 and len(calls) == 1
    report = dump(tmp_path, "report.json", out)
    code, out, _ = run(capsys, ["verify", report, "--against", path])
    assert code == 0 and json.loads(out)["verified"] is True
    assert len(calls) == 2


THREE_ROWS = {"kind": "depth4", "field": {"kind": "rational"}, "nvars": 4, "delta": 1,
              "rows": [["x1", "x2"], ["x2", "x3"], ["x1 + x3", "x4"]]}


@pytest.mark.parametrize("mode", ["adaptive", "exact"])
@pytest.mark.parametrize("R", ["0", "-1"])
def test_pit_depth4_refuses_R_below_one(tmp_path, capsys, mode, R):
    # R bounds the rank only for k >= 3; it once leaked "math domain error"
    # (R = 0) and a ceil_log2 error (R = -1)
    path = dump(tmp_path, "k3.json", THREE_ROWS)
    code, out, err = run(capsys, ["pit", path, "--R", R, "--mode", mode, "--max-points", "5"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "bad depth4 sizes"


def test_pit_depth4_with_two_rows_ignores_R(tmp_path, capsys):
    path = dump(tmp_path, "k2.json", dict(THREE_ROWS, rows=THREE_ROWS["rows"][:2]))
    code, out, _ = run(capsys, ["pit", path])
    for R in ("0", "-1"):
        code_R, out_R, _ = run(capsys, ["pit", path, "--R", R])
        assert code_R == code == 1
        assert json.loads(out_R)["verdict"] == json.loads(out)["verdict"]


@pytest.mark.parametrize("R", ["0", "-1"])
def test_hitting_set_depth4_refuses_R_below_one(capsys, R):
    code, out, err = run(capsys, ["hitting-set", "--kind", "depth4", "--n", "3", "--delta", "1",
                                  "--k", "3", "--s", "2", "--R", R, "--max-points", "2"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "bad depth4 sizes"


def test_faithful_report(tmp_path, capsys):
    pair = dump(tmp_path, "pair.json", PAIR_FAMILY)
    code, out, _ = run(capsys, ["faithful", pair, "--kind", "phi"])
    report = json.loads(out)
    assert code == 0
    result = report["result"]
    assert set(result) == {"map", "input_certificate", "image_certificate", "candidates_tried"}
    assert result["map"]["kind"] == "phi"
    assert result["map"]["I"] == [1]
    assert result["map"]["D"] == 5
    assert result["map"]["p"] == 2


def test_verify_accepts_own_reports(tmp_path, capsys):
    tight = dump(tmp_path, "tight.json", TIGHT_FAMILY)
    pair = dump(tmp_path, "pair.json", PAIR_FAMILY)
    d4 = dump(tmp_path, "d4.json", shared_factor_depth4().to_json_dict())
    dag = dump(tmp_path, "dag.json", Circuit.from_poly(P("x1^2 - x2", 2, F101)).to_json_dict())
    zero = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    cases = [
        (["trdeg", tight], tight),
        (["annihilator", pair, "--cap", "2"], pair),
        (["annihilator", tight, "--cap", "3"], tight),
        (["faithful", tight, "--kind", "psi"], tight),
        (["depth4", d4], d4),
        (["pit", dag], dag),
        (["pit", zero], zero),
    ]
    for i, (argv, against) in enumerate(cases):
        code, out, _ = run(capsys, argv)
        report = dump(tmp_path, "report%d.json" % i, out)
        code, out, _ = run(capsys, ["verify", report, "--against", against])
        verdict = json.loads(out)
        assert code == 0, argv
        assert verdict["verified"] is True, (argv, verdict)


def test_verify_rejects_faithful_map_of_another_ring(tmp_path, capsys):
    three = dump(tmp_path, "three.json",
                 {"field": {"kind": "rational"}, "nvars": 3, "polys": ["x1*x2", "x2 + x3"]})
    code, out, _ = run(capsys, ["faithful", three, "--kind", "psi"])
    assert code == 0
    report = dump(tmp_path, "report.json", out)
    others = [
        {"field": {"kind": "rational"}, "nvars": 2, "polys": ["x1*x2", "x2"]},
        {"field": {"kind": "prime", "p": 101}, "nvars": 3, "polys": ["x1*x2", "x2 + x3"]},
    ]
    for i, family in enumerate(others):
        other = dump(tmp_path, "other%d.json" % i, family)
        code, out, err = run(capsys, ["verify", report, "--against", other])
        assert code == 4, err
        verdict = json.loads(out)
        assert verdict["verified"] is False
        assert "not the family's" in verdict["detail"]


def test_verify_rejects_tampered_reports(tmp_path, capsys):
    tight = dump(tmp_path, "tight.json", TIGHT_FAMILY)
    code, out, _ = run(capsys, ["trdeg", tight])
    report = json.loads(out)
    report["r"] = 1
    bad = dump(tmp_path, "bad.json", report)
    code, out, _ = run(capsys, ["verify", bad, "--against", tight])
    assert code == 4
    assert json.loads(out)["verified"] is False

    dag = dump(tmp_path, "dag.json", Circuit.from_poly(P("x1^2 - x2", 2, F101)).to_json_dict())
    code, out, _ = run(capsys, ["pit", dag])
    report = json.loads(out)
    report["verdict"]["value"] = 7
    bad = dump(tmp_path, "badpit.json", report)
    code, out, _ = run(capsys, ["verify", bad, "--against", dag])
    assert code == 4
    assert "witness value" in json.loads(out)["detail"]


def test_verify_rejects_forged_bruteforce_certificate(tmp_path, capsys):
    # {x1, x1^2} has trdeg 1; the forgery claims 2 with the chain caps
    # lowered to 1, below the degree of the annihilator x1^2 - x2
    pair = dump(tmp_path, "pair.json", PAIR_FAMILY)
    code, out, _ = run(capsys, ["trdeg", pair, "--mode", "bruteforce"])
    report = json.loads(out)
    cert = report["certificate"]
    assert code == 0 and cert["r"] == 1
    report["r"] = cert["r"] = 2
    cert["basis"] = [0, 1]
    cert["witness"]["independence_chain"] = [
        {"subset": [0], "cap": 1, "method": "kernel-empty"},
        {"subset": [0, 1], "cap": 1, "method": "kernel-empty"},
    ]
    cert["witness"]["dependent_extensions"] = []
    bad = dump(tmp_path, "bad.json", report)
    code, out, _ = run(capsys, ["verify", bad, "--against", pair])
    assert code == 4
    assert json.loads(out)["verified"] is False


def test_verify_rejects_forged_evaluated_jacobian_certificate(tmp_path, capsys):
    # rank 1 at the point, but the forgery claims r = 0 against a bound of 0
    # that it declares itself
    pair = dump(tmp_path, "pair.json", PAIR_FAMILY)
    code, out, _ = run(capsys, ["trdeg", pair])
    report = json.loads(out)
    report["r"] = 0
    report["certificate"] = {
        "r": 0,
        "mode": "jacobian",
        "basis": [],
        "witness": {
            "method": "evaluated-jacobian-meets-upper-bound",
            "upper_bound": 0,
            "point": ["3"],
        },
    }
    bad = dump(tmp_path, "bad.json", report)
    code, out, _ = run(capsys, ["verify", bad, "--against", pair])
    assert code == 4
    assert json.loads(out)["verified"] is False


def test_pit_over_f2_with_affine_inners_of_trdeg_two(tmp_path, capsys):
    # over F_2 no Vandermonde map keeps trdeg 2, so the driver takes the
    # any-characteristic (Kronecker) set; this input used to run without end
    inners = [P(t, 2, F2) for t in ("x1 + 1", "x1 + x2 + 1", "x2")]
    for outer, code_want, outcome in (("x1 + x2 + x3", 0, "zero"), ("x1 + x2", 1, "nonzero")):
        circ = ComposedCircuit(Circuit.from_poly(P(outer, 3, F2)), inners)
        obj = circ.to_json_dict()
        assert obj["field"] == {"kind": "prime", "p": 2} and obj["nvars"] == 2
        assert obj["kind"] == "composed"
        assert obj["inputs"] == ["x1 + 1", "x1 + x2 + 1", "x2"]
        path = dump(tmp_path, "f2.json", obj)
        code, out, _ = run(capsys, ["pit", path])
        verdict = json.loads(out)["verdict"]
        assert code == code_want and verdict["outcome"] == outcome
        assert verdict["provenance"]["construction"] == "any-char"
        report = dump(tmp_path, "report.json", out)
        code, out, _ = run(capsys, ["verify", report, "--against", path])
        assert code == 0 and json.loads(out)["verified"] is True


def test_pit_depth4_over_f2_of_rank_two_exits_four(tmp_path, capsys):
    # over F_2 the only c is 1, so no depth-4 map keeps a rank of 2; with
    # n = 4 > w = R + 1 = 3 the search runs and refuses instead of walking
    # primes without end.  The time bound is loose on purpose: the failure
    # it guards against is a hang.
    obj = {"kind": "depth4", "field": {"kind": "prime", "p": 2}, "nvars": 4,
           "delta": 1, "rows": [["x1"], ["x2"], ["x1 + x2"]]}
    path = dump(tmp_path, "f2d4.json", obj)
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["pit", path, "--R", "2"])
    assert time.perf_counter() - t0 < 10.0
    assert code == 4 and out == ""
    assert "F_2" in json.loads(err)["error"]
    # with n = 2 no map can reduce: the circuit's own simplex proves
    # x1 + x2 + (x1 + x2) = 0 over F_2, with no search
    path = dump(tmp_path, "f2d4n2.json", dict(obj, nvars=2))
    code, out, _ = run(capsys, ["pit", path, "--R", "2"])
    verdict = json.loads(out)["verdict"]
    assert code == 0 and verdict["outcome"] == "zero"
    assert verdict["guarantee"] == "certified" and verdict["points_checked"] == 3
    assert verdict["provenance"]["map"] == "identity" and verdict["provenance"]["w"] == 3
    report = dump(tmp_path, "report.json", out)
    code, out, _ = run(capsys, ["verify", report, "--against", path])
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("field", [Q, FieldSpec("prime", (1 << 61) - 1)], ids=["Q", "F2^61-1"])
def test_pit_depth4_killed_by_the_first_candidate_is_nonzero(tmp_path, capsys, field):
    # p = 2, c = 1 sends x1 and x2 to the same form, so it maps x1 - x2 to
    # zero; that candidate keeps no simple part and must not certify a zero
    obj = {"kind": "depth4", "field": field.to_json(), "nvars": 2, "delta": 1,
           "rows": [["x1"], ["x2", "-1"]]}
    path = dump(tmp_path, "difference.json", obj)
    code, out, _ = run(capsys, ["pit", path])
    assert code == 1 and json.loads(out)["verdict"]["outcome"] == "nonzero"
    report = dump(tmp_path, "report.json", out)
    code, out, _ = run(capsys, ["verify", report, "--against", path])
    assert code == 0 and json.loads(out)["verified"] is True


# (x1 + 1)(x2 + 1) and x3^2 keep trdeg 2 under no c = 1 Kronecker map; each
# circuit has n = 3 variables, more than the w = 2 of its maps, so a map
# is searched
F2_PAIR = ["x1*x2 + x1 + x2 + 1", "x3^2"]
F2_UNREACHABLE = {
    "composed": ComposedCircuit(Circuit.from_poly(P("x1 + x2", 2, F2)),
                                [P(t, 3, F2) for t in F2_PAIR]).to_json_dict(),
    # c = 1 maps x1 + x2 to 2 (1 + z0 + z1) = 0
    "depth4-killed-factor": {"kind": "depth4", "field": F2.to_json(), "nvars": 3,
                             "delta": 1, "rows": [["x1 + x2"], ["x1"]]},
    # c = 1 maps x1 and x2 to one form: the rows share it, nothing is kept
    "depth4-sum": {"kind": "depth4", "field": F2.to_json(), "nvars": 3,
                   "delta": 1, "rows": [["x1"], ["x2"]]},
}


@pytest.mark.parametrize("name", sorted(F2_UNREACHABLE))
def test_f2_searches_stop_after_p_two(tmp_path, name):
    # over F_2 every prime repeats the maps of p = 2, so a search that finds
    # none there refuses; the failure guarded against is a hang
    calls = [["pit", dump(tmp_path, name + ".json", F2_UNREACHABLE[name])]]
    if name == "composed":
        family = {"field": F2.to_json(), "nvars": 3, "polys": F2_PAIR}
        calls.append(["faithful", dump(tmp_path, "family.json", family), "--kind", "phi"])
    for args in calls:
        proc = _cli_in_subprocess(args)
        assert proc.returncode == 4 and proc.stdout == "", args
        assert "F_2" in json.loads(proc.stderr)["error"], args
    if name != "composed":
        # the same rows in n = 2 = w variables: no search, and the
        # circuit's own simplex finds a witness at (0, 1)
        path = dump(tmp_path, name + "-n2.json", dict(F2_UNREACHABLE[name], nvars=2))
        proc = _pit_in_subprocess(path)
        verdict = json.loads(proc.stdout)["verdict"]
        assert proc.returncode == 1 and verdict["outcome"] == "nonzero"
        assert verdict["witness"] == [0, 1] and verdict["value"] == 1
        assert verdict["guarantee"] == "certified"
        assert verdict["provenance"]["map"] == "identity"
        report = dump(tmp_path, "report.json", proc.stdout)
        proc = _cli_in_subprocess(["verify", report, "--against", path])
        assert proc.returncode == 0 and json.loads(proc.stdout)["verified"] is True


def test_pit_over_f2_on_a_grid_too_small_for_the_degree_is_inconclusive(tmp_path, capsys):
    # x1^2 + x1 vanishes on all of F_2 but is not zero: exhausting the
    # two-value grid proves nothing, as a dag (no degree bound) and as a
    # composed circuit (truncated grid), on its own one-variable grid (w = 2
    # > n = 1, no map) and on the two-variable image grid of a psi map
    # (inner x1 in n = 3 > w variables)
    f = P("x1^2 + x1", 1, F2)
    cases = [
        ("dag", Circuit.from_poly(f), 2, ("degree_bound", None)),
        ("composed", ComposedCircuit(Circuit.from_poly(f), [P("x1", 1, F2)]), 2,
         ("grid_truncated", True)),
        ("composed-map", ComposedCircuit(Circuit.from_poly(f), [P("x1", 3, F2)]), 4,
         ("grid_truncated", True)),
    ]
    for kind, circ, points, (key, value) in cases:
        path = dump(tmp_path, kind + ".json", circ.to_json_dict())
        code, out, _ = run(capsys, ["pit", path])
        verdict = json.loads(out)["verdict"]
        assert code == 2, kind
        assert verdict["outcome"] == "inconclusive", kind
        assert verdict["points_checked"] == points, kind
        assert verdict["provenance"][key] is value, kind
        report = dump(tmp_path, kind + ".out.json", out)
        code, out, _ = run(capsys, ["verify", report, "--against", path])
        assert code == 0 and json.loads(out)["verified"], kind


def test_verify_rejects_zero_reports_with_forged_point_counts(tmp_path, capsys):
    # verify re-runs the enumeration, so neither the full-grid count (9
    # values per axis, 2 axes) nor a "grid" label passes for the simplex
    path = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    code, out, _ = run(capsys, ["pit", path])
    honest = json.loads(out)
    assert code == 0 and honest["verdict"]["provenance"]["points"] == "simplex"
    counted = json.loads(out)
    counted["verdict"]["points_checked"] = 9 ** 2
    labelled = json.loads(out)
    labelled["verdict"]["provenance"]["points"] = "grid"
    for name, report, code_want in [
        ("honest", honest, 0), ("counted", counted, 4), ("labelled", labelled, 4)
    ]:
        report_path = dump(tmp_path, name + ".json", report)
        code, out, _ = run(capsys, ["verify", report_path, "--against", path])
        assert code == code_want, name
        if code_want:
            assert json.loads(out) == {
                "command": "verify", "verified": False, "detail": "re-run verdict differs"
            }, name


# the source directory of the pitkit under test, for child interpreters
SRC = os.path.dirname(os.path.dirname(pitkit.__file__))


def _cli_in_subprocess(args, seconds=30):
    """`python -m pitkit.cli args` running the pitkit under test, with a
    timeout, so that a regression to a hang fails the test instead of
    stalling the suite."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    return subprocess.run(
        [sys.executable, "-m", "pitkit.cli", *args],
        capture_output=True, text=True, timeout=seconds, env=env,
    )


def _pit_in_subprocess(path):
    return _cli_in_subprocess(["pit", path])


@pytest.mark.parametrize("field", [Q, FieldSpec("prime", (1 << 61) - 1)], ids=["Q", "F2^61-1"])
def test_pit_refuses_a_repeated_squaring_dag(tmp_path, field):
    # x1 squared 40 times, 41 nodes of syntactic degree 2^40: over Q its
    # values would have up to 41 * 2^40 bits, and over either field its
    # grid axis would hold 2^40 + 1 values
    nodes = [{"op": "input", "var": 0}]
    while len(nodes) < 41:
        nodes.append({"op": "mul", "args": [len(nodes) - 1, len(nodes) - 1]})
    obj = {"kind": "dag", "field": field.to_json(), "nvars": 1, "nodes": nodes,
           "output": 40}
    proc = _pit_in_subprocess(dump(tmp_path, "squaring.json", obj))
    assert proc.returncode == 4 and proc.stdout == ""
    assert "exceed" in json.loads(proc.stderr)["error"]


def test_pit_refuses_a_depth4_file_of_huge_delta(tmp_path):
    # the depth-4 schedule's p bound has about 3 * 10^12 bits here;
    # it is refused by its logarithm before any power is built
    obj = {"kind": "depth4", "field": {"kind": "rational"}, "nvars": 2,
           "delta": 100000, "rows": [["x1", "x2"], ["x1 + 1", "x2"]]}
    proc = _pit_in_subprocess(dump(tmp_path, "huge_delta.json", obj))
    assert proc.returncode == 4 and proc.stdout == ""
    assert "schedule size" in json.loads(proc.stderr)["error"]


def test_pit_refuses_a_composed_circuit_of_huge_degree_before_the_search(tmp_path):
    # the grid axis for degree 10^8 is refused before the Vandermonde search,
    # which evaluates the inputs' Jacobian at that degree and ran past 20 s
    obj = {"kind": "composed", "field": {"kind": "rational"}, "nvars": 2,
           "inputs": ["x1^100000000 + x2", "x2"],
           "outer": {"nodes": [{"op": "input", "var": 0}, {"op": "input", "var": 1},
                               {"op": "add", "args": [0, 1]}], "output": 2}}
    proc = _pit_in_subprocess(dump(tmp_path, "huge_degree.json", obj))
    assert proc.returncode == 4 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "a grid axis exceeds the limit of 1048576 values"


def test_faithful_psi_refuses_a_family_of_huge_degree_before_the_search(tmp_path):
    # over Q the Vandermonde search evaluates the Jacobian at seeded points
    # with 30-bit coordinates; at degree 10^8 those values would have
    # billions of bits, and the search ran past 10 s
    family = {"field": {"kind": "rational"}, "nvars": 2,
              "polys": ["x1^100000000 + x2", "x2"]}
    path = dump(tmp_path, "huge_family.json", family)
    for mode in ("adaptive", "exact"):
        proc = _cli_in_subprocess(["faithful", path, "--kind", "psi", "--mode", mode])
        assert proc.returncode == 4 and proc.stdout == "", mode
        assert json.loads(proc.stderr)["error"] == (
            "Jacobian values at a seeded point may exceed the limit of 1048576 bits"), mode


def _evaluated_trdeg_report(tmp_path, point):
    """(report, family) paths: {x1^20000} over Q and a trdeg report whose
    certificate is an evaluated Jacobian of rank 1 at point."""
    family = dump(tmp_path, "power.json",
                  {"field": {"kind": "rational"}, "nvars": 1, "polys": ["x1^20000"]})
    witness = {"method": "evaluated-jacobian-meets-upper-bound", "upper_bound": 1,
               "point": point}
    report = {"command": "trdeg", "r": 1,
              "certificate": {"r": 1, "mode": "jacobian", "basis": [0], "witness": witness}}
    return dump(tmp_path, "report.json", report), family


def test_verify_rejects_a_witness_point_of_the_wrong_arity_as_malformed(tmp_path):
    report, family = _evaluated_trdeg_report(tmp_path, ["2", "3"])
    proc = _cli_in_subprocess(["verify", report, "--against", family], seconds=20)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "has 2 coordinates, not 1" in json.loads(proc.stderr)["error"]
    # the right arity verifies
    report, family = _evaluated_trdeg_report(tmp_path, ["2"])
    proc = _cli_in_subprocess(["verify", report, "--against", family], seconds=20)
    assert proc.returncode == 0 and json.loads(proc.stdout)["verified"] is True


@pytest.mark.parametrize("digits", [400, 4000])
def test_verify_refuses_a_huge_witness_point_before_evaluating(tmp_path, digits):
    # degree 20000 times a coordinate of 400 digits (1,329 bits) passes
    # MAX_VALUE_BITS; evaluating took 10.7 s, and 4,000 digits ran past 60 s
    report, family = _evaluated_trdeg_report(tmp_path, ["7" * digits])
    proc = _cli_in_subprocess(["verify", report, "--against", family], seconds=20)
    assert proc.returncode == 4 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == (
        "Jacobian values at the witness point may exceed the limit of 1048576 bits")


def test_consecutive_main_calls_keep_no_state(tmp_path, capsys):
    # the parser is built once per process; options of one call must not
    # reach the next
    path = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    code, out, _ = run(capsys, ["pit", path, "--seed", "5", "--conjecture-R", "--R", "3"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 5
    tight = dump(tmp_path, "tight.json", TIGHT_FAMILY)
    assert run(capsys, ["trdeg", tight, "--seed", "7"])[0] == 0
    code, out, _ = run(capsys, ["pit", path])
    assert code == 0
    assert json.loads(out)["config"] == {
        "mode": "adaptive", "seed": 0, "max_points": 200_000, "R": None,
        "conjecture_R": False,
    }


def test_hitting_set_stream(capsys):
    argv = [
        "hitting-set", "--kind", "sparse-char0", "--n", "1", "--d", "3",
        "--r", "1", "--delta", "1", "--ell", "1", "--max-points", "5",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    header = json.loads(lines[0])
    assert header["command"] == "hitting-set"
    assert header["size_bound"] == 42250
    assert header["guarantee"] == "certified"
    assert header["arity"] == 1
    for line in lines[1:]:
        point = json.loads(line)["point"]
        assert len(point) == 1
    code, out2, _ = run(capsys, argv)
    assert out == out2


def test_hitting_set_writes_oversized_ints_in_hex(capsys):
    # the depth-4 schedule for delta = 40 has ints of tens of thousands of
    # digits, past Python's default decimal-conversion limit
    code, out, _ = run(capsys, [
        "hitting-set", "--kind", "depth4", "--n", "3", "--delta", "40",
        "--k", "3", "--s", "3", "--max-points", "2",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    header = json.loads(lines[0])
    sched = schedule("depth4", n=3, delta=40, k=3, s=3)
    assert header["size_bound"].startswith("0x")
    assert header["provenance"]["schedule"]["p_max"] == hex(sched.p_max)
    # ints that fit stay plain JSON numbers
    assert header["provenance"]["schedule"]["D2"] == 41
    assert header["arity"] == 3


def test_pit_report_with_oversized_ints_verifies(tmp_path, capsys):
    zero = {"kind": "depth4", "field": {"kind": "rational"}, "nvars": 1,
            "delta": 40, "rows": [["x1"], ["-x1"]]}
    path = dump(tmp_path, "zero.json", zero)
    code, out, _ = run(capsys, ["pit", path, "--mode", "exact", "--max-points", "1"])
    assert code == 2
    assert json.loads(out)["verdict"]["provenance"]["schedule"]["p_max"].startswith("0x")
    report = dump(tmp_path, "report.json", out)
    code, out, _ = run(capsys, ["verify", report, "--against", path])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_hitting_set_over_prime_field(capsys):
    code, out, _ = run(capsys, [
        "hitting-set", "--kind", "depth4", "--n", "2", "--delta", "1",
        "--k", "2", "--s", "1", "--max-points", "3", "--field", "7",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert json.loads(lines[0])["guarantee"] == "certified"
    assert json.loads(lines[1])["point"] == [1, 1]


def test_malformed_inputs_exit_three(tmp_path, capsys):
    garbage = dump(tmp_path, "garbage.json", "{nope")
    assert run(capsys, ["pit", garbage])[0] == 3
    family = dump(tmp_path, "fam.json", PAIR_FAMILY)
    assert run(capsys, ["pit", family])[0] == 3
    assert run(capsys, [
        "hitting-set", "--kind", "any-char", "--n", "1", "--d", "2",
        "--r", "1", "--delta", "1", "--field", "4",
    ])[0] == 3
    badpoly = dump(tmp_path, "badpoly.json",
                   {"field": {"kind": "rational"}, "nvars": 1, "polys": ["x1 $"]})
    assert run(capsys, ["trdeg", badpoly])[0] == 3
    # input files use x1..xn only
    zfam = dump(tmp_path, "zfam.json",
                {"field": {"kind": "rational"}, "nvars": 2, "polys": ["z0 + z1"]})
    code, _, err = run(capsys, ["trdeg", zfam])
    assert code == 3 and "unknown variable 'z0'" in json.loads(err)["error"]
    assert run(capsys, [
        "hitting-set", "--kind", "sparse-char0", "--n", "1", "--d", "2",
        "--r", "1", "--delta", "1",
    ])[0] == 3
    # 2^89 - 1 is prime, but past the deterministic primality range
    huge = str(2 ** 89 - 1)
    assert run(capsys, [
        "hitting-set", "--kind", "any-char", "--n", "1", "--d", "2",
        "--r", "1", "--delta", "1", "--field", huge,
    ])[0] == 3
    hugefam = dump(tmp_path, "huge.json",
                   {"field": {"kind": "prime", "p": 2 ** 89 - 1}, "nvars": 1, "polys": ["x1"]})
    assert run(capsys, ["trdeg", hugefam])[0] == 3
    # a pit report whose config lost a key: nothing to re-run it with
    zero = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    report = json.loads(run(capsys, ["pit", zero])[1])
    del report["config"]["seed"]
    assert run(capsys, ["verify", dump(tmp_path, "noseed.json", report), "--against", zero])[0] == 3
    # an int literal past Python's 4300-digit conversion limit
    longfam = dump(tmp_path, "long.json", '{"field": {"kind": "prime", "p": 1%s1}, '
                   '"nvars": 1, "polys": ["x1"]}' % ("0" * 4999))
    assert run(capsys, ["trdeg", longfam])[0] == 3


def test_resource_errors_exit_four(tmp_path, capsys):
    pair = dump(tmp_path, "pair.json", PAIR_FAMILY)
    code, _, err = run(capsys, ["annihilator", pair, "--cap", "2", "--budget-columns", "1"])
    assert code == 4
    assert "budget" in json.loads(err)["error"]
    tight = dump(tmp_path, "tight.json", TIGHT_FAMILY)
    code, _, err = run(capsys, ["faithful", tight, "--kind", "psi", "--r", "1"])
    assert code == 4
    assert "below the input transcendence degree" in json.loads(err)["error"]
    # a Vandermonde map over F_3 cannot keep trdeg 2 of degree-2 inputs: the
    # field is unsupported, the input well formed
    f3 = dump(tmp_path, "f3.json", {"field": {"kind": "prime", "p": 3}, "nvars": 3,
                                    "polys": ["x1^2 + x2", "x2*x3"]})
    code, _, err = run(capsys, ["faithful", f3, "--kind", "psi"])
    assert code == 4
    assert "Vandermonde reduction needs characteristic 0" in json.loads(err)["error"]


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, ["pit", path, "--seed", "0"])
        outs.append(out)
    assert outs[0] == outs[1]



# -- frozen reports of the two reduction maps -----------------------------------

# (x1 - 1)(x2 - 1) and x3^2: c = 1 pins every dropped variable to 1 and kills
# the first, so the phi search moves on to c = 2
FROZEN_FAMILY = ["x1*x2 - x1 - x2 + 1", "x3^2"]

# the reports and the stream below as printed before the two maps shared one
# affine representation; the reports compacted by json.dumps(sort_keys=True)
FROZEN_FAITHFUL = {
    ('rational', 'phi'): (
        '{"command": "faithful", "config": {"kind": "phi", "mode": "adaptive", "r": null, '
        '"seed": 0}, "result": {"candidates_tried": 5, "image_certificate": {"basis": [0, '
        '1], "mode": "jacobian", "r": 2, '
        '"witness": {"method": "evaluated-jacobian-meets-upper-bound", '
        '"point": ["-210085211", "560439575"], "upper_bound": 2}}, '
        '"input_certificate": {"basis": [0, 1], "mode": "jacobian", "r": 2, '
        '"witness": {"max_degree": 2, "method": "symbolic-rank", "pivot_cols": [0, 2], '
        '"pivot_rows": [0, 1]}}, "map": {"D": 9, "I": [1, 3], "c": "2", '
        '"field": {"kind": "rational"}, "kind": "phi", "n": 3, "p": 2, "r": 2}}}'
    ),
    ('rational', 'psi'): (
        '{"command": "faithful", "config": {"kind": "psi", "mode": "adaptive", "r": null, '
        '"seed": 0}, "result": {"candidates_tried": 10, "image_certificate": {"basis": [0, '
        '1], "mode": "jacobian", "r": 2, '
        '"witness": {"method": "evaluated-jacobian-meets-upper-bound", '
        '"point": ["-210085211", "560439575", "-127411613"], "upper_bound": 2}}, '
        '"input_certificate": {"basis": [0, 1], "mode": "jacobian", "r": 2, '
        '"witness": {"max_degree": 2, "method": "symbolic-rank", "pivot_cols": [0, 2], '
        '"pivot_rows": [0, 1]}}, "map": {"D1": 64, "D2": 2, "c": "2", '
        '"field": {"kind": "rational"}, "kind": "psi", "n": 3, "p": 3, "r": 2}}}'
    ),
    ('101', 'phi'): (
        '{"command": "faithful", "config": {"kind": "phi", "mode": "adaptive", "r": null, '
        '"seed": 0}, "result": {"candidates_tried": 5, "image_certificate": {"basis": [0, '
        '1], "mode": "jacobian", "r": 2, '
        '"witness": {"method": "evaluated-jacobian-meets-upper-bound", "point": [47, 93], '
        '"upper_bound": 2}}, "input_certificate": {"basis": [0, 1], "mode": "jacobian", '
        '"r": 2, "witness": {"max_degree": 2, "method": "symbolic-rank", "pivot_cols": [0, '
        '2], "pivot_rows": [0, 1]}}, "map": {"D": 9, "I": [1, 3], "c": 2, '
        '"field": {"kind": "prime", "p": 101}, "kind": "phi", "n": 3, "p": 2, "r": 2}}}'
    ),
    ('101', 'psi'): (
        '{"command": "faithful", "config": {"kind": "psi", "mode": "adaptive", "r": null, '
        '"seed": 0}, "result": {"candidates_tried": 10, "image_certificate": {"basis": [0, '
        '1], "mode": "jacobian", "r": 2, '
        '"witness": {"method": "evaluated-jacobian-meets-upper-bound", "point": [47, 93, '
        '52], "upper_bound": 2}}, "input_certificate": {"basis": [0, 1], '
        '"mode": "jacobian", "r": 2, "witness": {"max_degree": 2, '
        '"method": "symbolic-rank", "pivot_cols": [0, 2], "pivot_rows": [0, 1]}}, '
        '"map": {"D1": 64, "D2": 2, "c": 2, "field": {"kind": "prime", "p": 101}, '
        '"kind": "psi", "n": 3, "p": 3, "r": 2}}}'
    ),
}


@pytest.mark.parametrize("field, kind", sorted(FROZEN_FAITHFUL))
def test_faithful_reports_are_frozen(tmp_path, capsys, field, kind):
    spec = {"kind": "rational"} if field == "rational" else {"kind": "prime", "p": int(field)}
    fam = dump(tmp_path, "fam.json", {"field": spec, "nvars": 3, "polys": FROZEN_FAMILY})
    code, out, _ = run(capsys, ["faithful", fam, "--kind", kind])
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True) == FROZEN_FAITHFUL[field, kind]
    report = dump(tmp_path, "report.json", out)
    assert run(capsys, ["verify", report, "--against", fam])[0] == 0


FROZEN_ANY_CHAR_STREAM = [
    '{"arity": 3, "command": "hitting-set", "config": {"R": null, "conjecture_R": false, '
    '"d": 2, "delta": 2, "ell": null, "field": "rational", "k": null, "kind": "any-char", '
    '"max_points": 24, "n": 3, "r": 2, "s": null}, "guarantee": "certified", '
    '"provenance": {"construction": "any-char", "grid_truncated": false, "mode": "exact", '
    '"points": "simplex", "schedule": {"D1": 9, "D2": null, '
    '"h1_size": 156129342417386969617737454408060393056718757648798515336, "h2_size": 3, '
    '"kind": "any-char", '
    '"p_max": 19516167802173371202217181801007549132089844706099814417, "params": {"d": 2, '
    '"delta": 2, "n": 3, "r": 2}, "provenance": "exact-any-char", "r": 2}}, '
    '"size_bound": 548468360182927575580377666997103088967319980211945084946788978'
    '45730512902003116409963156912979013463945111184016}',
    '{"point": ["0", "0", "1"]}',
    '{"point": ["0", "1", "1"]}',
    '{"point": ["0", "2", "1"]}',
    '{"point": ["1", "0", "1"]}',
    '{"point": ["1", "1", "1"]}',
    '{"point": ["2", "0", "1"]}',
    '{"point": ["0", "1", "0"]}',
    '{"point": ["0", "1", "1"]}',
    '{"point": ["0", "1", "2"]}',
    '{"point": ["1", "1", "0"]}',
    '{"point": ["1", "1", "1"]}',
    '{"point": ["2", "1", "0"]}',
    '{"point": ["1", "0", "0"]}',
    '{"point": ["1", "0", "1"]}',
    '{"point": ["1", "0", "2"]}',
    '{"point": ["1", "1", "0"]}',
    '{"point": ["1", "1", "1"]}',
    '{"point": ["1", "2", "0"]}',
    '{"point": ["0", "0", "2"]}',
    '{"point": ["0", "1", "2"]}',
    '{"point": ["0", "2", "2"]}',
    '{"point": ["1", "0", "2"]}',
    '{"point": ["1", "1", "2"]}',
    '{"point": ["2", "0", "2"]}',
]


def test_exact_any_char_stream_is_frozen(capsys):
    # 18 points for c = 1 (three kept pairs, six simplex points each), then c = 2
    code, out, _ = run(capsys, [
        "hitting-set", "--kind", "any-char", "--n", "3", "--d", "2", "--r", "2",
        "--delta", "2", "--max-points", "24",
    ])
    assert code == 0
    assert out.splitlines() == FROZEN_ANY_CHAR_STREAM


# the exact paths no benchmark workload runs, as printed before the
# closed-form families shared one enumerator (ParamSchedule.maps): the
# first 12 points of a sparse-input and a depth-4 stream, and the exact
# phi and psi searches on FROZEN_FAMILY over F_101
FROZEN_EXACT_STREAMS = {
    "sparse-char0": (
        ["--n", "2", "--d", "2", "--r", "1", "--delta", "1", "--ell", "2"],
        [
            '{"arity": 2, "command": "hitting-set", "config": {"R": null, '
            '"conjecture_R": false, "d": 2, "delta": 1, "ell": 2, "field": "rational", '
            '"k": null, "kind": "sparse-char0", "max_points": 12, "n": 2, "r": 1, '
            '"s": null}, "guarantee": "certified", "provenance": {"char_gate": true, '
            '"construction": "sparse-char0", "grid_truncated": false, "mode": "exact", '
            '"points": "simplex", "schedule": {"D1": 16, "D2": 2, "h1_size": 65537, '
            '"h2_size": 3, "kind": "sparse-char0", "p_max": 65537, "params": {"d": 2, '
            '"delta": 1, "ell": 2, "n": 2, "r": 1}, "provenance": "exact-sparse-char0", '
            '"r": 1}}, "size_bound": 25770590214}',
            '{"point": ["1", "1"]}', '{"point": ["2", "2"]}', '{"point": ["3", "3"]}',
            '{"point": ["2", "2"]}', '{"point": ["3", "3"]}', '{"point": ["3", "3"]}',
            '{"point": ["1", "1"]}', '{"point": ["3", "2"]}', '{"point": ["5", "3"]}',
            '{"point": ["2", "2"]}', '{"point": ["4", "3"]}', '{"point": ["3", "3"]}',
        ],
    ),
    "depth4": (
        ["--n", "2", "--delta", "1", "--k", "3", "--s", "1", "--R", "2"],
        [
            '{"arity": 2, "command": "hitting-set", "config": {"R": 2, '
            '"conjecture_R": false, "d": null, "delta": 1, "ell": null, '
            '"field": "rational", "k": 3, "kind": "depth4", "max_points": 12, "n": 2, '
            '"r": null, "s": 1}, "guarantee": "certified", "provenance": {"char_gate": '
            'true, "construction": "depth4", "grid_truncated": false, "mode": "exact", '
            '"points": "simplex", "schedule": {"D1": 256, "D2": 2, '
            '"h1_size": 114346345751910504496663364160, "h2_size": 2, "kind": "depth4", '
            '"p_max": 198517961374844625862262785, "params": {"conjectured": false, '
            '"delta": 1, "k": 3, "n": 2, "s": 1}, "provenance": "exact-depth4", '
            '"r": 2}}, "size_bound": '
            '90799213797329593597003107962686163711366462352283142400}',
            '{"point": ["1", "1"]}', '{"point": ["2", "2"]}', '{"point": ["2", "2"]}',
            '{"point": ["2", "2"]}', '{"point": ["1", "1"]}', '{"point": ["3", "2"]}',
            '{"point": ["3", "2"]}', '{"point": ["2", "2"]}', '{"point": ["1", "1"]}',
            '{"point": ["4", "2"]}', '{"point": ["4", "2"]}', '{"point": ["2", "2"]}',
        ],
    ),
}


@pytest.mark.parametrize("kind", sorted(FROZEN_EXACT_STREAMS))
def test_exact_streams_are_frozen(capsys, kind):
    flags, lines = FROZEN_EXACT_STREAMS[kind]
    code, out, _ = run(capsys, ["hitting-set", "--kind", kind, *flags, "--max-points", "12"])
    assert code == 0
    assert out.splitlines() == lines


FROZEN_EXACT_FAITHFUL = {
    "phi": (
        '{"command": "faithful", "config": {"kind": "phi", "mode": "exact", "r": null, '
        '"seed": 0}, "result": {"candidates_tried": 5, "image_certificate": {"basis": [0, '
        '1], "mode": "jacobian", "r": 2, "witness": {"method": '
        '"evaluated-jacobian-meets-upper-bound", "point": [47, 93], "upper_bound": 2}}, '
        '"input_certificate": {"basis": [0, 1], "mode": "jacobian", "r": 2, "witness": '
        '{"max_degree": 2, "method": "symbolic-rank", "pivot_cols": [0, 2], '
        '"pivot_rows": [0, 1]}}, "map": {"D": 9, "I": [1, 3], "c": 2, "field": {"kind": '
        '"prime", "p": 101}, "kind": "phi", "n": 3, "p": 2, "r": 2}}}'
    ),
    "psi": (
        '{"command": "faithful", "config": {"kind": "psi", "mode": "exact", "r": null, '
        '"seed": 0}, "result": {"candidates_tried": 102, "image_certificate": {"basis": '
        '[0, 1], "mode": "jacobian", "r": 2, "witness": {"method": '
        '"evaluated-jacobian-meets-upper-bound", "point": [47, 93, 52], "upper_bound": '
        '2}}, "input_certificate": {"basis": [0, 1], "mode": "jacobian", "r": 2, '
        '"witness": {"max_degree": 2, "method": "symbolic-rank", "pivot_cols": [0, 2], '
        '"pivot_rows": [0, 1]}}, "map": {"D1": 1728, "D2": 2, "c": 2, "field": {"kind": '
        '"prime", "p": 101}, "kind": "psi", "n": 3, "p": 3, "r": 2}}}'
    ),
}


@pytest.mark.parametrize("kind", sorted(FROZEN_EXACT_FAITHFUL))
def test_exact_faithful_reports_are_frozen(tmp_path, capsys, kind):
    spec = {"kind": "prime", "p": 101}
    fam = dump(tmp_path, "fam.json", {"field": spec, "nvars": 3, "polys": FROZEN_FAMILY})
    code, out, _ = run(capsys, ["faithful", fam, "--kind", kind, "--mode", "exact"])
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True) == FROZEN_EXACT_FAITHFUL[kind]
    report = dump(tmp_path, "report.json", out)
    assert run(capsys, ["verify", report, "--against", fam])[0] == 0


# three triangular families of the certify-verify corpus (seed 21) over F_2
# and F_3: the Jacobian gate fails there, so trdeg and the phi search's
# input certificate run the annihilator search.  The reports as printed
# before the annihilator's map was built on packed monomials.
FROZEN_BRUTEFORCE_FAMILIES = {
    "F2-0": (2, ["x1 + 1", "x1^2 + x2", "x1^2 + x1 + x2 + 1"]),
    "F2-3": (2, ["x1", "x1^2 + x2 + 1", "x1^3 + x1*x2 + x1"]),
    "F3-0": (3, ["x1 + 1", "-x1^2 + x2 - 1", "-x1^3 - x1^2 + x1*x2 - x1 + x2 - 1"]),
}

BRUTEFORCE_CALLS = {
    "trdeg": ["trdeg"],
    "annihilator-2": ["annihilator", "--cap", "2"],
    "annihilator-1": ["annihilator", "--cap", "1"],
    "phi": ["faithful", "--kind", "phi"],
}

FROZEN_BRUTEFORCE = {
    ('F2-0', 'trdeg'): (
        '{"certificate": {"basis": [0, 1], "mode": "bruteforce", "r": 2, "witness": '
        '{"dependent_extensions": [{"annihilator": "x1 + x2 + x3", "cap": 4, "subset": '
        '[0, 1, 2]}], "independence_chain": [{"cap": 1, "method": '
        '"evaluation-full-rank", "subset": [0]}, {"cap": 2, "method": "kernel-empty", '
        '"subset": [0, 1]}], "method": "greedy-matroid-extension"}}, "command": '
        '"trdeg", "config": {"budget_columns": 50000, "mode": "auto", "seed": 0}, '
        '"exact": true, "r": 2}'
    ),
    ('F2-0', 'annihilator-2'): (
        '{"annihilator": "x1 + x2 + x3", "command": "annihilator", "config": '
        '{"budget_columns": 50000, "cap": 2}, "found": true, "m": 3}'
    ),
    ('F2-0', 'annihilator-1'): (
        '{"annihilator": "x1 + x2 + x3", "command": "annihilator", "config": '
        '{"budget_columns": 50000, "cap": 1}, "found": true, "m": 3}'
    ),
    ('F2-0', 'phi'): (
        '{"command": "faithful", "config": {"kind": "phi", "mode": "adaptive", "r": '
        'null, "seed": 0}, "result": {"candidates_tried": 1, "image_certificate": '
        '{"basis": [0, 1], "mode": "jacobian", "r": 2, "witness": {"method": '
        '"evaluated-jacobian-meets-upper-bound", "point": [1, 1], "upper_bound": 2}}, '
        '"input_certificate": {"basis": [0, 1], "mode": "bruteforce", "r": 2, '
        '"witness": {"dependent_extensions": [{"annihilator": "x1 + x2 + x3", "cap": 4, '
        '"subset": [0, 1, 2]}], "independence_chain": [{"cap": 1, "method": '
        '"evaluation-full-rank", "subset": [0]}, {"cap": 2, "method": "kernel-empty", '
        '"subset": [0, 1]}], "method": "greedy-matroid-extension"}}, "map": {"D": 9, '
        '"I": [1, 2], "c": 1, "field": {"kind": "prime", "p": 2}, "kind": "phi", "n": '
        '3, "p": 2, "r": 2}}}'
    ),
    ('F2-3', 'trdeg'): (
        '{"certificate": {"basis": [0, 1], "mode": "bruteforce", "r": 2, "witness": '
        '{"dependent_extensions": [{"annihilator": "x1*x2 + x3", "cap": 9, "subset": '
        '[0, 1, 2]}], "independence_chain": [{"cap": 1, "method": '
        '"evaluation-full-rank", "subset": [0]}, {"cap": 2, "method": "kernel-empty", '
        '"subset": [0, 1]}], "method": "greedy-matroid-extension"}}, "command": '
        '"trdeg", "config": {"budget_columns": 50000, "mode": "auto", "seed": 0}, '
        '"exact": true, "r": 2}'
    ),
    ('F2-3', 'annihilator-2'): (
        '{"annihilator": "x1*x2 + x3", "command": "annihilator", "config": '
        '{"budget_columns": 50000, "cap": 2}, "found": true, "m": 3}'
    ),
    ('F2-3', 'annihilator-1'): (
        '{"annihilator": null, "command": "annihilator", "config": {"budget_columns": '
        '50000, "cap": 1}, "found": false, "m": 3}'
    ),
    ('F2-3', 'phi'): (
        '{"command": "faithful", "config": {"kind": "phi", "mode": "adaptive", "r": '
        'null, "seed": 0}, "result": {"candidates_tried": 1, "image_certificate": '
        '{"basis": [0, 1], "mode": "jacobian", "r": 2, "witness": {"method": '
        '"evaluated-jacobian-meets-upper-bound", "point": [1, 1], "upper_bound": 2}}, '
        '"input_certificate": {"basis": [0, 1], "mode": "bruteforce", "r": 2, '
        '"witness": {"dependent_extensions": [{"annihilator": "x1*x2 + x3", "cap": 9, '
        '"subset": [0, 1, 2]}], "independence_chain": [{"cap": 1, "method": '
        '"evaluation-full-rank", "subset": [0]}, {"cap": 2, "method": "kernel-empty", '
        '"subset": [0, 1]}], "method": "greedy-matroid-extension"}}, "map": {"D": 28, '
        '"I": [1, 2], "c": 1, "field": {"kind": "prime", "p": 2}, "kind": "phi", "n": '
        '3, "p": 2, "r": 2}}}'
    ),
    ('F3-0', 'trdeg'): (
        '{"certificate": {"basis": [0, 1], "mode": "bruteforce", "r": 2, "witness": '
        '{"dependent_extensions": [{"annihilator": "x1*x2 + 2*x3", "cap": 9, "subset": '
        '[0, 1, 2]}], "independence_chain": [{"cap": 1, "method": '
        '"evaluation-full-rank", "subset": [0]}, {"cap": 2, "method": '
        '"evaluation-full-rank", "subset": [0, 1]}], "method": '
        '"greedy-matroid-extension"}}, "command": "trdeg", "config": {"budget_columns": '
        '50000, "mode": "auto", "seed": 0}, "exact": true, "r": 2}'
    ),
    ('F3-0', 'annihilator-2'): (
        '{"annihilator": "x1*x2 + 2*x3", "command": "annihilator", "config": '
        '{"budget_columns": 50000, "cap": 2}, "found": true, "m": 3}'
    ),
    ('F3-0', 'annihilator-1'): (
        '{"annihilator": null, "command": "annihilator", "config": {"budget_columns": '
        '50000, "cap": 1}, "found": false, "m": 3}'
    ),
    ('F3-0', 'phi'): (
        '{"command": "faithful", "config": {"kind": "phi", "mode": "adaptive", "r": '
        'null, "seed": 0}, "result": {"candidates_tried": 1, "image_certificate": '
        '{"basis": [0, 1], "mode": "jacobian", "r": 2, "witness": {"method": '
        '"evaluated-jacobian-meets-upper-bound", "point": [1, 2], "upper_bound": 2}}, '
        '"input_certificate": {"basis": [0, 1], "mode": "bruteforce", "r": 2, '
        '"witness": {"dependent_extensions": [{"annihilator": "x1*x2 + 2*x3", "cap": 9, '
        '"subset": [0, 1, 2]}], "independence_chain": [{"cap": 1, "method": '
        '"evaluation-full-rank", "subset": [0]}, {"cap": 2, "method": '
        '"evaluation-full-rank", "subset": [0, 1]}], "method": '
        '"greedy-matroid-extension"}}, "map": {"D": 28, "I": [1, 2], "c": 1, "field": '
        '{"kind": "prime", "p": 3}, "kind": "phi", "n": 3, "p": 2, "r": 2}}}'
    ),
}


def bruteforce_family(tmp_path, tag):
    p, polys = FROZEN_BRUTEFORCE_FAMILIES[tag]
    return dump(tmp_path, "fam.json",
                {"field": {"kind": "prime", "p": p}, "nvars": 3, "polys": polys})


@pytest.mark.parametrize("tag, call", sorted(FROZEN_BRUTEFORCE))
def test_bruteforce_trdeg_reports_are_frozen(tmp_path, capsys, tag, call):
    fam = bruteforce_family(tmp_path, tag)
    argv = BRUTEFORCE_CALLS[call]
    code, out, _ = run(capsys, [argv[0], fam, *argv[1:]])
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True) == FROZEN_BRUTEFORCE[tag, call]


@pytest.mark.parametrize("tag, call", sorted(FROZEN_BRUTEFORCE))
def test_bruteforce_trdeg_reports_verify(tmp_path, capsys, tag, call):
    fam = bruteforce_family(tmp_path, tag)
    report = dump(tmp_path, "report.json", FROZEN_BRUTEFORCE[tag, call])
    code, out, _ = run(capsys, ["verify", report, "--against", fam])
    assert code == 0 and json.loads(out)["verified"] is True


# -- zero denominators and malformed reports exit 3 ----------------------------


@pytest.mark.parametrize("field, text", [
    ({"kind": "rational"}, "1/0*x1"),
    ({"kind": "prime", "p": 7}, "x1 + 3/7"),
], ids=["Q", "F7"])
def test_zero_denominator_in_polynomial_text_exits_three(tmp_path, capsys, field, text):
    fam = dump(tmp_path, "fam.json", {"field": field, "nvars": 1, "polys": [text]})
    code, out, err = run(capsys, ["trdeg", fam])
    assert (code, out) == (3, "")
    assert "zero denominator" in json.loads(err)["error"]


def test_zero_denominator_in_a_dag_const_exits_three(tmp_path, capsys):
    dag = {"field": {"kind": "rational"}, "nvars": 1, "kind": "dag", "output": 2,
           "nodes": [{"op": "input", "var": 0}, {"op": "const", "value": "1/0"},
                     {"op": "add", "args": [0, 1]}]}
    code, out, err = run(capsys, ["pit", dump(tmp_path, "dag.json", dag)])
    assert (code, out) == (3, "")
    assert "1/0" in json.loads(err)["error"]


def test_zero_denominator_in_a_map_c_exits_three(tmp_path, capsys):
    tight = dump(tmp_path, "tight.json", TIGHT_FAMILY)
    report = json.loads(run(capsys, ["faithful", tight, "--kind", "psi"])[1])
    report["result"]["map"]["c"] = "1/0"
    bad = dump(tmp_path, "bad.json", report)
    code, out, err = run(capsys, ["verify", bad, "--against", tight])
    assert (code, out) == (3, "")
    assert "1/0" in json.loads(err)["error"]


@pytest.mark.parametrize("nvars", ["abc", -1, 2.5, "2", 1.0, True])
def test_family_with_a_bad_nvars_exits_three(tmp_path, capsys, nvars):
    fam = dump(tmp_path, "fam.json", dict(PAIR_FAMILY, nvars=nvars))
    code, out, err = run(capsys, ["trdeg", fam])
    assert (code, out) == (3, "")
    assert "error" in json.loads(err)


def _drop(*path):
    def edit(report):
        for key in path[:-1]:
            report = report[key]
        del report[path[-1]]
    return edit


def _set(value, *path):
    def edit(report):
        for key in path[:-1]:
            report = report[key]
        report[path[-1]] = value
    return edit


_DAG = {"field": {"kind": "rational"}, "nvars": 1, "kind": "dag", "output": 1,
        "nodes": [{"op": "input", "var": 0}, {"op": "add", "args": [0, 0]}]}
_DEPTH4 = {"field": {"kind": "rational"}, "nvars": 2, "kind": "depth4", "delta": 1,
           "rows": [["x1", "x2"], ["x1 + 1", "x2"]]}
_COMPOSED = {"field": {"kind": "rational"}, "nvars": 1, "kind": "composed",
             "inputs": ["x1"], "outer": {"nodes": [{"op": "input", "var": 0}], "output": 0}}


def _with(obj, path, value):
    obj = json.loads(json.dumps(obj))
    _set(value, *path)(obj)
    return obj


@pytest.mark.parametrize("obj", [
    _with(_DEPTH4, ["delta"], 1.5),
    _with(_DEPTH4, ["nvars"], "2"),
    _with(_DAG, ["output"], 1.0),
    _with(_DAG, ["nodes", 0, "var"], 0.0),
    _with(_DAG, ["nodes", 1, "args"], [0.0, 0]),
    _with(_DAG, ["nodes", 1, "args"], [True, 0]),
    _with(_DAG, ["nvars"], 1.0),
    _with(_COMPOSED, ["nvars"], 2.5),
    _with(_COMPOSED, ["outer", "output"], False),
], ids=["depth4-delta-1.5", "depth4-nvars-str", "dag-output-1.0", "dag-var-0.0",
        "dag-args-float", "dag-args-bool", "dag-nvars-1.0", "composed-nvars-2.5",
        "composed-outer-output-bool"])
def test_circuit_with_a_non_integer_field_exits_three(tmp_path, capsys, obj):
    code, out, err = run(capsys, ["pit", dump(tmp_path, "circ.json", obj)])
    assert (code, out) == (3, "")
    assert "must be an integer" in json.loads(err)["error"]


MALFORMED_REPORTS = {
    "pit-witness-null": (["pit", "dag"], _set(None, "verdict", "witness")),
    "pit-no-verdict": (["pit", "dag"], _drop("verdict")),
    "trdeg-no-certificate": (["trdeg", "tight"], _drop("certificate")),
    "annihilator-no-cap": (["annihilator", "pair", "--cap", "2"], _drop("config", "cap")),
    "faithful-no-map-field": (["faithful", "tight", "--kind", "psi"],
                              _drop("result", "map", "field")),
    "bruteforce-basis-string": (["trdeg", "pair", "--mode", "bruteforce"],
                                _set(["0"], "certificate", "basis")),
    "pit-verdict-list": (["pit", "dag"], _set([], "verdict")),
    "trdeg-witness-list": (["trdeg", "tight"], _set([], "certificate", "witness")),
    "faithful-unknown-map-kind": (["faithful", "tight", "--kind", "psi"],
                                  _set("xyz", "result", "map", "kind")),
    "faithful-map-D1-one": (["faithful", "tight", "--kind", "psi"],
                            _set(1, "result", "map", "D1")),
    "unhashable-command": (["trdeg", "tight"], _set(["trdeg"], "command")),
    "pit-unknown-mode": (["pit", "dag"], _set("bogus", "config", "mode")),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_REPORTS))
def test_verify_of_a_malformed_report_exits_three(tmp_path, capsys, name):
    files = {
        "dag": dump(tmp_path, "dag.json",
                    Circuit.from_poly(P("x1^2 - x2", 2, F101)).to_json_dict()),
        "tight": dump(tmp_path, "tight.json", TIGHT_FAMILY),
        "pair": dump(tmp_path, "pair.json", PAIR_FAMILY),
    }
    (cmd, name_of_input, *flags), edit = MALFORMED_REPORTS[name]
    against = files[name_of_input]
    code, out, _ = run(capsys, [cmd, against] + flags)
    assert code in (0, 1)
    report = json.loads(out)
    edit(report)
    bad = dump(tmp_path, "bad.json", report)
    code, out, err = run(capsys, ["verify", bad, "--against", against])
    assert (code, out) == (3, "")
    assert "error" in json.loads(err)


def test_module_entry_point():
    proc = _cli_in_subprocess(["--help"])
    assert proc.returncode == 0
    assert "pit" in proc.stdout


_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import pitkit.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_the_standard_library():
    # pitkit has no runtime dependency.  Compared with the modules loaded
    # before the import, since site may already load packages of its own.
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True)
    added = json.loads(proc.stdout)
    assert "pitkit.cli" in added
    foreign = [m for m in added
               if m.partition(".")[0] not in sys.stdlib_module_names | {"pitkit"}]
    assert foreign == []


@pytest.mark.skipif(shutil.which("pitkit") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["pitkit", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hitting-set" in proc.stdout
