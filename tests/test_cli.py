import importlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

import pitkit
from pitkit import varmaps
from pitkit.circuits import Circuit, ComposedCircuit, Depth4Circuit
from pitkit.cli import _build_parser, _parse_args, main
from pitkit.depth4 import lift_identity
from pitkit.fields import FieldError, FieldSpec
from pitkit.independence import MAX_JACOBIAN_PRODUCTS, MAX_STREAM_ENTRIES
from pitkit.polynomials import SparsePoly, poly_from_text
from pitkit.varmaps import schedule

from _gen import RATIONAL, cancelling_depth4, depth3_identity

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


CONSTANT_DEPTH4 = [
    ({"kind": "rational"}, 2, 0, [["2"], ["-2"]], 0),
    ({"kind": "rational"}, 2, 0, [["2"], ["1/2"]], 1),
    ({"kind": "prime", "p": 101}, 0, 2, [["2", "3"], ["-6"]], 0),
    ({"kind": "prime", "p": 101}, 0, 2, [["2"], ["5"]], 1),
    ({"kind": "prime", "p": 2}, 0, 3, [["1"], ["1"]], 0),
]


@pytest.mark.parametrize("mode", ["adaptive", "exact"])
@pytest.mark.parametrize("field, nvars, delta, rows, want", CONSTANT_DEPTH4)
def test_pit_constant_depth4_walks_its_one_point(tmp_path, capsys, mode, field, nvars,
                                                  delta, rows, want):
    # these circuits (k >= 2, no variables or delta = 0) once exited 4
    # ("need n >= 1 and delta >= 1")
    circ = {"kind": "depth4", "field": field, "nvars": nvars, "delta": delta, "rows": rows}
    path = dump(tmp_path, "const.json", circ)
    code, out, _ = run(capsys, ["pit", path, "--mode", mode])
    verdict = json.loads(out)["verdict"]
    assert code == want and verdict["outcome"] == ("zero", "nonzero")[want]
    assert verdict["guarantee"] == "certified" and verdict["points_checked"] == 1
    assert verdict["provenance"]["map"] == "identity"
    report = dump(tmp_path, "report.json", out)
    assert run(capsys, ["verify", report, "--against", path])[0] == 0


@pytest.mark.parametrize("field, half, quarter", [({"kind": "rational"}, "1/2", "1/4"),
                                                  ({"kind": "prime", "p": 101}, 51, 76)])
def test_pit_answers_a_dag_of_no_variables(tmp_path, capsys, field, half, quarter):
    # once exited 4 ("r must be at least 1"); half and quarter are 1/2 and
    # 1/4 in the field
    consts = [{"op": "const", "value": half}, {"op": "const", "value": -1}]
    for last, want in ((["add", [0, 0, 1]], 0), (["mul", [0, 0]], 1)):
        circ = {"kind": "dag", "field": field, "nvars": 0, "output": 2,
                "nodes": consts + [{"op": last[0], "args": last[1]}]}
        path = dump(tmp_path, "const.json", circ)
        code, out, _ = run(capsys, ["pit", path])
        verdict = json.loads(out)["verdict"]
        assert code == want and verdict["points_checked"] == 1
        assert verdict["guarantee"] == "certified"
        assert verdict["provenance"] == {"construction": "constant-dag"}
        if want:
            assert verdict["witness"] == [] and verdict["value"] == quarter
        report = dump(tmp_path, "report.json", out)
        code, out, _ = run(capsys, ["verify", report, "--against", path])
        assert code == 0 and json.loads(out)["verified"]


def _squarings(nodes, k):
    """The dag nodes followed by k squarings of the last one."""
    nodes = list(nodes)
    for _ in range(k):
        nodes.append({"op": "mul", "args": [len(nodes) - 1] * 2})
    return nodes


def test_a_rational_too_long_for_decimal_is_written_in_hex(tmp_path, capsys):
    # both once exited 4: "Exceeds the limit (4300 digits) for integer
    # string conversion".  (x1 + 2)^(2^14) is nonzero at x1 = 0, where it is
    # 2^16384, of 4,933 digits
    nodes = _squarings([{"op": "input", "var": 0}, {"op": "const", "value": "2"},
                        {"op": "add", "args": [0, 1]}], 14)
    dag = dump(tmp_path, "dag.json", {"kind": "dag", "field": {"kind": "rational"}, "nvars": 1,
                                      "nodes": nodes, "output": len(nodes) - 1})
    # f^2 for f = 77...7 x1 + 1, 3,000 sevens, has a coefficient of 6,000 digits
    f = "7" * 3000 + "*x1 + 1"
    d4 = dump(tmp_path, "d4.json", {"kind": "depth4", "field": {"kind": "rational"}, "nvars": 2,
                                    "delta": 1, "rows": [[f, f], ["x2", "x2 + 1"]]})
    code, out, _ = run(capsys, ["pit", dag])
    assert code == 1 and json.loads(out)["verdict"]["value"] == hex(2 ** 16384)
    pit_report = dump(tmp_path, "pit.json", out)
    code, out, _ = run(capsys, ["depth4", d4])
    sevens = int("7" * 3000)
    assert code == 0 and json.loads(out)["simple"][0][0] == "%s*x1 + %d" % (hex(sevens ** 2), sevens)
    depth4_report = dump(tmp_path, "depth4.json", out)
    for report, against in ((pit_report, dag), (depth4_report, d4)):
        code, out, _ = run(capsys, ["verify", report, "--against", against])
        assert code == 0 and json.loads(out)["verified"]


def test_a_constant_composition_is_bounded_before_it_is_evaluated(tmp_path, capsys):
    # k squarings of the one input, composed with the constant inner 2: the
    # value 2^(2^k) was computed in full at any k (k = 22 answered with
    # 4,194,305 bits); now the outer dag is bounded at its inputs, as a dag is
    def composition(k, inputs=("2",)):
        # k squarings of the sum of the inputs
        nodes = [{"op": "input", "var": j} for j in range(len(inputs))]
        if len(inputs) > 1:
            nodes.append({"op": "add", "args": list(range(len(inputs)))})
        nodes = _squarings(nodes, k)
        return dump(tmp_path, "comp%d.json" % k, {
            "kind": "composed", "field": {"kind": "rational"}, "nvars": 2, "inputs": list(inputs),
            "outer": {"nvars": len(inputs), "nodes": nodes, "output": len(nodes) - 1}})

    # the sum of 1/3, 1/5, ..., 1/23 has a denominator of 27 bits, and 16
    # squarings of it 27 * 2^16 > 2^20 bits: rational inputs are bounded as
    # rational consts are, by the sum of their bounds
    fractions = ["1/%d" % q for q in (3, 5, 7, 11, 13, 17, 19, 23)]
    for path in (composition(22), composition(16, fractions)):
        code, out, err = run(capsys, ["pit", path])
        assert (code, out) == (4, "")
        assert "dag values may exceed the limit of 1048576 bits" in json.loads(err)["error"]
    path = composition(3)
    code, out, _ = run(capsys, ["pit", path])
    verdict = json.loads(out)["verdict"]
    assert code == 1 and verdict["value"] == "256"
    assert verdict["provenance"] == {"construction": "constant-composition"}
    code, out, _ = run(capsys, ["verify", dump(tmp_path, "report.json", out), "--against", path])
    assert code == 0 and json.loads(out)["verified"]


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


# faithful families whose image certificates are evaluated Jacobians; at z =
# 0 the Jacobian of their phi images (the kept variables x1, x2 and x1..x3)
# has rank 1, below r
EVALUATED_FAMILIES = [
    {"field": {"kind": "rational"}, "nvars": 3, "polys": ["x1*x2", "x2 + x3"]},
    {"field": {"kind": "prime", "p": (1 << 61) - 1}, "nvars": 4,
     "polys": ["x1*x2 + x3^2", "x2 + x3*x4", "x1^2*x4"]},
]


def _faithful_report(tmp_path, capsys, family, kind):
    """(report, family path) of an honest faithful report whose image
    certificate is an evaluated Jacobian, checked to verify."""
    path = dump(tmp_path, "family.json", family)
    code, out, _ = run(capsys, ["faithful", path, "--kind", kind])
    assert code == 0
    report = json.loads(out)
    witness = report["result"]["image_certificate"]["witness"]
    assert witness["method"] == "evaluated-jacobian-meets-upper-bound"
    code, out, _ = run(capsys, ["verify", dump(tmp_path, "report.json", report),
                                "--against", path])
    assert code == 0 and json.loads(out)["verified"] is True
    return report, path


def _verify_edited(tmp_path, capsys, report, against, edit):
    """verify's (exit code, verdict) on a copy of report after edit(copy)."""
    report = json.loads(json.dumps(report))
    edit(report)
    code, out, _ = run(capsys, ["verify", dump(tmp_path, "edited.json", report),
                                "--against", against])
    return code, json.loads(out)


def _tampered(tmp_path, capsys, report, family, edit):
    """verify's (exit code, verdict) on report after edit(result)."""
    return _verify_edited(tmp_path, capsys, report, family, lambda r: edit(r["result"]))


@pytest.mark.parametrize("kind", ["phi", "psi"])
@pytest.mark.parametrize("family", EVALUATED_FAMILIES, ids=["Q", "F2^61-1"])
def test_verify_rejects_an_altered_image_certificate(tmp_path, capsys, family, kind):
    report, path = _faithful_report(tmp_path, capsys, family, kind)
    r = report["result"]["image_certificate"]["r"]

    def point_at_zero(result):
        cert = result["image_certificate"]
        cert["witness"]["point"] = [0 for _ in cert["witness"]["point"]]

    def reversed_basis(result):
        result["image_certificate"]["basis"].reverse()

    def short_basis(result):
        del result["image_certificate"]["basis"][-1]

    def image_r(result):
        result["image_certificate"]["r"] = r - 1

    def both_r(result):
        for name in ("input_certificate", "image_certificate"):
            result[name]["r"] = r + 1
            result[name]["witness"]["upper_bound"] = r + 1

    edits = [reversed_basis, short_basis, image_r, both_r]
    if kind == "phi":
        edits.append(point_at_zero)
    for edit in edits:
        code, verdict = _tampered(tmp_path, capsys, report, path, edit)
        assert (code, verdict["verified"]) == (4, False), edit.__name__


def test_verify_refuses_an_image_witness_point_past_the_value_bits(tmp_path, capsys):
    # the family has degree 5; an image point of 212,000 bits passes
    # MAX_VALUE_BITS = 2^20 at that degree
    family = {"field": {"kind": "rational"}, "nvars": 3, "polys": ["x1^4*x2", "x2 + x3"]}
    report, path = _faithful_report(tmp_path, capsys, family, "phi")
    report["result"]["image_certificate"]["witness"]["point"] = ["0x" + "f" * 53000, "1"]
    code, out, err = run(capsys, ["verify", dump(tmp_path, "bad.json", report),
                                  "--against", path])
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == (
        "Jacobian values at the witness point may exceed the limit of 1048576 bits")


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


def _rejected(detail):
    return 4, {"command": "verify", "verified": False, "detail": detail}


# each report field of the shared-factor depth-4 circuit, altered, and the
# detail verify rejects it with
DEPTH4_ALTERATIONS = {
    "gcd": ("x2", "gcd differs"),
    "simple": ([["x3"], ["x2"]], "simple part differs"),
    "rank": (2, "rank differs"),
    "minimal": (False, "minimality differs"),
}


@pytest.mark.parametrize("key", sorted(DEPTH4_ALTERATIONS))
def test_verify_rejects_an_altered_depth4_report(tmp_path, capsys, key):
    path = dump(tmp_path, "d4.json", shared_factor_depth4().to_json_dict())
    code, out, _ = run(capsys, ["depth4", path])
    assert code == 0
    value, detail = DEPTH4_ALTERATIONS[key]

    def alter(report):
        assert report[key] != value
        report[key] = value

    assert _verify_edited(tmp_path, capsys, json.loads(out), path, alter) == _rejected(detail)


# {x1 + 1, x2 + 2*x1^2, x1*x2 + x2} over F_3 in three variables: trdeg 2 with
# basis [0, 1], and the cubic annihilator ANNIHILATOR_F3 of all three (in
# x1..x3 for the members), within the Perron cap 2^2 = 4
DEPENDENT_F3 = {"field": {"kind": "prime", "p": 3}, "nvars": 3,
                "polys": ["x1 + 1", "x2 + 2*x1^2", "x1*x2 + x2"]}
ANNIHILATOR_F3 = "x1^3 + x1^2 + x1*x2 + x1 + 2*x3"


def test_verify_rejects_altered_annihilator_reports(tmp_path, capsys):
    pair = dump(tmp_path, "pair.json", PAIR_FAMILY)
    code, out, _ = run(capsys, ["annihilator", pair, "--cap", "2"])
    report = json.loads(out)
    assert code == 0 and report["annihilator"] == "x1^2 - x2"
    for text, detail in (
        ("0", "reported annihilator is zero"),
        # it vanishes, but its degree 4 is above the cap 2
        ("x1^4 - x2^2", "reported annihilator exceeds the cap"),
        ("x1^2 + x2", "reported annihilator does not vanish on the family"),
    ):
        got = _verify_edited(tmp_path, capsys, report, pair,
                             lambda r: r.update(annihilator=text))
        assert got == _rejected(detail), text
    # no annihilator found, where the cap admits one
    family = dump(tmp_path, "f3.json", DEPENDENT_F3)
    code, out, _ = run(capsys, ["annihilator", family, "--cap", "4"])
    report = json.loads(out)
    assert code == 0 and report["annihilator"] == ANNIHILATOR_F3
    got = _verify_edited(tmp_path, capsys, report, family,
                         lambda r: r.update(found=False, annihilator=None))
    assert got == _rejected("a cap-4 annihilator exists but the report found none")


def _dependent_extension(report):
    return report["certificate"]["witness"]["dependent_extensions"][0]


def _set_annihilator(text):
    return lambda report: _dependent_extension(report).update(annihilator=text)


def _reason_entry(report):
    ext = _dependent_extension(report)
    del ext["annihilator"], ext["cap"]
    ext["reason"] = "more-polynomials-than-variables"


def _drop_extension(report):
    report["certificate"]["witness"]["dependent_extensions"] = []


def _short_chain(report):
    del report["certificate"]["witness"]["independence_chain"][-1]


def _r_three(report):
    report["r"] = report["certificate"]["r"] = 3


# alterations of the brute-force certificate of DEPENDENT_F3
BRUTEFORCE_ALTERATIONS = {
    "not-vanishing": _set_annihilator(ANNIHILATOR_F3.replace("2*x3", "x3")),
    "zero": _set_annihilator("0"),
    # the square of the annihilator, of degree 6 above the Perron cap 4
    "above-cap": _set_annihilator(
        "x1^6 + 2*x1^5 + 2*x1^4*x2 + 2*x1^3*x2 + x1^3*x3 + x1^2*x2^2 + 2*x1^3 + 2*x1^2*x2"
        " + x1^2*x3 + x1*x2*x3 + x1^2 + x1*x3 + x3^2"),
    "extension-dropped": _drop_extension,
    # a subset of 3 <= n = 3 members is not dependent by counting
    "reason-within-n": _reason_entry,
    "chain-shortened": _short_chain,
    "r-raised": _r_three,
}


def _bruteforce_f3_report(tmp_path, capsys):
    """(report, family path) of the honest trdeg report of DEPENDENT_F3."""
    family = dump(tmp_path, "f3.json", DEPENDENT_F3)
    code, out, _ = run(capsys, ["trdeg", family])
    report = json.loads(out)
    cert = report["certificate"]
    assert code == 0 and (cert["mode"], cert["basis"]) == ("bruteforce", [0, 1])
    assert cert["witness"]["dependent_extensions"] == [
        {"subset": [0, 1, 2], "cap": 4, "annihilator": ANNIHILATOR_F3}]
    return report, family


@pytest.mark.parametrize("name", sorted(BRUTEFORCE_ALTERATIONS))
def test_verify_rejects_an_altered_bruteforce_certificate(tmp_path, capsys, name):
    report, family = _bruteforce_f3_report(tmp_path, capsys)
    got = _verify_edited(tmp_path, capsys, report, family, BRUTEFORCE_ALTERATIONS[name])
    assert got == _rejected("certificate failed")


def test_verify_accepts_a_bruteforce_annihilator_that_is_not_minimal(tmp_path, capsys):
    # x1 times the annihilator has degree 4, within the cap: the verifier
    # checks vanishing and the cap, not minimality
    report, family = _bruteforce_f3_report(tmp_path, capsys)
    edit = _set_annihilator("x1^4 + x1^3 + x1^2*x2 + x1^2 + 2*x1*x3")
    code, verdict = _verify_edited(tmp_path, capsys, report, family, edit)
    assert (code, verdict["verified"]) == (0, True)


def test_verify_checks_an_image_certificate_on_the_expanded_images(tmp_path, capsys):
    # the image certificate of varmaps._certify's small-field fallback, the
    # trdeg of the expanded images, is checked on those images
    fam = {"field": {"kind": "prime", "p": 101}, "nvars": 3, "polys": ["x1*x2", "x2 + x3"]}
    path = dump(tmp_path, "family.json", fam)
    code, out, _ = run(capsys, ["faithful", path, "--kind", "phi"])
    assert code == 0
    report = json.loads(out)
    mp = varmaps.map_from_json_dict(report["result"]["map"])
    fs = [P(text, 3, FieldSpec("prime", 101)) for text in fam["polys"]]
    cert = pitkit.trdeg([mp.apply(f) for f in fs]).to_json_dict()
    assert cert["witness"]["method"] != "evaluated-jacobian-meets-upper-bound"

    def expanded(report):
        report["result"]["image_certificate"] = cert

    code, verdict = _verify_edited(tmp_path, capsys, report, path, expanded)
    assert (code, verdict["verified"]) == (0, True)
    for basis in ([1, 0], [0]):
        def altered(report):
            expanded(report)
            report["result"]["image_certificate"]["basis"] = basis

        got = _verify_edited(tmp_path, capsys, report, path, altered)
        assert got == _rejected("image certificate failed"), basis


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


def _cli_in_subprocess(args, seconds=30, memory=None):
    """`python -m pitkit.cli args` running the pitkit under test, with a
    timeout, so that a regression to a hang fails the test instead of
    stalling the suite.  With memory, the child limits its own address
    space to that many bytes (RLIMIT_AS) before it imports pitkit."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    run = ["-m", "pitkit.cli"]
    if memory is not None:
        run = ["-c", "import resource, runpy; "
               "resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
               "runpy.run_module('pitkit.cli', run_name='__main__')" % (memory, memory)]
    return subprocess.run(
        [sys.executable, *run, *args],
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


@pytest.mark.parametrize("delta", [7, 8])
def test_pit_and_verify_answer_the_lifted_identity_at_paper_scale(tmp_path, delta):
    # the depth-3 identity lifted to degree delta in n = 2 delta variables:
    # at p = 5 the Vandermonde maps merge variables for every c, and the
    # search used to decide each of those candidates on its full images
    # (about 24 s at delta = 7 and over 300 s at delta = 8, over Q)
    C = lift_identity(depth3_identity(Q), delta)
    path = dump(tmp_path, "lifted.json", C.to_json_dict())
    proc = _cli_in_subprocess(["pit", path], seconds=60)
    assert proc.returncode == 0 and json.loads(proc.stdout)["verdict"]["outcome"] == "zero"
    report = dump(tmp_path, "report.json", proc.stdout)
    proc = _cli_in_subprocess(["verify", report, "--against", path], seconds=60)
    assert proc.returncode == 0 and json.loads(proc.stdout)["verified"] is True


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


def test_an_oversized_annihilator_search_answers_in_bounded_memory(tmp_path):
    # {x1, x2, x3} at cap 60 has 39,711 columns, under the default budget.
    # The dense map of every column ran out of a 2 GB address space (an
    # uncaught MemoryError), and verify of the absent report reached 7.6 GB
    family = dump(tmp_path, "vars.json", {"field": {"kind": "rational"}, "nvars": 3,
                                          "polys": ["x1", "x2", "x3"]})
    proc = _cli_in_subprocess(["annihilator", family, "--cap", "60"], 60, 2 << 30)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["found"] is False and report["config"]["cap"] == 60
    path = dump(tmp_path, "absent.json", proc.stdout)
    proc = _cli_in_subprocess(["verify", path, "--against", family], 60, 2 << 30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verified"] is True


def test_an_annihilator_search_that_keeps_too_many_entries_exits_four(tmp_path):
    # {x1 + x2 + x3} at cap 40,000 has 40,001 columns, under the default
    # budget, but column j, (x1 + x2 + x3)^j, has comb(j + 2, 2) terms, and
    # the search keeps every column
    family = dump(tmp_path, "sum.json", {"field": {"kind": "prime", "p": 101}, "nvars": 3,
                                         "polys": ["x1 + x2 + x3"]})
    report = {"annihilator": None, "command": "annihilator",
              "config": {"budget_columns": 50000, "cap": 40000}, "found": False, "m": 1}
    report = dump(tmp_path, "absent.json", report)
    for args in (["verify", report, "--against", family],
                 ["annihilator", family, "--cap", "40000"]):
        proc = _cli_in_subprocess(args, 20, 2 << 30)
        assert proc.returncode == 4 and proc.stdout == "", (args, proc.stderr)
        assert json.loads(proc.stderr)["error"] == (
            "the annihilator's columns hold more than %d entries" % MAX_STREAM_ENTRIES)


def test_trdeg_of_a_low_degree_dependency_under_a_high_perron_cap(tmp_path):
    # the last member is the product of the other two, so the Jacobian gate
    # fails over F_101 and trdeg decides each subset by annihilator search.
    # delta = 7 gives the three members a Perron cap of 49 (22,100 columns,
    # under the budget), and the dependency sits at degree 2
    family = dump(tmp_path, "fam.json", {"field": {"kind": "prime", "p": 101}, "nvars": 3,
                                         "polys": ["x1^5 + x2", "x2*x3",
                                                   "x1^5*x2*x3 + x2^2*x3"]})
    proc = _cli_in_subprocess(["trdeg", family], 20, 2 << 30)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["r"], report["exact"], report["certificate"]["mode"]) == (2, True, "bruteforce")
    path = dump(tmp_path, "report.json", proc.stdout)
    proc = _cli_in_subprocess(["verify", path, "--against", family], 20, 2 << 30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verified"] is True


def _dense_family(tmp_path, degree, field):
    """Four dense polynomials in x1..x4, every monomial of total degree at
    most degree (70 for quartics, 210 for sextics) in itertools.product
    order, coefficients drawn from 1..9 by random.Random(3)."""
    rng = random.Random(3)
    monos = [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) <= degree]
    polys = [" + ".join("%d*x1^%d*x2^%d*x3^%d*x4^%d" % (rng.randint(1, 9), *e) for e in monos)
             for _ in range(4)]
    return dump(tmp_path, "dense%d.json" % degree,
                {"field": field.to_json(), "nvars": 4, "polys": polys})


@pytest.mark.parametrize("field", [Q, FieldSpec("prime", (1 << 61) - 1)], ids=["Q", "F2^61-1"])
def test_the_symbolic_rank_of_four_dense_quartics_is_fast(tmp_path, field):
    family = _dense_family(tmp_path, 4, field)
    start = time.perf_counter()
    proc = _cli_in_subprocess(["trdeg", family], 30)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 3
    report = json.loads(proc.stdout)
    assert (report["r"], report["certificate"]["mode"]) == (4, "jacobian")


def test_a_symbolic_rank_past_its_budget_exits_four(tmp_path):
    # four dense sextics take about 5 * 10^7 term products, past the budget
    family = _dense_family(tmp_path, 6, FieldSpec("prime", (1 << 61) - 1))
    witness = {"method": "symbolic-rank", "pivot_rows": [0, 1, 2, 3],
               "pivot_cols": [0, 1, 2, 3], "max_degree": 6}
    report = dump(tmp_path, "report.json", {
        "command": "trdeg", "r": 4,
        "certificate": {"r": 4, "mode": "jacobian", "basis": [0, 1, 2, 3], "witness": witness}})
    for args in (["trdeg", family], ["verify", report, "--against", family]):
        proc = _cli_in_subprocess(args, 30)
        assert proc.returncode == 4 and proc.stdout == "", (args, proc.stderr)
        assert json.loads(proc.stderr)["error"] == (
            "the symbolic Jacobian rank takes more than %d term products" % MAX_JACOBIAN_PRODUCTS)


def test_verify_searches_an_absent_annihilator_within_its_own_budget(tmp_path):
    # cap 1000 over three members is about 1.7 * 10^8 columns; the report's
    # budget of 10^9 would let verify enumerate them all
    family = dump(tmp_path, "vars.json", {"field": {"kind": "rational"}, "nvars": 3,
                                          "polys": ["x1", "x2", "x3"]})
    report = {"command": "annihilator", "config": {"cap": 1000, "budget_columns": 10 ** 9},
              "found": False, "annihilator": None, "m": 3}
    proc = _cli_in_subprocess(["verify", dump(tmp_path, "report.json", report),
                               "--against", family], seconds=20)
    assert proc.returncode == 4 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == (
        "monomial basis has 167668501 columns, budget is 50000")


def test_verify_bounds_a_found_annihilator_by_its_own_budget(tmp_path):
    # x1^1000000 - x2 under a cap of 10^12: substituting it built the
    # powers of the members up to 10^6 and ran out of memory
    family = dump(tmp_path, "pair.json", {"field": {"kind": "rational"}, "nvars": 2,
                                          "polys": ["x1 + x2", "x1*x2"]})
    report = {"command": "annihilator", "config": {"cap": 10 ** 12, "budget_columns": 50000},
              "found": True, "annihilator": "x1^1000000 - x2", "m": 2}
    proc = _cli_in_subprocess(["verify", dump(tmp_path, "report.json", report),
                               "--against", family], 20, 2 << 30)
    assert proc.returncode == 4 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == (
        "monomial basis has 500001500001 columns, budget is 50000")


def test_verify_refuses_a_faithful_map_whose_powers_of_c_are_too_large(tmp_path, capsys):
    # over Q the map's columns hold c^e for exponents below p; with p near
    # 10^12 they would have about 10^12 bits
    family = dump(tmp_path, "fam.json", {"field": {"kind": "rational"}, "nvars": 3,
                                         "polys": ["x1*x2 + x3", "x2^2 - x1"]})
    code, out, _ = run(capsys, ["faithful", family, "--kind", "psi"])
    assert code == 0
    report = json.loads(out)
    report["result"]["map"].update(p=1000000000039, D1=999999999989)
    proc = _cli_in_subprocess(["verify", dump(tmp_path, "report.json", report),
                               "--against", family], 20, 2 << 30)
    assert proc.returncode == 4 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == (
        "a map's powers of c may exceed the limit of 1048576 bits")


@pytest.mark.parametrize("args", [
    ["--kind", "any-char", "--n", "2", "--d", "1", "--r", "100000000", "--delta", "10"],
    ["--kind", "depth4", "--n", "2", "--delta", "1", "--k", "1000000000", "--s", "1", "--R", "1"],
], ids=["any-char", "depth4"])
def test_hitting_set_refuses_a_schedule_power_before_building_it(args):
    # delta^(r + 1) and 2^(2 (k + 1)) were built outside the schedule's
    # power check, and each call ran past 30 s
    proc = _cli_in_subprocess(["hitting-set", *args], seconds=30)
    assert proc.returncode == 4 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "a schedule size exceeds the limit of 1048576 bits"


def test_hitting_set_with_delta_one_keeps_a_huge_r():
    # a base of 1 is 1 for every exponent: this schedule is small
    proc = _cli_in_subprocess(["hitting-set", "--kind", "any-char", "--n", "2", "--d", "1",
                               "--r", "100000000", "--delta", "1", "--max-points", "2"])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3


@pytest.mark.parametrize("stderr", [subprocess.PIPE, subprocess.STDOUT], ids=["apart", "2>&1"])
def test_a_closed_stdout_exits_four_without_a_traceback(stderr):
    # `pitkit hitting-set ... | head -1`: the reader closes the pipe after
    # the header; the stream, about 1 MB, cannot all fit in the pipe first
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pitkit.cli", "hitting-set", "--kind", "depth4", "--n", "3",
         "--delta", "2", "--k", "2", "--s", "2", "--max-points", "30000"],
        stdout=subprocess.PIPE, stderr=stderr, text=True, env=env)
    assert json.loads(proc.stdout.readline())["command"] == "hitting-set"
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 4
    assert not err


def _squared(times):
    """The outer dag y^(2^times) - y^(2^times), zero, by repeated squaring."""
    nodes = [{"op": "input", "var": 0}]
    while len(nodes) <= times:
        nodes.append({"op": "mul", "args": [len(nodes) - 1, len(nodes) - 1]})
    nodes += [{"op": "const", "value": "-1"}, {"op": "mul", "args": [times + 1, times]},
              {"op": "add", "args": [times, times + 2]}]
    return {"nodes": nodes, "output": times + 3}


@pytest.mark.parametrize("kind", ["composed", "one-row depth4", "map images"])
def test_a_walk_over_q_is_bounded_before_it_starts(tmp_path, kind):
    # composed, n = 2 and trdeg 1 (w = 2 >= n), or one row: the walk runs
    # over the circuit's own simplex of degree about 4 * 10^5, where the
    # inner x1^100000 x2^100000 + x1 has values of millions of bits.  map
    # images, n = 3 and trdeg 1: the walk runs over the images of a map,
    # where y^(2^17) has values of millions of bits.  Each call ran past
    # 30 s on its first 3,000 points
    if kind == "composed":
        # (y + 1)(y - 1) - y^2 + 1, zero
        nodes = [{"op": "input", "var": 0}, {"op": "const", "value": "1"},
                 {"op": "const", "value": "-1"}, {"op": "add", "args": [0, 1]},
                 {"op": "add", "args": [0, 2]}, {"op": "mul", "args": [3, 4]},
                 {"op": "mul", "args": [2, 0, 0]}, {"op": "add", "args": [5, 6, 1]}]
        obj = {"kind": "composed", "field": {"kind": "rational"}, "nvars": 2,
               "inputs": ["x1^100000*x2^100000 + x1"], "outer": {"nodes": nodes, "output": 7}}
    elif kind == "one-row depth4":
        obj = {"kind": "depth4", "field": {"kind": "rational"}, "nvars": 2, "delta": 200000,
               "rows": [["x1^100000*x2^100000 + x1"]]}
    else:
        obj = {"kind": "composed", "field": {"kind": "rational"}, "nvars": 3,
               "inputs": ["x1 + x2 + x3"], "outer": _squared(17)}
    proc = _cli_in_subprocess(["pit", dump(tmp_path, "circuit.json", obj),
                               "--max-points", "3000"], seconds=30)
    assert proc.returncode == 4 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "dag values may exceed the limit of 1048576 bits"


def test_an_exact_walk_over_q_is_bounded_map_by_map(tmp_path):
    # the map-images circuit above in exact mode: the closed-form stream
    # bounds each map's walk, before its first point, as the adaptive
    # set bounds its one map.  Unbounded, 3,000 points ran past 25 s
    obj = {"kind": "composed", "field": {"kind": "rational"}, "nvars": 3,
           "inputs": ["x1 + x2 + x3"], "outer": _squared(17)}
    proc = _cli_in_subprocess(["pit", dump(tmp_path, "circuit.json", obj), "--mode", "exact",
                               "--max-points", "3000"], seconds=30)
    assert proc.returncode == 4 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "dag values may exceed the limit of 1048576 bits"


def _power_sum(e1, e2, extra):
    """The outer dag y1^e1 - y2^e2 (extra = None) or y1^e1 + y2^e2 +
    extra, both powers by repeated squaring."""
    k1, k2 = e1.bit_length() - 1, e2.bit_length() - 1
    nodes = _squarings([{"op": "input", "var": 0}], k1)
    nodes = _squarings(nodes + [{"op": "input", "var": 1}], k2)
    power1, power2 = k1, k1 + 1 + k2
    if extra is None:
        nodes += [{"op": "const", "value": "-1"}, {"op": "mul", "args": [power2 + 1, power2]}]
        terms = [power1, power2 + 2]
    else:
        nodes.append({"op": "const", "value": extra})
        terms = [power1, power2, power2 + 1]
    nodes.append({"op": "add", "args": terms})
    return {"nvars": 2, "nodes": nodes, "output": len(nodes) - 1}


@pytest.mark.parametrize("e1, e2, extra, outcome", [(4096, 1, "1", "nonzero"),
                                                     (2048, 32, None, "zero")],
                         ids=["y1^4096 + y2 + 1", "y1^2048 - y2^32"])
def test_a_walk_over_q_bounds_each_outer_input_by_its_own_inner(tmp_path, capsys, e1, e2,
                                                                 extra, outcome):
    # at (x1, x1^64) over Q the walk has degree 4096 (2048), coordinates of
    # 13 (12) bits, and inner values of 15 (14) bits for x1 and 834 (770)
    # for x1^64.  Each outer input bounded by the larger one gave 3,416,066
    # (1,576,961) bits, past MAX_VALUE_BITS (exit 4); each at its own gives
    # 61,442 (28,673), and the circuits answer
    obj = {"kind": "composed", "field": {"kind": "rational"}, "nvars": 1,
           "inputs": ["x1", "x1^64"], "outer": _power_sum(e1, e2, extra)}
    path = dump(tmp_path, "circuit.json", obj)
    code, out, _ = run(capsys, ["pit", path])
    verdict = json.loads(out)["verdict"]
    assert (code, verdict["outcome"], verdict["guarantee"]) == (
        {"zero": 0, "nonzero": 1}[outcome], outcome, "certified")
    if outcome == "zero":
        # the whole simplex of degree 2048 in one variable
        assert verdict["points_checked"] == 2049
    code, out, _ = run(capsys, ["verify", dump(tmp_path, "report.json", out), "--against", path])
    assert code == 0 and json.loads(out)["verified"]


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


def test_usage_errors_exit_three(tmp_path, capsys):
    # argparse's own exit code, 2, is that of an inconclusive verdict
    path = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    for argv in (["pit"], ["pit", path, "--mode", "nope"], ["bogus"], []):
        with pytest.raises(SystemExit) as exc:
            _parse_args(list(argv))
        usage = capsys.readouterr().err
        assert exc.value.code == 2 and usage.startswith("usage: pitkit")
        assert run(capsys, list(argv)) == (3, "", usage)
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0 and "usage: pitkit" in capsys.readouterr().out


def test_a_usage_error_exits_three_from_the_module_entry_point():
    proc = _cli_in_subprocess(["pit", "c.json", "--mode", "nope"])
    assert proc.returncode == 3 and proc.stdout == ""
    assert "invalid choice: 'nope'" in proc.stderr


def test_a_negative_max_points_exits_four(tmp_path, capsys):
    # (x1 + x2) x3 is nonzero: a walk cut before its first point would
    # answer inconclusive, and verify would accept that report
    outer = {"nodes": [{"op": "input", "var": 0}, {"op": "input", "var": 1},
                       {"op": "mul", "args": [0, 1]}], "output": 2}
    path = dump(tmp_path, "c.json", {"kind": "composed", "field": {"kind": "rational"},
                                     "nvars": 3, "inputs": ["x1 + x2", "x3"], "outer": outer})
    code, out, err = run(capsys, ["pit", path, "--max-points", "-1"])
    assert (code, out) == (4, "") and "max_points" in json.loads(err)["error"]
    code, out, _ = run(capsys, ["pit", path, "--max-points", "0"])
    report = json.loads(out)
    assert code == 2 and report["verdict"]["points_checked"] == 0
    report["config"]["max_points"] = -1
    forged = dump(tmp_path, "forged.json", report)
    assert run(capsys, ["verify", forged, "--against", path])[:2] == (4, "")
    code, out, err = run(capsys, ["hitting-set", "--kind", "depth4", "--n", "3", "--delta", "1",
                                  "--k", "2", "--s", "1", "--max-points", "-1"])
    assert (code, out) == (4, "") and "max_points" in json.loads(err)["error"]


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


@pytest.mark.parametrize("field", [Q, FieldSpec("prime", (1 << 61) - 1)], ids=["Q", "F2^61-1"])
def test_exact_psi_search_skips_whole_primes_below_the_input_trdeg(tmp_path, field):
    # trdeg 3 in 3 variables: at p = 2 and p = 3 every c has linear rank
    # below 3 (generic ranks 1 and 2), and the exact c sample per prime is
    # the whole h1_size, so without the whole-prime screen the search never
    # reaches p = 5.  Each skipped prime counts its sample: 2 * h1_size + 2
    fam = dump(tmp_path, "fam.json", {"field": field.to_json(), "nvars": 3,
                                      "polys": ["x1 + x2^2", "x2*x3", "x1^2 + x3"]})
    proc = _cli_in_subprocess(["faithful", fam, "--kind", "psi", "--mode", "exact"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["map"]["p"], field.scalar_from_json(result["map"]["c"])) == (5, 2)
    assert result["candidates_tried"] == 7616996750131214
    report = dump(tmp_path, "report.json", proc.stdout)
    assert _cli_in_subprocess(["verify", report, "--against", fam]).returncode == 0


# faithful {x1 - x3} --kind psi --mode exact over F_(2^61-1), n = 4: at p = 2
# sigma_2 sends x1 - x3 to 0, and the candidate stream skips the rest of the
# prime's exact c sample after its first miss.  The report is the one the
# search printed when it rejected each of those candidates in turn
FROZEN_EXACT_PSI_X1_MINUS_X3 = (
    '{\n'
    '  "command": "faithful",\n'
    '  "config": {\n'
    '    "kind": "psi",\n'
    '    "mode": "exact",\n'
    '    "r": null,\n'
    '    "seed": 0\n'
    '  },\n'
    '  "result": {\n'
    '    "candidates_tried": 2359299,\n'
    '    "image_certificate": {\n'
    '      "basis": [\n'
    '        0\n'
    '      ],\n'
    '      "mode": "jacobian",\n'
    '      "r": 1,\n'
    '      "witness": {\n'
    '        "method": "evaluated-jacobian-meets-upper-bound",\n'
    '        "point": [\n'
    '          1675509233860888906,\n'
    '          30201455856404679\n'
    '        ],\n'
    '        "upper_bound": 1\n'
    '      }\n'
    '    },\n'
    '    "input_certificate": {\n'
    '      "basis": [\n'
    '        0\n'
    '      ],\n'
    '      "mode": "jacobian",\n'
    '      "r": 1,\n'
    '      "witness": {\n'
    '        "max_degree": 1,\n'
    '        "method": "symbolic-rank",\n'
    '        "pivot_cols": [\n'
    '          0\n'
    '        ],\n'
    '        "pivot_rows": [\n'
    '          0\n'
    '        ]\n'
    '      }\n'
    '    },\n'
    '    "map": {\n'
    '      "D1": 64,\n'
    '      "D2": 2,\n'
    '      "c": 2,\n'
    '      "field": {\n'
    '        "kind": "prime",\n'
    '        "p": 2305843009213693951\n'
    '      },\n'
    '      "kind": "psi",\n'
    '      "n": 4,\n'
    '      "p": 3,\n'
    '      "r": 1\n'
    '    }\n'
    '  }\n'
    '}\n'
)


def test_an_exact_psi_report_past_a_doomed_prime_is_frozen(tmp_path, capsys):
    fam = dump(tmp_path, "fam.json", {"field": {"kind": "prime", "p": (1 << 61) - 1},
                                      "nvars": 4, "polys": ["x1 - x3"]})
    code, out, _ = run(capsys, ["faithful", fam, "--kind", "psi", "--mode", "exact"])
    assert code == 0 and out == FROZEN_EXACT_PSI_X1_MINUS_X3


@pytest.mark.parametrize("polys", [["x1*x2", "x3*x4"], ["x1 - x3", "x2 - x4"], ["x1 - x3", "x2"]],
                         ids=["products", "differences", "difference-and-variable"])
def test_exact_psi_searches_past_a_doomed_prime_answer_and_verify(tmp_path, polys):
    # trdeg 2 in 4 variables: sigma_2 loses it, and walking the exact c
    # sample at p = 2 one candidate at a time did not end within 30 s
    fam = dump(tmp_path, "fam.json", {"field": {"kind": "prime", "p": (1 << 61) - 1},
                                      "nvars": 4, "polys": polys})
    proc = _cli_in_subprocess(["faithful", fam, "--kind", "psi", "--mode", "exact"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["map"]["p"], result["map"]["c"]) == (3, 2)
    report = dump(tmp_path, "report.json", proc.stdout)
    proc = _cli_in_subprocess(["verify", report, "--against", fam])
    assert proc.returncode == 0 and json.loads(proc.stdout)["verified"] is True


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
        '"kernel-empty", "subset": [0]}, {"cap": 2, "method": "kernel-empty", '
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
        '"kernel-empty", "subset": [0]}, {"cap": 2, "method": "kernel-empty", '
        '"subset": [0, 1]}], "method": "greedy-matroid-extension"}}, "map": {"D": 9, '
        '"I": [1, 2], "c": 1, "field": {"kind": "prime", "p": 2}, "kind": "phi", "n": '
        '3, "p": 2, "r": 2}}}'
    ),
    ('F2-3', 'trdeg'): (
        '{"certificate": {"basis": [0, 1], "mode": "bruteforce", "r": 2, "witness": '
        '{"dependent_extensions": [{"annihilator": "x1*x2 + x3", "cap": 9, "subset": '
        '[0, 1, 2]}], "independence_chain": [{"cap": 1, "method": '
        '"kernel-empty", "subset": [0]}, {"cap": 2, "method": "kernel-empty", '
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
        '"kernel-empty", "subset": [0]}, {"cap": 2, "method": "kernel-empty", '
        '"subset": [0, 1]}], "method": "greedy-matroid-extension"}}, "map": {"D": 28, '
        '"I": [1, 2], "c": 1, "field": {"kind": "prime", "p": 2}, "kind": "phi", "n": '
        '3, "p": 2, "r": 2}}}'
    ),
    ('F3-0', 'trdeg'): (
        '{"certificate": {"basis": [0, 1], "mode": "bruteforce", "r": 2, "witness": '
        '{"dependent_extensions": [{"annihilator": "x1*x2 + 2*x3", "cap": 9, "subset": '
        '[0, 1, 2]}], "independence_chain": [{"cap": 1, "method": '
        '"kernel-empty", "subset": [0]}, {"cap": 2, "method": '
        '"kernel-empty", "subset": [0, 1]}], "method": '
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
        '"kernel-empty", "subset": [0]}, {"cap": 2, "method": '
        '"kernel-empty", "subset": [0, 1]}], "method": '
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


def screen_tagged(report, caps):
    """report as printed while an evaluation screen decided some independent
    subsets before the annihilator search: their chain entries, of these
    caps, said "evaluation-full-rank"."""
    entry = '{"cap": %d, "method": "%s"'
    for cap in caps:
        assert entry % (cap, "kernel-empty") in report
        report = report.replace(entry % (cap, "kernel-empty"),
                                entry % (cap, "evaluation-full-rank"))
    return report


VERIFIED_BRUTEFORCE = {
    **FROZEN_BRUTEFORCE,
    ("F2-0", "trdeg-screen-tagged"): screen_tagged(FROZEN_BRUTEFORCE["F2-0", "trdeg"], [1]),
    ("F3-0", "phi-screen-tagged"): screen_tagged(FROZEN_BRUTEFORCE["F3-0", "phi"], [1, 2]),
}


@pytest.mark.parametrize("tag, call", sorted(VERIFIED_BRUTEFORCE))
def test_bruteforce_trdeg_reports_verify(tmp_path, capsys, tag, call):
    fam = bruteforce_family(tmp_path, tag)
    report = dump(tmp_path, "report.json", VERIFIED_BRUTEFORCE[tag, call])
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


# a number past Python's 4300-digit limit on int(): a coefficient, an
# exponent and a variable index
LONG_NUMBERS = ["x1 + " + "9" * 5000, "x1^" + "9" * 5000, "x" + "1" * 5000]


@pytest.mark.parametrize("text", LONG_NUMBERS, ids=["coefficient", "exponent", "variable"])
def test_a_number_too_long_for_int_in_a_family_exits_three(tmp_path, capsys, text):
    fam = dump(tmp_path, "fam.json", {"field": {"kind": "rational"}, "nvars": 1, "polys": [text]})
    code, out, err = run(capsys, ["trdeg", fam])
    assert (code, out) == (3, "")
    assert "a number of 5000 digits is too long" in json.loads(err)["error"]


@pytest.mark.parametrize("text", LONG_NUMBERS, ids=["coefficient", "exponent", "variable"])
def test_a_number_too_long_for_int_in_an_annihilator_report_exits_three(tmp_path, capsys,
                                                                         text):
    pair = dump(tmp_path, "pair.json", PAIR_FAMILY)
    code, out, _ = run(capsys, ["annihilator", pair, "--cap", "2"])
    report = json.loads(out)
    assert code == 0 and report["found"]
    report["annihilator"] = text
    code, out, err = run(capsys, ["verify", dump(tmp_path, "bad.json", report), "--against", pair])
    assert (code, out) == (3, "")
    assert "a number of 5000 digits is too long" in json.loads(err)["error"]


def test_verify_rejects_a_pit_witness_of_the_wrong_arity_as_malformed(tmp_path, capsys):
    dag = dump(tmp_path, "dag.json", Circuit.from_poly(P("x1*x2 + 1", 2)).to_json_dict())
    code, out, _ = run(capsys, ["pit", dag])
    report = json.loads(out)
    assert code == 1 and report["verdict"]["witness"] == ["0", "0"]
    report["verdict"]["witness"] = ["1"]
    code, out, err = run(capsys, ["verify", dump(tmp_path, "bad.json", report), "--against", dag])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "the witness has 1 coordinates, not 2"


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


_NEGATIVE_NVARS = {
    "dag": {"field": {"kind": "rational"}, "nvars": -1, "kind": "dag", "output": 0,
            "nodes": [{"op": "const", "value": 1}]},
    "composed": {"field": {"kind": "rational"}, "nvars": -1, "kind": "composed",
                 "inputs": ["1"], "outer": {"nodes": [{"op": "input", "var": 0}], "output": 0}},
    "depth4": {"field": {"kind": "rational"}, "nvars": -1, "kind": "depth4", "delta": 1,
               "rows": [["1"], ["2"]]},
}
_NEGATIVE_FAMILY = {"field": {"kind": "rational"}, "nvars": -1, "polys": ["1", "2"]}
_NVARS_ERROR = "'nvars' must be nonnegative, not -1"


@pytest.mark.parametrize("kind", sorted(_NEGATIVE_NVARS))
def test_circuit_with_a_negative_nvars_exits_three(tmp_path, capsys, kind):
    # constants only, so no variable index fails first
    code, out, err = run(capsys, ["pit", dump(tmp_path, "circ.json", _NEGATIVE_NVARS[kind])])
    assert (code, out) == (3, "")
    assert json.loads(err)["error"].endswith(_NVARS_ERROR)


@pytest.mark.parametrize("argv", [
    ["trdeg"], ["annihilator", "--cap", "1"], ["faithful", "--kind", "phi"],
    ["faithful", "--kind", "psi"], ["verify"],
], ids=["trdeg", "annihilator", "phi", "psi", "verify"])
def test_family_of_constants_with_a_negative_nvars_exits_three(tmp_path, capsys, argv):
    fam = dump(tmp_path, "fam.json", _NEGATIVE_FAMILY)
    if argv == ["verify"]:
        good = dump(tmp_path, "good.json", dict(_NEGATIVE_FAMILY, nvars=1))
        code, out, _ = run(capsys, ["trdeg", good])
        assert code == 0
        argv = ["verify", dump(tmp_path, "report.json", out), "--against", fam]
    else:
        argv = [argv[0], fam] + argv[1:]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"].endswith(_NVARS_ERROR)


@pytest.mark.parametrize("where", ["const", "witness", "value"])
@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("field", [Q, F101], ids=["Q", "F101"])
def test_a_boolean_scalar_exits_three(tmp_path, capsys, field, flag, where):
    # bool is an int in Python: true and false must not read as 1 and 0
    dag = {"field": field.to_json(), "nvars": 1, "kind": "dag", "output": 2,
           "nodes": [{"op": "input", "var": 0}, {"op": "const", "value": 1},
                     {"op": "add", "args": [0, 1]}]}
    circ = dump(tmp_path, "dag.json", dag)
    code, out, _ = run(capsys, ["pit", circ])
    assert code == 1
    if where == "const":
        dag["nodes"][1]["value"] = flag
        argv = ["pit", dump(tmp_path, "bad.json", dag)]
    else:
        report = json.loads(out)
        report["verdict"][where] = [flag] if where == "witness" else flag
        argv = ["verify", dump(tmp_path, "report.json", report), "--against", circ]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "the JSON boolean %s" % str(flag).lower() in json.loads(err)["error"]
    with pytest.raises(FieldError):
        field.scalar_from_json(flag)


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


# each command that reads a circuit file; {bad} holds a JSON list, {pit} and
# {depth4} are good reports of those commands
NOT_AN_OBJECT = {
    "pit": ["pit", "{bad}"],
    "depth4": ["depth4", "{bad}"],
    "verify-pit": ["verify", "{pit}", "--against", "{bad}"],
    "verify-depth4": ["verify", "{depth4}", "--against", "{bad}"],
}


@pytest.mark.parametrize("name", sorted(NOT_AN_OBJECT))
def test_a_circuit_file_that_is_not_an_object_exits_three(tmp_path, capsys, name):
    # exit 1 would read as a nonzero verdict
    files = {"bad": dump(tmp_path, "list.json", [1, 2])}
    for cmd, circ in [("pit", zero_composition()), ("depth4", shared_factor_depth4())]:
        circ = dump(tmp_path, cmd + "-in.json", circ.to_json_dict())
        files[cmd] = dump(tmp_path, cmd + ".json", run(capsys, [cmd, circ])[1])
    argv = [a.format(**files) for a in NOT_AN_OBJECT[name]]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "a circuit is a JSON object" in json.loads(err)["error"]


@pytest.mark.parametrize("cmd", ["pit", "trdeg", "verify"])
def test_deeply_nested_json_exits_three(tmp_path, capsys, cmd):
    deep = dump(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    zero = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    argv = ["verify", deep, "--against", zero] if cmd == "verify" else [cmd, deep]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "is not valid JSON" in json.loads(err)["error"]


# the whole indented text of one report, as json.dumps(sort_keys=True,
# indent=2) laid it out; zero_composition walks its own simplex of degree
# 4 in one variable (y2 at deg f^2 = 4, y1^2 at 2 * deg f = 4), 5 points
FROZEN_PIT_REPORT = """\
{
  "circuit_kind": "composed",
  "command": "pit",
  "config": {
    "R": null,
    "conjecture_R": false,
    "max_points": 200000,
    "mode": "adaptive",
    "seed": 0
  },
  "verdict": {
    "guarantee": "certified",
    "outcome": "zero",
    "points_checked": 5,
    "provenance": {
      "construction": "sparse-char0",
      "grid_truncated": false,
      "map": "identity",
      "mode": "adaptive",
      "points": "simplex",
      "w": 2
    },
    "value": null,
    "witness": null
  }
}
"""


def test_a_report_layout_is_frozen(tmp_path, capsys):
    path = dump(tmp_path, "zero.json", zero_composition().to_json_dict())
    assert run(capsys, ["pit", path]) == (0, FROZEN_PIT_REPORT, "")


# y1^2 - y2 at (x1, x1^2) over F_3, walked on its own simplex as the
# product bound 2 * 2 = 4 sized it: a grid of 5 values does not fit in F_3,
# so the whole field was walked and the answer was inconclusive
PRODUCT_BOUND_F3_REPORT = FROZEN_PIT_REPORT.replace(
    '"certified"', '"corpus"').replace('"zero"', '"inconclusive"').replace(
    '"points_checked": 5', '"points_checked": 3').replace(
    '"grid_truncated": false', '"grid_truncated": true').replace(
    '"points": "simplex"', '"points": "grid"')


def test_a_small_field_walk_sized_by_the_weighted_degree_is_whole(tmp_path, capsys):
    # the weighted bound is 2 (y1^2 at 2 * deg x1, y2 at deg x1^2): the
    # simplex of degree 2 in one variable is the whole of F_3, certified
    F3 = FieldSpec("prime", 3)
    C = ComposedCircuit(Circuit.from_poly(P("x1^2 - x2", 2, F3)),
                        [P("x1", 1, F3), P("x1^2", 1, F3)])
    path = dump(tmp_path, "f3.json", C.to_json_dict())
    code, out, err = run(capsys, ["pit", path])
    assert (code, err) == (0, "")
    assert out == FROZEN_PIT_REPORT.replace('"points_checked": 5', '"points_checked": 3')
    # the inconclusive report the product bound gave is not what a re-run
    # answers now
    old = dump(tmp_path, "old.json", PRODUCT_BOUND_F3_REPORT)
    code, out, _ = run(capsys, ["verify", old, "--against", path])
    assert code == 4
    assert json.loads(out)["detail"] == "re-run verdict differs"


# y2 - y1^2 at (x1 - x3, (x1 - x3)^2) with n = 4, as pitkit wrote it before
# a big-field miss was decided at one point: at p = 2, sigma_2 sends x1 - x3
# to 0, so c = 1 there misses and dooms the prime, and p = 3, c = 2 wins
SIGMA_DOOM_REPORTS = {
    "Q": """\
{
  "circuit_kind": "composed",
  "command": "pit",
  "config": {
    "R": null,
    "conjecture_R": false,
    "max_points": 200000,
    "mode": "adaptive",
    "seed": 0
  },
  "verdict": {
    "guarantee": "corpus",
    "outcome": "zero",
    "points_checked": 6,
    "provenance": {
      "construction": "sparse-char0",
      "grid_truncated": false,
      "image_certificate": {
        "basis": [
          0
        ],
        "mode": "jacobian",
        "r": 1,
        "witness": {
          "method": "evaluated-jacobian-meets-upper-bound",
          "point": [
            "-210085211",
            "560439575"
          ],
          "upper_bound": 1
        }
      },
      "map": {
        "D1": 25,
        "D2": 2,
        "c": "2",
        "field": {
          "kind": "rational"
        },
        "kind": "psi",
        "n": 4,
        "p": 3,
        "r": 1
      },
      "mode": "adaptive",
      "points": "simplex"
    },
    "value": null,
    "witness": null
  }
}
""",
    "F2^61-1": """\
{
  "circuit_kind": "composed",
  "command": "pit",
  "config": {
    "R": null,
    "conjecture_R": false,
    "max_points": 200000,
    "mode": "adaptive",
    "seed": 0
  },
  "verdict": {
    "guarantee": "corpus",
    "outcome": "zero",
    "points_checked": 6,
    "provenance": {
      "construction": "sparse-char0",
      "grid_truncated": false,
      "image_certificate": {
        "basis": [
          0
        ],
        "mode": "jacobian",
        "r": 1,
        "witness": {
          "method": "evaluated-jacobian-meets-upper-bound",
          "point": [
            1675509233860888906,
            30201455856404679
          ],
          "upper_bound": 1
        }
      },
      "map": {
        "D1": 25,
        "D2": 2,
        "c": 2,
        "field": {
          "kind": "prime",
          "p": 2305843009213693951
        },
        "kind": "psi",
        "n": 4,
        "p": 3,
        "r": 1
      },
      "mode": "adaptive",
      "points": "simplex"
    },
    "value": null,
    "witness": null
  }
}
""",
}


@pytest.mark.parametrize("field", [Q, FieldSpec("prime", (1 << 61) - 1)], ids=["Q", "F2^61-1"])
def test_a_report_through_a_rejected_candidate_and_a_doomed_prime_is_frozen(
        tmp_path, capsys, monkeypatch, field):
    rejected, dooms = [], []
    real_certify, real_dooms = varmaps._certify, varmaps._sigma_dooms

    def certify(fs, J, mp, *args):
        cert = real_certify(fs, J, mp, *args)
        if cert is None:
            rejected.append((mp.p, mp.c))
        return cert

    def sigma_dooms(fs, J, mp, *args):
        dooms.append((mp.p, real_dooms(fs, J, mp, *args)))
        return dooms[-1][1]

    monkeypatch.setattr(varmaps, "_certify", certify)
    monkeypatch.setattr(varmaps, "_sigma_dooms", sigma_dooms)
    C = ComposedCircuit(Circuit.from_poly(P("x2 - x1^2", 2, field)),
                        [P("x1 - x3", 4, field), P("x1^2 - 2*x1*x3 + x3^2", 4, field)])
    code, out, err = run(capsys, ["pit", dump(tmp_path, "c.json", C.to_json_dict())])
    assert (code, out, err) == (0, SIGMA_DOOM_REPORTS["Q" if field is Q else "F2^61-1"], "")
    # the report went through the changed path, or the freeze shows nothing
    assert rejected == [(2, field.one())] and dooms == [(2, True)]


DISPATCH_ARGVS = [
    ["pit", "c.json", "--mode", "exact", "--seed", "3", "--max-points", "10", "--R", "2",
     "--conjecture-R"],
    ["trdeg", "f.json", "--mode", "jacobian", "--seed", "1", "--budget-columns", "9"],
    ["annihilator", "f.json", "--cap", "2", "--budget-columns", "9"],
    ["depth4", "c.json", "--seed", "1", "--budget-expand", "5", "--skip-minimal"],
    ["hitting-set", "--kind", "depth4", "--field", "101", "--n", "3", "--d", "2", "--r", "2",
     "--delta", "2", "--ell", "1", "--k", "2", "--s", "2", "--R", "1", "--conjecture-R",
     "--max-points", "5"],
    ["faithful", "f.json", "--kind", "psi", "--r", "2", "--mode", "exact", "--seed", "4"],
    ["verify", "r.json", "--against", "f.json"],
    ["pit", "c.json", "--max-p", "5"],
    ["pit", "--seed", "1", "--", "c.json"],
    ["pit", "--", "--c.json"],
    [], ["-h"], ["--help"], ["bogus"],
    ["pit"], ["pit", "-h"], ["pit", "a", "b"], ["pit", "a", "--bogus"],
    ["pit", "a", "--mode", "nope"], ["verify", "r.json"],
]


def _parsed(capsys, parse, argv):
    try:
        result = parse(list(argv))
    except SystemExit as e:
        result = ("exit", e.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda a: " ".join(a) or "no-arguments")
def test_direct_dispatch_parses_as_the_top_level_parser(capsys, argv):
    ap, _ = _build_parser()
    assert _parsed(capsys, _parse_args, argv) == _parsed(capsys, ap.parse_args, argv)


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


def test_console_script_entry_point_without_an_install(capsys):
    # what an install would put on PATH: the [project.scripts] entry
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["pitkit"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "hitting-set" in capsys.readouterr().out
