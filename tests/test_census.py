"""A census of tiny circuits: every circuit of a small family, not a sample,
goes through pit_circuit and is checked against its expansion.  The
families are depth-4 circuits with linear factors, composed circuits with
one- or two-term inners, and dags of up to three gates.

The family: k rows of s linear factors a_1 x_1 + ... + a_n x_n + a_0, every
a_i in {-1, 0, 1} and some a_i with i >= 1 nonzero, rows and circuits taken
as multisets (the sum does not depend on their order).  A one-row circuit
(k = 1) is a product of nonzero factors, for which no depth-4 family
exists, and pit walks its own simplex.  For n = 2 every map has w >= n
variables and pit walks the circuit's own simplex too; the n = 3, k = 2
slice has w = 2 < n, so the map search runs.

Reports also make the round trip through the CLI: `pitkit pit`, then
`pitkit verify` of the report (accepted), of the report with its outcome
flipped (rejected) and, for a zero found through a map, of the report
rewritten to claim the identity simplex (rejected).  The round trip costs
a few file writes and reads per report, so it takes every zero,
inconclusive and map-search report, and every STRIDE-th nonzero report of
the identity slices; the full round trip of every circuit takes about 20 s.

A composed circuit C(f_1, ..., f_m) takes its inners from the nonzero
polynomials of one or two terms of degree <= 2 with coefficients -1 or 1,
and one of three outers: y1 + y2 over unordered pairs, y1^2 - y2 over
ordered pairs and the zero compositions (f, f^2), and y1*y2 - y3 over
unordered pairs with y3 = f1*f2 (zero) and f1*f2 + 1 (which is a zero inner
when f1*f2 = -1).  A dag has the leaves x_1..x_n, 1 and -1, and each gate
adds or multiplies two earlier nodes; its output is the last gate.  A
search that ends in SearchExhausted or BudgetExceeded (the CLI's exit 4)
is counted, not failed.  The tier-1 slices are capped; the full census's
counts are kept in CHANGES.md.
"""

import itertools
import json
import math

import pytest

from pitkit.circuits import Circuit, ComposedCircuit, Depth4Circuit
from pitkit.cli import main
from pitkit.fields import FieldSpec
from pitkit.hitting import pit_circuit
from pitkit.polynomials import BudgetExceeded, SparsePoly, poly_from_text
from pitkit.varmaps import SearchExhausted

FIELDS = {"F2": FieldSpec("prime", 2), "F3": FieldSpec("prime", 3), "Q": FieldSpec("rational")}

# (n, k, s, the number of circuits taken in enumeration order, or None for all)
SLICES = [(2, 1, 1, None), (2, 1, 2, None), (3, 1, 2, 60), (2, 2, 1, None),
          (2, 3, 1, None), (2, 2, 2, 60), (3, 2, 1, 60)]

# the CLI's default pit config, as a report holds it
CONFIG = {"mode": "adaptive", "seed": 0, "max_points": 200_000, "R": None,
          "conjecture_R": False}

STRIDE = 32


def linear_factors(field, n):
    """The distinct nonconstant polynomials of degree 1 whose coefficients
    are -1, 0 or 1, in a fixed order."""
    out, seen = [], set()
    for coeffs in itertools.product((0, 1, -1), repeat=n + 1):
        terms = {}
        for i, c in enumerate(coeffs):
            if field.is_zero(field.from_int(c)):
                continue
            e = [0] * n
            if i:
                e[i - 1] = 1
            terms[tuple(e)] = field.from_int(c)
        f = SparsePoly(field, n, terms)
        if f.degree() == 1 and f not in seen:
            seen.add(f)
            out.append(f)
    return out


def census(field, n, k, s, cap):
    rows = itertools.combinations_with_replacement(linear_factors(field, n), s)
    circuits = itertools.combinations_with_replacement(list(rows), k)
    for rs in itertools.islice(circuits, cap):
        yield Depth4Circuit(field, n, 1, rs)


def cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def forged_identity(report, n, d):
    """A zero report of a map search rewritten to claim that no map was
    needed: the circuit's own certified simplex of degree d."""
    verdict, prov = report["verdict"], report["verdict"]["provenance"]
    provenance = {
        "construction": prov["construction"], "mode": "adaptive", "map": "identity",
        "w": prov["map"]["r"] + 1, "grid_truncated": False, "points": "simplex",
    }
    return dict(report, verdict=dict(verdict, guarantee="certified", provenance=provenance,
                                     points_checked=math.comb(d + n, n)))


def flipped(report, n):
    """The report with its outcome flipped: zero to nonzero (witness at the
    origin), anything else to zero."""
    if report["verdict"]["outcome"] == "zero":
        change = {"outcome": "nonzero", "witness": [0] * n, "value": 1}
    else:
        change = {"outcome": "zero", "witness": None, "value": None}
    return dict(report, verdict=dict(report["verdict"], **change))


def round_trip(capsys, tmp_path, C, verdict, identity):
    """`pitkit pit` on C gives verdict; `pitkit verify` accepts its report
    and rejects the forgeries."""
    n = C.nvars
    circ_path = str(tmp_path / "circuit.json")
    report_path = str(tmp_path / "report.json")
    with open(circ_path, "w") as fh:
        fh.write(json.dumps(C.to_json_dict()))
    _, out = cli(capsys, ["pit", circ_path])
    report = json.loads(out)
    assert report["verdict"] == verdict
    forged = [flipped(report, n)]
    if verdict["outcome"] == "zero" and not identity:
        forged.append(forged_identity(report, n, C.degree_bound()))
    for rep, want in [(report, 0)] + [(f, 4) for f in forged]:
        with open(report_path, "w") as fh:
            fh.write(json.dumps(rep))
        code, out = cli(capsys, ["verify", report_path, "--against", circ_path])
        assert code == want and json.loads(out)["verified"] is (want == 0)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_census_of_linear_depth4_circuits(tmp_path, capsys, name):
    field = FIELDS[name]
    for n, k, s, cap in SLICES:
        for i, C in enumerate(census(field, n, k, s, cap)):
            tag = (n, k, s, C.to_json_dict()["rows"])
            try:
                v = pit_circuit(C, **CONFIG)
            except SearchExhausted:
                # over F_2 the only c is 1, and a map search may find no map
                assert name == "F2" and n == 3, tag
                continue
            if v.outcome == "inconclusive":
                # a grid truncated to F_2 proves nothing either way
                assert name == "F2" and v.provenance["grid_truncated"], tag
            else:
                assert (v.outcome == "zero") == C.expand().is_zero, tag
            # the map search runs exactly when its maps have w < n variables
            identity = v.provenance["map"] == "identity"
            assert identity == (n == 2 or k != 2), tag
            if v.outcome != "nonzero" or not identity or i % STRIDE == 0:
                verdict = json.loads(json.dumps(v.to_json_dict(field)))
                round_trip(capsys, tmp_path, C, verdict, identity)


# (n, outer, inner terms, the number of circuits taken, or None for all);
# the full census runs COMPOSED_FULL and DAG_FULL with no cap
COMPOSED_SLICES = [(2, "x1 + x2", 1, None), (2, "x1^2 - x2", 1, None),
                   (2, "x1*x2 - x3", 1, None), (2, "x1 + x2", 2, 150),
                   (2, "x1*x2 - x3", 2, 150), (3, "x1^2 - x2", 2, 100)]
COMPOSED_FULL = [(n, outer, 2, None) for n in (2, 3)
                 for outer in ("x1 + x2", "x1^2 - x2", "x1*x2 - x3")]
# (n, gates, the number of circuits taken, or None for all)
DAG_SLICES = [(2, 1, None), (2, 2, None), (2, 3, 400)]
DAG_FULL = [(n, g, None) for n in (1, 2) for g in (1, 2, 3)]


def small_inners(field, n, terms):
    """The distinct nonzero polynomials of at most `terms` terms of degree
    <= 2 whose coefficients are -1 or 1, in a fixed order."""
    monos = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
    monos.sort(key=lambda e: (sum(e), e))
    out, seen = [], set()
    for k in range(1, terms + 1):
        for ms in itertools.combinations(monos, k):
            for cs in itertools.product((1, -1), repeat=k):
                f = SparsePoly(field, n, {m: field.from_int(c) for m, c in zip(ms, cs)})
                if f and f not in seen:
                    seen.add(f)
                    out.append(f)
    return out


def composed_census(field, n, outer, terms, cap):
    inners = small_inners(field, n, terms)
    m = 3 if "x3" in outer else 2
    C = Circuit.from_poly(poly_from_text(outer, field, m))
    if outer == "x1 + x2":
        tuples = itertools.combinations_with_replacement(inners, 2)
    elif outer == "x1^2 - x2":
        tuples = itertools.chain(itertools.product(inners, repeat=2),
                                 ((f, f * f) for f in inners))
    else:
        one = SparsePoly.one(field, n)
        tuples = ((f, g, h) for f, g in itertools.combinations_with_replacement(inners, 2)
                  for h in (f * g, f * g + one))
    for fs in itertools.islice(tuples, cap):
        yield ComposedCircuit(C, fs)


def dag_census(field, n, gates, cap):
    leaves = [("input", i) for i in range(n)] + [("const", 1), ("const", -1)]

    def grow(nodes, left):
        if not left:
            yield Circuit(field, n, nodes, len(nodes) - 1)
            return
        for op in ("add", "mul"):
            for kids in itertools.combinations_with_replacement(range(len(nodes)), 2):
                yield from grow(nodes + [(op, kids)], left - 1)

    yield from itertools.islice(grow(leaves, gates), cap)


def check(C, field_name, tally):
    """pit_circuit on C against its expansion; tally counts the outcomes."""
    try:
        v = pit_circuit(C, **CONFIG)
    except (SearchExhausted, BudgetExceeded):
        tally["exit 4"] = tally.get("exit 4", 0) + 1
        return
    tally[v.outcome] = tally.get(v.outcome, 0) + 1
    tag = json.dumps(C.to_json_dict())
    if v.outcome == "inconclusive":
        # only a grid truncated to a small field proves nothing
        assert field_name != "Q", tag
        assert v.provenance.get("grid_truncated") or v.provenance.get("points") == "grid", tag
    else:
        assert (v.outcome == "zero") == C.expand().is_zero, tag
    if v.outcome == "nonzero":
        assert C.evaluate(v.witness) == v.value and not C.field.is_zero(v.value), tag


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_census_of_small_composed_circuits(name):
    tally = {}
    for n, outer, terms, cap in COMPOSED_SLICES:
        for C in composed_census(FIELDS[name], n, outer, terms, cap):
            check(C, name, tally)
    # every slice has zero compositions, and Q answers every circuit
    assert tally.get("zero", 0) > 0 and tally.get("nonzero", 0) > 0
    if name == "Q":
        assert set(tally) == {"zero", "nonzero"}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_census_of_small_dags(name):
    tally = {}
    for n, gates, cap in DAG_SLICES:
        for C in dag_census(FIELDS[name], n, gates, cap):
            check(C, name, tally)
    assert tally.get("zero", 0) > 0 and tally.get("nonzero", 0) > 0
    if name == "Q":
        assert set(tally) == {"zero", "nonzero"}
