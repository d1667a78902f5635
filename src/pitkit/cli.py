"""Command-line interface.

Subcommands: pit, trdeg, annihilator, depth4, hitting-set, faithful, verify.
Every command prints one JSON document (sorted keys, stable layout) with the
run configuration embedded, so identical invocations produce byte-identical
output.  Exit codes: 0 zero/success, 1 nonzero, 2 inconclusive, 3 malformed
input or command line, 4 other errors (budget, exhausted search, unsupported
field, bad parameters).

Input file formats:

* polynomial family: {"field": {...}, "nvars": n, "polys": ["x1^2 + x2", ...]}
* circuit: {"field": {...}, "nvars": n, "kind": "dag"|"depth4"|"composed", ...}

Polynomial text in input files uses the variables x1..xn only, integer or
num/den coefficients, and the operators + - * ^.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import depth4 as depth4mod
from . import hitting as hittingmod
from .circuits import (
    DEFAULT_EXPAND_BUDGET,
    ComposedCircuit,
    Depth4Circuit,
    _json_nvars,
    circuit_from_json_dict,
)
from .fields import FieldError, FieldSpec
from .independence import (
    DEFAULT_COLUMN_BUDGET,
    TrdegCertificate,
    _column_count,
    annihilator,
    is_evaluated,
    jacobian,
    trdeg,
    verify_evaluated_certificate,
    verify_trdeg_certificate,
)
from .polynomials import (
    BudgetExceeded,
    ParseError,
    poly_from_text,
    poly_to_text,
)
from .varmaps import (
    SearchExhausted,
    map_from_json_dict,
    search_kronecker_map,
    search_vandermonde_map,
)

EXIT_ZERO = 0
EXIT_NONZERO = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 3
EXIT_ERROR = 4


class _InputError(Exception):
    """Anything wrong with the user-supplied files or text."""


def _json_text(obj, indent: bool = True) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, or with
    indent=False as json.dumps(obj, sort_keys=True) does, except that an int
    too long for a decimal conversion (Python's int_max_str_digits limit,
    4300 digits by default) is written as its "0x..." hexadecimal string.

    json.dumps runs its C encoder only for indent=None; an indented report
    would go through the pure-Python one, so reports are written here.
    """
    out = []
    put = out.append
    step, comma = ("  ", ",") if indent else ("", ", ")

    def write(o, pad):
        if isinstance(o, str):
            put(_quote(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            try:
                put(int.__repr__(o))
            except ValueError:
                put('"%s"' % hex(o))
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = pad + step
            sep = "{" + inner
            for key in sorted(o):
                put(sep + _quote(key) + ": ")
                write(o[key], inner)
                sep = comma + inner
            put(pad + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = pad + step
            sep = "[" + inner
            for v in o:
                put(sep)
                write(v, inner)
                sep = comma + inner
            put(pad + "]")
        else:
            raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)

    write(obj, "\n" if indent else "")
    return "".join(out)


def _emit(obj):
    print(_json_text(obj))


def _fail(message: str, code: int) -> int:
    print(_json_text({"error": message}, indent=False), file=sys.stderr)
    return code


def _load_json(path: str):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as e:
        raise _InputError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        # JSONDecodeError, or an int literal past the decimal-conversion limit
        raise _InputError("%s is not valid JSON: %s" % (path, e))
    except RecursionError:
        raise _InputError("%s is not valid JSON: it is nested too deeply" % path)


def _load_family(path: str):
    obj = _load_json(path)
    try:
        field = FieldSpec.from_json(obj["field"])
        nvars = _json_nvars(obj["nvars"])
        texts = obj["polys"]
        if not isinstance(texts, list) or not texts:
            raise _InputError("%s: 'polys' must be a nonempty list" % path)
        fs = [poly_from_text(t, field, nvars) for t in texts]
    except (KeyError, TypeError) as e:
        raise _InputError("%s: missing or malformed key (%s)" % (path, e))
    except (ParseError, FieldError, ValueError) as e:
        raise _InputError("%s: %s" % (path, e))
    return field, nvars, fs


def _load_circuit(path: str):
    obj = _load_json(path)
    try:
        return circuit_from_json_dict(obj)
    except (KeyError, TypeError, ParseError, FieldError, ValueError) as e:
        raise _InputError("%s: %s" % (path, e))


def _parse_field(text: str) -> FieldSpec:
    if text == "rational":
        return FieldSpec("rational")
    try:
        p = int(text)
    except ValueError:
        raise _InputError("--field must be 'rational' or a prime")
    try:
        return FieldSpec("prime", p)
    except FieldError as e:
        raise _InputError(str(e))


def _config(args, keys):
    out = {}
    for k in keys:
        out[k] = getattr(args, k.replace("-", "_"))
    return out


# -- pit -----------------------------------------------------------------------


# the options of `pit`, which are the keyword arguments of hitting.pit_circuit
_PIT_CONFIG = ("mode", "seed", "max_points", "R", "conjecture_R")


def cmd_pit(args) -> int:
    circ = _load_circuit(args.circuit)
    config = _config(args, _PIT_CONFIG)
    verdict = hittingmod.pit_circuit(circ, **config)
    _emit(
        {
            "command": "pit",
            "config": config,
            "circuit_kind": _kind_of(circ),
            "verdict": verdict.to_json_dict(circ.field),
        }
    )
    if verdict.outcome == "nonzero":
        return EXIT_NONZERO
    if verdict.outcome == "zero":
        return EXIT_ZERO
    return EXIT_INCONCLUSIVE


def _kind_of(circ):
    if isinstance(circ, Depth4Circuit):
        return "depth4"
    if isinstance(circ, ComposedCircuit):
        return "composed"
    return "dag"


# -- trdeg / annihilator ---------------------------------------------------------


def cmd_trdeg(args) -> int:
    field, nvars, fs = _load_family(args.polys)
    cert = trdeg(fs, mode=args.mode, col_budget=args.budget_columns)
    _emit(
        {
            "command": "trdeg",
            "config": _config(args, ["mode", "seed", "budget_columns"]),
            "r": cert.r,
            "exact": cert.exact,
            "certificate": cert.to_json_dict(),
        }
    )
    return EXIT_ZERO


def cmd_annihilator(args) -> int:
    field, nvars, fs = _load_family(args.polys)
    F = annihilator(fs, args.cap, col_budget=args.budget_columns)
    _emit(
        {
            "command": "annihilator",
            "config": _config(args, ["cap", "budget_columns"]),
            "found": F is not None,
            "annihilator": None if F is None else poly_to_text(F),
            "m": len(fs),
        }
    )
    return EXIT_ZERO


# -- depth4 ----------------------------------------------------------------------


def cmd_depth4(args) -> int:
    circ = _load_circuit(args.circuit)
    if not isinstance(circ, Depth4Circuit):
        raise _InputError("the depth4 command needs a circuit of kind 'depth4'")
    g, sim = depth4mod.gcd_and_simple_part(circ)
    rank = depth4mod.rank(circ)
    minimal = None
    if not args.skip_minimal:
        minimal = depth4mod.is_minimal(circ, budget=args.budget_expand)
    _emit(
        {
            "command": "depth4",
            "config": _config(args, ["seed", "budget_expand", "skip_minimal"]),
            "delta": circ.delta,
            "k": circ.k,
            "s": circ.s,
            "gcd": poly_to_text(g),
            "simple": [[poly_to_text(f) for f in row] for row in sim.rows],
            "rank": rank,
            "minimal": minimal,
        }
    )
    return EXIT_ZERO


# -- hitting-set -----------------------------------------------------------------


def cmd_hitting_set(args) -> int:
    field = _parse_field(args.field)
    if args.max_points < 0:
        raise ValueError("max_points must be nonnegative")
    if args.kind == "sparse-char0":
        if args.r is None or args.d is None or args.ell is None:
            raise _InputError("sparse-char0 needs --n --d --r --delta --ell")
        hs = hittingmod.hitting_set_sparse_inputs(field, args.n, args.d, args.r, args.delta,
                                                  args.ell)
    elif args.kind == "any-char":
        if args.r is None or args.d is None:
            raise _InputError("any-char needs --n --d --r --delta")
        hs = hittingmod.hitting_set_arbitrary_char(field, args.n, args.d, args.r, args.delta)
    elif args.kind == "depth4":
        if args.k is None or args.s is None:
            raise _InputError("depth4 needs --n --delta --k --s")
        hs = hittingmod.hitting_set_depth4(field, args.n, args.delta, args.k, args.s, R=args.R,
                                           conjecture_R=args.conjecture_R)
    else:
        raise _InputError("unknown hitting-set kind %r" % args.kind)
    header = {
        "command": "hitting-set",
        "config": _config(
            args, ["kind", "n", "d", "r", "delta", "ell", "k", "s", "R",
                   "conjecture_R", "max_points", "field"]
        ),
        "arity": hs.arity,
        "guarantee": hs.guarantee,
        "size_bound": hs.size_bound,
        "provenance": hs.provenance,
    }
    print(_json_text(header, indent=False))
    for i, pt in enumerate(hs.points()):
        if i >= args.max_points:
            break
        print(_json_text({"point": [field.scalar_to_json(v) for v in pt]}, indent=False))
    return EXIT_ZERO


# -- faithful --------------------------------------------------------------------


def cmd_faithful(args) -> int:
    field, nvars, fs = _load_family(args.polys)
    if args.kind == "phi":
        found = search_kronecker_map(fs, r=args.r, mode=args.mode, seed=args.seed)
    elif args.kind == "psi":
        try:
            found = search_vandermonde_map(fs, r=args.r, mode=args.mode, seed=args.seed)
        except FieldError as e:
            # the family is well formed, its field is unsupported
            return _fail(str(e), EXIT_ERROR)
    else:
        raise _InputError("--kind must be 'phi' or 'psi'")
    _emit(
        {
            "command": "faithful",
            "config": _config(args, ["kind", "r", "mode", "seed"]),
            "result": found.to_json_dict(),
        }
    )
    return EXIT_ZERO


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    report = _load_json(args.report)
    if not isinstance(report, dict) or "command" not in report:
        raise _InputError("%s does not look like a command report" % args.report)
    try:
        check = _VERIFIERS[report["command"]]
    except (KeyError, TypeError):  # TypeError: an unhashable command
        raise _InputError("cannot verify reports of command %r" % (report["command"],))
    try:
        verified, detail = check(report, args.against)
    except (KeyError, TypeError, AttributeError) as e:
        raise _InputError("%s: missing or malformed report field (%s: %s)"
                          % (args.report, type(e).__name__, e))
    _emit({"command": "verify", "verified": verified, "detail": detail})
    return EXIT_ZERO if verified else EXIT_ERROR


def _certificate(obj, nvars):
    """A report's TrdegCertificate, whose witness point has nvars coordinates."""
    cert = TrdegCertificate.from_json_dict(obj)
    point = cert.witness.get("point")
    if point is not None and len(point) != nvars:
        raise _InputError("a witness point has %d coordinates, not %d" % (len(point), nvars))
    return cert


def _verify_trdeg(report, against):
    field, nvars, fs = _load_family(against)
    cert = _certificate(report["certificate"], nvars)
    if cert.r != report["r"]:
        return False, "certificate r does not match the reported r"
    if not verify_trdeg_certificate(fs, cert):
        return False, "certificate failed"
    return True, "certificate re-checked against the family"


def _verify_annihilator(report, against):
    field, nvars, fs = _load_family(against)
    cap = report["config"]["cap"]
    if report["found"]:
        F = poly_from_text(report["annihilator"], field, len(fs))
        if F.is_zero:
            return False, "reported annihilator is zero"
        d = F.degree()
        if d is not None and d > cap:
            return False, "reported annihilator exceeds the cap"
        # the verifier's own column budget bounds the substitution too
        _column_count(len(fs), d, DEFAULT_COLUMN_BUDGET)
        if not F.substitute(fs).is_zero:
            return False, "reported annihilator does not vanish on the family"
        return True, "annihilator re-checked by substitution"
    # the verifier's own budget: the report's could ask for any search
    refound = annihilator(fs, cap)
    if refound is not None:
        return False, "a cap-%d annihilator exists but the report found none" % cap
    return True, "absence re-checked by exhaustive search"


def _verify_faithful(report, against):
    field, nvars, fs = _load_family(against)
    result = report["result"]
    try:
        mp = map_from_json_dict(result["map"])
    except ValueError as e:  # FieldError included: a bad c
        raise _InputError("the report's map is malformed: %s" % e)
    if mp.n != nvars or mp.field != field:
        return False, "the map's ring (n=%d, %r) is not the family's (n=%d, %r)" % (
            mp.n, mp.field, nvars, field)
    in_cert = _certificate(result["input_certificate"], nvars)
    img_cert = _certificate(result["image_certificate"], mp.nvars_out)
    if in_cert.r != img_cert.r:
        return False, "certificates disagree on r"
    if not verify_trdeg_certificate(fs, in_cert):
        return False, "input certificate failed"
    # images under a ring homomorphism cannot gain trdeg.  An evaluated
    # certificate is checked through the chain rule, J(f o mp)(z) =
    # J_f(mp(z)) M, exact in every characteristic, with no image expanded;
    # the images have degree at most the family's (mp is affine)
    if is_evaluated(img_cert):
        J = jacobian(fs)
        ok = verify_evaluated_certificate(
            img_cert, functools.partial(mp.jacobian_at, J), field, len(fs), mp.nvars_out,
            max(f.degree() or 0 for f in fs), upper_bound=in_cert.r)
    else:
        ok = verify_trdeg_certificate([mp.apply(f) for f in fs], img_cert,
                                      upper_bound=in_cert.r)
    if not ok:
        return False, "image certificate failed"
    return True, "both certificates re-checked; the map preserves trdeg %d" % in_cert.r


def _verify_pit(report, against):
    circ = _load_circuit(against)
    field = circ.field
    config = report["config"]
    if (not isinstance(config, dict) or sorted(config) != sorted(_PIT_CONFIG)
            or config["mode"] not in ("adaptive", "exact")):
        raise _InputError("a pit report's config holds exactly %s, and mode is 'adaptive' "
                          "or 'exact'" % ", ".join(_PIT_CONFIG))
    stored = report["verdict"]
    if stored["outcome"] == "nonzero":
        point = tuple(field.scalar_from_json(v) for v in stored["witness"])
        if len(point) != circ.nvars:
            raise _InputError("the witness has %d coordinates, not %d"
                              % (len(point), circ.nvars))
        value = field.normalize(circ.evaluate(point))
        if field.is_zero(value):
            return False, "witness point evaluates to zero"
        if value != field.normalize(field.scalar_from_json(stored["value"])):
            return False, "witness value does not match"
        return True, "witness re-evaluated"
    # zero / inconclusive: re-run the identical enumeration and compare
    verdict = hittingmod.pit_circuit(circ, **config)
    # compared as values: the stored report is never written again, it may
    # be nested too deeply for that
    ok = json.loads(_json_text(verdict.to_json_dict(field), indent=False)) == stored
    if verdict.provenance["construction"] in ("constant-composition", "constant-dag"):
        return ok, "%s re-evaluated" % verdict.provenance["construction"].replace("-", " ")
    if not ok:
        return False, "re-run verdict differs"
    return True, "enumeration re-run to the same verdict"


def _verify_depth4(report, against):
    circ = _load_circuit(against)
    if not isinstance(circ, Depth4Circuit):
        return False, "against-file is not a depth4 circuit"
    g, sim = depth4mod.gcd_and_simple_part(circ)
    if poly_to_text(g) != report["gcd"]:
        return False, "gcd differs"
    if [[poly_to_text(f) for f in row] for row in sim.rows] != report["simple"]:
        return False, "simple part differs"
    product = g * sim.expand()
    if not (product - circ.expand()).is_zero:
        return False, "gcd * simple part does not reproduce the circuit"
    if depth4mod.rank(circ) != report["rank"]:
        return False, "rank differs"
    if report["minimal"] is not None:
        if depth4mod.is_minimal(circ, budget=report["config"]["budget_expand"]) != report["minimal"]:
            return False, "minimality differs"
    return True, "decomposition, rank, and minimality re-checked"


_VERIFIERS = {
    "trdeg": _verify_trdeg,
    "annihilator": _verify_annihilator,
    "faithful": _verify_faithful,
    "pit": _verify_pit,
    "depth4": _verify_depth4,
}


# -- parser ----------------------------------------------------------------------


# trdeg and the depth-4 rank draw no random point; the option stays so that
# old command lines run, and its value is echoed in the report's config
_UNUSED_SEED = "accepted and echoed in config; does not change the result"


@functools.cache
def _build_parser():
    """The top-level parser and its map from command name to command parser,
    built once per process: parse_args fills a fresh namespace per call."""
    ap = argparse.ArgumentParser(
        prog="pitkit",
        description="Blackbox polynomial identity testing via algebraic "
        "independence: transcendence degree, annihilators, faithful variable "
        "reductions, and hitting-set generators.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pit", help="test a circuit for being the zero polynomial")
    p.add_argument("circuit", help="circuit JSON file")
    p.add_argument("--mode", choices=["adaptive", "exact"], default="adaptive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-points", type=int, default=200_000)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--conjecture-R", action="store_true", dest="conjecture_R")
    p.set_defaults(fn=cmd_pit)

    p = sub.add_parser("trdeg", help="transcendence degree of a family")
    p.add_argument("polys", help="polynomial family JSON file")
    p.add_argument("--mode", choices=["auto", "jacobian", "bruteforce"], default="auto")
    p.add_argument("--seed", type=int, default=0, help=_UNUSED_SEED)
    p.add_argument("--budget-columns", type=int, default=DEFAULT_COLUMN_BUDGET)
    p.set_defaults(fn=cmd_trdeg)

    p = sub.add_parser("annihilator", help="annihilating polynomial up to a degree cap")
    p.add_argument("polys", help="polynomial family JSON file")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--budget-columns", type=int, default=DEFAULT_COLUMN_BUDGET)
    p.set_defaults(fn=cmd_annihilator)

    p = sub.add_parser("depth4", help="gcd/simple decomposition, rank, minimality")
    p.add_argument("circuit", help="depth-4 circuit JSON file")
    p.add_argument("--seed", type=int, default=0, help=_UNUSED_SEED)
    p.add_argument("--budget-expand", type=int, default=DEFAULT_EXPAND_BUDGET)
    p.add_argument("--skip-minimal", action="store_true")
    p.set_defaults(fn=cmd_depth4)

    p = sub.add_parser("hitting-set", help="stream points of a closed-form hitting set")
    p.add_argument("--kind", choices=["sparse-char0", "any-char", "depth4"], required=True)
    p.add_argument("--field", default="rational", help="'rational' or a prime")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--conjecture-R", action="store_true", dest="conjecture_R")
    p.add_argument("--max-points", type=int, default=100)
    p.set_defaults(fn=cmd_hitting_set)

    p = sub.add_parser("faithful", help="search a certified trdeg-preserving map")
    p.add_argument("polys", help="polynomial family JSON file")
    p.add_argument("--kind", choices=["phi", "psi"], required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--mode", choices=["adaptive", "exact"], default="adaptive")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_faithful)

    p = sub.add_parser("verify", help="re-check a previously produced report")
    p.add_argument("report", help="output JSON of an earlier command")
    p.add_argument("--against", required=True, help="the input file the report was produced from")
    p.set_defaults(fn=cmd_verify)

    return ap, sub.choices


def _parse_args(argv):
    """ap.parse_args(argv) of the parser that _build_parser returns.  When
    argv[0] names a command, its arguments go straight to that command's
    parser, which is where the top-level parser would hand them; every
    other argv, the error paths included, goes through the top-level one."""
    ap, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    parser = commands.get(argv[0]) if argv else None
    if parser is None:
        return ap.parse_args(argv)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        ap.error("unrecognized arguments: %s" % " ".join(extras))
    args.cmd = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, the code of an inconclusive
        # verdict; its message is on stderr already
        if e.code == 2:
            return EXIT_PARSE
        raise
    try:
        return args.fn(args)
    except _InputError as e:
        return _fail(str(e), EXIT_PARSE)
    except (ParseError, FieldError) as e:
        return _fail(str(e), EXIT_PARSE)
    except (BudgetExceeded, SearchExhausted) as e:
        return _fail(str(e), EXIT_ERROR)
    except ValueError as e:
        return _fail(str(e), EXIT_ERROR)
    except BrokenPipeError:
        # the reader closed stdout (say `| head -1`), and stderr too under
        # 2>&1: nothing more is written, and what stdout still buffers goes
        # to devnull at exit instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
