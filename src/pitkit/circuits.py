"""Arithmetic circuits: general DAGs, depth-4 sum-of-product-of-sparse form,
and composed circuits C(f_1, ..., f_m) with explicit sparse inputs.

Node kinds for the DAG are input/const/add/mul with n-ary add and mul.  Nodes
may only reference earlier nodes (validated), which keeps evaluation a single
forward pass.  Three JSON circuit kinds round-trip bit-exactly: "dag",
"depth4", and "composed".

Every kind is a Blackbox with one evaluation, on the integer form of
FieldSpec.integers: a point (a, q) in, a value (num, den) out.  The
hitting-set walk (hitting.pit) calls it on the set's integer stream;
evaluate(point) is the same evaluation between two conversions.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import FieldError, FieldSpec
from .polynomials import (
    BudgetExceeded,
    ParseError,
    SparsePoly,
    poly_from_text,
    poly_to_text,
)

DEFAULT_EXPAND_BUDGET = 10 ** 6


def _json_int(value, key):
    """value when it is a JSON integer; ParseError for a bool, float or string."""
    if type(value) is not int:
        raise ParseError("%r must be an integer, not %r" % (key, value))
    return value


class Blackbox:
    """What the three circuit kinds share: one evaluation on the integer
    form of FieldSpec.integers, _evaluate_integers(x) -> (num, den), which
    the hitting-set walk calls, and evaluate at raw points around it."""

    __slots__ = ()

    def evaluate(self, point):
        """The value at a tuple of raw elements: _evaluate_integers between
        one conversion in and one out."""
        if len(point) != self.nvars:
            raise ValueError("point arity != nvars")
        num, den = self._evaluate_integers(self.field.integers(point))
        return self.field.from_integers([num], den)[0]


class Circuit(Blackbox):
    """An arithmetic circuit as a topologically ordered node list."""

    __slots__ = ("field", "nvars", "nodes", "output", "_int_nodes")

    def __init__(self, field: FieldSpec, nvars: int, nodes, output: int):
        nodes = tuple(self._check_node(field, nvars, i, n) for i, n in enumerate(nodes))
        if not 0 <= output < len(nodes):
            raise ValueError("output id out of range")
        self.field = field
        self.nvars = nvars
        self.nodes = nodes
        self.output = output
        # over Q, the nodes with integer consts; None when some const is
        # not an integer (over F_p the consts are residues already)
        if field.kind == "prime":
            self._int_nodes = None
        elif all(n[1].denominator == 1 for n in nodes if n[0] == "const"):
            self._int_nodes = tuple(
                ("const", n[1].numerator) if n[0] == "const" else n for n in nodes
            )
        else:
            self._int_nodes = None

    @staticmethod
    def _check_node(field, nvars, i, node):
        op = node[0]
        if op == "input":
            if not 0 <= node[1] < nvars:
                raise ValueError("input variable out of range")
            return ("input", node[1])
        if op == "const":
            return ("const", field.normalize(node[1]))
        if op in ("add", "mul"):
            kids = tuple(node[1])
            if not kids:
                raise ValueError("%s node needs children" % op)
            if any(not 0 <= k < i for k in kids):
                raise ValueError("node %d references a non-earlier node" % i)
            return (op, kids)
        raise ValueError("unknown node kind %r" % (op,))

    def _evaluate_integers(self, x):
        """The value at x = (a, q), point[i] = a[i] / q in the integer form
        of FieldSpec.integers, as (num, den) with value num / den.

        One forward pass: mod p over F_p (residues, q = 1), and over Q on
        integers when q = 1 and every const is an integer; on Fractions
        for the other rational points and circuits.
        """
        a, q = x
        field = self.field
        if field.kind == "prime":
            return self._forward(self.nodes, a, field.p), 1
        if q == 1 and self._int_nodes is not None:
            return self._forward(self._int_nodes, a, None), 1
        v = self._forward(self.nodes, field.from_integers(a, q), None)
        return v.numerator, v.denominator

    def _forward(self, nodes, pt, p):
        """The forward pass over `nodes` at input values pt, reduced mod p
        unless p is None."""
        vals = [0] * len(nodes)
        for i, (op, arg) in enumerate(nodes):
            if op == "add":
                acc = 0
                for k in arg:
                    acc += vals[k]
                vals[i] = acc if p is None else acc % p
            elif op == "mul":
                acc = 1
                for k in arg:
                    acc *= vals[k]
                    if p is not None:
                        acc %= p
                    if not acc:
                        break
                vals[i] = acc
            elif op == "input":
                vals[i] = pt[arg]
            else:
                vals[i] = arg
        return vals[self.output]

    def syntactic_degree(self) -> int:
        degs = [0] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            op = node[0]
            if op == "input":
                degs[i] = 1
            elif op == "const":
                degs[i] = 0
            elif op == "add":
                degs[i] = max(degs[k] for k in node[1])
            else:
                degs[i] = sum(degs[k] for k in node[1])
        return degs[self.output]

    def value_bits(self, input_bits: int) -> int:
        """Over Q, a bound on the bit length of every numerator and
        denominator the forward pass meets at an integer point whose
        coordinates have at most input_bits bits.  A product adds its
        factors' bounds; a sum of k terms adds ceil(log2 k) to their
        largest bound when every const is an integer, and to the sum of
        their bounds otherwise (cross-multiplied denominators)."""
        integral = self._int_nodes is not None
        bits = [0] * len(self.nodes)
        for i, (op, arg) in enumerate(self.nodes):
            if op == "input":
                bits[i] = input_bits
            elif op == "const":
                bits[i] = max(arg.numerator.bit_length(), arg.denominator.bit_length())
            elif op == "mul":
                bits[i] = sum(bits[k] for k in arg)
            else:
                kids = [bits[k] for k in arg]
                bits[i] = (max(kids) if integral else sum(kids)) + (len(arg) - 1).bit_length()
        return max(bits)

    def expand(self, budget: int = DEFAULT_EXPAND_BUDGET, inputs=None) -> SparsePoly:
        """Expand to a SparsePoly; raise BudgetExceeded when any intermediate
        grows past `budget` terms (the error message says to use PIT instead).
        Input node j is the variable x_(j+1), or the polynomial inputs[j]
        when inputs are given; the result lives in their common ring."""
        field, nvars = self.field, self.nvars
        if inputs is None:
            inputs = [SparsePoly.variable(field, nvars, j) for j in range(nvars)]
        else:
            nvars = inputs[0].nvars
        vals = [None] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            op = node[0]
            if op == "input":
                vals[i] = inputs[node[1]]
            elif op == "const":
                vals[i] = SparsePoly.constant(field, nvars, node[1])
            elif op == "add":
                acc = SparsePoly.zero(field, nvars)
                for k in node[1]:
                    acc = acc + vals[k]
                vals[i] = acc
            else:
                acc = SparsePoly.one(field, nvars)
                for k in node[1]:
                    acc = acc * vals[k]
                vals[i] = acc
            if vals[i].num_terms() > budget:
                raise BudgetExceeded(
                    "expansion exceeds %d terms at node %d; use PIT on the "
                    "blackbox instead" % (budget, i)
                )
        return vals[self.output]

    # -- construction helpers ----------------------------------------------------

    @staticmethod
    def from_poly(f: SparsePoly) -> "Circuit":
        """A depth-2 DAG computing f (one mul node per term)."""
        nodes = []
        var_ids = {}

        def var_node(i):
            if i not in var_ids:
                nodes.append(("input", i))
                var_ids[i] = len(nodes) - 1
            return var_ids[i]

        term_ids = []
        for exps, c in f.sorted_terms():
            nodes.append(("const", c))
            cid = len(nodes) - 1
            kids = [cid]
            for i, e in enumerate(exps):
                kids.extend([var_node(i)] * e)
            nodes.append(("mul", tuple(kids)))
            term_ids.append(len(nodes) - 1)
        if not term_ids:
            nodes.append(("const", f.field.zero()))
            term_ids.append(len(nodes) - 1)
        nodes.append(("add", tuple(term_ids)))
        return Circuit(f.field, f.nvars, nodes, len(nodes) - 1)

    # -- JSON ----------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for node in self.nodes:
            if node[0] == "input":
                nodes.append({"op": "input", "var": node[1]})
            elif node[0] == "const":
                nodes.append({"op": "const", "value": self.field.scalar_to_json(node[1])})
            else:
                nodes.append({"op": node[0], "args": list(node[1])})
        return {
            "field": self.field.to_json(),
            "nvars": self.nvars,
            "kind": "dag",
            "nodes": nodes,
            "output": self.output,
        }

    @staticmethod
    def from_json_dict(obj) -> "Circuit":
        field = FieldSpec.from_json(obj["field"])
        nodes = []
        for nd in obj["nodes"]:
            op = nd["op"]
            if op == "input":
                nodes.append(("input", _json_int(nd["var"], "var")))
            elif op == "const":
                nodes.append(("const", field.scalar_from_json(nd["value"])))
            elif op in ("add", "mul"):
                nodes.append((op, tuple(_json_int(k, "args") for k in nd["args"])))
            else:
                raise ParseError("unknown node op %r" % op)
        return Circuit(field, _json_int(obj["nvars"], "nvars"), nodes,
                       _json_int(obj["output"], "output"))


class Depth4Circuit(Blackbox):
    """Sum of k products of sparse polynomials of degree at most delta."""

    __slots__ = ("field", "nvars", "delta", "rows")

    def __init__(self, field, nvars, delta, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(not r for r in rows):
            raise ValueError("need k >= 1 nonempty rows")
        for row in rows:
            for f in row:
                if f.field != field or f.nvars != nvars:
                    raise ValueError("factor in a different ring")
                if f.is_zero:
                    raise ValueError("zero factor not allowed")
                d = f.degree()
                if d is not None and d > delta:
                    raise ValueError("factor degree %d exceeds delta=%d" % (d, delta))
        self.field = field
        self.nvars = nvars
        self.delta = delta
        self.rows = rows

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def s(self) -> int:
        return max(len(r) for r in self.rows)

    def degree_bound(self) -> int:
        return self.delta * self.s

    def term(self, i: int) -> SparsePoly:
        """Expanded product of row i."""
        acc = SparsePoly.one(self.field, self.nvars)
        for f in self.rows[i]:
            acc = acc * f
        return acc

    def subcircuit(self, I) -> "Depth4Circuit":
        I = sorted(I)
        if not I or any(not 0 <= i < self.k for i in I):
            raise ValueError("row subset out of range")
        return Depth4Circuit(self.field, self.nvars, self.delta, [self.rows[i] for i in I])

    def _evaluate_integers(self, x):
        """The sum of the rows' products of the factors' values at x (see
        Blackbox): residues over F_p, and over Q numerators and
        denominators multiplied out, not reduced."""
        if self.field.kind == "prime":
            p = self.field.p
            acc = 0
            for row in self.rows:
                prod = 1
                for f in row:
                    prod = prod * f._eval_integers(x)[0] % p
                    if not prod:
                        break
                acc += prod
            return acc % p, 1
        num, den = 0, 1
        for row in self.rows:
            pn = pd = 1
            for f in row:
                fn, fd = f._eval_integers(x)
                pn *= fn
                pd *= fd
                if not pn:
                    break
            if pn:
                num, den = num * pd + pn * den, den * pd
        return num, den

    def expand(self, budget: int = DEFAULT_EXPAND_BUDGET) -> SparsePoly:
        acc = SparsePoly.zero(self.field, self.nvars)
        for row in self.rows:
            prod = SparsePoly.one(self.field, self.nvars)
            for f in row:
                prod = prod * f
                if prod.num_terms() > budget:
                    raise BudgetExceeded(
                        "expansion exceeds %d terms; use PIT on the blackbox"
                        % budget
                    )
            acc = acc + prod
            if acc.num_terms() > budget:
                raise BudgetExceeded(
                    "expansion exceeds %d terms; use PIT on the blackbox" % budget
                )
        return acc

    def sparse_factors(self):
        """Distinct factors, deterministic order of first appearance."""
        seen = []
        for row in self.rows:
            for f in row:
                if f not in seen:
                    seen.append(f)
        return seen

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.to_json(),
            "nvars": self.nvars,
            "kind": "depth4",
            "delta": self.delta,
            "rows": [[poly_to_text(f) for f in row] for row in self.rows],
        }

    @staticmethod
    def from_json_dict(obj) -> "Depth4Circuit":
        field = FieldSpec.from_json(obj["field"])
        nvars = _json_int(obj["nvars"], "nvars")
        rows = [
            [poly_from_text(t, field, nvars) for t in row] for row in obj["rows"]
        ]
        return Depth4Circuit(field, nvars, _json_int(obj["delta"], "delta"), rows)


class ComposedCircuit(Blackbox):
    """C'(x) = C(f_1(x), ..., f_m(x)) with an explicit sparse input list.

    The outer circuit runs over y_1..y_m; keeping the inner polynomials
    explicit is what lets the sparse-input PIT constructions read off their
    parameters (m, degrees, sparsity).
    """

    __slots__ = ("outer", "inputs")

    def __init__(self, outer: Circuit, inputs):
        inputs = tuple(inputs)
        if outer.nvars != len(inputs):
            raise ValueError("outer arity != number of inputs")
        if not inputs:
            raise ValueError("need at least one input polynomial")
        f0 = inputs[0]
        for f in inputs:
            if f.field != f0.field or f.nvars != f0.nvars:
                raise ValueError("inputs live in different rings")
        if outer.field != f0.field:
            raise FieldError("outer and inner fields differ")
        self.outer = outer
        self.inputs = inputs

    @property
    def field(self):
        return self.outer.field

    @property
    def nvars(self):
        return self.inputs[0].nvars

    def _evaluate_integers(self, x):
        """The outer circuit's value at the inner values (see Blackbox).
        Over F_p the inner residues go straight into the outer pass; over
        Q the inner values are put over one denominator, 1 when every
        inner value is an integer."""
        nums, whole = [], True
        for f in self.inputs:
            num, den = f._eval_integers(x)
            nums.append(num if den == 1 else Fraction(num, den))
            whole = whole and den == 1
        return self.outer._evaluate_integers((nums, 1) if whole else self.field.integers(nums))

    def degree_bound(self) -> int:
        dmax = max((f.degree() or 0) for f in self.inputs)
        return self.outer.syntactic_degree() * dmax

    def expand(self, budget: int = DEFAULT_EXPAND_BUDGET) -> SparsePoly:
        """The outer dag expanded on the inner polynomials (Circuit.expand)."""
        return self.outer.expand(budget, self.inputs)

    def to_json_dict(self) -> dict:
        outer = self.outer.to_json_dict()
        outer.pop("field")
        outer.pop("kind")
        return {
            "field": self.field.to_json(),
            "nvars": self.nvars,
            "kind": "composed",
            "outer": outer,
            "inputs": [poly_to_text(f) for f in self.inputs],
        }

    @staticmethod
    def from_json_dict(obj) -> "ComposedCircuit":
        field = FieldSpec.from_json(obj["field"])
        outer_obj = dict(obj["outer"])
        outer_obj["field"] = obj["field"]
        m = len(obj["inputs"])
        outer_obj.setdefault("nvars", m)
        outer = Circuit.from_json_dict(outer_obj)
        nvars = _json_int(obj["nvars"], "nvars")
        inputs = [poly_from_text(t, field, nvars) for t in obj["inputs"]]
        return ComposedCircuit(outer, inputs)


def circuit_from_json_dict(obj):
    kind = obj.get("kind")
    if kind == "dag":
        return Circuit.from_json_dict(obj)
    if kind == "depth4":
        return Depth4Circuit.from_json_dict(obj)
    if kind == "composed":
        return ComposedCircuit.from_json_dict(obj)
    raise ParseError("unknown circuit kind %r" % (kind,))
