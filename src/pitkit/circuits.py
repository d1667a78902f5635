"""Arithmetic circuits: general DAGs, depth-4 sum-of-product-of-sparse form,
and composed circuits C(f_1, ..., f_m) with explicit sparse inputs.

Node kinds for the DAG are input/const/add/mul with n-ary add and mul.  Nodes
may only reference earlier nodes (validated), which keeps evaluation a single
forward pass.  Three JSON circuit kinds round-trip bit-exactly: "dag",
"depth4", and "composed".

Every kind is a Blackbox with one evaluation, the dag's forward pass
(Circuit._forward), on blocks of points in the integer form of
FieldSpec.integers: a block (cols, q) of coordinate columns in, a column
of values (nums, den) out, one list operation per node and block.  A
composed circuit runs it, and the one expansion Circuit.expand, on its
inner polynomials; a depth-4 circuit as the composed circuit
sum_i prod_j y_(i,j) of its factors.  The hitting-set walk (hitting.pit)
calls it on the set's stream of blocks; evaluate(point) is it on a block
of one point between two conversions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from operator import add, mul

from .fields import FieldError, FieldSpec, block_size
from .polynomials import (
    REDUCE_EVERY,
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


def _json_nvars(value):
    """The JSON integer value of an "nvars" key; ParseError for anything
    else and for a negative one."""
    nvars = _json_int(value, "nvars")
    if nvars < 0:
        raise ParseError("'nvars' must be nonnegative, not %d" % nvars)
    return nvars


class Blackbox:
    """What the three circuit kinds share: their evaluation on blocks of
    points in the integer form of FieldSpec.integers,
    _evaluate_integers((cols, q)) -> (nums, den) with value j equal to
    nums[j] / den, which the hitting-set walk calls and which is the dag's
    forward pass for every kind, and evaluate at raw points around it."""

    __slots__ = ()

    def evaluate(self, point):
        """The value at a tuple of raw elements: _evaluate_integers on a
        block of one point, between one conversion in and one out."""
        if len(point) != self.nvars:
            raise ValueError("point arity != nvars")
        nums, den = self._evaluate_integers(self.field.block(point))
        return self.field.from_integers(nums, den)[0]


class Circuit(Blackbox):
    """An arithmetic circuit as a topologically ordered node list."""

    __slots__ = ("field", "nvars", "nodes", "output")

    def __init__(self, field: FieldSpec, nvars: int, nodes, output: int):
        nodes = tuple(self._check_node(field, nvars, i, n) for i, n in enumerate(nodes))
        if not 0 <= output < len(nodes):
            raise ValueError("output id out of range")
        self.field = field
        self.nvars = nvars
        self.nodes = nodes
        self.output = output

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

    def _evaluate_integers(self, block):
        """The values at the points of block = (cols, q), coordinate i of
        point j being cols[i][j] / q, as (nums, den) with value j equal to
        nums[j] / den: the forward pass with every input column over q."""
        cols, q = block
        return self._forward([(col, q) for col in cols], block_size(cols))

    def _forward(self, columns, size):
        """The output's values at `size` points as (nums, den), input i
        being the column columns[i] = (nums, D) of values nums[j] / D.

        One pass on integers in every field.  Each node is a column, or one
        scalar for a const until it meets a column, over one denominator:
        an input takes its column's, a product multiplies its children's,
        and a sum scales each child to the lcm of its children's.  Over F_p
        every denominator is 1, and a node is reduced mod p once, and after
        every REDUCE_EVERY child columns, so no value grows past
        REDUCE_EVERY + 1 residues multiplied."""
        field = self.field
        p = field.p
        vals = []
        for op, arg in self.nodes:
            if op == "input" or op == "const":
                # a const is a residue over F_p, a Fraction over Q
                vals.append(columns[arg] if op == "input" else (arg.numerator, arg.denominator))
                continue
            is_add = op == "add"
            f, unit = (add, 0) if is_add else (mul, 1)
            # over F_p every denominator is 1
            den = field.common_denominator([vals[k][1] for k in arg]) if is_add and not p else 1
            c, acc, fresh = unit, None, 0
            for k in arg:
                x, D = vals[k]
                if not is_add:
                    den *= D
                elif D != den:
                    # every child over den, one over 1 too
                    scale = den // D
                    x = x * scale if type(x) is int else map(scale.__mul__, x)
                if type(x) is int:
                    c = f(c, x) if p is None else f(c, x) % p
                elif acc is None:
                    acc = x
                else:
                    acc = list(map(f, acc, x))
                    fresh += 1
                    if p is not None and fresh == REDUCE_EVERY:
                        acc, fresh = [v % p for v in acc], 0
            if acc is not None:
                if c != unit:
                    acc = map(c.__add__ if is_add else c.__mul__, acc)
                # a map is made a list, a child's list is shared
                c = [v % p for v in acc] if p else acc if type(acc) is list else list(acc)
            vals.append((c, den))
        out, den = vals[self.output]
        return ([out] * size if type(out) is int else out), den

    def syntactic_degree(self, weights=None) -> int:
        """The output's degree with input j weighted by weights[j] (1 each
        when None): an input gets its weight, a const 0, a sum the largest
        of its children's and a product the sum of its children's, repeats
        counted.  With weights[j] = deg f_j it bounds the degree of
        C(f_1, ..., f_m), by induction over the nodes: no node of C(f) has
        a degree above its own."""
        degs = []
        for op, arg in self.nodes:
            if op == "input":
                degs.append(1 if weights is None else weights[arg])
            elif op == "const":
                degs.append(0)
            else:
                degs.append((max if op == "add" else sum)(degs[k] for k in arg))
        return degs[self.output]

    def value_bits(self, input_bits, integral_inputs: bool = True) -> int:
        """Over Q, a bound on the bit length of every numerator and
        denominator the forward pass meets at a point whose coordinate j
        has at most input_bits[j] bits, in numerator and denominator, and
        whose coordinates are integers unless integral_inputs is False.  A
        product adds its factors' bounds; a sum of k terms adds
        ceil(log2 k) to their largest bound when every const and input is
        an integer, and to the sum of their bounds otherwise (each scaled
        to the lcm of the denominators, which divides their product)."""
        integral = integral_inputs and all(
            arg.denominator == 1 for op, arg in self.nodes if op == "const")
        bits = [0] * len(self.nodes)
        for i, (op, arg) in enumerate(self.nodes):
            if op == "input":
                bits[i] = input_bits[arg]
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
        grows past `budget` terms (the error message says to use PIT
        instead), checked after every child's product or sum, so a wide
        node stops at the first one past the budget.  Input node j is the
        variable x_(j+1), or the polynomial inputs[j] when inputs are given;
        the result lives in their common ring."""
        field, nvars = self.field, self.nvars
        if inputs is None:
            inputs = [SparsePoly.variable(field, nvars, j) for j in range(nvars)]
        else:
            nvars = inputs[0].nvars

        def checked(poly, i):
            if poly.num_terms() > budget:
                raise BudgetExceeded(
                    "expansion exceeds %d terms at node %d; use PIT on the "
                    "blackbox instead" % (budget, i)
                )
            return poly

        vals = [None] * len(self.nodes)
        for i, (op, arg) in enumerate(self.nodes):
            if op == "input":
                val = inputs[arg]
            elif op == "const":
                val = SparsePoly.constant(field, nvars, arg)
            else:
                f, val = ((add, SparsePoly.zero(field, nvars)) if op == "add"
                          else (mul, SparsePoly.one(field, nvars)))
                for k in arg:
                    val = checked(f(val, vals[k]), i)
            vals[i] = checked(val, i)
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
        return Circuit(field, _json_nvars(obj["nvars"]), nodes,
                       _json_int(obj["output"], "output"))


class Depth4Circuit(Blackbox):
    """Sum of k products of sparse polynomials of degree at most delta.
    The rows serve the structural code (gcd, simple part, rank, the map
    search); evaluation and expansion are those of the composed circuit
    of the factors (_composed)."""

    __slots__ = ("field", "nvars", "delta", "rows", "_view")

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
        self._view = None

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def s(self) -> int:
        return max(len(r) for r in self.rows)

    def degree_bound(self) -> int:
        """The composed circuit's (ComposedCircuit.degree_bound): the
        largest sum of a row's factor degrees."""
        return self._composed().degree_bound()

    def term(self, i: int) -> SparsePoly:
        """Expanded product of row i, with no budget."""
        return self.subcircuit([i]).expand(math.inf)

    def subcircuit(self, I) -> "Depth4Circuit":
        I = sorted(I)
        if not I or any(not 0 <= i < self.k for i in I):
            raise ValueError("row subset out of range")
        return Depth4Circuit(self.field, self.nvars, self.delta, [self.rows[i] for i in I])

    def _composed(self) -> "ComposedCircuit":
        """sum_i prod_j y_(i,j) over the factors of the rows in order, built
        on the first call."""
        if self._view is None:
            outer = _sum_of_products(self.field, tuple(map(len, self.rows)))
            self._view = ComposedCircuit(outer, [f for row in self.rows for f in row])
        return self._view

    def _evaluate_integers(self, block):
        """The composed circuit's evaluation (see Blackbox)."""
        return self._composed()._evaluate_integers(block)

    def expand(self, budget: int = DEFAULT_EXPAND_BUDGET) -> SparsePoly:
        """The composed circuit's expansion (Circuit.expand)."""
        return self._composed().expand(budget)

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
        nvars = _json_nvars(obj["nvars"])
        rows = [
            [poly_from_text(t, field, nvars) for t in row] for row in obj["rows"]
        ]
        return Depth4Circuit(field, nvars, _json_int(obj["delta"], "delta"), rows)


@lru_cache(maxsize=256)
def _sum_of_products(field, widths) -> Circuit:
    """The dag sum_i prod_j y_(i,j) whose row i has widths[i] inputs, the
    inputs numbered row by row; shared by the depth-4 circuits of one shape."""
    m = sum(widths)
    ids = iter(range(m))
    nodes = [("input", j) for j in range(m)] + [("mul", tuple(islice(ids, w))) for w in widths]
    nodes.append(("add", tuple(range(m, len(nodes)))))
    return Circuit(field, m, nodes, len(nodes) - 1)


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

    def _evaluate_integers(self, block):
        """The outer circuit's values at the inner values (see Blackbox):
        each inner column (nums, D) is an input of the outer pass as it
        is."""
        return self.outer._forward([f._eval_integers(block) for f in self.inputs],
                                   block_size(block[0]))

    def degree_bound(self) -> int:
        """A bound on deg C(f_1, ..., f_m): the outer dag's syntactic
        degree with input i weighted by deg f_i (0 for a zero inner)."""
        return self.outer.syntactic_degree([f.degree() or 0 for f in self.inputs])

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
        nvars = _json_nvars(obj["nvars"])
        inputs = [poly_from_text(t, field, nvars) for t in obj["inputs"]]
        return ComposedCircuit(outer, inputs)


def circuit_from_json_dict(obj):
    if not isinstance(obj, dict):
        raise ParseError("a circuit is a JSON object, not %s" % type(obj).__name__)
    kind = obj.get("kind")
    if kind == "dag":
        return Circuit.from_json_dict(obj)
    if kind == "depth4":
        return Depth4Circuit.from_json_dict(obj)
    if kind == "composed":
        return ComposedCircuit.from_json_dict(obj)
    raise ParseError("unknown circuit kind %r" % (kind,))
