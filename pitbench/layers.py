"""Per-module tracing by wrapping pitkit's public functions and methods from
outside the program.

Every public module-level function and public method of each src/pitkit
module is replaced, in every pitkit namespace that holds it, by a wrapper
that counts calls and keeps a stack of open spans.  For a metric key the
inclusive time counts outermost activations only, so recursion (gcd_poly)
is not counted twice.  A module's self time is the time of its spans minus
the time of the wrapped spans they directly contain; unwrapped code (private
helpers, the standard library, numpy) counts towards the innermost wrapped
caller.  Generator functions are left alone: wrapping them would time only
the creation of the generator.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("polynomials", "fields", "linalg", "independence", "varmaps", "depth4",
           "hitting", "circuits", "cli", "primes")

# arithmetic dunders are traced; __eq__/__hash__/__init__ are not: they run
# inside dict and set operations and would only add overhead
DUNDERS = {"__add__", "__sub__", "__mul__", "__neg__", "__pow__"}

# several functions feed one metric key
ALIASES = {
    "polynomials.__mul__": "polynomials.mul",
    "varmaps.search_kronecker_map": "varmaps.search",
    "varmaps.search_vandermonde_map": "varmaps.search",
    "hitting.hitting_set_depth4": "hitting.build",
    "hitting.hitting_set_sparse_inputs": "hitting.build",
    "hitting.hitting_set_arbitrary_char": "hitting.build",
    "hitting.sz_grid": "hitting.build",
}


def _key(module, name):
    k = "%s.%s" % (module, name)
    return ALIASES.get(k, k)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._active = Counter()
        self._stack = []

    def wrap(self, module, key, fn, on_result=None):
        calls, incl, self_s = self.calls, self.incl, self.self_s
        active, stack = self._active, self._stack

        def traced(*args, **kwargs):
            active[key] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[key] -= 1
                calls[key] += 1
                if not active[key]:
                    incl[key] += dt
                self_s[module] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every public function and method of the pitkit modules."""
        mods = {name: sys.modules["pitkit." + name] for name in MODULES}
        spaces = list(mods.values()) + [sys.modules["pitkit"]]
        hooks = {
            "varmaps.search": lambda res: self.counts.update(
                {"varmaps.candidates_tried": res.candidates_tried}),
            "depth4.search_depth4_map": lambda res: self.counts.update(
                {"depth4.candidates_tried": res.candidates_tried}),
            "hitting.pit": lambda res: self.counts.update(
                {"hitting.points_checked": res.points_checked}),
        }
        for mname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    key = _key(mname, name)
                    w = self.wrap(mname, key, obj, hooks.get(key))
                    for space in spaces:
                        if getattr(space, name, None) is obj:
                            setattr(space, name, w)
                elif inspect.isclass(obj):
                    self._wrap_class(mname, obj)

    def _wrap_class(self, mname, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            key = _key(mname, name)
            w = self.wrap(mname, key, fn)
            setattr(cls, name, staticmethod(w) if static else w)

    def metrics(self):
        """Every per-layer metric, as {name: (value, unit)}."""
        c, s, n = self.calls, self.incl, self.counts
        out = {}

        def calls_and_time(key):
            out[key + ".calls"] = (c[key], "count")
            out[key + ".s"] = (s[key], "s")

        for k in ("mul", "gcd_poly", "divide_exact", "substitute", "eval"):
            calls_and_time("polynomials." + k)
        out["fields.mul.calls"] = (c["fields.mul"], "count")
        for k in ("rank", "kernel_vector", "poly_matrix_rank"):
            calls_and_time("linalg." + k)
        for k in ("trdeg", "annihilator", "jacobian_rank", "verify_trdeg_certificate"):
            calls_and_time("independence." + k)
        for k in ("search", "apply", "point_images"):
            calls_and_time("varmaps." + k)
        out["varmaps.candidates_tried"] = (n["varmaps.candidates_tried"], "count")
        for k in ("search_depth4_map", "coprime_basis", "verify_simple_preservation"):
            calls_and_time("depth4." + k)
        out["depth4.candidates_tried"] = (n["depth4.candidates_tried"], "count")
        out["hitting.build.s"] = (s["hitting.build"], "s")
        out["hitting.pit.s"] = (s["hitting.pit"], "s")
        points = n["hitting.points_checked"]
        out["hitting.points_checked"] = (points, "count")
        out["hitting.points_per_s"] = (points / s["hitting.pit"] if s["hitting.pit"] else 0.0, "1/s")
        for k in ("evaluate", "expand"):
            calls_and_time("circuits." + k)
        calls_and_time("cli.main")
        for mod in ("polynomials", "fields", "linalg", "independence", "varmaps", "depth4",
                    "hitting", "circuits", "cli"):
            out[mod + ".self_s"] = (self.self_s[mod], "s")
        return out
