"""Per-layer self time and counts, recorded by wrapping warpcurv from outside.

`Tracer.install()` replaces the public functions, methods and properties
listed in SPANS with wrappers that keep a span stack.  A span's self time is
its duration minus the durations of the spans it called, so the self times
of all spans plus the time outside any span add up to the traced wall time.
A function that calls itself through its module name (`diff`) is one span
per outermost call.

Every module binding of a wrapped function is replaced, including names that
another module re-imports with `from .x import y`; otherwise those calls
would skip their spans.  Only the traced run imports this module.
"""

from __future__ import annotations

import time
from collections import defaultdict

from warpcurv import actions, cli, conditions, curvature, expr, tensor, warped

MODULES = (expr, tensor, curvature, actions, conditions, warped, cli)

# (owner, attribute) -> layer.  Unlisted helpers count toward their caller.
SPANS = {
    (expr.PointEval, "eval_scaled"): "expr.eval",
    (expr, "is_zero"): "expr.zero_test",
    (expr, "is_zero_many"): "expr.zero_test",
    (expr, "to_str"): "expr.format",
    (expr, "diff"): "expr.diff",
    (expr, "parse"): "expr.parse",
    (tensor.Chart, "__init__"): "tensor.coerce",
    (tensor.TensorField, "__init__"): "tensor.coerce",
    (tensor, "metric_inverse"): "tensor.inverse",
    (curvature, "bundle"): "curvature.connection",
    (curvature.CurvatureBundle, "gamma"): "curvature.connection",
    (curvature.CurvatureBundle, "R"): "curvature.riemann",
    (curvature.CurvatureBundle, "S"): "curvature.riemann",
    (curvature.CurvatureBundle, "kappa"): "curvature.riemann",
    (curvature.CurvatureBundle, "G"): "curvature.derived",
    (curvature.CurvatureBundle, "C"): "curvature.derived",
    (curvature.CurvatureBundle, "W"): "curvature.derived",
    (curvature.CurvatureBundle, "K"): "curvature.derived",
    (curvature.CurvatureBundle, "P"): "curvature.derived",
    (actions, "derivation_action"): "actions.build",
    (actions, "tachibana"): "actions.build",
    (actions, "cached_derivation"): "actions.build",
    (actions, "cached_tachibana"): "actions.build",
    (tensor, "raise_first"): "actions.build",
    (conditions, "check_identity"): "conditions.identity",
    (conditions, "fit_pseudosymmetry"): "conditions.fit",
    (warped, "auxiliaries"): "warped.blocks",
    (warped, "block_curvature"): "warped.blocks",
    (warped, "block_actions"): "warped.blocks",
    (warped, "verify_conditions"): "warped.conditions",
    (warped, "trichotomy_report"): "warped.conditions",
    (warped, "dichotomy_check"): "warped.conditions",
    (cli, "load_manifest"): "cli.manifest",
    (cli, "build_chart"): "cli.manifest",
    (cli, "build_spec"): "cli.manifest",
    (cli, "curvature_report"): "cli.report",
    (cli, "classify_report"): "cli.report",
    (cli, "warped_verify_report"): "cli.report",
    (cli, "_render"): "cli.report",
    (cli, "main"): "cli.report",
}

# Counters kept at span entry: (owner, attribute) -> (counter, increment
# computed from the call's positional arguments).
COUNTS = {
    (expr.PointEval, "eval_scaled"): ("expr.eval_calls", lambda args: 1),
    (expr, "is_zero"): ("expr.zero_test_exprs", lambda args: 1),
    (expr, "is_zero_many"): ("expr.zero_test_exprs",
                             lambda args: len(args[0])),
    (expr, "diff"): ("expr.diff_calls", lambda args: 1),
    (tensor.TensorField, "__init__"): ("tensor.fields", lambda args: 1),
}

# Action tables whose expression nodes are counted (expr.nodes_*), keyed by
# the arguments of cached_derivation / cached_tachibana.
NODE_TABLES = {("D", "R", "R"): "R.R", ("Q", "g", "R"): "Q(g,R)",
               ("Q", "S", "R"): "Q(S,R)"}

LAYERS = sorted(set(SPANS.values()))


class Tracer:
    def __init__(self):
        self.stack = []                      # [[wrapper, child seconds]]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self.command = None                  # label of the running command
        self.tables = defaultdict(list)      # command -> [(name, TensorField)]
        self.actions = []                    # every built action tensor

    # -- installation ------------------------------------------------------

    def install(self):
        originals = []
        for (owner, attr), layer in SPANS.items():
            raw = owner.__dict__[attr]
            if isinstance(raw, property):
                wrapped = property(self._wrap(raw.fget, layer, owner, attr))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(raw, layer, owner, attr)
            originals.append(raw)
            for mod in MODULES:
                for name, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, name, wrapped)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
        left = [f"{mod.__name__}.{name}" for mod in MODULES
                for name, val in vars(mod).items()
                if any(val is fn for fn in originals)]
        if left:
            raise RuntimeError(f"unwrapped bindings remain: {left}")

    def _wrap(self, fn, layer, owner, attr):
        stack, clock, self_s = self.stack, time.perf_counter, self.self_s
        counter, inc = COUNTS.get((owner, attr), (None, None))
        post = self._post_hook(attr)

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is wrapper:
                return fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter] += inc(args)
            frame = [wrapper, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
            if post is not None:
                post(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _post_hook(self, attr):
        # Only references are kept here; counting happens in results(), after
        # the traced wall time has been taken.
        if attr in ("derivation_action", "tachibana"):
            return lambda args, out: self.actions.append(out)
        if attr in ("cached_derivation", "cached_tachibana"):
            kind = "D" if attr == "cached_derivation" else "Q"

            def keep(args, out):
                key = (kind, args[1], args[2])
                if key in NODE_TABLES:
                    self.tables[self.command].append((key, out))
            return keep
        return None

    # -- results -----------------------------------------------------------

    def results(self, wall_s):
        """Per-layer metrics of the traced commands, given their wall time."""
        out = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update({name: self.counts.get(name, 0) for name, _ in
                    COUNTS.values()})
        comps = zeros = 0
        for field in {id(t): t for t in self.actions}.values():
            flat = field.flatten()
            comps += len(flat)
            zeros += sum(1 for e in flat if _literal_zero(e))
        out["actions.components"] = comps
        out["actions.zero_components"] = zeros
        n_id = n_struct = 0
        tables = []
        for command, entries in self.tables.items():
            seen = set()
            roots = []
            for key, field in entries:
                if id(field) in seen:
                    continue
                seen.add(id(field))
                comps = field.flatten()
                roots.extend(comps)
                tables.append((command, NODE_TABLES[key], field.chart.n,
                               *count_nodes(comps)))
            ids, structs = count_nodes(roots)
            n_id += ids
            n_struct += structs
        out["expr.nodes_id"] = n_id
        out["expr.nodes_struct"] = n_struct
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - self.root_s
        return out, tables


def _literal_zero(e):
    return isinstance(e, expr.Const) and e.value == 0


def _children(e):
    if isinstance(e, expr.Add):
        return e.terms
    if isinstance(e, expr.Mul):
        return e.factors
    if isinstance(e, expr.Div):
        return (e.num, e.den)
    if isinstance(e, expr.Pow):
        return (e.base,)
    if isinstance(e, (expr.Neg, expr._Func)):
        return (e.child,)
    return ()


def _label(e):
    if isinstance(e, expr.Const):
        return e.value
    if isinstance(e, (expr.Coord, expr.Param)):
        return e.name
    if isinstance(e, expr.Pow):
        return e.exponent
    return None


def count_nodes(roots):
    """(distinct by identity, distinct by structure) nodes reachable from roots."""
    sid = {}          # id(node) -> structural class
    classes = {}
    for root in roots:
        todo = [(root, False)]
        while todo:
            node, ready = todo.pop()
            if id(node) in sid:
                continue
            kids = _children(node)
            if not ready:
                todo.append((node, True))
                todo.extend((k, False) for k in kids if id(k) not in sid)
                continue
            key = (type(node).__name__, _label(node),
                   tuple(sid[id(k)] for k in kids))
            sid[id(node)] = classes.setdefault(key, len(classes))
    return len(sid), len(classes)
