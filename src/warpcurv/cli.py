"""Manifest-driven front end: curvature, classification, warped verification.

Manifest grammar (line oriented):
  - blank lines and '#' comment lines are ignored
  - a section header line is one of [chart], [warped], [check]
  - every other line reads 'key = value', split at the first '='; the key
    part is whitespace-tokenized, and a key repeats only with its value
  - [chart]  keys: coords = x1 x2 ...
                   g <i> <j> = <expression>      (1-based; symmetric fill)
                   param <name> = <rational>
                   box <coord> = <lo> .. <hi>
                   seed = <integer>
  - [warped] keys: base = <path>, fiber = <path> (relative to the manifest),
                   warp = <expression>, L1 = <expression>, L2 = <expression>,
                   seed = <integer>
  - [check]  keys: name = <catalog row name>, scalar <key> = <expression>

A manifest defines exactly one chart or one warped product.  [check]
sections request catalog verdicts during classification.  Reports are
deterministic given (manifest, seed): sampled values are fixed-precision
strings and JSON is emitted with sorted keys; no wall-clock data is
included.  Exit codes: 0 pass, 1 verdict failure, 2 input error.
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import expr as ex
from .actions import cached_derivation, cached_tachibana
from .conditions import (
    CATALOG, IdentityCheck, PseudosymmetryFit, constant_type_check,
)
from .curvature import bundle
from .expr import DEFAULT_SEED, DomainError, PointEval
from .tensor import Chart, ChartError, excerpt, orbit_reps
from .warped import (
    Conditions, Defects, Dichotomy, Trichotomy, WarpedSpec, _base_scalar,
    assemble_product, auxiliaries, block_actions, block_curvature, sweep_charts,
)

SCHEMA = "warpcurv-report/1"


class ManifestError(Exception):
    """Unreadable, malformed, or inconsistent manifest input."""


class CheckRequest:
    """One [check] section: a catalog row name and its candidate scalars."""

    def __init__(self, name=""):
        self.name = name
        self.scalars = {}


class Manifest:
    """A parsed manifest: its nonblank lines and the values of its keys."""

    def __init__(self, path):
        self.path = path
        self.kind = ""
        self.lines = []
        self.coords = ()
        self.params = {}
        self.box = {}
        self.entries = {}       # (i, j) -> expression string
        self.base = ""
        self.fiber = ""
        self.warp = ""
        self.L1 = ""
        self.L2 = ""
        self.seed = None
        self.checks = []


_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture_path(name):
    """Filesystem path of a bundled fixture manifest."""
    return os.path.join(_FIXTURES, name)


# ---------------------------------------------------------------------------
# Manifest parsing


def load_manifest(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as err:
        raise ManifestError(f"cannot read {path}: {err}") from None
    m = Manifest(path=str(path))
    section = None
    chk = None
    seen = {}   # (section, [check] count, key) -> value; repeats must match it

    def bad(lineno, msg):
        raise ManifestError(f"{path}:{lineno}: {msg}")

    for lineno, line in enumerate(raw.splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        m.lines.append(text)
        if text.startswith("["):
            if text in ("[chart]", "[warped]"):
                if m.kind:
                    bad(lineno, "a manifest defines exactly one chart or "
                                "warped product")
                m.kind = text[1:-1]
                section = m.kind
            elif text == "[check]":
                chk = CheckRequest()
                m.checks.append(chk)
                section = "check"
            else:
                bad(lineno, f"unknown section {text}")
            continue
        if section is None:
            bad(lineno, "entry before any section header")
        key, sep, value = text.partition("=")
        if not sep:
            bad(lineno, "expected 'key = value'")
        toks = key.split()
        value = value.strip()
        if not toks:
            bad(lineno, "missing key before '='")
        what = " ".join(toks)
        if seen.setdefault((section, len(m.checks), what), value) != value:
            bad(lineno, f"conflicting duplicate entry for {what}")
        if section == "check":
            _check_entry(chk, toks, value, bad, lineno)
        elif what == "seed":
            try:
                m.seed = int(value)
            except ValueError:
                bad(lineno, f"seed must be an integer, got {value!r}")
        elif section == "chart":
            _chart_entry(m, toks, value, bad, lineno)
        elif what in ("base", "fiber", "warp", "L1", "L2"):
            setattr(m, what, value)
        else:
            bad(lineno, f"unknown key {what!r} in [warped]")
    if not m.kind:
        raise ManifestError(f"{path}: no [chart] or [warped] section")
    return m


def _chart_entry(m, toks, value, bad, lineno):
    key = toks[0]
    if key == "coords" and len(toks) == 1:
        m.coords = tuple(value.split())
        if not m.coords:
            bad(lineno, "coords must list at least one name")
    elif key == "g" and len(toks) == 3:
        try:
            i, j = int(toks[1]), int(toks[2])
        except ValueError:
            bad(lineno, f"metric index must be an integer, got "
                        f"{' '.join(toks[1:])!r}")
        if i < 1 or j < 1:
            bad(lineno, "metric index is 1-based")
        pair = (min(i, j) - 1, max(i, j) - 1)
        if pair in m.entries and m.entries[pair] != value:
            bad(lineno, f"conflicting duplicate entry for "
                        f"g {pair[0] + 1} {pair[1] + 1}")
        m.entries[pair] = value
    elif key == "param" and len(toks) == 2:
        try:
            m.params[toks[1]] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            bad(lineno, f"parameter value must be rational, got {value!r}")
    elif key == "box" and len(toks) == 2:
        lo, sep, hi = value.partition("..")
        if not sep:
            bad(lineno, "box range must read 'lo .. hi'")
        try:
            m.box[toks[1]] = (Fraction(lo.strip()), Fraction(hi.strip()))
        except (ValueError, ZeroDivisionError):
            bad(lineno, "box bounds must be rational")
    else:
        bad(lineno, f"unknown key {' '.join(toks)!r} in [chart]")


def _check_entry(chk, toks, value, bad, lineno):
    if toks == ["name"]:
        chk.name = value
    elif toks[0] == "scalar" and len(toks) == 2:
        chk.scalars[toks[1]] = value
    else:
        bad(lineno, f"unknown key {' '.join(toks)!r} in [check]")


# ---------------------------------------------------------------------------
# Building charts and warped specs from manifests


def build_chart(m):
    if m.kind != "chart":
        raise ManifestError(f"{m.path}: expected a chart manifest")
    if not m.coords:
        raise ManifestError(f"{m.path}: coords not declared")
    n = len(m.coords)
    for i, j in m.entries:
        if j >= n:
            raise ManifestError(f"{m.path}: metric index g {i + 1} {j + 1} "
                                f"exceeds dimension {n}")
    for c in m.box:
        if c not in m.coords:
            raise ManifestError(f"{m.path}: box names unknown coordinate "
                                f"{c!r}")
    metric = [[m.entries.get((min(i, j), max(i, j)), "0") for j in range(n)]
              for i in range(n)]
    try:
        return Chart(m.coords, metric, params=m.params, box=m.box)
    except (ChartError, ex.ExprError) as err:
        raise ManifestError(f"{m.path}: {err}") from None


def build_spec(m):
    if m.kind != "warped":
        raise ManifestError(f"{m.path}: expected a warped manifest")
    if not (m.base and m.fiber and m.warp):
        raise ManifestError(f"{m.path}: [warped] needs base, fiber, and warp")
    root = os.path.dirname(os.path.abspath(m.path))
    base, fiber = (build_chart(load_manifest(os.path.join(root, ref)))
                   for ref in (m.base, m.fiber))
    try:
        return WarpedSpec(base, fiber, m.warp)
    except (ChartError, ex.ExprError) as err:
        raise ManifestError(f"{m.path}: {err}") from None


# ---------------------------------------------------------------------------
# Report plumbing


def _ptstr(pt, coords):
    return {c: str(pt[c]) for c in coords}


def _text(m, name, e):
    """The `ex.Text` of expression `e`, which the report calls `name`; an
    expression whose text exceeds the printing budget is refused as input."""
    try:
        return ex.to_pieces(e)
    except ex.PrintBudgetError as err:
        raise ManifestError(f"{m.path}: {name}: {err}") from None


def joined(v):
    """The report value `v` with every `ex.Text` in it joined into a str:
    the value that its `--json` text encodes."""
    if isinstance(v, ex.Text):
        return str(v)
    if isinstance(v, dict):
        return {k: joined(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [joined(x) for x in v]
    return v


def _resolve_seed(m, seed):
    if seed is not None:
        return seed
    if m.seed is not None:
        return m.seed
    return DEFAULT_SEED


def _scaffold(m, seed, points):
    rep = {
        "schema": SCHEMA,
        "manifest": {"file": os.path.basename(m.path), "lines": list(m.lines)},
        "kind": m.kind,
        "seed": str(seed),
        "points": points,
    }
    if m.kind == "chart":
        chart = build_chart(m)
        spec = None
    else:
        spec = build_spec(m)
        chart = assemble_product(spec)
        rep["fiber_map"] = dict(spec.fiber_map)
    rep["coords"] = list(chart.coords)
    rep["params"] = {k: str(v) for k, v in chart.params.items()}
    rep["n"] = chart.n
    return chart, spec, rep


# ---------------------------------------------------------------------------
# Commands


def curvature_report(path, seed=None, points=8):
    m = load_manifest(path)
    seed = _resolve_seed(m, seed)
    chart, _, rep = _scaffold(m, seed, points)
    b = bundle(chart)
    n = chart.n
    nz_r, nz_s = {}, {}
    # (table, key, component), zero-tested in one batch; each sample point
    # has one evaluator, which then gives the kappa sample
    comps = [(nz_r, "R", " ".join(str(i + 1) for i in t), b.R.comp(t))
             for t in orbit_reps(n, 4)]
    comps += [(nz_s, "S", f"{i + 1} {j + 1}", b.S.comps[i][j])
              for i in range(n) for j in range(i, n)]
    test = ex.ZeroTest([e for *_, e in comps])
    samples = []
    for pt in chart.sample_points(points, seed):
        pe = PointEval(pt)
        test.visit(pe)
        try:
            samples.append(ex.num_str(pe.rounded(b.kappa)))
        except DomainError:
            samples.append("undefined")
    for (table, name, key, e), z in zip(comps, test.result()):
        if not z:
            table[key] = _text(m, f"{name}[{key}]", e)
    rep["command"] = "curvature"
    rep["curvature"] = {
        "kappa": _text(m, "kappa", b.kappa),
        "kappa_samples": samples,
        "nonzero_R": nz_r,
        "nonzero_S": nz_s,
        "flat": not nz_r,
    }
    return 0, rep


def classify_report(path, seed=None, points=8):
    m = load_manifest(path)
    seed = _resolve_seed(m, seed)
    chart, _, rep = _scaffold(m, seed, points)
    b = bundle(chart)
    n = chart.n
    rep["command"] = "classify"
    requested = {}
    for chk in m.checks:
        if not chk.name:
            raise ManifestError(f"{m.path}: [check] section missing its name")
        if chk.name not in CATALOG:
            raise ManifestError(f"{m.path}: unknown identity in [check]: "
                                f"{chk.name!r}")
        if requested.setdefault(chk.name, chk.scalars) != chk.scalars:
            raise ManifestError(f"{m.path}: conflicting duplicate entry for "
                                f"[check] {chk.name!r}")
    flat_test = ex.ZeroTest([b.R.comp(t) for t in orbit_reps(n, 4)])
    fit_test = PseudosymmetryFit(b, max(points, 5))
    checks = {}
    for name, row in CATALOG.items():
        low = row.needs_dim3 and n < 3
        if low and name in requested:
            raise ManifestError(f"{m.path}: [check] {name!r} needs dimension "
                                f">= 3, the chart has {n}")
        if not low and (name in requested or not row.parametric):
            try:
                checks[name] = IdentityCheck(name, b, requested.get(name))
            except ValueError as err:
                raise ManifestError(f"{m.path}: {err}") from None
    # one evaluator per point; the sample list is a prefix of any longer
    # one, so the first `points` feed the flat test and the rows
    pts = chart.sample_points(max(points, 5), seed)
    ex.sweep(pts[:points], [flat_test, *checks.values(), fit_test])
    ex.sweep(pts[points:], [fit_test])
    flat = all(flat_test.result())
    fit = fit_test.result()
    residual_zero = all(rec["residual"] == ex.fzero for rec in fit.records)
    catalog = {}
    code = 0
    for name, row in CATALOG.items():
        if name in checks:
            v = checks[name].result()
            v["requested"] = name in requested
            v["skipped"] = False
            if name in requested:
                v["scalars"] = dict(requested[name])
                if not v["holds"]:
                    code = 1
            catalog[name] = v
        else:
            catalog[name] = {"name": name, "skipped": True,
                             "requested": False,
                             "reason": ("needs dimension >= 3"
                                        if row.needs_dim3 and n < 3
                                        else "needs candidate scalars"),
                             "qualifier": row.qualifier}
    rep["fit"] = {
        "rank": fit.rank,
        "family": fit.family,
        "trivial": fit.trivial,
        "max_residual": ex.num_str(fit.max_residual),
        "residual_zero": bool(residual_zero),
        "constant_type": bool(constant_type_check(fit)),
        "points_invalid": fit.points_invalid,
        "records": [{"point": _ptstr(rec["point"], chart.coords),
                     "rank": rec["rank"],
                     "L1": ex.num_str(rec["L1"]),
                     "L2": ex.num_str(rec["L2"]),
                     "residual": ex.num_str(rec["residual"])}
                    for rec in fit.records],
    }
    rep["catalog"] = catalog
    rep["summary"] = {
        "flat": bool(flat),
        "semisymmetric": bool(catalog["R.R = 0"]["holds"]),
        "ricci_semisymmetric": bool(catalog["R.S = 0"]["holds"]),
        # pseudosymmetric type: R.R solvable as L1 Q(g,R) + L2 Q(S,R)
        # at every sampled point
        "pseudosymmetric": bool(residual_zero and fit.rank >= 1),
    }
    return code, rep


def warped_verify_report(path, L1=None, L2=None, seed=None, points=8):
    m = load_manifest(path)
    if m.kind != "warped":
        raise ManifestError(f"{m.path}: warped-verify needs a warped manifest")
    seed = _resolve_seed(m, seed)
    chart, spec, rep = _scaffold(m, seed, points)
    L1 = L1 if L1 is not None else (m.L1 or "0")
    L2 = L2 if L2 is not None else (m.L2 or "0")
    # the candidates are input, checked before any sample point is evaluated
    try:
        l1e = _base_scalar(spec, L1, "L1")
        l2e = _base_scalar(spec, L2, "L2")
    except (ChartError, ValueError) as err:
        raise ManifestError(f"{m.path}: {err}") from None
    rep["command"] = "warped-verify"
    rep["p"], rep["q"] = spec.p, spec.q
    rep["warp"] = _text(m, "warp", spec.f)
    rep["L1"], rep["L2"] = L1, L2
    aux = auxiliaries(spec)
    T = {f"{a + 1} {c + 1}": aux.T.comps[a][c]
         for a in range(spec.p) for c in range(a, spec.p)}
    rep["auxiliaries"] = {
        "T": {key: _text(m, f"T[{key}]", e) for key, e in T.items()},
        "trT": _text(m, "trT", aux.trT),
        "Delta": _text(m, "Delta", aux.Delta),
        "Omega": _text(m, "Omega", aux.Omega),
    }
    # the block formulas against the direct computation: the action tensors
    # share the 16 index symmetries of their orbits, so both sides are
    # compared at the representatives only; the direct actions are the
    # bundle's memoized ones, which classify reads too
    b = bundle(chart)
    curv = block_curvature(spec)
    acts = block_actions(spec)
    reps = list(orbit_reps(chart.n, 6))
    oracle = Defects()
    for key, direct, block in (
            ("R", b.R.flatten(), curv["R"].flatten()),
            ("S", b.S.flatten(), curv["S"].flatten()),
            ("kappa", [b.kappa], [curv["kappa"]])):
        oracle.add(key, "product", [ex.sub(d, k) for d, k in zip(direct, block)])
    for key, direct in (("RR", cached_derivation(b, "R", "R")),
                        ("QgR", cached_tachibana(b, "g", "R")),
                        ("QSR", cached_tachibana(b, "S", "R"))):
        oracle.add(key, "product",
                   [ex.sub(direct.reps[t], acts[key].reps[t]) for t in reps])
    conditions = Conditions(spec, l1e, l2e)
    trichotomy = Trichotomy(spec, l1e)
    visitors = oracle.visitors + conditions.visitors + trichotomy.visitors
    # no branch is forced when L2 is identically zero
    dichotomy = None if ex.is_literal_zero(l2e) else Dichotomy(spec, l2e)
    if dichotomy is not None:
        visitors += dichotomy.visitors
    # the candidates are judged at the base points too, so that one defined
    # at none of them is named, before a zero test that reads it fails
    candidates = ex.ZeroTest([l1e, l2e])
    visitors.append(("base", candidates))
    # one sweep per chart; every check on a chart shares its evaluator
    sweep_charts(spec, visitors, points, seed)
    for what, undefined in zip(("L1", "L2"), candidates.undefined()):
        if undefined:
            raise ManifestError(f"{m.path}: {what} not evaluable on the sampling box")
    rep["oracle"], _ = oracle.verdicts()
    conds = conditions.result()
    conds["witnesses"] = {
        k: {"index": list(v["index"]),
            "defect": _text(m, f"condition ({k}) witness defect", v["defect"])}
        for k, v in conds["witnesses"].items()}
    rep["conditions"] = conds
    tri = trichotomy.result()
    rep["trichotomy"] = {
        "labels": list(tri["labels"]),
        "all_covered": bool(tri["all_covered"]),
        "records": [{"point": _ptstr(r["point"], chart.coords),
                     "label": r["label"]} for r in tri["records"]],
    }
    if dichotomy is None:
        rep["dichotomy"] = {"skipped": True,
                            "reason": "L2 is identically zero; "
                                      "no branch forced"}
        dich_ok = True
    else:
        try:
            d = dichotomy.result()
        except ValueError as err:
            raise ManifestError(f"{m.path}: dichotomy: {err}") from None
        consistent = ((not conds["all_hold"]) or d["base_flat"]
                      or d["fiber_einstein"])
        rep["dichotomy"] = {"skipped": False,
                            "base_flat": d["base_flat"],
                            "fiber_einstein": d["fiber_einstein"],
                            "consistent": consistent}
        dich_ok = consistent
    ok = all(rep["oracle"].values()) and conds["all_hold"] and dich_ok
    return (0 if ok else 1), rep


def selftest_report(seed=DEFAULT_SEED):
    items = []

    def item(name, fn):
        try:
            ok, note = fn()
        except Exception as err:    # selftest reports failures, never raises
            ok, note = False, f"{type(err).__name__}: {err}"
        items.append({"name": name, "ok": bool(ok), "note": str(note)})

    def flat_zero():
        code, rep = curvature_report(fixture_path("flat.mf"), seed=seed,
                                     points=3)
        return (code == 0 and rep["curvature"]["flat"],
                "kappa = " + str(rep["curvature"]["kappa"]))

    def fiber_kappa():
        code, rep = curvature_report(fixture_path("ex1_fiber.mf"), seed=seed,
                                     points=3)
        chart = build_chart(load_manifest(fixture_path("ex1_fiber.mf")))
        k = ex.parse(str(rep["curvature"]["kappa"]), coords=chart.coords)
        return (code == 0 and chart.is_zero(ex.sub(k, ex.const(-12)),
                                            seed=seed),
                "scalar curvature equals -12")

    def warped_kappa():
        spec = build_spec(load_manifest(fixture_path("ex2_warped.mf")))
        prod = assemble_product(spec)
        want = ex.parse("6*exp(x1)*(1 + exp(x1))/(1 + 2*exp(x1))^3",
                        coords=prod.coords)
        return (prod.is_zero(ex.sub(bundle(prod).kappa, want), seed=seed),
                "scalar curvature matches the closed form")

    def sphere_semisym():
        code, rep = classify_report(fixture_path("sphere.mf"), seed=seed,
                                    points=5)
        v = rep["catalog"]["R.R = 0"]
        return (code == 0 and v["holds"] and not v["vacuous"],
                "R.R = 0 holds non-vacuously")

    def verify(name, points, expect_code, expect_failed):
        def fn():
            code, rep = warped_verify_report(fixture_path(name), seed=seed,
                                             points=points)
            ok = (code == expect_code and all(rep["oracle"].values())
                  and rep["conditions"]["failed"] == expect_failed)
            return ok, f"failed = {rep['conditions']['failed']}"
        return fn

    def corrupt():
        try:
            load_manifest(fixture_path("corrupt.mf"))
        except ManifestError:
            return True, "rejected as expected"
        return False, "corrupt manifest was accepted"

    def seed_invariance():
        outs = []
        for s in (1, 2):
            code, rep = warped_verify_report(fixture_path("fs_warped.mf"),
                                             seed=s, points=3)
            outs.append((code, tuple(rep["conditions"]["failed"]),
                         tuple(sorted(rep["oracle"].items())),
                         tuple(rep["trichotomy"]["labels"])))
        return outs[0] == outs[1], "verdicts agree across seeds"

    def json_roundtrip():
        # the report goes through the writer `--json` uses
        _, rep = curvature_report(fixture_path("sphere2.mf"), seed=seed,
                                  points=3)
        buf = io.StringIO()
        write_json(rep, buf)
        blob = buf.getvalue()
        rep = joined(rep)
        stable = (blob == json.dumps(rep, sort_keys=True, indent=2) + "\n"
                  and json.loads(blob) == rep)
        return stable, "emit-parse-emit stable"

    item("flat chart has zero curvature", flat_zero)
    item("fiber chart scalar curvature", fiber_kappa)
    item("warped product scalar curvature", warped_kappa)
    item("sphere chart is semisymmetric", sphere_semisym)
    item("warped verify: conformally flat product",
         verify("ex2_warped.mf", 3, 0, []))
    item("warped verify: sphere fiber product",
         verify("fs_warped.mf", 3, 0, []))
    item("warped verify: curved base with zero candidates",
         verify("cf_warped.mf", 3, 1, ["I", "II"]))
    item("warped verify: five-dimensional product",
         verify("ex1_warped.mf", 2, 0, []))
    item("corrupt manifest rejected", corrupt)
    item("seed invariance", seed_invariance)
    item("json round trip", json_roundtrip)

    code = 0 if all(i["ok"] for i in items) else 1
    return code, {"schema": SCHEMA, "command": "selftest",
                  "seed": str(seed), "items": items}


# ---------------------------------------------------------------------------
# Rendering and entry point


def _render(code, rep):
    """The text report as str pieces to write in order, each line ending in
    a newline.  The pieces of kappa, the R/S components and the warp, whose
    texts can run to megabytes, go in as they are, so no line that holds
    them is ever built."""
    out = []

    def line(*pieces):
        out.extend(pieces)
        out.append("\n")

    cmd = rep["command"]
    if cmd == "curvature":
        c = rep["curvature"]
        line(f"curvature report: {rep['manifest']['file']} "
             f"({rep['kind']}, n = {rep['n']})")
        line("kappa = ", *c["kappa"])
        line("kappa samples: " + ", ".join(c["kappa_samples"]))
        if c["flat"]:
            line("all curvature components zero")
        else:
            line("nonzero R components (orbit representatives):")
            for key in sorted(c["nonzero_R"]):
                line(f"  R[{key}] = ", *c["nonzero_R"][key])
            if c["nonzero_S"]:
                line("nonzero S components:")
                for key in sorted(c["nonzero_S"]):
                    line(f"  S[{key}] = ", *c["nonzero_S"][key])
    elif cmd == "classify":
        line(f"classify report: {rep['manifest']['file']} "
             f"({rep['kind']}, n = {rep['n']})")
        s = rep["summary"]
        f = rep["fit"]
        flags = [k for k in ("flat", "semisymmetric", "ricci_semisymmetric",
                             "pseudosymmetric") if s[k]]
        line("summary: " + (", ".join(flags) if flags else "none"))
        line(f"fit: rank {f['rank']}, max residual "
             f"{f['max_residual']}, family = {f['family']}, "
             f"constant type = {f['constant_type']}"
             + _invalid_note(f))
        line("catalog:")
        for name, v in rep["catalog"].items():
            if v["skipped"]:
                status = "skipped (" + v["reason"] + ")"
            elif v["vacuous"]:
                status = "vacuous (all points excluded by qualifier)"
            elif v["holds"]:
                status = "holds"
            else:
                status = "fails"
            mark = " [requested]" if v.get("requested") else ""
            line(f"  {name:35s} {status}{_invalid_note(v)}{mark}")
    elif cmd == "warped-verify":
        line(f"warped-verify report: {rep['manifest']['file']} "
             f"(p = {rep['p']}, q = {rep['q']}, n = {rep['n']})")
        line("warp f = ", *rep["warp"])
        line(f"candidates: L1 = {rep['L1']}, L2 = {rep['L2']}")
        line("fiber relabeling: " + ", ".join(
            f"{k} -> {v}" for k, v in rep["fiber_map"].items()))
        ora = rep["oracle"]
        line("oracle equivalence (blocks vs direct): " + ", ".join(
            f"{k} {'ok' if v else 'MISMATCH'}" for k, v in ora.items()))
        conds = rep["conditions"]
        for name in ("I", "II", "III", "IV", "V"):
            status = "holds" if conds[name] else "fails"
            extra = ""
            if name == "IV":
                extra = (f" (base factor zero: "
                         f"{conds['IV_base_factor_zero']}, fiber factor "
                         f"zero: {conds['IV_fiber_factor_zero']})")
            if not conds[name] and name in conds["witnesses"]:
                w = conds["witnesses"][name]
                extra = (f" (witness index {tuple(w['index'])}: "
                         f"{excerpt(w['defect'])})")
            line(f"condition ({name}): {status}{extra}")
        line(f"corollary R.T equation: "
             f"{'holds' if conds['corollary_ii'] else 'fails'}")
        tri = rep["trichotomy"]
        line(f"trichotomy labels: {', '.join(tri['labels'])} "
             f"(all points covered: {tri['all_covered']})")
        d = rep["dichotomy"]
        if d["skipped"]:
            line("dichotomy: skipped, " + d["reason"])
        else:
            line(f"dichotomy: base flat = {d['base_flat']}, fiber "
                 f"Einstein = {d['fiber_einstein']}, consistent = "
                 f"{d['consistent']}")
    elif cmd == "selftest":
        for it in rep["items"]:
            mark = "ok  " if it["ok"] else "FAIL"
            line(f"{mark} {it['name']}: {it['note']}")
        good = sum(1 for it in rep["items"] if it["ok"])
        line(f"{good}/{len(rep['items'])} selftest items passed")
    outcome = {0: "pass", 1: "verdict failure", 2: "input error"}[code]
    line(f"result: {outcome}")
    return out


def _invalid_note(v):
    k = v.get("points_invalid", 0)
    return f", {k} points invalid" if k else ""


_JOIN_BELOW = 1 << 16  # characters; see _write_pieces


def _slices(s):
    """The slices of at most _JOIN_BELOW characters that make up `s`."""
    return (s[i:i + _JOIN_BELOW] for i in range(0, len(s), _JOIN_BELOW))


def _json_text(pieces, out, memo):
    """Append to `out` the pieces of the JSON string of the text `pieces`, a
    Text or a tuple of strs, read with ropes flattened.  A plain str goes in
    by reference; any other is escaped slice by slice, which is the same as
    escaping the whole text, since JSON escapes each character on its own.
    `memo` maps the id of each str seen to what it became, so a str shared
    by many uses is checked once."""
    out.append('"')
    for p in ex.strs(pieces):
        done = memo.get(id(p))
        if done is None:
            done = memo[id(p)] = ((p,) if ex.is_plain(p)
                                  else [json.dumps(c)[1:-1] for c in _slices(p)])
        out += done
    out.append('"')


def _json_pieces(v, out, memo, indent="\n"):
    """Append to `out` the pieces of `json.dumps(joined(v), sort_keys=True,
    indent=2)` for a report value: dicts with string keys, lists, strings,
    `ex.Text`s, ints and bools.  A Text shorter than _JOIN_BELOW characters
    is joined.  A longer one goes in whole, by reference, when it is plain
    (see `ex.Text`), so that JSON keeps it as it is, and `_write_pieces`
    flattens it; any other string or Text that long is quoted by
    `_json_text`, neither copied nor joined.  A shorter string is quoted by
    hand when JSON keeps it as it is, which a joined plain Text does by
    construction; any other string or value goes through `json.dumps`."""
    if isinstance(v, str):
        if len(v) >= _JOIN_BELOW:
            _json_text((v,), out, memo)
        elif ex.is_plain(v):
            out.append('"' + v + '"')
        else:
            out.append(json.dumps(v))
    elif v is True or v is False:
        out.append("true" if v else "false")
    elif type(v) is int:
        out.append(repr(v))
    elif isinstance(v, ex.Text):
        if v.size < _JOIN_BELOW:
            out.append('"' + str(v) + '"' if v.plain else json.dumps(str(v)))
        elif v.plain:
            out += ('"', v, '"')
        else:
            _json_text(v, out, memo)
    elif isinstance(v, (dict, list, tuple)) and v:
        inner = indent + "  "
        if isinstance(v, dict):
            sep = "{" + inner
            for k in sorted(v):
                out.append(sep + json.dumps(k) + ": ")
                _json_pieces(v[k], out, memo, inner)
                sep = "," + inner
            out.append(indent + "}")
        else:
            sep = "[" + inner
            for x in v:
                out.append(sep)
                _json_pieces(x, out, memo, inner)
                sep = "," + inner
            out.append(indent + "]")
    else:
        out.append(json.dumps(v))
    return out


def _write_pieces(pieces, fh):
    """Write the text of `pieces`, strs and `ex.Text`s, to the text file
    `fh` in order, flattening each Text with an explicit stack, since ropes
    nest as deep as the DAG they print (the walk of `ex.strs`, inlined: its
    generator costs a resume per piece).  Runs of short strs are joined into
    writes of at most _JOIN_BELOW characters, since a write per piece costs
    more than copying a short piece, and a longer str is written in slices
    of _JOIN_BELOW characters, so that no long text is ever joined or
    encoded whole."""
    run, size = [], 0
    stack = [iter(pieces)]
    while stack:
        for p in stack[-1]:
            if type(p) is not str:
                stack.append(iter(p))
                break
            if size + len(p) > _JOIN_BELOW:
                fh.write("".join(run))
                run, size = [], 0
                if len(p) > _JOIN_BELOW:
                    for c in _slices(p):
                        fh.write(c)
                    continue
            run.append(p)
            size += len(p)
        else:
            stack.pop()
    fh.write("".join(run))


def write_json(rep, fh):
    """Write `json.dumps(joined(rep), sort_keys=True, indent=2) + "\\n"` to
    the text file `fh`, piece by piece; see `_json_pieces` for the value
    types."""
    _write_pieces(_json_pieces(rep, [], {}) + ["\n"], fh)


def _point_count(text):
    k = int(text)
    if 1 <= k <= ex.MAX_POINTS:
        return k
    # the sample list is built whole, before any point is evaluated; the
    # count is refused through argparse, which reports it
    import argparse
    raise argparse.ArgumentTypeError(
        f"must be at least 1, got {k}" if k < 1
        else f"must be at most {ex.MAX_POINTS} (MAX_POINTS), got {k}")


# The command-line grammar, written once: for each command, whether it takes
# a manifest, then its options in order as (flag, converter, default,
# argparse keywords).  `_read_plain` reads plain command lines from it, and
# `_parser` builds argparse from it for every other line.
_JSON = ("--json", None, None,
         {"metavar": "OUT", "help": "also write the report as JSON to OUT"})
_REPORT_OPTIONS = (
    ("--seed", int, None, {"help": "sampling seed (overrides the manifest)"}),
    ("--points", _point_count, 8,
     {"help": f"number of sample points per zero test (1 to {ex.MAX_POINTS})"}),
    _JSON)
_COMMANDS = {
    "curvature": (True, _REPORT_OPTIONS),
    "classify": (True, _REPORT_OPTIONS),
    "warped-verify": (True, (
        ("--L1", None, None, {"help": "candidate L1 (overrides the manifest)"}),
        ("--L2", None, None, {"help": "candidate L2 (overrides the manifest)"}),
        *_REPORT_OPTIONS)),
    "selftest": (False, (("--seed", int, None, {}), _JSON)),
}


def _plain(word):
    return word != "" and word[0] != "-"


def _read_plain(argv):
    """The arguments of a plain command line, CMD [MANIFEST] (--opt VALUE)*
    with each option at most once and no word empty or starting with '-',
    as the dict `vars(_parser().parse_args(argv))` gives; None for any
    other line, or when a converter refuses a value, so that argparse alone
    writes help, usage and errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    takes_manifest, options = _COMMANDS[argv[0]]
    args = {"cmd": argv[0]}
    if takes_manifest:
        if len(argv) < 2 or not _plain(argv[1]):
            return None
        args["manifest"] = argv[1]
    words = argv[1 + takes_manifest:]
    given = dict(zip(words[::2], words[1::2]))
    if len(words) % 2 or 2 * len(given) < len(words):
        return None
    for flag, convert, default, _ in options:
        text = given.pop(flag, None)
        if text is None:
            args[flag[2:]] = default
        elif not _plain(text):
            return None
        elif convert is None:
            args[flag[2:]] = text
        else:
            try:
                args[flag[2:]] = convert(text)
            except Exception:       # argparse reports or raises it
                return None
    return None if given else args


@functools.cache
def _parser():
    """The argparse parser of `_COMMANDS`, built once per process, on the
    first command line that `_read_plain` does not read."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="warpcurv",
        description="curvature, classification, and warped-product "
                    "verification for coordinate metrics")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (takes_manifest, options) in _COMMANDS.items():
        sp = sub.add_parser(name)
        if takes_manifest:
            sp.add_argument("manifest")
        for flag, convert, default, keywords in options:
            sp.add_argument(flag, type=convert, default=default, **keywords)
    return ap


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = vars(_parser().parse_args(argv))
    cmd, seed = args["cmd"], args["seed"]
    try:
        if cmd == "curvature":
            code, rep = curvature_report(args["manifest"], seed=seed,
                                         points=args["points"])
        elif cmd == "classify":
            code, rep = classify_report(args["manifest"], seed=seed,
                                        points=args["points"])
        elif cmd == "warped-verify":
            code, rep = warped_verify_report(args["manifest"], L1=args["L1"],
                                             L2=args["L2"], seed=seed,
                                             points=args["points"])
        else:
            code, rep = selftest_report(
                seed=seed if seed is not None else DEFAULT_SEED)
    except (ManifestError, ChartError, ex.ExprError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # the JSON file is opened before the text report is written, so that
    # an OUT that cannot be written is an input error that prints no report
    path, fh = args["json"], None
    if path is not None:
        try:
            fh = open(path, "w", encoding="utf-8")
        except OSError as err:
            print(f"error: cannot write {path!r}: {err.strerror}", file=sys.stderr)
            return 2
    try:
        _write_pieces(_render(code, rep), sys.stdout)
        if fh is not None:
            write_json(rep, fh)
    finally:
        if fh is not None:
            fh.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
