"""Manifest grammar, command reports, exit codes, and bundled fixtures."""

import hashlib
import io
import itertools
import json
import shutil
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath
import pytest

import helpers
from warpcurv import cli, tensor
from warpcurv import expr as ex
from warpcurv.conditions import check_identity, fit_pseudosymmetry
from warpcurv.cli import (
    ManifestError, build_chart, build_spec, classify_report, curvature_report,
    fixture_path, load_manifest, main, selftest_report, warped_verify_report,
)
from warpcurv.curvature import bundle
from warpcurv.warped import (
    assemble_product, dichotomy_check, trichotomy_report, verify_conditions,
)

FIXTURES = [
    "flat.mf", "flat1.mf", "flat2.mf", "flat3.mf", "sphere.mf", "sphere2.mf",
    "aniso3.mf", "hyper2.mf", "ex1_base.mf", "ex1_fiber.mf", "ex1_warped.mf",
    "ex2_base.mf", "ex2_warped.mf", "fs_warped.mf", "cf_warped.mf",
    "product.mf",
]


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_manifest_chart(tmp_path):
    path = _write(tmp_path, "c.mf", """
# sample chart
[chart]
coords = x1 x2
param a = 3/2
box x1 = 1/2 .. 3
g 1 1 = a
g 1 2 = x1*x2
g 2 2 = 1
""")
    m = load_manifest(path)
    assert m.kind == "chart"
    assert m.coords == ("x1", "x2")
    assert m.params == {"a": Fraction(3, 2)}
    assert m.box == {"x1": (Fraction(1, 2), Fraction(3))}
    chart = build_chart(m)
    assert chart.n == 2
    assert str(chart.metric[0][0]) == "a"
    # lower triangle is filled symmetrically
    assert chart.is_zero(ex.sub(chart.metric[0][1], chart.metric[1][0]))


def test_manifest_errors(tmp_path, capsys):
    cases = [
        ("coords = x1\n", "before any section"),
        ("[weird]\n", "unknown section"),
        ("[chart]\ncoords = x1\ng 1 1 : 1\n", "key = value"),
        ("[chart]\ncoords = x1\ng 0 1 = 1\n", "index"),
        ("[chart]\ncoords = x1\ng 1 1 = 1\ng 1 1 = 2\n", "conflict"),
        ("[chart]\ncoords = x1\nparam a = pi\ng 1 1 = 1\n", "rational"),
        ("[chart]\ncoords = x1\nbox x1 = 1 2\ng 1 1 = 1\n", "lo .. hi"),
        ("[chart]\ncoords = x1\nfoo = 1\ng 1 1 = 1\n", "unknown key"),
        ("[chart]\ncoords = x1\ng 1 1 = 1\n[chart]\ncoords = y\n", "one"),
        ("[chart]\ng 1 1 = 1\n", "coords"),
        ("[chart]\ncoords = x1\ng 1 1 = exp(zz)\n", "zz"),
        ("[chart]\ncoords = x1\n= 1\ng 1 1 = 1\n", "missing key before '='"),
        ("[check]\nname = R.R = 0\n", "no [chart] or [warped] section"),
        ("[chart]\ncoords =\ng 1 1 = 1\n", "coords must list at least one name"),
        ("[chart]\ncoords = x1\ng 1 a = 1\n", "metric index must be an integer"),
        ("[chart]\ncoords = x1 x2\ng 1 1 = 1\ng 2 2 = 1\ng 1 2 = 1/3\ng 2 1 = 1/4\n",
         "conflicting duplicate entry for g 1 2"),
        ("[chart]\ncoords = x1\nbox x1 = a .. 2\ng 1 1 = 1\n", "box bounds must be rational"),
        ("[chart]\ncoords = x1\nseed = 1.5\ng 1 1 = 1\n", "seed must be an integer"),
        ("[chart]\ncoords = x1\ng 1 1 = 1\ng 1 2 = 1\n", "exceeds dimension 1"),
        ("[chart]\ncoords = x1\nbox y1 = 0 .. 1\ng 1 1 = 1\n",
         "box names unknown coordinate 'y1'"),
    ]
    for text, frag in cases:
        path = _write(tmp_path, "bad.mf", text)
        with pytest.raises(ManifestError) as err:
            build_chart(load_manifest(path))
        assert frag in str(err.value), text
        # the command line reports it as input: exit 2, no traceback
        assert main(["curvature", path]) == 2, text
        stderr = capsys.readouterr().err
        assert frag in stderr and "Traceback" not in stderr, text

    path = _write(tmp_path, "bad.mf", "[chart]\ncoords = x1\ng 1 1 : 1\n")
    with pytest.raises(ManifestError, match="bad.mf:3"):
        load_manifest(path)


CHART_HEAD = "[chart]\ncoords = x1\ng 1 1 = 1\n"
WARPED_HEAD = "[warped]\nbase = b.mf\nfiber = f.mf\nwarp = exp(x1)\n"


def _duplicates_rejected(tmp_path, head, lines):
    """Each line, repeated with its value, loads; followed by the same key
    with another value, it is rejected as a conflicting duplicate."""
    for line, other in lines:
        key = line.partition("=")[0].strip()
        path = _write(tmp_path, "dup.mf", head + line + "\n" + line + "\n")
        load_manifest(path)
        path = _write(tmp_path, "dup.mf", head + line + "\n" + other + "\n")
        with pytest.raises(ManifestError,
                           match=f"dup.mf:{head.count(chr(10)) + 2}: "
                                 f"conflicting duplicate entry for {key}$"):
            load_manifest(path)


def test_manifest_rejects_conflicting_chart_keys(tmp_path):
    _duplicates_rejected(tmp_path, CHART_HEAD, [
        ("param a = 1", "param a = 2"),
        ("box x1 = 0 .. 1", "box x1 = 0 .. 2"),
        ("seed = 3", "seed = 4"),
        ("coords = x1", "coords = x2"),
    ])
    # a repeat keeps the one value
    path = _write(tmp_path, "c.mf", CHART_HEAD + "param a = 1\nparam a = 1\n")
    assert load_manifest(path).params == {"a": Fraction(1)}


def test_manifest_rejects_conflicting_warped_keys(tmp_path):
    _duplicates_rejected(tmp_path, WARPED_HEAD, [
        ("base = b.mf", "base = c.mf"),
        ("fiber = f.mf", "fiber = c.mf"),
        ("warp = exp(x1)", "warp = exp(2*x1)"),
        ("L1 = 0", "L1 = 1"),
        ("L2 = 0", "L2 = x1"),
        ("seed = 3", "seed = 4"),
    ])


def test_warped_manifest_errors(tmp_path, capsys):
    _write(tmp_path, "b.mf", "[chart]\ncoords = x1\ng 1 1 = 1\n")
    _write(tmp_path, "f.mf", "[chart]\ncoords = y1\ng 1 1 = 1\n")
    _write(tmp_path, "w.mf", WARPED_HEAD)
    needs = "[warped] needs base, fiber, and warp"
    cases = [
        (WARPED_HEAD + "seed = x\n", "seed must be an integer, got 'x'"),
        (WARPED_HEAD + "metric = 1\n", "unknown key 'metric' in [warped]"),
        (WARPED_HEAD + "[check]\nscalar = 1\n", "unknown key 'scalar' in [check]"),
        ("[warped]\nfiber = f.mf\nwarp = 1\n", needs),
        ("[warped]\nbase = b.mf\nwarp = 1\n", needs),
        ("[warped]\nbase = b.mf\nfiber = f.mf\n", needs),
        # a warped manifest is no base
        ("[warped]\nbase = w.mf\nfiber = f.mf\nwarp = 1\n",
         "w.mf: expected a chart manifest"),
    ]
    for text, frag in cases:
        path = _write(tmp_path, "bad.mf", text)
        for cmd in ("warped-verify", "classify"):
            assert main([cmd, path]) == 2, (cmd, text)
            err = capsys.readouterr().err
            assert frag in err and "Traceback" not in err, (cmd, text)


def test_manifest_seed_applies_unless_seed_is_given(tmp_path):
    _write(tmp_path, "b.mf", "[chart]\ncoords = x1\ng 1 1 = 1 + x1^2\n")
    _write(tmp_path, "f.mf", "[chart]\ncoords = y1\ng 1 1 = 1\n")
    out = tmp_path / "r.json"
    for text, cmd in ((CHART_HEAD + "seed = 5\n", "curvature"),
                      (WARPED_HEAD + "seed = 5\n", "warped-verify")):
        path = _write(tmp_path, "s.mf", text)
        reports = {}
        for extra in ([], ["--seed", "5"], ["--seed", "9"]):
            code = main([cmd, path, "--points", "2", "--json", str(out)] + extra)
            assert code in (0, 1), (cmd, extra)
            reports[tuple(extra)] = code, out.read_bytes()
        assert reports[()] == reports[("--seed", "5")], cmd
        assert json.loads(reports[("--seed", "9")][1])["seed"] == "9", cmd


def test_manifest_rejects_conflicting_check_keys(tmp_path):
    _duplicates_rejected(tmp_path, CHART_HEAD + "[check]\n", [
        ("name = R.R = 0", "name = R.S = 0"),
        ("scalar L = 1", "scalar L = 2"),
    ])
    # the same key in two [check] sections is two requests
    path = _write(tmp_path, "c.mf", CHART_HEAD + "[check]\nname = R.R = 0\n"
                  "[check]\nname = R.S = 0\n")
    assert [c.name for c in load_manifest(path).checks] == ["R.R = 0", "R.S = 0"]


def test_classify_rejects_one_row_checked_with_two_scalars(tmp_path, capsys):
    flat = ("[chart]\ncoords = x1 x2 x3\ng 1 1 = 1\ng 2 2 = 1\ng 3 3 = 1\n"
            "[check]\nname = R.R = L1 Q(g,R)\nscalar L1 = 1\n")
    path = _write(tmp_path, "c.mf", flat + flat[flat.index("[check]"):])
    assert main(["classify", path, "--points", "1"]) == 0
    path = _write(tmp_path, "c.mf", flat + "[check]\nname = R.R = L1 Q(g,R)\n"
                  "scalar L1 = 2\n")
    assert main(["classify", path, "--points", "1"]) == 2
    err = capsys.readouterr().err
    assert "conflicting duplicate entry for [check] 'R.R = L1 Q(g,R)'" in err


@pytest.mark.parametrize("cmd,text,args,want", [
    ("curvature", "[chart]\ncoords = x1\nbox x1 = 0 .. 0\ng 1 1 = x1\n", [],
     "metric degenerate at sampled point x1 = 0\n"),
    ("warped-verify", "[warped]\nbase = ex2_base.mf\nfiber = flat1.mf\n"
     "warp = x1 - 5\n", [], "got -4187/1024 at x1 = 933/1024\n"),
    ("warped-verify", "[warped]\nbase = ex2_base.mf\nfiber = flat1.mf\n"
     "warp = 1\n", ["--L2", "x1 - 933/1024"],
     "L2 vanishes on the sampling box at x1 = 933/1024\n"),
])
def test_errors_print_sample_points_as_reports_do(tmp_path, capsys, cmd,
                                                  text, args, want):
    for name in ("ex2_base.mf", "flat1.mf"):
        shutil.copy(fixture_path(name), tmp_path / name)
    path = _write(tmp_path, "m.mf", text)
    assert main([cmd, path, "--points", "2", *args]) == 2
    err = capsys.readouterr().err
    assert err.endswith(want)
    assert "Fraction(" not in err and "Traceback" not in err


def test_load_manifest_warped(tmp_path):
    _write(tmp_path, "b.mf", "[chart]\ncoords = x1\ng 1 1 = 1\n")
    _write(tmp_path, "f.mf", "[chart]\ncoords = y1\ng 1 1 = 1\n")
    w = _write(tmp_path, "w.mf", """
[warped]
base = b.mf
fiber = f.mf
warp = exp(x1)

[check]
name = R.R = 0
""")
    m = load_manifest(w)
    assert m.kind == "warped"
    assert m.checks[0].name == "R.R = 0"
    spec = build_spec(m)
    assert spec.p == 1 and spec.q == 1
    assert spec.fiber_map == {"y1": "x2"}

    missing = _write(tmp_path, "m.mf",
                     "[warped]\nbase = nope.mf\nfiber = f.mf\nwarp = 1\n")
    with pytest.raises(ManifestError, match="nope.mf"):
        build_spec(load_manifest(missing))

    notchart = _write(tmp_path, "n.mf",
                      "[warped]\nbase = w.mf\nfiber = f.mf\nwarp = 1\n")
    with pytest.raises(ManifestError, match="chart"):
        build_spec(load_manifest(notchart))


def test_bundled_fixtures_load():
    for name in FIXTURES:
        m = load_manifest(fixture_path(name))
        if m.kind == "chart":
            build_chart(m)
        else:
            build_spec(m)
    with pytest.raises(ManifestError):
        load_manifest(fixture_path("corrupt.mf"))


def test_curvature_flat():
    code, rep = curvature_report(fixture_path("flat.mf"))
    assert code == 0
    assert rep["curvature"]["flat"] is True
    assert rep["curvature"]["nonzero_R"] == {}
    assert str(rep["curvature"]["kappa"]) == "0"


def test_curvature_fiber_scalar():
    code, rep = curvature_report(fixture_path("ex1_fiber.mf"), points=4)
    assert code == 0
    chart = build_chart(load_manifest(fixture_path("ex1_fiber.mf")))
    k = ex.parse(str(rep["curvature"]["kappa"]), coords=chart.coords,
                 params=tuple(chart.params))
    assert chart.is_zero(ex.sub(k, ex.const(-12)))
    assert rep["curvature"]["flat"] is False
    assert rep["curvature"]["nonzero_R"]


TOWER = """[chart]
coords = x1 x2
g 1 1 = 1
g 2 2 = exp(exp(exp(exp(x1))))
"""


@pytest.mark.xfail(strict=True, reason="the zero test scales its threshold by "
                   "the largest intermediate magnitude, which a division brings "
                   "back down, so real curvature of size 1e65 is judged zero")
def test_exp_tower_curvature_is_not_flat(tmp_path):
    code, rep = curvature_report(_write(tmp_path, "tower.mf", TOWER), points=4)
    assert code == 0
    # kappa is far from zero at the first three points (the fourth is
    # undefined: an exp argument beyond MAX_EXP_ARG)
    samples = rep["curvature"]["kappa_samples"]
    assert all(abs(float(v)) > 1e9 for v in samples[:3])
    assert rep["curvature"]["flat"] is False


def test_curvature_warped_product():
    code, rep = curvature_report(fixture_path("ex2_warped.mf"), points=4)
    assert code == 0
    assert rep["kind"] == "warped"
    assert rep["fiber_map"] == {"x1": "x2", "x2": "x3", "x3": "x4"}
    chart = helpers.ex2_chart()
    k = ex.parse(str(rep["curvature"]["kappa"]), coords=chart.coords)
    want = helpers.chart_parse(chart)(
        "6*exp(x1)*(1 + exp(x1))/(1 + 2*exp(x1))^3")
    assert chart.is_zero(ex.sub(k, want))


def test_classify_sphere():
    code, rep = classify_report(fixture_path("sphere.mf"), points=6)
    assert code == 0
    cat = rep["catalog"]
    assert cat["R.R = 0"]["holds"] is True
    assert cat["R.R = 0"]["vacuous"] is False
    assert rep["summary"]["semisymmetric"] is True
    assert rep["summary"]["flat"] is False
    # constant curvature: the fit sees zero data in all three columns
    assert rep["fit"]["rank"] == 0 and rep["fit"]["trivial"] is True


def test_classify_requested_checks():
    code, rep = classify_report(fixture_path("ex2_warped.mf"), points=6)
    assert code == 0
    cat = rep["catalog"]
    assert cat["R.R = L1 Q(g,R)"]["holds"] is True
    assert cat["R.R = L1 Q(g,R)"]["requested"] is True
    assert cat["P.R = L1 Q(g,R)"]["holds"] is True
    assert cat["R.R = Q(S,R)"]["holds"] is True
    assert cat["R.R = 0"]["holds"] is False
    assert cat["W.R = L2 Q(S,R)"]["skipped"] is True
    assert rep["fit"]["rank"] == 1 and rep["fit"]["family"] is True
    assert rep["summary"]["pseudosymmetric"] is True


def test_classify_requested_failure_exit_code(tmp_path):
    path = _write(tmp_path, "aniso.mf", """
[chart]
coords = x1 x2 x3
g 1 1 = 1
g 2 2 = exp(2*x1)
g 3 3 = exp(4*x1)

[check]
name = R.S = 0
""")
    code, rep = classify_report(path, points=5)
    assert code == 1
    assert rep["catalog"]["R.S = 0"]["holds"] is False


def test_warped_verify_pass():
    code, rep = warped_verify_report(fixture_path("fs_warped.mf"), points=4)
    assert code == 0
    assert rep["L1"] == "0" and rep["L2"] == "1"
    assert rep["conditions"]["failed"] == []
    assert rep["conditions"]["all_hold"] is True
    assert all(rep["oracle"].values())
    assert set(rep["oracle"]) == {"R", "S", "kappa", "RR", "QgR", "QSR"}
    assert rep["trichotomy"]["labels"] == ["fiber-Einstein"]
    assert rep["dichotomy"]["base_flat"] is True
    assert rep["dichotomy"]["fiber_einstein"] is True
    assert rep["dichotomy"]["consistent"] is True


def test_warped_verify_failure_report():
    code, rep = warped_verify_report(fixture_path("cf_warped.mf"), points=4)
    assert code == 1
    assert rep["conditions"]["failed"] == ["I", "II"]
    wit = rep["conditions"]["witnesses"]
    assert "I" in wit and wit["I"]["defect"]
    # the block assembly itself still matches the direct computation
    assert all(rep["oracle"].values())
    assert rep["dichotomy"]["skipped"] is True


def test_warped_verify_flag_overrides_manifest():
    code, rep = warped_verify_report(fixture_path("ex2_warped.mf"),
                                     L1="0", points=4)
    assert code == 1
    assert rep["L1"] == "0" and rep["L2"] == "0"
    assert rep["conditions"]["failed"] == ["III"]
    assert rep["trichotomy"]["labels"] == ["fiber-Einstein"]


def test_warped_verify_requires_warped_manifest():
    with pytest.raises(ManifestError, match="warped"):
        warped_verify_report(fixture_path("flat.mf"))


def test_main_exit_codes(tmp_path, capsys):
    assert main(["curvature", fixture_path("flat.mf")]) == 0
    assert main(["curvature", str(tmp_path / "missing.mf")]) == 2
    # numerically zero everywhere but not structurally zero, so the
    # dichotomy cannot pick a branch and must reject the input
    code = main(["warped-verify", fixture_path("fs_warped.mf"),
                 "--L2", "sin(x1)^2 + cos(x1)^2 - 1", "--points", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("flag,value", [("--L1", "foo"), ("--L2", "1/(")])
def test_warped_verify_malformed_candidate_names_manifest(capsys, flag, value):
    # a parse error carries the manifest path and the candidate's name, as
    # a candidate naming a fiber coordinate does
    path = fixture_path("ex2_warped.mf")
    assert main(["warped-verify", path, flag, value, "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {flag[2:]}: bad expression "
                          f"{value!r}: ")
    assert "Traceback" not in err
    assert main(["warped-verify", path, flag, "x2", "--points", "2"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: {flag[2:]} may only use base coordinates")


@pytest.mark.parametrize("flag,value", [("--L1", "foo"), ("--L2", "1/("),
                                        ("--L1", "x2"), ("--L2", "x2")])
def test_warped_verify_rejects_candidate_before_evaluating(monkeypatch, capsys,
                                                         flag, value):
    # a candidate is input: it is checked right after the manifest, so no
    # point of the command's own sample lists is ever evaluated
    path = fixture_path("ex2_warped.mf")
    spec = build_spec(load_manifest(path))
    at_seed = [pt for chart in (spec.base, spec.fiber, assemble_product(spec))
               for pt in chart.sample_points(2, 7)]
    built = []
    init = ex.PointEval.__init__

    def spy(self, env, *args, **kwargs):
        built.append(env)
        init(self, env, *args, **kwargs)

    monkeypatch.setattr(ex.PointEval, "__init__", spy)
    assert main(["warped-verify", path, flag, value, "--points", "2",
                 "--seed", "7"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {flag[2:]}")
    assert built    # chart validation evaluates at DEFAULT_SEED
    assert not [env for env in built if env in at_seed]


def test_main_deep_nesting_is_input_error(tmp_path, capsys):
    depth = 40000
    path = _write(tmp_path, "deep.mf", "[chart]\ncoords = x1\ng 1 1 = "
                  + "(" * depth + "1 + x1^2" + ")" * depth + "\n")
    assert main(["curvature", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested deeper" in err
    assert "(offset 1000)" in err
    assert len(err.encode()) < 300
    assert "Traceback" not in err


def test_main_deep_division_is_input_error(tmp_path, capsys):
    # 120 001 terms: a left-nested Div chain 120 000 deep if it were built
    path = _write(tmp_path, "div.mf", "[chart]\ncoords = x1\ng 1 1 = "
                  + "/".join(["x1"] * 120001) + "\n")
    assert main(["curvature", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "divisions nested deeper" in err
    assert "(offset 3002)" in err
    assert len(err.encode()) < 300
    assert "Traceback" not in err


def test_main_rank2_metric_is_input_error(tmp_path, capsys):
    # g = u u^T + v v^T: rank 2 on a 3-chart, whatever the ambient precision
    u = ("exp(x1)", "log(x2 + 1)", "sin(x3) + 2")
    v = ("x2", "cos(x1) + 3", "exp(x3)/7")
    path = _write(tmp_path, "rank2.mf", "[chart]\ncoords = x1 x2 x3\n" + "".join(
        f"g {i + 1} {j + 1} = ({u[i]})*({u[j]}) + ({v[i]})*({v[j]})\n"
        for i in range(3) for j in range(i, 3)))
    assert main(["curvature", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "metric degenerate" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", [5, 400])
def test_main_exp_tower_is_input_error(tmp_path, capsys, depth):
    # past depth 4 the tower overflows mpmath at every sample point; an exp
    # argument beyond expr.MAX_EXP_ARG makes the point undefined instead
    path = _write(tmp_path, "tower.mf", "[chart]\ncoords = x1 x2\ng 1 1 = 1\n"
                  "g 2 2 = " + "exp(" * depth + "x1" + ")" * depth + "\n")
    t0 = time.perf_counter()
    assert main(["curvature", path]) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "undefined everywhere" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("g11", ["2 + x1^100000", "2 + (x1^1000)^1000",
                                 "2 + 3^99999999"])
def test_main_large_exponent_is_input_error(tmp_path, capsys, g11):
    # exact evaluation would raise int pairs to the exponent and reduce them
    # with gcd: 33 s for x1^100000, and no end for the others
    path = _write(tmp_path, "pow.mf", "[chart]\ncoords = x1 x2\n"
                  f"g 1 1 = {g11}\ng 2 2 = 1 + x2^2\n")
    t0 = time.perf_counter()
    assert main(["curvature", path, "--points", "2"]) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"budget of {ex.MAX_EXPONENT} (MAX_EXPONENT)" in err
    assert "Traceback" not in err


PRODUCT_OF_POWERS = "2 + " + "*".join(f"({k} + x1^1000)^20" for k in range(1, 31))


@pytest.mark.parametrize("g11", ["2 + (1 + x1^1000)^1000", "2 + x1*(10^1000)^1000",
                                 PRODUCT_OF_POWERS])
def test_main_huge_exact_power_is_input_error(tmp_path, capsys, g11):
    # each exponent is within MAX_EXPONENT, but nested powers multiply: chart
    # validation would reduce 10-million-bit ints at a sample point, and the
    # parser would fold a 3.3-million-bit constant; each of the 30 powers of
    # the product is under MAX_EXACT_BITS, but the product of their values
    # at a point would reach 6 million bits
    path = _write(tmp_path, "pow.mf", "[chart]\ncoords = x1 x2\n"
                  f"g 1 1 = {g11}\ng 2 2 = 1 + x2^2\n")
    t0 = time.perf_counter()
    assert main(["curvature", path, "--points", "2"]) == 2
    assert time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: exact value of about ")
    assert f"budget of {ex.MAX_EXACT_BITS} (MAX_EXACT_BITS)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["curvature", "classify", "warped-verify"])
def test_main_points_below_one_rejected(capsys, cmd):
    for k in ("0", "-1"):
        with pytest.raises(SystemExit) as stop:
            main([cmd, fixture_path("ex2_warped.mf"), "--points", k])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "--points" in err and "at least 1" in err


@pytest.mark.parametrize("cmd", ["curvature", "classify", "warped-verify"])
def test_main_points_above_the_limit_rejected(capsys, cmd):
    # the sample list is built whole, so a huge count would exhaust memory
    # before the first point; it is refused as input instead
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as stop:
        main([cmd, fixture_path("sphere.mf"), "--points", "100000000000000000000"])
    assert time.perf_counter() - t0 < 1
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "--points" in err and f"at most {ex.MAX_POINTS} (MAX_POINTS)" in err
    assert "Traceback" not in err
    assert cli._point_count(str(ex.MAX_POINTS)) == ex.MAX_POINTS


def test_parser_is_built_once_and_reused(capsys):
    # one parser serves every main() call of a process; a rejected argument
    # leaves it as it was, so the next call parses and errs as the first did
    assert cli._parser() is cli._parser()
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["classify", fixture_path("sphere.mf"), "--points", "0"])
        assert stop.value.code == 2
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and "at least 1" in outs[0].err
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert "warped-verify" in capsys.readouterr().out
    assert main(["curvature", fixture_path("sphere.mf"), "--points", "2"]) == 0


def test_fit_skips_undefined_points(tmp_path, capsys):
    # (x1 - 1)^(1/2) and its derivatives are undefined on x1 <= 1, about
    # half of the box x1 = 0 .. 2
    path = _write(tmp_path, "half.mf", "[chart]\ncoords = x1 x2 x3\n"
                  "box x1 = 0 .. 2\ng 1 1 = 1\ng 2 2 = (x1 - 1)^(1/2) + x3^2\n"
                  "g 3 3 = x1^2 + x2\n")
    assert main(["classify", path]) == 0
    assert main(["curvature", path]) == 0
    assert "undefined" in capsys.readouterr().out
    _, rep = classify_report(path)
    records = rep["fit"]["records"]
    assert 0 < len(records) < 8
    assert all(Fraction(r["point"]["x1"]) > 1 for r in records)
    chart = build_chart(load_manifest(path))
    undefined = sum(pt["x1"] <= 1 for pt in chart.sample_points(8, ex.DEFAULT_SEED))
    assert rep["fit"]["points_invalid"] == 8 - len(records) == undefined
    for v in rep["catalog"].values():
        if not v["skipped"]:
            assert v["points_checked"] + v["points_excluded"] + v["points_invalid"] == 8
    outside = [pt for pt in chart.sample_points(32, 1) if pt["x1"] <= 1][:5]
    with pytest.raises(ex.InconclusiveError):
        fit_pseudosymmetry(bundle(chart), outside)


def test_reports_independent_of_ambient_precision():
    path = fixture_path("aniso3.mf")
    blobs = set()
    for dps in (15, 80):
        with mpmath.workdps(dps):
            reports = [curvature_report(path, points=5),
                       classify_report(path, points=5)]
        blobs.add(json.dumps(reports, sort_keys=True))
    assert mpmath.mp.dps == 15
    assert len(blobs) == 1


def test_main_selftest_json(tmp_path, monkeypatch, capsys):
    stub = {"schema": "warpcurv-report/1", "command": "selftest", "seed": "5",
            "items": [{"name": "stub item", "ok": True, "note": "n"}]}
    seeds = []

    def fake_selftest(seed):
        seeds.append(seed)
        return 0, stub

    monkeypatch.setattr(cli, "selftest_report", fake_selftest)
    out_file = tmp_path / "s.json"
    assert main(["selftest", "--seed", "5", "--json", str(out_file)]) == 0
    assert seeds == [5]
    assert out_file.read_text() == json.dumps(stub, sort_keys=True,
                                              indent=2) + "\n"
    assert "1/1 selftest items passed" in capsys.readouterr().out


def test_main_json_output(tmp_path, capsys):
    out_file = str(tmp_path / "r.json")
    code = main(["curvature", fixture_path("flat.mf"), "--json", out_file])
    assert code == 0
    with open(out_file) as fh:
        raw = fh.read()
    data = json.loads(raw)
    assert data["schema"] == "warpcurv-report/1"
    assert data["curvature"]["flat"] is True
    assert raw == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert "all curvature components zero" in capsys.readouterr().out


# sha256 of `warped-verify --json` on the selftest roster at seed 7, fixed
# when the oracle and conditions (I)-(V) went over every index tuple
WARPED_JSON_SHA256 = {
    ("ex2_warped.mf", 3):
        "d2d1c7f4973627d726a07afd04ca7c6f172505f8db304119de8c8a0d884e46b0",
    ("fs_warped.mf", 3):
        "35c9a564e9a333e32278f1ffc91a26c0073e751d5b7cab6f0c92062c10f5b892",
    ("cf_warped.mf", 3):
        "d4fbdafef466145b4afed066bd78f6b6f9e49f01a945fef2c1e51852409b2782",
    ("ex1_warped.mf", 2):
        "6a76042666658dc5e5f445879c695d5382a7220ea0199a24f64d451752547392",
    # exits 1: condition (V) fails, with a witness
    ("product.mf", 3):
        "b7b8b33f84156656616c2e3c059ce74061db17548076e0d2b8127ca19cfa5e00",
}


@pytest.mark.parametrize("name,points", sorted(WARPED_JSON_SHA256))
def test_warped_verify_json_bytes_pinned(tmp_path, capsys, name, points):
    out_file = tmp_path / "r.json"
    main(["warped-verify", fixture_path(name), "--points", str(points),
          "--seed", "7", "--json", str(out_file)])
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == WARPED_JSON_SHA256[(name, points)]


@pytest.mark.parametrize("name,points", sorted(WARPED_JSON_SHA256))
def test_warped_verify_draws_each_chart_once(monkeypatch, name, points):
    # every check of the command shares one sweep per chart: the base, the
    # renamed fiber and the product each draw their sample list once at the
    # command's (points, seed); validation draws at DEFAULT_SEED
    draws = []
    draw = ex.sample_box_points

    def spy(coords, box, k, seed, params=None):
        draws.append((tuple(coords), k, seed))
        return draw(coords, box, k, seed, params=params)

    monkeypatch.setattr(ex, "sample_box_points", spy)
    monkeypatch.setattr(tensor, "sample_box_points", spy)
    _, rep = warped_verify_report(fixture_path(name), seed=7, points=points)
    p, n = rep["p"], rep["n"]
    coords = tuple(f"x{i + 1}" for i in range(n))
    assert sorted(d for d in draws if d[2] != ex.DEFAULT_SEED) == sorted(
        (c, points, 7) for c in (coords[:p], coords[p:], coords))


DOMAIN_PARTIAL_BASE = """[chart]
coords = x1 x2
box x1 = 0 .. 2
g 1 1 = 1
g 2 2 = (x1 - 1)^(1/2) + 1
"""
DOMAIN_PARTIAL_WARPED = """[warped]
base = dbase.mf
fiber = sphere2.mf
warp = 1 + x1^2
L1 = 0
L2 = 1
"""


def test_warp_and_L2_undefined_on_part_or_all_of_the_box(tmp_path, capsys):
    _write(tmp_path, "b.mf", "[chart]\ncoords = x1 x2\nbox x1 = 0 .. 2\n"
                             "g 1 1 = 1\ng 2 2 = 1\n")
    shutil.copy(fixture_path("sphere2.mf"), tmp_path / "sphere2.mf")
    head = "[warped]\nbase = b.mf\nfiber = sphere2.mf\n"
    half = "(x1 - 1)^(1/2) + 1"     # undefined for x1 < 1
    none = "log(x1 - 3)"            # undefined on the whole box
    # a warp undefined at some validation points is checked at the others
    path = _write(tmp_path, "w.mf", head + f"warp = {half}\n")
    spec = build_spec(load_manifest(path))
    assert any(pt["x1"] < 1 for pt in spec.base.sample_points())
    assert main(["warped-verify", path, "--points", "4", "--seed", "7"]) == 1
    path = _write(tmp_path, "w.mf", head + f"warp = {none}\n")
    assert main(["warped-verify", path, "--points", "4", "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert "warping function not evaluable on the sampling box" in err
    assert "Traceback" not in err
    # the dichotomy judges L2 at the base points where it is defined
    path = _write(tmp_path, "w.mf", head + f"warp = 1 + x1^2\nL2 = {half}\n")
    spec = build_spec(load_manifest(path))
    assert any(pt["x1"] < 1 for pt in spec.base.sample_points(4, 7))
    code, rep = warped_verify_report(path, seed=7, points=4)
    assert code == 1 and rep["dichotomy"]["skipped"] is False
    assert dichotomy_check(spec, half, trials=4, seed=7) == {
        k: rep["dichotomy"][k] for k in ("base_flat", "fiber_einstein")}
    # an L2 defined nowhere: the command names it after its sweep, so the
    # dichotomy's own check is reached through dichotomy_check
    with pytest.raises(ValueError, match="L2 not evaluable on the sampling box"):
        dichotomy_check(spec, none, trials=4, seed=7)


@pytest.mark.parametrize("name", ["L1", "L2"])
def test_warped_verify_names_a_candidate_defined_nowhere(tmp_path, capsys, name):
    # a candidate defined at no base point used to fail the first zero test
    # that read it, with "all sampled points violated domain constraints"
    _write(tmp_path, "b.mf", "[chart]\ncoords = x1 x2\nbox x1 = 0 .. 2\n"
                             "g 1 1 = 1\ng 2 2 = 1\n")
    shutil.copy(fixture_path("sphere2.mf"), tmp_path / "sphere2.mf")
    path = _write(tmp_path, "w.mf", "[warped]\nbase = b.mf\nfiber = sphere2.mf\n"
                                    f"warp = 1 + x1^2\n{name} = log(x1 - 3)\n")
    assert main(["warped-verify", path]) == 2
    err = capsys.readouterr().err
    assert f"{name} not evaluable on the sampling box" in err
    assert "Traceback" not in err
    # the same through the options, the manifest's candidates left at 0
    path = _write(tmp_path, "w.mf", "[warped]\nbase = b.mf\nfiber = sphere2.mf\n"
                                    "warp = 1 + x1^2\n")
    assert main(["warped-verify", path, f"--{name}", "log(x1 - 3)",
                 "--points", "3", "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert f"{name} not evaluable on the sampling box" in err
    assert "Traceback" not in err


def test_warped_verify_renames_a_fiber_with_a_parameter(tmp_path):
    # the renamed fiber keeps its parameter and its Neg, Div and Mul nodes,
    # and a leaf shared within an entry is renamed once
    _write(tmp_path, "b.mf", "[chart]\ncoords = x1\ng 1 1 = 1\n")
    _write(tmp_path, "f.mf", "[chart]\ncoords = y1 y2\nparam a = 2\n"
                             "g 1 1 = 1/(a + y1^2)\ng 2 2 = exp(-y1) + a*y1^2\n")
    path = _write(tmp_path, "w.mf", "[warped]\nbase = b.mf\nfiber = f.mf\n"
                                    "warp = exp(x1)\n")
    fiber = build_spec(load_manifest(path)).fiber
    assert fiber.coords == ("x2", "x3") and fiber.params == {"a": Fraction(2)}
    for (i, j), text in (((0, 0), "1/(a + x2^2)"), ((1, 1), "exp(-x2) + a*x2^2"),
                         ((0, 1), "0")):
        assert fiber.metric[i][j] is ex.parse(text, coords=fiber.coords, params=("a",))
    _, rep = warped_verify_report(path, seed=7, points=3)
    assert rep["oracle"] == dict.fromkeys(("R", "S", "kappa", "RR", "QgR", "QSR"), True)


def test_warped_verify_domain_partial_base(tmp_path, capsys):
    # the base metric is undefined for x1 < 1, so the shared sweeps skip
    # points: per expression in the zero tests, per point in the trichotomy
    _write(tmp_path, "dbase.mf", DOMAIN_PARTIAL_BASE)
    shutil.copy(fixture_path("sphere2.mf"), tmp_path / "sphere2.mf")
    path = _write(tmp_path, "dpart.mf", DOMAIN_PARTIAL_WARPED)
    out_file = tmp_path / "r.json"
    assert main(["warped-verify", path, "--points", "4", "--seed", "7",
                 "--json", str(out_file)]) == 1
    # fixed before the checks shared one sweep per chart
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "3e64c094d9c188c12b95ca135d30751c37ff394021e3e02f82da4d13be208a7d")
    code, rep = warped_verify_report(path, seed=7, points=4)
    assert code == 1 and rep["conditions"]["failed"] == ["II", "III"]
    assert len(rep["trichotomy"]["records"]) == 2
    # each check swept alone gives what the shared sweep reported
    spec = build_spec(load_manifest(path))
    conds = verify_conditions(spec, "0", "1", trials=4, seed=7)
    got = rep["conditions"]
    assert {k: v for k, v in conds.items() if k != "witnesses"} == {
        k: v for k, v in got.items() if k != "witnesses"}
    assert {k: (list(w["index"]), ex.to_str(w["defect"]))
            for k, w in conds["witnesses"].items()} == {
        k: (w["index"], str(w["defect"])) for k, w in got["witnesses"].items()}
    tri = trichotomy_report(spec, "0", trials=4, seed=7)
    assert [(cli._ptstr(r["point"], rep["coords"]), r["label"])
            for r in tri["records"]] == [
        (r["point"], r["label"]) for r in rep["trichotomy"]["records"]]
    assert tri["labels"] == rep["trichotomy"]["labels"]
    assert tri["all_covered"] == rep["trichotomy"]["all_covered"]
    dich = dichotomy_check(spec, "1", trials=4, seed=7)
    assert dich == {k: rep["dichotomy"][k]
                    for k in ("base_flat", "fiber_einstein")}


# sha256 of `classify --json` at seed 7 without the points_invalid keys,
# fixed when the fit began to report L1, L2 and residuals below the zero
# threshold as 0.0 (sphere's fit was exact zeros already); the entries of
# the other fixtures were fixed while W.R and P.R were still derived from
# the dense W and P, before they came from the decomposition identities
CLASSIFY_JSON_SHA256 = {
    ("sphere.mf", 8):
        "3fab58f58e3bf9375deaa2669fa00897d8d0b7d0107c7bff93d3e9b6b161aaa3",
    ("aniso3.mf", 8):
        "a03e96112b23222435ee5dd72552743dbbd056773facf99cceb4c29977715423",
    ("ex1_fiber.mf", 8):
        "580e631eafea7fae69f5d4fab61af4d63fad74011de8904b50acad87c7b24fcc",
    ("ex2_warped.mf", 8):
        "82e38ba1d2858746b7447a39b6693d80314388148801c7bb7def69c43d124c55",
    ("ex2_warped.mf", 2):
        "a1e6aa80ef3838cce77ac675f7fe81e2ef3fc1429c7565cfaf39e19529d85777",
    ("cf_warped.mf", 8):
        "b4d0f1ff128233c72dd60a5522b13763e5576262ecfcb09b7bb4cac935eb97ae",
    ("ex1_base.mf", 8):
        "0b9e37f256d55b4c14842d6b24645bc0a705dba15630b378e08808524b8e9c6b",
    ("ex1_warped.mf", 8):
        "d3cb2043ae3987e998f770b046c5c15ea39d7c4b8abf4040db67c8cc51368d25",
    ("ex2_base.mf", 8):
        "2b96cb9ee3d8d5fa3fe5efc9ca81e5cb33bc55701398b13ccb45861904317ad0",
    ("flat.mf", 8):
        "b509dda132694b513be61175f9fb3acef6a0ae702a005fd7918c8faaa8cd4076",
    ("flat1.mf", 8):
        "3f2a66fae1327e79052e8dbb6188e60a650d4df754ad2af97667c22216867d52",
    ("flat2.mf", 8):
        "1ff93081b1c753635e8670d5e158886e30c750c7dcf0758188c41dbd5ec2a603",
    ("flat3.mf", 8):
        "857f761072b53e1b745c4ab4bd64456ae0cb1db3e68b66cfd678bf07b8d34f06",
    ("fs_warped.mf", 8):
        "8f9c739b2e36ce843fa74d0753fc86c7532beb5b7060ace972f3da5ed33e1aea",
    ("hyper2.mf", 8):
        "9b8c58efa8044cfc737f92df19cc92c3e74b086625ea9dee7b1296618441c349",
    ("product.mf", 8):
        "36a4174a51ef4c21a3243da527f1d93cd8fae0d88ac540b4c7b56e2ae76e446c",
    ("sphere2.mf", 8):
        "4dc3da895abd92b7f265fa73fde896f801ca31b5b62c555d6dfecc736c85e5fd",
}


@pytest.mark.parametrize("name,points", sorted(CLASSIFY_JSON_SHA256))
def test_classify_json_bytes_pinned(tmp_path, capsys, name, points):
    out_file = tmp_path / "r.json"
    main(["classify", fixture_path(name), "--points", str(points),
          "--seed", "7", "--json", str(out_file)])
    rep = json.loads(out_file.read_text())
    del rep["fit"]["points_invalid"]
    for v in rep["catalog"].values():
        v.pop("points_invalid", None)
    blob = json.dumps(rep, sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == CLASSIFY_JSON_SHA256[(name, points)]


# sha256 of `curvature --json` at seed 7 and the default 8 points, for every
# bundled fixture that exits 0: the report prints the constructors' normal
# forms of R, S and kappa directly
CURVATURE_JSON_SHA256 = {
    "aniso3.mf": "46995eaf6662ff2499a8492c11dbe10e2faa6f2c0d0c96fb40b643d3c3531307",
    "cf_warped.mf": "ee03f3d34b7a208bbb92a434713ea3867ed91e22908f0652a406c99820209845",
    "ex1_base.mf": "07a9ae3f67580b10723149ca3670f0bdfda671c5495493ad8b2b7d5edeb462ce",
    "ex1_fiber.mf": "2462670e1f688a0833a43a57fcfd17f06b7634c38f6aabc8ab90862a5893a0bc",
    "ex1_warped.mf": "80dd32b7c82e259905dbee6c83e1f44c7f274d7315cf6c9dfb844aca32b1b358",
    "ex2_base.mf": "ab0857e1aa090de0af706e2c43e01f2acf01917456a658afb05bcbffbb147c6a",
    "ex2_warped.mf": "542b2b4f27e8a00a26131215d8d0afbccc2a9d15ffdebaaa8da2f5f5ee9bbc22",
    "flat.mf": "936c9d73ec5ccd5f9a84a6a560194b7f901b98b98ca92a9c0ea3413ffd97520f",
    "flat1.mf": "590338c6777837492bfc9f634eb848e5e7fe99826a2e3541eb88289a1e6b094b",
    "flat2.mf": "dbd34a661577fadcef0d436872b0ef90a0b493156d15bddae5a83f3c46412a03",
    "flat3.mf": "f8c9e0b662ccc50ad837a702bec7ed99b0e2b4cac5ee3966b843f3633f00742b",
    "fs_warped.mf": "1f0e6d32fea4f89804c21a22573b8cc209f3f35ce08a25954942f48b0e209f9e",
    "hyper2.mf": "f30f5af0f388cc22f66f9ca3fc0632ff18798d41fb570db8465f87668b359e7f",
    "product.mf": "c721c25b7b27a573f9fa3c0b86409710b253dd9038284b9a298bb2669f5d985f",
    "sphere.mf": "33c6523ed7fd512bcf226427e421c15ff88b5c4f6bbcb2de667026b19c4c14b1",
    "sphere2.mf": "041e5ea41b456cd5f0a30eb86c4aa15b3c3f997c0af48bbb305d64806a45f049",
}


@pytest.mark.parametrize("name", sorted(CURVATURE_JSON_SHA256))
def test_curvature_json_bytes_pinned(tmp_path, capsys, name):
    out_file = tmp_path / "r.json"
    assert main(["curvature", fixture_path(name), "--seed", "7",
                 "--json", str(out_file)]) == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == CURVATURE_JSON_SHA256[name]


def _written(v):
    buf = io.StringIO()
    cli.write_json(v, buf)
    return buf.getvalue()


def _dumped(v):
    return json.dumps(v, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", FIXTURES)
def test_json_writer_matches_json_dumps_on_reports(name):
    path = fixture_path(name)
    reps = [curvature_report(path, seed=7, points=2)[1],
            classify_report(path, seed=7, points=2)[1]]
    if load_manifest(path).kind == "warped":
        reps.append(warped_verify_report(path, seed=7, points=2)[1])
    assert isinstance(reps[0]["curvature"]["kappa"], ex.Text)
    for rep in reps:
        assert _written(rep) == _dumped(cli.joined(rep))


def test_json_writer_matches_json_dumps_on_random_values():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # printable ASCII, which json keeps as it is, mixed with what it escapes:
    # quote, backslash, control characters, DEL, non-ASCII and astral
    # characters
    special = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\x80",
                               "\u00e9", "\u2028", "\U0001F600", " ", "~"])
    plain = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
    text = st.text(st.one_of(plain, special, st.characters()), max_size=8)
    scalars = st.one_of(text, st.integers(), st.booleans())
    values = st.recursive(
        scalars, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                         st.dictionaries(text, inner,
                                                         max_size=4)),
        max_leaves=24)

    @hyp.settings(max_examples=150, derandomize=True, deadline=None)
    @hyp.given(values)
    def check(v):
        assert _written(v) == _dumped(v)

    check()
    # each escaped character alone and between plain ones
    for c in ('"', "\\", "\x00", "\x1f", "\x7f", "\x80", "\u00e9", "\U0001F600"):
        for v in (c, "a" + c + "b", ["x", {"k" + c: "a" + c}]):
            assert _written(v) == _dumped(v)
    # strings longer than the writer joins, plain and escaped
    long = "x1*" * 30000
    for v in ({"a": long, "b": [long + '"', 1, long]}, [long], long):
        assert _written(v) == _dumped(v)


def test_curvature_json_escapes_the_manifest_name(tmp_path, capsys):
    name = 'q"uo\\te \u00e9.mf'
    path = tmp_path / name
    shutil.copy(fixture_path("sphere2.mf"), path)
    out_file = tmp_path / "r.json"
    assert main(["curvature", str(path), "--json", str(out_file)]) == 0
    raw = out_file.read_bytes()
    rep = json.loads(raw)
    assert rep["manifest"]["file"] == name
    assert raw == _dumped(rep).encode()
    assert b'"file": "q\\"uo\\\\te \\u00e9.mf"' in raw
    assert f"curvature report: {name} " in capsys.readouterr().out


# sha256 of stdout and of `curvature --json` on the benchmark's swell charts
# (perfbench/swell.py) at seed 7, the manifests named swell<n>.mf; fixed
# when reports were written whole, before the writer took them piece by piece
SWELL_SHA256 = {
    3: ("99b92c90c185e3b46dd7a632d667af785fb4fcc15f7c22e4177e5979b397fa5e",
        "943ece8c048c48f48261a69f141af78bf57436ef17ad7170e49acf36223ad717"),
    4: ("4fd01b78f791b1b29e347947f9291968f25e51be48db4a793aeaf6b51f01d30a",
        "ee33f497796073aa6889d5562b2010e989a812b80d2e1bd9075bfc26dd97c8fc"),
}


@pytest.mark.parametrize("n", sorted(SWELL_SHA256))
def test_curvature_swell_bytes_pinned(tmp_path, capsys, n):
    swell = helpers.perfbench_module("swell")
    path = _write(tmp_path, f"swell{n}.mf", swell.manifest_text(n, 7))
    out_file = tmp_path / "r.json"
    assert main(["curvature", path, "--seed", "7",
                 "--json", str(out_file)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert (hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(out_file.read_bytes()).hexdigest()) == SWELL_SHA256[n]


def test_curvature_refuses_a_swell_over_the_print_budget(tmp_path, capsys):
    """swell6's kappa expands to 3.6e9 tree nodes: exit 2 at once, naming
    the expression, its size and the budget, instead of a MemoryError."""
    swell = helpers.perfbench_module("swell")
    path = _write(tmp_path, "swell6.mf", swell.manifest_text(6, 7))
    out_file = tmp_path / "r.json"
    t0 = time.perf_counter()
    code = main(["curvature", path, "--points", "2", "--json", str(out_file)])
    seconds = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert err == (f"error: {path}: kappa: printed form would have 3634318165 "
                   f"tree nodes, over the budget of {2 ** 28} "
                   f"(MAX_PRINTED_NODES)\n")
    assert seconds < 2


def test_print_budget_names_each_report_expression(monkeypatch, capsys):
    from warpcurv.warped import auxiliaries
    monkeypatch.setattr(ex, "MAX_PRINTED_NODES", 1)
    assert main(["curvature", fixture_path("sphere2.mf")]) == 2
    assert ": R[1 2 1 2]: printed form would have " in capsys.readouterr().err
    assert main(["warped-verify", fixture_path("cf_warped.mf")]) == 2
    assert ": warp: printed form would have " in capsys.readouterr().err
    # a budget that every auxiliary text meets but the witness defects do not
    spec = build_spec(load_manifest(fixture_path("cf_warped.mf")))
    aux = auxiliaries(spec)
    texts = [spec.f, aux.trT, aux.Delta, aux.Omega, *aux.T.flatten()]
    monkeypatch.setattr(ex, "MAX_PRINTED_NODES",
                        max(ex._shape(e)[1] for e in texts))
    assert main(["warped-verify", fixture_path("cf_warped.mf")]) == 2
    assert ": condition (I) witness defect: printed form would have " in (
        capsys.readouterr().err)


def test_json_writer_matches_json_dumps_on_texts():
    """A Text is written as the JSON string of its pieces joined: shared
    pieces, pieces past _JOIN_BELOW, and pieces that JSON escapes."""
    long = "x1*" * 30000
    odd = "\u00e9" * 40000 + '"'
    texts = [ex.Text(()), ex.Text(("",)), ex.Text((long,)),
             ex.Text(("a", long, " + ", long, "\u00e9", odd, long, odd, "\\")),
             ex.Text(("(", "\x7f", ")"))]
    rep = {"t": texts, "k": {"kappa": texts[3], "n": 3}, "s": long}
    assert _written(rep) == _dumped(cli.joined(rep))
    for t in texts:
        assert _written(t) == _dumped(str(t))
    # a report's own texts: a shared subtree below a non-ASCII coordinate
    e = ex.Coord("\u00e9")
    for _ in range(14):
        e = ex.mul(ex.add(e, ex.const(1)), ex.add(e, ex.const(2)))
    t = ex.to_pieces(e)
    assert len(str(t)) > 2 * cli._JOIN_BELOW
    assert _written({"kappa": t}) == _dumped({"kappa": str(t)})


def test_writers_never_write_a_long_text_whole(tmp_path, monkeypatch):
    """Every write to the report files is at most _JOIN_BELOW characters,
    whatever the length of the texts: stdout and --json of swell4, whose
    kappa is 22.5 MB of text."""
    class Recorder(io.StringIO):
        longest = 0

        def write(self, s):
            Recorder.longest = max(Recorder.longest, len(s))
            return super().write(s)

    swell = helpers.perfbench_module("swell")
    path = _write(tmp_path, "swell4.mf", swell.manifest_text(4, 7))
    code, rep = curvature_report(path, seed=7, points=2)
    assert rep["curvature"]["kappa"].size > 2 * 10 ** 7
    for pieces in (cli._render(code, rep), cli._json_pieces(rep, [], {})):
        out = Recorder()
        cli._write_pieces(pieces, out)
        assert out.getvalue() == "".join(ex.strs(pieces))
    cli.write_json(rep, Recorder())
    assert 0 < Recorder.longest <= cli._JOIN_BELOW


def test_swell4_kappa_holds_each_shared_text_once(tmp_path):
    """swell4's kappa is 22.5 MB of text; as a rope its distinct strs hold
    under 2 MB (11.2 MB when each shared text was copied into the join of
    every shared ancestor)."""
    swell = helpers.perfbench_module("swell")
    path = _write(tmp_path, "swell4.mf", swell.manifest_text(4, 7))
    t = ex.to_pieces(bundle(build_chart(load_manifest(path))).kappa)
    assert t.size == sum(map(len, ex.strs(t))) == 22512966
    assert sum(len(p) for p in helpers.rope_nodes(t) if type(p) is str) < 2 * 10 ** 6


def test_excerpt_reads_only_the_head_of_a_text():
    long = "x1*" * 30000
    t = ex.Text(("ab", "", "cd" * 20, long, long))
    assert tensor.excerpt(t) == tensor.excerpt(str(t)) == str(t)[:67] + "..."
    for short in (ex.Text(()), ex.Text(("a", "b")), ex.Text(("x" * 70,))):
        assert tensor.excerpt(short) == tensor.excerpt(str(short)) == str(short)
    assert tensor.excerpt(ex.Text(("x" * 70, "y"))) == "x" * 67 + "..."


@pytest.mark.parametrize("name,points", sorted(CLASSIFY_JSON_SHA256))
def test_classify_bytes_do_not_depend_on_fit_summation_order(
        tmp_path, capsys, monkeypatch, name, points):
    # the fit over the dense tuples in reverse, each of weight 1, instead of
    # the orbit representatives weighted by orbit size: the same bytes
    from warpcurv import conditions
    from warpcurv.actions import derivation_action, tachibana

    def dense_reversed(b):
        cols = (derivation_action(b.R, b.R),
                tachibana(b.chart.metric_field(), b.R), tachibana(b.S, b.R))
        tuples = list(itertools.product(range(b.chart.n), repeat=6))[::-1]
        return [(1, *(c.comp(t) for c in cols)) for t in tuples]

    monkeypatch.setattr(conditions, "_fit_vectors", dense_reversed)
    test_classify_json_bytes_pinned(tmp_path, capsys, name, points)


def test_classify_builds_no_dense_action(monkeypatch):
    # every action classify reads is stored at its orbit representatives:
    # no [check] of a bundled fixture asks for R.P or Q(g,P), the only
    # actions the bundle builds with the dense derivation_action or tachibana
    import sys
    from warpcurv import actions
    originals = (actions.derivation_action, actions.tachibana)
    built = []

    def counted(build):
        def run(D, H):
            built.append((build.__name__, H.rank))
            return build(D, H)
        return run

    for mod in [m for k, m in sys.modules.items() if k.startswith("warpcurv")]:
        for attr, val in list(vars(mod).items()):
            if any(val is f for f in originals):
                monkeypatch.setattr(mod, attr, counted(val))
    checked = 0
    for f in FIXTURES:
        _, rep = classify_report(fixture_path(f), seed=7, points=2)
        checked += not rep["catalog"]["R.S = 0"]["skipped"]
    assert checked == len(FIXTURES) == 16
    assert built == []


def test_classify_builds_neither_w_nor_p(monkeypatch):
    # the W.R and P.R rows come from R.R, Q(g,R) and Q(S,R) by the
    # decomposition identities; no [check] of ex1_fiber asks for R.P
    from warpcurv import curvature
    built = []

    def spy(chart):
        built.append(curvature.bundle(chart))
        return built[-1]

    monkeypatch.setattr(cli, "bundle", spy)
    classify_report(fixture_path("ex1_fiber.mf"), seed=7, points=8)
    (b,) = set(built)
    assert ("cached_derivation", "W", "R") in b._cache
    assert ("cached_derivation", "P", "R") in b._cache
    assert ("W",) not in b._cache and ("P",) not in b._cache


def test_classify_builds_one_evaluator_per_sample_point(monkeypatch):
    # the flat test, the fit and every checked row share one sweep
    import sys
    built = []
    original = ex.PointEval

    class Counting(original):
        def __init__(self, env, *args, **kwargs):
            built.append(env)
            super().__init__(env, *args, **kwargs)

    for mod in [m for k, m in sys.modules.items() if k.startswith("warpcurv")]:
        if getattr(mod, "PointEval", None) is original:
            monkeypatch.setattr(mod, "PointEval", Counting)
    for name, points in (("aniso3.mf", 8), ("ex2_warped.mf", 2),
                         ("sphere.mf", 5), ("ex1_fiber.mf", 7)):
        path = fixture_path(name)
        built.clear()
        cli._scaffold(load_manifest(path), 7, points)
        setup = len(built)
        built.clear()
        classify_report(path, seed=7, points=points)
        assert len(built) == setup + max(points, 5), name


@pytest.mark.parametrize("name", ["ex2_warped.mf", "aniso3.mf"])
@pytest.mark.parametrize("points", [8, 2])
def test_classify_entries_match_direct_calls(name, points):
    path = fixture_path(name)
    _, rep = classify_report(path, seed=7, points=points)
    m = load_manifest(path)
    chart = cli._scaffold(m, 7, points)[0]
    b = bundle(chart)
    requested = {chk.name: chk.scalars for chk in m.checks}
    rows = 0
    for row, v in rep["catalog"].items():
        if v["skipped"]:
            continue
        rows += 1
        want = {k: x for k, x in v.items()
                if k not in ("requested", "skipped", "scalars")}
        assert check_identity(row, b, scalars=requested.get(row),
                              trials=points, seed=7) == want
    assert rows >= 5
    fit = fit_pseudosymmetry(b, chart.sample_points(max(points, 5), 7))
    f = rep["fit"]
    assert (fit.rank, fit.family, fit.trivial, fit.points_invalid) == (
        f["rank"], f["family"], f["trivial"], f["points_invalid"])
    assert ex.num_str(fit.max_residual) == f["max_residual"]
    assert [{"point": cli._ptstr(r["point"], chart.coords), "rank": r["rank"],
             **{k: ex.num_str(r[k]) for k in ("L1", "L2", "residual")}}
            for r in fit.records] == f["records"]


def test_classify_bad_check_with_curvature_undefined_everywhere(tmp_path,
                                                                capsys):
    # at a = 0 the metric is defined but d^2 g22 / dx1^2 holds 0^(-1/2), so
    # every sample point leaves R undefined; the [check] errors are found
    # before the sweep and reported first
    chart = ("[chart]\ncoords = x1 x2 x3\nparam a = 0\ng 1 1 = 1\n"
             "g 2 2 = 1 + (a*x1)^(3/2)\ng 3 3 = 1\n")
    cases = (("", "violated domain constraints"),
             ("[check]\nname = No such row\n", "unknown identity"),
             ("[check]\nscalar L1 = 1\n", "missing its name"),
             ("[check]\nname = R.R = L1 Q(g,R)\n", "needs a candidate"))
    for check, msg in cases:
        path = _write(tmp_path, "undef.mf", chart + check)
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and msg in err
        assert "Traceback" not in err


@pytest.mark.parametrize("name", ["flat1.mf", "flat2.mf", "sphere2.mf",
                                  "hyper2.mf", "ex1_base.mf", "ex2_base.mf"])
def test_classify_below_dimension_three(name):
    code, rep = classify_report(fixture_path(name), points=3)
    assert code == 0 and rep["n"] < 3
    for row in ("W.R = 0", "P.R = 0", "R.C = L Q(g,C)", "P.S = L2 Q(g,S)"):
        assert rep["catalog"][row]["skipped"] is True
        assert rep["catalog"][row]["reason"] == "needs dimension >= 3"
    assert rep["catalog"]["R.S = 0"]["skipped"] is False
    if name == "sphere2.mf":
        assert rep["catalog"]["R.R = 0"]["holds"] is True


def test_classify_check_below_dimension_three_is_input_error(tmp_path, capsys):
    shutil.copy(fixture_path("sphere2.mf"), tmp_path / "s2.mf")
    path = str(tmp_path / "s2.mf")
    with open(path, "a") as fh:
        fh.write("\n[check]\nname = W.R = 0\n")
    assert main(["classify", path, "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert "'W.R = 0' needs dimension >= 3" in err


def test_warped_verify_six_dimensional_product(tmp_path, monkeypatch):
    """n = 6: a flat 2-base under ex1_fiber, inverted by cofactors too."""
    for name in ("flat2.mf", "ex1_fiber.mf"):
        shutil.copy(fixture_path(name), tmp_path / name)
    path = _write(tmp_path, "w6.mf", "[warped]\nbase = flat2.mf\n"
                  "fiber = ex1_fiber.mf\nwarp = 1 + x1^2 + x2^2\n")
    inversions = []
    cofactor = tensor._cofactor_inverse

    def counting(chart):
        inversions.append(chart.n)
        return cofactor(chart)

    monkeypatch.setattr(tensor, "_cofactor_inverse", counting)
    code, rep = warped_verify_report(path, points=2, seed=7)
    assert 6 in inversions
    assert code == 1
    assert rep["p"] == 2 and rep["q"] == 4
    assert all(rep["oracle"].values())
    conds = rep["conditions"]
    assert conds["I"] is True                       # the base is flat
    assert conds["IV"] is True                      # L2 = 0
    assert conds["IV_base_factor_zero"] is True
    # with L1 = L2 = 0, (V) reads R.R_F = -f Delta Q(g_F,R_F); ex1_fiber
    # has R.R = -Q(g,R) with Q(g,R) != 0, and f Delta < 1 on this base
    assert conds["V"] is False and "V" in conds["failed"]


def test_main_exit_code_contract_fuzz(tmp_path, capsys):
    """Any chart manifest makes `curvature` and `classify` exit 0, 1 or 2,
    and never exit 2 for a dimension below 3."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    atoms = ("a", "2", "1/3", "7/2")

    def expr(draw, coords, depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(coords + atoms))
        kind = draw(st.sampled_from(("+", "*", "/", "^n", "^q", "exp", "log",
                                     "sin", "cos")))
        a = expr(draw, coords, depth - 1)
        if kind in ("+", "*", "/"):
            return f"({a}) {kind} ({expr(draw, coords, depth - 1)})"
        if kind == "^n":
            return f"({a})^{draw(st.integers(-2, 3))}"
        if kind == "^q":
            return f"({a})^({draw(st.sampled_from(('1/2', '3/2', '-1/3')))})"
        return f"{kind}({a})"

    @st.composite
    def manifests(draw):
        n = draw(st.sampled_from((3, 2, 1)))
        coords = tuple(f"x{i + 1}" for i in range(n))
        lines = ["[chart]", "coords = " + " ".join(coords), "param a = 3/2"]
        if draw(st.booleans()):
            lines.append(f"box {draw(st.sampled_from(coords))} = 1/2 .. 2")
        for i in range(n):
            for j in range(i, n):
                if i == j or draw(st.integers(0, 3)) == 0:
                    lines.append(f"g {i + 1} {j + 1} = {expr(draw, coords, 2)}")
        return "\n".join(lines) + "\n"

    @hyp.settings(max_examples=25, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(manifests())
    def check(text):
        path = _write(tmp_path, "fuzz.mf", text)
        for cmd in ("curvature", "classify"):
            assert main([cmd, path, "--points", "2"]) in (0, 1, 2)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            # charts below dimension 3 skip the rows that need C, W, K or P
            assert "dimension >= 3" not in err

    check()


def test_warped_verify_exit_code_contract_fuzz(tmp_path, capsys):
    """Any warp and candidates over bundled base and fiber charts make
    `warped-verify` exit 0, 1 or 2 without a traceback: warps and scalars
    may name fiber coordinates, vanish, go non-positive or be undefined."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    bases = ("flat1.mf", "flat2.mf", "ex1_base.mf", "ex2_base.mf", "hyper2.mf")
    fibers = ("flat1.mf", "flat3.mf", "sphere2.mf", "hyper2.mf",
              "ex1_fiber.mf")
    dims = {"flat1.mf": 1, "flat2.mf": 2, "ex1_base.mf": 1, "ex2_base.mf": 1,
            "hyper2.mf": 2}
    warps = ("1", "exp(x1)", "1 + x1^2", "2 + x1", None)   # None: a random one

    def scalar(draw, p):
        names = [f"x{i + 1}" for i in range(p)]
        atom = st.sampled_from(names + [f"x{p + 1}", "0", "-1", "1/3", "a"])
        kind = draw(st.sampled_from(("atom", "+", "*", "-", "exp", "log")))
        a = draw(atom)
        if kind == "atom":
            return a
        if kind in ("exp", "log"):
            return f"{kind}({a} - 5)" if draw(st.booleans()) else f"{kind}({a})"
        return f"({a}) {kind} ({draw(atom)})"

    @st.composite
    def manifests(draw):
        base, fiber = draw(st.sampled_from(bases)), draw(st.sampled_from(fibers))
        p = dims[base]
        lines = ["[warped]", f"base = {fixture_path(base)}",
                 f"fiber = {fixture_path(fiber)}",
                 f"warp = {draw(st.sampled_from(warps)) or scalar(draw, p)}"]
        for key in ("L1", "L2"):
            if draw(st.booleans()):
                lines.append(f"{key} = {scalar(draw, p)}")
        return "\n".join(lines) + "\n"

    @hyp.settings(max_examples=25, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(manifests())
    def check(text):
        path = _write(tmp_path, "fuzz.mf", text)
        assert main(["warped-verify", path, "--points", "2"]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    check()


def _assert_swell_is_flat(tmp_path, capsys, swell, n, chart_seed, seed):
    """`curvature` on swell.manifest_text(n, chart_seed) at sample seed
    `seed` exits 0, flat.  The known answer is the construction's: the
    manifest's metric is checked to be J^T J for the map's Jacobian J at a
    sample point, so it is the Euclidean metric pulled back, which is flat."""
    path = _write(tmp_path, f"swell{n}.mf", swell.manifest_text(n, chart_seed))
    chart = build_chart(load_manifest(path))
    c = swell.draw_map(n, chart_seed)
    pt = chart.sample_points(1, seed)[0]
    x = [pt[name] for name in chart.coords]
    # the map is quadratic, so a central difference is its exact derivative:
    # cols[j][i] = d y_i / d x_j
    h = Fraction(1, 3)
    cols = []
    for j in range(n):
        up = swell.apply_map(c, n, [v + h * (k == j) for k, v in enumerate(x)])
        down = swell.apply_map(c, n, [v - h * (k == j) for k, v in enumerate(x)])
        cols.append([(a - b) / (2 * h) for a, b in zip(up, down)])
    for j in range(n):
        for l in range(n):
            gram = sum(cols[j][i] * cols[l][i] for i in range(n))
            assert ex.evaluate(chart.metric[j][l], pt) == gram
    out_file = tmp_path / "r.json"
    assert main(["curvature", path, "--seed", str(seed),
                 "--json", str(out_file)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "all curvature components zero" in out
    rep = json.loads(out_file.read_text(encoding="utf-8"))["curvature"]
    assert rep["flat"] is True
    assert rep["nonzero_R"] == {} and rep["nonzero_S"] == {}


def test_curvature_swell_exit_code_contract_fuzz(tmp_path, capsys):
    """Swelling charts over map seeds and sample seeds: `curvature` exits 0
    and finds every one flat, without a traceback."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    swell = helpers.perfbench_module("swell")

    @hyp.settings(max_examples=30, derandomize=True, deadline=None,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(st.integers(0, 10 ** 6), st.integers(0, 2 ** 32))
    def check(chart_seed, seed):
        _assert_swell_is_flat(tmp_path, capsys, swell, 3, chart_seed, seed)

    check()
    _assert_swell_is_flat(tmp_path, capsys, swell, 4, 11, 3)


def _nonzero_oracle(path, seed, points):
    """nonzero_R / nonzero_S keys from one chart.is_zero call per component."""
    m = load_manifest(path)
    chart = (build_chart(m) if m.kind == "chart"
             else assemble_product(build_spec(m)))
    b = bundle(chart)
    n = chart.n

    def nonzero(e):
        return not (ex.is_literal_zero(e)
                    or chart.is_zero(e, trials=points, seed=seed))

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nz_r = [" ".join(str(i + 1) for i in (*pi, *pj))
            for pi, pj in combinations_with_replacement(pairs, 2)
            if nonzero(b.R.comp((*pi, *pj)))]
    nz_s = [f"{i + 1} {j + 1}" for i in range(n) for j in range(i, n)
            if nonzero(b.S.comps[i][j])]
    return nz_r, nz_s


@pytest.mark.parametrize("name", FIXTURES)
def test_curvature_batched_verdicts_match_per_component(name):
    path = fixture_path(name)
    _, rep = curvature_report(path, seed=7, points=4)
    c = rep["curvature"]
    assert (list(c["nonzero_R"]), list(c["nonzero_S"])) == _nonzero_oracle(
        path, seed=7, points=4)


def test_curvature_batched_verdicts_with_undefined_points(tmp_path):
    # log(x1 - 1) is undefined on the part x1 <= 1 of the box [1/3, 2]
    path = _write(tmp_path, "dom.mf", "[chart]\ncoords = x1 x2 x3\n"
                  "g 1 1 = 1\ng 2 2 = x1^2 + log(x1 - 1)^2\n"
                  "g 3 3 = exp(x2) + x1\n")
    chart = build_chart(load_manifest(path))
    xs = [pt["x1"] for pt in chart.sample_points(8, ex.DEFAULT_SEED)]
    assert min(xs) <= 1 < max(xs)
    _, rep = curvature_report(path)
    c = rep["curvature"]
    assert "undefined" in c["kappa_samples"] and c["nonzero_R"]
    assert (list(c["nonzero_R"]), list(c["nonzero_S"])) == _nonzero_oracle(
        path, seed=ex.DEFAULT_SEED, points=8)
    seed = next(s for s in range(100)
                if chart.sample_points(1, s)[0]["x1"] <= 1)
    with pytest.raises(ex.InconclusiveError):
        _nonzero_oracle(path, seed=seed, points=1)
    with pytest.raises(ex.InconclusiveError):
        curvature_report(path, seed=seed, points=1)


def _kappa_oracle(path, seed, points):
    """kappa samples, each from a fresh evaluator that sees only kappa."""
    m = load_manifest(path)
    chart = (build_chart(m) if m.kind == "chart"
             else assemble_product(build_spec(m)))
    kappa = bundle(chart).kappa
    samples = []
    for pt in chart.sample_points(points, seed):
        try:
            samples.append(ex.MP.nstr(ex.to_mpf(ex.PointEval(pt).eval(kappa)), 20))
        except ex.DomainError:
            samples.append("undefined")
    return samples


@pytest.mark.parametrize("name", FIXTURES)
def test_curvature_kappa_samples_match_fresh_evaluator(name):
    # the report evaluates kappa on the evaluator that zero-tested R and S
    path = fixture_path(name)
    _, rep = curvature_report(path, seed=7, points=4)
    assert rep["curvature"]["kappa_samples"] == _kappa_oracle(path, seed=7, points=4)


def test_curvature_kappa_samples_with_undefined_points(tmp_path):
    path = _write(tmp_path, "dom.mf", "[chart]\ncoords = x1 x2 x3\n"
                  "g 1 1 = 1\ng 2 2 = x1^2 + log(x1 - 1)^2\n"
                  "g 3 3 = exp(x2) + x1\n")
    _, rep = curvature_report(path)
    samples = rep["curvature"]["kappa_samples"]
    assert "undefined" in samples and len(set(samples)) > 2
    assert samples == _kappa_oracle(path, seed=ex.DEFAULT_SEED, points=8)


def test_reports_deterministic():
    _, r1 = curvature_report(fixture_path("sphere.mf"), points=4)
    _, r2 = curvature_report(fixture_path("sphere.mf"), points=4)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_selftest_passes():
    code, rep = selftest_report()
    assert code == 0
    assert rep["items"] and all(item["ok"] for item in rep["items"])
    names = [item["name"] for item in rep["items"]]
    assert "corrupt manifest rejected" in names
    assert "seed invariance" in names
