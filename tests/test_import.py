"""What `import warpcurv.cli` loads, and the plain record classes that keep it light."""

import json
import os
import subprocess
import sys
from importlib import resources

import mpmath
import pytest

import warpcurv
from warpcurv import expr as ex
from warpcurv.cli import CheckRequest, Manifest, fixture_path
from warpcurv.conditions import CatalogRow, ConditionReport

# every module outside the package that warpcurv imports, with the standard
# modules that mpmath's libmp imports; mpmath itself is not one of them
_DEPENDENCIES = ("__future__", "argparse", "functools", "io", "json", "os", "sys",
                 "fractions", "math", "random", "weakref", "itertools",
                 "importlib.machinery", "importlib.util", "bisect", "operator")


def _clean_python(code):
    """stdout of `code` in a clean interpreter (-S: no site, so no .pth file
    imports anything) that finds warpcurv and mpmath."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(warpcurv.__file__)))
    lib = os.path.dirname(os.path.dirname(os.path.abspath(mpmath.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, lib]))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_adds_only_warpcurv_modules():
    # the interpreter first loads warpcurv's dependencies, then the CLI;
    # comparing with what they loaded keeps the check valid for any Python
    # and mpmath release.  mpmath's libmp is loaded as warpcurv._libmp, and
    # nothing of the mpmath package is
    code = (f"import json, sys\nimport {', '.join(_DEPENDENCIES)}\n"
            "before = set(sys.modules)\nimport warpcurv.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    added = json.loads(_clean_python(code))
    assert "warpcurv.cli" in added and "warpcurv._libmp.libmpf" in added
    assert [m for m in added if m != "warpcurv" and not m.startswith("warpcurv.")] == []


def test_commands_do_not_load_mpmath():
    # every command on every fixture it accepts, in one process: none loads
    # the mpmath package, whose mpfs only the public mpf-returning API makes
    code = """if True:
        import contextlib, glob, io, json, os, sys
        import warpcurv.cli as cli
        kinds = {}
        for path in sorted(glob.glob(os.path.join(cli._FIXTURES, "*.mf"))):
            try:
                kinds[path] = cli.load_manifest(path).kind
            except cli.ManifestError:
                pass
        runs = [[cmd, path, "--points", "3", "--seed", "7"]
                for cmd in ("curvature", "classify", "warped-verify")
                for path, kind in kinds.items()
                if kind == "warped" or cmd != "warped-verify"]
        runs.append(["selftest", "--seed", "7"])
        out = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "mpmath")
            name = "" if argv[0] == "selftest" else os.path.basename(argv[1])
            out.append([argv[0], name, code, loaded])
        print(json.dumps(out))
    """
    runs = json.loads(_clean_python(code))
    assert [r for r in runs if r[3]] == []
    codes = {(cmd, name): code for cmd, name, code, _ in runs}
    assert len(runs) >= 2 * 16 + 4 + 1
    assert codes[("curvature", "sphere.mf")] == 0
    assert codes[("classify", "ex1_fiber.mf")] == 0
    assert codes[("warped-verify", "ex2_warped.mf")] == 0
    assert codes[("selftest", "")] == 0


def test_import_mpmath_after_the_cli():
    # the private copy leaves mpmath's own libmp in place, and tuples pass
    # between the two copies
    code = """if True:
        import sys
        import warpcurv.cli
        from warpcurv import expr
        assert "mpmath" not in sys.modules
        import mpmath
        import mpmath.libmp
        assert mpmath.libmp is sys.modules["mpmath.libmp"]
        assert mpmath.libmp.__name__ == "mpmath.libmp"
        assert mpmath.libmp.libmpf.__name__ == "mpmath.libmp.libmpf"
        assert sys.modules["warpcurv._libmp"] is not mpmath.libmp
        assert str(mpmath.mpf(1) / 3)[:8] == "0.333333"
        third = expr.MP.mpf(1) / 3
        assert third._mpf_ == expr.mpf_div(expr.fone, expr.from_int(3), expr._PREC,
                                           expr._RND)
        assert expr.MP.make_mpf(expr.fzero) == 0
        print("ok")
    """
    assert _clean_python(code).strip() == "ok"


def test_constants_match_the_context():
    MP = ex.MP
    assert (ex._PREC, ex._RND) == tuple(MP._prec_rounding)
    assert ex._TOL == MP.mpf("1e-30")._mpf_
    assert ex._REL == ex.REL_TOL._mpf_ == MP.mpf("1e-20")._mpf_


@pytest.mark.parametrize("dps", [15, 50, 60, 80])
def test_point_eval_precision_matches_the_context(dps):
    ctx = ex._context(dps)
    pe = ex.PointEval({}, dps=dps)
    assert (pe._prec, pe._rnd) == tuple(ctx._prec_rounding)
    assert pe._tol == ctx.mpf("1e-30")._mpf_
    assert pe._ctx is ctx


def test_records_get_their_own_containers():
    a, b = Manifest("a"), Manifest("a")
    for name in ("lines", "params", "box", "entries", "checks"):
        assert getattr(a, name) is not getattr(b, name)
    a.lines.append("[chart]")
    a.params["k"] = 1
    assert b.lines == [] and b.params == {}
    c, d = CheckRequest(), CheckRequest()
    assert c.scalars is not d.scalars
    c.scalars["L"] = "1"
    assert d.scalars == {} and d.name == ""


def test_record_defaults():
    m = Manifest(path="m.mf")
    assert m.path == "m.mf"
    assert (m.kind, m.seed, m.coords) == ("", None, ())
    assert (m.lines, m.params, m.box, m.entries, m.checks) == ([], {}, {}, {}, [])
    assert (m.base, m.fiber, m.warp, m.L1, m.L2) == ("", "", "", "", "")
    assert CheckRequest("R.R = 0").name == "R.R = 0"
    row = CatalogRow("R.S = 0", ("R", "S"))
    assert (row.name, row.lhs, row.rhs) == ("R.S = 0", ("R", "S"), ())
    assert not row.parametric and row.qualifier == "none"
    rep = ConditionReport(records=[], rank=0, max_residual=0, family=True,
                          trivial=True)
    assert rep.points_invalid == 0


def test_fixture_path_names_every_bundled_manifest():
    fixtures = resources.files("warpcurv").joinpath("fixtures")
    names = sorted(p.name for p in fixtures.iterdir() if p.name.endswith(".mf"))
    assert len(names) >= 17
    for name in names:
        path = fixture_path(name)
        assert os.path.isfile(path)
        assert path == str(fixtures.joinpath(name))
