"""What `import warpcurv.cli` loads, and the plain record classes that keep it light."""

import json
import os
import subprocess
import sys
from importlib import resources

import mpmath

import warpcurv
from warpcurv.cli import CheckRequest, Manifest, fixture_path
from warpcurv.conditions import CatalogRow, ConditionReport

# every module outside the package that warpcurv imports
_DEPENDENCIES = ("__future__", "argparse", "functools", "io", "json", "os", "sys",
                 "fractions", "math", "random", "weakref", "itertools", "mpmath")


def test_import_adds_only_warpcurv_modules():
    # a clean interpreter (-S: no site, so no .pth file imports anything)
    # first loads warpcurv's dependencies, then the CLI; comparing with what
    # they loaded keeps the check valid for any Python and mpmath release
    src = os.path.dirname(os.path.dirname(os.path.abspath(warpcurv.__file__)))
    lib = os.path.dirname(os.path.dirname(os.path.abspath(mpmath.__file__)))
    code = (f"import json, sys\nimport {', '.join(_DEPENDENCIES)}\n"
            "before = set(sys.modules)\nimport warpcurv.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, lib]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = json.loads(out)
    assert "warpcurv.cli" in added
    assert [m for m in added if m != "warpcurv" and not m.startswith("warpcurv.")] == []


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
