"""Checks sit at the boundary; tensors the engine builds are trusted.

The engine builds its tensors without zero-testing their symmetry, so the
symmetries are asserted here instead, on every loadable fixture.  Settings
that every caller leaves at one value are constants, and a scan of the
package's signatures keeps them from coming back as parameters.
"""

import importlib
import inspect
import pkgutil
from importlib import resources

import pytest

import helpers
import warpcurv
from warpcurv import expr as ex
from warpcurv.cli import build_chart, build_spec, fixture_path, load_manifest
from warpcurv.curvature import bundle, covariant_hessian
from warpcurv.tensor import metric_inverse
from warpcurv.warped import (
    WarpedSpec, _ctx, assemble_product, auxiliaries, block_curvature,
)

LOADABLE = sorted(f.name for f in resources.files("warpcurv").joinpath("fixtures").iterdir()
                  if f.name.endswith(".mf") and f.name != "corrupt.mf")


def _asymmetric(chart, rows):
    """Upper-triangle positions (i, j) where rows[i][j] != rows[j][i]."""
    n = len(rows)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flags = chart.is_zero_many([ex.sub(rows[i][j], rows[j][i]) for i, j in pairs])
    return [ij for ij, zero in zip(pairs, flags) if not zero]


@pytest.mark.parametrize("name", LOADABLE)
def test_engine_built_rank2_tensors_are_symmetric(name):
    m = load_manifest(fixture_path(name))
    spec = build_spec(m) if m.kind == "warped" else None
    charts = ([spec.base, spec.fiber, assemble_product(spec)] if spec
              else [build_chart(m)])
    for chart in charts:
        # a scalar with nonzero mixed second derivatives on every chart
        phi = ex.add(ex.mul(*(ex.Coord(x) for x in chart.coords)), chart.metric[0][0])
        for what, field in (("inverse metric", metric_inverse(chart)),
                            ("S", bundle(chart).S),
                            ("Hessian", covariant_hessian(chart, phi))):
            assert _asymmetric(chart, field.comps) == [], (chart.coords, what)
    if spec is None:
        return
    aux = auxiliaries(spec)
    cases = [(spec.base, "Hessian of f", covariant_hessian(spec.base, spec.f).comps),
             (spec.base, "T", aux.T.comps), (spec.base, "T2", aux.T2.comps),
             (spec.base, "Shat", _ctx(spec).Shat),
             (assemble_product(spec), "block S", block_curvature(spec)["S"].comps)]
    for chart, what, rows in cases:
        assert _asymmetric(chart, rows) == [], what


def test_engine_built_tensors_run_no_zero_test(monkeypatch):
    # charts validate their metric with zero tests, so they are built first
    chart = helpers.aniso3_chart()
    chart6 = helpers.banded_chart(6)
    spec = WarpedSpec(helpers.aniso3_chart(), helpers.flat_chart(1), "exp(x1)")
    assemble_product(spec)

    def no_judge(self, e):
        raise AssertionError("zero test while building an engine tensor")

    monkeypatch.setattr(ex.PointEval, "judged", no_judge)
    bundle(chart).S
    metric_inverse(chart)
    # the inverse is exact at every dimension, so n = 6 samples nothing either
    metric_inverse(chart6)
    bundle(chart6).S
    auxiliaries(spec)
    block_curvature(spec)


KNOBS = {"dps", "rel_tol", "validate"}


def test_precision_and_tolerances_are_constants():
    takers = []
    for info in pkgutil.iter_modules(warpcurv.__path__):
        mod = importlib.import_module(f"warpcurv.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                fns = [(f"{mod.__name__}.{name}", obj)]
            elif inspect.isclass(obj):
                fns = [(f"{mod.__name__}.{name}.{k}", v) for k, v in vars(obj).items()
                       if inspect.isfunction(v) and (k == "__init__" or not k.startswith("_"))]
            else:
                continue
            for qual, fn in fns:
                knobs = KNOBS & set(inspect.signature(fn).parameters)
                if knobs and qual != "warpcurv.expr.PointEval.__init__":
                    takers.append((qual, sorted(knobs)))
    assert takers == []
    assert set(inspect.signature(ex.PointEval).parameters) == {"env", "dps"}
