"""Checks of the swell-chart generator.

Run from the repository root: python3 -m pytest -q perfbench/test_swell.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import swell

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from warpcurv import expr as ex  # noqa: E402
from warpcurv.cli import build_chart, load_manifest  # noqa: E402

SEEDS = range(12)


def _chart(tmp_path, n, seed):
    path = tmp_path / f"swell{n}-{seed}.mf"
    path.write_text(swell.manifest_text(n, seed), encoding="utf-8")
    return build_chart(load_manifest(str(path)))


def _shape(e):
    """The tree with every constant's value erased.  Manifest entries hold
    only sums, products, integer powers, constants and coordinates."""
    if isinstance(e, ex.Add):
        return ("+", tuple(_shape(t) for t in e.terms))
    if isinstance(e, ex.Mul):
        return ("*", tuple(_shape(f) for f in e.factors))
    if isinstance(e, ex.Pow):
        return ("^", e.exponent, _shape(e.base))
    if isinstance(e, ex.Coord):
        return e.name
    assert isinstance(e, ex.Const), e
    return "c"


def test_tree_shape_is_seed_independent(tmp_path):
    # equal shapes imply equal node counts
    for n in (3, 4):
        shapes = {tuple(_shape(e) for row in _chart(tmp_path, n, seed).metric
                        for e in row) for seed in SEEDS}
        assert len(shapes) == 1


def test_entries_equal_jacobian_gram(tmp_path):
    rng = random.Random(7)
    for n in (3, 4):
        for seed in SEEDS:
            chart = _chart(tmp_path, n, seed)
            c = swell.draw_map(n, seed)
            for _ in range(3):
                x = [Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                     for _ in range(n)]
                # the map is quadratic, so a central difference is its exact
                # derivative: J[i][j] = d y_i / d x_j
                h = Fraction(1, 3)
                cols = []
                for j in range(n):
                    up = [v + h * (k == j) for k, v in enumerate(x)]
                    down = [v - h * (k == j) for k, v in enumerate(x)]
                    cols.append([(a - b) / (2 * h) for a, b in zip(
                        swell.apply_map(c, n, up), swell.apply_map(c, n, down))])
                env = dict(zip(chart.coords, x))
                for j in range(n):
                    for l in range(n):
                        want = sum(cols[j][i] * cols[l][i] for i in range(n))
                        assert ex.evaluate(chart.metric[j][l], env) == want
