"""Dense charts whose curvature trees swell and then cancel to zero.

The chart is the Euclidean metric pulled back through the triangular
polynomial map

    y_i = x_i + sum_{k < i} c_ik x_k^2,

so g = J^T J with J_ij = d y_i / d x_j.  J is unit lower triangular, hence
invertible everywhere, and the metric is flat: every curvature component is
an expression that cancels to zero.

Only the rationals c_ik depend on the seed.  They are drawn from
{257, 261, 265, 269} / 256.  Every coefficient of g (2 c, sums of 4 c^2 and
of 4 c c') is then a positive rational other than 1, so the parser folds no
term away and the manifest's tree shape is the same for every seed.  The
numerators are 1 mod 4, so a sum of k <= 3 products of them is k mod 4 and
every coefficient has the same denominator for every seed; being close to
the denominator, the numerators also keep their number of digits.  The size
of the rendered curvature, and with it the peak memory, then barely depends
on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction


def draw_map(n, seed):
    """Coefficients {(i, k): c_ik} of the map, 0-based, k < i."""
    rng = random.Random(f"swell-{n}-{seed}")
    return {(i, k): Fraction(256 + 4 * rng.randint(0, 3) + 1, 256)
            for i in range(n) for k in range(i)}


def apply_map(c, n, point):
    """y = (y_1, ..., y_n) at a point given as a sequence of n values."""
    return [point[i] + sum(c[i, k] * point[k] ** 2 for k in range(i))
            for i in range(n)]


def metric_entries(c, n):
    """Upper-triangle entries {(j, l): expression string} of g = J^T J."""
    def x(j):
        return f"x{j + 1}"

    out = {}
    for j in range(n):
        # g_jj = 1 + sum_{i > j} (2 c_ij x_j)^2
        terms = ["1"]
        if j < n - 1:
            a = sum(4 * c[i, j] ** 2 for i in range(j + 1, n))
            terms.append(f"{a}*{x(j)}^2")
        out[j, j] = " + ".join(terms)
        for l in range(j + 1, n):
            # g_jl = J_lj J_ll + sum_{i > l} J_ij J_il
            terms = [f"{2 * c[l, j]}*{x(j)}"]
            if l < n - 1:
                b = sum(4 * c[i, j] * c[i, l] for i in range(l + 1, n))
                terms.append(f"{b}*{x(j)}*{x(l)}")
            out[j, l] = " + ".join(terms)
    return out


def manifest_text(n, seed):
    c = draw_map(n, seed)
    lines = [f"# Euclidean metric pulled back through a triangular map "
             f"(n = {n}, seed {seed}); flat.",
             "[chart]",
             "coords = " + " ".join(f"x{i + 1}" for i in range(n))]
    for (j, l), text in sorted(metric_entries(c, n).items()):
        lines.append(f"g {j + 1} {l + 1} = {text}")
    return "\n".join(lines) + "\n"
