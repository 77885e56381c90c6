"""The benchmark's workloads: command lists and the known answer of each command.

Every expected value below comes from a source independent of a run of the
engine, cited next to it: the fixture comments, the README, the selftest
roster in `warpcurv.cli.selftest_report`, the assertions in `tests/`, or the
mathematics of the input.  Verdicts are claimed to be seed-invariant (the
selftest's "seed invariance" item), so the same answers hold for every
benchmark seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import swell

# The oracle map of every warped-verify report: block formulas agree with the
# direct computation for R, S, kappa, R.R, Q(g,R) and Q(S,R).
# tests/test_cli.py::test_warped_verify_pass pins the key set and that all
# values are true; the selftest roster requires all(oracle) on each fixture.
ORACLE_OK = {"R": True, "S": True, "kappa": True,
             "RR": True, "QgR": True, "QSR": True}


@dataclass
class Command:
    label: str
    argv: list                 # arguments to warpcurv.cli.main, minus --json
    code: int                  # expected exit code
    checks: list               # [(path into the JSON report, expected value)]


def _classify(fx, work, seed):
    def cmd(name, code, checks):
        return Command(f"classify {name}",
                       ["classify", os.path.join(fx, name), "--points", "8",
                        "--seed", str(seed)], code, checks)

    return [
        # sphere.mf, round unit 3-sphere (fixture comment): constant
        # curvature.  tests/test_cli.py::test_classify_sphere: exit 0,
        # R.R = 0 holds non-vacuously, semisymmetric, not flat, fit rank 0
        # with trivial data; selftest item "sphere chart is semisymmetric".
        cmd("sphere.mf", 0, [
            (("summary", "flat"), False),
            (("summary", "semisymmetric"), True),
            (("catalog", "R.R = 0", "holds"), True),
            (("catalog", "R.R = 0", "vacuous"), False),
            (("fit", "rank"), 0),
            (("fit", "trivial"), True),
        ]),
        # aniso3.mf: "Curved 3-chart ... not Einstein" (fixture comment).
        # No [check] section, so exit 0 (README: 0 when all requested
        # verdicts pass).  tests/test_cli.py::
        # test_classify_requested_failure_exit_code, on the same metric:
        # R.S = 0 fails.
        cmd("aniso3.mf", 0, [
            (("summary", "flat"), False),
            (("catalog", "R.S = 0", "holds"), False),
            (("summary", "ricci_semisymmetric"), False),
        ]),
        # ex1_fiber.mf, no [check] section: exit 0 (README).  tests/
        # test_acceptance.py::test_fiber_constant_ratio_identity: R.R =
        # -Q(g,R), so the (L1, L2) fit has zero residual (L1 = -1).
        # test_conditions.py::test_einstein_verdicts: not Einstein; with
        # S_22 - (kappa/4) g_22 = 1 (test_fiber_ricci_2_2_corrected, kappa =
        # -12) no point is of constant curvature, so Q(g,R) != 0 everywhere:
        # R.R = 0 fails and the fit has rank >= 1, i.e. pseudosymmetric.
        cmd("ex1_fiber.mf", 0, [
            (("summary", "flat"), False),
            (("summary", "semisymmetric"), False),
            (("catalog", "R.R = 0", "holds"), False),
            (("fit", "residual_zero"), True),
            (("summary", "pseudosymmetric"), True),
        ]),
        # ex2_warped.mf: the three [check] rows "this chart satisfies"
        # (fixture comment).  tests/test_cli.py::
        # test_classify_requested_checks: exit 0, requested checks hold,
        # R.R = 0 fails, W.R = L2 Q(S,R) skipped, fit rank 1, family,
        # pseudosymmetric.
        cmd("ex2_warped.mf", 0, [
            (("catalog", "R.R = L1 Q(g,R)", "holds"), True),
            (("catalog", "R.R = L1 Q(g,R)", "requested"), True),
            (("catalog", "P.R = L1 Q(g,R)", "holds"), True),
            (("catalog", "R.R = Q(S,R)", "holds"), True),
            (("catalog", "R.R = 0", "holds"), False),
            (("catalog", "W.R = L2 Q(S,R)", "skipped"), True),
            (("fit", "rank"), 1),
            (("fit", "family"), True),
            (("summary", "pseudosymmetric"), True),
        ]),
    ]


def _warped(fx, work, seed):
    def cmd(name, points, code, checks):
        return Command(f"warped-verify {name}",
                       ["warped-verify", os.path.join(fx, name), "--points",
                        str(points), "--seed", str(seed)], code, checks)

    # The selftest roster (warpcurv.cli.selftest_report, "warped verify: ..."
    # items) fixes the points, exit codes and failed lists of all four runs.
    return [
        cmd("ex2_warped.mf", 3, 0, [
            (("conditions", "failed"), []),
            (("oracle",), ORACLE_OK),
        ]),
        # fs_warped.mf: "conditions hold with L1 = 0, L2 = 1" (fixture
        # comment); tests/test_cli.py::test_warped_verify_pass pins the
        # trichotomy and dichotomy fields.
        cmd("fs_warped.mf", 3, 0, [
            (("conditions", "failed"), []),
            (("conditions", "all_hold"), True),
            (("oracle",), ORACLE_OK),
            (("trichotomy", "labels"), ["fiber-Einstein"]),
            (("dichotomy", "base_flat"), True),
            (("dichotomy", "fiber_einstein"), True),
            (("dichotomy", "consistent"), True),
        ]),
        # cf_warped.mf: "conditions I and II fail; the block assembly still
        # matches the direct computation" (fixture comment);
        # tests/test_cli.py::test_warped_verify_failure_report: exit 1,
        # dichotomy skipped because L2 = 0.
        cmd("cf_warped.mf", 3, 1, [
            (("conditions", "failed"), ["I", "II"]),
            (("oracle",), ORACLE_OK),
            (("dichotomy", "skipped"), True),
        ]),
        # ex1_warped.mf: "The five block conditions hold with L1 = a,
        # L2 = 0" (fixture comment).
        cmd("ex1_warped.mf", 2, 0, [
            (("conditions", "failed"), []),
            (("oracle",), ORACLE_OK),
        ]),
    ]


def _swell(fx, work, seed):
    out = []
    for n in (3, 4):
        path = os.path.join(work, f"swell{n}.mf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(swell.manifest_text(n, seed))
        # The metric is the Euclidean one pulled back through a
        # diffeomorphism (swell.py), so R = 0 and S = 0: flat, no nonzero
        # component, exit 0.
        out.append(Command(f"curvature swell{n}",
                           ["curvature", path, "--points", "8",
                            "--seed", str(seed)], 0, [
                               (("curvature", "flat"), True),
                               (("curvature", "nonzero_R"), {}),
                               (("curvature", "nonzero_S"), {}),
                           ]))
    return out


# name -> builder(fixture dir, work dir, seed) of the command list; the
# builders write generated manifests to the work dir.
WORKLOADS = {
    "classify-catalog": _classify,
    "warped-verify": _warped,
    "curvature-swell": _swell,
}


def mismatches(cmd, code, report):
    """Differences between one command's outcome and its known answer."""
    out = []
    if code != cmd.code:
        out.append(f"exit code {code}, expected {cmd.code}")
    if report is None:
        return out + ["no JSON report"]
    for path, want in cmd.checks:
        got = report
        for key in path:
            got = got.get(key) if isinstance(got, dict) else None
        # compared as JSON so that 0 and False, 1 and True stay distinct
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            out.append(f"{'/'.join(path)} = {got!r}, expected {want!r}")
    return out
