"""Session-scoped reference charts and the acceptance summary hook.

Charts carry their own caches (inverse metric, curvature bundle), so sharing
the chart object across test modules means each expensive pipeline runs once
per pytest session.

Tests marked `criterion(k)` are folded into one verdict line per criterion
at the end of the run.  A criterion with only passing tests prints PASS; one
whose strict expected failures fired prints FAIL with the recorded reasons;
any unexpected outcome prints FAIL outright.
"""

import pytest

import helpers

ACCEPTANCE_TITLES = {
    1: "fiber chart listings and the constant-ratio identity",
    2: "warped family sweep: scalar, pseudosymmetry, concircular flatness",
    3: "conformally flat listings, closed-form conditions, rank-1 fit",
    4: "block formulas vs direct computation, six candidate pairs",
    5: "algebraic property suites",
    6: "trichotomy, dichotomy, and the Ricci-block repair",
    7: "symbolic derivatives vs central differences",
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num): tag a test with its acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    out = yield
    rep = out.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is not None:
        rep.acceptance_criterion = mark.args[0]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for cat in ("passed", "failed", "error", "xfailed", "xpassed", "skipped"):
        for rep in terminalreporter.stats.get(cat, ()):
            num = getattr(rep, "acceptance_criterion", None)
            if num is None:
                continue
            if cat in ("passed", "xfailed") and rep.when != "call":
                continue
            row = rows.setdefault(num, {"ok": 0, "hard": 0, "expected": []})
            if cat == "passed":
                row["ok"] += 1
            elif cat == "xfailed":
                reason = str(getattr(rep, "wasxfail", "") or "")
                if reason.startswith("reason: "):
                    reason = reason[len("reason: "):]
                row["expected"].append(reason or "expected failure")
            else:
                row["hard"] += 1
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_TITLES):
        if num not in rows:
            continue
        row = rows[num]
        title = ACCEPTANCE_TITLES[num]
        if row["hard"]:
            verdict = "FAIL"
        elif row["expected"]:
            reasons = "; ".join(dict.fromkeys(row["expected"]))
            verdict = f"FAIL, analyzed - {reasons}"
        else:
            verdict = "PASS"
        terminalreporter.write_line(f"criterion {num} ({title}): {verdict}")


@pytest.fixture(scope="session")
def ex2_c():
    return helpers.ex2_chart()


@pytest.fixture(scope="session")
def fiber_c():
    return helpers.ex1_fiber_chart()


@pytest.fixture(scope="session")
def base_c():
    return helpers.ex1_base_chart()


@pytest.fixture(scope="session")
def warped5_c():
    return helpers.ex1_warped_chart()


@pytest.fixture(scope="session")
def sphere3_c():
    return helpers.sphere3_chart()


# Warped-product specs.  The first two assemble to ex1_warped_chart and
# ex2_chart respectively; the rest exercise flat/curved base-fiber mixes.

@pytest.fixture(scope="session")
def ex1_spec():
    from warpcurv.warped import WarpedSpec
    return WarpedSpec(helpers.ex1_base_chart(), helpers.ex1_fiber_chart(),
                      "(1 + x1)^2")


@pytest.fixture(scope="session")
def ex2_spec():
    from warpcurv.warped import WarpedSpec
    return WarpedSpec(helpers.ex2_base_chart(), helpers.flat_chart(3),
                      "1 + 2*exp(x1)")


@pytest.fixture(scope="session")
def fs_spec():
    from warpcurv.warped import WarpedSpec
    return WarpedSpec(helpers.flat_chart(2), helpers.sphere2_chart(), "exp(x1)")


@pytest.fixture(scope="session")
def cf_spec():
    from warpcurv.warped import WarpedSpec
    return WarpedSpec(helpers.aniso3_chart(), helpers.flat_chart(1), "exp(x1)")


@pytest.fixture(scope="session")
def rp_spec():
    from warpcurv.warped import WarpedSpec
    return WarpedSpec(helpers.hyper2_chart(), helpers.aniso3_chart(), 1)
