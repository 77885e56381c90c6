"""warpcurv benchmark: time to a correct verdict, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the command lists and their known answers):

  classify-catalog  classify --points 8 on sphere, aniso3, ex1_fiber and
                    ex2_warped: the only path through the identity catalog
                    and the (L1, L2) fit; evaluation dominates.
  warped-verify     the selftest's warped-verify roster (ex2, fs, cf at
                    --points 3, the five-dimensional ex1_warped at --points 2):
                    block assembly and the dense block-vs-direct oracle.
  curvature-swell   curvature --points 8 on two generated flat charts, n = 3
                    and n = 4 (swell.py): large trees that cancel to zero.
                    Bypasses actions, conditions and warped.

Each repetition runs the whole command list in a fresh single-threaded
Python process (child.py) that calls warpcurv.cli.main in-process; the
set-up probes and the repetitions go on while the next repetition is
expected to end within --seconds of the start.
Every report is checked against its known answer, and reports of equal
commands must be byte-identical across repetitions (sha256).  --seed sets
the sample points (and the swell charts' coefficients).

The host is shared, and other tenants' load slows pure-Python code by up
to 2x in phases of a fraction of a second to minutes.  So every time in the
end-to-end metrics is in calibrated seconds: the measured seconds times the
host's speed factor while they were measured, taken from a fixed reference
loops (calib.py) that the child runs four times a second through each
untraced command and that run.py runs around each set-up probe.  The raw
times are printed too.

--trace 0 prints the end-to-end metrics, medians over the repetitions:
wall_s (the sum of the commands' times: first main() call to last return,
less the reference loops' samples), max_cmd_s (slowest command), setup_s
(interpreter start until `import warpcurv.cli` returns, median of several
fresh processes) and peak_rss_mb (the child's peak resident memory less
the reference loops' 32 MiB buffer).  --trace 1 runs the list once
untraced and once with tracer.py's wrappers and prints per-layer self
times (raw seconds) and counts, trace.overhead_s (traced minus untraced
calibrated wall) and trace.unattributed_s (traced wall outside any span).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when every command matched its known answer,
1 when some did not (the result is still printed), and nonzero without a
result when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "warpcurv" / "fixtures"
SETUP_SAMPLES = 9
SETUP_REF_SAMPLES = 3                   # calib samples on each side of a probe
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed set and dict iteration order, so equal seeds do equal work
    env["PYTHONHASHSEED"] = "0"
    # imports read cached bytecode, as an installed package does; the
    # warm-up probe in run() writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_time(env):
    """Seconds from process start until `import warpcurv.cli` returns, and
    the host's speed factor around it (calib.speed)."""
    probe = ("import warpcurv.cli, sys; "
             "sys.stdout.write(warpcurv.cli.__file__ + '\\n'); "
             "sys.stdout.flush()")
    samples = [calib.sample_s() for _ in range(SETUP_REF_SAMPLES)]
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("import probe did not exit") from None
    where = Path(line.decode().strip() or ".").resolve()
    if proc.returncode != 0 or SRC not in where.parents:
        raise BenchError(f"cannot import warpcurv.cli from {SRC}")
    samples += [calib.sample_s() for _ in range(SETUP_REF_SAMPLES)]
    tree, memory = map(sum, zip(*samples))
    return seconds, calib.speed(tree, memory, len(samples))


def run_rep(cmds, work, tag, traced, env):
    """One repetition of the command list in a fresh process."""
    reports = [work / f"{tag}-{i}.json" for i in range(len(cmds))]
    for path in reports:
        path.unlink(missing_ok=True)
    result = work / f"{tag}-result.json"
    job = work / f"{tag}-job.json"
    job.write_text(json.dumps({
        "commands": [[c.label, *c.argv] for c in cmds],
        "reports": [str(p) for p in reports],
        "trace": traced,
        "result": str(result),
    }), encoding="utf-8")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               str(job)], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag}: no result within {CHILD_TIMEOUT_S} s") \
            from None
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{tag}: child exited with {proc.returncode}")
    rep = json.loads(result.read_text(encoding="utf-8"))
    rep["process_s"] = seconds
    for cmd, run, path in zip(cmds, rep["commands"], reports):
        report = None
        run["sha256"] = None
        if path.is_file():
            blob = path.read_bytes()
            run["sha256"] = hashlib.sha256(blob).hexdigest()
            report = json.loads(blob)
        run["problems"] = workloads.mismatches(cmd, run["code"], report)
        if run["error"]:
            run["problems"].append(run["error"].strip().splitlines()[-1])
    return rep


def judge(reps):
    """Attempted and failed commands; a digest that differs from the first
    repetition's report of the same command is a failure."""
    attempted = failed = 0
    for rep in reps:
        for run, first in zip(rep["commands"], reps[0]["commands"]):
            attempted += 1
            if run["sha256"] != first["sha256"]:
                run["problems"].append("report differs from repetition 1")
            failed += bool(run["problems"])
    return attempted, failed


def print_commands(reps):
    for i, first in enumerate(reps[0]["commands"]):
        times = [rep["commands"][i]["seconds"] for rep in reps]
        problems = sorted({p for rep in reps
                           for p in rep["commands"][i]["problems"]})
        print(f"{first['label']:30s} exit {first['code']}  "
              f"median {statistics.median(times):8.3f} s  "
              f"sha256 {first['sha256']}  "
              f"{'FAIL: ' + '; '.join(problems) if problems else 'ok'}")


def calibrated(rep):
    """Each command's calibrated seconds: its time scaled by the host's
    speed factor from the reference samples taken around and during it."""
    return [c["seconds"] * calib.speed(*c["ref"]) for c in rep["commands"]]


def end_to_end(reps, setup):
    n = len(reps)
    cmds = [calibrated(r) for r in reps]
    return {
        "wall_s": (statistics.median(sum(c) for c in cmds), "s", n),
        "max_cmd_s": (statistics.median(max(c) for c in cmds), "s", n),
        "setup_s": (statistics.median(s * f for s, f in setup), "s",
                    len(setup)),
        "peak_rss_mb": (statistics.median(
            r["peak_rss_kb"] / 1024 for r in reps), "MB", n),
    }


def per_layer(plain, traced):
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = (sum(calibrated(traced))
                                  - sum(calibrated(plain)))
    spans = sum(v for k, v in layers.items()
                if k.endswith("_s") and not k.startswith("trace."))
    gap = spans + layers["trace.unattributed_s"] - layers["trace.wall_s"]
    if abs(gap) > 1e-6:
        raise BenchError(f"self times do not add up to the traced wall "
                         f"time (off by {gap} s)")
    for command, table, n, ids, structs in traced["tables"]:
        print(f"nodes {command} {table} (n = {n}): {ids} distinct by "
              f"identity, {structs} by structure")
    return {k: (v, "s" if k.endswith("_s") else "count", 1)
            for k, v in sorted(layers.items())}


def run(args, work):
    start = time.perf_counter()
    cmds = workloads.WORKLOADS[args.workload](str(FIXTURES), str(work),
                                              args.seed)
    env = child_env()
    setup_time(env)                      # warm-up: compiles the .pyc files
    if args.trace:
        reps = [run_rep(cmds, work, "plain", False, env),
                run_rep(cmds, work, "traced", True, env)]
    else:
        setup = [setup_time(env) for _ in range(SETUP_SAMPLES)]
        reps = []
        while True:
            reps.append(run_rep(cmds, work, f"rep{len(reps)}", False, env))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["process_s"] for r in reps)
            if elapsed + typical > args.seconds:
                break
    attempted, failed = judge(reps)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(reps)} repetition(s)" + (" (untraced, traced)"
                                          if args.trace else ""))
    print("repetition walls: " + ", ".join(f"{r['wall_s']:.3f} s"
                                            for r in reps))
    print("calibrated walls: " + ", ".join(f"{sum(calibrated(r)):.3f} s"
                                            for r in reps))
    print_commands(reps)
    if args.trace:
        metrics = per_layer(reps[0], reps[1])
    else:
        metrics = end_to_end(reps, setup)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit:5s} (n = {samples})")
    print(f"{'fail_ratio':28s} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} commands)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "warpcurv" / "cli.py").is_file():
        print(f"error: no warpcurv sources under {SRC}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run(args, work)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
