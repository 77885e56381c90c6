"""Run one workload's command list in this fresh process.

Usage: python3 child.py JOB.json

JOB.json holds {"commands": [[label, argv...], ...], "reports": [path, ...],
"trace": bool, "result": path}.  Each command runs in-process through
`warpcurv.cli.main(argv + ["--json", report])`.  The result file receives
per-command exit codes and times, the wall time (the sum of the commands'
times), the peak resident memory less calib.BUFFER and, when traced, the
per-layer metrics.  The CLI's text output goes to this process's stdout.

Each command is timed net of the reference loops (calib.py): one sample
just before and just after it, outside its time, and, in an untraced run,
the Sampler's samples all through it, which are subtracted from its time.
Its "ref" holds the totals of those samples: tree seconds, memory seconds
and their count.
"""

import contextlib
import json
import resource
import sys
import time
import traceback

import warpcurv.cli as cli
from calib import BUFFER, Sampler, sample_s


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sampler = Sampler()
    sample_s()                          # warm-up, not recorded
    clock = time.perf_counter
    runs = []
    # the handler's samples would count toward the tracer's spans
    with contextlib.nullcontext() if tracer else sampler:
        for (label, *argv), report in zip(job["commands"], job["reports"]):
            if tracer is not None:
                tracer.command = label
            before = sampler.totals()
            sampler.take()
            spent = sampler.spent_s
            t0 = clock()
            error = None
            try:
                code = cli.main(argv + ["--json", report])
            except SystemExit as err:
                code, error = err.code, f"SystemExit({err.code})"
            except Exception:           # reported as a failed command
                code, error = None, traceback.format_exc()
            seconds = clock() - t0 - (sampler.spent_s - spent)
            sampler.take()
            ref = [a - b for a, b in zip(sampler.totals(), before)]
            runs.append({"label": label, "code": code, "seconds": seconds,
                         "ref": ref, "error": error})
    wall = sum(run["seconds"] for run in runs)
    # the program's peak: less the reference buffer, resident all through
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               - len(BUFFER) // 1024)
    out = {"commands": runs, "wall_s": wall, "peak_rss_kb": peak_kb}
    if tracer is not None:
        out["layers"], out["tables"] = tracer.results(wall)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
