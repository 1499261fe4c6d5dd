"""Benchmark worker: runs one plan of cuspedzeta CLI tasks in-process.

    python3 perfbench/worker.py PLAN.json RESULT.json

`run.py` starts it with PYTHONPATH pointing at the checkout's `src`.
It writes `ready` to stdout as soon as `import cuspedzeta.cli` returns
and `round` when the first round is done; the parent timestamps both
lines.  Tasks run one at a time through `cuspedzeta.cli.run(argv)`, the
public entry point, with stdout and stderr captured.  Before each task it
times `calibrate()`, a fixed loop, to track the machine's speed.
Rounds repeat until the next one would end after `seconds`; at least
`min_rounds` and at most `max_rounds` run.
"""

import cmath
import contextlib
import io
import sys
import time


def run_task(cli, argv, scope):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with scope(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a task that raises is a failed task, not a failed run
        rc = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work (integer and
    dict operations, float parsing, complex exponentials), run before
    every task so that run.py can scale times to a fixed machine speed."""
    t0 = time.perf_counter()
    acc = {}
    z = 0j
    for i in range(1300):
        acc[i % 97] = acc.get(i % 97, 0) + (i * i) % 13
        z += cmath.exp(complex(float(f"{i}.25e-3"), -0.5))
    sorted(acc.items())
    return time.perf_counter() - t0


def main(plan_path, result_path):
    import cuspedzeta.cli as cli  # first, so `ready` marks the end of set-up
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import hashlib
    import json
    import os
    import resource
    import statistics

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"worker: cuspedzeta.cli comes from {cli.__file__}, not {src}\n")
        return 3
    tracer = None
    scope = contextlib.nullcontext
    if plan["trace"]:
        import tracer as tracing
        tracer = tracing.install()
        scope = tracer.task
    rounds, outputs, errors = [], [], []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rec = {"ms": [], "rc": [], "sha": [], "ref_ms": []}
        for task in plan["tasks"]:
            rec["ref_ms"].append(calibrate() * 1e3)
            rc, dt, out, err = run_task(cli, task["argv"], scope)
            rec["ms"].append(dt * 1e3)
            rec["rc"].append(rc)
            rec["sha"].append(hashlib.sha256(out.encode()).hexdigest())
            if not rounds:
                outputs.append(out)
                errors.append(err[-2000:])
        rec["seconds"] = time.perf_counter() - t_round - sum(rec["ref_ms"]) / 1e3
        rounds.append(rec)
        if len(rounds) == 1:
            sys.stdout.write("round\n")
            sys.stdout.flush()
        n = len(rounds)
        typical = statistics.median(r["seconds"] for r in rounds)
        if n >= plan["max_rounds"]:
            break
        if n >= plan["min_rounds"] and time.perf_counter() - start + typical > plan["seconds"]:
            break
    result = {"rounds": rounds, "outputs": outputs, "stderr": errors,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
