"""Benchmark of the cuspedzeta CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It writes the seeded inputs of the
workload (see inputs.py), then starts a fresh worker interpreter that
runs the workload's round of `cuspedzeta.cli.run(argv)` tasks again and
again for `--seconds`, one task at a time (a closed loop with a single
client).  Every task output is checked against oracle.py, and every
repeat of a task must give the same bytes as its first run.

With `--trace 0` it reports the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced worker plus the tracing overhead.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import inputs
import oracle

# Percentile reported as task_tail_ms, per workload: the highest that
# leaves at least 10 warm task executions above it in a run of the
# length in BENCHMARK.json.  Fixed per workload so that its meaning does
# not change with the number of rounds a run manages.
TAIL_PERCENTILE = {"exact": 90, "enumerate": 80, "scan": 75, "cusp": 80}
SETUP_PROBES = 3          # start-ups besides the worker's own
# Times are reported at the machine speed at which worker.calibrate()
# takes this long.  The shared 2-vCPU machine the baseline comes from
# changes CPU speed by up to 1.5x from one run to the next; timing the
# fixed loop before every task and scaling by it took the spread of
# task_p50_ms over five seeds of `enumerate` from 0.19 to 0.06.
CALIBRATION_MS = 1.0
RUN_DEADLINE_S = 170      # a run ends within this many seconds or fails

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms",
    "ok_ratio": "ratio", "peak_rss_mb": "MB", "oracle_max_err": "rel",
}

# per-layer metric -> (unit, source); sources: ("self", layer),
# ("calls", name), ("s", name) for inclusive time, ("entries", layer) for
# calls into a layer from another one, ("count", counter)
PER_LAYER = {
    "cli.self_s": ("s", ("self", "cli")),
    "cli.calls": ("count", ("calls", "cli.run")),
    "cyclotomic.self_s": ("s", ("self", "cyclotomic")),
    "cyclotomic.mul_calls": ("count", ("calls", "cyclotomic.CyclotomicNumber.__mul__")),
    "cyclotomic.add_calls": ("count", ("calls", "cyclotomic.CyclotomicNumber.__add__")),
    "cyclotomic.inverse_calls": ("count", ("calls", "cyclotomic.CyclotomicNumber.inverse")),
    "cyclotomic.inverse_s": ("s", ("s", "cyclotomic.CyclotomicNumber.inverse")),
    "laurent.self_s": ("s", ("self", "laurent")),
    "laurent.divmod_calls": ("count", ("calls", "laurent.LaurentPoly.divmod")),
    "laurent.mul_calls": ("count", ("calls", "laurent.LaurentPoly.__mul__")),
    "laurent.gcd_calls": ("count", ("calls", "laurent.LaurentPoly.gcd")),
    "laurent.smith_form_calls": ("count", ("calls", "laurent.smith_form")),
    "laurent.smith_form_s": ("s", ("s", "laurent.smith_form")),
    "presentation.self_s": ("s", ("self", "presentation")),
    "presentation.parse_s": ("s", ("s", "presentation.parse_presentation")),
    "presentation.fox_calls": ("count", ("calls", "presentation.fox_derivative")),
    "alexander.self_s": ("s", ("self", "alexander")),
    "alexander.invariant_calls": ("count", ("calls", "alexander.alexander_invariant")),
    "verdict.self_s": ("s", ("self", "verdict")),
    "words.self_s": ("s", ("self", "words")),
    "words.canonical_calls": ("count", ("calls", "words.canonical_conjugacy_form")),
    "spectrum.self_s": ("s", ("self", "spectrum")),
    "spectrum.enumerate_s": ("s", ("s", "spectrum.enumerate_classes")),
    "spectrum.classify_calls": ("count", ("calls", "spectrum.classify")),
    "spectrum.matmul_calls": ("count", ("calls", "spectrum.MoebiusMatrix.__matmul__")),
    "spectrum.classes_kept": ("count", ("count", "spectrum.classes_kept")),
    "spectrum.discreteness_warnings": ("count", ("count", "spectrum.discreteness_warnings")),
    "spectrum.load_s": ("s", ("s", "spectrum.load_spectrum")),
    "spectrum.rows_loaded": ("count", ("count", "spectrum.rows_loaded")),
    "ruelle.self_s": ("s", ("self", "ruelle")),
    "ruelle.calls": ("count", ("entries", "ruelle")),
    "ruelle.class_terms": ("count", ("count", "ruelle.class_terms")),
    "cuspterms.self_s": ("s", ("self", "cuspterms")),
    "cuspterms.epstein_calls": ("count", ("calls", "cuspterms.epstein")),
    "cuspterms.epstein_s": ("s", ("s", "cuspterms.epstein")),
    "cuspterms.residue_s": ("s", ("s", "cuspterms.epstein_residue_and_constant")),
    "laplace.self_s": ("s", ("self", "laplace")),
    "laplace.quad_calls": ("count", ("calls", "laplace.quadrature_lprime")),
    "laplace.quad_s": ("s", ("s", "laplace.quadrature_lprime")),
    "laplace.digamma_calls": ("count", ("calls", "laplace.digamma")),
    "scipy.quad_calls": ("count", ("calls", "scipy.quad")),
    "scipy.quad_s": ("s", ("s", "scipy.quad")),
}
# per-layer metrics computed from other measurements than the trace
DERIVED = {"spectrum.useful_ratio": "ratio", "cli.import_s": "s",
           "cli.scipy_import_s": "s", "trace.overhead_s": "s",
           "trace.overhead_ratio": "ratio", "trace.spans": "count"}


class RunError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def spawn(cmd, env, deadline, log):
    """Run cmd; return (marker timestamps by line, exit code).  Each
    stdout line is timestamped on arrival with the parent's clock."""
    with open(log, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        marks = {}
        try:
            for line in proc.stdout:
                marks.setdefault(line.decode().strip(), time.monotonic() - t0)
            rc = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
    if time.monotonic() >= deadline:
        raise RunError(f"{cmd[1]} did not finish before the run deadline")
    return marks, rc


def start_worker(tasks, args, env, work, deadline, trace, max_rounds, tag):
    plan = {"tasks": tasks, "seconds": args.seconds, "trace": trace,
            "min_rounds": min(2, max_rounds), "max_rounds": max_rounds,
            "src": os.path.abspath("src"),
            "spans": os.path.join(".perfbench_runs",
                                  f"spans-{args.workload}-{args.seed}.json")}
    plan_path = os.path.join(work, f"plan-{tag}.json")
    result_path = os.path.join(work, f"result-{tag}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    log = os.path.join(work, f"worker-{tag}.log")
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
           plan_path, result_path]
    marks, rc = spawn(cmd, env, deadline, log)
    if rc != 0 or "round" not in marks:
        with open(log, encoding="utf-8", errors="replace") as fh:
            raise RunError(f"worker exited with {rc}: {fh.read()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"], res["wall_s"] = marks["ready"], marks["round"]
    return res


def setup_probe(env, work, deadline) -> float:
    cmd = [sys.executable, "-c",
           "import cuspedzeta.cli, sys; sys.stdout.write('ready\\n')"]
    marks, rc = spawn(cmd, env, deadline, os.path.join(work, "probe.log"))
    if rc != 0 or "ready" not in marks:
        raise RunError("import cuspedzeta.cli failed")
    return marks["ready"]


def import_times(env, work, deadline):
    """(cuspedzeta import, scipy share of it) in seconds, from -X importtime."""
    log = os.path.join(work, "importtime.log")
    _, rc = spawn([sys.executable, "-X", "importtime", "-c", "import cuspedzeta.cli"],
                  env, deadline, log)
    if rc != 0:
        raise RunError("import cuspedzeta.cli failed")
    total = scipy = 0
    stack = []  # ancestors, read bottom-up: -X importtime prints children first
    with open(log, encoding="utf-8") as fh:
        rows = [l for l in fh if l.startswith("import time:") and "|" in l]
    for line in reversed(rows[1:] if rows and "cumulative" in rows[0] else rows):
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0 and name.split(".")[0] == "cuspedzeta":
            total += int(cum)
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy"
                                                      for _, n in stack):
            scipy += int(cum)
        stack.append((depth, name))
    return total / 1e6, scipy / 1e6


def grade(tasks, res, reference=None):
    """(attempted, failed, closed-form errors, failing task indices).
    A task execution fails on a wrong exit code, an oracle mismatch of
    the first round's output, output bytes differing from the first
    round, or (when `reference` is given) from the untraced worker."""
    cache = {}
    first = res["rounds"][0]
    verdict, errs = [], []
    for i, task in enumerate(tasks):
        try:
            ok, err = checks.check(task, first["rc"][i], res["outputs"][i], cache)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            ok, err = False, None
            res["stderr"][i] += f"\noracle could not read the output: {exc!r}"
        if reference is not None and reference["rounds"][0]["sha"][i] != first["sha"][i]:
            ok = False
        verdict.append(ok)
        if err is not None:
            errs.append(err)
    attempted = failed = 0
    bad = set()
    for rnd in res["rounds"]:
        for i, task in enumerate(tasks):
            attempted += 1
            if not (verdict[i] and rnd["rc"][i] == task["rc"]
                    and rnd["sha"][i] == first["sha"][i]):
                failed += 1
                bad.add(i)
    return attempted, failed, errs, sorted(bad)


def report_failures(tasks, res, bad):
    for i in bad[:10]:
        sys.stderr.write(f"FAILED {' '.join(tasks[i]['argv'])}: exit "
                         f"{res['rounds'][0]['rc'][i]}, expected {tasks[i]['rc']}\n"
                         f"{res['stderr'][i][-500:]}\n")


def speed_scale(res) -> float:
    """Factor taking this worker's times to the reference speed."""
    refs = [x for r in res["rounds"] for x in r["ref_ms"]]
    return CALIBRATION_MS / statistics.fmean(refs)


def end_to_end(args, tasks, env, work, deadline):
    setups = [setup_probe(env, work, deadline) for _ in range(SETUP_PROBES)]
    res = start_worker(tasks, args, env, work, deadline, False, 10 ** 6, "main")
    setups.append(res["setup_s"])
    attempted, failed, errs, bad = grade(tasks, res)
    report_failures(tasks, res, bad)
    rounds, warm = res["rounds"], res["rounds"][1:]
    scale = speed_scale(res)
    # Each warm execution counts with its task's mean latency over the
    # warm rounds, which averages out the second-to-second speed swings
    # of the host before the percentiles pick a task.
    means = [statistics.fmean(r["ms"][i] for r in warm) for i in range(len(tasks))]
    q = TAIL_PERCENTILE[args.workload]
    tail = percentile(means, q)
    beyond = sum(m > tail for m in means) * len(warm)
    setup = statistics.median(setups)
    wall = setup + statistics.fmean(r["seconds"] for r in rounds)
    values = {
        "setup_s": setup * scale,
        "wall_s": wall * scale,
        "task_p50_ms": statistics.median(means) * scale,
        "task_tail_ms": tail * scale,
        "ok_ratio": 1 - failed / attempted,
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        "oracle_max_err": max([oracle.ERR_FLOOR, *errs]),
    }
    notes = {
        "setup_s": f"median of {len(setups)} start-ups; {setup:.4f} s unscaled",
        "wall_s": f"setup_s + mean of {len(rounds)} rounds of {len(tasks)} tasks; "
                  f"{wall:.4f} s unscaled, round 1 (cold) {rounds[0]['seconds']:.3f} s",
        "task_p50_ms": f"{len(tasks)} tasks x {len(warm)} warm rounds; "
                       f"{statistics.median(means):.2f} ms unscaled",
        "task_tail_ms": f"p{q}, {beyond} of {len(tasks) * len(warm)} warm executions "
                        f"beyond it; {tail:.2f} ms unscaled",
        "ok_ratio": f"{attempted - failed} of {attempted} tasks passed",
        "oracle_max_err": f"floor {oracle.ERR_FLOOR:g}",
    }
    if beyond < 10:
        notes["task_tail_ms"] += " (fewer than 10: run longer)"
    print(f"speed scale {scale:.4f}: times are scaled to a machine on which "
          f"worker.calibrate() takes {CALIBRATION_MS:g} ms")
    return attempted, failed, values, notes


def per_layer(args, tasks, env, work, deadline):
    plain = start_worker(tasks, args, env, work, deadline, False, 1, "untraced")
    traced = start_worker(tasks, args, env, work, deadline, True, 10 ** 6, "traced")
    a1, f1, _, bad1 = grade(tasks, plain)
    a2, f2, _, bad2 = grade(tasks, traced, reference=plain)
    report_failures(tasks, plain, bad1)
    report_failures(tasks, traced, bad2)
    tr = traced["trace"]
    rounds = len(traced["rounds"])
    scale = speed_scale(traced)
    values, notes = {}, {}
    for metric, (unit, (src, key)) in PER_LAYER.items():
        if src == "self":
            v = tr["self_ns"].get(key, 0) / 1e9
        elif src == "s":
            v = tr["total_ns"].get(key, 0) / 1e9
        elif src == "calls":
            v = tr["calls"].get(key, 0)
        elif src == "entries":
            v = tr["entries"].get(key, 0)
        else:
            v = tr["counters"].get(key, 0)
        values[metric] = v / rounds * (scale if unit == "s" else 1)
    classify = values["spectrum.classify_calls"]
    values["spectrum.useful_ratio"] = (values["spectrum.classes_kept"] / classify
                                       if classify else 0.0)
    imports = import_times(env, work, deadline)
    values["cli.import_s"], values["cli.scipy_import_s"] = (t * scale for t in imports)
    # spawn to the end of the first (cold) round, with and without tracing
    cold_traced = traced["wall_s"] * scale
    cold_plain = plain["wall_s"] * speed_scale(plain)
    values["trace.overhead_s"] = cold_traced - cold_plain
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / cold_plain
    values["trace.spans"] = tr["spans"] / rounds
    notes["trace.overhead_s"] = (f"traced cold round {cold_traced:.4f} s - "
                                 f"untraced {cold_plain:.4f} s")
    notes["cli.self_s"] = f"per round, mean of {rounds} traced rounds"
    print(f"speed scale {scale:.4f}: times are scaled to a machine on which "
          f"worker.calibrate() takes {CALIBRATION_MS:g} ms")
    return a1 + a2, f1 + f2, values, notes


def units():
    out = {m: u for m, (u, _) in PER_LAYER.items()}
    out.update(DERIVED)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (os.path.isfile(os.path.join("src", "cuspedzeta", "cli.py"))
            and os.path.isdir("fixtures")):
        sys.stderr.write("run.py: start it from the root of a cuspedzeta checkout "
                         "(src/cuspedzeta and fixtures/ are missing here)\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    os.makedirs(".perfbench_runs", exist_ok=True)
    work = os.path.join(".perfbench_runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        tasks = inputs.make_round(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        attempted, failed, values, notes = measure(args, tasks, env, work, deadline)
    except RunError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unit = END_TO_END if not args.trace else units()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tasks/round={len(tasks)}")
    for name, v in values.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {v:.6g} {unit[name]}{extra}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit[k]}
                                  for k, v in values.items()}}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
