"""chowcalc benchmark: three seeded workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a chowcalc checkout; it needs only the standard
library and the checkout's `src/`.  It writes the generated inputs and the
children's output under `.bench_work/` in the checkout.

Every measured run of a workload is a fresh interpreter running the
workload's program once (a closed loop with one client: the next run starts
when the previous one has ended), so module caches start cold, as they do
for a user of the command line.  Runs repeat until S seconds have passed
(at least three runs).  Each run's output is checked; a wrong answer makes
the benchmark exit 1.  A library error on a valid input is not a wrong
answer: it is a failed operation, counted in `failed`.  The exception is
chow-script, where a statement that raises stops the evaluator, so the
checks after it go unevaluated: that is a wrong answer.

With `--trace 0` the last line of output is a JSON object whose metrics are
the end-to-end ones: medians over the runs of wall time, CPU time and peak
RSS (each taken per child from `os.wait4`), the median time for a fresh
interpreter to import chowcalc and its command line (`setup_s`).  Times are
scaled to a fixed host speed (see `REF_S`); the unscaled wall times are
printed above the result.  Failed operations are counted in the result's
`failed`; the workloads' inputs are valid ones on which no operation is
known to fail.  With `--trace 1` the metrics are the per-layer ones from one
more run made with tracing on (see `tracing.py`), plus the tracing overhead
against the untraced median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import inputs
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 3
# On a shared 2-vCPU virtual machine everything ran up to 1.5 times slower
# in spells of a few to tens of seconds, and in some spells the host held the
# vCPUs back, which slows wall time but not CPU time.  So each timing is taken
# between two runs of REFERENCE_CODE and multiplied by REF_S over the mean of
# their wall time (for wall times) or CPU time (for CPU times): timings are
# given in seconds on a host where REFERENCE_CODE takes REF_S, and runs, and
# two commits, compare at one host speed.
REF_S = 0.25
# setup_s is sampled once before each run, and at least this many times.
SETUP_RUNS = 7
# Children still running this long after the start are killed, so that the
# benchmark ends within three minutes whatever the program does.
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- workloads -------------------------------------------------------------------
#
# Each workload has prepare(seed, workdir) -> (program, ctx), where program
# is the module and arguments a child runs (`python -m program...`), and
# check(ctx, rc, stdout, stderr) -> (attempted, failed, wrong), where wrong
# lists the wrong answers found.


def _load_report(stdout):
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def prepare_verify(seed, workdir):
    with open(os.path.join(BENCH_DIR, "golden", "verify-b14.json")) as fh:
        golden = json.load(fh)
    program = [
        "chowcalc.cli", "verify-so4", "--degree-bound", "14",
        "--format", "json", "--seed", str(seed),
    ]
    return program, {"golden": golden, "seed": seed}


def check_verify(ctx, rc, stdout, stderr):
    """One pipeline run is one operation.  The report must match the golden
    copy, which fails exactly the two irreproducible reference checks."""
    report = _load_report(stdout)
    if report is None or "checks" not in report:
        return 1, 1, []
    wrong = []
    if rc != 1:
        wrong.append("exit code %d, expected 1" % rc)
    if report.get("config") != {"degree_bound": 14, "seed": ctx["seed"]}:
        wrong.append("config %r" % (report.get("config"),))
    checks = [
        {k: v for k, v in c.items() if k != "elapsed_ms"} for c in report["checks"]
    ]
    if checks != ctx["golden"]:
        got = {c["name"]: c for c in checks}
        diff = [g["name"] for g in ctx["golden"] if got.get(g["name"]) != g]
        wrong.append("report differs from the golden copy in %r" % (diff or "order",))
    return 1, 0, wrong


def prepare_gysin(seed, workdir):
    path = os.path.join(workdir, "classes.json")
    text = inputs.gysin_classes_text(seed)
    with open(path, "w") as fh:
        fh.write(text)
    classes = json.loads(text)["classes"]
    # one core solve per f monomial of a class; one solver per core degree
    f_weight = dict(inputs.F_VARS)
    solves = set()
    for i, c in enumerate(classes):
        for mono, _ in c["terms"]:
            f_mono = tuple(sorted((n, e) for n, e in mono.items() if n in f_weight))
            f_deg = sum(f_weight[n] * e for n, e in f_mono)
            solves.add((i, f_mono, c["degree"] - f_deg))
    core_degrees = {s[2] for s in solves}
    info = (
        "%d classes, %d core solves at %d core degrees; %.2f of solves reuse "
        "a solver already built"
        % (len(classes), len(solves), len(core_degrees),
           1 - len(core_degrees) / len(solves))
    )
    return ["gysin_sweep", path], {"classes": len(classes), "info": info}


def check_gysin(ctx, rc, stdout, stderr):
    """One pushforward is one operation; every image must match the oracle."""
    result = _load_report(stdout)
    if rc != 0 or result is None:
        # the program died before reporting: every pushforward failed
        return ctx["classes"], ctx["classes"], []
    wrong = ["oracle disagrees: %r" % w for w in result["wrong"]]
    if result["attempted"] != ctx["classes"]:
        wrong.append("attempted %d of %d classes" % (result["attempted"], ctx["classes"]))
    return result["attempted"], result["failed"], wrong


def prepare_script(seed, workdir):
    path = os.path.join(workdir, "script.chow")
    text = inputs.chow_script(seed)
    with open(path, "w") as fh:
        fh.write(text)
    lines = text.splitlines()
    program = [
        "chowcalc.cli", "eval", path,
        "--degree-bound", str(inputs.SCRIPT_DEGREE_BOUND), "--format", "json",
    ]
    return program, {
        "statements": sum(l.startswith(("let ", "check ")) for l in lines),
        "checks": sum(l.startswith("check ") for l in lines),
    }


def check_script(ctx, rc, stdout, stderr):
    """One statement is one operation; every check is a known identity.

    Every generated statement is valid, so an evaluator that stops before
    the end gives a wrong answer: the checks after it were never evaluated.
    """
    statements = ctx["statements"]
    report = _load_report(stdout)
    if report is None:
        detail = (stderr.strip().splitlines() or ["no output"])[-1]
        return statements, 1, ["no report, exit code %d: %s" % (rc, detail)]
    events = report.get("events", [])
    wrong = []
    if len(events) != statements:
        wrong.append("%d events for %d statements" % (len(events), statements))
    checks = [e for e in events if e["kind"] == "check"]
    if len(checks) != ctx["checks"]:
        wrong.append("%d checks for %d check statements" % (len(checks), ctx["checks"]))
    wrong += ["check failed: %s" % e["text"] for e in checks if not e["ok"]]
    if rc != 0 or report.get("overall") != "pass":
        wrong.append("exit code %d, overall %r" % (rc, report.get("overall")))
    return statements, 0, wrong


WORKLOADS = {
    "verify-b14": (prepare_verify, check_verify),
    "gysin-sweep": (prepare_gysin, check_gysin),
    "chow-script": (prepare_script, check_script),
}


# -- processes -----------------------------------------------------------------


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH_DIR])
    return env


def run_child(argv, env, workdir, deadline):
    """Run one child to completion; returns (rc, stdout, stderr, wall, cpu,
    peak_rss_mb), with CPU time and peak RSS of that child alone."""
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["reaped"] = True
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if state["killed"]:
        raise BenchError("%s ran past the deadline and was killed" % " ".join(argv))
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, stdout, stderr, wall, cpu, usage.ru_maxrss / 1024.0


def reference_work():
    """Fixed pure-Python work of the kinds chowcalc's inner loops do: a
    product of dict-keyed polynomials, and row operations on big integers."""
    p = {(i, j): i * j + 1 for i in range(24) for j in range(24)}
    prod = {}
    for (a, b), c in p.items():
        for (x, y), d in p.items():
            key = (a + x, b + y)
            prod[key] = prod.get(key, 0) + c * d
    row = [(i * 7919) ** 9 for i in range(300)]
    pivot = [(i * 104729) ** 8 + 1 for i in range(300)]
    for q in range(1, 300):
        for k in range(300):
            row[k] -= q * pivot[k]
    return prod, row


# A fresh interpreter importing chowcalc and its command line: setup_s.
IMPORT_CODE = "import chowcalc, chowcalc.cli"
# A fresh interpreter importing this driver (standard library only) and
# running reference_work(): work that no change to chowcalc can move.
REFERENCE_CODE = "import run; run.reference_work()"


def time_python(code, env, workdir, deadline):
    """Wall and CPU time of a fresh interpreter running `code`."""
    rc, _, stderr, wall, cpu, _ = run_child(
        [sys.executable, "-c", code], env, workdir, deadline
    )
    if rc != 0:
        raise BenchError("%r failed:\n%s" % (code, stderr))
    return wall, cpu


# -- main ------------------------------------------------------------------------


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def bench(args, root):
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isfile(os.path.join(root, "src", "chowcalc", "cli.py")):
        raise BenchError(
            "no chowcalc sources at %s; run from the root of a checkout"
            % os.path.join(root, "src")
        )
    workdir = os.path.join(root, ".bench_work", "%s-%d" % (args.workload, args.seed))
    os.makedirs(workdir, exist_ok=True)
    env = child_env(root)
    prepare, check = WORKLOADS[args.workload]
    program, ctx = prepare(args.seed, workdir)

    print("# workload %s, seed %d, %d s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# env %s" % json.dumps(environment(), sort_keys=True))
    if "info" in ctx:
        print("# inputs: %s" % ctx["info"])

    # warm-up runs, which also write the bytecode caches
    time_python(IMPORT_CODE, env, workdir, deadline)
    time_python(REFERENCE_CODE, env, workdir, deadline)
    setup_times = []
    refs = [time_python(REFERENCE_CODE, env, workdir, deadline)]

    def scale(kind):
        """Host-speed scale of wall (kind 0) or CPU (kind 1) time for what
        ran between the last two references."""
        return 2 * REF_S / (refs[-2][kind] + refs[-1][kind])

    runs = []
    attempted = failed = 0
    wrong = []
    argv = [sys.executable, "-m"] + program
    loop_end = time.monotonic() + args.seconds
    while not wrong and (len(runs) < MIN_RUNS or time.monotonic() < loop_end):
        if not args.trace:
            setup, _ = time_python(IMPORT_CODE, env, workdir, deadline)
        rc, stdout, stderr, wall, cpu, rss = run_child(argv, env, workdir, deadline)
        refs.append(time_python(REFERENCE_CODE, env, workdir, deadline))
        if not args.trace:
            setup_times.append(setup * scale(0))
        a, f, w = check(ctx, rc, stdout, stderr)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
        runs.append((wall * scale(0), cpu * scale(1), rss, wall))
        if f and failed == f:
            detail = (stderr.strip().splitlines() or [stdout[:300].strip()])[-1]
            print("# run %d: %d of %d operations failed: %s" % (len(runs), f, a, detail))

    walls = [r[3] for r in runs]
    if args.trace:
        rc, stdout, stderr, traced_wall, _, _ = run_child(
            [sys.executable, "-m", "tracing"] + program, env, workdir, deadline
        )
        traced = _load_report(stdout)
        if rc != 0 or traced is None:
            raise BenchError("traced run failed:\n%s" % stderr)
        a, f, w = check(ctx, traced["rc"], traced["output"], stderr)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        units = dict(tracing.PER_LAYER)
    else:
        while len(setup_times) < SETUP_RUNS:
            setup, _ = time_python(IMPORT_CODE, env, workdir, deadline)
            refs.append(time_python(REFERENCE_CODE, env, workdir, deadline))
            setup_times.append(setup * scale(0))
        metrics = {
            "wall_s": statistics.median(r[0] for r in runs),
            "cpu_s": statistics.median(r[1] for r in runs),
            "peak_rss_mb": statistics.median(r[2] for r in runs),
            "setup_s": statistics.median(setup_times),
        }
        units = dict(END_TO_END)

    print("# %d runs, unscaled wall s: %s"
          % (len(runs), " ".join("%.3f" % w for w in walls)))
    print("# reference wall s: %s"
          % " ".join("%.3f" % r[0] for r in refs))
    print("# operations: %d attempted, %d failed, failed_ratio %.4f"
          % (attempted, failed, failed / attempted))
    for name, unit in units.items():
        print("%-44s %16.6f %s" % (name, metrics[name], unit))
    for w in wrong[:20]:
        print("# WRONG: %s" % w)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return bench(args, os.getcwd())
    except BenchError as exc:
        print("bench: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
