#!/usr/bin/env python3
"""Fixed-work benchmark of the vpart advisor.

Closed-loop workloads run through the library's public entry points:
proof, daemon and batch (BENCHMARK.json says why each was chosen;
perfbench/README.md has the details):

    python3 perfbench/run.py --workload proof --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload
    python3 perfbench/run.py --self-test               # tiny plans, checks

Every invocation first builds perfbench/ (CMake, Release) into
.bench_build/perfbench. It then runs the C++ driver as fresh processes, each
doing one phase of one workload:

  --trace 0  three set-up passes, whose median time is setup_s and whose
             reference answers must agree, then one untraced timed pass that
             yields the end-to-end metrics;
  --trace 1  one set-up pass, one untraced timed pass and one traced pass
             (the benchmark's own spans plus standalone calls into each
             layer) that yields the per-layer metrics and the tracing
             overhead.

--seconds sizes the fixed plan of requests; no run stops on a clock. The
work counters of a run (B&B nodes, pivots, SA anneals, cache outcomes) must
repeat exactly: across set-up passes, between the untraced and traced pass,
and against the first clean run of the same build, seed and plan, recorded
in .bench_build/perfbench/work-ledger.json. Any failed check counts as a
failed request. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(BUILD_DIR, "run")
LEDGER = os.path.join(BUILD_DIR, "work-ledger.json")
WORKLOADS = ["proof", "daemon", "batch"]
SETUP_PASSES = 3
RUN_BUDGET_S = 170.0  # every invocation must end within 180 s after its build

_active = []  # process groups to stop if this script is interrupted
_pass_serial = itertools.count()


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        raise BenchError("cannot read %s: %s" % (path, err))


def build():
    """Configures (once) and builds the benchmark package; returns the
    driver binary and its worker binary."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no vpart sources at %s" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                  "--target", "perfbench"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=out,
                               stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                raise BenchError("build failed (%s)" % build_log)
    binary = os.path.join(BUILD_DIR, "perfbench")
    worker = os.path.join(BUILD_DIR, "vpart", "vpart_cli")
    for path in (binary, worker):
        if not os.path.exists(path):
            raise BenchError("build produced no %s" % path)
    return binary, worker


def build_id(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def run_pass(binary, workload, seed, seconds, phase, deadline, tiny=False,
             inject_fault=False, refs=None, spans=None):
    """Runs one phase in a fresh process group and returns its JSON
    document. The group (dist probe workers included) is killed on
    timeout."""
    os.makedirs(RUN_DIR, exist_ok=True)
    out_path = os.path.join(RUN_DIR, "%s-seed%s-%s-%d-%d.json" % (
        workload, seed, phase, os.getpid(), next(_pass_serial)))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--phase", phase, "--out", out_path,
           "--run-dir", os.path.relpath(RUN_DIR, ROOT)]
    if refs:
        cmd += ["--refs", refs]
    if spans:
        cmd += ["--spans", spans]
    if tiny:
        cmd.append("--tiny")
    if inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    _active.append(proc)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s pass exceeded the time budget" %
                         (workload, phase))
    finally:
        # Also stops workers a crashed pass left behind.
        stop_group(proc)
        _active.remove(proc)
    if code != 0:
        raise BenchError("%s %s pass exited with %d" % (workload, phase, code))
    with open(out_path) as f:
        doc = json.load(f)
    doc["path"] = out_path
    return doc


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def check_ledger(path, key, work, clean):
    """Compares a run's work counters with the record in the ledger at
    `path` of the first clean run of the same build, workload, seed and
    plan. Only a clean run (every check passed, no injected fault) becomes
    that record, so a run that failed its own checks never stands as the
    reference."""
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    if key in ledger:
        if ledger[key] != work:
            return ["fixed-work guard: this run's counters %s differ from "
                    "%s, recorded by an earlier run of this build, seed and "
                    "plan that passed every check" %
                    (json.dumps(work), json.dumps(ledger[key]))]
        return []
    if not clean:
        return []
    ledger[key] = work
    with open(path + ".tmp", "w") as f:
        json.dump(ledger, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return []


def measure(spec, binaries, workload, seed, seconds, trace, tiny=False,
            inject_fault=False):
    """One benchmark run; returns the result object and a summary."""
    binary, worker = binaries
    deadline = time.monotonic() + RUN_BUDGET_S
    args = dict(tiny=tiny, inject_fault=inject_fault)
    failures = []
    setups = []
    for _ in range(1 if trace else SETUP_PASSES):
        setups.append(run_pass(binary, workload, seed, seconds, "setup",
                               deadline, **args))
    for other in setups[1:]:
        if other["references"] != setups[0]["references"]:
            failures.append("fixed-work guard: set-up passes computed "
                            "different reference answers")
    refs = setups[0]["path"]
    run = run_pass(binary, workload, seed, seconds, "run", deadline,
                   refs=refs, **args)
    passes = [run]
    if trace:
        spans = os.path.join(RUN_DIR,
                             "%s-seed%s-spans.json" % (workload, seed))
        traced = run_pass(binary, workload, seed, seconds, "trace", deadline,
                          refs=refs, spans=spans, **args)
        passes.append(traced)
        if traced["work"] != run["work"]:
            failures.append("fixed-work guard: the traced pass did other "
                            "work than the untraced one")
        traced["layer"]["trace.overhead_pct"] = (
            100.0 * (traced["wall_s"] - run["wall_s"]) / run["wall_s"])
    key = "|".join([build_id([binary, worker]), workload, str(seed),
                    str(seconds), "tiny" if tiny else "full"])
    clean = (not failures and not inject_fault and
             not any(p["failed"] for p in passes))
    failures += check_ledger(LEDGER, key, run["work"], clean)
    for doc in setups + passes:
        os.remove(doc["path"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(failures)
    for p in passes:
        failures += p["failures"]

    if trace:
        values = passes[-1]["layer"]
        names = spec["per_layer"]
    else:
        values = dict(run["metrics"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        names = spec["end_to_end"]
    metrics = {}
    for metric in names:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    summary = {"workload": workload, "seed": seed, "samples": run["samples"],
               "failures": failures}
    return result, summary


def print_table(result, summary):
    print("%s (seed %s): %d requests attempted, %d failed, %d latency "
          "samples in the timed run" % (summary["workload"], summary["seed"],
                                        result["attempted"], result["failed"],
                                        summary["samples"]))
    for name, metric in result["metrics"].items():
        print("  %-30s %16.6f %s" % (name, metric["value"], metric["unit"]))
    for failure in summary["failures"]:
        print("  FAILED: %s" % failure)


def validate(spec, result, trace):
    """Problems with a result object: keys, metric names, units, values."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    names = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in names}
    for name, unit in expected.items():
        metric = result["metrics"].get(name)
        if metric is None:
            problems.append("missing metric %s" % name)
        elif metric.get("unit") != unit:
            problems.append("metric %s has unit %r, not %r" %
                            (name, metric.get("unit"), unit))
        elif not isinstance(metric.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name in result["metrics"]:
        if name not in expected:
            problems.append("unexpected metric %s" % name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive whole number")
    return problems


def self_test(spec, binaries):
    """Tiny plans of every workload, traced and untraced: the output must
    carry every metric with its unit and pass every correctness check, an
    injected wrong answer must be reported as a failed request, and the
    work ledger must not keep a run that failed its checks."""
    problems = []
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json lists other workloads than %s" %
                        WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, summary = measure(spec, binaries, workload, 1, 1, trace,
                                      tiny=True)
            found = validate(spec, result, trace)
            if not result["correct"] or result["failed"]:
                found.append("correctness checks failed: %s" %
                             summary["failures"])
            problems += ["%s trace=%d: %s" % (workload, trace, p)
                         for p in found]
        result, _ = measure(spec, binaries, workload, 1, 1, 0, tiny=True,
                            inject_fault=True)
        if result["correct"] or not result["failed"]:
            problems.append("%s: an injected wrong answer went unnoticed" %
                            workload)
    ledger = os.path.join(BUILD_DIR, "self-test-ledger.json")
    if os.path.exists(ledger):
        os.remove(ledger)
    if (check_ledger(ledger, "k", {"n": 1}, clean=False) or
            check_ledger(ledger, "k", {"n": 2}, clean=True) or
            not check_ledger(ledger, "k", {"n": 1}, clean=True)):
        problems.append("the work ledger kept a run that failed its checks")
    if os.path.exists(ledger):
        os.remove(ledger)
    incomplete = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    if not validate(spec, incomplete, 0):
        problems.append("validation accepted a result with missing metrics")
    for problem in problems:
        print("self-test: %s" % problem)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    def interrupted(signum, _frame):
        for proc in list(_active):
            stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        spec = load_spec()
        binaries = build()
        if args.self_test:
            return self_test(spec, binaries)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for workload in workloads:
            result, summary = measure(spec, binaries, workload, args.seed,
                                      args.seconds, args.trace)
            print_table(result, summary)
            results.append((workload, result))
    except BenchError as err:
        log("perfbench: %s" % err)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {"%s.%s" % (w, name): metric
                             for w, r in results
                             for name, metric in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
