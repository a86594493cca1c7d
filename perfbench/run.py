#!/usr/bin/env python3
"""Study benchmark: times runStudy() on one workload and checks its counts.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench_study from the source tree (CMake, into the directory
named by $CARGO_TARGET_DIR, default .bench_build), then

  --trace 0  runs two set-up studies and at least three studies, each in
             a fresh process, more studies until S seconds have passed,
             then audits the checkpoint engine against the legacy engine.
             It reports the end-to-end metrics as medians.
  --trace 1  makes one traced run: the study's layers driven serially and
             timed from outside.  It reports the per-layer metrics and
             writes the span file and the per-layer JSON.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A run fails (exit 1, correct=false) when an audited injection
differs between the engines, or when per-campaign counts differ between
runs of the same seeds.  Each difference is printed to stderr as a
one-line repro.  --seed N selects workload seed 42+N, so each seed gives
the workloads other inputs; the campaign seed stays at the repository
default 0xC0FFEE.  --campaign-seed and --workload-seed set either seed.  `--write-benchmark-json` regenerates
BENCHMARK.json from metrics.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics  # noqa: E402

JOBS = min(4, len(os.sched_getaffinity(0)))
MIN_STUDIES = 3
SETUPS = 2
# Not a benchmark workload: the self-test's seconds-scale slice.
SELFTEST = "selftest"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build perfbench_study; return its path."""
    cdir = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(cdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cdir, "-j", str(JOBS),
                    "--target", "perfbench_study"],
                   stdout=sys.stderr, check=True)
    return os.path.join(cdir, "perfbench_study")


def child(exe, mode, args):
    """Run one perfbench_study process; return (its JSON, peak RSS in MB)."""
    proc = subprocess.Popen([exe, mode] + args, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_study %s exited with %d"
                           % (mode, proc.returncode))
    return json.loads(out.decode().strip().splitlines()[-1]), \
        usage.ru_maxrss / 1024.0


def compare_counts(workload, what, reference, campaigns, failures):
    """Append a one-line repro naming the first campaign whose counts
    differ, if any."""
    if len(reference) != len(campaigns):
        failures.append("counts differ: workload=%s %s: %d vs %d campaigns"
                        % (workload, what, len(campaigns), len(reference)))
        return
    for c, r in zip(campaigns, reference):
        if c != r:
            failures.append(
                "counts differ: workload=%s campaign=%s %s: %s vs %s"
                % (workload, c["id"], what, c, r))
            return


def check_ledger(args, campaigns, failures):
    """Counts of the same (workload, seeds) must match across every run,
    traced or not: the first run records them, later runs compare."""
    ledger = os.path.join(build_dir(), "perfbench-out", "counts",
                          "%s-c%d-w%d.json" % (args.workload,
                                               args.campaign_seed,
                                               args.workload_seed))
    if os.path.exists(ledger):
        with open(ledger) as f:
            compare_counts(args.workload, "this run vs earlier runs",
                           json.load(f), campaigns, failures)
    else:
        os.makedirs(os.path.dirname(ledger), exist_ok=True)
        with open(ledger + ".tmp", "w") as f:
            json.dump(campaigns, f)
        os.replace(ledger + ".tmp", ledger)


def untraced(exe, args, common):
    # Set-up studies interleaved with the first studies, then more
    # studies while time remains: study_s is the noisier of the two, and a
    # wide-grid set-up costs nearly as much as its study.
    studies, setups = [], []
    t0 = time.monotonic()
    while (len(studies) < MIN_STUDIES
           or time.monotonic() - t0 < args.seconds):
        if len(setups) < SETUPS:
            setups.append(child(exe, "study", common + ["--setup"])[0])
        studies.append(child(exe, "study", common)[0])

    failures = []
    for i, run in enumerate(studies[1:], 2):
        compare_counts(args.workload, "study run %d vs run 1" % i,
                       studies[0]["campaigns"], run["campaigns"], failures)
    for i, run in enumerate(setups[1:], 2):
        compare_counts(args.workload, "set-up run %d vs run 1" % i,
                       setups[0]["campaigns"], run["campaigns"], failures)
    check_ledger(args, studies[0]["campaigns"], failures)

    stops = ",".join(str(c["injections"]) for c in studies[0]["campaigns"])
    audit = child(exe, "audit", common + ["--stops=" + stops])[0]
    failures += audit["audit_mismatches"]

    study_s = statistics.median(s["wall_s"] for s in studies)
    values = {
        "study_s": study_s,
        "injections_per_s": studies[0]["injections"] / study_s,
        "setup_s": statistics.median(s["wall_s"] for s in setups),
    }
    log("perfbench: %s: study_s %s, setup_s %s"
        % (args.workload, [round(s["wall_s"], 3) for s in studies],
           [round(s["wall_s"], 3) for s in setups]))
    attempted = len(studies) + len(setups) + audit["audited"]
    return values, metrics.END_TO_END, attempted, failures


def traced(exe, args, common):
    out = os.path.join(build_dir(), "perfbench-out",
                       "trace-%s-c%d-w%d" % (args.workload, args.campaign_seed,
                                             args.workload_seed))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    store = "--store=%s.store.jsonl" % out
    # One fresh jobs=N study writes the store the traced run resumes.
    # Peak RSS repeats only within ~15 % from run to run (pack lifetimes
    # overlap differently), so it is a layer metric measured here.
    study, peak = child(exe, "study", common + [store])
    trace = child(exe, "trace", common + ["--out=" + out, store])[0]
    trace["metrics"].update({
        "peak_rss_mb": peak,
        "core.orchestrator.busy_frac":
            study["busy_s"] / (study["wall_s"] * JOBS),
        "core.orchestrator.shards_executed": study["shards_executed"],
        "core.orchestrator.shards_pruned": study["shards_pruned"],
    })
    failures = trace["failures"] + trace["audit_mismatches"]
    compare_counts(args.workload, "jobs=N study vs jobs=1 study",
                   trace["campaigns"], study["campaigns"], failures)
    check_ledger(args, trace["campaigns"], failures)
    with open(out + ".layers.json", "w") as f:
        json.dump(trace["metrics"], f, indent=1)
    log("perfbench: %s: spans in %s.spans.json, layers in %s.layers.json"
        % (args.workload, out, out))
    # The serial drive, the jobs=N study, the resume and the ledger are
    # each compared with the jobs=1 studies, plus every audited injection.
    attempted = 4 + trace["audited"]
    return trace["metrics"], metrics.PER_LAYER, attempted, failures


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=list(metrics.WORKLOADS) + [SELFTEST])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--campaign-seed", type=int)
    p.add_argument("--workload-seed", type=int)
    p.add_argument("--corrupt-audit", action="store_true",
                   help="test hook: report one audited legacy outcome "
                        "wrongly (the run must then fail)")
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(metrics.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.campaign_seed is None:
        # An adaptive study's stopping points, and with them its work and
        # its critical path, move with the campaign seed: over ten campaign
        # seeds the adaptive study's time spread 0.30 (IQR/median).  A
        # fixed campaign seed keeps the sampled faults' share of the work
        # the same from run to run, so a run measures the code.
        args.campaign_seed = 0xC0FFEE
    if args.workload_seed is None:
        args.workload_seed = 42 + args.seed

    exe = build()
    common = [args.workload, "--campaign-seed=%d" % args.campaign_seed,
              "--workload-seed=%d" % args.workload_seed,
              "--jobs=%d" % JOBS]
    if args.corrupt_audit:
        common.append("--corrupt-audit")
    values, table, attempted, failures = (traced if args.trace else untraced)(
        exe, args, common)

    for line in failures:
        log(line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in table},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
