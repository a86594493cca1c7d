#!/usr/bin/env python3
"""Self-test of the study benchmark: runs the whole command on the tiny
`selftest` slice (seconds, after the first build) and checks that

  - BENCHMARK.json is the document metrics.py describes;
  - every metric the benchmark defines is emitted, with its unit, by the
    run whose --trace value covers it;
  - a deliberately wrong audit result fails the run instead of passing.

Run from the repository root: python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics  # noqa: E402

# The metric names the benchmark was specified with.
SPECIFIED = {
    "study_s", "injections_per_s", "setup_s", "peak_rss_mb",
    "audit_mismatch_frac",
    "workloads.build_s", "sim.cycles_per_s", "sim.warp_instr_per_s",
    "sim.observed_cycles_per_s", "reliability.ace_s", "reliability.pack_s",
    "reliability.pack_to_golden", "reliability.pack.peak_bytes",
    "reliability.pack.full_bytes", "reliability.inject_s",
    "reliability.inject.prefilter_s", "reliability.inject.restore_s",
    "reliability.inject.replay_s", "reliability.inject.hash_s",
    "reliability.inject.dead_window_hits",
    "reliability.inject.residency_hits",
    "reliability.inject.hash_converge_hits",
    "reliability.inject.shortcut_frac",
    "reliability.audit.speedup_vs_legacy", "core.orchestrator.busy_frac",
    "core.orchestrator.shards_executed", "core.orchestrator.shards_pruned",
    "core.orchestrator.overhead_s", "trace.coverage", "core.store.resume_s",
}


def run(trace, *extra):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "selftest", "--seed", "1", "--seconds", "1", "--trace",
         str(trace)] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    return p.returncode, json.loads(last) if last else None, p.stderr


def check(cond, what):
    if not cond:
        sys.exit("selftest FAILED: " + what)
    print("ok:", what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        check(json.load(f) == metrics.benchmark_json(),
              "BENCHMARK.json matches metrics.py")
    defined = {m[0] for m in metrics.END_TO_END + metrics.PER_LAYER}
    check(SPECIFIED <= defined,
          "every specified metric is defined (missing: %s)"
          % sorted(SPECIFIED - defined))

    for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        code, result, err = run(trace)
        check(code == 0 and result and result["correct"]
              and result["failed"] == 0 and result["attempted"] >= 1,
              "--trace %d run passes (stderr tail: %s)"
              % (trace, err.strip().splitlines()[-1:]))
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              "--trace %d result has exactly the contract's keys" % trace)
        expected = {name: unit for name, unit, *_ in table}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        check(emitted == expected,
              "--trace %d emits every metric with its unit" % trace)
        check(all(isinstance(m["value"], (int, float))
                  for m in result["metrics"].values()),
              "--trace %d values are numbers" % trace)

        code, result, err = run(trace, "--corrupt-audit")
        check(code != 0 and result and not result["correct"]
              and result["failed"] >= 1
              and "audit mismatch: workload=selftest" in err,
              "--trace %d: a wrong audit result fails the run with a "
              "repro line" % trace)
    print("selftest passed")


if __name__ == "__main__":
    main()
