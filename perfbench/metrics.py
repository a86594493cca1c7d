"""The study benchmark's workloads and metrics: the one table that
BENCHMARK.json is generated from (``run.py --write-benchmark-json``) and
that run.py and selftest.py check their output against.

Every per-layer metric names the end-to-end metric it should move and
the workload where that shows (``moves``); README.md explains them.
"""

RUN_SECONDS = 20

# name -> why it was chosen (one line each).
WORKLOADS = {
    "wide-grid-transient":
        "24-cell transient rf/lds/srf grid where per-cell fixed cost is most "
        "of the study and the dead-window prefilter fires heavily",
    "cache-transient":
        "transient faults in modelled l1d/l1i/l2 caches, where shortcuts are "
        "rare and replay dominates the study",
    "adaptive-stuck-at0":
        "stuck-at-0 adaptive study: residency prefilter, hash early-out and "
        "multi-batch sequential looks instead of one batch",
}

# (name, unit, better, bound)
END_TO_END = [
    ("study_s", "s", "lower", 0.25),
    ("injections_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

ALL = "all workloads"
WIDE = "wide-grid-transient"
CACHE = "cache-transient"
ADAPTIVE = "adaptive-stuck-at0"

# (name, unit, better, moves: end-to-end metric -> where it shows)
PER_LAYER = [
    ("workloads.build_s", "s", "lower", "setup_s on " + ALL),
    ("sim.cycles_per_s", "1/s", "higher",
     "study_s on " + CACHE + "; setup_s on " + ALL),
    ("sim.warp_instr_per_s", "1/s", "higher",
     "study_s on " + CACHE + "; setup_s on " + ALL),
    ("sim.observed_cycles_per_s", "1/s", "higher", "setup_s on " + WIDE),
    ("reliability.ace_s", "s", "lower", "setup_s on " + WIDE),
    ("reliability.golden_s", "s", "lower",
     "base of sim.cycles_per_s and reliability.pack_to_golden"),
    ("reliability.pack_s", "s", "lower",
     "setup_s and study_s on " + WIDE),
    ("reliability.pack_to_golden", "ratio", "lower",
     "setup_s and study_s on " + WIDE),
    ("peak_rss_mb", "MB", "lower",
     "memory of one fresh study, all workloads (repeats only within ~15 %)"),
    ("reliability.pack.peak_bytes", "bytes", "lower",
     "peak_rss_mb on " + ADAPTIVE),
    ("reliability.pack.full_bytes", "bytes", "lower",
     "peak_rss_mb on " + ADAPTIVE),
    ("reliability.inject_s", "s", "lower",
     "injections_per_s on " + CACHE + " and " + ADAPTIVE),
    ("reliability.inject.prefilter_s", "s", "lower",
     "injections_per_s on " + ADAPTIVE),
    ("reliability.inject.restore_s", "s", "lower",
     "injections_per_s on " + ADAPTIVE),
    ("reliability.inject.replay_s", "s", "lower",
     "injections_per_s on " + CACHE),
    ("reliability.inject.hash_s", "s", "lower",
     "injections_per_s on " + ADAPTIVE),
    ("reliability.inject.count", "count", "lower",
     "base of reliability.inject.shortcut_frac"),
    ("reliability.inject.dead_window_hits", "count", "higher",
     "injections_per_s on " + CACHE + " (no change on " + WIDE + ")"),
    ("reliability.inject.residency_hits", "count", "higher",
     "injections_per_s on " + CACHE + " (no change on " + WIDE + ")"),
    ("reliability.inject.hash_converge_hits", "count", "higher",
     "injections_per_s on " + CACHE + " (no change on " + WIDE + ")"),
    ("reliability.inject.shortcut_frac", "fraction", "higher",
     "injections_per_s on " + CACHE + " (no change on " + WIDE + ")"),
    ("reliability.audit.count", "count", "higher",
     "base of audit_mismatch_frac and the audit speedup"),
    ("reliability.audit.legacy_s", "s", "lower",
     "base of reliability.audit.speedup_vs_legacy"),
    ("reliability.audit.checkpoint_s", "s", "lower",
     "injections_per_s on " + ALL),
    ("reliability.audit.speedup_vs_legacy", "ratio", "higher",
     "injections_per_s on " + ALL),
    ("audit_mismatch_frac", "fraction", "lower",
     "the failure count on " + ALL + "; must be 0"),
    ("core.orchestrator.busy_frac", "fraction", "higher",
     "study_s on " + ADAPTIVE),
    ("core.orchestrator.shards_executed", "count", "lower",
     "study_s on " + ADAPTIVE),
    ("core.orchestrator.shards_pruned", "count", "higher",
     "study_s on " + ADAPTIVE),
    ("core.orchestrator.jobs1_study_s", "s", "lower",
     "base of trace.coverage and core.orchestrator.overhead_s"),
    ("core.orchestrator.overhead_s", "s", "lower", "study_s on " + ALL),
    ("trace.layer_sum_s", "s", "lower", "base of trace.coverage"),
    ("trace.coverage", "fraction", "higher", "study_s on " + ALL),
    ("core.store.resume_s", "s", "lower", "study_s on " + ADAPTIVE),
]


def benchmark_json():
    """The BENCHMARK.json document this table describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": d}
            for n, u, b, d in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
