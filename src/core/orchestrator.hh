/**
 * @file
 * Study orchestrator — decomposes a StudySpec into a flat work-list
 * of (workload, GPU, structure) campaign shards and executes them on one
 * persistent worker pool, instead of nesting a fresh per-campaign pool
 * inside every grid cell.
 *
 * Three properties make the full 10x4 grid tractable:
 *
 *  - **Golden-run cache.**  The fault-free reference simulation (which is
 *    also the ACE-instrumented run) executes once per (workload, GPU,
 *    workloadSeed) cell; every campaign shard of that cell adopts its
 *    golden cycle count instead of re-simulating.
 *  - **Checkpoint/resume.**  Completed shards stream as JSONL records to
 *    an append-only results store; a restarted study loads the store and
 *    skips every shard whose identity (workload, GPU, structure, shard
 *    index, injection range, seeds) matches.
 *  - **Determinism.**  Each injection's RNG derives from (campaign seed,
 *    injection index) — the scheme standalone runCampaign() uses too —
 *    so aggregate counts are bit-identical regardless of shard count,
 *    worker count, or resume history.
 *
 * Execution itself is the campaign layer's (reliability/campaign.hh):
 * a shard is one runInjectionRange() call, and a CampaignSchedule turns
 * each campaign's shard list into dynamically issued batches — one per
 * look of an adaptive plan's sequential schedule, the next issued only
 * after the stopping rule declined to stop on the cumulative counts so
 * far.  Because shard boundaries coincide with look
 * boundaries and the rule reads only the ordered record prefix, the
 * stopping point — and therefore every reported count and interval —
 * stays bit-identical at any jobs/shards/resume configuration.
 */

#ifndef GPR_CORE_ORCHESTRATOR_HH
#define GPR_CORE_ORCHESTRATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/worker_pool.hh"
#include "core/comparison.hh"
#include "core/shard.hh"
#include "core/study_spec.hh"
#include "reliability/fault_injector.hh"

namespace gpr {

/** Execution statistics of one orchestrated study. */
struct StudyProgress
{
    std::size_t cells = 0;          ///< (workload, GPU) pairs
    std::size_t goldenRuns = 0;     ///< reference simulations performed
    /** Worst-case shard count (an adaptive study may prune some). */
    std::size_t totalShards = 0;
    std::size_t executedShards = 0; ///< computed this run
    std::size_t resumedShards = 0;  ///< satisfied from the store
    /** Shards never run because the sequential stopping rule ended
     *  their campaign first (adaptive plans only). */
    std::size_t prunedShards = 0;
    /** Injections simulated this run (resumed shards excluded). */
    std::uint64_t injectionsExecuted = 0;
    /** Checkpoint packs recorded (one per cell that ran any shard). */
    std::size_t checkpointPacks = 0;
    /** Of those, packs recording value residency: every pack of a
     *  persistent-behavior study, none of a transient one. */
    std::size_t residencyPacks = 0;
    /** Peak resident bytes across recorded packs (delta-encoded: one
     *  baseline plus dirty pages per checkpoint) and what the same
     *  checkpoint cycles would have cost as full v1 snapshots. */
    std::size_t peakPackBytes = 0;
    std::size_t peakPackFullBytes = 0;
    /** Recording time of those packs, summed per phase (diagnostics). */
    PackBuildTiming packTiming;
    /** Aggregate worker-seconds across executed shards. */
    double shardBusySeconds = 0.0;
    /** Aggregate per-phase injection-engine breakdown across executed
     *  shards (per-worker injectors merged at shard completion under
     *  the orchestrator's state mutex — see CampaignResult::phaseStats
     *  for the discipline).  Hit counts are bit-identical at any
     *  jobs/shards configuration; the seconds are diagnostics. */
    InjectionPhaseStats phaseStats;
    /** Wall-clock spent replaying the JSONL shard store on resume
     *  (0 when not resuming). */
    double resumeLoadSeconds = 0.0;
    double wallSeconds = 0.0;       ///< end-to-end study wall-clock

    /** Executed injections per wall-clock second. */
    double
    injectionsPerSecond() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(injectionsExecuted) / wallSeconds
                   : 0.0;
    }
};

/** Deterministic default shard count for @p plan (independent of the
 *  worker count; ~250 injections per shard, at most 64 shards). */
std::size_t defaultShardCount(const SamplePlan& plan);

/**
 * Decompose @p spec into its flat shard work-list (no execution).  The
 * order is deterministic: cells in grid order, structures in enum order,
 * shards by index.  For an adaptive plan this is the *worst-case* list
 * (up to the plan's injection cap, shard boundaries aligned to the
 * sequential look schedule); execution prunes every shard past a
 * campaign's stopping point.  Exposed for tests and tooling.
 */
std::vector<ShardKey> decomposeStudy(const StudySpec& spec);

/** One campaign of a planned study: its shard count and injections. */
struct StudyPlanCampaign
{
    std::string workload;
    GpuModel gpu = GpuModel::GeforceGtx480;
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    std::size_t shards = 0;
    std::uint64_t injections = 0;
};

/** The decomposed work-list of a spec, summarised for costing a study
 *  before running it (`gpr_cli study --dry-run`). */
struct StudyPlan
{
    /** (workload, GPU) grid positions, duplicates included. */
    std::size_t gridCells = 0;
    /** Golden+ACE reference simulations (one per unique cell). */
    std::size_t goldenRuns = 0;
    /** Campaigns in deterministic work-list order. */
    std::vector<StudyPlanCampaign> campaigns;

    std::size_t totalShards() const;
    std::uint64_t totalInjections() const;
};

/** Plan @p spec without executing anything. */
StudyPlan planStudy(const StudySpec& spec);

/**
 * Run the study @p spec describes.  Reports are bit-identical at every
 * `jobs` / `shardsPerCampaign` / resume configuration.  When the spec
 * names a store, completed shards stream to it under a header embedding
 * the spec's campaign hash; resuming against a store written by a
 * different campaign spec throws FatalError instead of mixing results.
 * @p progress (optional) receives execution statistics.
 */
StudyResult runStudy(const StudySpec& spec,
                     StudyProgress* progress = nullptr);

} // namespace gpr

#endif // GPR_CORE_ORCHESTRATOR_HH
