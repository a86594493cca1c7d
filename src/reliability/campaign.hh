/**
 * @file
 * Statistical fault-injection campaigns: N independent faults, uniformly
 * sampled over (structure bit, execution cycle).  This is the
 * one place campaign execution lives: runInjectionRange() executes a
 * range of injection indices (every study shard and every standalone
 * campaign worker runs through it), and CampaignSchedule decides which
 * range runs next or whether the campaign stops.  Per-injection seeds
 * are derived from (campaign seed, injection index), so results are
 * bit-identical regardless of worker threads, shards or resume history.
 */

#ifndef GPR_RELIABILITY_CAMPAIGN_HH
#define GPR_RELIABILITY_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "reliability/fault_injector.hh"
#include "reliability/sampling.hh"
#include "sim/stats.hh"

namespace gpr {

struct CampaignConfig
{
    SamplePlan plan = paperSamplePlan();
    std::uint64_t seed = 0xC0FFEE;
    /** Parallel workers; 0 selects std::thread::hardware_concurrency().
     *  Workers run as tasks on the process-wide shared pool, so
     *  back-to-back or concurrent campaigns reuse one set of threads. */
    unsigned numThreads = 0;
    /** Keep every per-injection record (memory-heavy for big campaigns). */
    bool keepRecords = false;
    /** Checkpoint budget for the checkpoint-restore injection engine;
     *  0 runs every injection from scratch (legacy engine, identical
     *  counts).  The budget is placed fault-aware — see the README's
     *  checkpoint engine v2 migration note. */
    unsigned checkpoints = kDefaultCheckpoints;
    /** Fault shape every injection of the campaign carries (target,
     *  bit and cycle stay per-injection samples).  Default = transient
     *  single-bit, the pre-redesign model bit-for-bit. */
    FaultShape shape;
};

/** A campaign's outcome counts plus its statistics. */
struct CampaignResult : OutcomeCounts
{
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    /** Injections run (== total()): the adaptive stopping point, or the
     *  fixed plan size. */
    std::size_t injections = 0;

    /** Golden-run performance & occupancy statistics. */
    SimStats goldenStats;

    /**
     * Aggregate worker-seconds spent on the injection runs (summed busy
     * time across workers — equals wall-clock for a single-threaded
     * campaign, and never double-counts when campaigns share a pool).
     */
    double wallSeconds = 0.0;

    /**
     * Aggregate per-phase engine breakdown (prefilter / restore / replay
     * / hash, plus shortcut hit counts).  Each worker accumulates into
     * its own injector and the partials merge under the result mutex at
     * join — never into shared state from inside the injection loop
     * (lint rule D4 / the TSan CI job).  Hit *counts* are a pure
     * function of the injection set, so they are bit-identical at any
     * worker count; the seconds are wall-clock diagnostics.
     */
    InjectionPhaseStats phaseStats;

    /** Confidence level the margins below are quoted at. */
    double confidence = 0.99;

    std::vector<InjectionResult> records; ///< only if keepRecords

    double
    sdcRate() const
    {
        return injections ? static_cast<double>(sdc) /
                                static_cast<double>(injections)
                          : 0.0;
    }
    double
    dueRate() const
    {
        return injections ? static_cast<double>(due) /
                                static_cast<double>(injections)
                          : 0.0;
    }

    /**
     * Error margin around the measured AVF: the Wilson-interval
     * half-width, which stays meaningful (non-zero) even when the
     * campaign observes zero or all failures, unlike the Wald margin.
     */
    double
    errorMargin() const
    {
        if (injections == 0)
            return 0.0;
        return avfInterval().width() / 2.0;
    }

    /** Wilson interval around a rate with @p successes outcomes (the
     *  vacuous [0,1] when the campaign ran no injections). */
    Interval
    rateInterval(std::size_t successes) const
    {
        return wilsonInterval(successes, injections, confidence);
    }

    Interval avfInterval() const { return rateInterval(sdc + due); }
    Interval sdcInterval() const { return rateInterval(sdc); }
    Interval dueInterval() const { return rateInterval(due); }

    /** Largest CI half-width across the three reported rates — the
     *  same statistic the sequential stopping rule tests, so what an
     *  adaptive campaign reports is exactly what it stopped on. */
    double
    achievedMargin() const
    {
        return maxRateHalfWidth(sdc, due, injections, confidence);
    }
};

/**
 * The campaign seeding scheme, shared by every execution engine
 * (standalone campaigns and orchestrated study shards): injection
 * @p index of a campaign seeded with @p campaign_seed draws its fault
 * from Rng(deriveSeed(campaign_seed, index)).  Keeping this in one
 * place is what makes campaign outcomes a pure function of
 * (seed, index) — independent of threads, shards, and resume history.
 */
inline FaultSpec
sampleIndexedFault(FaultInjector& injector, TargetStructure structure,
                   std::uint64_t campaign_seed, std::uint64_t index,
                   const FaultShape& shape = {})
{
    Rng rng(deriveSeed(campaign_seed, index));
    return injector.sampleRandom(structure, rng, shape);
}

/** Run injection @p index of a campaign (see sampleIndexedFault()). */
inline InjectionResult
runIndexedInjection(FaultInjector& injector, TargetStructure structure,
                    std::uint64_t campaign_seed, std::uint64_t index,
                    const FaultShape& shape = {})
{
    return injector.inject(sampleIndexedFault(injector, structure,
                                              campaign_seed, index, shape));
}

/** Sees each injection result of a range with its injection index. */
using InjectionRecordFn =
    std::function<void(std::uint64_t index, const InjectionResult&)>;

/**
 * Execute injections [@p begin, @p end) of the campaign seeded
 * @p campaign_seed on @p injector and return their outcome counts — the
 * one execution loop behind study shards and standalone campaign
 * workers.  With a checkpoint pack armed and a persistent @p shape, the
 * range's faults are pre-drawn and executed sorted by checkpoint
 * interval (shared-restore batching: consecutive injections reuse the
 * same restore point and scratch working set); otherwise in index
 * order.  Outcomes depend only on (seed, index), so the counts are
 * bit-identical either way.  @p on_record, when set, sees every result
 * in execution order.
 */
OutcomeCounts runInjectionRange(FaultInjector& injector,
                                TargetStructure structure,
                                std::uint64_t campaign_seed,
                                const FaultShape& shape,
                                std::uint64_t begin, std::uint64_t end,
                                const InjectionRecordFn& on_record = {});

/** An injection index range [first, second). */
using InjectionRange = std::pair<std::uint64_t, std::uint64_t>;

/**
 * The batch/stop policy of a campaign under @p plan, shared by
 * standalone campaigns and the study orchestrator.  A campaign runs in
 * batches that end at the plan's looks — one batch covering the whole
 * plan when it is fixed, the sequential look schedule
 * (reliability/sampling.hh) when it is adaptive — and after each batch
 * the stopping rule reads only the cumulative counts.  Because shard
 * boundaries coincide with looks (shardRanges()), that decision is a
 * pure function of the ordered record prefix: identical at every
 * thread, shard and resume configuration.
 */
class CampaignSchedule
{
  public:
    explicit CampaignSchedule(const SamplePlan& plan);

    /** Ranges of at most @p per injections tiling every batch: a
     *  campaign's shard decomposition. */
    std::vector<InjectionRange> shardRanges(std::uint64_t per) const;

    /**
     * The batch to run after the first @p done.total() injections,
     * whose cumulative outcomes are @p done (total 0, or the end of a
     * batch), or nullopt when the campaign stops there: the plan is
     * exhausted, or an adaptive plan's stopping rule is met.
     */
    std::optional<InjectionRange> next(const OutcomeCounts& done) const;

  private:
    SamplePlan plan_;
    /** Cumulative injection counts ending each batch (empty for a
     *  zero-injection plan). */
    std::vector<std::uint64_t> looks_;
    /** sequentialConfidence(plan_), derived once. */
    double guarded_confidence_ = 0.0;
};

/**
 * Run a statistical FI campaign for one (GPU, workload, structure)
 * triple: one golden probe, an optional shared checkpoint pack, then
 * the CampaignSchedule's batches on the shared worker pool.  Throws
 * FatalError when @p config has no @p structure; an exception thrown
 * by any worker is rethrown here.  Individual abnormal outcomes are
 * classified, never thrown.
 */
CampaignResult runCampaign(const GpuConfig& config,
                           const WorkloadInstance& instance,
                           TargetStructure structure,
                           const CampaignConfig& cc = {});

} // namespace gpr

#endif // GPR_RELIABILITY_CAMPAIGN_HH
