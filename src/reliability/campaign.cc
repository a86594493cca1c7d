#include "reliability/campaign.hh"

// gpr:lint-allow-file(D1): timing whitelist — steady_clock reads feed
// only busy-seconds diagnostics (wallSeconds/phaseStats), never outcome
// counts, hashes, or RNG draws.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/worker_pool.hh"

namespace gpr {

OutcomeCounts
runInjectionRange(FaultInjector& injector, TargetStructure structure,
                  std::uint64_t campaign_seed, const FaultShape& shape,
                  std::uint64_t begin, std::uint64_t end,
                  const InjectionRecordFn& on_record)
{
    OutcomeCounts counts;
    const auto run = [&](std::uint64_t index, const FaultSpec& fault) {
        const InjectionResult r = injector.inject(fault);
        counts.add(r.outcome);
        if (on_record)
            on_record(index, r);
    };
    const auto draw = [&](std::uint64_t index) {
        return sampleIndexedFault(injector, structure, campaign_seed, index,
                                  shape);
    };

    if (!injector.checkpointPack() ||
        !faultBehaviorPersistent(shape.behavior)) {
        for (std::uint64_t i = begin; i < end; ++i)
            run(i, draw(i));
        return counts;
    }

    // Shared-restore batching: pre-draw the whole range (sampling is a
    // pure function of (seed, index)) and execute it grouped by
    // checkpoint interval, so consecutive injections reuse the same
    // restore point and scratch working set.
    struct Drawn
    {
        std::size_t checkpoint;
        std::uint64_t index;
        FaultSpec fault;
    };
    std::vector<Drawn> batch;
    batch.reserve(end - begin);
    for (std::uint64_t i = begin; i < end; ++i) {
        const FaultSpec fault = draw(i);
        batch.push_back({injector.checkpointIndexFor(fault.cycle), i, fault});
    }
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Drawn& a, const Drawn& b) {
                         return a.checkpoint < b.checkpoint;
                     });
    for (const Drawn& d : batch)
        run(d.index, d.fault);
    return counts;
}

CampaignSchedule::CampaignSchedule(const SamplePlan& plan) : plan_(plan)
{
    if (plan.adaptive()) {
        looks_ = sequentialSchedule(plan);
        guarded_confidence_ = sequentialConfidence(plan);
    } else if (plan.injections > 0) {
        looks_ = {plan.injections};
    }
}

std::vector<InjectionRange>
CampaignSchedule::shardRanges(std::uint64_t per) const
{
    std::vector<InjectionRange> ranges;
    std::uint64_t prev = 0;
    for (std::uint64_t look : looks_) {
        for (std::uint64_t begin = prev; begin < look; begin += per)
            ranges.emplace_back(begin,
                                std::min<std::uint64_t>(begin + per, look));
        prev = look;
    }
    return ranges;
}

std::optional<InjectionRange>
CampaignSchedule::next(const OutcomeCounts& done) const
{
    const std::uint64_t n = done.total();
    const auto it = std::upper_bound(looks_.begin(), looks_.end(), n);
    GPR_ASSERT(n == 0 || (it != looks_.begin() && *(it - 1) == n),
               "campaign counts must end at a batch boundary");
    if (it == looks_.end())
        return std::nullopt;
    // The decision reads only the cumulative counts of the ordered
    // record prefix [0, n).
    if (n > 0 && plan_.adaptive() &&
        evaluateSequentialStop(done.sdc, done.due, n, plan_,
                               guarded_confidence_)
            .stop) {
        return std::nullopt;
    }
    return InjectionRange{n, *it};
}

CampaignResult
runCampaign(const GpuConfig& config, const WorkloadInstance& instance,
            TargetStructure structure, const CampaignConfig& cc)
{
    if (structureBitsTotal(config, structure) == 0) {
        fatal("cannot run a campaign on ", targetStructureName(structure),
              ": ", config.name, " has no such structure");
    }
    CampaignResult result;
    result.structure = structure;
    result.confidence = cc.plan.confidence;
    const CampaignSchedule schedule(cc.plan);
    // The most injections this campaign can run (adaptive only ever
    // stops earlier).
    const std::size_t cap = cc.plan.resolvedMaxInjections();

    // Golden run once up front (also validates the workload); the same
    // probe then records the campaign's shared checkpoint pack, which
    // amortises across the campaign's injections the same way the
    // golden run itself does.  The pack records only what this campaign
    // queries: windows for its one structure, and value residency only
    // for a persistent shape.
    std::shared_ptr<const CheckpointPack> pack;
    {
        FaultInjector probe(config, instance);
        result.goldenStats = probe.goldenRun().stats;
        if (cc.checkpoints > 0 && cap > 0)
            pack = probe.buildCheckpointPack(
                cc.checkpoints, {structure},
                faultBehaviorPersistent(cc.shape.behavior));
    }

    InjectionRecordFn on_record;
    if (cc.keepRecords) {
        result.records.resize(cap);
        on_record = [&result](std::uint64_t index, const InjectionResult& r) {
            result.records[index] = r;
        };
    }

    const unsigned threads =
        cc.numThreads ? cc.numThreads
                      : std::max(1u, std::thread::hardware_concurrency());
    // Workers claim chunks of the batch; a persistent campaign's chunks
    // are large enough for shared-restore batching to group them.
    const std::uint64_t chunk =
        pack && faultBehaviorPersistent(cc.shape.behavior) ? 32 : 1;
    std::mutex merge_mutex;
    while (const auto batch = schedule.next(result)) {
        const auto [begin, end] = *batch;
        std::atomic<std::uint64_t> next{begin};
        const auto worker = [&]() {
            // Adopt the shared golden: workers only need its cycle count
            // (and the read-only checkpoint pack).
            FaultInjector injector(config, instance);
            injector.adoptGoldenCycles(result.goldenStats.cycles);
            if (pack)
                injector.adoptCheckpointPack(pack);
            OutcomeCounts local;
            const auto t0 = std::chrono::steady_clock::now();
            try {
                for (std::uint64_t i = next.fetch_add(chunk); i < end;
                     i = next.fetch_add(chunk)) {
                    local += runInjectionRange(
                        injector, structure, cc.seed, cc.shape, i,
                        std::min(end, i + chunk), on_record);
                }
            } catch (...) {
                next.store(end); // the other workers stop claiming
                throw;
            }
            const auto t1 = std::chrono::steady_clock::now();

            // Per-worker accumulation merged at join: each worker's
            // injector owns its phase stats; the only shared writes are
            // these, under the merge mutex.  Busy time, not pool
            // wall-clock, so campaigns sharing worker threads never
            // claim the same span twice.
            std::lock_guard<std::mutex> lock(merge_mutex);
            result += local;
            result.wallSeconds +=
                std::chrono::duration<double>(t1 - t0).count();
            result.phaseStats += injector.phaseStats();
        };
        runOnSharedPool(static_cast<unsigned>(std::min<std::uint64_t>(
                            threads, end - begin)),
                        worker);
        result.injections = static_cast<std::size_t>(end);
    }

    if (cc.keepRecords)
        result.records.resize(result.injections);
    GPR_ASSERT(result.total() == result.injections,
               "campaign accounting mismatch");
    return result;
}

} // namespace gpr
