#include "reliability/campaign.hh"

// gpr:lint-allow-file(D1): timing whitelist — steady_clock reads feed
// only busy-seconds diagnostics (wallSeconds/phaseStats), never outcome
// counts, hashes, or RNG draws.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/worker_pool.hh"

namespace gpr {

CampaignResult
runCampaign(const GpuConfig& config, const WorkloadInstance& instance,
            TargetStructure structure, const CampaignConfig& cc)
{
    CampaignResult result;
    result.structure = structure;
    result.confidence = cc.plan.confidence;

    const bool adaptive = cc.plan.adaptive();
    // The most injections this campaign can run (adaptive only ever
    // stops earlier).
    const std::size_t cap = cc.plan.resolvedMaxInjections();

    // Golden run once up front (also validates the workload); the same
    // probe then records the campaign's shared checkpoint pack in two
    // more golden-length passes (A: windows + hashes, B: deltas), which
    // amortise across the campaign's injections the same way the golden
    // run itself does.  The pack records only what this campaign
    // queries: windows for its one structure, and value residency only
    // for a persistent shape.
    std::shared_ptr<const CheckpointPack> pack;
    {
        FaultInjector probe(config, instance);
        result.goldenStats = probe.goldenRun().stats;
        if (cc.checkpoints > 0 && cap > 0)
            pack = probe.buildCheckpointPack(
                cc.checkpoints, cc.placement, {structure},
                faultBehaviorPersistent(cc.shape.behavior));
    }

    if (cap == 0)
        return result;

    std::mutex merge_mutex;
    std::vector<InjectionResult> records;
    if (cc.keepRecords)
        records.resize(cap);

    // Run injections [begin, end) and fold their outcomes into the
    // result.  Adaptive campaigns call this once per look of the
    // schedule; fixed campaigns once for the whole plan.
    auto run_range = [&](std::size_t begin, std::size_t end) {
        std::atomic<std::size_t> next{begin};

        auto worker_fn = [&]() {
            // Adopt the shared golden: the reference simulation already
            // ran once for this campaign; workers only need its cycle
            // count (and the checkpoint pack, which is read-only and
            // shared).
            FaultInjector injector(config, instance);
            injector.adoptGoldenCycles(result.goldenStats.cycles);
            if (pack)
                injector.adoptCheckpointPack(pack);
            std::size_t local_masked = 0, local_sdc = 0, local_due = 0;

            const auto classify = [&](const InjectionResult& r,
                                      std::size_t i) {
                switch (r.outcome) {
                  case FaultOutcome::Masked:
                    ++local_masked;
                    break;
                  case FaultOutcome::Sdc:
                    ++local_sdc;
                    break;
                  case FaultOutcome::Due:
                    ++local_due;
                    break;
                }
                if (cc.keepRecords)
                    records[i] = r;
            };

            // Shared-restore batching: a persistent-shape campaign with
            // a pack pre-draws a chunk of fault specs (sampling is a
            // pure function of (seed, index)) and executes it sorted by
            // checkpoint interval, so consecutive injections restore
            // from the same delta with the same scratch-image working
            // set.  Outcomes are order-independent counts, so the
            // result stays bit-identical to index-ordered execution.
            const bool batched =
                pack && faultBehaviorPersistent(cc.shape.behavior);
            const std::size_t stride = batched ? 32 : 1;

            const auto t0 = std::chrono::steady_clock::now();
            while (true) {
                const std::size_t i0 = next.fetch_add(stride);
                if (i0 >= end)
                    break;
                if (!batched) {
                    classify(runIndexedInjection(injector, structure,
                                                 cc.seed, i0, cc.shape),
                             i0);
                    continue;
                }
                const std::size_t i1 = std::min(end, i0 + stride);
                struct Drawn
                {
                    std::size_t index;
                    std::size_t checkpoint;
                    FaultSpec fault;
                };
                std::vector<Drawn> batch;
                batch.reserve(i1 - i0);
                for (std::size_t i = i0; i < i1; ++i) {
                    Rng rng(deriveSeed(cc.seed, i));
                    const FaultSpec fault =
                        injector.sampleRandom(structure, rng, cc.shape);
                    batch.push_back(
                        {i, injector.checkpointIndexFor(fault.cycle),
                         fault});
                }
                std::stable_sort(batch.begin(), batch.end(),
                                 [](const Drawn& a, const Drawn& b) {
                                     return a.checkpoint < b.checkpoint;
                                 });
                for (const Drawn& d : batch)
                    classify(injector.inject(d.fault), d.index);
            }
            const auto t1 = std::chrono::steady_clock::now();

            std::lock_guard<std::mutex> lock(merge_mutex);
            result.masked += local_masked;
            result.sdc += local_sdc;
            result.due += local_due;
            // Busy time, not pool wall-clock: summing per-worker
            // injection time stays correct when several campaigns share
            // worker threads (concurrent campaigns would otherwise each
            // claim the same wall-clock span).
            result.wallSeconds +=
                std::chrono::duration<double>(t1 - t0).count();
            // Per-worker accumulation merged at join: each worker's
            // injector owns its phase stats; the only shared write is
            // this one, under the merge mutex.
            result.phaseStats += injector.phaseStats();
        };

        unsigned workers =
            cc.numThreads
                ? cc.numThreads
                : std::max(1u, std::thread::hardware_concurrency());
        workers = static_cast<unsigned>(
            std::min<std::size_t>(workers, end - begin));

        if (workers <= 1 || WorkerPool::onWorkerThread()) {
            // Single-threaded, or already running on some pool's worker:
            // drain inline.  (Blocking a worker on tasks it queued
            // behind itself can deadlock, and fanning out from inside a
            // pool is the oversubscription this path exists to avoid.)
            worker_fn();
        } else {
            // Fan out over the process-wide shared pool instead of
            // spawning (and joining) a fresh std::thread set per
            // campaign.  Completion is tracked with a local latch rather
            // than waitIdle() so concurrent campaigns can share the
            // pool.
            WorkerPool& pool = sharedWorkerPool();
            workers = std::min(workers, pool.size());
            std::mutex done_mutex;
            std::condition_variable done_cv;
            unsigned done = 0;
            for (unsigned t = 0; t < workers; ++t) {
                pool.submit([&]() {
                    worker_fn();
                    std::lock_guard<std::mutex> lock(done_mutex);
                    ++done;
                    done_cv.notify_one();
                });
            }
            std::unique_lock<std::mutex> lock(done_mutex);
            done_cv.wait(lock, [&] { return done == workers; });
        }
    };

    if (!adaptive) {
        run_range(0, cap);
        result.injections = cap;
    } else {
        // Walk the deterministic look schedule; the decision at each
        // look is a pure function of the cumulative counts, so the
        // stopping point is independent of worker count.
        const double guarded = sequentialConfidence(cc.plan);
        std::size_t done = 0;
        for (std::uint64_t look : sequentialSchedule(cc.plan)) {
            const auto end = static_cast<std::size_t>(look);
            run_range(done, end);
            done = end;
            result.injections = done;
            if (evaluateSequentialStop(result.sdc, result.due, done,
                                       cc.plan, guarded)
                    .stop) {
                break;
            }
        }
    }

    if (cc.keepRecords) {
        records.resize(result.injections);
        result.records = std::move(records);
    }

    GPR_ASSERT(result.masked + result.sdc + result.due ==
                   result.injections,
               "campaign accounting mismatch");
    return result;
}

} // namespace gpr
