#include "reliability/fault_injector.hh"

// gpr:lint-allow-file(D1): timing whitelist — PhaseClock reads feed only
// the InjectionPhaseStats and PackBuildTiming seconds diagnostics, never
// outcomes, hashes, checkpoint cycles, or RNG draws.

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "sim/structure_registry.hh"

namespace gpr {
namespace {

/**
 * Hash-boundary spacing for a golden run of @p golden_cycles on a chip
 * whose hashable state is @p state_words 32-bit words.  Boundaries
 * should be dense enough that a converged run exits soon after its flip
 * is erased (<= golden/256; the dirty-page digest cache makes a
 * boundary cost O(pages written since the last one), so they can be ~4x
 * denser than the full-rehash engine afforded), with a floor on
 * big-state/short-run cells where even the cached page-digest *sum*
 * (one add per page) would otherwise dominate.
 */
Cycle
chooseHashInterval(Cycle golden_cycles, std::uint64_t state_words)
{
    const Cycle by_run = golden_cycles / 256;
    const Cycle by_state = static_cast<Cycle>(state_words / 2048);
    return std::max<Cycle>(1, std::max(by_run, by_state));
}

/**
 * Transient dead-window verdict: every unit @p fault's aligned pattern
 * group touches has exact windows in @p windows and is unobserved at
 * the fault cycle.
 */
bool
deadAtFault(const GpuConfig& config, const FaultWindows& windows,
            const FaultSpec& fault)
{
    // The aligned group, in instance-local bits (Gpu::applyFault).
    const std::uint64_t per_instance =
        structureSpec(fault.structure).bitsPerSm(config);
    const unsigned width = faultPatternWidth(fault.pattern);
    const BitIndex first =
        fault.bitIndex - fault.bitIndex % per_instance % width;
    std::uint64_t last_unit = kNoExactUnit;
    for (BitIndex bit = first; bit < first + width; ++bit) {
        const std::uint64_t unit =
            exactWindowUnit(config, fault.structure, bit);
        if (unit == kNoExactUnit)
            return false;
        if (unit != last_unit &&
            windows.observed(fault.structure, unit, fault.cycle))
            return false;
        last_unit = unit;
    }
    return true;
}

using PhaseClock = std::chrono::steady_clock;

double
secondsSince(PhaseClock::time_point start)
{
    return std::chrono::duration<double>(PhaseClock::now() - start)
        .count();
}

} // namespace

FaultInjector::FaultInjector(const GpuConfig& config,
                             const WorkloadInstance& instance)
    : config_(config), instance_(instance), gpu_(config)
{
    if (instance.program.dialect() != config.dialect) {
        fatal("workload '", instance.workloadName, "' was built for ",
              dialectName(instance.program.dialect()), " but ", config.name,
              " executes ", dialectName(config.dialect));
    }
}

const RunResult&
FaultInjector::goldenRun()
{
    GPR_ASSERT(!golden_adopted_,
               "goldenRun() unavailable after adoptGoldenCycles() — only "
               "the cycle count was adopted, not a full RunResult");
    if (have_golden_)
        return golden_;

    golden_ = gpu_.run(instance_.program, instance_.launch,
                       instance_.image);
    if (!golden_.clean()) {
        fatal("workload '", instance_.workloadName,
              "' traps without any injected fault (",
              trapKindName(golden_.trap), ") — workload bug");
    }
    std::string why;
    if (!verifyOutputs(instance_, golden_.memory, &why)) {
        fatal("workload '", instance_.workloadName,
              "' fails its own golden check fault-free: ", why);
    }
    have_golden_ = true;
    return golden_;
}

Cycle
FaultInjector::goldenCycles()
{
    if (golden_adopted_)
        return golden_.stats.cycles;
    return goldenRun().stats.cycles;
}

void
FaultInjector::adoptGoldenCycles(Cycle cycles)
{
    GPR_ASSERT(cycles > 0, "adopted golden run must have executed");
    golden_ = RunResult{};
    golden_.stats.cycles = cycles;
    have_golden_ = true;
    golden_adopted_ = true;
}

std::shared_ptr<const CheckpointPack>
FaultInjector::buildCheckpointPack(
    unsigned checkpoints, const std::vector<TargetStructure>& structures,
    bool residency)
{
    const Cycle golden = goldenCycles();

    auto pack = std::make_shared<CheckpointPack>();
    pack->goldenCycles = golden;
    pack->residency = residency;
    // tags + packed valid/dirty bitmaps + data, per cache instance
    // (mirrors CacheModel::stateWords()).
    const auto cache_words = [&](std::uint64_t lines) {
        return lines * (1 + config_.cacheLineWords()) +
               2 * ((lines + 31) / 32);
    };
    const std::uint64_t state_words =
        static_cast<std::uint64_t>(config_.numSms) *
            (config_.regFileWordsPerSm + config_.scalarRegWordsPerSm +
             config_.smemWordsPerSm() +
             cache_words(config_.l1dLinesPerSm()) +
             cache_words(config_.l1iLinesPerSm())) +
        cache_words(config_.l2Lines()) + instance_.image.sizeWords();
    pack->hashInterval = chooseHashInterval(golden, state_words);

    // Pass A: observability windows + golden trajectory hashes.  No
    // checkpoint cycles requested (so no state copied) — the placer
    // needs the windows first.
    auto phase_start = PhaseClock::now();
    CheckpointRecorder hash_recorder;
    FaultWindowRecorder window_recorder(config_, structures, residency);
    RunOptions pass_a;
    pass_a.recorder = &hash_recorder;
    pass_a.hashInterval = pack->hashInterval;
    pass_a.observer = &window_recorder;
    const RunResult run_a = gpu_.run(instance_.program, instance_.launch,
                                     instance_.image, pass_a);
    GPR_ASSERT(run_a.clean() && run_a.stats.cycles == golden,
               "recording pass diverged from the golden run — the "
               "simulator is not deterministic");
    pack->hashes = std::move(hash_recorder.hashes);
    pack->timing.recordSeconds = secondsSince(phase_start);

    phase_start = PhaseClock::now();
    window_recorder.finalize(pack->windows);
    pack->timing.finalizeSeconds = secondsSince(phase_start);

    // Place the checkpoint budget.  Cycle 0 leads: its trivial delta
    // serves every fault cycle below the first placed checkpoint.
    phase_start = PhaseClock::now();
    CheckpointRecorder delta_recorder;
    delta_recorder.checkpointCycles = {0};
    const std::vector<Cycle> placed =
        pack->windows.placeCheckpoints(config_, golden, checkpoints);
    delta_recorder.checkpointCycles.insert(
        delta_recorder.checkpointCycles.end(), placed.begin(), placed.end());
    pack->timing.placeSeconds = secondsSince(phase_start);

    // Pass B: cycle-0 baseline + a delta checkpoint per placed cycle.
    phase_start = PhaseClock::now();
    RunOptions pass_b;
    pass_b.recorder = &delta_recorder;
    pass_b.hashInterval = pack->hashInterval;
    const RunResult run_b = gpu_.run(instance_.program, instance_.launch,
                                     instance_.image, pass_b);
    GPR_ASSERT(run_b.clean() && run_b.stats.cycles == golden &&
                   delta_recorder.hashes == pack->hashes,
               "recording pass diverged from the golden run — the "
               "simulator is not deterministic");
    pack->baseline = std::move(delta_recorder.baseline);
    pack->deltas = std::move(delta_recorder.deltas);
    GPR_ASSERT(!pack->deltas.empty() && pack->deltas.front().now == 0,
               "delta recording lost its cycle-0 checkpoint");
    pack->timing.deltaSeconds = secondsSince(phase_start);

    adoptCheckpointPack(pack);
    return pack;
}

void
FaultInjector::adoptCheckpointPack(
    std::shared_ptr<const CheckpointPack> pack)
{
    GPR_ASSERT(pack, "adopting an empty checkpoint pack");
    GPR_ASSERT(pack->goldenCycles == goldenCycles(),
               "checkpoint pack was recorded for a different golden run");
    pack_ = std::move(pack);
    anchored_pack_ = nullptr; // re-anchor lazily on the next inject()
}

void
FaultInjector::ensureAnchored()
{
    if (anchored_pack_ == pack_.get())
        return;
    gpu_.anchorTo(pack_->baseline);
    scratch_ = pack_->baseline.memory;
    scratch_.markCleanForRestore();
    anchored_pack_ = pack_.get();
}

InjectionResult
FaultInjector::inject(const FaultSpec& fault)
{
    const Cycle golden_cycles = goldenCycles();
    const bool persistent = fault.persistent();

    // The dead-window prefilter exists only for *transient* faults, and
    // only where every unit the aligned pattern group touches has exact
    // windows (word storage, cache data words): control bits and cache
    // metadata act on the trajectory without a modelled read.  A cache
    // line is 34 + 32*lineWords bits (2 mod 4), so a double or quad
    // group can straddle the metadata/data boundary or two data words.
    // A persistent fault's word is never dead while the forcing holds
    // (the next read re-manifests it regardless of golden liveness);
    // the value-residency prefilter covers read-overlay storage only.
    ++phase_stats_.injections;
    // A pack recorded without residency would quietly run every
    // persistent fault to completion: refuse the mis-wiring instead.
    GPR_ASSERT(!pack_ || !persistent || pack_->residency,
               "persistent ", faultBehaviorName(fault.behavior),
               " fault in ", targetStructureName(fault.structure),
               " of workload '", instance_.workloadName,
               "' met a checkpoint pack recorded without value "
               "residency (a transient-only pack)");
    Cycle converge_min = 0; // persistent early-out threshold (0 = none)
    const StructureSpec& spec = structureSpec(fault.structure);
    if (pack_ && !persistent &&
        spec.exactWindows != ExactWindows::None) {
        const auto t0 = PhaseClock::now();
        const bool dead = deadAtFault(config_, pack_->windows, fault);
        phase_stats_.prefilterSeconds += secondsSince(t0);
        if (dead) {
            // The golden run never reads any touched unit between the
            // flip and the unit's next overwrite (or the end of the
            // run): the flip can not enter any computation, so the
            // injected run is the golden run — exactly Masked, no
            // simulation needed.
            ++phase_stats_.deadWindowHits;
            InjectionResult result;
            result.fault = fault;
            result.outcome = FaultOutcome::Masked;
            result.shortcut = InjectionShortcut::DeadWindow;
            return result;
        }
    } else if (pack_ && persistent &&
               spec.persistenceHook ==
                   PersistenceHook::StorageReadOverlay) {
        // Value-residency prefilter: the read overlay never mutates the
        // raw word, so the fault reaches computation only through reads
        // whose observed value the forcing *changes*.  agree is the
        // first cycle from which every remaining golden read of the
        // faulted bits observes the forced value (exact for word
        // storage; intermittent faults force the same value whenever
        // active, so agreement over all reads covers every duty cycle).
        const auto t0 = PhaseClock::now();
        const unsigned width = faultPatternWidth(fault.pattern);
        const auto bit_in_word = static_cast<unsigned>(fault.bitIndex % 32);
        const Cycle agree = pack_->windows.stuckAgreeCycle(
            fault.structure, fault.bitIndex / 32,
            bit_in_word - bit_in_word % width, width,
            faultForcedValue(fault));
        phase_stats_.prefilterSeconds += secondsSince(t0);
        if (fault.cycle >= agree) {
            ++phase_stats_.residencyHits;
            InjectionResult result;
            result.fault = fault;
            result.outcome = FaultOutcome::Masked;
            result.shortcut = InjectionShortcut::ValueResidency;
            return result;
        }
        // Not provably benign at the fault cycle, but past `agree` a
        // trajectory-hash match implies golden continuation — arm the
        // early-out when a comparable boundary exists at all.
        if (agree != FaultWindows::kNeverAgrees &&
            agree <= pack_->goldenCycles) {
            converge_min = agree;
        }
    }

    RunOptions options;
    options.fault = fault;
    // Watchdog: anything this much past golden is a hang (DUE).
    options.maxCycles =
        static_cast<Cycle>(static_cast<double>(golden_cycles) *
                           config_.watchdogFactor) +
        1000;

    RunResult run;
    const auto run_start = PhaseClock::now();
    if (pack_) {
        // Hash early-out: unconditional for transient faults; for
        // persistent ones only past the residency threshold, where a
        // match of the canonical (stuck-at) or raw (intermittent) hash
        // provably pins the rest of the run to the golden trajectory.
        // Restoring from the nearest checkpoint is exact either way
        // (the trajectory is golden up to the fault cycle regardless
        // of what the fault does later).
        if (!persistent) {
            options.hashInterval = pack_->hashInterval;
            options.goldenHashes = &pack_->hashes;
        } else if (converge_min > fault.cycle) {
            options.hashInterval = pack_->hashInterval;
            options.goldenHashes = &pack_->hashes;
            options.convergeMinCycle = converge_min;
        }
        // Nearest delta checkpoint at or before the fault cycle
        // (deltas[0].now == 0, so one always exists); everything before
        // it is bit-identical to the golden run, so the anchored
        // restore skips it outright, touching only the pages the
        // previous injection dirtied.
        const auto it = std::upper_bound(
            pack_->deltas.begin(), pack_->deltas.end(), fault.cycle,
            [](Cycle c, const GpuCheckpointDelta& d) {
                return c < d.now;
            });
        GPR_ASSERT(it != pack_->deltas.begin(),
                   "checkpoint pack lacks its cycle-0 delta");
        ensureAnchored();
        options.resume.emplace(
            DeltaResume{pack_->baseline, *std::prev(it), scratch_});
        run = gpu_.run(instance_.program, instance_.launch,
                       MemoryImage{}, options);
    } else {
        run = gpu_.run(instance_.program, instance_.launch,
                       instance_.image, options);
    }
    const double run_seconds = secondsSince(run_start);
    phase_stats_.restoreSeconds += run.restoreSeconds;
    phase_stats_.hashSeconds += run.hashSeconds;
    phase_stats_.replaySeconds += std::max(
        0.0, run_seconds - run.restoreSeconds - run.hashSeconds);

    InjectionResult result;
    result.fault = fault;
    result.trap = run.trap;
    if (run.convergedToGolden) {
        result.shortcut = InjectionShortcut::HashConvergence;
        ++phase_stats_.hashConvergeHits;
        // State rejoined the golden trajectory: the remainder of the run
        // is the golden run's, whose output verified — Masked by
        // construction, no output comparison needed (or possible: the
        // run stopped before producing its outputs).
        result.outcome = FaultOutcome::Masked;
    } else if (!run.clean()) {
        result.outcome = FaultOutcome::Due;
    } else if (verifyOutputs(instance_,
                             pack_ ? scratch_ : run.memory)) {
        result.outcome = FaultOutcome::Masked;
    } else {
        result.outcome = FaultOutcome::Sdc;
    }
    return result;
}

FaultSpec
FaultInjector::sampleRandom(TargetStructure structure, Rng& rng,
                            const FaultShape& shape)
{
    const std::uint64_t bits = gpu_.structureBits(structure);
    GPR_ASSERT(bits > 0, "cannot inject into ",
               targetStructureName(structure), " on ", config_.name);

    FaultSpec fault;
    fault.structure = structure;
    // Draw order is part of the determinism contract: bit then cycle,
    // exactly as the original single-flip model, so default-shape
    // campaigns replay pre-redesign samples bit-for-bit.  Shape-specific
    // draws come strictly after.
    fault.bitIndex = rng.below(bits);
    fault.cycle = rng.below(goldenCycles());
    fault.behavior = shape.behavior;
    fault.pattern = shape.pattern;
    if (shape.behavior == FaultBehavior::Intermittent) {
        // Seed-derived duty cycle: period 8..64, active 1..period-1
        // (never a permanently-stuck or never-active degenerate), and a
        // per-injection forced value.
        fault.intermittentPeriod = 8 + static_cast<std::uint32_t>(
                                           rng.below(57));
        fault.intermittentActive = 1 + static_cast<std::uint32_t>(
            rng.below(fault.intermittentPeriod - 1));
        fault.intermittentValue = rng.below(2) != 0;
    }
    return fault;
}

InjectionResult
FaultInjector::injectRandom(TargetStructure structure, Rng& rng,
                            const FaultShape& shape)
{
    return inject(sampleRandom(structure, rng, shape));
}

std::size_t
FaultInjector::checkpointIndexFor(Cycle cycle) const
{
    if (!pack_)
        return 0;
    const auto it = std::upper_bound(
        pack_->deltas.begin(), pack_->deltas.end(), cycle,
        [](Cycle c, const GpuCheckpointDelta& d) { return c < d.now; });
    GPR_ASSERT(it != pack_->deltas.begin(),
               "checkpoint pack lacks its cycle-0 delta");
    return static_cast<std::size_t>(it - pack_->deltas.begin()) - 1;
}

} // namespace gpr
