/**
 * @file
 * Single-fault injection runs and outcome classification — the per-run
 * engine underneath statistical campaigns (the GUFI/SIFI injection core).
 */

#ifndef GPR_RELIABILITY_FAULT_INJECTOR_HH
#define GPR_RELIABILITY_FAULT_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "reliability/fault_windows.hh"
#include "reliability/outcome.hh"
#include "sim/gpu.hh"
#include "workloads/workload.hh"

namespace gpr {

/** How the checkpoint engine classified an injection Masked without
 *  simulating to completion.  Engine metadata only: the outcome is
 *  identical to a full from-scratch simulation either way. */
enum class InjectionShortcut : std::uint8_t
{
    None,            ///< simulated to trap/completion (or legacy engine)
    DeadWindow,      ///< outside every observability window: no simulation
    HashConvergence, ///< post-fault state hash rejoined the golden run
    /** Persistent prefilter: every golden read of the stuck word at or
     *  after the fault cycle already observes the forced value, so the
     *  forcing never changes a value entering computation — exactly
     *  Masked with zero simulation (see FaultWindows::stuckAgreeCycle). */
    ValueResidency,
};

/** Result of one injection. */
struct InjectionResult
{
    FaultSpec fault;
    FaultOutcome outcome = FaultOutcome::Masked;
    TrapKind trap = TrapKind::None;
    InjectionShortcut shortcut = InjectionShortcut::None;

    /** Classified Masked without a full simulation. */
    bool
    converged() const
    {
        return shortcut != InjectionShortcut::None;
    }
};

/** Wall-clock split of one buildCheckpointPack() call (diagnostics
 *  only; summed per study into StudyProgress::packTiming). */
struct PackBuildTiming
{
    double recordSeconds = 0.0;   ///< pass A: windows, residency, hashes
    double finalizeSeconds = 0.0; ///< windows flattened into CSR
    double placeSeconds = 0.0;    ///< checkpoint placement
    double deltaSeconds = 0.0;    ///< pass B: baseline + delta checkpoints

    double
    totalSeconds() const
    {
        return recordSeconds + finalizeSeconds + placeSeconds +
               deltaSeconds;
    }

    void
    operator+=(const PackBuildTiming& o)
    {
        recordSeconds += o.recordSeconds;
        finalizeSeconds += o.finalizeSeconds;
        placeSeconds += o.placeSeconds;
        deltaSeconds += o.deltaSeconds;
    }
};

/**
 * One golden run's checkpoint pack (v2, delta-encoded): a single full
 * baseline at cycle 0 plus per-checkpoint dirty page sets against it,
 * the golden trajectory's state hash at every hashInterval boundary,
 * and the exact observability windows.  Built once per (workload, GPU,
 * workloadSeed) cell and shared (read-only) by every injector of that
 * cell.  An injection consults the observability windows first (a fault
 * outside every window is exactly Masked with zero simulation), then
 * delta-restores the nearest checkpoint at or before its fault cycle
 * and early-outs as soon as its post-fault state hash rejoins the
 * golden trajectory.
 */
struct CheckpointPack
{
    Cycle goldenCycles = 0;
    Cycle hashInterval = 0;
    /** Golden state hash at cycle k*hashInterval, k = 1, 2, ... */
    std::vector<std::uint64_t> hashes;
    /** The full cycle-0 state every delta is encoded against. */
    GpuCheckpoint baseline;
    /** Delta checkpoints ascending by .now, starting with the trivial
     *  cycle-0 one (so every fault cycle has a checkpoint below it). */
    std::vector<GpuCheckpointDelta> deltas;
    /** Exact per-word observability windows of the golden run. */
    FaultWindows windows;
    /** The windows carry value residency, i.e. the pack serves
     *  persistent (stuck-at / intermittent) faults. */
    bool residency = true;
    /** Where this pack's recording time went. */
    PackBuildTiming timing;

    /** Resident bytes of the checkpoint state (baseline + deltas). */
    std::size_t
    approxBytes() const
    {
        std::size_t b = baseline.bytes();
        for (const GpuCheckpointDelta& d : deltas)
            b += d.bytes();
        return b;
    }

    /** What the same checkpoint cycles would cost as full snapshots
     *  (the v1 encoding): one baseline-sized copy per non-trivial
     *  checkpoint.  The approxBytes()/fullEquivalentBytes() ratio is
     *  the pack's compression factor. */
    std::size_t
    fullEquivalentBytes() const
    {
        std::size_t n = 0;
        for (const GpuCheckpointDelta& d : deltas)
            n += d.now > 0 ? 1 : 0;
        return baseline.bytes() * std::max<std::size_t>(n, 1);
    }
};

/** Wall-clock breakdown of where injection time goes, accumulated per
 *  injector across inject() calls (the bench's per-phase table). */
struct InjectionPhaseStats
{
    std::uint64_t injections = 0;
    /** Zero-simulation classifications: transient dead-window hits and
     *  persistent value-residency hits (split for the bench's
     *  per-behavior hit-rate table). */
    std::uint64_t deadWindowHits = 0;
    std::uint64_t residencyHits = 0;
    /** Runs ended early by a golden-hash match (any behavior). */
    std::uint64_t hashConvergeHits = 0;
    double prefilterSeconds = 0.0; ///< dead-window + residency queries
    double restoreSeconds = 0.0;   ///< delta checkpoint restore
    double hashSeconds = 0.0;      ///< trajectory hashing in injected runs
    double replaySeconds = 0.0;    ///< simulation proper (run - the above)

    void
    operator+=(const InjectionPhaseStats& o)
    {
        injections += o.injections;
        deadWindowHits += o.deadWindowHits;
        residencyHits += o.residencyHits;
        hashConvergeHits += o.hashConvergeHits;
        prefilterSeconds += o.prefilterSeconds;
        restoreSeconds += o.restoreSeconds;
        hashSeconds += o.hashSeconds;
        replaySeconds += o.replaySeconds;
    }
};

/**
 * Runs golden + injected executions of one workload instance on one GPU.
 * Reusable across many injections (keeps its simulator instance warm);
 * each worker thread of a campaign owns one FaultInjector.
 */
class FaultInjector
{
  public:
    /**
     * @p config must outlive the injector; @p instance is the built
     * workload (shared, read-only).
     */
    FaultInjector(const GpuConfig& config,
                  const WorkloadInstance& instance);

    /**
     * Run the fault-free reference execution.  Throws FatalError if the
     * workload does not verify fault-free (a workload bug, not a DUE).
     */
    const RunResult& goldenRun();

    /** Golden cycle count (runs the golden execution if needed). */
    Cycle goldenCycles();

    /**
     * Adopt the golden cycle count of a previously *validated* fault-free
     * run of the same instance (e.g. the cell's ACE-instrumented pass),
     * so this injector skips its own reference simulation.  Injection
     * outcomes only consume the golden run through its cycle count — the
     * output comparison is against the instance's host-computed goldens —
     * so adopted and self-run injectors classify identically.  After
     * adoption goldenRun() is unavailable (there is no full RunResult to
     * return); goldenCycles() and inject*() keep working.
     */
    void adoptGoldenCycles(Cycle cycles);

    /**
     * Record a checkpoint pack in two golden passes and arm this
     * injector with it.  Pass A records the observability windows and
     * the per-interval trajectory hashes; the @p checkpoints budget is
     * then placed where pass A's windows concentrate the surviving
     * faults (FaultWindows::placeCheckpoints); pass B captures the
     * cycle-0 baseline plus a delta checkpoint at cycle 0 and at each
     * placed cycle, and must reproduce pass A's hashes exactly.
     * Requires the golden cycle count (runs or adopts it first).
     * Returns the pack so sibling injectors of the same cell can adopt
     * it instead of re-recording.  @p checkpoints == 0 yields a
     * baseline-only pack (anchored restarts from cycle 0, hash
     * early-out, no mid-run skipping).  @p structures is the cell's
     * target list: word-storage windows are always recorded, cache
     * data windows only for the caches it names (every cache when
     * empty), so a pack costs and places only for what it serves.
     * Likewise @p residency records the value-residency tables only a
     * persistent fault queries; a pack built without them must serve
     * transient faults alone (inject() asserts so).  Windows, hashes
     * and checkpoint cycles do not depend on it.
     */
    std::shared_ptr<const CheckpointPack> buildCheckpointPack(
        unsigned checkpoints,
        const std::vector<TargetStructure>& structures = {},
        bool residency = true);

    /**
     * Share a pack recorded by another injector of the same
     * (config, instance, workloadSeed) cell.
     */
    void adoptCheckpointPack(std::shared_ptr<const CheckpointPack> pack);

    /** The armed pack, if any. */
    const std::shared_ptr<const CheckpointPack>&
    checkpointPack() const
    {
        return pack_;
    }

    /**
     * Inject @p fault and classify the outcome.  With a checkpoint pack
     * armed, the run restores the nearest checkpoint <= fault.cycle and
     * early-outs on state convergence; the classification is identical
     * to the from-scratch path either way (outcomes depend only on
     * trap + final memory, and a state-hash match pins both to the
     * golden run's).  Persistent behaviors (stuck-at / intermittent)
     * get persistence-sound equivalents on word-granular storage: the
     * value-residency prefilter classifies a fault whose forced value
     * agrees with every remaining golden read as Masked with zero
     * simulation, and past the residency agree-from cycle the run
     * compares its (canonical for stuck-at, raw for intermittent)
     * trajectory hash against golden and early-outs on a match.
     * Transient cache faults get the dead-window prefilter when every
     * bit of their group is a data bit; persistent cache faults and
     * control-bit structures keep the restore but run to completion.
     */
    InjectionResult inject(const FaultSpec& fault);

    /**
     * Sample the fault injectRandom() would inject, without running it:
     * a uniformly random (bit, cycle) in @p structure stamped with
     * @p shape.  The draw order (bit, then cycle, then any
     * shape-specific parameters) is pinned: default-shape sampling is
     * bit-identical to the original single-flip model, and intermittent
     * duty-cycle parameters are derived from the same per-injection
     * stream deterministically.  Splitting sampling from injection lets
     * campaign workers pre-draw a batch and execute it grouped by
     * checkpoint interval (outcomes are a pure function of the fault,
     * so execution order is free).
     */
    FaultSpec sampleRandom(TargetStructure structure, Rng& rng,
                           const FaultShape& shape = {});

    /** inject(sampleRandom(structure, rng, shape)). */
    InjectionResult injectRandom(TargetStructure structure, Rng& rng,
                                 const FaultShape& shape = {});

    /** Index of the armed pack's delta checkpoint that serves a fault
     *  at @p cycle (0 without a pack — everything replays from cycle
     *  0).  Shared-restore batching sorts same-cell persistent
     *  injections by this key so consecutive runs reuse the same
     *  restore point. */
    std::size_t checkpointIndexFor(Cycle cycle) const;

    /** The device (for structure sizes). */
    const Gpu& gpu() const { return gpu_; }

    /** Accumulated per-phase wall-clock of all inject() calls. */
    const InjectionPhaseStats& phaseStats() const { return phase_stats_; }
    void resetPhaseStats() { phase_stats_ = InjectionPhaseStats{}; }

  private:
    /** Anchor the device and the scratch image to the armed pack's
     *  baseline (no-op when already anchored to it). */
    void ensureAnchored();

    const GpuConfig& config_;
    const WorkloadInstance& instance_;
    Gpu gpu_;
    RunResult golden_;
    bool have_golden_ = false;
    bool golden_adopted_ = false;
    std::shared_ptr<const CheckpointPack> pack_;
    /** Injector-owned run image for delta resumes: reverted + patched
     *  in place each injection instead of copied. */
    MemoryImage scratch_;
    /** Pack scratch_/gpu_ are currently anchored to (see anchorTo). */
    const CheckpointPack* anchored_pack_ = nullptr;
    InjectionPhaseStats phase_stats_;
};

/** Default checkpoint budget per golden run (the `--checkpoints` CLI
 *  default); 0 selects the legacy from-scratch engine.  Delta encoding
 *  makes a checkpoint cost a fraction of a full snapshot, so the v2
 *  default is twice the full-snapshot era's 8: the extra checkpoints
 *  buy shorter fast-forward replay for a sub-linear memory increase. */
constexpr unsigned kDefaultCheckpoints = 16;

} // namespace gpr

#endif // GPR_RELIABILITY_FAULT_INJECTOR_HH
