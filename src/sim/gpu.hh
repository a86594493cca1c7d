/**
 * @file
 * The whole-device simulator: block dispatcher, cycle loop, fault
 * application, occupancy integration and watchdog.
 *
 * A Gpu is constructed once per worker thread and reused across runs
 * (run() fully resets architectural state), which keeps fault-injection
 * campaigns cheap.  Runs are bit-deterministic: same (program, launch,
 * image, options) in, same result out, regardless of what ran before.
 */

#ifndef GPR_SIM_GPU_HH
#define GPR_SIM_GPU_HH

#include <memory>
#include <optional>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/hash.hh"
#include "sim/fault_model.hh"
#include "sim/launch.hh"
#include "sim/memory_image.hh"
#include "sim/observer.hh"
#include "sim/sm_core.hh"
#include "sim/stats.hh"
#include "sim/trap.hh"

namespace gpr {

/**
 * The cycle-0 baseline every delta checkpoint is encoded against: the
 * device state (SMs + dispatch) right after the initial block dispatch
 * and the memory image at that point.  Gpu::snapshot() captures the
 * device portion; the recording run adds the image.
 */
struct GpuCheckpoint
{
    // Device state.
    std::vector<SmCore::Snapshot> sms;
    std::optional<CacheModel> l2; ///< chip-shared L2, when modeled
    std::uint32_t nextBlock = 0;
    std::uint32_t dispatchRr = 0;

    MemoryImage memory;

    /** Resident footprint (pack accounting). */
    std::size_t
    bytes() const
    {
        std::size_t b = sizeof(*this) + memory.bytes() +
                        (l2 ? l2->bytes() : 0);
        for (const SmCore::Snapshot& s : sms)
            b += s.bytes();
        return b;
    }
};

/** A run's occupancy integrators (word-cycles / warp-slot-cycles). */
struct OccupancyIntegrals
{
    double vrf = 0.0;
    double srf = 0.0;
    double lds = 0.0;
    double warp = 0.0;
};

/**
 * Complete mid-run device + run-loop state at the start of one cycle,
 * encoded against the cycle-0 GpuCheckpoint baseline: the storages and
 * the memory image are stored as the pages that differ from the
 * baseline, while the (small) control and run-loop state is copied
 * whole.  Resuming from it (RunOptions::resume) reproduces the original
 * run's remaining trajectory bit-for-bit, with one caveat: the
 * occupancy *averages* of a resumed run can differ from an
 * uninterrupted run in the last ulp (the integrators accumulate over
 * differently split intervals) — classification never reads them.
 */
struct GpuCheckpointDelta
{
    Cycle now = 0;

    // Device state.
    std::vector<SmStorageDelta> smStorage;
    std::vector<SmCore::ControlState> smControl;
    StorageDelta l2; ///< L2 pages differing from the baseline's
    std::uint32_t nextBlock = 0;
    std::uint32_t dispatchRr = 0;

    // Run-loop state.
    MemPipe memPipe;
    SimStats stats;
    StorageDelta memory; ///< image pages differing from the baseline's
    OccupancyIntegrals occupancy;
    std::uint64_t lastCompleted = 0;

    /** Resident footprint (pack accounting). */
    std::size_t
    bytes() const
    {
        std::size_t b = sizeof(*this) + memory.bytes() + l2.bytes();
        for (const SmStorageDelta& s : smStorage)
            b += s.bytes();
        for (const SmCore::ControlState& c : smControl)
            b += c.bytes();
        return b;
    }
};

/**
 * Output channel for a golden recording pass.  Gpu::run appends the
 * trajectory's state hash at every hashInterval boundary (cycle
 * k*hashInterval for k = 1, 2, ...; hashes[k-1] is the digest at the
 * *start* of that cycle).  When any checkpoint cycle is requested, it
 * also captures the cycle-0 baseline (after the initial dispatch) and a
 * delta against it at each requested cycle the run reaches; with none
 * requested it records hashes only and copies no state.
 */
struct CheckpointRecorder
{
    /** Cycles to capture a delta at, ascending (input).  Cycle 0 yields
     *  the trivial delta that replays the run from the top. */
    std::vector<Cycle> checkpointCycles;
    /** Cycle-0 baseline every delta is encoded against (output). */
    GpuCheckpoint baseline;
    /** One delta per reached requested cycle (output). */
    std::vector<GpuCheckpointDelta> deltas;
    /** Golden state hashes, one per crossed hash boundary (output). */
    std::vector<std::uint64_t> hashes;
};

/**
 * Where a resumed run starts: @c delta applied on top of @c baseline,
 * in the caller-owned @c image.  The device must be anchored to that
 * exact baseline (Gpu::anchorTo) and @c image's dirty tracking likewise
 * to the baseline's image; then the restore touches only the pages the
 * previous run wrote, instead of copying the whole state.  The run
 * works in @c image in place (RunResult::memory stays empty), so one
 * scratch image serves a campaign's injections without per-run copies.
 */
struct DeltaResume
{
    const GpuCheckpoint& baseline;
    const GpuCheckpointDelta& delta;
    MemoryImage& image;
};

struct RunOptions
{
    /** Hard cycle budget; 0 selects the default cap (50M cycles). */
    Cycle maxCycles = 0;
    /** Optional fault to inject during the run (behavior × pattern ×
     *  target; see sim/fault_model.hh).  A persistent fault may pair
     *  with goldenHashes only when convergeMinCycle carries a
     *  residency-sound threshold past the fault cycle (the injector's
     *  persistent fast path); transient faults need no threshold. */
    std::optional<FaultSpec> fault;
    /** Optional access-trace observer (ACE analysis). */
    SimObserver* observer = nullptr;

    /** Start mid-execution from a delta checkpoint instead of cycle 0
     *  (the passed-in MemoryImage is ignored).  Incompatible with
     *  observer/recorder. */
    std::optional<DeltaResume> resume;
    /** Record golden hashes (and delta checkpoints) along this
     *  fault-free run. */
    CheckpointRecorder* recorder = nullptr;
    /** State-hash boundary spacing in cycles; 0 disables hashing.  Must
     *  be identical between the recording run and any comparing run. */
    Cycle hashInterval = 0;
    /** Golden trajectory hashes to compare against at each boundary
     *  after the fault has been applied; on a match the run ends early
     *  with RunResult::convergedToGolden set. */
    const std::vector<std::uint64_t>* goldenHashes = nullptr;
    /** First cycle at which a goldenHashes match may end the run.  0
     *  (transient faults) compares at every post-fault boundary.  For
     *  persistent faults the injector sets this to the fault's
     *  value-residency agree-from cycle: from there on every golden
     *  read of the stuck word observes the forced value, so a matching
     *  (canonical for stuck-at, raw for intermittent) hash pins the
     *  rest of the run to the golden trajectory. */
    Cycle convergeMinCycle = 0;
};

struct RunResult
{
    TrapKind trap = TrapKind::None;
    SimStats stats;
    MemoryImage memory;
    /** The post-fault state hash matched the golden trajectory: the rest
     *  of the run is bit-identical to the golden run, so the outcome is
     *  Masked without simulating (or verifying) the remainder.  stats
     *  and memory hold the state at the convergence point. */
    bool convergedToGolden = false;

    /** Wall-clock seconds the run spent restoring resume state — the
     *  injection-throughput bench's per-phase breakdown. */
    double restoreSeconds = 0.0;
    /** Wall-clock seconds spent computing trajectory state hashes. */
    double hashSeconds = 0.0;

    bool clean() const { return trap == TrapKind::None; }
};

class Gpu
{
  public:
    explicit Gpu(const GpuConfig& config);

    Gpu(const Gpu&) = delete;
    Gpu& operator=(const Gpu&) = delete;

    const GpuConfig& config() const { return config_; }

    /**
     * Execute @p prog over @p launch against a copy-in @p image.
     * Throws FatalError on configuration errors (kernel cannot launch);
     * abnormal *simulation* outcomes are reported via RunResult::trap.
     */
    RunResult run(const Program& prog, const LaunchConfig& launch,
                  MemoryImage image, const RunOptions& options = {});

    /** Total bits of @p structure across the whole chip. */
    std::uint64_t structureBits(TargetStructure structure) const;

    /**
     * Deep-copy the device portion of the state (all SMs + dispatch)
     * into a checkpoint; its memory image is left empty (the recording
     * run fills it in for the baseline).
     */
    GpuCheckpoint snapshot() const;

    /** Restore the device portion captured by snapshot().  Drops any
     *  delta anchor (the dirty tracking no longer matches it). */
    void restore(const GpuCheckpoint& cp);

    /**
     * Anchor the device to @p baseline for delta resumes: fully restore
     * its device portion, then mark every storage clean so subsequent
     * dirty tracking measures divergence from the baseline.  The caller
     * keeps @p baseline alive and unchanged for as long as runs resume
     * against it (one anchoring serves a whole campaign of injections).
     */
    void anchorTo(const GpuCheckpoint& baseline);

    /** Is the device currently anchored to exactly @p baseline? */
    bool
    anchoredTo(const GpuCheckpoint* baseline) const
    {
        return anchor_ != nullptr && anchor_ == baseline;
    }

    /**
     * Fingerprint of the device portion (SMs + dispatch state) — the
     * round-trip invariant: restore(cp) always reproduces the same
     * deviceStateHash().  The run loop's trajectory hash additionally
     * folds in the memory image, MemPipe and completed-block count; see
     * Gpu::runStateHash in gpu.cc for the full definition.
     */
    std::uint64_t deviceStateHash() const;

  private:
    void applyFault(const FaultSpec& fault);
    void restoreDelta(const GpuCheckpoint& baseline,
                      const GpuCheckpointDelta& d);
    void dispatchBlocks(RunContext& ctx, Cycle now);
    void hashDeviceInto(StateHash& h) const;
    std::uint64_t runStateHash(const RunContext& ctx,
                               const MemoryImage& image,
                               std::uint64_t blocks_completed) const;
    GpuCheckpointDelta captureDelta(const GpuCheckpoint& baseline,
                                    const RunContext& ctx,
                                    const MemoryImage& image, Cycle now,
                                    const OccupancyIntegrals& occupancy,
                                    std::uint64_t last_completed) const;

    const GpuConfig& config_;
    std::vector<std::unique_ptr<SmCore>> sms_;
    std::optional<CacheModel> l2_; ///< absent when l2Bytes == 0

    // Per-run dispatch state.
    std::uint32_t next_block_ = 0;
    std::uint32_t num_blocks_ = 0;
    std::uint32_t dispatch_rr_ = 0;
    /** SM hosting the run's persistent fault, -1 if none (per-run). */
    std::int64_t persistent_sm_ = -1;
    /** Chip-scoped (L2) persistent fault bound to this run; forced via
     *  CacheModel::forceBit each active cycle (per-run state). */
    std::optional<SmCore::PersistentFault> persistent_l2_;
    /** Baseline the device's dirty tracking is anchored to (nullptr =
     *  unanchored; delta resumes assert against it). */
    const GpuCheckpoint* anchor_ = nullptr;
};

} // namespace gpr

#endif // GPR_SIM_GPU_HH
