/**
 * @file
 * One streaming multiprocessor (NVIDIA) / compute unit (AMD).
 *
 * Owns the storage structures under study — vector register file, scalar
 * register file (SI), LDS — plus the resident-block table, the warp
 * contexts, the warp scheduler and the functional executor.  Timing is
 * "GPGPU-Sim-lite": in-order issue per warp with a register scoreboard,
 * configurable latencies per functional category, shared-memory bank
 * conflicts and a chip-level global-memory bandwidth pipe.
 */

#ifndef GPR_SIM_SM_CORE_HH
#define GPR_SIM_SM_CORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/gpu_config.hh"
#include "isa/program.hh"
#include "sim/cache.hh"
#include "sim/launch.hh"
#include "sim/memory_image.hh"
#include "sim/observer.hh"
#include "sim/stats.hh"
#include "sim/storage.hh"
#include "sim/trap.hh"
#include "sim/warp.hh"

namespace gpr {

/**
 * One SM's share of a delta checkpoint: page deltas of its three word
 * storages (srf unused on scalar-less architectures) and its two L1
 * caches against the recording run's baseline snapshot.
 */
struct SmStorageDelta
{
    WordStorage::Delta vrf;
    WordStorage::Delta srf;
    WordStorage::Delta lds;
    StorageDelta l1d;
    StorageDelta l1i;

    std::size_t
    bytes() const
    {
        return vrf.bytes() + srf.bytes() + lds.bytes() + l1d.bytes() +
               l1i.bytes();
    }
};

/** Chip-level global-memory bandwidth model (shared by all SMs). */
struct MemPipe
{
    Cycle nextFree = 0;
};

/** Everything one kernel run needs; owned by Gpu, passed down by ref. */
struct RunContext
{
    const GpuConfig* config = nullptr;
    const Program* program = nullptr;
    const LaunchConfig* launch = nullptr;
    MemoryImage* memory = nullptr;
    SimObserver* observer = nullptr;
    SimStats* stats = nullptr;
    /** Chip-shared L2 (owned by Gpu); null when the chip models none. */
    CacheModel* l2 = nullptr;
    MemPipe memPipe;

    // Launch-derived constants (filled by Gpu::run).
    std::uint32_t warpsPerBlock = 0;
    std::uint32_t vrfWordsPerBlock = 0;
    std::uint32_t srfWordsPerBlock = 0;
    std::uint32_t ldsWordsPerBlock = 0;
};

class SmCore
{
  public:
    SmCore(const GpuConfig& config, SmId id);

    SmCore(const SmCore&) = delete;
    SmCore& operator=(const SmCore&) = delete;
    SmCore(SmCore&&) = default;

    /** Wipe all storage and residency state before a new run. */
    void reset();

    /**
     * Try to make block @p block_id resident; allocates registers, scalar
     * registers and LDS.  Returns false if resources do not fit.
     */
    bool tryDispatchBlock(RunContext& ctx, std::uint32_t block_id,
                          Cycle now);

    /**
     * Run one cycle: issue up to issueWidth warp-instructions.
     * @p issued_any is set if at least one instruction issued;
     * @p next_event is lowered to the earliest cycle any stalled warp
     * could issue.  Returns a trap if execution faulted.
     */
    std::optional<TrapKind> stepCycle(RunContext& ctx, Cycle now,
                                      bool& issued_any, Cycle& next_event);

    /** Number of blocks currently resident. */
    std::uint32_t residentBlocks() const { return resident_blocks_; }
    /** Warp slots claimed by resident blocks. */
    std::uint32_t residentWarps() const { return resident_warps_; }

    std::uint32_t allocatedVrfWords() const
    {
        return vrf_.allocatedWords();
    }
    std::uint32_t allocatedSrfWords() const
    {
        return srf_ ? srf_->allocatedWords() : 0;
    }
    std::uint32_t allocatedLdsWords() const
    {
        return lds_.allocatedWords();
    }

    /**
     * XOR-flip a group of bits of @p structure on this SM: mask bit k
     * set means SM-local fault-space bit @p first_bit + k flips (see
     * the structure registry for per-structure bit geometry).  This is
     * the single place where registry ids bind to physical simulator
     * state.  Flips into dead cells (unallocated storage, unused warp
     * slots, empty stack entries) are architecturally inert by design.
     */
    void applyFault(TargetStructure structure, BitIndex first_bit,
                    std::uint64_t mask);

    /**
     * One persistent (stuck-at / intermittent) fault bound to this SM:
     * the bits selected by @p mask at @p firstBit are forced to
     * @p value whenever the fault is active.  How the forcing reaches
     * the state is the structure's registry-declared PersistenceHook.
     */
    struct PersistentFault
    {
        TargetStructure structure = TargetStructure::VectorRegisterFile;
        BitIndex firstBit = 0;       ///< SM-local, pattern-aligned
        std::uint64_t mask = 1;      ///< bit k = local bit firstBit + k
        bool value = false;          ///< forced value while active
        /** True for stuck-at faults (active every cycle once applied);
         *  false for intermittent ones.  An always-active storage
         *  overlay arms canonical hashing (WordStorage hashes the
         *  overlaid value), enabling the persistent hash early-out. */
        bool alwaysActive = true;
    };

    /**
     * Bind @p fault to this SM (at most one per run).  The binding is
     * run-loop state, not part of snapshots: checkpoints are recorded
     * on fault-free runs and Gpu::run re-binds after a restore once the
     * fault cycle arrives.  Cleared by reset()/restore().
     */
    void bindPersistentFault(const PersistentFault& fault);

    /**
     * Assert the bound fault for the cycle about to step: enable or
     * disable the storage read overlay, or re-force control bits when
     * @p active.  Idempotent, so the run loop may tick it on any
     * super-sequence of the simulated cycles without changing behavior.
     * No-op when no fault is bound.
     */
    void persistentFaultTick(bool active);

    /** Drop the bound fault and its storage overlay (if any). */
    void clearPersistentFault();

    /**
     * Write this SM's dirty L1d lines back (into the L2 when present,
     * else memory) at clean kernel completion, so the image the
     * workload checks reflects all cached stores.  A trap here is the
     * delayed detection of a fault-corrupted tag.  No-op without an L1d.
     */
    std::optional<TrapKind> flushL1d(RunContext& ctx, Cycle now);

    // --- Checkpoint support ----------------------------------------------
    struct Snapshot; ///< full mid-run state of one SM (defined below)

    /** Deep copy of all mutable SM state (storage, blocks, warps,
     *  scheduler).  Paired with restore() for checkpoint-resume runs. */
    Snapshot snapshot() const;

    /** Overwrite all mutable state from @p s (taken on a same-config
     *  SmCore); after this the SM continues exactly where @p s was. */
    void restore(const Snapshot& s);

    /**
     * Fold this SM's trajectory-determining state into @p h.  Hashed:
     * all three storages (contents + free lists), every *active* block
     * context, every *used* warp slot (with its age), the residency
     * bitmaps/counters, and the scheduler cursors.  Deliberately NOT
     * hashed: the contents of inactive block slots and unused warp
     * slots — dispatch fully reinitialises them before reuse, so their
     * stale bytes can never influence future execution and would only
     * produce false "diverged" verdicts.
     */
    void hashInto(StateHash& h) const;

    // --- Delta/CoW checkpoint support ------------------------------------
    // The checkpoint engine v2 splits SM state along the cheap/expensive
    // axis: control state (blocks, warps, scheduler — kilobytes) is
    // copied in full per checkpoint, while the storages (megabytes) are
    // baseline-anchored and move as page deltas.

    struct ControlState; ///< all non-storage mutable state (defined below)

    /** Deep copy of the control half only (storages excluded). */
    ControlState captureControl() const;

    /** Overwrite the control half from @p c; drops any bound persistent
     *  fault (restores land on fault-free recorded state). */
    void restoreControl(const ControlState& c);

    /** Declare the current storage contents the revert/capture baseline
     *  (see WordStorage::markCleanForRestore). */
    void markStoragesClean();

    /** Revert all storages to @p baseline by copying back only the pages
     *  written since markStoragesClean(); also drops any stuck-bit
     *  overlays (see WordStorage::revertTo). */
    void revertStorages(const Snapshot& baseline);

    /** Encode the storage pages differing from @p baseline into @p out. */
    void captureStorageDelta(const Snapshot& baseline,
                             SmStorageDelta& out) const;

    /** Apply @p delta on top of the baseline the SM currently matches. */
    void applyStorageDelta(const SmStorageDelta& delta);

  private:
    struct BlockContext
    {
        bool active = false;
        std::uint32_t blockId = 0;
        std::uint32_t bx = 0;
        std::uint32_t by = 0;
        std::uint32_t vrfBase = 0;
        std::uint32_t srfBase = 0;
        std::uint32_t ldsBase = 0;
        std::vector<std::uint32_t> warpSlots;
        std::uint32_t liveWarps = 0;
        std::uint32_t barrierArrived = 0;
    };

    // --- Fault plumbing ----------------------------------------------------
    /** How mutateBit changes the addressed bit. */
    enum class BitMutation : std::uint8_t { Flip, Force0, Force1 };

    /** The per-bit core behind applyFault and persistentFaultTick:
     *  flip or force one SM-local fault-space bit of @p structure. */
    void mutateBit(TargetStructure structure, BitIndex bit,
                   BitMutation mut);

    /** The WordStorage instance backing a word-storage structure. */
    WordStorage& storageFor(TargetStructure structure);

    // --- Issue & execution -----------------------------------------------
    /** Can warp @p w issue at @p now?  If not, raises @p stall_until. */
    bool canIssue(const RunContext& ctx, const WarpContext& w, Cycle now,
                  Cycle& stall_until) const;

    /** Scan step for @p slot: true if its warp can issue at @p now, else
     *  lowers @p next_event to the slot's wait (memoising canIssue's). */
    bool slotCanIssue(const RunContext& ctx, std::uint32_t slot, Cycle now,
                      Cycle& next_event);

    /** Re-derive @p slot's issue wait from its warp (0 if it holds a
     *  Ready warp, else never) and wake the SM.  Every change to a warp
     *  other than its own issue calls this. */
    void refreshSlot(std::uint32_t slot);
    /** refreshSlot over every slot (after a wholesale state change). */
    void refreshAllSlots();

#ifndef NDEBUG
    /** The wait a fresh canIssue gives @p slot at @p now: never for a
     *  slot without a Ready warp, @p now if the warp can issue. */
    Cycle probeWait(const RunContext& ctx, std::uint32_t slot,
                    Cycle now) const;
    /** Check that a wake-cycle skip agrees with a fresh scan. */
    void auditSkippedScan(const RunContext& ctx, Cycle now) const;
#endif

    std::optional<TrapKind> executeInstruction(RunContext& ctx,
                                               WarpContext& w, Cycle now);

    // Operand access.
    Word readUniformOperand(RunContext& ctx, const WarpContext& w,
                            const Operand& op, Cycle now);
    Word readLaneOperand(RunContext& ctx, const WarpContext& w,
                         const Operand& op, unsigned lane, Cycle now,
                         Word uniform_value);
    void writeVReg(RunContext& ctx, const WarpContext& w, RegIndex r,
                   unsigned lane, Word value, Cycle now);
    Word readSpecial(const RunContext& ctx, const WarpContext& w,
                     SpecialReg sr, unsigned lane) const;

    std::uint32_t vrfIndex(const WarpContext& w, RegIndex r,
                           unsigned lane) const;
    std::uint32_t srfIndex(const WarpContext& w, RegIndex r) const;

    // Registry-unit indices of a warp's control state (SM-relative).
    std::uint32_t warpSlotOf(const WarpContext& w) const;
    std::uint32_t predUnit(const WarpContext& w, unsigned preg) const;
    std::uint32_t simtUnit(const WarpContext& w, unsigned unit) const;

    // Control-flow helpers.
    void popToNextPath(RunContext& ctx, WarpContext& w, Cycle now,
                       bool& underflow);
    void pushReconv(RunContext& ctx, WarpContext& w,
                    const ReconvEntry& entry, Cycle now);
    void finishWarp(RunContext& ctx, WarpContext& w, Cycle now);
    void releaseBarrierIfReady(RunContext& ctx, BlockContext& block,
                               Cycle now);
    void completeBlock(RunContext& ctx, BlockContext& block, Cycle now);

    // Scheduling.
    std::int32_t pickWarpRoundRobin(const RunContext& ctx, Cycle now,
                                    Cycle& next_event);
    std::int32_t pickWarpGto(const RunContext& ctx, Cycle now,
                             Cycle& next_event);

    const GpuConfig& config_;
    SmId id_;

    WordStorage vrf_;
    std::optional<WordStorage> srf_; ///< SI only
    WordStorage lds_;                ///< word-granular LDS
    std::optional<CacheModel> l1d_;  ///< absent when l1dBytesPerSm == 0
    std::optional<CacheModel> l1i_;  ///< absent when l1iBytesPerSm == 0

    std::vector<BlockContext> blocks_;   ///< maxBlocksPerSm slots
    std::vector<WarpContext> warps_;     ///< maxWarpsPerSm slots
    std::vector<bool> warp_slot_used_;
    std::vector<std::uint64_t> warp_age_; ///< dispatch sequence, for GTO

    std::uint32_t resident_blocks_ = 0;
    std::uint32_t resident_warps_ = 0;
    std::uint64_t dispatch_seq_ = 0;

    // Scheduler state.
    std::uint32_t rr_cursor_ = 0;
    std::int32_t gto_last_ = -1;

    // Event-driven issue.  Scheduler bookkeeping derived from the warp
    // contexts, not architectural state: it is never snapshotted,
    // hashed or counted, and every path that changes a warp other than
    // through its own issue re-derives it (refreshSlot).
    /** Per warp slot, no issue before this cycle: never for a slot
     *  without a Ready warp, the stall cycle canIssue last reported for
     *  a stalled warp, else 0 (ask canIssue). */
    std::vector<Cycle> issue_wait_;
    /** No warp of this SM can issue before this cycle: the minimum of
     *  issue_wait_ when the last scan issued nothing (0 = scan). */
    Cycle wake_cycle_ = 0;
    /** Per-bank distinct-word counts of one shared-memory access
     *  (all zero between accesses). */
    std::vector<std::uint32_t> bank_hits_;

    // Bound persistent fault (run-loop state; never checkpointed).
    std::optional<PersistentFault> pfault_;
};

/**
 * One SM's complete mid-run state, deep-copied.  Mirrors every mutable
 * member of SmCore; restore() asserts the shape matches the config the
 * snapshot was taken under.  Opaque to everything outside the sim layer
 * (GpuCheckpoint just carries a vector of these).
 */
struct SmCore::Snapshot
{
    WordStorage vrf;
    std::optional<WordStorage> srf;
    WordStorage lds;
    std::optional<CacheModel> l1d;
    std::optional<CacheModel> l1i;
    std::vector<BlockContext> blocks;
    std::vector<WarpContext> warps;
    std::vector<bool> warpSlotUsed;
    std::vector<std::uint64_t> warpAge;
    std::uint32_t residentBlocks = 0;
    std::uint32_t residentWarps = 0;
    std::uint64_t dispatchSeq = 0;
    std::uint32_t rrCursor = 0;
    std::int32_t gtoLast = -1;

    /** Resident footprint (pack accounting). */
    std::size_t
    bytes() const
    {
        std::size_t b = sizeof(*this) + vrf.bytes() +
                        (srf ? srf->bytes() : 0) + lds.bytes() +
                        (l1d ? l1d->bytes() : 0) +
                        (l1i ? l1i->bytes() : 0) +
                        warpSlotUsed.size() / 8 +
                        warpAge.size() * sizeof(std::uint64_t);
        for (const BlockContext& blk : blocks)
            b += sizeof(blk) + blk.warpSlots.size() * sizeof(std::uint32_t);
        for (const WarpContext& w : warps) {
            b += sizeof(w) + w.stack.capacity() * sizeof(ReconvEntry) +
                 (w.vregReady.size() + w.sregReady.size()) * sizeof(Cycle);
        }
        return b;
    }
};

/**
 * The non-storage half of a Snapshot: block/warp contexts, residency
 * bookkeeping and scheduler cursors.  Small enough (a few KiB) that
 * delta checkpoints copy it whole instead of diffing it.
 */
struct SmCore::ControlState
{
    std::vector<BlockContext> blocks;
    std::vector<WarpContext> warps;
    std::vector<bool> warpSlotUsed;
    std::vector<std::uint64_t> warpAge;
    std::uint32_t residentBlocks = 0;
    std::uint32_t residentWarps = 0;
    std::uint64_t dispatchSeq = 0;
    std::uint32_t rrCursor = 0;
    std::int32_t gtoLast = -1;

    std::size_t
    bytes() const
    {
        std::size_t b = sizeof(*this) +
                        warpSlotUsed.size() / 8 +
                        warpAge.size() * sizeof(std::uint64_t);
        for (const BlockContext& blk : blocks)
            b += sizeof(blk) + blk.warpSlots.size() * sizeof(std::uint32_t);
        for (const WarpContext& w : warps) {
            b += sizeof(w) + w.stack.capacity() * sizeof(ReconvEntry) +
                 (w.vregReady.size() + w.sregReady.size()) * sizeof(Cycle);
        }
        return b;
    }
};

} // namespace gpr

#endif // GPR_SIM_SM_CORE_HH
