/**
 * @file
 * Exact golden-run observability windows — the zero-simulation half of
 * the checkpoint-restore injection engine.
 *
 * A single-bit flip only enters computation through a *read* of its
 * word: every other event (writes overwrite the whole word,
 * alloc/free/dispatch move metadata) leaves the injected trajectory
 * bit-identical to the golden run.  So a flip applied at the start of
 * cycle C in word W changes the outcome only if the golden run reads W
 * at some cycle r >= C whose defining write precedes C — i.e. only if
 * C lies inside one of W's live intervals [w, r] (w = last write
 * strictly before the read, with w advanced past a write's own cycle
 * since the flip lands at cycle *start* and the write lands mid-cycle).
 *
 * Recording one merged, disjoint interval list per word during the
 * golden pass therefore yields an exact O(log k) pre-classification:
 * outside every window the fault is Masked with *no* simulation at all.
 * Unlike ACE lifetime accounting this is not conservative-by-design —
 * allocation does NOT close a window (a later block that read a word
 * before writing it would observe the stale flipped value, so such
 * reads extend windows across alloc boundaries) — which is what keeps
 * the classification bit-identical to a from-scratch injected run.
 *
 * The read-only-entry argument above holds only for units a value
 * enters computation from through a modelled read.  Control-bit
 * structures (predicate file, SIMT stack) become architecturally
 * visible without any — a flipped PC acts at the next issue — and so
 * do a cache line's tag/valid/dirty bits, which steer hit/miss and
 * writeback by comparison.  Exactness is therefore per unit class
 * (StructureSpec::exactWindows): every word of word storage, and the
 * data words of a cache line.  observed() stays conservatively true
 * for every other unit and the injector skips the prefilter for a
 * fault group touching any of them.
 *
 * Cache data words follow the same argument (Biswas et al., "Computing
 * Architectural Vulnerability Factors for Address-Based Structures",
 * ISCA 2005): a hit or a writeback reads a word, a store writes it, and
 * a refill overwrites every data word of its line.  So for CacheArray
 * rows onAlloc (a refill) IS a write of the line's data units, while
 * for word storage it is not (allocation leaves stale contents a later
 * read may observe).  A silent in-place patch (CacheModel::
 * updateIfPresent) emits no event, which only leaves a window open —
 * conservative.  The chip-scoped L2 is recorded as one instance.
 * Cache data is recorded only for the cache rows a pack's cell injects
 * (see the recorder's structure list); unrecorded rows stay
 * conservative.
 *
 * Value residency (persistent-fault prefilter).  The same read-only-
 * entry argument extends to stuck-at faults: a read-overlay fault never
 * mutates the raw word, so a stuck-at-v fault in a bit is provably
 * Masked iff every golden read of its word at or after the fault cycle
 * already observes the bit equal to v — the forced value then never
 * changes any value entering computation.  The threshold for a
 * (bit group, value) is one past the last golden read that *disagrees*
 * in some faulted bit, and reads of a word arrive in cycle order, so a
 * word needs only its read history compressed to *value runs*: a run of
 * consecutive reads observing one value keeps only its last cycle, and
 * a run whose every bit value some later run repeats is dropped (that
 * later run disagrees wherever it would, and later) — at most 33 runs
 * per word, usually one to three.  stuckAgreeCycle() returns the first
 * injection cycle from which the fault is provably benign, exact by
 * construction for word-granular storage and conservative
 * (kNeverAgrees) everywhere else.  The same threshold is sound for
 * intermittent faults queried with their forced value: inactive phases
 * read the raw (golden) word, so agreement over all reads is
 * sufficient (if slightly conservative).  Residency is
 * recorded only for StorageReadOverlay rows: cache persistence
 * (CycleReassert) mutates the raw word, so the argument does not carry
 * over and stuckAgreeCycle() stays kNeverAgrees for caches.  It is also
 * recorded only when the recording pack serves persistent faults: a
 * transient-only pack never queries it and skips its cost — see
 * FaultWindowRecorder.
 */

#ifndef GPR_RELIABILITY_FAULT_WINDOWS_HH
#define GPR_RELIABILITY_FAULT_WINDOWS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/gpu_config.hh"
#include "sim/observer.hh"
#include "sim/structure_registry.hh"

namespace gpr {

/**
 * Per-structure observability windows, finalised into CSR layout
 * (offsets into one flat interval array) for compact sharing inside a
 * CheckpointPack.
 */
class FaultWindows
{
  public:
    struct Interval
    {
        Cycle begin = 0; ///< first start-of-cycle the flip is observable
        Cycle end = 0;   ///< last such cycle (inclusive)
    };

    /** True when windows were recorded for @p structure (and not
     *  discarded by the per-structure interval-count safety cap). */
    bool
    enabled(TargetStructure structure) const
    {
        return forStructure(structure).enabled;
    }

    /**
     * Would a flip applied at the start of @p cycle in chip-global
     * exact unit @p word of @p structure (see exactWindowUnit) ever be
     * read before being overwritten?  False means the flip is exactly
     * Masked.  Conservative on a disabled/unknown structure or unit
     * (returns true).
     */
    bool observed(TargetStructure structure, std::uint64_t word,
                  Cycle cycle) const;

    /** stuckAgreeCycle() result meaning "never provably benign". */
    static constexpr Cycle kNeverAgrees = ~Cycle{0};

    /**
     * First cycle C such that an always-forced stuck-at-@p value fault
     * in bits [@p firstBit, @p firstBit + @p width) of chip-global
     * @p word of @p structure, injected at any cycle >= C, is provably
     * Masked: every golden read of the word at or after C observes all
     * the faulted bits equal to @p value.  0 means the word is never
     * read (always benign); kNeverAgrees means no such cycle is known
     * (conservative for disabled/unknown structures, exact otherwise).
     * Bits must lie within one 32-bit word (the FaultPattern contract
     * for word storage, the only rows with residency).
     */
    Cycle stuckAgreeCycle(TargetStructure structure, std::uint64_t word,
                          unsigned firstBit, unsigned width,
                          bool value) const;

    /** Total recorded intervals (tests / diagnostics). */
    std::size_t intervalCount() const;

    /** Recorded intervals of @p structure (tests / diagnostics). */
    std::size_t
    intervalCount(TargetStructure structure) const
    {
        return forStructure(structure).intervals.size();
    }

    /**
     * Choose up to @p budget checkpoint cycles in (0, @p goldenCycles)
     * minimising the expected replay distance of a uniformly sampled
     * fault that survives the dead-window prefilter.  The per-cycle
     * weight is the number of fault-space bits whose injection at that
     * cycle requires simulation: for structures with recorded windows,
     * 32 bits per exact unit live inside an observability interval plus
     * the bits without exact windows (cache metadata), uniformly; for
     * everything else (control bits, unrecorded rows — never
     * prefiltered) the full bit count, uniformly.  Solved exactly over
     * a bucketed histogram by dynamic programming, with an implicit
     * free checkpoint at cycle 0.  Returns ascending, deduplicated
     * cycles (possibly fewer than the budget when extra checkpoints
     * cannot reduce the cost).  With no windows recorded the weight is
     * uniform and the result is close to even spacing.
     *
     * Cost: the histogram is built in O(intervals + B) time and O(B)
     * memory (B <= 512 buckets) by exact integer accumulation — end
     * buckets get their overlap, covered buckets a difference-array
     * count — never per cycle, so multi-million-cycle goldens cost the
     * same as short ones.  The DP is O(budget * B^2).  Placement reads
     * only the windows, never the residency tables, so a pack recorded
     * with or without residency places identically.
     */
    std::vector<Cycle> placeCheckpoints(const GpuConfig& config,
                                        Cycle goldenCycles,
                                        unsigned budget) const;

  private:
    friend class FaultWindowRecorder;

    /** residencySlot entry: the word was never read (always benign). */
    static constexpr std::uint32_t kResidencyNeverRead = 0xFFFFFFFFu;
    /** residencySlot entry: residency unknown (word cap overflow). */
    static constexpr std::uint32_t kResidencyUnknown = 0xFFFFFFFEu;
    /** Run stamp: a read too late to represent in 32 bits. */
    static constexpr std::uint32_t kResidencySaturated = 0xFFFFFFFFu;

    /** One value run of a word's golden reads (see the file comment). */
    struct ResidencyRun
    {
        std::uint32_t stamp = 0; ///< last read cycle + 1 (0 = list end)
        Word value = 0;          ///< the value every read of it observed
    };

    struct StructureWindows
    {
        /** Windows were recorded and kept (see enabled()). */
        bool enabled = false;
        std::vector<std::uint64_t> offsets; ///< units+1 entries (CSR)
        std::vector<Interval> intervals;
        /** Per word: index of its first run in residencyRuns, or a
         *  sentinel above. */
        std::vector<std::uint32_t> residencySlot;
        /** Every read word's runs, latest first, each word's list ended
         *  by a stamp-0 entry. */
        std::vector<ResidencyRun> residencyRuns;
    };

    const StructureWindows&
    forStructure(TargetStructure s) const
    {
        return windows_[static_cast<std::size_t>(s)];
    }

    std::array<StructureWindows, kNumTargetStructures> windows_;
};

/**
 * The SimObserver that records windows during one golden pass.  Events
 * arrive in nondecreasing cycle order per unit, so intervals are built
 * and merged in O(1) amortised per access: each unit keeps only its
 * latest interval, appending it to one flat list when a new one opens.
 * finalize() counting-sorts that list by unit into the CSR FaultWindows
 * and frees the working set.
 */
class FaultWindowRecorder : public SimObserver
{
  public:
    /** Default per-structure interval cap (~256 MB of windows). */
    static constexpr std::size_t kMaxIntervals = std::size_t{1} << 24;

    /**
     * Records every AllWords row, plus the CacheData rows named in
     * @p structures (every CacheData row when empty).  @p residency
     * records value residency for StorageReadOverlay rows; pass false
     * when no persistent fault will query it (windows are unaffected,
     * and stuckAgreeCycle() then stays kNeverAgrees).  A structure
     * recording more than @p maxIntervals intervals loses its windows
     * alone — observed() turns conservative for it while every other
     * structure keeps its prefilter.
     */
    explicit FaultWindowRecorder(
        const GpuConfig& config,
        const std::vector<TargetStructure>& structures = {},
        bool residency = true, std::size_t maxIntervals = kMaxIntervals);

    void onRead(TargetStructure structure, SmId sm, std::uint32_t word,
                Word value, Cycle cycle) override;
    void onWrite(TargetStructure structure, SmId sm, std::uint32_t word,
                 Cycle cycle) override;
    /** A cache refill overwrites its line's data units: a write for
     *  CacheData rows, a no-op for word storage (stale contents). */
    void onAlloc(TargetStructure structure, SmId sm, std::uint32_t first,
                 std::uint32_t count, Cycle cycle) override;

    /** Flatten into @p out; the recorder is spent afterwards. */
    void finalize(FaultWindows& out);

  private:
    /** WordState::open.end before the word's first read (a read cycle
     *  is never ~0). */
    static constexpr Cycle kNoInterval = ~Cycle{0};

    /** One tracked word's recording state, kept together so an event
     *  touches one cache line. */
    struct WordState
    {
        Cycle lastWrite = 0; ///< next observable start cycle
        /** The word's latest interval, which later reads may extend. */
        FaultWindows::Interval open{0, kNoInterval};
    };

    /** An interval a later one of the same word superseded. */
    struct ClosedInterval
    {
        std::size_t word;
        FaultWindows::Interval interval;
    };

    static constexpr std::uint32_t kNoRun = 0xFFFFFFFFu;

    /** A ResidencyRun in the recorder's per-word linked lists. */
    struct RunNode
    {
        FaultWindows::ResidencyRun run;
        std::uint32_t prev = kNoRun;
    };

    struct Tracker
    {
        /** False for structures without recorded windows (control
         *  bits, unlisted caches): their events are ignored. */
        bool tracked = false;
        /** Record value residency (StorageReadOverlay rows only). */
        bool residency = false;
        /** CacheData rows: ACE units per line, the first of which is
         *  the metadata unit (never exact); 0 = every unit is exact. */
        std::uint32_t lineUnits = 0;
        std::uint32_t wordsPerSm = 0;
        std::size_t intervals = 0; ///< recorded so far (cap check)
        std::vector<WordState> words;
        /** Closed intervals of every word in closing order, i.e. in
         *  cycle order per word; finalize() sorts them by word. */
        std::vector<ClosedInterval> closed;
        /** Per word: its latest run in `runs` (or a FaultWindows
         *  residencySlot sentinel). */
        std::vector<std::uint32_t> residencySlot;
        /** Value runs, each linked to the word's previous live run. */
        std::vector<RunNode> runs;
        std::vector<std::uint32_t> freeRuns; ///< dropped `runs` entries
    };

    /** Start a new value run for the word whose latest run is @p head
     *  and drop the runs it makes redundant; returns the new head. */
    static std::uint32_t pushRun(Tracker& t, std::uint32_t head,
                                 FaultWindows::ResidencyRun run);

    Tracker& tracker(TargetStructure s)
    {
        return trackers_[static_cast<std::size_t>(s)];
    }

    static bool
    exactUnit(const Tracker& t, std::uint32_t unit)
    {
        return t.lineUnits == 0 || unit % t.lineUnits != 0;
    }

    std::array<Tracker, kNumTargetStructures> trackers_;
    std::size_t max_intervals_;
    std::size_t total_residency_words_ = 0;
};

} // namespace gpr

#endif // GPR_RELIABILITY_FAULT_WINDOWS_HH
