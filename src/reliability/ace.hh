/**
 * @file
 * ACE (Architecturally Correct Execution) analysis — the fast alternative
 * to fault injection (Mukherjee et al., MICRO 2003), as implemented inside
 * GUFI/SIFI.
 *
 * One instrumented simulation tracks, for every lifetime-accounting unit
 * of every registered structure (32-bit words for storage structures,
 * logical control units — a predicate register, a SIMT stack entry, the
 * PC/mask group — for control-bit structures), the intervals during which
 * a bit flip *could* propagate to the output.  Two accounting modes:
 *
 *  - Standard (offline, what the paper's tools use): a unit is ACE from
 *    each write to the *last* read before the next write / deallocation.
 *  - Conservative: from each write to the next write / deallocation,
 *    provided at least one read consumed the value ("no future knowledge"
 *    — used by the ablation bench to show the accuracy/overhead knob).
 *
 * Both are conservative relative to fault injection: every read is assumed
 * to matter, whole units are counted even when only a few bits are live,
 * and logical masking (tolerance slack, pruned comparisons, saturation) is
 * invisible — which is exactly why the paper finds ACE overestimating the
 * register file AVF while matching FI closely for local memory.
 */

#ifndef GPR_RELIABILITY_ACE_HH
#define GPR_RELIABILITY_ACE_HH

#include <cstdint>
#include <vector>

#include "arch/gpu_config.hh"
#include "sim/observer.hh"
#include "sim/stats.hh"
#include "sim/structure_registry.hh"
#include "workloads/workload.hh"

namespace gpr {

enum class AceMode : std::uint8_t
{
    Standard,     ///< write -> last read
    Conservative, ///< write -> next write (if read at all)
};

/** Per-structure ACE measurement. */
struct AceStructureResult
{
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    /**
     * Sum over units of ACE cycles.  Uniform-unit structures (word
     * storage, predicate file) count one per unit-cycle; structures
     * with nonuniform units (the SIMT stack: a wide PC/mask group next
     * to narrower stack entries) weight each unit by its bit count so
     * the AVF stays a conservative bound on bit-uniform fault
     * injection.  totalUnits uses the matching denominator (units vs.
     * bits), so avf() is comparable either way.
     */
    std::uint64_t aceUnitCycles = 0;
    /** Denominator: lifetime-accounting units, or bits for structures
     *  with nonuniform unit widths (chip-wide). */
    std::uint64_t totalUnits = 0;
    /** Kernel duration in cycles. */
    Cycle cycles = 0;

    double
    avf() const
    {
        const double denom = static_cast<double>(totalUnits) *
                             static_cast<double>(cycles);
        return denom > 0 ? static_cast<double>(aceUnitCycles) / denom : 0.0;
    }
};

/** Full ACE analysis output for one (GPU, workload) pair. */
struct AceResult
{
    /** One entry per registered structure, in registry order. */
    std::vector<AceStructureResult> structures;
    SimStats goldenStats;
    double wallSeconds = 0.0;

    /** Lookup by id; throws FatalError on an unregistered structure. */
    const AceStructureResult& forStructure(TargetStructure s) const;
};

/**
 * Traffic summary of one structure over one kernel run — the "resource
 * occupancy / usage" analysis axis from Section I of the paper.  High
 * concentration (a histogram's hot bins, a reduction's low tree slots)
 * explains why AVF is not simply proportional to occupancy.
 */
struct AccessSummary
{
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    std::uint64_t totalWords = 0;    ///< structure size in units (chip-wide)
    std::uint64_t touchedWords = 0;  ///< units with >= 1 access
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    /** Fraction of all accesses landing in the busiest 10 % of touched
     *  units (0.1 = perfectly even, 1.0 = fully concentrated). */
    double top10Share = 0.0;

    double
    touchedFraction() const
    {
        return totalWords ? static_cast<double>(touchedWords) /
                                static_cast<double>(totalWords)
                          : 0.0;
    }
    double
    readsPerWrite() const
    {
        return writes ? static_cast<double>(reads) /
                            static_cast<double>(writes)
                      : 0.0;
    }
};

/** Traffic summaries of one run, one per registered structure (registry
 *  order). */
struct AccessProfileResult
{
    std::vector<AccessSummary> structures;

    /** Lookup by id; throws FatalError on an unregistered structure. */
    const AccessSummary& forStructure(TargetStructure s) const;
};

/**
 * The SimObserver that performs lifetime accounting.  Exposed so tests
 * can drive it directly with synthetic event streams.  The same fold
 * also tallies read/write traffic per unit, which accessSummary() turns
 * into the access profile on request.
 */
class AceAnalyzer : public SimObserver
{
  public:
    AceAnalyzer(const GpuConfig& config, AceMode mode);

    void onRead(TargetStructure structure, SmId sm, std::uint32_t word,
                Word value, Cycle cycle) override;
    void onWrite(TargetStructure structure, SmId sm, std::uint32_t word,
                 Cycle cycle) override;
    void onAlloc(TargetStructure structure, SmId sm, std::uint32_t first,
                 std::uint32_t count, Cycle cycle) override;
    void onFree(TargetStructure structure, SmId sm, std::uint32_t first,
                std::uint32_t count, Cycle cycle) override;
    void onKernelEnd(Cycle cycle) override;

    /** Accumulated ACE unit-cycles for @p structure. */
    std::uint64_t aceUnitCycles(TargetStructure structure) const;

    /** Traffic recorded so far for @p structure (reads and writes only;
     *  alloc/free are not accesses).  Computed on each call. */
    AccessSummary accessSummary(TargetStructure structure) const;

  private:
    struct UnitState
    {
        Cycle write = 0;
        Cycle lastRead = 0;
        std::uint32_t accesses = 0; ///< reads + writes, whole run
        bool allocated = false;
        bool readSinceWrite = false;
    };
    // The traffic tally must fit the alignment padding: studies pay for
    // it on every event, so per-unit state must not grow.
    static_assert(sizeof(UnitState) == 24, "UnitState grew");

    struct StructureTracker
    {
        std::vector<UnitState> units; ///< numSms * unitsPerSm
        /** Per-unit bit weights (unitsPerSm entries, repeated per SM);
         *  empty = uniform units, weight 1. */
        std::vector<std::uint32_t> unitBits;
        std::uint32_t unitsPerSm = 0;
        std::uint64_t aceCycles = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
    };

    StructureTracker& tracker(TargetStructure structure);
    const StructureTracker& tracker(TargetStructure structure) const;
    void commit(StructureTracker& t, UnitState& u, Cycle upto);

    AceMode mode_;
    /** One tracker per registered structure, in registry order. */
    std::vector<StructureTracker> trackers_;
};

/**
 * Run one instrumented execution of @p instance on @p config and return
 * the ACE AVF of all registered structures.
 */
AceResult runAceAnalysis(const GpuConfig& config,
                         const WorkloadInstance& instance,
                         AceMode mode = AceMode::Standard);

/** Run one instrumented execution and return the traffic summary of
 *  every registered structure. */
AccessProfileResult profileAccesses(const GpuConfig& config,
                                    const WorkloadInstance& instance);

} // namespace gpr

#endif // GPR_RELIABILITY_ACE_HH
