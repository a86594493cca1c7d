/**
 * @file
 * The data-driven target-structure registry.
 *
 * Every layer that used to switch over the three hard-coded structures —
 * ACE analysis, fault windows, the injector, campaigns, breakdowns,
 * export, the orchestrator and the CLI — now iterates this table
 * instead.  Adding a structure means adding one StructureSpec row plus
 * the sim-layer binding (SmCore::applyFault + observer events); everything
 * above the simulator picks the new entry up automatically (see the
 * "Adding a target structure" section of the README).
 *
 * Three structure kinds exist:
 *
 *  - **WordStorage**: 32-bit-word-granular SRAM (register files, LDS)
 *    backed by a WordStorage instance.  The golden access trace yields
 *    *exact* per-word dead windows, so the checkpoint engine can
 *    classify most faults with zero simulation.
 *  - **ControlBits**: packed per-warp control state (predicate file,
 *    SIMT reconvergence stack + PC), laid out bit-linearly over the
 *    SM's resident warp slots.  Reads are not the only way such bits
 *    become architecturally visible (a flipped PC acts at the next
 *    issue without any "read" event), so control structures have no
 *    exact dead windows — the checkpoint engine skips the prefilter
 *    but keeps checkpoint restore and hash early-out.
 *  - **CacheArray**: modeled cache lines (tag + valid/dirty + data; see
 *    sim/cache.hh) of the L1d/L1i/L2 hierarchy.  The data words get
 *    exact dead windows like word storage (a hit or writeback reads
 *    them, a store or refill overwrites them); the tag/valid/dirty
 *    metadata acts through address comparison rather than reads, so —
 *    like control bits — it has none.  Exactness is therefore a
 *    property of a unit class within a row (ExactWindows), not of the
 *    whole row; checkpoint restore and the hash early-out apply to
 *    every bit.
 */

#ifndef GPR_SIM_STRUCTURE_REGISTRY_HH
#define GPR_SIM_STRUCTURE_REGISTRY_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"
#include "sim/fault_model.hh"
#include "sim/stats.hh"

namespace gpr {

enum class StructureKind : std::uint8_t
{
    WordStorage, ///< 32-bit-word-granular SRAM with alloc/free
    ControlBits, ///< packed control bits over resident warp slots
    CacheArray,  ///< tag + valid/dirty + data cache lines (sim/cache.hh)
};

/**
 * Whether one instance of the structure exists per SM (the registry's
 * historical assumption) or once for the whole chip (the shared L2).
 * Everything that multiplies a per-instance size by numSms — total
 * bits/units, ACE tracker sizing, checkpoint-placement weights — is
 * scope-aware; chip-scoped structures report observer events as SM 0.
 */
enum class StructureScope : std::uint8_t
{
    PerSm,
    Chip,
};

/**
 * How a structure hosts persistent (stuck-at / intermittent) faults.
 * A structure opts into persistence by binding one of these hooks in
 * its registry row; None means persistent behaviors are rejected for
 * it.  All five built-in rows bind a hook.
 */
enum class PersistenceHook : std::uint8_t
{
    None,               ///< persistent faults unsupported
    /** WordStorage read-side overlay: reads of the faulty word see the
     *  forced bits, writes retain the raw value underneath (so an
     *  intermittent fault's inactive phase recovers stored data). */
    StorageReadOverlay,
    /** Control bits live in named context fields consumed only during
     *  SmCore::stepCycle, so persistence = re-forcing the faulty bits
     *  before every stepped cycle (idempotent, hence insensitive to
     *  how many idle cycles the run loop lands on). */
    CycleReassert,
};

/**
 * Which fault bits of a row have exact golden dead windows (the
 * checkpoint engine's zero-simulation transient prefilter, see
 * reliability/fault_windows.hh) and which ACE unit decides them.
 */
enum class ExactWindows : std::uint8_t
{
    /** No bit: control bits act on the trajectory without a modelled
     *  read (a flipped PC acts at the next issue). */
    None,
    /** Every bit; its unit is the 32-bit word bit / 32. */
    AllWords,
    /** Data bits only; their unit is the data word's ACE unit.  The 34
     *  tag/valid/dirty bits leading each line are never exact. */
    CacheData,
};

/** exactWindowUnit() result for a bit without exact windows. */
constexpr std::uint64_t kNoExactUnit = ~std::uint64_t{0};

/**
 * Modelled hardware depth of the SIMT reconvergence stack.  Pushes
 * beyond this depth still simulate (the software stack is unbounded)
 * but only the first kSimtStackDepth entries exist as fault-injectable
 * hardware cells.
 */
constexpr std::uint32_t kSimtStackDepth = 16;

// --- Control-state bit geometry (shared by the flip mapping, the -------
// --- registry sizes and the tests) -------------------------------------

/** Predicate-file bits per warp slot: one lane mask per predicate reg. */
inline std::uint64_t
predBitsPerWarp(const GpuConfig& config)
{
    return std::uint64_t{kNumPredRegs} * config.warpWidth;
}

/** Bits of one SIMT stack entry: kind + PC + lane mask. */
inline std::uint64_t
simtEntryBits(const GpuConfig& config)
{
    return 1 + 32 + std::uint64_t{config.warpWidth};
}

/** SIMT control bits per warp slot: PC, active/exited masks, stack. */
inline std::uint64_t
simtBitsPerWarp(const GpuConfig& config)
{
    return 32 + 2 * std::uint64_t{config.warpWidth} +
           kSimtStackDepth * simtEntryBits(config);
}

/** ACE units per warp slot of the SIMT target: the PC/mask unit plus
 *  one unit per hardware stack entry. */
constexpr std::uint32_t kSimtUnitsPerWarp = 1 + kSimtStackDepth;

/**
 * One registered target structure.  Sizes are functions of the device
 * configuration so a single table serves every GPU model; a structure a
 * chip lacks reports 0 bits (e.g. the scalar RF on NVIDIA parts).
 */
struct StructureSpec
{
    TargetStructure id = TargetStructure::VectorRegisterFile;
    StructureKind kind = StructureKind::WordStorage;
    /** Canonical display name, e.g. "register-file". */
    std::string_view name;
    /** Short CLI alias, e.g. "rf". */
    std::string_view shortName;
    /** Key used in JSON exports, e.g. "register_file". */
    std::string_view jsonKey;
    /** Which bits the golden trace gives exact dead windows, and their
     *  units (transient faults only — a persistent fault's cell is
     *  never dead while the forcing holds). */
    ExactWindows exactWindows = ExactWindows::None;
    /** How this structure hosts stuck-at / intermittent faults. */
    PersistenceHook persistenceHook = PersistenceHook::None;
    /** One instance per SM, or one chip-shared instance (the L2). */
    StructureScope scope = StructureScope::PerSm;

    /** Fault-injectable bits per instance — per SM/CU for PerSm scope,
     *  chip-wide for Chip scope — on @p config (0 = chip lacks it). */
    std::uint64_t (*bitsPerSm)(const GpuConfig&) = nullptr;
    /**
     * Lifetime-accounting granules per SM: 32-bit words for word
     * storage, logical control units (one predicate register / one
     * stack entry / the PC+mask group) for control bits.  Observer
     * read/write/alloc/free events address these units.
     */
    std::uint64_t (*aceUnitsPerSm)(const GpuConfig&) = nullptr;
    /**
     * Bit width of SM-relative ACE unit @p unit, for structures whose
     * units are NOT uniform 32-bit words (null = uniform words).  ACE
     * accounting weights each unit's lifetime by its bit count so the
     * structure AVF stays a conservative bound on bit-uniform fault
     * injection even when units differ in size (the SIMT PC/mask group
     * vs. a stack entry).  Invariant: the widths of one SM's units sum
     * to bitsPerSm.
     */
    std::uint32_t (*aceUnitBits)(const GpuConfig&, std::uint32_t unit) =
        nullptr;
    /** The golden-run occupancy series this structure's AVF is compared
     *  against in reports (control state occupancy = warp residency). */
    double (*occupancy)(const SimStats&) = nullptr;
};

/** The registry, indexed by TargetStructure value. */
const std::array<StructureSpec, kNumTargetStructures>& structureRegistry();

/** Spec lookup; throws FatalError on an unregistered id. */
const StructureSpec& structureSpec(TargetStructure id);

/** Parse a canonical or short name; false if @p name is unregistered. */
bool tryTargetStructureFromName(std::string_view name, TargetStructure& out);

/** Parse a canonical or short name; throws FatalError listing the
 *  registered names on failure. */
TargetStructure targetStructureFromName(std::string_view name);

/** Chip-wide fault-injectable bits of @p id on @p config. */
std::uint64_t structureBitsTotal(const GpuConfig& config,
                                 TargetStructure id);

/**
 * Does @p id apply to a cell of @p config running a kernel that does
 * (or does not) use local memory?  A structure the chip lacks (0 bits)
 * never applies; local memory applies only to kernels that use it.
 * The single applicability rule shared by the study orchestrator and
 * the throughput bench.
 */
bool structureApplies(const GpuConfig& config, TargetStructure id,
                      bool uses_local_memory);

/**
 * The structures a fault-injection grid targets on one cell, in
 * registry order: every applicable structure, optionally intersected
 * with @p requested (empty = no restriction).  The single selection
 * rule shared by the study orchestrator and the throughput bench.
 */
std::vector<TargetStructure>
selectStructures(const GpuConfig& config, bool uses_local_memory,
                 const std::vector<TargetStructure>& requested);

/**
 * Registry-ordered lookup shared by every per-structure result vector
 * (`AceResult`, `ReliabilityReport`, `AccessProfileResult`): elements
 * carry a `structure` id field and sit at their enum index.  Throws
 * FatalError — naming @p what — when the entry is missing, so a
 * registry/result mismatch fails loudly instead of aliasing another
 * structure's numbers.
 */
template <typename T>
const T&
structureEntry(const std::vector<T>& entries, TargetStructure s,
               std::string_view what)
{
    const auto index = static_cast<std::size_t>(s);
    if (index >= entries.size() || entries[index].structure != s) {
        fatal(what, " holds no entry for structure id ",
              static_cast<unsigned>(s),
              " — registry and result are out of sync");
    }
    return entries[index];
}

/** Chip-wide ACE units of @p id on @p config. */
std::uint64_t structureAceUnitsTotal(const GpuConfig& config,
                                     TargetStructure id);

/** Instances of @p spec on @p config: numSms per-SM, 1 chip-scoped. */
std::uint64_t structureInstances(const GpuConfig& config,
                                 const StructureSpec& spec);

/**
 * The chip-wide ACE unit whose golden reads and writes decide exactly
 * whether a transient upset of chip-wide fault bit @p bit of @p id is
 * ever observed, or kNoExactUnit when the bit's unit class has no exact
 * windows.  Chip-wide units number instance-major (instance *
 * aceUnitsPerSm + SM-relative unit), matching observer events.
 */
std::uint64_t exactWindowUnit(const GpuConfig& config, TargetStructure id,
                              std::uint64_t bit);

/** Fault bits per instance of @p spec that have exact windows (32 per
 *  exact unit); the rest are never prefiltered. */
std::uint64_t exactWindowBitsPerSm(const GpuConfig& config,
                                   const StructureSpec& spec);

} // namespace gpr

#endif // GPR_SIM_STRUCTURE_REGISTRY_HH
