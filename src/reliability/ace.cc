#include "reliability/ace.hh"

// gpr:lint-allow-file(D1): timing whitelist — steady_clock reads feed
// only the analysisSeconds diagnostic, never ACE counts or hashes.

#include <algorithm>
#include <chrono>
#include <functional>

#include "common/logging.hh"
#include "sim/gpu.hh"

namespace gpr {

const AceStructureResult&
AceResult::forStructure(TargetStructure s) const
{
    return structureEntry(structures, s, "AceResult");
}

const AccessSummary&
AccessProfileResult::forStructure(TargetStructure s) const
{
    return structureEntry(structures, s, "AccessProfileResult");
}

AceAnalyzer::AceAnalyzer(const GpuConfig& config, AceMode mode)
    : mode_(mode)
{
    trackers_.resize(kNumTargetStructures);
    for (const StructureSpec& spec : structureRegistry()) {
        StructureTracker& t = trackers_[static_cast<std::size_t>(spec.id)];
        const std::uint64_t units_per_sm = spec.aceUnitsPerSm(config);
        if (units_per_sm == 0)
            continue; // structure absent on this chip
        t.unitsPerSm = static_cast<std::uint32_t>(units_per_sm);
        t.units.resize(structureInstances(config, spec) * units_per_sm);
        if (spec.aceUnitBits) {
            t.unitBits.resize(t.unitsPerSm);
            for (std::uint32_t u = 0; u < t.unitsPerSm; ++u)
                t.unitBits[u] = spec.aceUnitBits(config, u);
        }
    }
}

AceAnalyzer::StructureTracker&
AceAnalyzer::tracker(TargetStructure structure)
{
    const auto index = static_cast<std::size_t>(structure);
    if (index >= trackers_.size()) {
        fatal("ACE event for unregistered structure id ",
              static_cast<unsigned>(structure));
    }
    return trackers_[index];
}

const AceAnalyzer::StructureTracker&
AceAnalyzer::tracker(TargetStructure structure) const
{
    return const_cast<AceAnalyzer*>(this)->tracker(structure);
}

void
AceAnalyzer::commit(StructureTracker& t, UnitState& u, Cycle upto)
{
    if (!u.allocated || !u.readSinceWrite)
        return;
    const Cycle end = mode_ == AceMode::Standard ? u.lastRead : upto;
    if (end > u.write) {
        std::uint64_t weight = 1;
        if (!t.unitBits.empty()) {
            // Nonuniform units: weight the interval by the unit's bit
            // count so the structure AVF bounds bit-uniform injection.
            const auto index =
                static_cast<std::size_t>(&u - t.units.data());
            weight = t.unitBits[index % t.unitsPerSm];
        }
        t.aceCycles += (end - u.write) * weight;
    }
}

void
AceAnalyzer::onRead(TargetStructure structure, SmId sm, std::uint32_t word,
                    Word, Cycle cycle)
{
    StructureTracker& t = tracker(structure);
    UnitState& u = t.units[std::uint64_t{sm} * t.unitsPerSm + word];
    u.lastRead = cycle;
    u.readSinceWrite = true;
    ++u.accesses;
    ++t.reads;
}

void
AceAnalyzer::onWrite(TargetStructure structure, SmId sm, std::uint32_t word,
                     Cycle cycle)
{
    StructureTracker& t = tracker(structure);
    UnitState& u = t.units[std::uint64_t{sm} * t.unitsPerSm + word];
    commit(t, u, cycle);
    u.write = cycle;
    u.readSinceWrite = false;
    ++u.accesses;
    ++t.writes;
}

void
AceAnalyzer::onAlloc(TargetStructure structure, SmId sm,
                     std::uint32_t first, std::uint32_t count, Cycle cycle)
{
    StructureTracker& t = tracker(structure);
    const std::uint64_t base = std::uint64_t{sm} * t.unitsPerSm + first;
    for (std::uint64_t i = 0; i < count; ++i) {
        UnitState& u = t.units[base + i];
        u.allocated = true;
        u.write = cycle; // contents architecturally undefined => new epoch
        u.readSinceWrite = false;
    }
}

void
AceAnalyzer::onFree(TargetStructure structure, SmId sm, std::uint32_t first,
                    std::uint32_t count, Cycle cycle)
{
    StructureTracker& t = tracker(structure);
    const std::uint64_t base = std::uint64_t{sm} * t.unitsPerSm + first;
    for (std::uint64_t i = 0; i < count; ++i) {
        UnitState& u = t.units[base + i];
        commit(t, u, cycle);
        u.allocated = false;
        u.readSinceWrite = false;
    }
}

void
AceAnalyzer::onKernelEnd(Cycle cycle)
{
    for (StructureTracker& t : trackers_) {
        for (UnitState& u : t.units) {
            commit(t, u, cycle);
            u.allocated = false;
            u.readSinceWrite = false;
        }
    }
}

std::uint64_t
AceAnalyzer::aceUnitCycles(TargetStructure structure) const
{
    return tracker(structure).aceCycles;
}

AccessSummary
AceAnalyzer::accessSummary(TargetStructure structure) const
{
    const StructureTracker& t = tracker(structure);
    AccessSummary s;
    s.structure = structure;
    s.totalWords = t.units.size();
    s.reads = t.reads;
    s.writes = t.writes;

    std::vector<std::uint32_t> per_unit;
    for (const UnitState& u : t.units) {
        if (u.accesses > 0)
            per_unit.push_back(u.accesses);
    }
    s.touchedWords = per_unit.size();
    if (!per_unit.empty()) {
        // The top tenth's sum does not depend on the order within it.
        const std::size_t top =
            std::max<std::size_t>(1, per_unit.size() / 10);
        std::nth_element(per_unit.begin(), per_unit.begin() + (top - 1),
                         per_unit.end(), std::greater<std::uint32_t>());
        std::uint64_t top_sum = 0;
        for (std::size_t i = 0; i < top; ++i)
            top_sum += per_unit[i];
        s.top10Share = static_cast<double>(top_sum) /
                       static_cast<double>(s.reads + s.writes);
    }
    return s;
}

AceResult
runAceAnalysis(const GpuConfig& config, const WorkloadInstance& instance,
               AceMode mode)
{
    const auto t0 = std::chrono::steady_clock::now();

    AceAnalyzer analyzer(config, mode);
    Gpu gpu(config);
    RunOptions options;
    options.observer = &analyzer;
    const RunResult run = runValidatedGolden(gpu, instance, options);

    AceResult result;
    result.goldenStats = run.stats;
    result.structures.reserve(kNumTargetStructures);
    for (const StructureSpec& spec : structureRegistry()) {
        AceStructureResult r;
        r.structure = spec.id;
        r.aceUnitCycles = analyzer.aceUnitCycles(spec.id);
        // Bit-weighted structures divide bit-cycles by bits; uniform
        // structures divide unit-cycles by units (same ratio per bit).
        r.totalUnits = spec.aceUnitBits
                           ? structureBitsTotal(config, spec.id)
                           : structureAceUnitsTotal(config, spec.id);
        r.cycles = run.stats.cycles;
        result.structures.push_back(r);
    }

    const auto t1 = std::chrono::steady_clock::now();
    result.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
}

AccessProfileResult
profileAccesses(const GpuConfig& config, const WorkloadInstance& instance)
{
    AceAnalyzer analyzer(config, AceMode::Standard);
    Gpu gpu(config);
    RunOptions options;
    options.observer = &analyzer;
    runValidatedGolden(gpu, instance, options);

    AccessProfileResult result;
    result.structures.reserve(kNumTargetStructures);
    for (const StructureSpec& spec : structureRegistry())
        result.structures.push_back(analyzer.accessSummary(spec.id));
    return result;
}

} // namespace gpr
