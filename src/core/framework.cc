#include "core/framework.hh"

#include <ostream>
#include <utility>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "core/orchestrator.hh"

namespace gpr {

ReliabilityFramework::ReliabilityFramework(GpuModel model)
    : model_(model), config_(gpuConfig(model))
{
}

const StructureReport&
ReliabilityReport::forStructure(TargetStructure s) const
{
    return structureEntry(structures, s, "ReliabilityReport");
}

WorkloadInstance
ReliabilityFramework::buildInstance(std::string_view workload_name,
                                    std::uint64_t workload_seed) const
{
    const auto workload = makeWorkload(workload_name);
    WorkloadParams params;
    params.seed = workload_seed;
    return workload->build(config_.dialect, params);
}

ReliabilityReport
ReliabilityFramework::analyze(std::string_view workload_name,
                              const StudySpec& spec) const
{
    // A full analysis is a one-cell study: the orchestrator supplies the
    // golden-run cache, the shard fan-out, and the report assembly, so a
    // standalone analyze() is bit-identical to the same cell inside a
    // grid run (identical (campaign seed, injection index) derivation).
    StudySpec cell = spec;
    cell.workloads = {std::string(workload_name)};
    cell.gpus = {model_};
    cell.storePath.clear();
    cell.resume = false;
    cell.verbose = false;

    StudyResult result = runStudy(cell);
    GPR_ASSERT(result.reports.size() == 1, "one-cell study shape");
    return std::move(result.reports.front());
}

ReliabilityReport
ReliabilityFramework::analyze(std::string_view workload_name) const
{
    return analyze(workload_name, StudySpec{});
}

void
ReliabilityReport::printSummary(std::ostream& os) const
{
    os << workload << " on " << gpuName << ":\n";
    os << strprintf("  cycles %llu  exec %.3e s  IPC %.2f  warp-occ %.1f%%\n",
                    static_cast<unsigned long long>(cycles), execSeconds,
                    ipc, 100.0 * warpOccupancy);

    // Name the fault model when it is not the default transient
    // single-bit (the shape is study-wide; any measured entry carries it).
    for (const StructureReport& sr : structures) {
        if (!sr.injections ||
            FaultShape{sr.behavior, sr.pattern}.isDefault()) {
            continue;
        }
        os << "  fault model: "
           << std::string(faultBehaviorName(sr.behavior)) << " x "
           << std::string(faultPatternName(sr.pattern)) << "\n";
        break;
    }

    for (const StructureSpec& spec : structureRegistry()) {
        const StructureReport& sr = forStructure(spec.id);
        const std::string label(spec.name);
        if (!sr.applicable) {
            os << strprintf("  %-22s n/a\n", label.c_str());
            continue;
        }
        if (sr.injections) {
            os << strprintf(
                "  %-22s AVF-FI %5.1f%% [%4.1f,%5.1f] "
                "(SDC %4.1f%% DUE %4.1f%%, n=%zu)"
                "  AVF-ACE %5.1f%%  occ %5.1f%%\n",
                label.c_str(), 100.0 * sr.avfFi, 100.0 * sr.avfCi.lo,
                100.0 * sr.avfCi.hi, 100.0 * sr.sdcRate,
                100.0 * sr.dueRate, sr.injections, 100.0 * sr.avfAce,
                100.0 * sr.occupancy);
        } else {
            os << strprintf(
                "  %-22s AVF-FI   n/a"
                "  AVF-ACE %5.1f%%  occ %5.1f%%\n",
                label.c_str(), 100.0 * sr.avfAce, 100.0 * sr.occupancy);
        }
    }

    os << strprintf(
        "  FIT: RF %.1f  LDS %.1f  SRF %.1f  total %.1f   EIT %.3e   "
        "EPF %.3e\n",
        epf.fitRegisterFile, epf.fitLocalMemory,
        epf.fitScalarRegisterFile, epf.fitTotal(), epf.eit, epf.epf());
}

} // namespace gpr
