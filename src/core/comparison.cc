#include "core/comparison.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"
#include "common/statistics.hh"
#include "common/string_utils.hh"

namespace gpr {
namespace {

std::string
pct(double v)
{
    return strprintf("%.1f%%", 100.0 * v);
}

/** The error bar of a measured FI rate: its CI as "lo..hi%". */
std::string
ciCell(const StructureReport& sr)
{
    if (!sr.injections)
        return "n/a";
    return strprintf("%.1f..%.1f%%", 100.0 * sr.avfCi.lo,
                     100.0 * sr.avfCi.hi);
}

} // namespace

const ReliabilityReport&
StudyResult::at(std::size_t w, std::size_t g) const
{
    GPR_ASSERT(w < workloads.size() && g < gpus.size(),
               "study index out of range");
    return reports[w * gpus.size() + g];
}

TextTable
StudyResult::figure1() const
{
    TextTable table({"benchmark", "GPU", "AVF-FI", "FI CI", "AVF-ACE",
                     "occupancy"});
    std::vector<RunningStat> fi_avg(gpus.size()), ace_avg(gpus.size()),
        occ_avg(gpus.size());

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            const ReliabilityReport& r = at(w, g);
            const StructureReport& sr =
                r.forStructure(TargetStructure::VectorRegisterFile);
            // A structure no injections ran on (--ace-only, or excluded
            // by --structures) is not-measured, not ultra-reliable.
            table.addRow({workloads[w], r.gpuName,
                          sr.injections ? pct(sr.avfFi)
                                        : std::string("n/a"),
                          ciCell(sr), pct(sr.avfAce),
                          pct(sr.occupancy)});
            if (sr.injections)
                fi_avg[g].push(sr.avfFi);
            ace_avg[g].push(sr.avfAce);
            occ_avg[g].push(sr.occupancy);
        }
    }
    for (std::size_t g = 0; g < gpus.size(); ++g) {
        table.addRow({"average", std::string(gpuModelName(gpus[g])),
                      fi_avg[g].count() ? pct(fi_avg[g].mean())
                                        : std::string("n/a"),
                      "", pct(ace_avg[g].mean()),
                      pct(occ_avg[g].mean())});
    }
    return table;
}

TextTable
StudyResult::figure2() const
{
    TextTable table({"benchmark", "GPU", "AVF-FI", "FI CI", "AVF-ACE",
                     "occupancy"});
    std::vector<RunningStat> fi_avg(gpus.size()), ace_avg(gpus.size()),
        occ_avg(gpus.size());

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        // Fig. 2 includes only benchmarks that use local memory.
        if (!at(w, 0)
                 .forStructure(TargetStructure::SharedMemory)
                 .applicable)
            continue;
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            const ReliabilityReport& r = at(w, g);
            const StructureReport& sr =
                r.forStructure(TargetStructure::SharedMemory);
            table.addRow({workloads[w], r.gpuName,
                          sr.injections ? pct(sr.avfFi)
                                        : std::string("n/a"),
                          ciCell(sr), pct(sr.avfAce),
                          pct(sr.occupancy)});
            if (sr.injections)
                fi_avg[g].push(sr.avfFi);
            ace_avg[g].push(sr.avfAce);
            occ_avg[g].push(sr.occupancy);
        }
    }
    for (std::size_t g = 0; g < gpus.size(); ++g) {
        if (ace_avg[g].count() == 0)
            continue;
        table.addRow({"average", std::string(gpuModelName(gpus[g])),
                      fi_avg[g].count() ? pct(fi_avg[g].mean())
                                        : std::string("n/a"),
                      "", pct(ace_avg[g].mean()),
                      pct(occ_avg[g].mean())});
    }
    return table;
}

TextTable
StudyResult::figure3() const
{
    TextTable table({"benchmark", "GPU", "EPF", "EPF CI", "EIT",
                     "FIT_GPU", "exec_s"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            const ReliabilityReport& r = at(w, g);
            // Degenerate interval (ACE-only study): no error bar.
            const bool has_ci = r.epfCi.hi > r.epfCi.lo;
            table.addRow({workloads[w], r.gpuName,
                          sciNotation(r.epf.epf()),
                          has_ci ? sciNotation(r.epfCi.lo) + ".." +
                                       sciNotation(r.epfCi.hi)
                                 : std::string("n/a"),
                          sciNotation(r.epf.eit),
                          strprintf("%.1f", r.epf.fitTotal()),
                          sciNotation(r.execSeconds)});
        }
    }
    return table;
}

StudyResult::Claims
StudyResult::claims() const
{
    Claims c;
    std::vector<double> rf_fi, rf_occ, lm_fi, lm_occ;
    std::vector<double> ace_seconds, fi_seconds;
    RunningStat rf_gap, lm_gap;

    for (const ReliabilityReport& r : reports) {
        ace_seconds.push_back(r.aceWallSeconds);
        for (const StructureReport& sr : r.structures)
            fi_seconds.push_back(sr.fiWallSeconds);

        // Only measured FI numbers feed the claim statistics — a
        // structure excluded by --structures (or --ace-only) left
        // placeholder zeros that would fabricate correlations/gaps.
        const StructureReport& rf =
            r.forStructure(TargetStructure::VectorRegisterFile);
        if (rf.injections) {
            rf_fi.push_back(rf.avfFi);
            rf_occ.push_back(rf.occupancy);
            rf_gap.push(rf.avfAce - rf.avfFi);
        }

        const StructureReport& lm =
            r.forStructure(TargetStructure::SharedMemory);
        if (lm.applicable && lm.injections) {
            lm_fi.push_back(lm.avfFi);
            lm_occ.push_back(lm.occupancy);
            lm_gap.push(std::abs(lm.avfAce - lm.avfFi));
        }
    }
    // Report order is the fixed reduction order (lint rule D5): the
    // totals stay bit-identical however the shards that produced the
    // reports were scheduled.
    c.aceSecondsTotal = fixedOrderSum(ace_seconds);
    c.fiSecondsTotal = fixedOrderSum(fi_seconds);
    c.rfAvfOccupancyCorrelation = pearsonCorrelation(rf_fi, rf_occ);
    c.lmAvfOccupancyCorrelation = pearsonCorrelation(lm_fi, lm_occ);
    c.rfMeanAceOverestimate = rf_gap.mean();
    c.lmMeanAceGap = lm_gap.mean();
    return c;
}

void
StudyResult::printClaims(std::ostream& os) const
{
    const Claims c = claims();
    os << "paper-claim checks:\n";
    os << strprintf(
        "  AVF correlates with occupancy:      RF r=%.2f   LM r=%.2f\n",
        c.rfAvfOccupancyCorrelation, c.lmAvfOccupancyCorrelation);
    os << strprintf(
        "  ACE overestimate (mean ACE-FI):     RF %+.1f pp  LM gap %.1f pp\n",
        100.0 * c.rfMeanAceOverestimate, 100.0 * c.lmMeanAceGap);
    os << strprintf(
        "  analysis cost:                      FI %.1f worker-s vs ACE "
        "%.2f s (%.0fx work)\n",
        c.fiSecondsTotal, c.aceSecondsTotal,
        c.aceSecondsTotal > 0 ? c.fiSecondsTotal / c.aceSecondsTotal : 0.0);
}

} // namespace gpr
