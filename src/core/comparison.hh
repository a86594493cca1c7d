/**
 * @file
 * StudyResult — the reports of the paper's full experiment (runStudy in
 * core/orchestrator.hh): every benchmark on every GPU, producing the
 * series behind Fig. 1 (register-file AVF), Fig. 2 (local-memory AVF)
 * and Fig. 3 (EPF), plus the cross-checks the text claims (occupancy
 * correlation, ACE-vs-FI accuracy per structure).
 */

#ifndef GPR_CORE_COMPARISON_HH
#define GPR_CORE_COMPARISON_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/framework.hh"

namespace gpr {

/** All reports of a study, indexed by (workload, gpu). */
struct StudyResult
{
    std::vector<std::string> workloads;
    std::vector<GpuModel> gpus;
    /** reports[w * gpus.size() + g] */
    std::vector<ReliabilityReport> reports;

    const ReliabilityReport& at(std::size_t w, std::size_t g) const;

    /** Fig. 1 series: register-file AVF-FI / AVF-ACE / occupancy. */
    TextTable figure1() const;
    /** Fig. 2 series: local-memory AVF (local-memory benchmarks only). */
    TextTable figure2() const;
    /** Fig. 3 series: EPF per benchmark x GPU. */
    TextTable figure3() const;

    /**
     * The paper's textual claims, quantified:
     * Pearson correlation of AVF with occupancy per structure, and the
     * mean ACE-vs-FI gap per structure (expect: large for the register
     * file, small for local memory).
     */
    struct Claims
    {
        double rfAvfOccupancyCorrelation = 0.0;
        double lmAvfOccupancyCorrelation = 0.0;
        double rfMeanAceOverestimate = 0.0; ///< mean (ACE - FI), RF
        double lmMeanAceGap = 0.0;          ///< mean |ACE - FI|, LDS
        double fiSecondsTotal = 0.0;
        double aceSecondsTotal = 0.0;
    };
    Claims claims() const;

    void printClaims(std::ostream& os) const;
};

} // namespace gpr

#endif // GPR_CORE_COMPARISON_HH
