#include "reliability/breakdown.hh"

#include "common/logging.hh"

namespace gpr {

double
VulnerabilityBreakdown::avfBitRange(unsigned lo_bit, unsigned hi_bit) const
{
    GPR_ASSERT(lo_bit <= hi_bit && hi_bit < 32, "bad bit range");
    std::uint64_t bad = 0, n = 0;
    for (unsigned b = lo_bit; b <= hi_bit; ++b) {
        bad += byBit[b].sdc + byBit[b].due;
        n += byBit[b].total();
    }
    return n ? static_cast<double>(bad) / static_cast<double>(n) : 0.0;
}

VulnerabilityBreakdown
computeBreakdown(const CampaignResult& campaign, Cycle golden_cycles)
{
    if (campaign.records.empty() && campaign.injections > 0) {
        fatal("computeBreakdown needs a campaign run with "
              "keepRecords=true");
    }
    GPR_ASSERT(golden_cycles > 0, "golden cycle count required");

    VulnerabilityBreakdown bd;
    for (const InjectionResult& r : campaign.records) {
        const unsigned bit = static_cast<unsigned>(r.fault.bitIndex % 32);
        std::size_t q = static_cast<std::size_t>(
            (static_cast<double>(r.fault.cycle) /
             static_cast<double>(golden_cycles)) * kTimeBuckets);
        if (q >= kTimeBuckets)
            q = kTimeBuckets - 1;
        bd.byBit[bit].add(r.outcome);
        bd.byTime[q].add(r.outcome);
        bd.overall.add(r.outcome);
    }
    return bd;
}

VulnerabilityBreakdown
runBreakdownCampaign(const GpuConfig& config,
                     const WorkloadInstance& instance,
                     TargetStructure structure, CampaignConfig cc)
{
    cc.keepRecords = true;
    const CampaignResult campaign =
        runCampaign(config, instance, structure, cc);
    return computeBreakdown(campaign, campaign.goldenStats.cycles);
}

} // namespace gpr
