/** @file Tests for vulnerability breakdowns and access profiling. */

#include <gtest/gtest.h>

#include "reliability/ace.hh"
#include "reliability/breakdown.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

TEST(Breakdown, BucketsPartitionTheCampaign)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("vectoradd");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    CampaignConfig cc;
    cc.plan.injections = 120;
    const VulnerabilityBreakdown bd = runBreakdownCampaign(
        cfg, inst, TargetStructure::VectorRegisterFile, cc);

    EXPECT_EQ(bd.overall.total(), 120u);

    std::uint32_t bit_total = 0;
    for (const auto& b : bd.byBit)
        bit_total += b.total();
    EXPECT_EQ(bit_total, 120u);

    std::uint32_t time_total = 0;
    for (const auto& b : bd.byTime)
        time_total += b.total();
    EXPECT_EQ(time_total, 120u);
}

TEST(Breakdown, RequiresRecords)
{
    CampaignResult campaign;
    campaign.injections = 10; // but no records kept
    EXPECT_THROW(computeBreakdown(campaign, 100), FatalError);
}

TEST(Breakdown, SyntheticRecordsBucketCorrectly)
{
    CampaignResult campaign;
    campaign.injections = 3;
    InjectionResult a;
    a.fault.bitIndex = 5;      // bit 5
    a.fault.cycle = 0;         // first decile
    a.outcome = FaultOutcome::Sdc;
    InjectionResult b;
    b.fault.bitIndex = 32 + 5; // also bit 5, next word
    b.fault.cycle = 99;        // last decile of 100 cycles
    b.outcome = FaultOutcome::Masked;
    InjectionResult c;
    c.fault.bitIndex = 31;
    c.fault.cycle = 55;
    c.outcome = FaultOutcome::Due;
    campaign.records = {a, b, c};

    const VulnerabilityBreakdown bd = computeBreakdown(campaign, 100);
    EXPECT_EQ(bd.byBit[5].sdc, 1u);
    EXPECT_EQ(bd.byBit[5].masked, 1u);
    EXPECT_EQ(bd.byBit[31].due, 1u);
    EXPECT_EQ(bd.byTime[0].sdc, 1u);
    EXPECT_EQ(bd.byTime[9].masked, 1u);
    EXPECT_EQ(bd.byTime[5].due, 1u);
    EXPECT_NEAR(bd.overall.avf(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(bd.avfBitRange(0, 7), 0.5, 1e-12);
    EXPECT_NEAR(bd.avfBitRange(31, 31), 1.0, 1e-12);
}

TEST(AccessProfile, CountsMatchKernelShape)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("reduction");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    const AccessProfileResult p = profileAccesses(cfg, inst);

    const AccessSummary& rf =
        p.forStructure(TargetStructure::VectorRegisterFile);
    const AccessSummary& lm =
        p.forStructure(TargetStructure::SharedMemory);

    // The kernel reads and writes registers and shared memory.
    EXPECT_GT(rf.reads, 0u);
    EXPECT_GT(rf.writes, 0u);
    EXPECT_GT(rf.touchedWords, 0u);
    EXPECT_LE(rf.touchedFraction(), 1.0);

    EXPECT_GT(lm.reads, 0u);
    EXPECT_GT(lm.writes, 0u);

    // Control-state traffic is profiled too: the SIMT PC/mask unit is
    // read every issue, and reduction's guarded branches touch preds.
    EXPECT_GT(p.forStructure(TargetStructure::SimtStack).reads, 0u);
    EXPECT_GT(p.forStructure(TargetStructure::PredicateFile).writes, 0u);

    // Traffic concentration is a valid share.
    EXPECT_GE(rf.top10Share, 0.0);
    EXPECT_LE(rf.top10Share, 1.0);
    EXPECT_GT(rf.readsPerWrite(), 0.0);
}

TEST(AccessProfile, ReductionTreeConcentratesSharedTraffic)
{
    // In a tree reduction, low shared slots are touched log(n) times
    // while high slots are touched once or twice: traffic must be more
    // concentrated than perfectly even.
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("reduction");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    const AccessProfileResult p = profileAccesses(cfg, inst);
    EXPECT_GT(p.forStructure(TargetStructure::SharedMemory).top10Share,
              0.12);
}

TEST(AccessProfile, NoSharedTrafficWithoutLocalMemory)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("gaussian");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    const AccessProfileResult p = profileAccesses(cfg, inst);
    const AccessSummary& lm =
        p.forStructure(TargetStructure::SharedMemory);
    EXPECT_EQ(lm.reads + lm.writes, 0u);
    EXPECT_EQ(lm.touchedWords, 0u);
}

} // namespace
} // namespace gpr
