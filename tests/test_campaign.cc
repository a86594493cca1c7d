/** @file Tests for statistical FI campaigns. */

#include <gtest/gtest.h>

#include "arch/gpu_config.hh"
#include "reliability/campaign.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

CampaignResult
smallCampaign(std::size_t n, unsigned threads, std::uint64_t seed = 0xAB,
              bool keep = false)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("vectoradd");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    CampaignConfig cc;
    cc.plan.injections = n;
    cc.numThreads = threads;
    cc.seed = seed;
    cc.keepRecords = keep;
    return runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);
}

TEST(Campaign, ZeroInjectionsYieldsEmptyResult)
{
    const CampaignResult r = smallCampaign(0, 1);
    EXPECT_EQ(r.injections, 0u);
    EXPECT_EQ(r.avf(), 0.0);
    EXPECT_GT(r.goldenStats.cycles, 0u); // golden still ran
}

TEST(Campaign, CountsAreConsistent)
{
    const CampaignResult r = smallCampaign(60, 2);
    EXPECT_EQ(r.masked + r.sdc + r.due, 60u);
    EXPECT_GE(r.avf(), 0.0);
    EXPECT_LE(r.avf(), 1.0);
    EXPECT_NEAR(r.avf(), r.sdcRate() + r.dueRate(), 1e-12);
    EXPECT_GT(r.wallSeconds, 0.0);
}

TEST(Campaign, ThreadCountDoesNotChangeResults)
{
    const CampaignResult a = smallCampaign(50, 1, 7);
    const CampaignResult b = smallCampaign(50, 2, 7);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.due, b.due);
}

TEST(Campaign, SeedChangesSamples)
{
    const CampaignResult a = smallCampaign(80, 2, 1);
    const CampaignResult b = smallCampaign(80, 2, 2);
    // Different seeds explore different fault sets; identical triples
    // would be suspicious (not impossible, but with 80 samples over a
    // multi-megabit space the masked counts almost surely differ).
    const bool identical =
        a.masked == b.masked && a.sdc == b.sdc && a.due == b.due;
    if (identical) {
        // Accept only if both campaigns are fully masked (tiny AVF).
        EXPECT_EQ(a.sdc + a.due, 0u);
    }
}

TEST(Campaign, SameSeedReproduces)
{
    const CampaignResult a = smallCampaign(50, 2, 123);
    const CampaignResult b = smallCampaign(50, 2, 123);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.due, b.due);
}

TEST(Campaign, RecordsKeptWhenRequested)
{
    const CampaignResult r = smallCampaign(30, 2, 5, true);
    ASSERT_EQ(r.records.size(), 30u);
    OutcomeCounts tally;
    for (const InjectionResult& rec : r.records) {
        tally.add(rec.outcome);
        EXPECT_EQ(rec.fault.structure,
                  TargetStructure::VectorRegisterFile);
    }
    EXPECT_EQ(tally.masked, r.masked);
    EXPECT_EQ(tally.sdc, r.sdc);
    EXPECT_EQ(tally.due, r.due);
}

TEST(Campaign, SortedExecutionKeepsRecordsAtTheirIndex)
{
    // A stuck-at-0 campaign with a checkpoint pack executes each chunk
    // sorted by checkpoint interval, not by index.  Every record must
    // still land at its own index: the fault and outcome a fresh
    // from-scratch injector draws for that index.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst =
        makeWorkload("vectoradd")->build(cfg.dialect, {});
    CampaignConfig cc;
    cc.plan.injections = 40;
    cc.seed = 0x5EED;
    cc.keepRecords = true;
    cc.shape.behavior = FaultBehavior::StuckAt0;
    for (unsigned threads : {1u, 2u}) {
        cc.numThreads = threads;
        const CampaignResult r =
            runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);
        ASSERT_EQ(r.records.size(), 40u);
        FaultInjector fresh(cfg, inst);
        for (std::uint64_t i = 0; i < r.records.size(); ++i) {
            const InjectionResult want = runIndexedInjection(
                fresh, TargetStructure::VectorRegisterFile, cc.seed, i,
                cc.shape);
            const FaultSpec& got = r.records[i].fault;
            EXPECT_EQ(got.bitIndex, want.fault.bitIndex) << i;
            EXPECT_EQ(got.cycle, want.fault.cycle) << i;
            EXPECT_EQ(got.behavior, FaultBehavior::StuckAt0) << i;
            EXPECT_EQ(r.records[i].outcome, want.outcome)
                << "threads=" << threads << " index " << i;
        }
    }
}

TEST(Campaign, ErrorsPropagateAtAnyThreadCount)
{
    // The GTX 480 has no scalar register file: the campaign is refused
    // with a catchable error at every worker count, never a process
    // abort from inside a pool worker.
    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);
    const WorkloadInstance inst =
        makeWorkload("vectoradd")->build(cfg.dialect, {});
    for (unsigned threads : {1u, 2u}) {
        CampaignConfig cc;
        cc.plan.injections = 8;
        cc.numThreads = threads;
        EXPECT_THROW(
            runCampaign(cfg, inst, TargetStructure::ScalarRegisterFile, cc),
            FatalError)
            << "threads=" << threads;
    }
}

TEST(Campaign, MarginMatchesPlanFormula)
{
    const CampaignResult r = smallCampaign(100, 2);
    // Wald margin at the measured AVF is never larger than worst-case.
    EXPECT_LE(r.errorMargin(),
              proportionErrorMargin(100, r.confidence) + 1e-12);
    const Interval w = r.avfInterval();
    EXPECT_GE(w.lo, 0.0);
    EXPECT_LE(w.hi, 1.0);
    EXPECT_LE(w.lo, r.avf() + 1e-12);
    EXPECT_GE(w.hi, r.avf() - 1e-12);
}

TEST(Campaign, OutcomeNames)
{
    EXPECT_EQ(faultOutcomeName(FaultOutcome::Masked), "masked");
    EXPECT_EQ(faultOutcomeName(FaultOutcome::Sdc), "SDC");
    EXPECT_EQ(faultOutcomeName(FaultOutcome::Due), "DUE");
}

} // namespace
} // namespace gpr
