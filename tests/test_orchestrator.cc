/** @file Tests for the sharded study orchestrator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/statistics.hh"
#include "core/export.hh"
#include "core/orchestrator.hh"
#include "reliability/campaign.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

StudySpec
miniStudy(std::size_t injections = 24)
{
    StudySpec s;
    s.workloads = {"vectoradd", "reduction"};
    s.gpus = {GpuModel::QuadroFx5600};
    s.plan.injections = injections;
    s.verbose = false;
    return s;
}

/** miniStudy() executed at @p jobs workers and @p shards per campaign,
 *  optionally checkpointing to @p store. */
StudySpec
miniStudyRun(unsigned jobs, std::size_t shards, std::string store = {})
{
    StudySpec s = miniStudy();
    s.jobs = jobs;
    s.shardsPerCampaign = shards;
    s.storePath = std::move(store);
    return s;
}

std::string
tempStorePath(const char* name)
{
    return testing::TempDir() + "gpr_orchestrator_" + name + ".jsonl";
}

std::vector<std::string>
storeLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

void
expectIdenticalReports(const StudyResult& a, const StudyResult& b)
{
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        const ReliabilityReport& ra = a.reports[i];
        const ReliabilityReport& rb = b.reports[i];
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.gpuName, rb.gpuName);
        EXPECT_EQ(ra.cycles, rb.cycles);
        auto same_structure = [](const StructureReport& sa,
                                 const StructureReport& sb) {
            EXPECT_EQ(sa.applicable, sb.applicable);
            EXPECT_EQ(sa.avfFi, sb.avfFi);
            EXPECT_EQ(sa.sdcRate, sb.sdcRate);
            EXPECT_EQ(sa.dueRate, sb.dueRate);
            EXPECT_EQ(sa.avfAce, sb.avfAce);
            EXPECT_EQ(sa.injections, sb.injections);
        };
        ASSERT_EQ(ra.structures.size(), rb.structures.size());
        for (std::size_t k = 0; k < ra.structures.size(); ++k)
            same_structure(ra.structures[k], rb.structures[k]);
        EXPECT_EQ(ra.epf.epf(), rb.epf.epf());
        EXPECT_EQ(ra.epf.fitTotal(), rb.epf.fitTotal());
    }
}

TEST(Decomposition, PartitionsEveryCampaignPlan)
{
    StudySpec study = miniStudy(24);
    study.shardsPerCampaign = 4;
    const std::vector<ShardKey> shards = decomposeStudy(study);

    // vectoradd: RF + the two control targets + the three caches;
    // reduction adds LDS.  FX 5600 has no scalar RF.  13 campaigns x
    // 4 shards.
    ASSERT_EQ(shards.size(), 52u);

    std::map<std::pair<std::string, TargetStructure>, std::uint64_t> next;
    for (const ShardKey& key : shards) {
        EXPECT_EQ(key.gpu, GpuModel::QuadroFx5600);
        EXPECT_EQ(key.campaignSeed,
                  deriveSeed(study.seed,
                             static_cast<std::uint64_t>(key.structure)));
        EXPECT_EQ(key.workloadSeed, study.workloadSeed);
        // Shards of one campaign tile [0, injections) contiguously.
        auto& expected_begin = next[{key.workload, key.structure}];
        EXPECT_EQ(key.injectionBegin, expected_begin);
        EXPECT_LT(key.injectionBegin, key.injectionEnd);
        expected_begin = key.injectionEnd;
    }
    for (const auto& [campaign, end] : next)
        EXPECT_EQ(end, 24u) << campaign.first;
    EXPECT_EQ(next.size(), 13u);
}

TEST(Decomposition, DefaultShardCountIndependentOfJobs)
{
    SamplePlan plan;
    plan.injections = 2000;
    EXPECT_EQ(defaultShardCount(plan), 8u); // 2000 / 250
    plan.injections = 10;
    EXPECT_EQ(defaultShardCount(plan), 1u);
    plan.injections = 0;
    EXPECT_EQ(defaultShardCount(plan), 0u);
    plan.injections = 1000000;
    EXPECT_EQ(defaultShardCount(plan), 64u); // capped
}

TEST(Orchestrator, JobsAndShardsDoNotChangeResults)
{
    const StudyResult a = runStudy(miniStudyRun(1, 1));
    const StudyResult b = runStudy(miniStudyRun(8, 8));

    expectIdenticalReports(a, b);
    // And auto jobs/shards (the spec defaults) agree too.
    const StudyResult c = runStudy(miniStudy());
    expectIdenticalReports(a, c);
}

TEST(Orchestrator, DuplicateGridEntriesShareOneCell)
{
    // Listing the same (workload, GPU) twice must not split or double
    // its shard counts: duplicates share one canonical cell and both
    // grid positions report the single-entry result.
    StudySpec study = miniStudyRun(2, 2);
    study.workloads = {"vectoradd", "vectoradd"};
    StudyProgress progress;
    const StudyResult dup = runStudy(study, &progress);
    EXPECT_EQ(progress.goldenRuns, 1u);
    // One cell's campaigns (RF + pred + simt + the three caches), not
    // two cells' worth.
    EXPECT_EQ(progress.totalShards, 12u);

    StudySpec single = study;
    single.workloads = {"vectoradd"};
    const StudyResult one = runStudy(single);
    ASSERT_EQ(dup.reports.size(), 2u);
    for (const ReliabilityReport& r : dup.reports) {
        const StructureReport& rf =
            r.forStructure(TargetStructure::VectorRegisterFile);
        EXPECT_EQ(rf.avfFi,
                  one.reports.front()
                      .forStructure(TargetStructure::VectorRegisterFile)
                      .avfFi);
        EXPECT_EQ(rf.injections, study.plan.injections);
    }
}

TEST(Orchestrator, MatchesStandaloneCampaignEngine)
{
    // The orchestrated register-file numbers must equal a standalone
    // runCampaign() with the same (campaign seed, injection index)
    // derivation — the orchestrator changes scheduling, not sampling.
    StudySpec study = miniStudyRun(4, 3);
    study.workloads = {"vectoradd"};
    const StudyResult result = runStudy(study);
    const StructureReport& sr = result.reports.front().forStructure(
        TargetStructure::VectorRegisterFile);

    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    const auto workload = makeWorkload("vectoradd");
    WorkloadParams params;
    params.seed = study.workloadSeed;
    const WorkloadInstance inst = workload->build(cfg.dialect, params);
    CampaignConfig cc;
    cc.plan = study.plan;
    cc.seed = deriveSeed(study.seed,
                         static_cast<std::uint64_t>(
                             TargetStructure::VectorRegisterFile));
    cc.numThreads = 1;
    const CampaignResult fi =
        runCampaign(cfg, inst, TargetStructure::VectorRegisterFile, cc);

    EXPECT_EQ(sr.avfFi, fi.avf());
    EXPECT_EQ(sr.sdcRate, fi.sdcRate());
    EXPECT_EQ(sr.dueRate, fi.dueRate());
    EXPECT_EQ(sr.fiErrorMargin, fi.errorMargin());
}

TEST(Orchestrator, CheckpointsEveryShardToTheStore)
{
    const std::string path = tempStorePath("checkpoint");
    StudyProgress progress;
    const StudySpec spec = miniStudyRun(2, 4, path);
    runStudy(spec, &progress);

    EXPECT_EQ(progress.totalShards, 52u);
    EXPECT_EQ(progress.executedShards, 52u);
    EXPECT_EQ(progress.resumedShards, 0u);

    // Line 0 is the spec header; the 28 shard records follow.
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 53u);
    StoreHeader header;
    ASSERT_TRUE(parseStoreHeader(lines.front(), header));
    EXPECT_EQ(header.specHash, spec.campaignHashHex());
    for (std::size_t i = 1; i < lines.size(); ++i) {
        ShardRecord r;
        EXPECT_TRUE(parseShardRecord(lines[i], r)) << lines[i];
    }
    std::remove(path.c_str());
}

TEST(Orchestrator, ResumeSkipsFinishedShardsAndMatchesBitForBit)
{
    const std::string path = tempStorePath("resume");
    StudyProgress full_progress;
    const StudyResult full = runStudy(miniStudyRun(1, 4, path), &full_progress);
    ASSERT_EQ(full_progress.executedShards, 52u);

    // Simulate a kill after 5 shards: keep the header and a record
    // prefix of the store.
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 53u); // spec header + 52 records
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < 6; ++i)
            out << lines[i] << '\n';
        // ...plus a truncated tail line, as a real kill would leave.
        out << lines[6].substr(0, lines[6].size() / 2);
    }

    StudySpec second = miniStudyRun(8, 4, path); // a different job count
    second.resume = true;
    StudyProgress resumed_progress;
    const StudyResult resumed = runStudy(second, &resumed_progress);

    EXPECT_EQ(resumed_progress.resumedShards, 5u);
    EXPECT_EQ(resumed_progress.executedShards, 47u);
    expectIdenticalReports(full, resumed);

    // A third run finds everything done and recomputes nothing.
    StudyProgress third_progress;
    const StudyResult third = runStudy(second, &third_progress);
    EXPECT_EQ(third_progress.resumedShards, 52u);
    EXPECT_EQ(third_progress.executedShards, 0u);
    expectIdenticalReports(full, third);
    std::remove(path.c_str());
}

TEST(Orchestrator, ResumeRefusesAStoreFromADifferentSpec)
{
    const std::string path = tempStorePath("mismatch");
    StudySpec study = miniStudyRun(4, 4, path);
    runStudy(study);

    // Same store, different campaign seed: the spec hash mismatches, so
    // resume fails loudly (naming both hashes) instead of silently
    // recomputing — or worse, mixing — two different experiments.
    study.resume = true;
    StudySpec reseeded = study;
    reseeded.seed = 0xDEADBEEF;
    const std::string original_hash = study.campaignHashHex();
    const std::string reseeded_hash = reseeded.campaignHashHex();
    try {
        runStudy(reseeded);
        FAIL() << "expected FatalError on spec-hash mismatch";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(original_hash), std::string::npos) << what;
        EXPECT_NE(what.find(reseeded_hash), std::string::npos) << what;
    }

    // Execution knobs are not part of the identity: the same campaign
    // resumes fine at a different job count.
    StudySpec rejobbed = study;
    rejobbed.jobs = 1;
    StudyProgress progress;
    runStudy(rejobbed, &progress);
    EXPECT_EQ(progress.resumedShards, 52u);
    EXPECT_EQ(progress.executedShards, 0u);
    std::remove(path.c_str());
}

TEST(Orchestrator, LegacyHeaderlessStoreResumesWithKeyMatchingOnly)
{
    const std::string path = tempStorePath("legacy");
    StudySpec study = miniStudyRun(4, 4, path);
    runStudy(study);

    // Strip the header, as a store written before it existed would be.
    const auto lines = storeLines(path);
    ASSERT_EQ(lines.size(), 53u);
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 1; i < lines.size(); ++i)
            out << lines[i] << '\n';
    }

    // A header-less store loads with a warning; per-key matching still
    // rejects records of a different plan, so a reseeded study simply
    // recomputes everything.
    study.resume = true;
    StudyProgress same_progress;
    runStudy(study, &same_progress);
    EXPECT_EQ(same_progress.resumedShards, 52u);

    // The resume back-fills a header (appended, recognised at any
    // line), so the spec-hash guard is armed again: a doctored spec is
    // now refused instead of sliding through the legacy path.
    bool has_header = false;
    for (const std::string& line : storeLines(path)) {
        StoreHeader h;
        if (parseStoreHeader(line, h)) {
            has_header = true;
            EXPECT_EQ(h.specHash, study.campaignHashHex());
        }
    }
    EXPECT_TRUE(has_header);
    {
        StudySpec doctored = study;
        doctored.seed = 0xBAD;
        EXPECT_THROW(runStudy(doctored), FatalError);
    }

    StudySpec reseeded = study;
    reseeded.seed = 0xDEADBEEF;
    std::remove(path.c_str());
    study.resume = false;
    runStudy(study);
    {
        const auto with_header = storeLines(path);
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 1; i < with_header.size(); ++i)
            out << with_header[i] << '\n';
    }
    StudyProgress reseeded_progress;
    runStudy(reseeded, &reseeded_progress);
    EXPECT_EQ(reseeded_progress.resumedShards, 0u);
    EXPECT_EQ(reseeded_progress.executedShards, 52u);
    std::remove(path.c_str());
}

TEST(Orchestrator, WallSecondsAggregateWithoutDoubleCounting)
{
    StudyProgress progress;
    const StudyResult result = runStudy(miniStudyRun(4, 4), &progress);

    // Per-campaign fiWallSeconds are sums of per-shard busy time, so the
    // study total equals the orchestrator's busy-seconds tally exactly
    // (nothing is counted once per concurrent campaign).  claims()
    // reduces the series with the fixed-order compensated reducer
    // (lint rule D5), so the expected total goes through the same one.
    std::vector<double> seconds;
    for (const ReliabilityReport& r : result.reports) {
        for (const StructureReport& sr : r.structures)
            seconds.push_back(sr.fiWallSeconds);
        EXPECT_GT(r.forStructure(TargetStructure::VectorRegisterFile)
                      .fiWallSeconds,
                  0.0);
    }
    const double total = fixedOrderSum(seconds);
    EXPECT_NEAR(total, progress.shardBusySeconds,
                1e-9 * std::max(1.0, progress.shardBusySeconds));
    EXPECT_EQ(result.claims().fiSecondsTotal, total);
}

TEST(ShardStore, RecordRoundTrips)
{
    ShardRecord r;
    r.key.workload = "reduction";
    r.key.gpu = GpuModel::HdRadeon7970;
    r.key.structure = TargetStructure::ScalarRegisterFile;
    r.key.shardIndex = 3;
    r.key.injectionBegin = 750;
    r.key.injectionEnd = 1000;
    r.key.campaignSeed = 0xFEEDFACECAFEBEEFULL; // > int64 range
    r.key.workloadSeed = 42;
    r.counts.masked = 200;
    r.counts.sdc = 30;
    r.counts.due = 20;
    r.counts.busySeconds = 1.25;

    std::ostringstream os;
    writeShardRecord(os, r);
    ShardRecord back;
    ASSERT_TRUE(parseShardRecord(os.str(), back));
    EXPECT_TRUE(back.key == r.key);
    EXPECT_EQ(back.counts.masked, r.counts.masked);
    EXPECT_EQ(back.counts.sdc, r.counts.sdc);
    EXPECT_EQ(back.counts.due, r.counts.due);
    EXPECT_EQ(back.counts.busySeconds, r.counts.busySeconds);
}

TEST(ShardStore, RejectsMalformedLines)
{
    ShardRecord r;
    EXPECT_FALSE(parseShardRecord("", r));
    EXPECT_FALSE(parseShardRecord("not json", r));
    EXPECT_FALSE(parseShardRecord(R"({"workload":"x"})", r));

    // A well-formed record...
    ShardRecord good;
    good.key.workload = "vectoradd";
    good.key.gpu = GpuModel::GeforceGtx480;
    good.key.injectionEnd = 10;
    good.counts.masked = 10;
    std::ostringstream os;
    writeShardRecord(os, good);
    ASSERT_TRUE(parseShardRecord(os.str(), r));

    // ...fails once truncated (kill mid-write) ...
    const std::string line = os.str();
    EXPECT_FALSE(parseShardRecord(line.substr(0, line.size() - 5), r));

    // ...or when counts do not cover the stated injection range.
    ShardRecord bad = good;
    bad.counts.masked = 7;
    std::ostringstream os2;
    writeShardRecord(os2, bad);
    EXPECT_FALSE(parseShardRecord(os2.str(), r));
}

TEST(ShardStore, ReaderSkipsBrokenLines)
{
    ShardRecord r;
    r.key.workload = "scan";
    r.key.gpu = GpuModel::QuadroFx5800;
    r.key.injectionEnd = 5;
    r.counts.sdc = 5;
    std::ostringstream os;
    writeShardRecord(os, r);
    const std::string good_line = os.str();

    std::istringstream is("garbage\n" + good_line + "\n" +
                          good_line.substr(0, 20));
    const std::vector<ShardRecord> records = readShardStore(is);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records.front().key.workload, "scan");
}

TEST(WorkerPoolTest, RunsEveryTaskAcrossWaves)
{
    WorkerPool pool(4);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 3; ++wave) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.waitIdle();
        EXPECT_EQ(count.load(), 50 * (wave + 1));
    }
}

TEST(WorkerPoolTest, SharedPoolRethrowsTaskErrorsOnTheCaller)
{
    // Every copy throws: the caller gets the exception back instead of
    // waiting forever or terminating inside a worker.
    std::atomic<int> calls{0};
    EXPECT_THROW(runOnSharedPool(2,
                                 [&calls] {
                                     calls.fetch_add(1);
                                     throw std::runtime_error("boom");
                                 }),
                 std::runtime_error);
    EXPECT_GE(calls.load(), 1);

    // The pool stays usable afterwards.
    std::atomic<int> ok{0};
    runOnSharedPool(2, [&ok] { ok.fetch_add(1); });
    EXPECT_GE(ok.load(), 1);
}

} // namespace
} // namespace gpr
