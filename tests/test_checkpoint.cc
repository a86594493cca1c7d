/**
 * @file
 * Checkpoint-restore injection engine tests: snapshot/restore round
 * trips, resumed-run equivalence, and the exhaustive differential
 * guarantee — per-injection outcomes of the checkpointed engine are
 * bit-identical to the legacy from-scratch engine across structures,
 * workloads and both ISA dialects.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/storage.hh"
#include "sim/structure_registry.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

WorkloadInstance
buildFor(const GpuConfig& cfg, const char* workload)
{
    return makeWorkload(workload)->build(cfg.dialect, {});
}

/** out[i] = in[i] + 1 over two 64-thread blocks: a golden run short
 *  enough (< 512 cycles on a 2-SM chip) that every placement bucket is
 *  one cycle wide. */
WorkloadInstance
incrementInstance(const GpuConfig& cfg)
{
    KernelBuilder kb("increment", cfg.dialect);
    const Operand tid = kb.vreg();
    const Operand bid = kb.uniformReg();
    const Operand bdim = kb.uniformReg();
    const Operand pin = kb.uniformReg();
    const Operand pout = kb.uniformReg();
    kb.s2r(tid, SpecialReg::TidX);
    kb.s2r(bid, SpecialReg::CtaIdX);
    kb.s2r(bdim, SpecialReg::NTidX);
    kb.ldparam(pin, 0);
    kb.ldparam(pout, 1);
    const Operand gid = kb.vreg();
    kb.imad(gid, bid, bdim, tid);
    const Operand off = kb.vreg();
    kb.shl(off, gid, KernelBuilder::imm(2));
    const Operand addr = kb.vreg();
    kb.iadd(addr, off, pin);
    const Operand v = kb.vreg();
    kb.ldg(v, addr);
    kb.iadd(v, v, KernelBuilder::imm(1));
    kb.iadd(addr, off, pout);
    kb.stg(addr, v);
    kb.exit();

    WorkloadInstance inst;
    inst.workloadName = "increment";
    inst.program = kb.finish();
    const Buffer in = inst.image.allocBuffer(128);
    ExpectedOutput out;
    out.label = "out";
    out.buffer = inst.image.allocBuffer(128);
    for (std::uint32_t i = 0; i < 128; ++i) {
        inst.image.setWord(in, i, 3 * i);
        out.golden.push_back(3 * i + 1);
    }
    inst.launch.blockX = 64;
    inst.launch.gridX = 2;
    inst.launch.addParamAddr(in.byteAddr);
    inst.launch.addParamAddr(out.buffer.byteAddr);
    inst.outputs.push_back(std::move(out));
    return inst;
}

const std::vector<TargetStructure> kWordRows = {
    TargetStructure::VectorRegisterFile, TargetStructure::SharedMemory,
    TargetStructure::ScalarRegisterFile};
const std::vector<TargetStructure> kCacheRows = {
    TargetStructure::L1DataCache, TargetStructure::L1InstructionCache,
    TargetStructure::L2Cache};

/** Delta checkpoint cycles of @p pack (deltas[0] is the cycle-0 one). */
std::vector<Cycle>
deltaCycles(const CheckpointPack& pack)
{
    std::vector<Cycle> cycles;
    for (const GpuCheckpointDelta& d : pack.deltas)
        cycles.push_back(d.now);
    return cycles;
}

/** Hash-boundary spacing of the recordings below. */
Cycle
hashIntervalFor(Cycle golden)
{
    return std::max<Cycle>(1, golden / 16);
}

/** Record, on @p gpu, the golden hashes of @p inst plus delta
 *  checkpoints at cycle 0 and at the quarters of its @p golden run. */
CheckpointRecorder
recordQuarterDeltas(Gpu& gpu, const WorkloadInstance& inst, Cycle golden)
{
    CheckpointRecorder rec;
    rec.checkpointCycles = {0, golden / 4, golden / 2, (3 * golden) / 4};
    RunOptions options;
    options.recorder = &rec;
    options.hashInterval = hashIntervalFor(golden);
    const RunResult r =
        gpu.run(inst.program, inst.launch, inst.image, options);
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.stats.cycles, golden);
    EXPECT_EQ(rec.deltas.size(), rec.checkpointCycles.size());
    return rec;
}

/** Anchor @p gpu and @p scratch to @p rec's baseline. */
void
anchor(Gpu& gpu, const CheckpointRecorder& rec, MemoryImage& scratch)
{
    gpu.anchorTo(rec.baseline);
    scratch = rec.baseline.memory;
    scratch.markCleanForRestore();
}

/** Resume the anchored @p gpu from @p delta of @p rec in @p scratch. */
RunResult
resumeFrom(Gpu& gpu, const WorkloadInstance& inst,
           const CheckpointRecorder& rec, const GpuCheckpointDelta& delta,
           MemoryImage& scratch, RunOptions options = {})
{
    options.resume.emplace(DeltaResume{rec.baseline, delta, scratch});
    return gpu.run(inst.program, inst.launch, MemoryImage{}, options);
}

/** A resumed run (final image in @p scratch) equals the from-scratch
 *  @p golden run in everything outcome classification reads. */
void
expectGolden(const RunResult& resumed, const MemoryImage& scratch,
             const RunResult& golden, Cycle from)
{
    EXPECT_EQ(resumed.trap, golden.trap) << "resumed at " << from;
    EXPECT_EQ(resumed.stats.cycles, golden.stats.cycles)
        << "resumed at " << from;
    EXPECT_EQ(resumed.stats.warpInstructions,
              golden.stats.warpInstructions)
        << "resumed at " << from;
    EXPECT_EQ(scratch.words(), golden.memory.words())
        << "resumed at " << from;
}

TEST(Checkpoint, SnapshotMutateRestoreRoundTrip)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");

    Gpu gpu(cfg);
    const RunResult golden =
        gpu.run(inst.program, inst.launch, inst.image);
    ASSERT_TRUE(golden.clean());
    const CheckpointRecorder rec =
        recordQuarterDeltas(gpu, inst, golden.stats.cycles);

    gpu.restore(rec.baseline);
    const std::uint64_t h0 = gpu.deviceStateHash();

    // snapshot() of the restored device must round-trip bit-for-bit.
    const GpuCheckpoint again = gpu.snapshot();
    gpu.restore(again);
    EXPECT_EQ(gpu.deviceStateHash(), h0);

    // Mutate device state (one VRF bit flip) -> the fingerprint moves...
    GpuCheckpoint flipped = rec.baseline;
    flipped.sms.front().vrf.flipBitAt(7);
    gpu.restore(flipped);
    EXPECT_NE(gpu.deviceStateHash(), h0);

    // ...and restoring the original snapshot brings it back exactly.
    gpu.restore(rec.baseline);
    EXPECT_EQ(gpu.deviceStateHash(), h0);

    // The same round trip through the anchored delta path.  A faulty
    // run from each delta mutates the device, every image word is then
    // scribbled over, and the next restore of that delta must revert
    // all of it: the full state hash already matches golden's at the
    // first boundary past the delta, and the run ends like the
    // from-scratch one.
    const auto mutate = [&](const GpuCheckpointDelta& d,
                            MemoryImage& scratch) {
        RunOptions faulty;
        faulty.fault.emplace();
        faulty.fault->structure = TargetStructure::VectorRegisterFile;
        faulty.fault->bitIndex = 7;
        faulty.fault->cycle = d.now;
        resumeFrom(gpu, inst, rec, d, scratch, faulty);
        for (Addr a = 0; a < scratch.sizeBytes(); a += 4)
            scratch.writeWord(a, ~scratch.readWord(a));
    };
    RunOptions converge;
    converge.hashInterval = hashIntervalFor(golden.stats.cycles);
    converge.goldenHashes = &rec.hashes;
    MemoryImage scratch;
    anchor(gpu, rec, scratch);
    for (const GpuCheckpointDelta& d : rec.deltas) {
        mutate(d, scratch);
        const RunResult probe =
            resumeFrom(gpu, inst, rec, d, scratch, converge);
        const Cycle first_boundary =
            (d.now / converge.hashInterval + 1) * converge.hashInterval;
        EXPECT_TRUE(probe.convergedToGolden) << "resumed at " << d.now;
        EXPECT_EQ(probe.stats.cycles, first_boundary + 1)
            << "resumed at " << d.now;
        mutate(d, scratch);
        const RunResult clean = resumeFrom(gpu, inst, rec, d, scratch);
        expectGolden(clean, scratch, golden, d.now);
    }
}

TEST(Checkpoint, ResumedRunReproducesGoldenExactly)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "scan");

    Gpu gpu(cfg);
    const RunResult golden =
        gpu.run(inst.program, inst.launch, inst.image);
    ASSERT_TRUE(golden.clean());
    const CheckpointRecorder rec =
        recordQuarterDeltas(gpu, inst, golden.stats.cycles);
    EXPECT_EQ(rec.deltas.front().now, 0u);

    // One anchoring serves every resume, as it does a campaign.
    MemoryImage scratch;
    anchor(gpu, rec, scratch);
    for (const GpuCheckpointDelta& d : rec.deltas) {
        const RunResult resumed = resumeFrom(gpu, inst, rec, d, scratch);
        expectGolden(resumed, scratch, golden, d.now);
        EXPECT_TRUE(resumed.memory.words().empty()); // ran in scratch
    }
}

TEST(Checkpoint, PackShapeAndAdoption)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");

    FaultInjector injector(cfg, inst);
    const auto pack = injector.buildCheckpointPack(4);
    ASSERT_TRUE(pack);
    EXPECT_EQ(pack->goldenCycles, injector.goldenCycles());
    EXPECT_GT(pack->hashInterval, 0u);
    EXPECT_TRUE(pack->windows.enabled(TargetStructure::VectorRegisterFile));
    EXPECT_GT(pack->windows.intervalCount(), 0u);

    // Delta encoding: one full baseline, then ascending deltas starting
    // with the trivial cycle-0 one, at most the budget past it.
    ASSERT_FALSE(pack->deltas.empty());
    EXPECT_EQ(pack->deltas.front().now, 0u);
    EXPECT_LE(pack->deltas.size(), 4u + 1u);
    for (std::size_t i = 1; i < pack->deltas.size(); ++i) {
        EXPECT_GT(pack->deltas[i].now, pack->deltas[i - 1].now);
        EXPECT_LT(pack->deltas[i].now, pack->goldenCycles);
    }

    // The whole point of the delta encoding: resident bytes well under
    // what the same checkpoint cycles would cost as full snapshots.
    EXPECT_GT(pack->approxBytes(), 0u);
    if (pack->deltas.size() > 1) {
        EXPECT_LT(pack->approxBytes(), pack->fullEquivalentBytes());
    }

    // Sibling injector of the same cell adopts the shared pack.
    FaultInjector sibling(cfg, inst);
    sibling.adoptGoldenCycles(pack->goldenCycles);
    sibling.adoptCheckpointPack(pack);
    EXPECT_EQ(sibling.checkpointPack().get(), pack.get());
}

TEST(Checkpoint, WordStoragePackUnchangedByCacheWindows)
{
    // A pack for an rf/lds/srf cell records no cache windows, so its
    // fault-aware checkpoint cycles, trajectory hashes and windows are
    // those of a pack built before cache data words had windows.  The
    // pinned values were captured from that engine.
    struct Pinned
    {
        GpuModel gpu;
        Cycle golden;
        std::size_t hashes;
        std::size_t intervals;
        std::vector<Cycle> cycles;
    };
    const Pinned pinned[] = {
        {GpuModel::GeforceGtx480, 2286, 4, 245632,
         {0, 133, 263, 392, 522, 651, 781, 910, 1044, 1178, 1312, 1446,
          1585, 1723, 1861, 2000, 2143}},
        {GpuModel::HdRadeon7970, 1988, 1, 181120,
         {0, 116, 229, 345, 458, 574, 687, 803, 920, 1036, 1153, 1269,
          1386, 1506, 1626, 1747, 1867}},
    };
    const std::vector<TargetStructure> word_rows = {
        TargetStructure::VectorRegisterFile, TargetStructure::SharedMemory,
        TargetStructure::ScalarRegisterFile};
    for (const Pinned& p : pinned) {
        const GpuConfig& cfg = gpuConfig(p.gpu);
        const WorkloadInstance inst = buildFor(cfg, "reduction");
        FaultInjector injector(cfg, inst);
        const auto pack = injector.buildCheckpointPack(
            kDefaultCheckpoints, word_rows);
        EXPECT_EQ(pack->goldenCycles, p.golden) << cfg.name;
        EXPECT_EQ(pack->hashes.size(), p.hashes) << cfg.name;
        EXPECT_EQ(pack->windows.intervalCount(), p.intervals) << cfg.name;
        std::vector<Cycle> cycles;
        for (const GpuCheckpointDelta& d : pack->deltas)
            cycles.push_back(d.now);
        EXPECT_EQ(cycles, p.cycles) << cfg.name;
        for (TargetStructure s : {TargetStructure::L1DataCache,
                                  TargetStructure::L1InstructionCache,
                                  TargetStructure::L2Cache}) {
            EXPECT_FALSE(pack->windows.enabled(s)) << cfg.name;
            EXPECT_EQ(pack->windows.intervalCount(s), 0u) << cfg.name;
        }
    }
}

TEST(Checkpoint, FaultAwarePlacementIsPinned)
{
    // Fault-aware checkpoint cycles, trajectory hash counts and window
    // interval counts of packs recorded for the word rows and for the
    // cache rows, captured from the bucket-walking placement histogram
    // the linear-time one replaced: placement must stay bit-identical.
    struct Pinned
    {
        GpuModel gpu;
        const char* workload;
        bool cacheRows;
        Cycle golden;
        std::size_t hashes;
        std::size_t intervals;
        std::vector<Cycle> cycles;
    };
    constexpr auto kFermi = GpuModel::GeforceGtx480;
    constexpr auto kTahiti = GpuModel::HdRadeon7970;
    const Pinned pinned[] = {
        {kFermi, "vectoradd", false, 3110, 5, 491520,
         {0, 182, 358, 534, 716, 898, 1075, 1257, 1439, 1621, 1804, 1986,
          2168, 2356, 2545, 2733, 2921}},
        {kFermi, "vectoradd", true, 3110, 5, 655630,
         {0, 182, 364, 546, 728, 911, 1087, 1263, 1439, 1615, 1791, 1968,
          2150, 2332, 2520, 2715, 2909}},
        {kFermi, "histogram", false, 2596, 5, 327680,
         {0, 157, 309, 456, 603, 750, 897, 1044, 1196, 1348, 1500, 1652,
          1805, 1957, 2109, 2266, 2428}},
        {kFermi, "histogram", true, 2596, 5, 459443,
         {0, 157, 299, 441, 583, 725, 867, 1008, 1150, 1292, 1434, 1576,
          1718, 1865, 2017, 2175, 2357}},
        {kFermi, "scan", false, 6796, 13, 589184,
         {0, 384, 769, 1154, 1539, 1924, 2322, 2707, 3092, 3477, 3862,
          4247, 4658, 5070, 5481, 5919, 6357}},
        {kFermi, "scan", true, 6796, 13, 708957,
         {0, 384, 769, 1154, 1526, 1911, 2296, 2667, 3052, 3437, 3822,
          4207, 4619, 5030, 5442, 5893, 6344}},
        {kTahiti, "vectoradd", false, 2516, 1, 297984,
         {0, 147, 294, 437, 584, 727, 874, 1017, 1164, 1307, 1454, 1601,
          1749, 1896, 2049, 2201, 2358}},
        {kTahiti, "vectoradd", true, 2516, 1, 462400,
         {0, 142, 285, 427, 570, 712, 855, 997, 1140, 1282, 1425, 1567,
          1715, 1867, 2024, 2181, 2344}},
        {kTahiti, "histogram", false, 2506, 1, 263168,
         {0, 146, 288, 435, 582, 729, 876, 1022, 1169, 1316, 1463, 1610,
          1757, 1903, 2050, 2197, 2349}},
        {kTahiti, "histogram", true, 2506, 1, 395424,
         {0, 141, 283, 425, 567, 709, 851, 993, 1135, 1277, 1419, 1561,
          1708, 1855, 2006, 2163, 2324}},
        {kTahiti, "scan", false, 4820, 3, 524672,
         {0, 282, 564, 847, 1129, 1412, 1694, 1976, 2259, 2541, 2824, 3106,
          3389, 3671, 3953, 4236, 4518}},
        {kTahiti, "scan", true, 4820, 3, 650208,
         {0, 282, 564, 847, 1129, 1412, 1703, 1986, 2268, 2541, 2824, 3106,
          3389, 3671, 3953, 4236, 4509}},
    };
    for (const Pinned& p : pinned) {
        const GpuConfig& cfg = gpuConfig(p.gpu);
        const WorkloadInstance inst = buildFor(cfg, p.workload);
        FaultInjector injector(cfg, inst);
        const auto pack = injector.buildCheckpointPack(
            kDefaultCheckpoints, p.cacheRows ? kCacheRows : kWordRows);
        const std::string what = cfg.name + " " + p.workload +
                                 (p.cacheRows ? " cache rows" : " word rows");
        EXPECT_EQ(pack->goldenCycles, p.golden) << what;
        EXPECT_EQ(pack->hashes.size(), p.hashes) << what;
        EXPECT_EQ(pack->windows.intervalCount(), p.intervals) << what;
        EXPECT_EQ(deltaCycles(*pack), p.cycles) << what;
    }

    // A golden run shorter than the 512 buckets: one cycle per bucket.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = incrementInstance(cfg);
    const std::vector<Cycle> one_cycle_buckets = {
        0, 28, 56, 84, 112, 140, 168, 196, 224,
        252, 281, 310, 339, 368, 397, 426, 455};
    for (const auto* rows : {&kWordRows, &kCacheRows}) {
        FaultInjector injector(cfg, inst);
        const auto pack = injector.buildCheckpointPack(
            kDefaultCheckpoints, *rows);
        EXPECT_EQ(pack->goldenCycles, 484u);
        EXPECT_EQ(pack->hashes.size(), 3u);
        EXPECT_EQ(pack->windows.intervalCount(),
                  rows == &kWordRows ? 1280u : 1690u);
        EXPECT_EQ(deltaCycles(*pack), one_cycle_buckets);
    }
}

TEST(Checkpoint, TransientPackSkipsResidencyOnly)
{
    // A pack recorded without value residency differs from the default
    // one in its residency tables alone: same checkpoint cycles, hashes
    // and windows, and the same transient verdicts.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");
    FaultInjector full(cfg, inst);
    const auto with = full.buildCheckpointPack(8);
    FaultInjector transient(cfg, inst);
    transient.adoptGoldenCycles(full.goldenCycles());
    const auto without =
        transient.buildCheckpointPack(8, {}, /*residency=*/false);

    EXPECT_TRUE(with->residency);
    EXPECT_FALSE(without->residency);
    EXPECT_EQ(deltaCycles(*without), deltaCycles(*with));
    EXPECT_EQ(without->hashes, with->hashes);
    for (const StructureSpec& spec : structureRegistry()) {
        EXPECT_EQ(without->windows.enabled(spec.id),
                  with->windows.enabled(spec.id));
        EXPECT_EQ(without->windows.intervalCount(spec.id),
                  with->windows.intervalCount(spec.id));
    }
    // Register word 0 of SM 0 is read by every block: the default pack
    // knows when a stuck-at fault there turns benign, the transient one
    // stays conservative.
    const auto rf = TargetStructure::VectorRegisterFile;
    EXPECT_NE(with->windows.stuckAgreeCycle(rf, 0, 0, 1, false),
              FaultWindows::kNeverAgrees);
    EXPECT_EQ(without->windows.stuckAgreeCycle(rf, 0, 0, 1, false),
              FaultWindows::kNeverAgrees);

    for (TargetStructure s : {rf, TargetStructure::SharedMemory,
                              TargetStructure::L1DataCache}) {
        for (std::size_t i = 0; i < 16; ++i) {
            const InjectionResult a = runIndexedInjection(full, s, 11, i);
            const InjectionResult b =
                runIndexedInjection(transient, s, 11, i);
            EXPECT_EQ(a.outcome, b.outcome) << targetStructureName(s);
            EXPECT_EQ(a.trap, b.trap) << targetStructureName(s);
            EXPECT_EQ(a.shortcut, b.shortcut) << targetStructureName(s);
        }
    }

    // A persistent fault must never meet a pack without residency: it
    // would quietly run to completion.  The refusal names the cell.
    FaultSpec stuck;
    stuck.structure = rf;
    stuck.bitIndex = 5;
    stuck.cycle = 10;
    stuck.behavior = FaultBehavior::StuckAt0;
    try {
        transient.inject(stuck);
        FAIL() << "expected PanicError for a persistent fault";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("reduction"), std::string::npos) << what;
        EXPECT_NE(what.find(targetStructureName(rf)), std::string::npos)
            << what;
    }
    EXPECT_NO_THROW(full.inject(stuck));
}

TEST(Checkpoint, PackTimingIsFilled)
{
    // Both recording passes simulate the whole golden run, so they take
    // measurable time; the bench checks the phases cover the build.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");
    FaultInjector injector(cfg, inst);
    const PackBuildTiming t = injector.buildCheckpointPack(4)->timing;
    EXPECT_GT(t.recordSeconds, 0.0);
    EXPECT_GE(t.finalizeSeconds, 0.0);
    EXPECT_GE(t.placeSeconds, 0.0);
    EXPECT_GT(t.deltaSeconds, 0.0);
}

TEST(Checkpoint, IntervalCapDisablesOnlyTheOverflowingStructure)
{
    // Cap 2 intervals per structure: the rf records 3 (over the cap),
    // the lds 1 and the l1d 1.  Only the rf loses its windows — and
    // with them its residency — while the others stay exact.
    const GpuConfig cfg = test::smallCudaConfig();
    const auto rf = TargetStructure::VectorRegisterFile;
    const auto lds = TargetStructure::SharedMemory;
    const auto l1d = TargetStructure::L1DataCache;
    FaultWindowRecorder rec(cfg, {}, /*residency=*/true,
                            /*maxIntervals=*/2);
    for (Cycle c : {1, 5, 9}) {
        rec.onWrite(rf, 0, 0, c);
        rec.onRead(rf, 0, 0, 0, c + 2);
    }
    rec.onWrite(lds, 0, 0, 1);
    rec.onRead(lds, 0, 0, 0, 3);
    // Word storage: alloc is not a write, so the window [2, 7] spans
    // the alloc at 4.
    rec.onWrite(lds, 0, 1, 1);
    rec.onAlloc(lds, 0, 1, 1, 4);
    rec.onRead(lds, 0, 1, 0, 7);
    // Cache: a refill writes the line's data units (1..lineWords), not
    // its metadata unit 0.
    rec.onAlloc(l1d, 0, 0, 1 + cfg.cacheLineWords(), 10);
    rec.onRead(l1d, 0, 1, 0, 12);
    rec.onRead(l1d, 0, 0, 0, 12);

    FaultWindows w;
    rec.finalize(w);
    EXPECT_FALSE(w.enabled(rf));
    EXPECT_EQ(w.intervalCount(rf), 0u);
    EXPECT_TRUE(w.observed(rf, 0, 100)); // conservative
    EXPECT_EQ(w.stuckAgreeCycle(rf, 0, 0, 1, false),
              FaultWindows::kNeverAgrees);

    EXPECT_TRUE(w.enabled(lds));
    EXPECT_EQ(w.intervalCount(lds), 2u);
    EXPECT_TRUE(w.observed(lds, 0, 2));
    EXPECT_FALSE(w.observed(lds, 0, 4));
    EXPECT_TRUE(w.observed(lds, 1, 5));
    EXPECT_EQ(w.stuckAgreeCycle(lds, 0, 0, 1, true), 4u);

    EXPECT_TRUE(w.enabled(l1d));
    EXPECT_EQ(w.intervalCount(l1d), 1u); // metadata is not recorded
    EXPECT_FALSE(w.observed(l1d, 1, 8));  // overwritten by the refill
    EXPECT_TRUE(w.observed(l1d, 1, 11));
    EXPECT_FALSE(w.observed(l1d, 1, 13));
    // No residency for caches: persistence there mutates the raw word.
    EXPECT_EQ(w.stuckAgreeCycle(l1d, 1, 0, 1, false),
              FaultWindows::kNeverAgrees);
}

/**
 * Delta resume equals the from-scratch run on both dialects, resuming
 * the deltas latest-first so every revert undoes pages written past an
 * earlier checkpoint.
 */
TEST(Checkpoint, DeltaResumeMatchesFromScratchRun)
{
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        const WorkloadInstance inst = buildFor(cfg, "reduction");
        Gpu gpu(cfg);
        const RunResult golden =
            gpu.run(inst.program, inst.launch, inst.image);
        ASSERT_TRUE(golden.clean()) << cfg.name;
        ASSERT_GT(golden.stats.cycles, 4u) << cfg.name;
        const CheckpointRecorder rec =
            recordQuarterDeltas(gpu, inst, golden.stats.cycles);

        MemoryImage scratch;
        anchor(gpu, rec, scratch);
        for (auto d = rec.deltas.rbegin(); d != rec.deltas.rend(); ++d) {
            const RunResult resumed =
                resumeFrom(gpu, inst, rec, *d, scratch);
            expectGolden(resumed, scratch, golden, d->now);
        }
    }
}

/**
 * Pass A of a pack build requests no checkpoint cycle: it records the
 * trajectory hashes and copies no state, and the hashes equal those of
 * a run that also captures the baseline and deltas.
 */
TEST(Checkpoint, HashOnlyRecordingCapturesNoState)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");
    Gpu gpu(cfg);
    const Cycle g = gpu.run(inst.program, inst.launch, inst.image)
                        .stats.cycles;

    CheckpointRecorder hashes_only;
    RunOptions options;
    options.recorder = &hashes_only;
    options.hashInterval = hashIntervalFor(g);
    ASSERT_TRUE(
        gpu.run(inst.program, inst.launch, inst.image, options).clean());
    EXPECT_FALSE(hashes_only.hashes.empty());
    EXPECT_TRUE(hashes_only.deltas.empty());
    EXPECT_TRUE(hashes_only.baseline.sms.empty());
    EXPECT_FALSE(hashes_only.baseline.l2.has_value());
    EXPECT_EQ(hashes_only.baseline.memory.sizeWords(), 0u);

    const CheckpointRecorder with_state = recordQuarterDeltas(gpu, inst, g);
    EXPECT_EQ(with_state.baseline.sms.size(), cfg.numSms);
    EXPECT_EQ(with_state.baseline.memory.words(), inst.image.words());
    EXPECT_EQ(with_state.hashes, hashes_only.hashes);
}

/**
 * The tentpole guarantee: for every injection, the checkpointed engine
 * classifies exactly like the from-scratch engine.  Swept across all
 * three structures, several workloads, and both dialects (CUDA via the
 * small Fermi config, Southern Islands via the small Tahiti config,
 * which is also the only scalar-register-file chip).
 */
TEST(Checkpoint, DifferentialOutcomeEquality)
{
    constexpr std::size_t kInjections = 25;
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};
    const char* workloads[] = {"vectoradd", "reduction", "histogram"};

    std::size_t converged_total = 0;
    for (const GpuConfig& cfg : configs) {
        for (const char* wname : workloads) {
            const WorkloadInstance inst = buildFor(cfg, wname);

            std::vector<TargetStructure> structures;
            structures.push_back(TargetStructure::VectorRegisterFile);
            if (makeWorkload(wname)->usesLocalMemory())
                structures.push_back(TargetStructure::SharedMemory);
            if (cfg.scalarRegWordsPerSm > 0)
                structures.push_back(TargetStructure::ScalarRegisterFile);

            FaultInjector legacy(cfg, inst);
            FaultInjector ckpt(cfg, inst);
            ckpt.adoptGoldenCycles(legacy.goldenCycles());
            ckpt.buildCheckpointPack(4);

            for (TargetStructure s : structures) {
                for (std::size_t i = 0; i < kInjections; ++i) {
                    const std::uint64_t seed = deriveSeed(
                        0xD1FF, static_cast<std::uint64_t>(s) * 1000 + i);
                    const InjectionResult a =
                        runIndexedInjection(legacy, s, seed, i);
                    const InjectionResult b =
                        runIndexedInjection(ckpt, s, seed, i);
                    EXPECT_EQ(a.fault.bitIndex, b.fault.bitIndex);
                    EXPECT_EQ(a.fault.cycle, b.fault.cycle);
                    EXPECT_EQ(a.outcome, b.outcome)
                        << wname << " on " << cfg.name << " "
                        << targetStructureName(s) << " bit "
                        << a.fault.bitIndex << " cycle " << a.fault.cycle;
                    EXPECT_EQ(a.trap, b.trap);
                    EXPECT_FALSE(a.converged()); // legacy never shortcuts
                    if (b.converged()) {
                        ++converged_total;
                        EXPECT_EQ(b.outcome, FaultOutcome::Masked);
                    }
                }
            }
        }
    }
    // The engine must actually shortcut a healthy share of the masked
    // population (deterministic given the fixed seeds).
    EXPECT_GT(converged_total, 0u);
}

/**
 * Delta restore under every fault behavior: the checkpointed engine's
 * outcome equals the legacy from-scratch engine's for each registry
 * structure x {transient, stuck-at-0, stuck-at-1, intermittent}.
 * Persistent behaviors exercise the restore path hardest — every
 * injection delta-restores and replays to completion (no hash early-out)
 * — so any page the revert missed would flip an outcome here.
 */
TEST(Checkpoint, DeltaRestoreAgreesAcrossBehaviors)
{
    constexpr std::size_t kInjections = 6;
    const FaultBehavior behaviors[] = {
        FaultBehavior::Transient, FaultBehavior::StuckAt0,
        FaultBehavior::StuckAt1, FaultBehavior::Intermittent};

    const GpuConfig cfg = test::smallCudaConfig();
    const char* wname = "reduction";
    const WorkloadInstance inst = buildFor(cfg, wname);
    const std::vector<TargetStructure> structures = selectStructures(
        cfg, makeWorkload(wname)->usesLocalMemory(), {});
    ASSERT_FALSE(structures.empty());

    FaultInjector legacy(cfg, inst);
    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(4);

    for (TargetStructure s : structures) {
        for (FaultBehavior behavior : behaviors) {
            const FaultShape shape{behavior, FaultPattern::SingleBit};
            const std::uint64_t seed =
                deriveSeed(0xBEEF, static_cast<std::uint64_t>(s) * 16 +
                                       static_cast<std::uint64_t>(behavior));
            for (std::size_t i = 0; i < kInjections; ++i) {
                const InjectionResult a =
                    runIndexedInjection(legacy, s, seed, i, shape);
                const InjectionResult b =
                    runIndexedInjection(ckpt, s, seed, i, shape);
                EXPECT_EQ(a.fault.bitIndex, b.fault.bitIndex);
                EXPECT_EQ(a.fault.cycle, b.fault.cycle);
                EXPECT_EQ(a.outcome, b.outcome)
                    << targetStructureName(s) << " "
                    << faultBehaviorName(behavior) << " bit "
                    << a.fault.bitIndex << " cycle " << a.fault.cycle;
                EXPECT_EQ(a.trap, b.trap);
            }
        }
    }
}

/**
 * The incremental dirty-page hash equals a from-scratch hash of the same
 * contents: interleaving hashInto() with randomized writes (exercising
 * the digest cache at every state) always matches a freshly built
 * duplicate that hashes once at the end.
 */
TEST(Checkpoint, DirtyPageHashMatchesFreshHash)
{
    Rng rng(0x9A6E5);
    WordStorage a(1000); // intentionally not a page multiple
    WordStorage b(1000);
    for (int round = 0; round < 20; ++round) {
        for (int w = 0; w < 37; ++w) {
            const auto idx = static_cast<std::uint32_t>(rng.below(1000));
            const auto val = static_cast<Word>(rng.below(1ull << 32));
            a.write(idx, val);
            b.write(idx, val);
        }
        // Hash `a` every round (cached digests + dirty recompute)...
        StateHash ha;
        a.hashInto(ha);
        // ...and a fresh copy of `b` (every page recomputed from scratch).
        WordStorage fresh(1000);
        for (std::uint32_t i = 0; i < 1000; ++i)
            fresh.write(i, b.read(i));
        StateHash hb;
        fresh.hashInto(hb);
        EXPECT_EQ(ha.value(), hb.value()) << "round " << round;
    }

    // Same property for the memory image.
    MemoryImage img;
    const Buffer buf = img.allocBuffer(1000);
    MemoryImage dup;
    const Buffer dup_buf = dup.allocBuffer(1000);
    for (int round = 0; round < 20; ++round) {
        for (int w = 0; w < 37; ++w) {
            const auto idx = static_cast<std::uint32_t>(rng.below(1000));
            const auto val = static_cast<Word>(rng.below(1ull << 32));
            img.setWord(buf, idx, val);
            dup.setWord(dup_buf, idx, val);
        }
        StateHash hi;
        img.hashInto(hi);
        MemoryImage fresh;
        const Buffer fresh_buf = fresh.allocBuffer(1000);
        for (std::uint32_t i = 0; i < 1000; ++i)
            fresh.setWord(fresh_buf, i, dup.getWord(dup_buf, i));
        StateHash hf;
        fresh.hashInto(hf);
        EXPECT_EQ(hi.value(), hf.value()) << "round " << round;
    }
}

/** The checkpoint budget is a pure perf knob: budgets 1, 6 and 16
 *  restore from different cycles yet classify every injection
 *  identically (and match the legacy engine —
 *  CampaignCountsInvariantUnderEngine covers that leg). */
TEST(Checkpoint, BudgetInvariantCampaignCounts)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");
    const auto rf = TargetStructure::VectorRegisterFile;

    std::vector<std::vector<Cycle>> placed;
    std::vector<CampaignResult> results;
    for (unsigned budget : {1u, 6u, 16u}) {
        // The pack runCampaign builds for this transient rf campaign.
        FaultInjector injector(cfg, inst);
        placed.push_back(deltaCycles(*injector.buildCheckpointPack(
            budget, {rf}, /*residency=*/false)));

        CampaignConfig cc;
        cc.plan.injections = 80;
        cc.numThreads = 2;
        cc.checkpoints = budget;
        results.push_back(runCampaign(cfg, inst, rf, cc));
    }
    EXPECT_NE(placed[0], placed[1]);
    EXPECT_NE(placed[1], placed[2]);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].masked, results[0].masked);
        EXPECT_EQ(results[i].sdc, results[0].sdc);
        EXPECT_EQ(results[i].due, results[0].due);
    }
}

/** The campaign path: checkpoints on vs off is count-for-count equal. */
TEST(Checkpoint, CampaignCountsInvariantUnderEngine)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "reduction");

    CampaignConfig legacy;
    legacy.plan.injections = 80;
    legacy.numThreads = 2;
    legacy.checkpoints = 0;

    CampaignConfig ckpt = legacy;
    ckpt.checkpoints = 6;

    const CampaignResult a = runCampaign(
        cfg, inst, TargetStructure::SharedMemory, legacy);
    const CampaignResult b =
        runCampaign(cfg, inst, TargetStructure::SharedMemory, ckpt);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.due, b.due);
}

/**
 * Regression: this exact fault (scan on the full-size FX 5600, LDS bit
 * 1325566 flipped at cycle 2619) once hash-"converged" spuriously.  The
 * flip is read into a register, leaving two single-bit differences at
 * bit 30 of odd-position words — bit 62 of the hash chunks — and the
 * original XOR-multiply hash was triangular mod 2^64, so the two
 * top-bit differences cancelled with probability ~1/4.  The rotate in
 * StateHash::round exists because of this fault; it must stay SDC.
 */
TEST(Checkpoint, HashIsNotTriangularRegression)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::QuadroFx5600);
    const WorkloadInstance inst = buildFor(cfg, "scan");

    FaultSpec fault;
    fault.structure = TargetStructure::SharedMemory;
    fault.bitIndex = 1325566;
    fault.cycle = 2619;

    FaultInjector legacy(cfg, inst);
    const InjectionResult a = legacy.inject(fault);
    ASSERT_EQ(a.outcome, FaultOutcome::Sdc);

    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(8);
    const InjectionResult b = ckpt.inject(fault);
    EXPECT_EQ(b.outcome, FaultOutcome::Sdc);
    EXPECT_FALSE(b.converged());
}

/** Dead-window prefilter edge: a fault in never-touched space is
 *  masked without simulation, and inject() agrees with a from-scratch
 *  run of the very same fault. */
TEST(Checkpoint, PrefilterAgreesOnUntouchedStorage)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst = buildFor(cfg, "vectoradd");

    FaultInjector legacy(cfg, inst);
    FaultInjector ckpt(cfg, inst);
    ckpt.adoptGoldenCycles(legacy.goldenCycles());
    ckpt.buildCheckpointPack(2);

    FaultSpec fault;
    fault.structure = TargetStructure::SharedMemory; // kernel uses none
    fault.bitIndex = 1234;
    fault.cycle = legacy.goldenCycles() / 2;

    const InjectionResult a = legacy.inject(fault);
    const InjectionResult b = ckpt.inject(fault);
    EXPECT_EQ(a.outcome, FaultOutcome::Masked);
    EXPECT_EQ(b.outcome, FaultOutcome::Masked);
    EXPECT_TRUE(b.converged());
}

} // namespace
} // namespace gpr
