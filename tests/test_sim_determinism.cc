/** @file Bit-level reproducibility of simulations — a prerequisite for
 *  statistical fault injection. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/structure_registry.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

TEST(SimDeterminism, RepeatedRunsAreIdentical)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("reduction");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});

    Gpu gpu(cfg);
    const RunResult a = gpu.run(inst.program, inst.launch, inst.image);
    const RunResult b = gpu.run(inst.program, inst.launch, inst.image);
    ASSERT_TRUE(a.clean());
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.warpInstructions, b.stats.warpInstructions);
    EXPECT_EQ(a.stats.globalTransactions, b.stats.globalTransactions);
    for (std::uint32_t i = 0; i < a.memory.sizeWords(); ++i)
        ASSERT_EQ(a.memory.readWord(i * 4), b.memory.readWord(i * 4));
}

TEST(SimDeterminism, FreshDeviceMatchesReusedDevice)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("scan");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});

    Gpu reused(cfg);
    reused.run(inst.program, inst.launch, inst.image); // warm it up
    const RunResult warm = reused.run(inst.program, inst.launch,
                                      inst.image);

    Gpu fresh(cfg);
    const RunResult cold = fresh.run(inst.program, inst.launch,
                                     inst.image);
    EXPECT_EQ(warm.stats.cycles, cold.stats.cycles);
    EXPECT_EQ(warm.stats.warpInstructions, cold.stats.warpInstructions);
}

TEST(SimDeterminism, FaultyRunsAreReproducible)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("vectoradd");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});

    RunOptions options;
    FaultSpec fault;
    fault.structure = TargetStructure::VectorRegisterFile;
    fault.bitIndex = 12345;
    fault.cycle = 100;
    options.fault = fault;

    Gpu gpu(cfg);
    const RunResult a =
        gpu.run(inst.program, inst.launch, inst.image, options);
    const RunResult b =
        gpu.run(inst.program, inst.launch, inst.image, options);
    EXPECT_EQ(a.trap, b.trap);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    for (std::uint32_t i = 0; i < a.memory.sizeWords(); ++i)
        ASSERT_EQ(a.memory.readWord(i * 4), b.memory.readWord(i * 4));
}

TEST(SimDeterminism, BothSchedulersAreDeterministic)
{
    for (SchedulerKind sched : {SchedulerKind::RoundRobin,
                                SchedulerKind::GreedyThenOldest}) {
        GpuConfig cfg = test::smallCudaConfig();
        cfg.scheduler = sched;
        const auto wl = makeWorkload("histogram");
        const WorkloadInstance inst = wl->build(cfg.dialect, {});
        Gpu gpu(cfg);
        const RunResult a = gpu.run(inst.program, inst.launch, inst.image);
        const RunResult b = gpu.run(inst.program, inst.launch, inst.image);
        ASSERT_TRUE(a.clean());
        EXPECT_EQ(a.stats.cycles, b.stats.cycles);
        std::string why;
        EXPECT_TRUE(verifyOutputs(inst, a.memory, &why)) << why;
        EXPECT_TRUE(verifyOutputs(inst, b.memory, &why)) << why;
    }
}

TEST(SimDeterminism, SchedulersDifferButBothVerify)
{
    GpuConfig rr = test::smallCudaConfig();
    rr.scheduler = SchedulerKind::RoundRobin;
    GpuConfig gto = test::smallCudaConfig();
    gto.scheduler = SchedulerKind::GreedyThenOldest;

    const auto wl = makeWorkload("matrixMul");
    const WorkloadInstance inst = wl->build(rr.dialect, {});

    Gpu a(rr), b(gto);
    const RunResult ra = a.run(inst.program, inst.launch, inst.image);
    const RunResult rb = b.run(inst.program, inst.launch, inst.image);
    ASSERT_TRUE(ra.clean());
    ASSERT_TRUE(rb.clean());
    std::string why;
    EXPECT_TRUE(verifyOutputs(inst, ra.memory, &why)) << why;
    EXPECT_TRUE(verifyOutputs(inst, rb.memory, &why)) << why;
    // The timing (not the functional result) is policy-dependent; the
    // two policies genuinely schedule differently on this kernel.
    EXPECT_NE(ra.stats.cycles, rb.stats.cycles);
}


// --- Pinned trajectories ---------------------------------------------------
// Every registered workload on the four paper GPUs (plus the other warp
// scheduler forced on one CUDA and one SI device), fingerprinted by its
// headline counters and a digest of the full-state hash stream the
// checkpoint recorder captures every kPinHashInterval cycles.  That
// stream folds in every warp's PC, masks, readyCycle and scoreboard, so
// any change to which warp issues when shows up here.  A mismatch prints
// the entry the current simulator would pin.

constexpr Cycle kPinHashInterval = 1024;

struct PinnedGolden
{
    const char* workload;
    GpuModel gpu;
    bool otherScheduler; ///< run with the device's non-default scheduler
    Cycle cycles;
    std::uint64_t warpInstructions;
    std::uint64_t globalTransactions;
    std::uint64_t bankConflictReplays;
    std::uint64_t hashDigest;
};

GpuConfig
pinnedConfig(GpuModel model, bool other_scheduler)
{
    GpuConfig cfg = gpuConfig(model);
    if (other_scheduler) {
        cfg.scheduler = cfg.scheduler == SchedulerKind::RoundRobin
                            ? SchedulerKind::GreedyThenOldest
                            : SchedulerKind::RoundRobin;
    }
    return cfg;
}

std::string
modelToken(GpuModel model)
{
    switch (model) {
      case GpuModel::HdRadeon7970:
        return "GpuModel::HdRadeon7970";
      case GpuModel::QuadroFx5600:
        return "GpuModel::QuadroFx5600";
      case GpuModel::QuadroFx5800:
        return "GpuModel::QuadroFx5800";
      case GpuModel::GeforceGtx480:
        return "GpuModel::GeforceGtx480";
    }
    return "?";
}

const PinnedGolden kPinnedGoldens[] = {
    {"backprop", GpuModel::HdRadeon7970, false,
     3083, 20096, 2112, 832, 0xa93b547faed49c0eULL},
    {"backprop", GpuModel::QuadroFx5600, false,
     9410, 38208, 2112, 1856, 0xef542871c9f60c10ULL},
    {"backprop", GpuModel::QuadroFx5800, false,
     4131, 38208, 2112, 1856, 0x37810f9b7bc003afULL},
    {"backprop", GpuModel::GeforceGtx480, false,
     3331, 38208, 2112, 0, 0x4e8a4988dff93dbeULL},
    {"backprop", GpuModel::GeforceGtx480, true,
     3775, 38208, 2112, 0, 0x148a18a98f25dca4ULL},
    {"backprop", GpuModel::HdRadeon7970, true,
     3063, 20096, 2112, 832, 0x281465602936d428ULL},
    {"dwtHaar1D", GpuModel::HdRadeon7970, false,
     1524, 6656, 2048, 2048, 0xa562c29a065ce700ULL},
    {"dwtHaar1D", GpuModel::QuadroFx5600, false,
     4466, 13312, 2048, 4096, 0x4e9ee39a6da8558dULL},
    {"dwtHaar1D", GpuModel::QuadroFx5800, false,
     1896, 13312, 2048, 4096, 0xedd199153112a2d3ULL},
    {"dwtHaar1D", GpuModel::GeforceGtx480, false,
     1646, 13312, 2048, 1024, 0x14b54c0fde9a4790ULL},
    {"dwtHaar1D", GpuModel::GeforceGtx480, true,
     1773, 13312, 2048, 1024, 0x531e65e18af8fe39ULL},
    {"dwtHaar1D", GpuModel::HdRadeon7970, true,
     1521, 6656, 2048, 2048, 0xdc91aad3f5f01a60ULL},
    {"gaussian", GpuModel::HdRadeon7970, false,
     1620, 1856, 1664, 0, 0x7946dd1bd62b5a6dULL},
    {"gaussian", GpuModel::QuadroFx5600, false,
     3264, 3712, 1792, 0, 0x93507bfd593b054dULL},
    {"gaussian", GpuModel::QuadroFx5800, false,
     1914, 3712, 1792, 0, 0x22a0ff9ee0c48bc9ULL},
    {"gaussian", GpuModel::GeforceGtx480, false,
     1860, 3712, 1792, 0, 0x30ba4402a75f9d85ULL},
    {"gaussian", GpuModel::GeforceGtx480, true,
     1856, 3712, 1792, 0, 0xbc0eb0328d4808e4ULL},
    {"gaussian", GpuModel::HdRadeon7970, true,
     1620, 1856, 1664, 0, 0xe27b79b41049d9fdULL},
    {"histogram", GpuModel::HdRadeon7970, false,
     2506, 7424, 18432, 3700, 0x6eacf7d7a1400062ULL},
    {"histogram", GpuModel::QuadroFx5600, false,
     21677, 14848, 18432, 7556, 0x61cae18d7735b069ULL},
    {"histogram", GpuModel::QuadroFx5800, false,
     2794, 14848, 18432, 7556, 0x351d028e1a80b49aULL},
    {"histogram", GpuModel::GeforceGtx480, false,
     2596, 14848, 18432, 4114, 0x32526c9d1f01e50aULL},
    {"histogram", GpuModel::GeforceGtx480, true,
     2713, 14848, 18432, 4114, 0xc3dad07245cb9467ULL},
    {"histogram", GpuModel::HdRadeon7970, true,
     2501, 7424, 18432, 3700, 0x4d73f876a5a7cdddULL},
    {"kmeans", GpuModel::HdRadeon7970, false,
     16093, 18816, 8448, 0, 0x494261ac38a05367ULL},
    {"kmeans", GpuModel::QuadroFx5600, false,
     40115, 37632, 12544, 0, 0xac1065b1b1d519e2ULL},
    {"kmeans", GpuModel::QuadroFx5800, false,
     19198, 37632, 12544, 0, 0xe5f4731ea59bf904ULL},
    {"kmeans", GpuModel::GeforceGtx480, false,
     18139, 37632, 12544, 0, 0x67b4e9703f7ebb43ULL},
    {"kmeans", GpuModel::GeforceGtx480, true,
     18193, 37632, 12544, 0, 0x7541984e303cd890ULL},
    {"kmeans", GpuModel::HdRadeon7970, true,
     16093, 18816, 8448, 0, 0xabe64247e38b9ac0ULL},
    {"matrixMul", GpuModel::HdRadeon7970, false,
     18088, 131840, 17408, 36864, 0x171e7bec33b8454cULL},
    {"matrixMul", GpuModel::QuadroFx5600, false,
     48829, 263680, 17408, 73728, 0xfc0da151b796510eULL},
    {"matrixMul", GpuModel::QuadroFx5800, false,
     28305, 263680, 17408, 73728, 0x4824340c15a4e5e7ULL},
    {"matrixMul", GpuModel::GeforceGtx480, false,
     18015, 263680, 17408, 0, 0x926ca2efb800394eULL},
    {"matrixMul", GpuModel::GeforceGtx480, true,
     18583, 263680, 17408, 0, 0x7ff7e8f9540f3a01ULL},
    {"matrixMul", GpuModel::HdRadeon7970, true,
     17573, 131840, 17408, 36864, 0xf847c17959e5cd7aULL},
    {"reduction", GpuModel::HdRadeon7970, false,
     1988, 17792, 1088, 832, 0xf1075e438ecafe91ULL},
    {"reduction", GpuModel::QuadroFx5600, false,
     5219, 33600, 1088, 1856, 0xf17902c4840c5de0ULL},
    {"reduction", GpuModel::QuadroFx5800, false,
     2960, 33600, 1088, 1856, 0x94380ca601cf91e7ULL},
    {"reduction", GpuModel::GeforceGtx480, false,
     2286, 33600, 1088, 0, 0x84b5faf20c34860dULL},
    {"reduction", GpuModel::GeforceGtx480, true,
     2606, 33600, 1088, 0, 0x59775227b27d1424ULL},
    {"reduction", GpuModel::HdRadeon7970, true,
     1965, 17792, 1088, 832, 0x7baab4df92ab5640ULL},
    {"scan", GpuModel::HdRadeon7970, false,
     4820, 50752, 4096, 39808, 0x43b186ea989a718cULL},
    {"scan", GpuModel::QuadroFx5600, false,
     17140, 91008, 4096, 68416, 0x5f84b1992bc28263ULL},
    {"scan", GpuModel::QuadroFx5800, false,
     8097, 91008, 4096, 68416, 0x3316bfbdc18892f7ULL},
    {"scan", GpuModel::GeforceGtx480, false,
     6796, 91008, 4096, 35648, 0xa1023cad0afcae14ULL},
    {"scan", GpuModel::GeforceGtx480, true,
     6860, 91008, 4096, 35648, 0x7cd7bf3642d62407ULL},
    {"scan", GpuModel::HdRadeon7970, true,
     4786, 50752, 4096, 39808, 0x86200e511c8322d9ULL},
    {"transpose", GpuModel::HdRadeon7970, false,
     1507, 6912, 2048, 2048, 0x9cca518fdac23aa6ULL},
    {"transpose", GpuModel::QuadroFx5600, false,
     4986, 13824, 2048, 8192, 0xbdc310dcfe078181ULL},
    {"transpose", GpuModel::QuadroFx5800, false,
     1868, 13824, 2048, 8192, 0xee5d331d65b720ddULL},
    {"transpose", GpuModel::GeforceGtx480, false,
     1609, 13824, 2048, 3584, 0xa5560e5a9f86afc2ULL},
    {"transpose", GpuModel::GeforceGtx480, true,
     1739, 13824, 2048, 3584, 0xa9433b240d3d55c7ULL},
    {"transpose", GpuModel::HdRadeon7970, true,
     1505, 6912, 2048, 2048, 0x191c9f7816a36de6ULL},
    {"vectoradd", GpuModel::HdRadeon7970, false,
     2516, 9216, 3072, 0, 0x7562a29f5b5d35f2ULL},
    {"vectoradd", GpuModel::QuadroFx5600, false,
     6349, 18432, 3072, 0, 0xc35d6cf198fc9efaULL},
    {"vectoradd", GpuModel::QuadroFx5800, false,
     3210, 18432, 3072, 0, 0x9a0fe555e2b48cd2ULL},
    {"vectoradd", GpuModel::GeforceGtx480, false,
     3110, 18432, 3072, 0, 0x05006e91a2fcadfaULL},
    {"vectoradd", GpuModel::GeforceGtx480, true,
     3248, 18432, 3072, 0, 0xe076fbb29d38b0deULL},
    {"vectoradd", GpuModel::HdRadeon7970, true,
     2472, 9216, 3072, 0, 0xdf4bc93f6cc50a9dULL},
};

TEST(SimDeterminism, GoldenTrajectoriesArePinned)
{
    // Every workload on the four paper GPUs, plus the GTX 480 forced to
    // round-robin and the 7970 forced to greedy-then-oldest.
    EXPECT_EQ(std::size(kPinnedGoldens),
              allWorkloadNames().size() * (allGpuModels().size() + 2));

    for (const PinnedGolden& p : kPinnedGoldens) {
        const GpuConfig cfg = pinnedConfig(p.gpu, p.otherScheduler);
        const WorkloadInstance inst =
            makeWorkload(p.workload)->build(cfg.dialect, {});
        CheckpointRecorder rec;
        RunOptions options;
        options.recorder = &rec;
        options.hashInterval = kPinHashInterval;
        Gpu gpu(cfg);
        const RunResult r =
            gpu.run(inst.program, inst.launch, inst.image, options);
        ASSERT_TRUE(r.clean()) << p.workload << " on " << cfg.name;
        StateHash digest;
        digest.mix(rec.hashes.size());
        for (std::uint64_t h : rec.hashes)
            digest.mix(h);

        char line[256];
        std::snprintf(
            line, sizeof line,
            "{\"%s\", %s, %s, %llu, %llu, %llu, %llu, 0x%016llxULL},",
            p.workload, modelToken(p.gpu).c_str(),
            p.otherScheduler ? "true" : "false",
            static_cast<unsigned long long>(r.stats.cycles),
            static_cast<unsigned long long>(r.stats.warpInstructions),
            static_cast<unsigned long long>(r.stats.globalTransactions),
            static_cast<unsigned long long>(
                r.stats.sharedBankConflictReplays),
            static_cast<unsigned long long>(digest.value()));
        EXPECT_TRUE(r.stats.cycles == p.cycles &&
                    r.stats.warpInstructions == p.warpInstructions &&
                    r.stats.globalTransactions == p.globalTransactions &&
                    r.stats.sharedBankConflictReplays ==
                        p.bankConflictReplays &&
                    digest.value() == p.hashDigest)
            << "trajectory changed; now pins " << line;
    }
}

struct PinnedFault
{
    const char* workload;
    GpuModel gpu;
    TargetStructure structure;
    FaultBehavior behavior;
    BitIndex bit;
    Cycle cycle;
    TrapKind trap;
    Cycle cycles;
};

// Fixed-cycle faults in the warp control state (predicate file, SIMT
// stack) and the register file, transient and stuck-at: the paths that
// change a warp's issue state from outside its own issue.
const PinnedFault kPinnedFaults[] = {
    {"reduction", GpuModel::GeforceGtx480, TargetStructure::PredicateFile,
     FaultBehavior::Transient, 3, 400, TrapKind::None, 2286},
    {"histogram", GpuModel::HdRadeon7970, TargetStructure::PredicateFile,
     FaultBehavior::StuckAt0, 583, 300, TrapKind::None, 2506},
    {"scan", GpuModel::QuadroFx5800, TargetStructure::PredicateFile,
     FaultBehavior::StuckAt1, 1, 2024, TrapKind::SharedOutOfBounds, 4479},
    {"histogram", GpuModel::HdRadeon7970, TargetStructure::SimtStack,
     FaultBehavior::Transient, 2, 626, TrapKind::None, 2731},
    {"histogram", GpuModel::HdRadeon7970, TargetStructure::SimtStack,
     FaultBehavior::StuckAt1, 2, 626, TrapKind::None, 2504},
    {"scan", GpuModel::QuadroFx5800, TargetStructure::SimtStack,
     FaultBehavior::StuckAt1, 162, 2024, TrapKind::None, 12365},
    {"reduction", GpuModel::GeforceGtx480, TargetStructure::SimtStack,
     FaultBehavior::Transient, 1, 571, TrapKind::InvalidControlFlow, 693},
    {"reduction", GpuModel::GeforceGtx480, TargetStructure::SimtStack,
     FaultBehavior::StuckAt0, 2, 571, TrapKind::Watchdog, 100015},
    {"matrixMul", GpuModel::QuadroFx5800, TargetStructure::SimtStack,
     FaultBehavior::StuckAt1, 1, 2000, TrapKind::None, 28203},
    {"matrixMul", GpuModel::GeforceGtx480,
     TargetStructure::VectorRegisterFile, FaultBehavior::Transient, 12345,
     1000, TrapKind::GlobalOutOfBounds, 1518},
    {"backprop", GpuModel::HdRadeon7970,
     TargetStructure::VectorRegisterFile, FaultBehavior::StuckAt1, 4321,
     100, TrapKind::None, 3083},
    {"kmeans", GpuModel::QuadroFx5600, TargetStructure::VectorRegisterFile,
     FaultBehavior::StuckAt0, 999, 5000, TrapKind::None, 40115},
};

TEST(SimDeterminism, FaultTrajectoriesArePinned)
{
    for (const PinnedFault& p : kPinnedFaults) {
        const GpuConfig& cfg = gpuConfig(p.gpu);
        const WorkloadInstance inst =
            makeWorkload(p.workload)->build(cfg.dialect, {});
        RunOptions options;
        FaultSpec fault;
        fault.structure = p.structure;
        fault.bitIndex = p.bit;
        fault.cycle = p.cycle;
        fault.behavior = p.behavior;
        options.fault = fault;
        options.maxCycles = 100000;
        Gpu gpu(cfg);
        const RunResult r =
            gpu.run(inst.program, inst.launch, inst.image, options);
        EXPECT_EQ(r.trap, p.trap)
            << p.workload << " " << targetStructureName(p.structure)
            << " bit " << p.bit << " @" << p.cycle << ": "
            << trapKindName(r.trap);
        EXPECT_EQ(r.stats.cycles, p.cycles)
            << p.workload << " " << targetStructureName(p.structure)
            << " bit " << p.bit << " @" << p.cycle;
    }
}

} // namespace
} // namespace gpr
