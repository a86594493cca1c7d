/** @file Tests for ACE lifetime accounting, driven both synthetically and
 *  through full simulations. */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "reliability/ace.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

constexpr auto kRf = TargetStructure::VectorRegisterFile;
constexpr auto kLds = TargetStructure::SharedMemory;

/** Synthetic event streams against a small config. */
class AceSynthetic : public ::testing::Test
{
  protected:
    GpuConfig cfg_ = test::smallCudaConfig();
};

TEST_F(AceSynthetic, WriteThenReadsCountsToLastRead)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 8, 0);
    ace.onWrite(kRf, 0, 3, 10);
    ace.onRead(kRf, 0, 3, 0, 20);
    ace.onRead(kRf, 0, 3, 0, 50);
    ace.onWrite(kRf, 0, 3, 70); // commits [10, 50]
    ace.onKernelEnd(100);        // second epoch never read: dead
    EXPECT_EQ(ace.aceUnitCycles(kRf), 40u);
}

TEST_F(AceSynthetic, DeadWriteCountsNothing)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 4, 0);
    ace.onWrite(kRf, 0, 1, 5);
    ace.onWrite(kRf, 0, 1, 25); // overwrite with no read between
    ace.onKernelEnd(50);
    EXPECT_EQ(ace.aceUnitCycles(kRf), 0u);
}

TEST_F(AceSynthetic, ConservativeModeExtendsToOverwrite)
{
    AceAnalyzer ace(cfg_, AceMode::Conservative);
    ace.onAlloc(kRf, 0, 0, 4, 0);
    ace.onWrite(kRf, 0, 1, 10);
    ace.onRead(kRf, 0, 1, 0, 15);
    ace.onWrite(kRf, 0, 1, 60); // conservative: [10, 60]
    ace.onKernelEnd(100);
    EXPECT_EQ(ace.aceUnitCycles(kRf), 50u);
}

TEST_F(AceSynthetic, FreeCommitsPendingInterval)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kLds, 1, 0, 16, 0);
    ace.onWrite(kLds, 1, 2, 10);
    ace.onRead(kLds, 1, 2, 0, 30);
    ace.onFree(kLds, 1, 0, 16, 40); // commits [10, 30]
    ace.onKernelEnd(80);
    EXPECT_EQ(ace.aceUnitCycles(kLds), 20u);
}

TEST_F(AceSynthetic, KernelEndCommitsOpenInterval)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 4, 0);
    ace.onWrite(kRf, 0, 0, 10);
    ace.onRead(kRf, 0, 0, 0, 90);
    ace.onKernelEnd(100); // commits [10, 90]
    EXPECT_EQ(ace.aceUnitCycles(kRf), 80u);
}

TEST_F(AceSynthetic, ReadOfUninitialisedAllocationIsConservative)
{
    // Allocation opens an epoch; reading it without a program write
    // counts from the alloc (undefined contents could matter).
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 4, 5);
    ace.onRead(kRf, 0, 2, 0, 35);
    ace.onKernelEnd(50);
    EXPECT_EQ(ace.aceUnitCycles(kRf), 30u);
}

TEST_F(AceSynthetic, SmIndexingSeparatesInstances)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 4, 0);
    ace.onAlloc(kRf, 1, 0, 4, 0);
    ace.onWrite(kRf, 0, 0, 10);
    ace.onRead(kRf, 1, 0, 0, 40); // different SM: separate word
    ace.onWrite(kRf, 0, 0, 50); // SM0 word unread => dead
    ace.onKernelEnd(60);
    // Only SM1's alloc-to-read interval counts: [0, 40].
    EXPECT_EQ(ace.aceUnitCycles(kRf), 40u);
}

TEST_F(AceSynthetic, TrafficTallyCountsReadsAndWritesOnly)
{
    AceAnalyzer ace(cfg_, AceMode::Standard);
    ace.onAlloc(kRf, 0, 0, 8, 0);
    ace.onAlloc(kRf, 1, 0, 8, 0);
    ace.onWrite(kRf, 0, 3, 10);
    ace.onRead(kRf, 0, 3, 0, 20);
    ace.onRead(kRf, 0, 3, 0, 30);
    ace.onRead(kRf, 0, 5, 0, 40);
    ace.onWrite(kRf, 1, 3, 50); // same word index, other SM
    ace.onFree(kRf, 0, 0, 8, 60);
    ace.onKernelEnd(100);

    const AccessSummary s = ace.accessSummary(kRf);
    EXPECT_EQ(s.structure, kRf);
    EXPECT_EQ(s.totalWords, std::uint64_t{cfg_.numSms} *
                                cfg_.regFileWordsPerSm);
    EXPECT_EQ(s.reads, 3u);
    EXPECT_EQ(s.writes, 2u);
    // SM0 word 3, SM0 word 5 and SM1 word 3; the 16 allocated words
    // nobody read or wrote are untouched.
    EXPECT_EQ(s.touchedWords, 3u);
    // Busiest tenth of 3 touched units = the single busiest: SM0 word 3
    // with 3 of the 5 accesses.
    EXPECT_DOUBLE_EQ(s.top10Share, 3.0 / 5.0);

    const AccessSummary lds = ace.accessSummary(kLds);
    EXPECT_EQ(lds.touchedWords, 0u);
    EXPECT_EQ(lds.reads + lds.writes, 0u);
    EXPECT_EQ(lds.top10Share, 0.0);
}

/** Full-simulation properties. */
TEST(AceAnalysis, AvfWithinBounds)
{
    const GpuConfig cfg = test::smallCudaConfig();
    for (auto name : {"vectoradd", "reduction", "histogram"}) {
        const auto wl = makeWorkload(name);
        const WorkloadInstance inst = wl->build(cfg.dialect, {});
        const AceResult r = runAceAnalysis(cfg, inst);
        for (const AceStructureResult& s : r.structures) {
            EXPECT_GE(s.avf(), 0.0) << name;
            EXPECT_LE(s.avf(), 1.0) << name;
        }
        // A word can only be ACE while allocated, so the structure AVF
        // cannot exceed its time-averaged occupancy (plus epsilon for
        // cycle-boundary accounting).
        EXPECT_LE(r.forStructure(kRf).avf(),
                  r.goldenStats.avgRegFileOccupancy + 0.02)
            << name;
        EXPECT_LE(r.forStructure(kLds).avf(),
                  r.goldenStats.avgSmemOccupancy + 0.02)
            << name;
    }
}

TEST(AceAnalysis, ConservativeDominatesStandard)
{
    const GpuConfig cfg = test::smallCudaConfig();
    for (auto name : {"vectoradd", "scan"}) {
        const auto wl = makeWorkload(name);
        const WorkloadInstance inst = wl->build(cfg.dialect, {});
        const AceResult std_mode =
            runAceAnalysis(cfg, inst, AceMode::Standard);
        const AceResult cons_mode =
            runAceAnalysis(cfg, inst, AceMode::Conservative);
        EXPECT_GE(cons_mode.forStructure(kRf).avf() + 1e-12,
                  std_mode.forStructure(kRf).avf())
            << name;
        EXPECT_GE(cons_mode.forStructure(kLds).avf() + 1e-12,
                  std_mode.forStructure(kLds).avf())
            << name;
    }
}

TEST(AceAnalysis, DeterministicAcrossRuns)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("transpose");
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    const AceResult a = runAceAnalysis(cfg, inst);
    const AceResult b = runAceAnalysis(cfg, inst);
    ASSERT_EQ(a.structures.size(), b.structures.size());
    for (std::size_t i = 0; i < a.structures.size(); ++i)
        EXPECT_EQ(a.structures[i].aceUnitCycles, b.structures[i].aceUnitCycles);
}

TEST(AceAnalysis, NoSharedUseMeansZeroLdsAce)
{
    const GpuConfig cfg = test::smallCudaConfig();
    const auto wl = makeWorkload("kmeans"); // no local memory
    const WorkloadInstance inst = wl->build(cfg.dialect, {});
    const AceResult r = runAceAnalysis(cfg, inst);
    EXPECT_EQ(r.forStructure(kLds).aceUnitCycles, 0u);
    EXPECT_GT(r.forStructure(kRf).aceUnitCycles, 0u);
}

TEST(AceAnalysis, UnitCyclesAndTrafficArePinned)
{
    // ACE unit-cycles and every access-profile field, per structure,
    // captured when the traffic profile was a separate observer: the
    // tally folded into the ACE pass must reproduce it exactly and must
    // not move the ACE counts.
    struct Pinned
    {
        const char* workload;
        GpuModel gpu;
        const char* structure;
        std::uint64_t aceUnitCycles;
        std::uint64_t totalWords;
        std::uint64_t touchedWords;
        std::uint64_t reads;
        std::uint64_t writes;
        double top10Share;
    };
    constexpr auto kFermi = GpuModel::GeforceGtx480;
    constexpr auto kTahiti = GpuModel::HdRadeon7970;
    constexpr auto kFx5600 = GpuModel::QuadroFx5600;
    constexpr auto kFx5800 = GpuModel::QuadroFx5800;
    const Pinned pinned[] = {
        {"vectoradd", kFermi, "rf", 106929536u, 491520u, 230400u, 589824u, 491520u, 0.16950757575757575},
        {"vectoradd", kFermi, "lds", 0u, 184320u, 0u, 0u, 0u, 0.0},
        {"vectoradd", kFermi, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"vectoradd", kFermi, "pred", 1137036u, 5760u, 480u, 5120u, 1024u, 0.140625},
        {"vectoradd", kFermi, "simt", 109352064u, 12240u, 480u, 18432u, 18432u, 0.140625},
        {"vectoradd", kFermi, "l1d", 0u, 63360u, 29832u, 163840u, 65536u, 0.6258108956473214},
        {"vectoradd", kFermi, "l1i", 17460890u, 31680u, 285u, 36864u, 0u, 0.525390625},
        {"vectoradd", kFermi, "l2", 1545987688u, 202752u, 101376u, 263168u, 65536u, 0.56603813765576327},
        {"vectoradd", kTahiti, "rf", 190398464u, 2097152u, 294912u, 393216u, 294912u, 0.17142740885416666},
        {"vectoradd", kTahiti, "lds", 0u, 524288u, 0u, 0u, 0u, 0.0},
        {"vectoradd", kTahiti, "srf", 139264u, 65536u, 3072u, 3072u, 3072u, 0.099934895833333329},
        {"vectoradd", kTahiti, "pred", 1024000u, 10240u, 512u, 2560u, 512u, 0.099609375},
        {"vectoradd", kTahiti, "simt", 164167680u, 21760u, 512u, 9216u, 9216u, 0.099609375},
        {"vectoradd", kTahiti, "l1d", 0u, 139264u, 34816u, 163840u, 65536u, 0.5901707240513393},
        {"vectoradd", kTahiti, "l1i", 8945536u, 69632u, 640u, 18432u, 0u, 0.5},
        {"vectoradd", kTahiti, "l2", 575877120u, 208896u, 104448u, 264192u, 65536u, 0.54222874611801242},
        {"vectoradd", kFx5600, "rf", 136952992u, 131072u, 122880u, 589824u, 491520u, 0.16666666666666666},
        {"vectoradd", kFx5600, "lds", 0u, 65536u, 0u, 0u, 0u, 0.0},
        {"vectoradd", kFx5600, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"vectoradd", kFx5600, "pred", 1392689u, 3072u, 256u, 5120u, 1024u, 0.09765625},
        {"vectoradd", kFx5600, "simt", 134119392u, 6528u, 256u, 18432u, 18432u, 0.09765625},
        {"vectoradd", kFx5600, "l1d", 0u, 34816u, 8704u, 163840u, 65536u, 0.6322980608258929},
        {"vectoradd", kFx5600, "l1i", 50412182u, 17408u, 320u, 36864u, 0u, 0.5},
        {"vectoradd", kFx5600, "l2", 211168776u, 26112u, 26112u, 264192u, 65536u, 0.52918769409937894},
        {"vectoradd", kFx5800, "rf", 229555520u, 491520u, 460800u, 589824u, 491520u, 0.18181818181818182},
        {"vectoradd", kFx5800, "lds", 0u, 122880u, 0u, 0u, 0u, 0.0},
        {"vectoradd", kFx5800, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"vectoradd", kFx5800, "pred", 2278740u, 7680u, 960u, 5120u, 1024u, 0.15625},
        {"vectoradd", kFx5800, "simt", 219154848u, 16320u, 960u, 18432u, 18432u, 0.15625},
        {"vectoradd", kFx5800, "l1d", 0u, 65280u, 32640u, 163840u, 65536u, 0.6065848214285714},
        {"vectoradd", kFx5800, "l1i", 26732720u, 32640u, 600u, 36864u, 0u, 0.5},
        {"vectoradd", kFx5800, "l2", 959505456u, 69632u, 69632u, 264192u, 65536u, 0.53788577251552794},
        {"reduction", kFermi, "rf", 130818668u, 491520u, 196672u, 491328u, 262016u, 0.3119756711409396},
        {"reduction", kFermi, "lds", 2192024u, 184320u, 16384u, 32704u, 32704u, 0.26100782778864973},
        {"reduction", kFermi, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"reduction", kFermi, "pred", 1745696u, 5760u, 1024u, 9728u, 4608u, 0.17075892857142858},
        {"reduction", kFermi, "simt", 95163324u, 12240u, 1088u, 38016u, 38016u, 0.23916245791245791},
        {"reduction", kFermi, "l1d", 298180u, 63360u, 31724u, 65600u, 128u, 0.56560370009737093},
        {"reduction", kFermi, "l1i", 47871782u, 31680u, 1410u, 67200u, 0u, 0.55863095238095239},
        {"reduction", kFermi, "l2", 1333818u, 202752u, 33858u, 67586u, 128u, 0.54997489440883718},
        {"reduction", kTahiti, "rf", 89945600u, 2097152u, 131136u, 393024u, 180096u, 0.28428775823562258},
        {"reduction", kTahiti, "lds", 3934464u, 524288u, 16384u, 32704u, 32704u, 0.26100782778864973},
        {"reduction", kTahiti, "srf", 968448u, 65536u, 1024u, 1536u, 1280u, 0.14488636363636365},
        {"reduction", kTahiti, "pred", 956416u, 10240u, 512u, 4864u, 2304u, 0.17075892857142858},
        {"reduction", kTahiti, "simt", 84280064u, 21760u, 576u, 20224u, 20224u, 0.27338805379746833},
        {"reduction", kTahiti, "l1d", 0u, 139264u, 34912u, 65600u, 128u, 0.52195411392405067},
        {"reduction", kTahiti, "l1i", 16866944u, 69632u, 3104u, 35584u, 0u, 0.53316097122302153},
        {"reduction", kTahiti, "l2", 248976u, 208896u, 34884u, 67716u, 128u, 0.5372324745003243},
        {"reduction", kFx5600, "rf", 177190198u, 131072u, 98336u, 491328u, 262016u, 0.31196106957777586},
        {"reduction", kFx5600, "lds", 4201980u, 65536u, 8192u, 32704u, 32704u, 0.26100782778864973},
        {"reduction", kFx5600, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"reduction", kFx5600, "pred", 2398560u, 3072u, 512u, 9728u, 4608u, 0.17075892857142858},
        {"reduction", kFx5600, "simt", 130881963u, 6528u, 544u, 38016u, 38016u, 0.23916245791245791},
        {"reduction", kFx5600, "l1d", 0u, 34816u, 17472u, 65600u, 128u, 0.53275620740019469},
        {"reduction", kFx5600, "l1i", 138712120u, 17408u, 1552u, 67200u, 0u, 0.53160714285714283},
        {"reduction", kFx5600, "l2", 3322410u, 26112u, 26112u, 67716u, 128u, 0.54775661812393139},
        {"reduction", kFx5800, "rf", 181356898u, 491520u, 196672u, 491328u, 262016u, 0.3119756711409396},
        {"reduction", kFx5800, "lds", 4479346u, 122880u, 16384u, 32704u, 32704u, 0.26100782778864973},
        {"reduction", kFx5800, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"reduction", kFx5800, "pred", 2473546u, 7680u, 1024u, 9728u, 4608u, 0.17075892857142858},
        {"reduction", kFx5800, "simt", 134737758u, 16320u, 1088u, 38016u, 38016u, 0.23916245791245791},
        {"reduction", kFx5800, "l1d", 0u, 65280u, 34874u, 65600u, 128u, 0.52247139727361247},
        {"reduction", kFx5800, "l1i", 26455646u, 32640u, 2910u, 67200u, 0u, 0.54053571428571423},
        {"reduction", kFx5800, "l2", 1234506u, 69632u, 34884u, 67716u, 128u, 0.5372324745003243},
        {"histogram", kFermi, "rf", 174020512u, 491520u, 212992u, 475136u, 327680u, 0.2122429049744898},
        {"histogram", kFermi, "lds", 36715328u, 184320u, 16384u, 81920u, 81920u, 0.29291992187499999},
        {"histogram", kFermi, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"histogram", kFermi, "pred", 0u, 5760u, 0u, 0u, 0u, 0.0},
        {"histogram", kFermi, "simt", 116932608u, 12240u, 512u, 14848u, 14848u, 0.099609375},
        {"histogram", kFermi, "l1d", 0u, 63360u, 35904u, 131072u, 0u, 0.5572662353515625},
        {"histogram", kFermi, "l1i", 17545458u, 31680u, 450u, 29696u, 0u, 0.54040948275862066},
        {"histogram", kFermi, "l2", 3605664u, 202752u, 67848u, 180488u, 32768u, 0.71365870127921371},
        {"histogram", kTahiti, "rf", 137736192u, 2097152u, 147456u, 393216u, 245760u, 0.18460787259615385},
        {"histogram", kTahiti, "lds", 39059456u, 524288u, 16384u, 81920u, 81920u, 0.29291992187499999},
        {"histogram", kTahiti, "srf", 631744u, 65536u, 1024u, 1280u, 1280u, 0.15937499999999999},
        {"histogram", kTahiti, "pred", 0u, 10240u, 0u, 0u, 0u, 0.0},
        {"histogram", kTahiti, "simt", 99921920u, 21760u, 256u, 7424u, 7424u, 0.09765625},
        {"histogram", kTahiti, "l1d", 0u, 139264u, 69632u, 131072u, 0u, 0.52187347412109375},
        {"histogram", kTahiti, "l1i", 19822080u, 69632u, 992u, 14848u, 0u, 0.51885775862068961},
        {"histogram", kTahiti, "l2", 1161888u, 208896u, 69904u, 180496u, 32768u, 0.70499474829319531},
        {"histogram", kFx5600, "rf", 854675168u, 131072u, 106496u, 475136u, 327680u, 0.21223294005102042},
        {"histogram", kFx5600, "lds", 173367296u, 65536u, 8192u, 81920u, 81920u, 0.28248291015624999},
        {"histogram", kFx5600, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"histogram", kFx5600, "pred", 0u, 3072u, 0u, 0u, 0u, 0.0},
        {"histogram", kFx5600, "simt", 527278080u, 6528u, 256u, 14848u, 14848u, 0.09765625},
        {"histogram", kFx5600, "l1d", 0u, 34816u, 34816u, 131072u, 0u, 0.53279876708984375},
        {"histogram", kFx5600, "l1i", 205276480u, 17408u, 496u, 29696u, 0u, 0.51831896551724133},
        {"histogram", kFx5600, "l2", 4835376u, 26112u, 26112u, 180768u, 32768u, 0.7069955417353514},
        {"histogram", kFx5800, "rf", 191530784u, 491520u, 212992u, 475136u, 327680u, 0.2122429049744898},
        {"histogram", kFx5800, "lds", 40901376u, 122880u, 16384u, 81920u, 81920u, 0.29291992187499999},
        {"histogram", kFx5800, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"histogram", kFx5800, "pred", 0u, 7680u, 0u, 0u, 0u, 0.0},
        {"histogram", kFx5800, "simt", 130569024u, 16320u, 512u, 14848u, 14848u, 0.099609375},
        {"histogram", kFx5800, "l1d", 0u, 65280u, 65280u, 131072u, 0u, 0.541015625},
        {"histogram", kFx5800, "l1i", 20274210u, 32640u, 930u, 29696u, 0u, 0.52667025862068961},
        {"histogram", kFx5800, "l2", 1699152u, 69632u, 69632u, 180496u, 32768u, 0.70614355915672589},
        {"scan", kFermi, "rf", 416577323u, 491520u, 229440u, 1652928u, 948928u, 0.42796526787032024},
        {"scan", kFermi, "lds", 123757006u, 184320u, 32768u, 163584u, 130944u, 0.24341318991742719},
        {"scan", kFermi, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"scan", kFermi, "pred", 4510775u, 5760u, 1024u, 19968u, 9728u, 0.18547952586206898},
        {"scan", kFermi, "simt", 314614337u, 12240u, 1088u, 100864u, 100864u, 0.30389435279187815},
        {"scan", kFermi, "l1d", 69632u, 63360u, 31680u, 98304u, 65536u, 0.65195312500000002},
        {"scan", kFermi, "l1i", 354868982u, 31680u, 5250u, 182016u, 0u, 0.5802127285513361},
        {"scan", kFermi, "l2", 1472313760u, 202752u, 67584u, 197632u, 65536u, 0.55563746352140075},
        {"scan", kTahiti, "rf", 212140960u, 2097152u, 163904u, 1571008u, 883392u, 0.36431225554106911},
        {"scan", kTahiti, "lds", 102371456u, 524288u, 32768u, 163584u, 130944u, 0.24341318991742719},
        {"scan", kTahiti, "srf", 2375808u, 65536u, 1024u, 1280u, 1024u, 0.1328125},
        {"scan", kTahiti, "pred", 2046208u, 10240u, 512u, 9984u, 4864u, 0.18547952586206898},
        {"scan", kTahiti, "simt", 220926144u, 21760u, 576u, 56128u, 56128u, 0.35645310718358036},
        {"scan", kTahiti, "l1d", 278528u, 139264u, 34816u, 98304u, 65536u, 0.61749267578125},
        {"scan", kTahiti, "l1i", 55146304u, 69632u, 11552u, 101504u, 0u, 0.54311160151324089},
        {"scan", kTahiti, "l2", 151097344u, 208896u, 69632u, 198656u, 65536u, 0.53643183745155043},
        {"scan", kFx5600, "rf", 634849688u, 131072u, 114720u, 1652928u, 948928u, 0.42796526787032024},
        {"scan", kFx5600, "lds", 176522242u, 65536u, 16384u, 163584u, 130944u, 0.24341318991742719},
        {"scan", kFx5600, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"scan", kFx5600, "pred", 6853988u, 3072u, 512u, 19968u, 9728u, 0.18547952586206898},
        {"scan", kFx5600, "simt", 460739252u, 6528u, 544u, 100864u, 100864u, 0.30389435279187815},
        {"scan", kFx5600, "l1d", 890256u, 34816u, 19040u, 98304u, 65536u, 0.62871093749999996},
        {"scan", kFx5600, "l1i", 1731002266u, 17408u, 5776u, 182016u, 0u, 0.54307313642756683},
        {"scan", kFx5600, "l2", 462205040u, 26112u, 26112u, 198656u, 65536u, 0.5323590419089147},
        {"scan", kFx5800, "rf", 550341894u, 491520u, 229440u, 1652928u, 948928u, 0.42796526787032024},
        {"scan", kFx5800, "lds", 180100934u, 122880u, 32768u, 163584u, 130944u, 0.24341318991742719},
        {"scan", kFx5800, "srf", 0u, 0u, 0u, 0u, 0u, 0.0},
        {"scan", kFx5800, "pred", 5967238u, 7680u, 1024u, 19968u, 9728u, 0.18547952586206898},
        {"scan", kFx5800, "simt", 422205604u, 16320u, 1088u, 100864u, 100864u, 0.30389435279187815},
        {"scan", kFx5800, "l1d", 1084736u, 65280u, 34816u, 98304u, 65536u, 0.61749267578125},
        {"scan", kFx5800, "l1i", 115062144u, 32640u, 10830u, 182016u, 0u, 0.55643459915611815},
        {"scan", kFx5800, "l2", 867441856u, 69632u, 69632u, 198656u, 65536u, 0.53643183745155043},
    };
    ASSERT_EQ(std::size(pinned), 4 * 4 * kNumTargetStructures);

    for (std::size_t pair = 0; pair < std::size(pinned);
         pair += kNumTargetStructures) {
        const Pinned& first = pinned[pair];
        const GpuConfig& cfg = gpuConfig(first.gpu);
        const WorkloadInstance inst =
            makeWorkload(first.workload)->build(cfg.dialect, {});
        const AceResult ace = runAceAnalysis(cfg, inst);
        const AccessProfileResult profile = profileAccesses(cfg, inst);
        for (std::size_t i = pair; i < pair + kNumTargetStructures; ++i) {
            const Pinned& p = pinned[i];
            ASSERT_EQ(std::strcmp(p.workload, first.workload), 0);
            ASSERT_EQ(p.gpu, first.gpu);
            const TargetStructure id = targetStructureFromName(p.structure);
            const AccessSummary& s = profile.forStructure(id);
            const std::string where = std::string(p.workload) + " on " +
                                      cfg.name + ", " + p.structure;
            EXPECT_EQ(ace.forStructure(id).aceUnitCycles, p.aceUnitCycles)
                << where;
            EXPECT_EQ(s.totalWords, p.totalWords) << where;
            EXPECT_EQ(s.touchedWords, p.touchedWords) << where;
            EXPECT_EQ(s.reads, p.reads) << where;
            EXPECT_EQ(s.writes, p.writes) << where;
            EXPECT_EQ(s.top10Share, p.top10Share) << where;
        }
    }
}

} // namespace
} // namespace gpr
