/**
 * @file
 * Cache-hierarchy fault targets: CacheModel semantics at unit scale
 * (tag / valid / data faults and their writeback consequences), the
 * misaligned-address trap the caches made necessary, registry coverage
 * across all four paper GPUs, the legacy-vs-checkpoint differential
 * battery over l1d/l1i/l2 for every fault behavior, and the exact
 * dead-window prefilter on cache data words (every verdict checked
 * against the from-scratch engine).
 */

#include <array>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "isa/builder.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/cache.hh"
#include "sim/structure_registry.hh"
#include "sim_test_util.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

constexpr auto kL1d = TargetStructure::L1DataCache;
constexpr auto kL1i = TargetStructure::L1InstructionCache;
constexpr auto kL2 = TargetStructure::L2Cache;

// A tiny 4-line x 4-word write-back cache (the L2 flavor) over a
// 64-word image.  lineBytes = 16, so addr A maps to line (A/16) % 4.
struct SmallCache
{
    MemoryImage img;
    Buffer buf;
    CacheModel l2{kL2, 0, 4, 4};

    SmallCache() { buf = img.allocBuffer(64); }
};

TEST(CacheModel, FaultFreeReadsAndWritesAreTransparent)
{
    SmallCache s;
    s.img.writeWord(0, 0x1234);
    const CacheModel::Access a = s.l2.read(0, nullptr, s.img, nullptr, 0);
    ASSERT_FALSE(a.trap.has_value());
    EXPECT_EQ(a.value, 0x1234u);

    ASSERT_FALSE(
        s.l2.write(4, 0xBEEF, nullptr, s.img, nullptr, 1).has_value());
    const CacheModel::Access b = s.l2.read(4, nullptr, s.img, nullptr, 2);
    EXPECT_EQ(b.value, 0xBEEFu);
    // Write-back: the store is cached, not yet in the image...
    EXPECT_EQ(s.img.readWord(4), 0u);
    // ...until the dirty line is flushed.
    ASSERT_FALSE(
        s.l2.flushDirty(nullptr, s.img, nullptr, 3).has_value());
    EXPECT_EQ(s.img.readWord(4), 0xBEEFu);
}

TEST(CacheModel, TagFaultMisalignedWritebackTraps)
{
    SmallCache s;
    ASSERT_FALSE(
        s.l2.write(0, 0xAA, nullptr, s.img, nullptr, 0).has_value());
    // Line 0's tag is 0; setting tag bit 0 makes the writeback address
    // 1 — detectably misaligned, the delayed DUE the old silent
    // align-down used to swallow.
    s.l2.flipBit(0);
    const auto trap = s.l2.flushDirty(nullptr, s.img, nullptr, 1);
    ASSERT_TRUE(trap.has_value());
    EXPECT_EQ(*trap, TrapKind::MisalignedAddress);
}

TEST(CacheModel, TagFaultOutOfBoundsWritebackTraps)
{
    SmallCache s;
    ASSERT_FALSE(
        s.l2.write(0, 0xAA, nullptr, s.img, nullptr, 0).has_value());
    // Tag bit 20: writeback address 1 MiB, far past the 256-byte image.
    s.l2.flipBit(20);
    const auto trap = s.l2.flushDirty(nullptr, s.img, nullptr, 1);
    ASSERT_TRUE(trap.has_value());
    EXPECT_EQ(*trap, TrapKind::GlobalOutOfBounds);
}

TEST(CacheModel, TagFaultWordAlignedInBoundsWritesSilentlyWrongAddress)
{
    SmallCache s;
    ASSERT_FALSE(
        s.l2.write(0, 0xAA, nullptr, s.img, nullptr, 0).has_value());
    // Tag bit 4 turns line base 0 into 16: word-aligned, in bounds —
    // undetectable, the line lands at the wrong address (stale SDC).
    s.l2.flipBit(4);
    ASSERT_FALSE(
        s.l2.flushDirty(nullptr, s.img, nullptr, 1).has_value());
    EXPECT_EQ(s.img.readWord(0), 0u) << "the store never reached word 0";
    EXPECT_EQ(s.img.readWord(16), 0xAAu);
}

TEST(CacheModel, TagFaultTurnsMissIntoStaleHit)
{
    SmallCache s;
    s.img.writeWord(0, 0x1111);
    s.img.writeWord(64, 0x2222);
    ASSERT_FALSE(
        s.l2.read(0, nullptr, s.img, nullptr, 0).trap.has_value());
    // Addr 64 also maps to line 0 (base 64).  Corrupting the cached tag
    // from 0 to 64 makes that access a *hit* on line 0's stale data.
    s.l2.flipBit(6);
    const CacheModel::Access a = s.l2.read(64, nullptr, s.img, nullptr, 1);
    ASSERT_FALSE(a.trap.has_value());
    EXPECT_EQ(a.value, 0x1111u) << "expected the stale cached word";
}

TEST(CacheModel, ValidBitFaultForcesMissAndRefetch)
{
    SmallCache s;
    s.img.writeWord(0, 0x1234);
    ASSERT_FALSE(
        s.l2.read(0, nullptr, s.img, nullptr, 0).trap.has_value());

    // Corrupt the cached copy (data bit 0 of line 0's word 0)...
    s.l2.flipBit(34);
    EXPECT_EQ(s.l2.read(0, nullptr, s.img, nullptr, 1).value, 0x1235u);

    // ...then knock the valid bit out: the next access misses and
    // refetches the uncorrupted word from memory — masked.
    s.l2.flipBit(32);
    EXPECT_EQ(s.l2.read(0, nullptr, s.img, nullptr, 2).value, 0x1234u);
}

TEST(CacheModel, ForceBitIsIdempotentAndFlipSelfInverts)
{
    SmallCache s;
    ASSERT_FALSE(
        s.l2.read(0, nullptr, s.img, nullptr, 0).trap.has_value());
    StateHash before;
    s.l2.hashInto(before);

    s.l2.forceBit(34, true);
    s.l2.forceBit(34, true); // persistent reassert: no further change
    StateHash forced;
    s.l2.hashInto(forced);
    EXPECT_NE(before.value(), forced.value());

    s.l2.flipBit(34);
    s.l2.forceBit(34, false); // already clear: idempotent
    StateHash back;
    s.l2.hashInto(back);
    EXPECT_EQ(before.value(), back.value());
}

TEST(CacheModel, InstructionFetchIsIdentityUntilFaulted)
{
    CacheModel l1i(kL1i, 0, 4, 4);
    for (std::uint32_t pc : {0u, 1u, 5u, 17u, 16u, 5u})
        EXPECT_EQ(l1i.fetchInst(pc, nullptr, 0), pc);

    // pc 5 lives in line 1 slot 1; its data bits start at
    // 1*cacheLineBits + 34 + 1*32.  Flipping bit 0 there makes the
    // fetch return instruction index 4 instead of 5.
    const std::uint64_t bit = cacheLineBits(4) + 34 + 32;
    l1i.flipBit(bit);
    EXPECT_EQ(l1i.fetchInst(5, nullptr, 1), 4u);
    // Other slots of the line are untouched.
    EXPECT_EQ(l1i.fetchInst(6, nullptr, 2), 6u);
}

TEST(CacheRegistry, CacheRowsApplyOnAllFourPaperGpus)
{
    for (GpuModel m : {GpuModel::HdRadeon7970, GpuModel::QuadroFx5600,
                       GpuModel::QuadroFx5800, GpuModel::GeforceGtx480}) {
        const GpuConfig& cfg = gpuConfig(m);
        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            EXPECT_GT(structureBitsTotal(cfg, s), 0u) << cfg.name;
            EXPECT_GT(structureAceUnitsTotal(cfg, s), 0u) << cfg.name;
            EXPECT_TRUE(structureApplies(cfg, s, false)) << cfg.name;
        }
        // The shared L2 is chip-scoped: totals must not scale with SMs.
        GpuConfig one_sm = cfg;
        one_sm.numSms = 1;
        EXPECT_EQ(structureBitsTotal(cfg, kL2),
                  structureBitsTotal(one_sm, kL2));
        EXPECT_EQ(structureBitsTotal(cfg, kL1d),
                  structureBitsTotal(one_sm, kL1d) * cfg.numSms);
    }

    // Geometry identity: bits = lines x (34 + 32*lineWords).
    const GpuConfig& gtx = gpuConfig(GpuModel::GeforceGtx480);
    EXPECT_EQ(structureBitsTotal(gtx, kL2),
              gtx.l2Lines() * cacheLineBits(gtx.cacheLineWords()));
}

TEST(CacheFaults, MisalignedLoadTrapsInsteadOfAligningDown)
{
    // Regression for the silent align-down: a load from a misaligned
    // global address must classify as a DUE (MisalignedAddress), not
    // quietly read the enclosing word.
    KernelBuilder kb("misaligned", IsaDialect::Cuda);
    const Operand addr = kb.uniformReg();
    const Operand v = kb.vreg();
    kb.ldparam(addr, 0);
    kb.ldg(v, addr, 0);
    kb.stg(addr, v, 4);
    kb.exit();
    const Program prog = kb.finish();

    MemoryImage img;
    const Buffer buf = img.allocBuffer(4);
    LaunchConfig launch;
    launch.blockX = 1;
    launch.gridX = 1;
    launch.addParamAddr(buf.byteAddr + 1); // misaligned by one byte

    const RunResult r =
        test::runProgram(test::smallCudaConfig(), prog, launch, img);
    EXPECT_EQ(r.trap, TrapKind::MisalignedAddress);
}

TEST(CacheFaults, DifferentialAcrossEnginesAllBehaviors)
{
    // For every fault behavior, an injection into l1d/l1i/l2 through
    // the checkpoint-restore engine must classify exactly like the
    // from-scratch engine.  Transient faults may take the data-word
    // dead-window prefilter or converge onto the golden trajectory
    // hash; cache persistence mutates the raw word, so the persistent
    // fast path (residency, hash early-out) must never shortcut them.
    constexpr std::size_t kInjections = 10;
    constexpr FaultBehavior kBehaviors[] = {
        FaultBehavior::Transient, FaultBehavior::StuckAt0,
        FaultBehavior::StuckAt1, FaultBehavior::Intermittent};
    const GpuConfig configs[] = {test::smallCudaConfig(),
                                 test::smallSiConfig()};

    std::size_t unmasked_total = 0;
    for (const GpuConfig& cfg : configs) {
        const WorkloadInstance inst =
            makeWorkload("reduction")->build(cfg.dialect, {});
        FaultInjector legacy(cfg, inst);
        FaultInjector ckpt(cfg, inst);
        ckpt.adoptGoldenCycles(legacy.goldenCycles());
        ckpt.buildCheckpointPack(4);

        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            for (FaultBehavior behavior : kBehaviors) {
                const FaultShape shape{behavior, FaultPattern::SingleBit};
                for (std::size_t i = 0; i < kInjections; ++i) {
                    const std::uint64_t seed = deriveSeed(
                        0xCACE, static_cast<std::uint64_t>(s) * 100 + i);
                    const InjectionResult a =
                        runIndexedInjection(legacy, s, seed, i, shape);
                    const InjectionResult b =
                        runIndexedInjection(ckpt, s, seed, i, shape);
                    EXPECT_EQ(a.fault.bitIndex, b.fault.bitIndex);
                    EXPECT_EQ(a.fault.cycle, b.fault.cycle);
                    EXPECT_EQ(a.outcome, b.outcome)
                        << cfg.name << " " << targetStructureName(s)
                        << " " << faultBehaviorName(behavior) << " bit "
                        << a.fault.bitIndex << " cycle " << a.fault.cycle;
                    EXPECT_EQ(a.trap, b.trap);
                    EXPECT_EQ(a.shortcut, InjectionShortcut::None);
                    if (behavior == FaultBehavior::Transient) {
                        EXPECT_NE(b.shortcut,
                                  InjectionShortcut::ValueResidency);
                        if (b.shortcut != InjectionShortcut::None) {
                            EXPECT_EQ(b.outcome, FaultOutcome::Masked);
                        }
                    } else {
                        EXPECT_EQ(b.shortcut, InjectionShortcut::None);
                    }
                    if (a.outcome != FaultOutcome::Masked)
                        ++unmasked_total;
                }
            }
        }

        // Targeted phase: random bits rarely land in resident lines of
        // a multi-kilobyte cache, but line 0 of the L1i holds the hot
        // low instruction slots of every kernel, so corrupting them
        // manifests.  Both engines must agree here too.
        for (FaultBehavior behavior : kBehaviors) {
            for (std::uint32_t slot : {1u, 2u, 3u, 5u}) {
                FaultSpec f;
                f.structure = kL1i;
                f.bitIndex = 34 + slot * 32 + 1; // SM 0, line 0, bit 1
                f.cycle = legacy.goldenCycles() / 4;
                f.behavior = behavior;
                if (behavior == FaultBehavior::Intermittent) {
                    f.intermittentPeriod = 16;
                    f.intermittentActive = 8;
                    f.intermittentValue = true;
                }
                const InjectionResult a = legacy.inject(f);
                const InjectionResult b = ckpt.inject(f);
                EXPECT_EQ(a.outcome, b.outcome)
                    << cfg.name << " targeted slot " << slot << " "
                    << faultBehaviorName(behavior);
                EXPECT_EQ(a.trap, b.trap);
                if (a.outcome != FaultOutcome::Masked)
                    ++unmasked_total;
            }
        }
    }
    // The sweep must hit real failures, or it proves nothing.
    EXPECT_GT(unmasked_total, 0u);
}

/** Does the aligned group of @p fault touch a bit without exact
 *  windows (cache metadata)? */
bool
touchesMetadata(const GpuConfig& cfg, const FaultSpec& fault)
{
    const unsigned width = faultPatternWidth(fault.pattern);
    const std::uint64_t per_instance =
        structureSpec(fault.structure).bitsPerSm(cfg);
    const std::uint64_t first =
        fault.bitIndex - fault.bitIndex % per_instance % width;
    for (std::uint64_t bit = first; bit < first + width; ++bit) {
        if (exactWindowUnit(cfg, fault.structure, bit) == kNoExactUnit)
            return true;
    }
    return false;
}

/** A legacy + checkpointed injector pair over reduction on @p cfg. */
struct EnginePair
{
    WorkloadInstance inst;
    FaultInjector legacy;
    FaultInjector ckpt;

    explicit EnginePair(const GpuConfig& cfg)
        : inst(makeWorkload("reduction")->build(cfg.dialect, {})),
          legacy(cfg, inst), ckpt(cfg, inst)
    {
        ckpt.adoptGoldenCycles(legacy.goldenCycles());
        ckpt.buildCheckpointPack(4);
    }

    /** Inject @p f through the checkpoint engine; a DeadWindow verdict
     *  must match the from-scratch engine (Masked, no trap). */
    InjectionResult
    injectChecked(const FaultSpec& f)
    {
        const InjectionResult b = ckpt.inject(f);
        if (b.shortcut == InjectionShortcut::DeadWindow) {
            const InjectionResult a = legacy.inject(f);
            EXPECT_EQ(a.outcome, FaultOutcome::Masked)
                << targetStructureName(f.structure) << " bit "
                << f.bitIndex << " cycle " << f.cycle << " pattern "
                << faultPatternName(f.pattern);
            EXPECT_EQ(a.trap, TrapKind::None);
        }
        return b;
    }
};

TEST(CacheFaults, DeadWindowVerdictsMatchLegacyAcrossPatterns)
{
    // Random transient faults of every pattern on both dialects: every
    // dead-window verdict is exactly what a from-scratch run gives, a
    // group touching tag/valid/dirty is never prefiltered, and every
    // pattern does get prefiltered verdicts.
    constexpr std::size_t kInjections = 12;
    constexpr FaultPattern kPatterns[] = {FaultPattern::SingleBit,
                                          FaultPattern::AdjacentDouble,
                                          FaultPattern::AdjacentQuad};
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        EnginePair e(cfg);
        for (FaultPattern pattern : kPatterns) {
            std::size_t dead = 0;
            for (TargetStructure s : {kL1d, kL1i, kL2}) {
                const FaultShape shape{FaultBehavior::Transient, pattern};
                for (std::size_t i = 0; i < kInjections; ++i) {
                    Rng rng(deriveSeed(
                        0xDEAD, static_cast<std::uint64_t>(s) * 100 + i));
                    const FaultSpec f = e.ckpt.sampleRandom(s, rng, shape);
                    const InjectionResult b = e.injectChecked(f);
                    if (b.shortcut != InjectionShortcut::DeadWindow)
                        continue;
                    ++dead;
                    EXPECT_FALSE(touchesMetadata(cfg, f))
                        << "metadata group prefiltered: bit "
                        << f.bitIndex;
                }
            }
            EXPECT_GT(dead, 0u) << cfg.name << " "
                                << faultPatternName(pattern);
        }
    }
}

TEST(CacheFaults, MetadataBitsAreNeverPrefiltered)
{
    // Tag, valid and dirty bits of a line whose data words are dead
    // for the whole run: a classifier that mapped metadata onto the
    // data units would call every one of them dead.
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        EnginePair e(cfg);
        const FaultWindows& windows = e.ckpt.checkpointPack()->windows;
        const std::uint64_t line_bits =
            cacheLineBits(cfg.cacheLineWords());
        const Cycle cycle = e.legacy.goldenCycles() / 2;
        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            ASSERT_TRUE(windows.enabled(s)) << targetStructureName(s);
            const std::uint64_t lines =
                structureSpec(s).bitsPerSm(cfg) / line_bits;
            // The last line never fills on reduction's small footprint.
            const std::uint64_t base = (lines - 1) * line_bits;
            for (std::uint64_t j = 0; j < cfg.cacheLineWords(); ++j) {
                const std::uint64_t unit = exactWindowUnit(
                    cfg, s, base + kCacheLineMetaBits + 32 * j);
                ASSERT_NE(unit, kNoExactUnit);
                ASSERT_FALSE(windows.observed(s, unit, cycle));
            }
            for (std::uint64_t bit = 0; bit < kCacheLineMetaBits; ++bit) {
                EXPECT_EQ(exactWindowUnit(cfg, s, base + bit),
                          kNoExactUnit);
                const InjectionResult r =
                    e.injectChecked(FaultSpec{s, base + bit, cycle});
                EXPECT_NE(r.shortcut, InjectionShortcut::DeadWindow)
                    << targetStructureName(s) << " metadata bit " << bit;
            }
            // The first data bit of the same line is prefiltered.
            EXPECT_EQ(e.injectChecked(
                           FaultSpec{s, base + kCacheLineMetaBits, cycle})
                          .shortcut,
                      InjectionShortcut::DeadWindow);
        }
    }
}

TEST(CacheFaults, QuadGroupsStraddlingUnitsClassifyPerUnit)
{
    // A line is 34 + 32*lineWords bits (2 mod 4), so on an even line
    // the aligned quad groups straddle valid/dirty + data word 0, each
    // pair of adjacent data words, and the last data word + the next
    // line's tag.  On line 0 of every cache (the hot line): metadata
    // straddles are never dead; a data-pair group is dead iff both of
    // its units are, checked at the first cycle of each liveness
    // combination the golden windows show; every dead verdict matches
    // legacy.
    std::size_t mixed = 0, both_dead = 0;
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        EnginePair e(cfg);
        const FaultWindows& windows = e.ckpt.checkpointPack()->windows;
        const std::uint32_t line_words = cfg.cacheLineWords();
        const std::uint64_t line_bits = cacheLineBits(line_words);
        const Cycle golden = e.legacy.goldenCycles();
        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            FaultSpec f{s, 32, golden / 2};
            f.pattern = FaultPattern::AdjacentQuad;
            // valid + dirty + data word 0 bits 0..1
            EXPECT_NE(e.injectChecked(f).shortcut,
                      InjectionShortcut::DeadWindow);
            // last data word bits 30..31 + line 1 tag bits 0..1
            f.bitIndex = line_bits - 2;
            EXPECT_NE(e.injectChecked(f).shortcut,
                      InjectionShortcut::DeadWindow);

            // data words j and j+1 (the first eight pairs)
            for (std::uint32_t j = 0; j < 8 && j + 1 < line_words; ++j) {
                f.bitIndex = kCacheLineMetaBits + 32 * j + 30;
                const std::uint64_t lo = exactWindowUnit(cfg, s, f.bitIndex);
                const std::uint64_t hi =
                    exactWindowUnit(cfg, s, f.bitIndex + 2);
                ASSERT_EQ(hi, lo + 1);
                // First cycle of each (lo, hi) liveness combination.
                std::array<bool, 4> seen{};
                for (Cycle c = 0; c < golden; ++c) {
                    const bool lo_obs = windows.observed(s, lo, c);
                    const bool hi_obs = windows.observed(s, hi, c);
                    const std::size_t combo = lo_obs * 2 + hi_obs;
                    if (seen[combo])
                        continue;
                    seen[combo] = true;
                    mixed += lo_obs != hi_obs;
                    both_dead += !lo_obs && !hi_obs;
                    f.cycle = c;
                    EXPECT_EQ(e.injectChecked(f).shortcut ==
                                  InjectionShortcut::DeadWindow,
                              !lo_obs && !hi_obs)
                        << targetStructureName(s) << " words " << j
                        << "/" << j + 1 << " cycle " << c;
                }
            }
        }
    }
    // The sweep must exercise both verdicts on straddling groups.
    EXPECT_GT(mixed, 0u);
    EXPECT_GT(both_dead, 0u);
}

TEST(CacheFaults, PrefilterFiresOnMostRandomDataFaults)
{
    // Guards the fast path itself: on reduction most random transient
    // faults in cache data words are provably dead, so a regression
    // that silently dropped cache windows (hit rate back to zero)
    // fails here, not just in a benchmark.
    for (const GpuConfig& cfg :
         {test::smallCudaConfig(), test::smallSiConfig()}) {
        const WorkloadInstance inst =
            makeWorkload("reduction")->build(cfg.dialect, {});
        FaultInjector ckpt(cfg, inst);
        ckpt.buildCheckpointPack(4);
        for (TargetStructure s : {kL1d, kL1i, kL2}) {
            Rng rng(deriveSeed(0xDA7A, static_cast<std::uint64_t>(s)));
            std::size_t data = 0, dead = 0;
            while (data < 40) {
                const FaultSpec f = ckpt.sampleRandom(s, rng);
                if (exactWindowUnit(cfg, s, f.bitIndex) == kNoExactUnit)
                    continue;
                ++data;
                dead += ckpt.inject(f).shortcut ==
                        InjectionShortcut::DeadWindow;
            }
            EXPECT_GT(dead * 2, data)
                << cfg.name << " " << targetStructureName(s) << ": "
                << dead << "/" << data << " data faults prefiltered";
        }
    }
}

TEST(CacheFaults, CampaignsRunOnCacheStructures)
{
    // End-to-end smoke: a small campaign per cache structure completes
    // and its counts partition the injections.
    const GpuConfig cfg = test::smallCudaConfig();
    const WorkloadInstance inst =
        makeWorkload("vectoradd")->build(cfg.dialect, {});
    for (TargetStructure s : {kL1d, kL1i, kL2}) {
        CampaignConfig cc;
        cc.plan.injections = 16;
        cc.numThreads = 2;
        const CampaignResult r = runCampaign(cfg, inst, s, cc);
        EXPECT_EQ(r.injections, 16u) << targetStructureName(s);
        EXPECT_EQ(r.masked + r.sdc + r.due, r.injections)
            << targetStructureName(s);
    }
}

} // namespace
} // namespace gpr
