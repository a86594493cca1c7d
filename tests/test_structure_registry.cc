/**
 * @file
 * Tests for the data-driven target-structure registry: name round trips,
 * per-model bit budgets, exactly-once appearance in exports, loud
 * failure on unregistered ids — plus the pinned pre-refactor regression
 * guaranteeing the original three structures' campaign numbers survived
 * the dissolution of the hard-coded triple bit-for-bit.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/export.hh"
#include "core/framework.hh"
#include "reliability/campaign.hh"
#include "sim/cache.hh"
#include "sim/gpu.hh"
#include "sim/structure_registry.hh"
#include "workloads/workloads.hh"

namespace gpr {
namespace {

TEST(StructureRegistry, EnumOrderedAndComplete)
{
    const auto& registry = structureRegistry();
    ASSERT_EQ(registry.size(), kNumTargetStructures);
    for (std::size_t i = 0; i < registry.size(); ++i)
        EXPECT_EQ(static_cast<std::size_t>(registry[i].id), i);
}

TEST(StructureRegistry, NamesRoundTripAndAreUnique)
{
    std::set<std::string_view> names;
    for (const StructureSpec& spec : structureRegistry()) {
        EXPECT_EQ(targetStructureFromName(spec.name), spec.id);
        EXPECT_EQ(targetStructureFromName(spec.shortName), spec.id);
        EXPECT_EQ(targetStructureName(spec.id), spec.name);
        EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
        EXPECT_TRUE(names.insert(spec.shortName).second) << spec.shortName;
        EXPECT_TRUE(names.insert(spec.jsonKey).second) << spec.jsonKey;
    }

    TargetStructure out;
    EXPECT_FALSE(tryTargetStructureFromName("no-such-structure", out));
    EXPECT_THROW(targetStructureFromName("no-such-structure"), FatalError);
}

TEST(StructureRegistry, BitBudgetsNonzeroWherePresent)
{
    for (GpuModel model : allGpuModels()) {
        const GpuConfig& cfg = gpuConfig(model);
        const Gpu gpu(cfg);
        for (const StructureSpec& spec : structureRegistry()) {
            const std::uint64_t bits = structureBitsTotal(cfg, spec.id);
            EXPECT_EQ(gpu.structureBits(spec.id), bits) << spec.name;
            // The scalar RF is the only structure a chip may lack.
            if (spec.id == TargetStructure::ScalarRegisterFile &&
                cfg.vendor == Vendor::Nvidia) {
                EXPECT_EQ(bits, 0u) << cfg.name;
            } else {
                EXPECT_GT(bits, 0u) << cfg.name << " " << spec.name;
                EXPECT_GT(structureAceUnitsTotal(cfg, spec.id), 0u)
                    << cfg.name << " " << spec.name;
            }
        }
    }
}

TEST(StructureRegistry, ControlBitGeometryMatchesSpecTable)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);
    EXPECT_EQ(structureSpec(TargetStructure::PredicateFile)
                  .bitsPerSm(cfg),
              std::uint64_t{cfg.maxWarpsPerSm} * kNumPredRegs *
                  cfg.warpWidth);
    EXPECT_EQ(structureSpec(TargetStructure::SimtStack).bitsPerSm(cfg),
              std::uint64_t{cfg.maxWarpsPerSm} *
                  (32 + 2 * std::uint64_t{cfg.warpWidth} +
                   kSimtStackDepth * (1 + 32 + cfg.warpWidth)));
    for (const StructureSpec& spec : structureRegistry()) {
        const ExactWindows expected =
            spec.kind == StructureKind::WordStorage ? ExactWindows::AllWords
            : spec.kind == StructureKind::CacheArray
                ? ExactWindows::CacheData
                : ExactWindows::None;
        EXPECT_EQ(spec.exactWindows, expected) << spec.name;
    }
}

TEST(StructureRegistry, ExactWindowUnitsClassifyBits)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::GeforceGtx480);
    // Word storage: every bit, unit = bit / 32 (chip-wide).
    const auto rf = TargetStructure::VectorRegisterFile;
    const std::uint64_t rf_bits = structureSpec(rf).bitsPerSm(cfg);
    EXPECT_EQ(exactWindowUnit(cfg, rf, 0), 0u);
    EXPECT_EQ(exactWindowUnit(cfg, rf, 95), 2u);
    EXPECT_EQ(exactWindowUnit(cfg, rf, rf_bits + 33), rf_bits / 32 + 1);
    // Control bits: none.
    EXPECT_EQ(exactWindowUnit(cfg, TargetStructure::SimtStack, 0),
              kNoExactUnit);
    EXPECT_EQ(exactWindowUnit(cfg, TargetStructure::PredicateFile, 7),
              kNoExactUnit);

    // Caches: data bits map to the data word's ACE unit, the 34
    // tag/valid/dirty bits of every line to none.
    const std::uint32_t words = cfg.cacheLineWords();
    const std::uint64_t line_bits = cacheLineBits(words);
    const std::uint64_t line_units = cacheLineAceUnits(words);
    for (TargetStructure s : {TargetStructure::L1DataCache,
                              TargetStructure::L1InstructionCache,
                              TargetStructure::L2Cache}) {
        const StructureSpec& spec = structureSpec(s);
        for (std::uint64_t line : {std::uint64_t{0}, std::uint64_t{5}}) {
            const std::uint64_t base = line * line_bits;
            for (std::uint64_t b = 0; b < kCacheLineMetaBits; ++b)
                EXPECT_EQ(exactWindowUnit(cfg, s, base + b), kNoExactUnit);
            for (std::uint32_t j = 0; j < words; ++j) {
                const std::uint64_t first = base + kCacheLineMetaBits + 32 * j;
                EXPECT_EQ(exactWindowUnit(cfg, s, first),
                          line * line_units + 1 + j);
                EXPECT_EQ(exactWindowUnit(cfg, s, first + 31),
                          line * line_units + 1 + j);
            }
        }
        // Exact bits are the data bits: 32 per data word.
        const std::uint64_t lines = spec.bitsPerSm(cfg) / line_bits;
        EXPECT_EQ(exactWindowBitsPerSm(cfg, spec), lines * 32 * words);
    }
    // Per-SM caches number units instance-major; the L2 has one instance.
    const auto l1d = TargetStructure::L1DataCache;
    const std::uint64_t l1d_bits = structureSpec(l1d).bitsPerSm(cfg);
    EXPECT_EQ(exactWindowUnit(cfg, l1d, l1d_bits + kCacheLineMetaBits),
              structureSpec(l1d).aceUnitsPerSm(cfg) + 1);
    EXPECT_EQ(structureInstances(cfg, structureSpec(TargetStructure::L2Cache)),
              1u);
}

TEST(StructureRegistry, AceUnitBitWidthsSumToBitBudget)
{
    // Structures with nonuniform ACE units declare per-unit bit widths
    // that must tile the fault space exactly — the weighting that keeps
    // ACE a conservative bound on bit-uniform injection.
    for (GpuModel model : allGpuModels()) {
        const GpuConfig& cfg = gpuConfig(model);
        for (const StructureSpec& spec : structureRegistry()) {
            if (!spec.aceUnitBits)
                continue;
            const auto units =
                static_cast<std::uint32_t>(spec.aceUnitsPerSm(cfg));
            std::uint64_t sum = 0;
            for (std::uint32_t u = 0; u < units; ++u)
                sum += spec.aceUnitBits(cfg, u);
            EXPECT_EQ(sum, spec.bitsPerSm(cfg))
                << cfg.name << " " << spec.name;
        }
    }
}

TEST(StructureRegistry, UnregisteredIdsFailLoudlyEverywhere)
{
    const auto bogus = static_cast<TargetStructure>(250);
    EXPECT_THROW(structureSpec(bogus), FatalError);
    EXPECT_THROW(targetStructureName(bogus), FatalError);

    AceResult ace;
    EXPECT_THROW(ace.forStructure(TargetStructure::VectorRegisterFile),
                 FatalError); // empty result: registry out of sync
    ReliabilityReport report;
    EXPECT_THROW(report.forStructure(TargetStructure::SimtStack),
                 FatalError);
}

/** Every registered structure appears exactly once in the JSON export
 *  and the human-readable summary. */
TEST(StructureRegistry, ExportListsEveryStructureExactlyOnce)
{
    ReliabilityFramework fw(GpuModel::GeforceGtx480);
    const ReliabilityReport r =
        fw.analyze("reduction", StudySpecBuilder().aceOnly().build());

    std::ostringstream json;
    writeReportJson(json, r);
    const std::string jtext = json.str();

    std::ostringstream summary;
    r.printSummary(summary);
    const std::string stext = summary.str();

    auto count = [](const std::string& hay, const std::string& needle) {
        std::size_t n = 0;
        for (auto pos = hay.find(needle); pos != std::string::npos;
             pos = hay.find(needle, pos + needle.size()))
            ++n;
        return n;
    };
    for (const StructureSpec& spec : structureRegistry()) {
        EXPECT_EQ(count(jtext, "\"" + std::string(spec.jsonKey) + "\":{"),
                  1u)
            << spec.jsonKey;
        EXPECT_EQ(count(stext, "  " + std::string(spec.name) + " "), 1u)
            << spec.name;
    }
}

/**
 * Pinned pre-refactor regression: these masked/SDC/DUE counts were
 * captured on the hard-coded three-structure implementation (reduction
 * on the HD Radeon 7970, workload seed 42, campaign seed 0xC0FFEE,
 * 200 injections per structure).  The registry refactor — and any
 * future registry extension — must reproduce them bit-for-bit: the
 * original structures' enum values, bit budgets, sampling and outcome
 * classification are all frozen by this test.
 */
TEST(StructureRegistry, PinnedPreRefactorCampaignCounts)
{
    const GpuConfig& cfg = gpuConfig(GpuModel::HdRadeon7970);
    WorkloadParams params;
    params.seed = 42;
    const WorkloadInstance inst =
        makeWorkload("reduction")->build(cfg.dialect, params);

    struct Pin
    {
        TargetStructure structure;
        std::size_t masked, sdc, due;
    };
    const Pin pins[] = {
        {TargetStructure::VectorRegisterFile, 197, 2, 1},
        {TargetStructure::SharedMemory, 199, 1, 0},
        {TargetStructure::ScalarRegisterFile, 200, 0, 0},
    };

    CampaignConfig cc;
    cc.plan.injections = 200;
    for (const Pin& pin : pins) {
        const CampaignResult r =
            runCampaign(cfg, inst, pin.structure, cc);
        EXPECT_EQ(r.masked, pin.masked)
            << targetStructureName(pin.structure);
        EXPECT_EQ(r.sdc, pin.sdc) << targetStructureName(pin.structure);
        EXPECT_EQ(r.due, pin.due) << targetStructureName(pin.structure);
    }
}

} // namespace
} // namespace gpr
