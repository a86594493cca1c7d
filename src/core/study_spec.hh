/**
 * @file
 * StudySpec — the single declarative description of an experiment.
 *
 * Everything that determines what a study computes (the grid), how it
 * samples (the campaign) and how it executes (the machinery) lives in
 * one serializable value type.  A spec
 * round-trips through JSON bit-identically, validates against the
 * workload/GPU/structure registries with precise error messages, and
 * carries a stable content hash over its result-determining fields — the
 * identity the JSONL shard store embeds so --resume can refuse a
 * mismatched store.
 *
 * Typical use:
 *
 *     StudySpec spec = StudySpecBuilder()
 *                          .workloads({"vectoradd", "reduction"})
 *                          .gpu(GpuModel::GeforceGtx480)
 *                          .injections(2000)
 *                          .build();
 *     StudyResult result = runStudy(spec);
 *
 * or, from an artifact:
 *
 *     StudySpec spec = StudySpec::fromJsonFile("experiment.json");
 *
 * Empty grid vectors mean "all": every workload, every GPU, every
 * structure applicable to a cell.  The content hash resolves those
 * defaults first, so a spec listing all ten workloads explicitly hashes
 * equal to one listing none.
 */

#ifndef GPR_CORE_STUDY_SPEC_HH
#define GPR_CORE_STUDY_SPEC_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "arch/gpu_config.hh"
#include "reliability/fault_injector.hh"
#include "reliability/fit_epf.hh"
#include "reliability/sampling.hh"
#include "sim/fault_model.hh"

namespace gpr {

class JsonWriter;

struct StudySpec
{
    // --- Grid: what to measure. ---------------------------------------
    /** Benchmarks to include (empty = all ten, figure order). */
    std::vector<std::string> workloads;
    /** GPUs to include (empty = all four, figure order). */
    std::vector<GpuModel> gpus;
    /** Restrict fault injection to these registered structures (empty =
     *  every structure applicable to a cell).  Composes with per-cell
     *  applicability and keeps per-structure campaign seeding, so a
     *  restricted study's counts are bit-identical to the matching
     *  slice of an unrestricted one. */
    std::vector<TargetStructure> structures;

    // --- Campaign: how to sample. -------------------------------------
    /** Injections per structure + confidence (paper: 2000 @ 99 %).
     *  plan.margin > 0 switches the campaign to adaptive sequential
     *  stopping: each cell injects until every reported rate's CI
     *  half-width meets the margin, capped at plan.maxInjections (0 =
     *  the fixed-size equivalent). */
    SamplePlan plan = paperSamplePlan();
    /** Seed the per-(structure, injection) RNGs derive from. */
    std::uint64_t seed = 0xC0FFEE;
    /** Seed of the workload input generators. */
    std::uint64_t workloadSeed = 42;
    /** Temporal fault behavior of every injection (transient stuck-at-0,
     *  stuck-at-1 or intermittent; see sim/fault_model.hh).  The default
     *  (transient) reproduces the original model bit-for-bit and is the
     *  only value that leaves the campaign hash untouched. */
    FaultBehavior faultBehavior = FaultBehavior::Transient;
    /** Spatial fault pattern: single, adjacent-double or adjacent-quad
     *  aligned bit group (gpuFI-style MBU modes). */
    FaultPattern faultPattern = FaultPattern::SingleBit;
    /** Skip FI campaigns; report ACE + occupancy + perf only. */
    bool aceOnly = false;
    /** Intrinsic SER feeding the FIT/EPF roll-up. */
    FitParams fitParams;

    // --- Execution: how to run (never part of the content hash). ------
    /** Worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Shards per campaign; 0 derives a deterministic default from the
     *  sample plan (independent of `jobs`). */
    std::size_t shardsPerCampaign = 0;
    /** Checkpoints per golden run; 0 = legacy from-scratch engine. */
    unsigned checkpoints = kDefaultCheckpoints;
    /** JSONL shard store path; empty disables checkpointing. */
    std::string storePath;
    /** Load the store and skip already-completed shards. */
    bool resume = false;
    /** Print progress lines to stderr. */
    bool verbose = true;

    /** The (behavior, pattern) pair as the reliability layer consumes it. */
    FaultShape
    faultShape() const
    {
        return FaultShape{faultBehavior, faultPattern};
    }

    // --- Resolution of the empty-means-all defaults. -------------------
    std::vector<std::string> resolvedWorkloads() const;
    std::vector<GpuModel> resolvedGpus() const;
    /** Empty resolves to every registered structure. */
    std::vector<TargetStructure> resolvedStructures() const;

    /**
     * Check the spec against the registries: every workload, GPU and
     * structure must be registered, the plan must be executable (a
     * zero-injection plan is only valid with aceOnly), confidence must
     * lie in (0, 1), and resume requires a store path.  Throws
     * FatalError naming the offending field.
     */
    void validate() const;

    /**
     * Stable content hash over the result-determining fields: the
     * resolved grid (order- and duplicate-insensitive) and the campaign
     * parameters.  Execution knobs (jobs, shards, checkpoints, store,
     * verbosity) are excluded — they never change the counts, so stores
     * written at any of those settings stay mutually resumable.
     */
    std::uint64_t campaignHash() const;
    /** campaignHash() as 16 lowercase hex digits. */
    std::string campaignHashHex() const;

    // --- Serialization. ------------------------------------------------
    /** One JSON object: {"version", "grid", "campaign", "execution"}. */
    void toJson(std::ostream& os) const;
    std::string toJsonString() const;
    /** Emit into an existing writer (for embedding, e.g. the shard
     *  store header). */
    void writeJson(JsonWriter& j) const;

    /** Parse a spec document.  Unknown keys, unregistered names and
     *  malformed values all throw FatalError with a precise message.
     *  Missing fields keep their defaults, so fromJson(toJson(s)) == s
     *  for every valid spec. */
    static StudySpec fromJson(std::string_view json);
    static StudySpec fromJsonFile(const std::string& path);

    bool operator==(const StudySpec& o) const;
    bool operator!=(const StudySpec& o) const { return !(*this == o); }
};

/**
 * Fluent construction of a StudySpec.  Each setter returns *this;
 * build() validates and returns the value.  Call order never matters —
 * the spec (and therefore its hash) depends only on the final field
 * values.
 */
class StudySpecBuilder
{
  public:
    StudySpecBuilder& workloads(std::vector<std::string> names);
    StudySpecBuilder& workload(std::string name); ///< append one
    StudySpecBuilder& gpus(std::vector<GpuModel> models);
    StudySpecBuilder& gpu(GpuModel model); ///< append one
    StudySpecBuilder& structures(std::vector<TargetStructure> ids);
    StudySpecBuilder& structure(TargetStructure id); ///< append one

    StudySpecBuilder& plan(const SamplePlan& p);
    StudySpecBuilder& injections(std::size_t n);
    StudySpecBuilder& confidence(double c);
    /** > 0 selects adaptive sequential stopping at this CI half-width. */
    StudySpecBuilder& margin(double m);
    /** Adaptive cap; 0 derives the fixed-size equivalent. */
    StudySpecBuilder& maxInjections(std::size_t n);
    StudySpecBuilder& seed(std::uint64_t s);
    StudySpecBuilder& workloadSeed(std::uint64_t s);
    StudySpecBuilder& faultBehavior(FaultBehavior b);
    StudySpecBuilder& faultPattern(FaultPattern p);
    StudySpecBuilder& aceOnly(bool on = true);
    StudySpecBuilder& rawFitPerMbit(double fit);

    StudySpecBuilder& jobs(unsigned n);
    StudySpecBuilder& shardsPerCampaign(std::size_t n);
    StudySpecBuilder& checkpoints(unsigned n);
    StudySpecBuilder& store(std::string path);
    StudySpecBuilder& resume(bool on = true);
    StudySpecBuilder& verbose(bool on);

    /** Validate and return the spec (throws FatalError on bad fields). */
    StudySpec build() const;

  private:
    StudySpec spec_;
};

// --- Shared presets -----------------------------------------------------

/** The paper's experiment: full 10x4 grid, 2,000 injections per
 *  structure at 99 % confidence. */
StudySpec paperStudySpec();

/** A seconds-scale smoke slice (vectoradd + reduction on the GTX 480,
 *  40 injections) used by CI and quick local checks. */
StudySpec smokeStudySpec();

// --- Registry-validated name-list parsing (shared by every CLI) ---------

/** Throw FatalError listing the registered benchmarks unless every
 *  element of @p names is one of them. */
void validateWorkloadNames(const std::vector<std::string>& names);

/** Parse "a,b,c" into validated workload names (empty pieces dropped). */
std::vector<std::string> parseWorkloadList(std::string_view csv);

/** Parse "gtx480,7970" into GPU models; throws FatalError on unknowns. */
std::vector<GpuModel> parseGpuList(std::string_view csv);

/** Parse "rf,lds" into registered structures; throws FatalError on
 *  unknowns, listing the registry. */
std::vector<TargetStructure> parseStructureList(std::string_view csv);

} // namespace gpr

#endif // GPR_CORE_STUDY_SPEC_HH
