/**
 * @file
 * Plain-data records of campaign shards — the work-unit identity and
 * outcome counts shared by the study orchestrator (which executes
 * shards) and the exporter (which persists them as JSONL).  Deliberately
 * free of any execution machinery so serialisation-only users do not
 * depend on the worker-pool layer.
 */

#ifndef GPR_CORE_SHARD_HH
#define GPR_CORE_SHARD_HH

#include <cstdint>
#include <string>
#include <tuple>

#include "arch/gpu_config.hh"
#include "reliability/outcome.hh"
#include "sim/fault_model.hh"

namespace gpr {

/** Identity of one campaign shard — everything that determines its
 *  outcome counts.  Two runs recompute identical counts for equal keys,
 *  which is what makes resume sound. */
struct ShardKey
{
    std::string workload;
    GpuModel gpu = GpuModel::GeforceGtx480;
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    std::uint32_t shardIndex = 0;
    /** Injection index range [begin, end) within the campaign. */
    std::uint64_t injectionBegin = 0;
    std::uint64_t injectionEnd = 0;
    /** Seed the per-injection RNGs derive from. */
    std::uint64_t campaignSeed = 0;
    std::uint64_t workloadSeed = 0;
    /** Fault shape of every injection in the shard (study-wide; the
     *  defaults keep pre-shape stores parsing unchanged). */
    FaultBehavior behavior = FaultBehavior::Transient;
    FaultPattern pattern = FaultPattern::SingleBit;

  private:
    auto
    tied() const
    {
        return std::tie(workload, gpu, structure, shardIndex,
                        injectionBegin, injectionEnd, campaignSeed,
                        workloadSeed, behavior, pattern);
    }

  public:
    bool operator==(const ShardKey& o) const { return tied() == o.tied(); }
    bool operator<(const ShardKey& o) const { return tied() < o.tied(); }
};

/** Outcome counts of one executed shard. */
struct ShardCounts : OutcomeCounts
{
    /** Worker-seconds this shard spent injecting (busy time on one
     *  worker, not pool wall-clock — summing never double-counts). */
    double busySeconds = 0.0;
};

/** One line of the JSONL results store. */
struct ShardRecord
{
    ShardKey key;
    ShardCounts counts;
};

} // namespace gpr

#endif // GPR_CORE_SHARD_HH
