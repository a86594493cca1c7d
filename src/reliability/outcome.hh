/**
 * @file
 * Injection outcomes and their tallies — the plain-data vocabulary shared
 * by the injector (which classifies one run), campaigns and study shards
 * (which count them) and the shard store (which persists the counts).
 */

#ifndef GPR_RELIABILITY_OUTCOME_HH
#define GPR_RELIABILITY_OUTCOME_HH

#include <cstdint>
#include <string_view>

namespace gpr {

/** Classification of a single injection. */
enum class FaultOutcome : std::uint8_t
{
    Masked, ///< output equals golden under the workload's comparison rule
    Sdc,    ///< silent data corruption: clean exit, wrong output
    Due,    ///< detected unrecoverable error: trap / hang / deadlock
};

constexpr std::string_view
faultOutcomeName(FaultOutcome o)
{
    switch (o) {
      case FaultOutcome::Masked:
        return "masked";
      case FaultOutcome::Sdc:
        return "SDC";
      case FaultOutcome::Due:
        return "DUE";
    }
    return "unknown";
}

/** Masked / SDC / DUE counts of a set of injections.  add() is the one
 *  place an outcome is tallied; counts merge with +=. */
struct OutcomeCounts
{
    std::uint64_t masked = 0;
    std::uint64_t sdc = 0;
    std::uint64_t due = 0;

    void
    add(FaultOutcome o)
    {
        switch (o) {
          case FaultOutcome::Masked:
            ++masked;
            break;
          case FaultOutcome::Sdc:
            ++sdc;
            break;
          case FaultOutcome::Due:
            ++due;
            break;
        }
    }

    OutcomeCounts&
    operator+=(const OutcomeCounts& o)
    {
        masked += o.masked;
        sdc += o.sdc;
        due += o.due;
        return *this;
    }

    std::uint64_t total() const { return masked + sdc + due; }

    /** (SDC + DUE) / total, 0 when nothing was counted. */
    double
    avf() const
    {
        return total() ? static_cast<double>(sdc + due) /
                             static_cast<double>(total())
                       : 0.0;
    }
};

} // namespace gpr

#endif // GPR_RELIABILITY_OUTCOME_HH
