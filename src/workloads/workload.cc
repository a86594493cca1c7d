#include "workloads/workload.hh"

#include <cmath>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/string_utils.hh"

namespace gpr {

bool
verifyOutputs(const WorkloadInstance& instance,
              const MemoryImage& final_memory, std::string* why)
{
    for (const auto& out : instance.outputs) {
        GPR_ASSERT(out.golden.size() == out.buffer.words,
                   "golden size mismatch for '", out.label, "'");
        for (std::uint32_t i = 0; i < out.buffer.words; ++i) {
            const Word actual =
                final_memory.readWord(out.buffer.byteAddrOfWord(i));
            const Word golden = out.golden[i];

            bool ok;
            if (out.compare == CompareKind::ExactWords) {
                ok = actual == golden;
            } else {
                const float a = wordToFloat(actual);
                const float g = wordToFloat(golden);
                if (std::isnan(a) || std::isnan(g) || std::isinf(a)) {
                    ok = false;
                } else {
                    const float mag = std::max(1.0f, std::fabs(g));
                    ok = std::fabs(a - g) <= out.tolerance * mag;
                }
            }
            if (!ok) {
                if (why) {
                    *why = strprintf(
                        "%s: output '%s' word %u: got 0x%08x, expected "
                        "0x%08x",
                        instance.workloadName.c_str(), out.label.c_str(), i,
                        actual, golden);
                }
                return false;
            }
        }
    }
    return true;
}

RunResult
runValidatedGolden(Gpu& gpu, const WorkloadInstance& instance,
                   const RunOptions& options)
{
    GPR_ASSERT(!options.fault && !options.resume,
               "a golden run starts from cycle 0 without a fault");
    RunResult run = gpu.run(instance.program, instance.launch,
                            instance.image, options);
    if (!run.clean()) {
        fatal("workload '", instance.workloadName,
              "' traps without any injected fault (",
              trapKindName(run.trap), ") — workload bug");
    }
    std::string why;
    if (!verifyOutputs(instance, run.memory, &why)) {
        fatal("workload '", instance.workloadName,
              "' fails its own golden check fault-free: ", why);
    }
    return run;
}

} // namespace gpr
