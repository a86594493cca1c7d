/**
 * @file
 * Workload abstraction: one of the paper's ten benchmarks, buildable for
 * either ISA dialect.
 *
 * A build yields a self-contained WorkloadInstance: the register-allocated
 * kernel, launch geometry, an input-initialised memory image, and golden
 * outputs computed on the host (with the output-comparison rule the
 * original SDK/Rodinia sample uses: bitwise for integer kernels, relative
 * tolerance for float kernels).  The comparison rule is what defines
 * "error at the system output" for AVF purposes.
 */

#ifndef GPR_WORKLOADS_WORKLOAD_HH
#define GPR_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "isa/program.hh"
#include "sim/gpu.hh"
#include "sim/launch.hh"
#include "sim/memory_image.hh"

namespace gpr {

/** Tunables shared by all workloads. */
struct WorkloadParams
{
    /** Seed for deterministic input generation. */
    std::uint64_t seed = 42;
};

/** How a golden buffer is compared against simulated output. */
enum class CompareKind : std::uint8_t
{
    ExactWords,   ///< bit-exact (integer kernels)
    FloatRelTol,  ///< |a-g| <= tol * max(1, |g|), NaN mismatch = error
};

/** One output buffer with its golden contents. */
struct ExpectedOutput
{
    std::string label;
    Buffer buffer;
    std::vector<Word> golden;
    CompareKind compare = CompareKind::ExactWords;
    float tolerance = 0.0f;
};

/** Everything needed to run and verify one benchmark build. */
struct WorkloadInstance
{
    std::string workloadName;
    Program program;
    LaunchConfig launch;
    MemoryImage image;
    std::vector<ExpectedOutput> outputs;
};

/**
 * Verify simulated @p final_memory against the instance's goldens.
 * On mismatch returns false and (optionally) a diagnostic in @p why.
 */
bool verifyOutputs(const WorkloadInstance& instance,
                   const MemoryImage& final_memory,
                   std::string* why = nullptr);

/**
 * Run @p instance fault-free on @p gpu with @p options (an observer or a
 * recorder, never a fault or a resume) and return the run.  A trap or a
 * failed verifyOutputs is a workload bug: either throws FatalError
 * naming the workload.
 */
RunResult runValidatedGolden(Gpu& gpu, const WorkloadInstance& instance,
                             const RunOptions& options = {});

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name as it appears in the paper's figures. */
    virtual std::string_view name() const = 0;

    /** Whether the kernel uses local/shared memory (Fig. 2 membership). */
    virtual bool usesLocalMemory() const = 0;

    /** Build the kernel + inputs + goldens for @p dialect. */
    virtual WorkloadInstance build(IsaDialect dialect,
                                   const WorkloadParams& params) const = 0;
};

} // namespace gpr

#endif // GPR_WORKLOADS_WORKLOAD_HH
