/**
 * @file
 * Injection-throughput benchmark: legacy from-scratch engine vs the
 * checkpoint-restore + early-termination engine, over the paper's
 * (workload, GPU, structure) grid.
 *
 * Every cell runs the *same* deterministically derived fault list
 * through both engines, so the run doubles as a differential check:
 * any per-injection outcome mismatch flags the cell (and fails the
 * process).  Results are emitted as one BENCH JSON document on stdout
 * (CI parses it and fails if the checkpointed engine is slower); a
 * human-readable per-phase table goes to stderr so stdout stays pure
 * JSON.
 *
 *     $ bench_injection_throughput [--workloads=a,b] [--gpus=a,b]
 *           [--structures=a,b] [--behaviors=a,b] [--injections=N]
 *           [--checkpoints=N] [--seed=S]
 *
 * By default every registered structure applicable to a cell is run
 * (including the control-state targets, which skip the dead-window
 * prefilter); --structures restricts to a registry subset, e.g. the
 * paper's original rf,lds,srf grid for the CI perf gate.
 *
 * --behaviors selects the fault-behavior axis (default: all four, so
 * the persistent fast path is exercised out of the box).  Each behavior
 * re-runs every cell's fault list; transient cells use the dead-window
 * prefilter, persistent cells the value-residency prefilter and the
 * residency-gated hash early-out.  Throughput is reported per behavior
 * in the "behaviors" breakdown — together with each prefilter's and the
 * early-out's hit rate — and the legacy-vs-checkpoint equality check
 * doubles as a per-behavior differential test of the fast path.
 *
 * The checkpointed engine's time is further broken down per phase
 * (prefilter / restore / replay / hash, from FaultInjector's phase
 * accounting), and each (workload, GPU) pair reports its resident
 * checkpoint-pack bytes: the delta-encoded size next to what the same
 * checkpoint cycles would cost as v1 full snapshots.  Its pack build
 * time is split the same way (pass A record / window finalize /
 * placement / pass B deltas); the aggregate reports how much of the
 * build those phases cover and the machine-independent pack_to_golden
 * ratio (pack build over golden run, summed over the pairs; each
 * pair's golden time is the median of kGoldenRepeats plain runs, so one
 * cold or descheduled run does not move the ratio).  Packs
 * record value residency only when --behaviors includes a persistent
 * one, as a study's packs do.
 *
 * The simulator on its own is reported per pair too: simulated cycles
 * per second of the plain golden run (sim_cycles_per_s) and of the ACE
 * pass, which drives the same run through a lifetime observer
 * (sim_observed_cycles_per_s).
 */

// gpr:lint-allow-file(D1): timing whitelist — this is a throughput
// benchmark; clock reads are its output, and the differential outcome
// check compares counts that never depend on them.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/string_utils.hh"
#include "core/study_spec.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "sim/structure_registry.hh"
#include "workloads/workloads.hh"

namespace {

using namespace gpr;

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Golden runs timed per (workload, GPU) pair; the median is reported. */
constexpr std::size_t kGoldenRepeats = 5;

/** Median wall time of kGoldenRepeats plain golden runs of @p inst. */
double
medianGoldenSeconds(const GpuConfig& cfg, const WorkloadInstance& inst)
{
    Gpu gpu(cfg);
    std::array<double, kGoldenRepeats> runs{};
    for (double& s : runs) {
        const auto t0 = std::chrono::steady_clock::now();
        gpu.run(inst.program, inst.launch, inst.image);
        s = seconds(t0, std::chrono::steady_clock::now());
    }
    std::nth_element(runs.begin(), runs.begin() + kGoldenRepeats / 2,
                     runs.end());
    return runs[kGoldenRepeats / 2];
}

struct CellResult
{
    std::string workload;
    std::string gpu;
    std::string structure;
    FaultBehavior behavior = FaultBehavior::Transient;
    std::size_t injections = 0;
    std::size_t prefiltered = 0; ///< masked via dead windows (no sim)
    /** Masked via the persistent value-residency prefilter (no sim). */
    std::size_t residencyPrefiltered = 0;
    std::size_t hashConverged = 0;
    double goldenSeconds = 0.0; ///< median golden run (scale reference)
    double simCyclesPerSecond = 0.0;         ///< plain golden run
    double simObservedCyclesPerSecond = 0.0; ///< ACE pass (observed)
    double packSeconds = 0.0;   ///< recording passes + pack assembly
    PackBuildTiming packTiming; ///< where packSeconds went
    double packShare = 0.0;     ///< this cell's share of packSeconds
    double legacySeconds = 0.0;
    double checkpointSeconds = 0.0;
    /** Where checkpointSeconds went (per-injector phase accounting). */
    InjectionPhaseStats phases;
    std::size_t packBytes = 0;     ///< resident delta-encoded pack
    std::size_t packFullBytes = 0; ///< same cycles as v1 full snapshots
    bool outcomesEqual = true;
};

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> workloads;
    for (auto name : allWorkloadNames())
        workloads.emplace_back(name);
    std::vector<GpuModel> gpus = allGpuModels();
    std::vector<TargetStructure> requested;
    std::vector<FaultBehavior> behaviors = {
        FaultBehavior::Transient, FaultBehavior::StuckAt0,
        FaultBehavior::StuckAt1, FaultBehavior::Intermittent};
    std::size_t injections = 40;
    unsigned checkpoints = kDefaultCheckpoints;
    std::uint64_t seed = 0xC0FFEE;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (startsWith(arg, "--workloads=")) {
            workloads = parseWorkloadList(
                arg.substr(std::string("--workloads=").size()));
        } else if (startsWith(arg, "--gpus=")) {
            gpus = parseGpuList(
                arg.substr(std::string("--gpus=").size()));
        } else if (startsWith(arg, "--structures=")) {
            requested = parseStructureList(
                arg.substr(std::string("--structures=").size()));
        } else if (startsWith(arg, "--behaviors=")) {
            behaviors.clear();
            for (const std::string& name : split(
                     arg.substr(std::string("--behaviors=").size()), ',')) {
                behaviors.push_back(faultBehaviorFromName(name));
            }
            if (behaviors.empty()) {
                std::fprintf(stderr, "--behaviors: empty list\n");
                return 2;
            }
        } else if (startsWith(arg, "--injections=")) {
            const auto n =
                parseInt(arg.substr(std::string("--injections=").size()));
            if (n && *n > 0)
                injections = static_cast<std::size_t>(*n);
        } else if (startsWith(arg, "--checkpoints=")) {
            const auto n =
                parseInt(arg.substr(std::string("--checkpoints=").size()));
            if (n && *n >= 0)
                checkpoints = static_cast<unsigned>(*n);
        } else if (startsWith(arg, "--seed=")) {
            const auto s =
                parseInt(arg.substr(std::string("--seed=").size()));
            if (s)
                seed = static_cast<std::uint64_t>(*s);
        } else {
            std::fprintf(stderr,
                         "usage: bench_injection_throughput "
                         "[--workloads=a,b] [--gpus=a,b] "
                         "[--structures=a,b] [--behaviors=a,b] "
                         "[--injections=N] [--checkpoints=N] "
                         "[--seed=S]\n");
            return 2;
        }
    }

    std::vector<CellResult> cells;
    bool all_equal = true;
    double legacy_total = 0.0, ckpt_total = 0.0;
    std::size_t injections_total = 0;
    std::size_t peak_pack_bytes = 0, peak_pack_full_bytes = 0;
    // Per (workload, GPU) pair, not per cell: each pair builds one pack.
    double golden_total = 0.0, pack_total = 0.0;
    // Simulated cycles and seconds of the golden runs and ACE passes.
    double golden_cycles_total = 0.0;
    double ace_total = 0.0, ace_cycles_total = 0.0;
    PackBuildTiming pack_timing_total;
    // Residency is only worth recording when a persistent fault will
    // query it.
    const bool residency = std::any_of(behaviors.begin(), behaviors.end(),
                                       faultBehaviorPersistent);

    for (const std::string& wname : workloads) {
        const auto workload = makeWorkload(wname);
        for (GpuModel model : gpus) {
            const GpuConfig& cfg = gpuConfig(model);
            const WorkloadInstance inst = workload->build(cfg.dialect, {});

            const std::vector<TargetStructure> structures =
                selectStructures(cfg, workload->usesLocalMemory(),
                                 requested);
            if (structures.empty())
                continue;

            // Legacy engine: golden + from-scratch injections.
            FaultInjector legacy(cfg, inst);
            const auto golden_cycles =
                static_cast<double>(legacy.goldenRun().stats.cycles);
            const double golden_s = medianGoldenSeconds(cfg, inst);

            // The same run under the ACE lifetime observer.
            auto t0 = std::chrono::steady_clock::now();
            const auto ace_cycles = static_cast<double>(
                runAceAnalysis(cfg, inst).goldenStats.cycles);
            auto t1 = std::chrono::steady_clock::now();
            const double ace_s = seconds(t0, t1);
            golden_cycles_total += golden_cycles;
            ace_total += ace_s;
            ace_cycles_total += ace_cycles;

            // Checkpointed engine: same golden, plus the pack.
            FaultInjector ckpt(cfg, inst);
            ckpt.adoptGoldenCycles(legacy.goldenCycles());
            t0 = std::chrono::steady_clock::now();
            const auto pack = ckpt.buildCheckpointPack(
                checkpoints, structures, residency);
            t1 = std::chrono::steady_clock::now();
            const double pack_s = seconds(t0, t1);
            golden_total += golden_s;
            pack_total += pack_s;
            pack_timing_total += pack->timing;
            peak_pack_bytes =
                std::max(peak_pack_bytes, pack->approxBytes());
            peak_pack_full_bytes = std::max(peak_pack_full_bytes,
                                            pack->fullEquivalentBytes());

            for (TargetStructure s : structures) {
                for (FaultBehavior behavior : behaviors) {
                    CellResult cell;
                    cell.workload = wname;
                    cell.gpu = cfg.name;
                    cell.structure = std::string(targetStructureName(s));
                    cell.behavior = behavior;
                    cell.injections = injections;
                    cell.goldenSeconds = golden_s;
                    cell.simCyclesPerSecond =
                        golden_s > 0 ? golden_cycles / golden_s : 0.0;
                    cell.simObservedCyclesPerSecond =
                        ace_s > 0 ? ace_cycles / ace_s : 0.0;
                    cell.packSeconds = pack_s;
                    cell.packTiming = pack->timing;
                    cell.packBytes = pack->approxBytes();
                    cell.packFullBytes = pack->fullEquivalentBytes();

                    // Same cell seed across behaviors: each behavior
                    // re-runs the same bit/cycle fault list (the
                    // intermittent duty-cycle draws come strictly
                    // after, so they don't perturb the list).
                    const std::uint64_t cseed =
                        deriveSeed(seed, static_cast<std::uint64_t>(s));
                    const FaultShape shape{behavior,
                                           FaultPattern::SingleBit};

                    std::vector<InjectionResult> legacy_results;
                    legacy_results.reserve(injections);
                    t0 = std::chrono::steady_clock::now();
                    for (std::size_t i = 0; i < injections; ++i) {
                        legacy_results.push_back(runIndexedInjection(
                            legacy, s, cseed, i, shape));
                    }
                    t1 = std::chrono::steady_clock::now();
                    cell.legacySeconds = seconds(t0, t1);

                    ckpt.resetPhaseStats();
                    t0 = std::chrono::steady_clock::now();
                    for (std::size_t i = 0; i < injections; ++i) {
                        const InjectionResult r = runIndexedInjection(
                            ckpt, s, cseed, i, shape);
                        if (r.shortcut == InjectionShortcut::DeadWindow)
                            ++cell.prefiltered;
                        else if (r.shortcut ==
                                 InjectionShortcut::ValueResidency)
                            ++cell.residencyPrefiltered;
                        else if (r.shortcut ==
                                 InjectionShortcut::HashConvergence)
                            ++cell.hashConverged;
                        if (r.outcome != legacy_results[i].outcome ||
                            r.trap != legacy_results[i].trap) {
                            cell.outcomesEqual = false;
                        }
                    }
                    t1 = std::chrono::steady_clock::now();
                    cell.checkpointSeconds = seconds(t0, t1);
                    cell.phases = ckpt.phaseStats();

                    cell.packShare =
                        cell.packSeconds /
                        static_cast<double>(structures.size() *
                                            behaviors.size());
                    all_equal = all_equal && cell.outcomesEqual;
                    legacy_total += cell.legacySeconds;
                    ckpt_total += cell.checkpointSeconds + cell.packShare;
                    injections_total += injections;
                    cells.push_back(std::move(cell));
                }
            }
        }
    }

    InjectionPhaseStats phases_total;
    for (const CellResult& c : cells)
        phases_total += c.phases;

    // ---- BENCH JSON ----
    std::printf("{\n  \"bench\": \"injection_throughput\",\n");
    std::printf("  \"checkpoints\": %u,\n", checkpoints);
    std::printf("  \"injections_per_cell\": %zu,\n", injections);
    std::printf("  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult& c = cells[i];
        // Per-cell speedup uses the same basis as the aggregate: the
        // cell's share of the pack-recording cost is charged to the
        // checkpointed engine (packShare below), so a cell can never
        // look like a win while being a net slowdown.
        const double ckpt_total_s = c.checkpointSeconds + c.packShare;
        std::printf(
            "    {\"workload\": \"%s\", \"gpu\": \"%s\", "
            "\"structure\": \"%s\", \"behavior\": \"%s\", "
            "\"injections\": %zu, "
            "\"prefiltered\": %zu, \"residency_prefiltered\": %zu, "
            "\"hash_converged\": %zu, "
            "\"golden_s\": %.6f, \"sim_cycles_per_s\": %.0f, "
            "\"sim_observed_cycles_per_s\": %.0f, \"pack_s\": %.6f, "
            "\"pack_record_s\": %.6f, \"pack_finalize_s\": %.6f, "
            "\"pack_place_s\": %.6f, \"pack_delta_s\": %.6f, "
            "\"pack_share_s\": %.6f, "
            "\"legacy_s\": %.6f, \"checkpoint_s\": %.6f, "
            "\"prefilter_s\": %.6f, \"restore_s\": %.6f, "
            "\"replay_s\": %.6f, \"hash_s\": %.6f, "
            "\"pack_bytes\": %zu, \"pack_full_bytes\": %zu, "
            "\"legacy_ips\": %.2f, \"checkpoint_ips\": %.2f, "
            "\"speedup\": %.3f, \"outcomes_equal\": %s}%s\n",
            c.workload.c_str(), c.gpu.c_str(), c.structure.c_str(),
            std::string(faultBehaviorName(c.behavior)).c_str(),
            c.injections, c.prefiltered, c.residencyPrefiltered,
            c.hashConverged, c.goldenSeconds, c.simCyclesPerSecond,
            c.simObservedCyclesPerSecond, c.packSeconds,
            c.packTiming.recordSeconds, c.packTiming.finalizeSeconds,
            c.packTiming.placeSeconds, c.packTiming.deltaSeconds,
            c.packShare, c.legacySeconds,
            c.checkpointSeconds, c.phases.prefilterSeconds,
            c.phases.restoreSeconds, c.phases.replaySeconds,
            c.phases.hashSeconds, c.packBytes, c.packFullBytes,
            c.legacySeconds > 0 ? c.injections / c.legacySeconds : 0.0,
            ckpt_total_s > 0 ? c.injections / ckpt_total_s : 0.0,
            ckpt_total_s > 0 ? c.legacySeconds / ckpt_total_s : 0.0,
            c.outcomesEqual ? "true" : "false",
            i + 1 < cells.size() ? "," : "");
    }
    std::printf("  ],\n");

    // Per-behavior aggregate with each fast path's hit rates: transient
    // quotes the dead-window prefilter, persistent behaviors the
    // value-residency prefilter; the hash early-out applies to both.
    std::printf("  \"behaviors\": [\n");
    for (std::size_t b = 0; b < behaviors.size(); ++b) {
        double legacy_b = 0.0, ckpt_b = 0.0;
        std::size_t injections_b = 0;
        InjectionPhaseStats phases_b;
        for (const CellResult& c : cells) {
            if (c.behavior != behaviors[b])
                continue;
            legacy_b += c.legacySeconds;
            ckpt_b += c.checkpointSeconds + c.packShare;
            injections_b += c.injections;
            phases_b += c.phases;
        }
        const double denom =
            injections_b > 0 ? static_cast<double>(injections_b) : 1.0;
        std::printf(
            "    {\"behavior\": \"%s\", \"injections\": %zu, "
            "\"dead_window_hits\": %llu, \"residency_hits\": %llu, "
            "\"hash_converge_hits\": %llu, "
            "\"prefilter_rate\": %.4f, \"early_out_rate\": %.4f, "
            "\"legacy_s\": %.6f, \"checkpoint_s\": %.6f, "
            "\"prefilter_s\": %.6f, \"restore_s\": %.6f, "
            "\"replay_s\": %.6f, \"hash_s\": %.6f, "
            "\"legacy_ips\": %.2f, \"checkpoint_ips\": %.2f, "
            "\"speedup\": %.3f}%s\n",
            std::string(faultBehaviorName(behaviors[b])).c_str(),
            injections_b,
            static_cast<unsigned long long>(phases_b.deadWindowHits),
            static_cast<unsigned long long>(phases_b.residencyHits),
            static_cast<unsigned long long>(phases_b.hashConvergeHits),
            (phases_b.deadWindowHits + phases_b.residencyHits) / denom,
            phases_b.hashConvergeHits / denom, legacy_b, ckpt_b,
            phases_b.prefilterSeconds, phases_b.restoreSeconds,
            phases_b.replaySeconds, phases_b.hashSeconds,
            legacy_b > 0 ? injections_b / legacy_b : 0.0,
            ckpt_b > 0 ? injections_b / ckpt_b : 0.0,
            ckpt_b > 0 ? legacy_b / ckpt_b : 0.0,
            b + 1 < behaviors.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"aggregate\": {\n");
    std::printf("    \"injections\": %zu,\n", injections_total);
    std::printf("    \"legacy_s\": %.6f,\n", legacy_total);
    std::printf("    \"checkpoint_s\": %.6f,\n", ckpt_total);
    std::printf("    \"prefilter_s\": %.6f,\n",
                phases_total.prefilterSeconds);
    std::printf("    \"restore_s\": %.6f,\n", phases_total.restoreSeconds);
    std::printf("    \"replay_s\": %.6f,\n", phases_total.replaySeconds);
    std::printf("    \"hash_s\": %.6f,\n", phases_total.hashSeconds);
    std::printf("    \"golden_s\": %.6f,\n", golden_total);
    std::printf("    \"sim_cycles_per_s\": %.0f,\n",
                golden_total > 0 ? golden_cycles_total / golden_total : 0.0);
    std::printf("    \"sim_observed_cycles_per_s\": %.0f,\n",
                ace_total > 0 ? ace_cycles_total / ace_total : 0.0);
    std::printf("    \"pack_s\": %.6f,\n", pack_total);
    std::printf("    \"pack_record_s\": %.6f,\n",
                pack_timing_total.recordSeconds);
    std::printf("    \"pack_finalize_s\": %.6f,\n",
                pack_timing_total.finalizeSeconds);
    std::printf("    \"pack_place_s\": %.6f,\n",
                pack_timing_total.placeSeconds);
    std::printf("    \"pack_delta_s\": %.6f,\n",
                pack_timing_total.deltaSeconds);
    // Share of the measured pack build the four phases account for.
    std::printf("    \"pack_phase_coverage\": %.4f,\n",
                pack_total > 0 ? pack_timing_total.totalSeconds() / pack_total
                               : 0.0);
    std::printf("    \"pack_to_golden\": %.3f,\n",
                golden_total > 0 ? pack_total / golden_total : 0.0);
    std::printf("    \"peak_pack_bytes\": %zu,\n", peak_pack_bytes);
    std::printf("    \"peak_pack_full_bytes\": %zu,\n",
                peak_pack_full_bytes);
    std::printf("    \"legacy_ips\": %.2f,\n",
                legacy_total > 0 ? injections_total / legacy_total : 0.0);
    std::printf("    \"checkpoint_ips\": %.2f,\n",
                ckpt_total > 0 ? injections_total / ckpt_total : 0.0);
    std::printf("    \"speedup\": %.3f,\n",
                ckpt_total > 0 ? legacy_total / ckpt_total : 0.0);
    std::printf("    \"outcomes_equal\": %s\n", all_equal ? "true" : "false");
    std::printf("  }\n}\n");

    // ---- Per-phase table (stderr; stdout stays pure JSON for CI) ----
    std::fprintf(stderr,
                 "\n%-14s %6s %10s %10s %10s %10s %10s %8s %8s %8s\n",
                 "behavior", "inj", "legacy_s", "prefilt_s", "restore_s",
                 "replay_s", "hash_s", "prefilt%", "earlyout", "speedup");
    for (FaultBehavior behavior : behaviors) {
        double legacy_b = 0.0, ckpt_b = 0.0;
        std::size_t injections_b = 0;
        InjectionPhaseStats phases_b;
        for (const CellResult& c : cells) {
            if (c.behavior != behavior)
                continue;
            legacy_b += c.legacySeconds;
            ckpt_b += c.checkpointSeconds + c.packShare;
            injections_b += c.injections;
            phases_b += c.phases;
        }
        const double denom =
            injections_b > 0 ? static_cast<double>(injections_b) : 1.0;
        std::fprintf(
            stderr,
            "%-14s %6zu %10.3f %10.3f %10.3f %10.3f %10.3f %7.1f%% "
            "%7.1f%% %7.2fx\n",
            std::string(faultBehaviorName(behavior)).c_str(),
            injections_b, legacy_b, phases_b.prefilterSeconds,
            phases_b.restoreSeconds, phases_b.replaySeconds,
            phases_b.hashSeconds,
            100.0 * (phases_b.deadWindowHits + phases_b.residencyHits) /
                denom,
            100.0 * phases_b.hashConvergeHits / denom,
            ckpt_b > 0 ? legacy_b / ckpt_b : 0.0);
    }
    std::fprintf(stderr,
                 "pack build %.3f s = %.1fx golden (record %.3f, "
                 "finalize %.3f, place %.3f, delta %.3f)\n",
                 pack_total,
                 golden_total > 0 ? pack_total / golden_total : 0.0,
                 pack_timing_total.recordSeconds,
                 pack_timing_total.finalizeSeconds,
                 pack_timing_total.placeSeconds,
                 pack_timing_total.deltaSeconds);
    std::fprintf(stderr,
                 "peak checkpoint pack: %zu KiB delta-encoded "
                 "(full-snapshot equivalent %zu KiB, %.1fx smaller)\n",
                 peak_pack_bytes / 1024, peak_pack_full_bytes / 1024,
                 peak_pack_bytes > 0
                     ? static_cast<double>(peak_pack_full_bytes) /
                           static_cast<double>(peak_pack_bytes)
                     : 0.0);

    if (!all_equal) {
        std::fprintf(stderr,
                     "FAIL: checkpointed engine outcomes differ from the "
                     "legacy engine\n");
        return 1;
    }
    return 0;
}
