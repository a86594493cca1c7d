/**
 * @file
 * perfbench_study — the C++ half of the study benchmark (run.py is the
 * other half).  Every mode prints exactly one JSON object on stdout.
 *
 *   study <workload> [--setup] [--store=PATH]
 *       One untraced runStudy() on the workload's spec.  run.py starts a
 *       fresh process per call so it can read that study's peak RSS.
 *       --setup swaps the plan for one injection per campaign: the run
 *       then pays every per-cell fixed cost and almost nothing else.
 *       --store writes the study's shard store to PATH.
 *   audit <workload> --stops=N,N,...
 *       Checkpoint engine vs. the legacy from-scratch engine on a
 *       seed-derived sample of each campaign's first N injections.
 *   trace <workload> --out=PREFIX --store=PATH
 *       The per-layer run: per cell, a jobs=1 study of that cell, then
 *       the same work driven serially through the public layer functions
 *       and timed from outside; then a resume of the store a `study
 *       --store=PATH` run wrote.  Spans go to PREFIX.spans.json.
 *
 * Common options: --campaign-seed=N --workload-seed=N --jobs=N
 * --corrupt-audit (test hook: report the first audited legacy outcome
 * wrongly, so the self-test can check that a mismatch fails the run).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/worker_pool.hh"
#include "core/export.hh"
#include "core/orchestrator.hh"
#include "core/study_spec.hh"
#include "reliability/ace.hh"
#include "reliability/campaign.hh"
#include "reliability/fault_injector.hh"
#include "workloads/workloads.hh"

using namespace gpr;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One benchmark workload: a study grid plus its campaign plan.  Why
 *  each was chosen is recorded in README.md. */
struct BenchWorkload
{
    const char* name;
    const char* workloads;
    const char* gpus;
    const char* structures;
    std::size_t injections; ///< per campaign (adaptive: the cap)
    double margin;          ///< > 0: adaptive stopping at 99 %
    FaultBehavior behavior;
};

const BenchWorkload kWorkloads[] = {
    {"wide-grid-transient",
     "vectoradd,reduction,histogram,backprop,scan,transpose",
     "gtx480,7970,fx5600,fx5800", "rf,lds,srf", 100, 0.0,
     FaultBehavior::Transient},
    {"cache-transient", "vectoradd,reduction,histogram", "gtx480,7970",
     "l1d,l1i,l2", 150, 0.0, FaultBehavior::Transient},
    {"adaptive-stuck-at0", "reduction,histogram,scan,backprop",
     "gtx480,7970", "rf,lds,srf", 2000, 0.03, FaultBehavior::StuckAt0},
    // Seconds-scale slice for the benchmark's own self-test only.
    {"selftest", "vectoradd,reduction", "gtx480", "rf,lds", 6, 0.0,
     FaultBehavior::Transient},
};

/** Audited injections per campaign. */
constexpr std::size_t kAuditPerCampaign = 3;

struct Options
{
    std::string mode;
    const BenchWorkload* workload = nullptr;
    std::uint64_t campaignSeed = 0xC0FFEE;
    std::uint64_t workloadSeed = 42;
    unsigned jobs = 4;
    bool setup = false;
    bool corruptAudit = false;
    std::vector<std::uint64_t> stops;
    std::string out;
    std::string store;
};

StudySpec
makeSpec(const Options& o, unsigned jobs, bool setup)
{
    const BenchWorkload& w = *o.workload;
    StudySpecBuilder b;
    b.workloads(parseWorkloadList(w.workloads))
        .gpus(parseGpuList(w.gpus))
        .structures(parseStructureList(w.structures))
        .seed(o.campaignSeed)
        .workloadSeed(o.workloadSeed)
        .faultBehavior(w.behavior)
        .jobs(jobs)
        .checkpoints(kDefaultCheckpoints)
        .verbose(false);
    if (setup) {
        b.injections(1);
    } else {
        b.injections(w.injections).confidence(0.99);
        if (w.margin > 0)
            b.margin(w.margin);
    }
    return b.build();
}

/** One (cell, structure) campaign of a spec, in decomposeStudy order. */
struct Campaign
{
    std::string workload;
    GpuModel gpu = GpuModel::GeforceGtx480;
    TargetStructure structure = TargetStructure::VectorRegisterFile;
    std::uint64_t campaignSeed = 0;
    /** Worst-case shard ranges [begin, end) in injection order. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> shards;

    std::string
    cell() const
    {
        return workload + "/" + std::string(gpuShortName(gpu));
    }
    std::string
    id() const
    {
        return cell() + "/" + std::string(targetStructureName(structure));
    }
};

std::vector<Campaign>
campaignsOf(const StudySpec& spec)
{
    std::vector<Campaign> out;
    for (const ShardKey& key : decomposeStudy(spec)) {
        if (out.empty() || out.back().workload != key.workload ||
            out.back().gpu != key.gpu ||
            out.back().structure != key.structure) {
            Campaign c;
            c.workload = key.workload;
            c.gpu = key.gpu;
            c.structure = key.structure;
            c.campaignSeed = key.campaignSeed;
            out.push_back(std::move(c));
        }
        out.back().shards.emplace_back(key.injectionBegin,
                                       key.injectionEnd);
    }
    return out;
}

/** Campaign indices grouped by cell (campaigns of a cell are adjacent). */
std::vector<std::vector<std::size_t>>
groupByCell(const std::vector<Campaign>& campaigns)
{
    std::vector<std::vector<std::size_t>> cells;
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
        if (cells.empty() ||
            campaigns[cells.back().front()].cell() != campaigns[i].cell())
            cells.emplace_back();
        cells.back().push_back(i);
    }
    return cells;
}

struct Counts
{
    std::uint64_t injections = 0;
    std::uint64_t masked = 0;
    std::uint64_t sdc = 0;
    std::uint64_t due = 0;

    bool
    operator==(const Counts& o) const
    {
        return injections == o.injections && masked == o.masked &&
               sdc == o.sdc && due == o.due;
    }

    void
    tally(FaultOutcome outcome)
    {
        ++injections;
        switch (outcome) {
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
};

/** Counts of campaign @p c in a study result. */
Counts
countsOf(const StudyResult& result, const Campaign& c)
{
    const ReliabilityReport* report = nullptr;
    for (const ReliabilityReport& r : result.reports)
        if (r.workload == c.workload && r.gpu == c.gpu)
            report = &r;
    if (!report)
        fatal("study result lacks cell ", c.cell());
    const StructureReport& sr = report->forStructure(c.structure);
    // The report carries rates over its integer counts; n * (k / n)
    // rounds back to k exactly at these sizes.
    const double n = static_cast<double>(sr.injections);
    Counts k;
    k.injections = sr.injections;
    k.sdc = static_cast<std::uint64_t>(std::llround(sr.sdcRate * n));
    k.due = static_cast<std::uint64_t>(std::llround(sr.dueRate * n));
    k.masked = k.injections - k.sdc - k.due;
    return k;
}

/** Per-campaign counts of a study result, in @p campaigns order. */
std::vector<Counts>
countsOf(const StudyResult& result, const std::vector<Campaign>& campaigns)
{
    std::vector<Counts> out;
    for (const Campaign& c : campaigns)
        out.push_back(countsOf(result, c));
    return out;
}

void
writeCampaigns(JsonWriter& j, const std::vector<Campaign>& campaigns,
               const std::vector<Counts>& counts)
{
    j.key("campaigns").beginArray();
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
        j.beginObject()
            .kv("id", campaigns[i].id())
            .kv("injections", counts[i].injections)
            .kv("masked", counts[i].masked)
            .kv("sdc", counts[i].sdc)
            .kv("due", counts[i].due)
            .endObject();
    }
    j.endArray();
}

/** Seed-derived audit sample: up to kAuditPerCampaign distinct indices
 *  in [0, stop), ascending, drawn afresh for each workload seed. */
std::vector<std::uint64_t>
auditSample(const Campaign& c, std::uint64_t workload_seed,
            std::uint64_t stop)
{
    // A stream id no injection index reaches, so the sample is
    // independent of the injections' own draws.
    Rng rng(deriveSeed(deriveSeed(c.campaignSeed, ~std::uint64_t{0}),
                       workload_seed));
    std::vector<std::uint64_t> picks;
    while (picks.size() < std::min<std::uint64_t>(kAuditPerCampaign, stop)) {
        const std::uint64_t i = rng.below(stop);
        if (std::find(picks.begin(), picks.end(), i) == picks.end())
            picks.push_back(i);
    }
    std::sort(picks.begin(), picks.end());
    return picks;
}

/** One audited injection: checkpoint-engine vs. legacy-engine result. */
struct AuditRecord
{
    std::string campaign;
    std::uint64_t index = 0;
    InjectionResult checkpoint;
    InjectionResult legacy;

    bool
    agrees() const
    {
        return checkpoint.outcome == legacy.outcome &&
               checkpoint.trap == legacy.trap;
    }

    std::string
    repro(const char* workload) const
    {
        std::ostringstream os;
        os << "audit mismatch: workload=" << workload << " campaign="
           << campaign << " index=" << index << " checkpoint="
           << faultOutcomeName(checkpoint.outcome) << "/"
           << trapKindName(checkpoint.trap)
           << " legacy=" << faultOutcomeName(legacy.outcome) << "/"
           << trapKindName(legacy.trap);
        return os.str();
    }
};

/** The test hook behind --corrupt-audit: a wrong legacy outcome. */
void
corrupt(InjectionResult& r)
{
    r.outcome = r.outcome == FaultOutcome::Masked ? FaultOutcome::Sdc
                                                  : FaultOutcome::Masked;
}

void
writeAudit(JsonWriter& j, const Options& o,
           const std::vector<AuditRecord>& audit)
{
    j.key("audit_mismatches").beginArray();
    for (const AuditRecord& a : audit)
        if (!a.agrees())
            j.value(a.repro(o.workload->name));
    j.endArray();
    j.kv("audited", static_cast<std::uint64_t>(audit.size()));
}

WorkloadInstance
buildInstance(const std::string& workload, const GpuConfig& config,
              std::uint64_t workload_seed)
{
    WorkloadParams params;
    params.seed = workload_seed;
    return makeWorkload(workload)->build(config.dialect, params);
}

// ------------------------------------------------------------- study --

int
runStudyMode(const Options& o)
{
    StudySpec spec = makeSpec(o, o.jobs, o.setup);
    if (!o.store.empty()) {
        std::remove(o.store.c_str());
        spec.storePath = o.store;
    }
    StudyProgress progress;
    const auto t0 = Clock::now();
    const StudyResult result = runStudy(spec, &progress);
    const double wall = secondsBetween(t0, Clock::now());

    const std::vector<Campaign> campaigns = campaignsOf(spec);
    JsonWriter j(std::cout);
    j.beginObject()
        .kv("wall_s", wall)
        .kv("injections", progress.injectionsExecuted)
        .kv("shards_executed",
            static_cast<std::uint64_t>(progress.executedShards))
        .kv("shards_pruned",
            static_cast<std::uint64_t>(progress.prunedShards))
        .kv("busy_s", progress.shardBusySeconds);
    writeCampaigns(j, campaigns, countsOf(result, campaigns));
    j.endObject();
    std::cout << "\n";
    return 0;
}

// ------------------------------------------------------------- audit --

/** Audit one cell (@p cell indexes @p campaigns): build its pack, then
 *  run each sampled index through both engines. */
std::vector<AuditRecord>
auditCell(const Options& o, const StudySpec& spec,
          const std::vector<Campaign>& campaigns,
          const std::vector<std::size_t>& cell)
{
    const Campaign& first = campaigns[cell.front()];
    const GpuConfig& config = gpuConfig(first.gpu);
    const WorkloadInstance instance =
        buildInstance(first.workload, config, o.workloadSeed);
    FaultInjector checkpoint(config, instance);
    checkpoint.buildCheckpointPack(spec.checkpoints);
    FaultInjector legacy(config, instance);
    legacy.adoptGoldenCycles(checkpoint.goldenCycles());

    std::vector<AuditRecord> out;
    for (std::size_t k : cell) {
        const Campaign& c = campaigns[k];
        for (std::uint64_t index : auditSample(c, o.workloadSeed, o.stops[k])) {
            AuditRecord a;
            a.campaign = c.id();
            a.index = index;
            a.checkpoint = runIndexedInjection(checkpoint, c.structure,
                                               c.campaignSeed, index,
                                               spec.faultShape());
            a.legacy = runIndexedInjection(legacy, c.structure,
                                           c.campaignSeed, index,
                                           spec.faultShape());
            out.push_back(std::move(a));
        }
    }
    return out;
}

int
runAuditMode(const Options& o)
{
    const StudySpec spec = makeSpec(o, o.jobs, false);
    const std::vector<Campaign> campaigns = campaignsOf(spec);
    if (o.stops.size() != campaigns.size()) {
        fatal("--stops lists ", o.stops.size(), " campaigns but ",
              o.workload->name, " has ", campaigns.size());
    }

    // Each cell audits on one pool worker.
    const auto cells = groupByCell(campaigns);
    std::vector<std::vector<AuditRecord>> per_cell(cells.size());
    std::mutex error_mutex;
    std::string error;
    {
        WorkerPool pool(o.jobs);
        for (std::size_t c = 0; c < cells.size(); ++c) {
            pool.submit([&, c]() {
                try {
                    per_cell[c] = auditCell(o, spec, campaigns, cells[c]);
                } catch (const std::exception& e) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (error.empty())
                        error = e.what();
                }
            });
        }
        pool.waitIdle();
    }
    if (!error.empty())
        fatal("audit failed: ", error);

    std::vector<AuditRecord> audit;
    for (auto& records : per_cell)
        for (AuditRecord& a : records)
            audit.push_back(std::move(a));
    if (o.corruptAudit && !audit.empty())
        corrupt(audit.front().legacy);

    JsonWriter j(std::cout);
    j.beginObject();
    writeAudit(j, o, audit);
    j.endObject();
    std::cout << "\n";
    return 0;
}

// ------------------------------------------------------------- trace --

/** In-memory span log, written once when the run ends. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    std::size_t
    open(std::string name, std::size_t parent, std::string campaign = "")
    {
        spans_.push_back(Span{std::move(name), std::move(campaign),
                              parent, now(), 0.0});
        return spans_.size() - 1;
    }

    /** Close span @p id; returns its duration. */
    double
    close(std::size_t id)
    {
        spans_[id].end = now();
        return spans_[id].end - spans_[id].start;
    }

    void
    write(const std::string& path) const
    {
        std::ofstream os(path);
        JsonWriter j(os);
        j.beginArray();
        for (const Span& s : spans_) {
            j.beginObject().kv("name", s.name).kv("start_s", s.start).kv(
                "end_s", s.end);
            j.key("parent");
            if (s.parent == kNoParent)
                j.raw("null");
            else
                j.value(static_cast<std::uint64_t>(s.parent));
            j.kv("campaign", s.campaign).endObject();
        }
        j.endArray();
        os << "\n";
        if (!os)
            fatal("cannot write span file '", path, "'");
    }

    static constexpr std::size_t kNoParent = ~std::size_t{0};

  private:
    struct Span
    {
        std::string name;
        std::string campaign;
        std::size_t parent;
        double start;
        double end;
    };

    double now() const { return secondsBetween(origin_, Clock::now()); }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Sums of the serially driven layers. */
struct LayerTotals
{
    double buildSeconds = 0;
    double aceSeconds = 0;
    double goldenSeconds = 0;
    double packSeconds = 0;
    double injectSeconds = 0;
    std::uint64_t aceCycles = 0;
    std::uint64_t goldenCycles = 0;
    std::uint64_t goldenWarpInstructions = 0;
    std::size_t peakPackBytes = 0;
    std::size_t peakPackFullBytes = 0;
    InjectionPhaseStats phases;
    double auditLegacySeconds = 0;
    double auditCheckpointSeconds = 0;
};

/** Serially drive one cell's work through the public layer functions:
 *  build, ACE, plain golden run, pack, then the injections of each
 *  campaign in @p cell_campaigns (indices into @p campaigns) up to its
 *  stopping point in @p stops, in the orchestrator's execution order. */
void
traceCell(const Options& o, const StudySpec& spec, Tracer& tracer,
          std::size_t root, const std::vector<Campaign>& campaigns,
          const std::vector<std::size_t>& cell_campaigns,
          const std::vector<Counts>& stops, LayerTotals& totals,
          std::vector<Counts>& counts, std::vector<AuditRecord>& audit)
{
    const Campaign& first = campaigns[cell_campaigns.front()];
    const GpuConfig& config = gpuConfig(first.gpu);
    const std::size_t cell = tracer.open("cell", root, first.cell());

    std::size_t span = tracer.open("workloads.build", cell, first.cell());
    const WorkloadInstance instance =
        buildInstance(first.workload, config, o.workloadSeed);
    totals.buildSeconds += tracer.close(span);

    span = tracer.open("reliability.ace", cell, first.cell());
    const AceResult ace = runAceAnalysis(config, instance);
    totals.aceSeconds += tracer.close(span);
    totals.aceCycles += ace.goldenStats.cycles;

    FaultInjector injector(config, instance);
    span = tracer.open("sim.golden", cell, first.cell());
    const RunResult& golden = injector.goldenRun();
    totals.goldenSeconds += tracer.close(span);
    totals.goldenCycles += golden.stats.cycles;
    totals.goldenWarpInstructions += golden.stats.warpInstructions;

    span = tracer.open("reliability.pack", cell, first.cell());
    const auto pack = injector.buildCheckpointPack(spec.checkpoints);
    const double pack_seconds = tracer.close(span);
    totals.packSeconds += pack_seconds;
    totals.peakPackBytes = std::max(totals.peakPackBytes,
                                    pack->approxBytes());
    totals.peakPackFullBytes = std::max(totals.peakPackFullBytes,
                                        pack->fullEquivalentBytes());

    const FaultShape shape = spec.faultShape();
    const bool persistent = faultBehaviorPersistent(shape.behavior);
    struct Sampled
    {
        const Campaign* campaign;
        std::uint64_t index;
        InjectionResult result;
        double seconds;
    };
    std::vector<Sampled> sampled;
    std::uint64_t cell_injections = 0;

    for (std::size_t k : cell_campaigns) {
        const Campaign& c = campaigns[k];
        const std::uint64_t stop = stops[k].injections;
        const std::vector<std::uint64_t> picks = auditSample(c, o.workloadSeed, stop);
        Counts tally;
        const std::size_t cspan =
            tracer.open("reliability.inject", cell, c.id());
        const auto record = [&](std::uint64_t index,
                                const InjectionResult& r, double seconds) {
            tally.tally(r.outcome);
            if (std::binary_search(picks.begin(), picks.end(), index))
                sampled.push_back({&c, index, r, seconds});
        };
        for (const auto& [begin, end] : c.shards) {
            if (end > stop)
                break;
            if (persistent) {
                // The orchestrator's shared-restore order: pre-draw the
                // shard, then execute grouped by checkpoint index.
                const auto d0 = Clock::now();
                struct Drawn
                {
                    std::size_t checkpoint;
                    std::uint64_t index;
                    FaultSpec fault;
                };
                std::vector<Drawn> batch;
                for (std::uint64_t i = begin; i < end; ++i) {
                    Rng rng(deriveSeed(c.campaignSeed, i));
                    const FaultSpec fault =
                        injector.sampleRandom(c.structure, rng, shape);
                    batch.push_back(
                        {injector.checkpointIndexFor(fault.cycle), i,
                         fault});
                }
                std::stable_sort(batch.begin(), batch.end(),
                                 [](const Drawn& a, const Drawn& b) {
                                     return a.checkpoint < b.checkpoint;
                                 });
                totals.injectSeconds += secondsBetween(d0, Clock::now());
                for (const Drawn& d : batch) {
                    const auto t0 = Clock::now();
                    const InjectionResult r = injector.inject(d.fault);
                    const double s = secondsBetween(t0, Clock::now());
                    totals.injectSeconds += s;
                    record(d.index, r, s);
                }
            } else {
                for (std::uint64_t i = begin; i < end; ++i) {
                    const auto t0 = Clock::now();
                    const InjectionResult r = runIndexedInjection(
                        injector, c.structure, c.campaignSeed, i, shape);
                    const double s = secondsBetween(t0, Clock::now());
                    totals.injectSeconds += s;
                    record(i, r, s);
                }
            }
        }
        tracer.close(cspan);
        if (tally.injections != stop) {
            fatal("campaign ", c.id(), " stopped at ", stop,
                  " injections, which is not a shard boundary");
        }
        cell_injections += tally.injections;
        counts.push_back(tally);
    }
    totals.phases += injector.phaseStats();

    // Legacy side of the audit (timed, outside the injection layer).
    FaultInjector legacy(config, instance);
    legacy.adoptGoldenCycles(golden.stats.cycles);
    for (const Sampled& s : sampled) {
        const std::size_t aspan =
            tracer.open("reliability.audit.legacy", cell, s.campaign->id());
        AuditRecord a;
        a.campaign = s.campaign->id();
        a.index = s.index;
        a.checkpoint = s.result;
        a.legacy = runIndexedInjection(legacy, s.campaign->structure,
                                       s.campaign->campaignSeed, s.index,
                                       shape);
        totals.auditLegacySeconds += tracer.close(aspan);
        // The checkpoint side pays its injections plus this cell's
        // share of the pack, amortised over every injection of the cell.
        totals.auditCheckpointSeconds +=
            s.seconds + pack_seconds / static_cast<double>(cell_injections);
        audit.push_back(std::move(a));
    }
    tracer.close(cell);
}

int
runTraceMode(const Options& o)
{
    if (o.out.empty() || o.store.empty())
        fatal("trace mode needs --out=PREFIX and --store=PATH");
    Tracer tracer;
    const std::size_t root =
        tracer.open("trace", Tracer::kNoParent, o.workload->name);
    std::vector<std::string> failures;

    // 1. Per cell, a jobs=1 study of that cell alone, then the serial
    //    per-layer drive of the same cell.  The study gives the wall time
    //    the traced layers must cover and the stopping points the drive
    //    repeats.  Back to back, both see the same host speed, so their
    //    ratio does not depend on when the host was busy.  A one-cell
    //    study's counts equal that cell's counts in the whole grid:
    //    campaign seeds derive from (seed, structure) only.
    const StudySpec spec1 = makeSpec(o, 1, false);
    const std::vector<Campaign> campaigns = campaignsOf(spec1);
    std::vector<Counts> counts1(campaigns.size());
    double jobs1_seconds = 0;
    LayerTotals totals;
    std::vector<Counts> serial_counts;
    std::vector<AuditRecord> audit;
    for (const auto& cell : groupByCell(campaigns)) {
        const Campaign& first = campaigns[cell.front()];
        StudySpec cell_spec = spec1;
        cell_spec.workloads = {first.workload};
        cell_spec.gpus = {first.gpu};
        const std::size_t span =
            tracer.open("core.study.jobs1", root, first.cell());
        const StudyResult result1 = runStudy(cell_spec);
        jobs1_seconds += tracer.close(span);
        for (std::size_t k : cell)
            counts1[k] = countsOf(result1, campaigns[k]);
        traceCell(o, spec1, tracer, root, campaigns, cell, counts1, totals,
                  serial_counts, audit);
    }
    if (o.corruptAudit && !audit.empty())
        corrupt(audit.front().legacy);

    // 2. A resume of the store a jobs=N study wrote: every shard the
    //    study executed must come back from the store.
    StudySpec specr = makeSpec(o, o.jobs, false);
    specr.storePath = o.store;
    specr.resume = true;
    StudyProgress progressr;
    const std::size_t span = tracer.open("core.store.resume", root);
    const StudyResult resultr = runStudy(specr, &progressr);
    tracer.close(span);
    if (progressr.executedShards != 0 ||
        progressr.resumedShards + progressr.prunedShards !=
            progressr.totalShards) {
        failures.push_back(
            "resume of '" + o.store + "' re-executed " +
            std::to_string(progressr.executedShards) + " of " +
            std::to_string(progressr.totalShards) + " shards");
    }

    // One repro line per compared run, naming its first differing
    // campaign.
    const auto check = [&](const std::vector<Counts>& other,
                           const char* what) {
        for (std::size_t i = 0; i < campaigns.size(); ++i) {
            if (!(other[i] == counts1[i])) {
                failures.push_back(std::string("counts differ: workload=") +
                                   o.workload->name + " campaign=" +
                                   campaigns[i].id() + " " + what +
                                   " vs jobs=1 study");
                return;
            }
        }
    };
    check(serial_counts, "serial drive");
    check(countsOf(resultr, campaigns), "resumed study");
    tracer.close(root);
    tracer.write(o.out + ".spans.json");

    const double layer_sum = totals.buildSeconds + totals.aceSeconds +
                             totals.packSeconds + totals.injectSeconds;
    const InjectionPhaseStats& ph = totals.phases;
    const std::uint64_t shortcuts =
        ph.deadWindowHits + ph.residencyHits + ph.hashConvergeHits;
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::uint64_t mismatches = 0;
    for (const AuditRecord& a : audit)
        mismatches += a.agrees() ? 0 : 1;

    JsonWriter j(std::cout);
    j.beginObject().key("metrics");
    j.beginObject()
        .kv("workloads.build_s", totals.buildSeconds)
        .kv("sim.cycles_per_s",
            ratio(static_cast<double>(totals.goldenCycles),
                  totals.goldenSeconds))
        .kv("sim.warp_instr_per_s",
            ratio(static_cast<double>(totals.goldenWarpInstructions),
                  totals.goldenSeconds))
        .kv("sim.observed_cycles_per_s",
            ratio(static_cast<double>(totals.aceCycles),
                  totals.aceSeconds))
        .kv("reliability.ace_s", totals.aceSeconds)
        .kv("reliability.golden_s", totals.goldenSeconds)
        .kv("reliability.pack_s", totals.packSeconds)
        .kv("reliability.pack_to_golden",
            ratio(totals.packSeconds, totals.goldenSeconds))
        .kv("reliability.pack.peak_bytes",
            static_cast<std::uint64_t>(totals.peakPackBytes))
        .kv("reliability.pack.full_bytes",
            static_cast<std::uint64_t>(totals.peakPackFullBytes))
        .kv("reliability.inject_s", totals.injectSeconds)
        .kv("reliability.inject.prefilter_s", ph.prefilterSeconds)
        .kv("reliability.inject.restore_s", ph.restoreSeconds)
        .kv("reliability.inject.replay_s", ph.replaySeconds)
        .kv("reliability.inject.hash_s", ph.hashSeconds)
        .kv("reliability.inject.count", ph.injections)
        .kv("reliability.inject.dead_window_hits", ph.deadWindowHits)
        .kv("reliability.inject.residency_hits", ph.residencyHits)
        .kv("reliability.inject.hash_converge_hits",
            ph.hashConvergeHits)
        .kv("reliability.inject.shortcut_frac",
            ratio(static_cast<double>(shortcuts),
                  static_cast<double>(ph.injections)))
        .kv("reliability.audit.count",
            static_cast<std::uint64_t>(audit.size()))
        .kv("reliability.audit.legacy_s", totals.auditLegacySeconds)
        .kv("reliability.audit.checkpoint_s",
            totals.auditCheckpointSeconds)
        .kv("reliability.audit.speedup_vs_legacy",
            ratio(totals.auditLegacySeconds,
                  totals.auditCheckpointSeconds))
        .kv("audit_mismatch_frac",
            ratio(static_cast<double>(mismatches),
                  static_cast<double>(audit.size())))
        .kv("core.orchestrator.jobs1_study_s", jobs1_seconds)
        .kv("core.orchestrator.overhead_s", jobs1_seconds - layer_sum)
        .kv("trace.layer_sum_s", layer_sum)
        .kv("trace.coverage", ratio(layer_sum, jobs1_seconds))
        .kv("core.store.resume_s", progressr.resumeLoadSeconds)
        .endObject();
    writeCampaigns(j, campaigns, counts1);
    writeAudit(j, o, audit);
    j.key("failures").beginArray();
    for (const std::string& f : failures)
        j.value(f);
    j.endArray().endObject();
    std::cout << "\n";
    return 0;
}

// --------------------------------------------------------------- main --

std::uint64_t
parseU64(const std::string& flag, const std::string& v)
{
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 0);
    if (v.empty() || *end != '\0')
        fatal("bad value for ", flag, ": '", v, "'");
    return n;
}

Options
parseArgs(int argc, char** argv)
{
    if (argc < 3)
        fatal("usage: perfbench_study study|audit|trace <workload> "
              "[--setup] [--campaign-seed=N] [--workload-seed=N] "
              "[--jobs=N] [--stops=N,..] [--out=PREFIX] [--store=PATH] "
              "[--corrupt-audit]");
    Options o;
    o.mode = argv[1];
    for (const BenchWorkload& w : kWorkloads)
        if (w.name == std::string(argv[2]))
            o.workload = &w;
    if (!o.workload)
        fatal("unknown benchmark workload '", argv[2], "'");
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        const std::string v = eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (flag == "--setup") {
            o.setup = true;
        } else if (flag == "--corrupt-audit") {
            o.corruptAudit = true;
        } else if (flag == "--campaign-seed") {
            o.campaignSeed = parseU64(flag, v);
        } else if (flag == "--workload-seed") {
            o.workloadSeed = parseU64(flag, v);
        } else if (flag == "--jobs") {
            o.jobs = static_cast<unsigned>(parseU64(flag, v));
        } else if (flag == "--out") {
            o.out = v;
        } else if (flag == "--store") {
            o.store = v;
        } else if (flag == "--stops") {
            std::stringstream ss(v);
            std::string item;
            while (std::getline(ss, item, ','))
                o.stops.push_back(parseU64(flag, item));
        } else {
            fatal("unknown option '", arg, "'");
        }
    }
    if (o.jobs == 0)
        fatal("--jobs must be at least 1");
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const Options o = parseArgs(argc, argv);
        if (o.mode == "study")
            return runStudyMode(o);
        if (o.mode == "audit")
            return runAuditMode(o);
        if (o.mode == "trace")
            return runTraceMode(o);
        fatal("unknown mode '", o.mode, "'");
    } catch (const FatalError&) {
        return 2; // fatal() has already printed the message
    } catch (const std::exception& e) {
        std::cerr << "perfbench_study: " << e.what() << "\n";
        return 2;
    }
}
