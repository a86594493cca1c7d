#include "reliability/fault_windows.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/cache.hh"

namespace gpr {
namespace {

/**
 * Safety cap on value-residency slots (256 B each — 64 MB at the cap).
 * Words past the cap fall back to kResidencyUnknown, i.e. the
 * stuck-at prefilter turns conservative for them individually while
 * every word below the cap keeps its exact thresholds.
 */
constexpr std::size_t kMaxResidencySlots = std::size_t{1} << 18;

} // namespace

bool
FaultWindows::observed(TargetStructure structure, std::uint64_t word,
                       Cycle cycle) const
{
    const StructureWindows& w = forStructure(structure);
    if (!w.enabled || word + 1 >= w.offsets.size())
        return true; // unknown structure/word: stay conservative
    const auto begin = w.intervals.begin() +
                       static_cast<std::ptrdiff_t>(w.offsets[word]);
    const auto end = w.intervals.begin() +
                     static_cast<std::ptrdiff_t>(w.offsets[word + 1]);
    // First interval whose end >= cycle; observable iff it started.
    const auto it = std::lower_bound(
        begin, end, cycle,
        [](const Interval& iv, Cycle c) { return iv.end < c; });
    return it != end && it->begin <= cycle;
}

Cycle
FaultWindows::stuckAgreeCycle(TargetStructure structure,
                              std::uint64_t word, unsigned firstBit,
                              unsigned width, bool value) const
{
    GPR_ASSERT(width >= 1 && firstBit + width <= 32,
               "stuck-at bit group must lie within one 32-bit word");
    const StructureWindows& w = forStructure(structure);
    if (!w.enabled || word >= w.residencySlot.size())
        return kNeverAgrees; // unknown structure/word: stay conservative
    const std::uint32_t slot = w.residencySlot[word];
    if (slot == kResidencyNeverRead)
        return 0; // never read: benign at any cycle
    if (slot == kResidencyUnknown)
        return kNeverAgrees;
    const std::uint32_t* base = w.agreeFrom.data() +
                                std::size_t{slot} * 64 + (value ? 32 : 0);
    Cycle worst = 0;
    for (unsigned b = firstBit; b < firstBit + width; ++b) {
        const std::uint32_t stamp = base[b];
        if (stamp == kResidencySaturated)
            return kNeverAgrees;
        worst = std::max<Cycle>(worst, stamp);
    }
    return worst;
}

std::size_t
FaultWindows::intervalCount() const
{
    std::size_t n = 0;
    for (const StructureWindows& w : windows_)
        n += w.intervals.size();
    return n;
}

std::vector<Cycle>
FaultWindows::placeCheckpoints(const GpuConfig& config, Cycle goldenCycles,
                               unsigned budget) const
{
    if (budget == 0 || goldenCycles <= 1)
        return {};

    // Observed-bit density histogram over the golden run.  Bucket k
    // covers cycles [k*g/B, (k+1)*g/B); all weights live at the bucket
    // granularity, which is plenty for placing a handful of checkpoints.
    const std::size_t kBuckets =
        static_cast<std::size_t>(std::min<Cycle>(512, goldenCycles));
    const auto bucket_lo = [&](std::size_t k) {
        return goldenCycles * k / kBuckets;
    };
    std::vector<double> weight(kBuckets, 0.0);

    // Every bit of @p bits needs simulation at every cycle — uniform.
    const auto add_uniform = [&](double bits) {
        for (std::size_t k = 0; k < kBuckets; ++k) {
            // gpr:lint-allow(D5): single-threaded, fixed order
            weight[k] += bits * static_cast<double>(
                                    bucket_lo(k + 1) - bucket_lo(k));
        }
    };

    for (const StructureSpec& spec : structureRegistry()) {
        const std::uint64_t bits_per_sm = spec.bitsPerSm(config);
        if (bits_per_sm == 0)
            continue; // structure absent on this chip
        const double instances =
            static_cast<double>(structureInstances(config, spec));
        const StructureWindows& w = forStructure(spec.id);
        if (w.enabled) {
            // 32 observable bits per exact-unit interval cycle.
            for (const Interval& iv : w.intervals) {
                const Cycle lo = iv.begin;
                const Cycle hi = std::min(iv.end, goldenCycles - 1);
                if (lo > hi)
                    continue;
                std::size_t k = lo * kBuckets / goldenCycles;
                for (Cycle c = lo; c <= hi && k < kBuckets; ++k) {
                    const Cycle next = bucket_lo(k + 1);
                    const Cycle span = std::min<Cycle>(hi + 1, next) - c;
                    // Single-threaded fold in fixed registry/interval
                    // order — the order IS the spec.
                    // gpr:lint-allow(D5): deterministic fixed-order fold
                    weight[k] += 32.0 * static_cast<double>(span);
                    c += span;
                }
            }
            // Bits without exact windows (cache metadata) are never
            // prefiltered.
            const std::uint64_t inexact =
                bits_per_sm - exactWindowBitsPerSm(config, spec);
            if (inexact > 0)
                add_uniform(static_cast<double>(inexact) * instances);
        } else {
            // No prefilter for this structure.
            add_uniform(static_cast<double>(bits_per_sm) * instances);
        }
    }

    // Prefix sums of weight and weight*cycle (bucket midpoints), so the
    // replay cost of serving buckets [a, b) from a checkpoint at the
    // start of bucket a is O(1).
    std::vector<double> s0(kBuckets + 1, 0.0), s1(kBuckets + 1, 0.0);
    for (std::size_t k = 0; k < kBuckets; ++k) {
        const double mid =
            0.5 * static_cast<double>(bucket_lo(k) + bucket_lo(k + 1));
        s0[k + 1] = s0[k] + weight[k];
        s1[k + 1] = s1[k] + weight[k] * mid;
    }
    const auto segment_cost = [&](std::size_t a, std::size_t b) {
        // Sum over buckets [a, b) of weight * (midpoint - checkpoint).
        return (s1[b] - s1[a]) -
               static_cast<double>(bucket_lo(a)) * (s0[b] - s0[a]);
    };

    // DP: best[m][b] = min cost of buckets [0, b) using the implicit
    // cycle-0 checkpoint plus m placed ones, the m-th at a boundary
    // <= b.  O(budget * B^2) — at most a few million steps.
    const std::size_t m_max =
        std::min<std::size_t>(budget, kBuckets - 1);
    std::vector<double> prev(kBuckets + 1), cur(kBuckets + 1);
    std::vector<std::vector<std::uint32_t>> parent(
        m_max, std::vector<std::uint32_t>(kBuckets + 1, 0));
    for (std::size_t b = 0; b <= kBuckets; ++b)
        prev[b] = segment_cost(0, b);
    for (std::size_t m = 0; m < m_max; ++m) {
        for (std::size_t b = 0; b <= kBuckets; ++b) {
            double best = prev[b]; // skip this checkpoint entirely
            std::uint32_t arg = 0; // 0 encodes "unused"
            for (std::size_t a = 1; a <= b; ++a) {
                const double c = prev[a] + segment_cost(a, b);
                if (c < best) {
                    best = c;
                    arg = static_cast<std::uint32_t>(a);
                }
            }
            cur[b] = best;
            parent[m][b] = arg;
        }
        std::swap(prev, cur);
    }

    // Walk the parents back from the full range.
    std::vector<Cycle> cycles;
    std::size_t b = kBuckets;
    for (std::size_t m = m_max; m-- > 0;) {
        const std::uint32_t a = parent[m][b];
        if (a == 0)
            continue; // this checkpoint did not reduce the cost
        cycles.push_back(bucket_lo(a));
        b = a;
    }
    std::sort(cycles.begin(), cycles.end());
    cycles.erase(std::unique(cycles.begin(), cycles.end()), cycles.end());
    while (!cycles.empty() && cycles.front() == 0)
        cycles.erase(cycles.begin());
    return cycles;
}

FaultWindowRecorder::FaultWindowRecorder(
    const GpuConfig& config, const std::vector<TargetStructure>& structures,
    std::size_t maxIntervals)
    : max_intervals_(maxIntervals)
{
    for (const StructureSpec& spec : structureRegistry()) {
        if (spec.exactWindows == ExactWindows::None)
            continue; // control bits: no exact windows exist
        if (spec.exactWindows == ExactWindows::CacheData &&
            !structures.empty() &&
            std::find(structures.begin(), structures.end(), spec.id) ==
                structures.end()) {
            continue; // a cache this pack's cell does not inject
        }
        Tracker& t = tracker(spec.id);
        t.tracked = true;
        t.residency =
            spec.persistenceHook == PersistenceHook::StorageReadOverlay;
        if (spec.exactWindows == ExactWindows::CacheData) {
            t.lineUnits = static_cast<std::uint32_t>(
                cacheLineAceUnits(config.cacheLineWords()));
        }
        t.wordsPerSm =
            static_cast<std::uint32_t>(spec.aceUnitsPerSm(config));
        const std::size_t total =
            static_cast<std::size_t>(structureInstances(config, spec)) *
            t.wordsPerSm;
        t.lastWrite.assign(total, 0);
        t.perWord.resize(total);
        if (t.residency) {
            t.residencySlot.assign(total,
                                   FaultWindows::kResidencyNeverRead);
        }
    }
}

void
FaultWindowRecorder::onRead(TargetStructure structure, SmId sm,
                            std::uint32_t word, Word value, Cycle cycle)
{
    Tracker& t = tracker(structure);
    if (!t.tracked || !exactUnit(t, word))
        return;
    const std::size_t w =
        static_cast<std::size_t>(sm) * t.wordsPerSm + word;
    GPR_ASSERT(w < t.perWord.size(), "observer word out of range");
    auto& ivs = t.perWord[w];
    const Cycle begin = t.lastWrite[w];
    if (!ivs.empty() && begin <= ivs.back().end + 1) {
        ivs.back().end = std::max(ivs.back().end, cycle);
    } else {
        ivs.push_back({begin, cycle});
        ++t.intervals;
    }
    if (!t.residency)
        return;
    // Value residency: this read observes `value`, so it disagrees with
    // stuck-at-1 in every 0 bit and with stuck-at-0 in every 1 bit; a
    // fault injected at or before this cycle in those (bit, value)
    // pairs is not provably benign, i.e. agreeFrom advances to cycle+1.
    std::uint32_t slot = t.residencySlot[w];
    if (slot == FaultWindows::kResidencyNeverRead) {
        if (total_residency_slots_ >= kMaxResidencySlots) {
            t.residencySlot[w] = FaultWindows::kResidencyUnknown;
            return;
        }
        ++total_residency_slots_;
        slot = static_cast<std::uint32_t>(t.agreeFrom.size() / 64);
        t.residencySlot[w] = slot;
        t.agreeFrom.resize(t.agreeFrom.size() + 64, 0);
    } else if (slot == FaultWindows::kResidencyUnknown) {
        return;
    }
    const std::uint32_t stamp =
        cycle + 1 >= FaultWindows::kResidencySaturated
            ? FaultWindows::kResidencySaturated
            : static_cast<std::uint32_t>(cycle + 1);
    std::uint32_t* base = t.agreeFrom.data() + std::size_t{slot} * 64;
    for (unsigned b = 0; b < 32; ++b)
        base[(((value >> b) & 1u) ? 0 : 32) + b] = stamp;
}

void
FaultWindowRecorder::onWrite(TargetStructure structure, SmId sm,
                             std::uint32_t word, Cycle cycle)
{
    Tracker& t = tracker(structure);
    if (!t.tracked || !exactUnit(t, word))
        return;
    const std::size_t w =
        static_cast<std::size_t>(sm) * t.wordsPerSm + word;
    GPR_ASSERT(w < t.lastWrite.size(), "observer word out of range");
    // A flip lands at a cycle *start*; a write lands mid-cycle and
    // erases any flip from the same cycle, so observability windows
    // opened by later reads begin the following cycle.
    t.lastWrite[w] = cycle + 1;
}

void
FaultWindowRecorder::onAlloc(TargetStructure structure, SmId sm,
                             std::uint32_t first, std::uint32_t count,
                             Cycle cycle)
{
    Tracker& t = tracker(structure);
    if (!t.tracked || t.lineUnits == 0)
        return; // word storage: alloc leaves stale contents readable
    for (std::uint32_t unit = first; unit < first + count; ++unit) {
        if (exactUnit(t, unit))
            onWrite(structure, sm, unit, cycle);
    }
}

void
FaultWindowRecorder::finalize(FaultWindows& out)
{
    for (std::size_t s = 0; s < trackers_.size(); ++s) {
        Tracker& t = trackers_[s];
        FaultWindows::StructureWindows& w = out.windows_[s];
        w = {};
        // An untracked structure, or one past the interval cap, keeps
        // no windows: observed() stays conservative for it alone.
        w.enabled = t.tracked && t.intervals <= max_intervals_;
        if (w.enabled) {
            w.offsets.reserve(t.perWord.size() + 1);
            w.offsets.push_back(0);
            for (auto& ivs : t.perWord) {
                w.intervals.insert(w.intervals.end(), ivs.begin(),
                                   ivs.end());
                w.offsets.push_back(w.intervals.size());
                ivs = {};
            }
            w.residencySlot = std::move(t.residencySlot);
            w.agreeFrom = std::move(t.agreeFrom);
        }
        t = {};
    }
}

} // namespace gpr
