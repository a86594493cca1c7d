#include "reliability/fault_windows.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/cache.hh"

namespace gpr {
namespace {

/**
 * Safety cap on words with value residency (at most 33 live runs of
 * 12 B each per word in the recorder).  Words first read past the cap
 * fall back to kResidencyUnknown, i.e. the stuck-at prefilter turns
 * conservative for them individually while every word below the cap
 * keeps its exact thresholds.
 */
constexpr std::size_t kMaxResidencyWords = std::size_t{1} << 18;

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
    // The latest run with a faulted bit != value is the last golden
    // read the forcing would change; none means every read agrees.
    const Word mask = static_cast<Word>(
        ((std::uint64_t{1} << width) - 1) << firstBit);
    for (const ResidencyRun* r = &w.residencyRuns[slot]; r->stamp != 0;
         ++r) {
        const Word differs = value ? ~r->value : r->value;
        if ((differs & mask) != 0) {
            return r->stamp == kResidencySaturated ? kNeverAgrees
                                                   : Cycle{r->stamp};
        }
    }
    return 0;
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
    // Bucket bounds, tabulated: the DP below reads them O(budget * B^2)
    // times and a 64-bit division per read would dominate it.
    std::vector<Cycle> bounds(kBuckets + 1);
    for (std::size_t k = 0; k <= kBuckets; ++k)
        bounds[k] = goldenCycles * k / kBuckets;
    const auto bucket_lo = [&](std::size_t k) { return bounds[k]; };
    // The bucket holding cycle @p c: c*B/g is at most one bucket low
    // (buckets are >= 1 cycle wide), and only when c starts the next.
    const auto bucket_of = [&](Cycle c) {
        auto k = static_cast<std::size_t>(c * kBuckets / goldenCycles);
        return bucket_lo(k + 1) <= c ? k + 1 : k;
    };

    // Per-bucket weight in whole bit-cycles, accumulated as integers in
    // O(intervals + buckets): `partial` holds the exact overlap of each
    // interval's end buckets, `cover` a difference array counting the
    // intervals that cover a bucket whole.  Every term is an integer
    // below 2^53 (bits on chip x cycles per bucket), so the doubles
    // below equal a per-cycle floating-point fold in any order.
    std::vector<std::uint64_t> partial(kBuckets, 0);
    std::vector<std::int64_t> cover(kBuckets + 1, 0);
    std::uint64_t uniform_bits = 0; // simulated at every cycle
    for (const StructureSpec& spec : structureRegistry()) {
        const std::uint64_t bits_per_sm = spec.bitsPerSm(config);
        if (bits_per_sm == 0)
            continue; // structure absent on this chip
        const std::uint64_t instances = structureInstances(config, spec);
        const StructureWindows& w = forStructure(spec.id);
        if (!w.enabled) {
            // No prefilter for this structure.
            uniform_bits += bits_per_sm * instances;
            continue;
        }
        // 32 observable bits per exact-unit interval cycle.
        for (const Interval& iv : w.intervals) {
            const Cycle lo = iv.begin;
            const Cycle hi = std::min(iv.end, goldenCycles - 1);
            if (lo > hi)
                continue;
            const std::size_t klo = bucket_of(lo), khi = bucket_of(hi);
            if (klo == khi) {
                partial[klo] += 32 * (hi + 1 - lo);
                continue;
            }
            partial[klo] += 32 * (bucket_lo(klo + 1) - lo);
            partial[khi] += 32 * (hi + 1 - bucket_lo(khi));
            ++cover[klo + 1];
            --cover[khi];
        }
        // Bits without exact windows (cache metadata) are never
        // prefiltered.
        uniform_bits +=
            (bits_per_sm - exactWindowBitsPerSm(config, spec)) * instances;
    }
    std::vector<double> weight(kBuckets);
    std::int64_t covering = 0;
    for (std::size_t k = 0; k < kBuckets; ++k) {
        covering += cover[k];
        const std::uint64_t width = bucket_lo(k + 1) - bucket_lo(k);
        weight[k] = static_cast<double>(
            partial[k] +
            (32 * static_cast<std::uint64_t>(covering) + uniform_bits) *
                width);
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
    bool residency, std::size_t maxIntervals)
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
        t.residency = residency && spec.persistenceHook ==
                                       PersistenceHook::StorageReadOverlay;
        if (spec.exactWindows == ExactWindows::CacheData) {
            t.lineUnits = static_cast<std::uint32_t>(
                cacheLineAceUnits(config.cacheLineWords()));
        }
        t.wordsPerSm =
            static_cast<std::uint32_t>(spec.aceUnitsPerSm(config));
        const std::size_t total =
            static_cast<std::size_t>(structureInstances(config, spec)) *
            t.wordsPerSm;
        t.words.assign(total, WordState{});
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
    GPR_ASSERT(w < t.words.size(), "observer word out of range");
    WordState& ws = t.words[w];
    FaultWindows::Interval& open = ws.open;
    if (open.end != kNoInterval && ws.lastWrite <= open.end + 1) {
        open.end = std::max(open.end, cycle);
    } else {
        if (open.end != kNoInterval)
            t.closed.push_back({w, open});
        open = {ws.lastWrite, cycle};
        ++t.intervals;
    }
    if (!t.residency)
        return;
    // Value residency: a stuck-at-v fault in a bit stays benign only
    // past the last read observing the bit != v.  Reads of one word
    // arrive in cycle order, so extend the word's latest value run, or
    // start a new one when the value changed.
    std::uint32_t& head = t.residencySlot[w];
    if (head == FaultWindows::kResidencyUnknown)
        return;
    const bool first = head == FaultWindows::kResidencyNeverRead;
    if (first) {
        if (total_residency_words_ >= kMaxResidencyWords) {
            head = FaultWindows::kResidencyUnknown;
            return;
        }
        ++total_residency_words_;
    }
    const std::uint32_t stamp =
        cycle + 1 >= FaultWindows::kResidencySaturated
            ? FaultWindows::kResidencySaturated
            : static_cast<std::uint32_t>(cycle + 1);
    if (!first && t.runs[head].run.value == value)
        t.runs[head].run.stamp = stamp;
    else
        head = pushRun(t, first ? kNoRun : head, {stamp, value});
}

std::uint32_t
FaultWindowRecorder::pushRun(Tracker& t, std::uint32_t head,
                             FaultWindows::ResidencyRun run)
{
    std::uint32_t node;
    if (t.freeRuns.empty()) {
        node = static_cast<std::uint32_t>(t.runs.size());
        t.runs.push_back({run, head});
    } else {
        node = t.freeRuns.back();
        t.freeRuns.pop_back();
        t.runs[node] = {run, head};
    }
    // Walk the older runs, dropping each whose every bit value a later
    // run repeats: any query it would answer, that later run answers
    // with a later stamp.  ones/zeros: bits some later run read as 1/0.
    Word ones = run.value, zeros = ~run.value;
    std::uint32_t* link = &t.runs[node].prev;
    while (*link != kNoRun) {
        RunNode& older = t.runs[*link];
        if ((older.run.value & ~ones) == 0 &&
            (~older.run.value & ~zeros) == 0) {
            t.freeRuns.push_back(*link);
            *link = older.prev;
            continue;
        }
        ones |= older.run.value;
        zeros |= ~older.run.value;
        link = &older.prev;
    }
    return node;
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
    GPR_ASSERT(w < t.words.size(), "observer word out of range");
    // A flip lands at a cycle *start*; a write lands mid-cycle and
    // erases any flip from the same cycle, so observability windows
    // opened by later reads begin the following cycle.
    t.words[w].lastWrite = cycle + 1;
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
            // Counting sort by word; each word's closed intervals keep
            // their (cycle) order and its open one comes last.
            const std::size_t words = t.words.size();
            w.offsets.assign(words + 1, 0);
            for (const ClosedInterval& c : t.closed)
                ++w.offsets[c.word + 1];
            for (std::size_t i = 0; i < words; ++i) {
                w.offsets[i + 1] += w.offsets[i] +
                                    (t.words[i].open.end != kNoInterval);
            }
            w.intervals.resize(t.intervals);
            std::vector<std::uint64_t> next(w.offsets.begin(),
                                            w.offsets.end() - 1);
            for (const ClosedInterval& c : t.closed)
                w.intervals[next[c.word]++] = c.interval;
            for (std::size_t i = 0; i < words; ++i) {
                if (t.words[i].open.end != kNoInterval)
                    w.intervals[next[i]] = t.words[i].open;
            }
            // Lay each word's run list out contiguously, latest first.
            for (std::uint32_t& slot : t.residencySlot) {
                if (slot == FaultWindows::kResidencyNeverRead ||
                    slot == FaultWindows::kResidencyUnknown) {
                    continue;
                }
                std::uint32_t node = slot;
                slot = static_cast<std::uint32_t>(w.residencyRuns.size());
                for (; node != kNoRun; node = t.runs[node].prev)
                    w.residencyRuns.push_back(t.runs[node].run);
                w.residencyRuns.push_back({}); // stamp 0: end of list
            }
            w.residencySlot = std::move(t.residencySlot);
        }
        t = {};
    }
}

} // namespace gpr
