/**
 * @file
 * Modeled cache array — the fault target between SmCore and MemoryImage.
 *
 * One CacheModel is a direct-mapped array of `lines` cache lines of
 * `lineWords` 32-bit words each, plus per-line metadata: a full 32-bit
 * tag (the line-base byte address; fault-free, its low bits are zero), a
 * valid bit and a dirty bit.  The same class models the per-SM L1 data
 * cache, the per-SM L1 instruction cache and the chip-shared L2 — they
 * differ only in identity (TargetStructure + SmId), geometry, and which
 * access methods the core calls.
 *
 * The model is **functional only**: hits and misses never change
 * instruction latencies, memory-pipe occupancy or any statistic.  Timing
 * stays exactly what it was without caches — the hierarchy exists so
 * that faults have somewhere architecturally meaningful to land.  What a
 * fault *can* change is the data path:
 *
 *  - a **tag** fault turns a hit into a miss (victim written back at the
 *    corrupted address: trap MisalignedAddress / GlobalOutOfBounds when
 *    the address is detectably bad, or a silent wrong-address write —
 *    stale-data SDC — when it is word-aligned and in bounds), or turns a
 *    miss into a stale hit;
 *  - a **valid-bit** fault forces a miss-and-refetch (usually masked,
 *    but it silently drops a dirty line's writeback) or validates a
 *    garbage line;
 *  - a **dirty-bit** fault drops or fabricates a writeback;
 *  - a **data** fault is the classic payload corruption.
 *
 * State lives in ONE flat word array tracked by ONE PageTracker — tags,
 * then the packed valid bitmap, then the packed dirty bitmap, then the
 * data words — so dirty-page hashing, delta/CoW checkpoints and restore
 * all reuse the storage machinery verbatim (a cache's delta is a plain
 * StorageDelta, like MemoryImage's).
 */

#ifndef GPR_SIM_CACHE_HH
#define GPR_SIM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sim/fault_model.hh"
#include "sim/memory_image.hh"
#include "sim/observer.hh"
#include "sim/state_page.hh"
#include "sim/trap.hh"

namespace gpr {

/** Metadata bits leading each cache line: 32 tag bits + valid + dirty. */
constexpr std::uint64_t kCacheLineMetaBits = 34;

/**
 * Fault-space bits of one cache line: 32 tag bits + valid + dirty + the
 * data words.  Fault bit indices are line-major — line L owns bits
 * [L*cacheLineBits, (L+1)*cacheLineBits); within a line, bits [0,32) are
 * the tag, bit 32 the valid bit, bit 33 the dirty bit, and the rest the
 * data words in order.
 */
constexpr std::uint64_t
cacheLineBits(std::uint32_t line_words)
{
    return kCacheLineMetaBits + std::uint64_t{32} * line_words;
}

/** ACE units of one cache line: one 34-bit metadata unit (tag + valid +
 *  dirty) followed by one unit per data word. */
constexpr std::uint64_t
cacheLineAceUnits(std::uint32_t line_words)
{
    return std::uint64_t{1} + line_words;
}

class CacheModel
{
  public:
    /**
     * @p structure / @p sm are the identity stamped on observer events
     * (the chip-shared L2 reports sm 0).  @p line_words is the line size
     * in 32-bit words; for the instruction cache, "words" are
     * instruction slots and "addresses" are instruction indices.
     */
    CacheModel(TargetStructure structure, SmId sm, std::uint32_t lines,
               std::uint32_t line_words);

    /** Outcome of a data-side read: a trap (victim writeback at a
     *  fault-corrupted address) or the word observed. */
    struct Access
    {
        std::optional<TrapKind> trap;
        Word value = 0;
    };

    /**
     * Read the word at byte address @p addr (word-aligned and in bounds
     * — the core traps misaligned/OOB program addresses *before* the
     * cache).  Misses write back a dirty victim (which may trap — see
     * the file comment) and refill through @p next when non-null (the
     * L2) or @p mem directly.
     */
    Access read(Addr addr, CacheModel* next, MemoryImage& mem,
                SimObserver* obs, Cycle now);

    /**
     * Write-allocate store of @p value at byte address @p addr; same
     * contract and miss handling as read().  Private L1 data caches are
     * **write-through**: the store updates the local line and propagates
     * immediately to @p next / @p mem, which keeps the per-SM copies
     * coherent (two SMs storing to disjoint words of one line must not
     * clobber each other at writeback).  The shared L2 is write-back.
     * A write-through L1d's dirty bits are therefore only ever set by
     * injected faults — flushing such a line is the fabricated-writeback
     * fault channel, not normal operation.
     */
    std::optional<TrapKind> write(Addr addr, Word value, CacheModel* next,
                                  MemoryImage& mem, SimObserver* obs,
                                  Cycle now);

    /** Patch the cached copy of @p addr if the line is resident (no
     *  refill, no traps, no observer events) — used to keep a private
     *  L1d consistent after an atomic performed at the shared level. */
    void updateIfPresent(Addr addr, Word value);

    /**
     * Write every valid dirty line back (line-index order) and mark it
     * clean.  Called at clean kernel completion so the memory image the
     * workload checks reflects all cached stores; a trap here is the
     * delayed detection of a corrupted tag.
     */
    std::optional<TrapKind> flushDirty(CacheModel* next, MemoryImage& mem,
                                       SimObserver* obs, Cycle now);

    /**
     * Instruction-side fetch (L1i): @p pc is an instruction index; a
     * miss silently evicts (instructions are read-only) and refills the
     * line with identity mappings (slot j of the line holds base + j),
     * so the fault-free return value is @p pc itself.  A data/tag fault
     * makes the fetch return a *different* instruction index — the core
     * executes the wrong instruction, or traps InvalidControlFlow when
     * the index is past the program.
     */
    std::uint32_t fetchInst(std::uint32_t pc, SimObserver* obs, Cycle now);

    /** Flip fault-space bit @p bit (see cacheLineBits for the layout). */
    void flipBit(BitIndex bit);

    /** Force fault-space bit @p bit to @p value (persistent faults
     *  re-assert through this every active cycle). */
    void forceBit(BitIndex bit, bool value);

    std::uint32_t lines() const { return lines_; }
    std::uint32_t lineWords() const { return lineWords_; }

    /**
     * Fold the full cache state (tags, valid/dirty bitmaps, data) into
     * @p h as a sum of cached per-page digests — cost proportional to
     * the pages written since the previous hash.
     */
    void
    hashInto(StateHash& h) const
    {
        h.mix(words_.size());
        h.mix(pages_.digestSum(words_));
    }

    // --- Delta/CoW checkpoint support (mirrors MemoryImage) -------------

    /** Declare the current state the revert/capture baseline. */
    void markCleanForRestore() { pages_.markCleanForRestore(); }

    /** Copy back from @p baseline only the pages written since
     *  markCleanForRestore() (both caches must be the same shape). */
    void revertTo(const CacheModel& baseline);

    /** Encode the pages differing from @p baseline into @p out. */
    void captureDelta(const CacheModel& baseline, StorageDelta& out) const;

    /** Overwrite the delta's pages (this cache must currently match the
     *  baseline the delta was recorded against). */
    void applyDelta(const StorageDelta& delta)
    {
        pages_.applyDelta(words_, delta);
    }

    /** Resident footprint of the full cache (pack accounting). */
    std::size_t bytes() const { return words_.size() * sizeof(Word); }

    /** Backing words including metadata (pack/hash-interval sizing). */
    std::uint32_t
    stateWords() const
    {
        return static_cast<std::uint32_t>(words_.size());
    }

  private:
    // Flat-array layout: [tags | valid bitmap | dirty bitmap | data].
    std::uint32_t tagIndex(std::uint32_t line) const { return line; }
    std::uint32_t
    validIndex(std::uint32_t line) const
    {
        return lines_ + line / 32;
    }
    std::uint32_t
    dirtyIndex(std::uint32_t line) const
    {
        return lines_ + bitmapWords_ + line / 32;
    }
    std::uint32_t
    dataIndex(std::uint32_t line, std::uint32_t j) const
    {
        return dataBase_ + line * lineWords_ + j;
    }

    Word tag(std::uint32_t line) const { return words_[tagIndex(line)]; }
    bool
    valid(std::uint32_t line) const
    {
        return (words_[validIndex(line)] >> (line % 32)) & 1u;
    }
    bool
    dirty(std::uint32_t line) const
    {
        return (words_[dirtyIndex(line)] >> (line % 32)) & 1u;
    }
    Word
    data(std::uint32_t line, std::uint32_t j) const
    {
        return words_[dataIndex(line, j)];
    }

    /** Every mutation funnels through here so the PageTracker sees it. */
    void
    setWord(std::uint32_t index, Word value)
    {
        words_[index] = value;
        pages_.onWrite(index);
    }
    void setTag(std::uint32_t line, Word t) { setWord(tagIndex(line), t); }
    void setFlag(std::uint32_t index, std::uint32_t line, bool on);
    void
    setValid(std::uint32_t line, bool on)
    {
        setFlag(validIndex(line), line, on);
    }
    void
    setDirty(std::uint32_t line, bool on)
    {
        setFlag(dirtyIndex(line), line, on);
    }
    void
    setData(std::uint32_t line, std::uint32_t j, Word v)
    {
        setWord(dataIndex(line, j), v);
    }

    Addr lineBytes() const { return static_cast<Addr>(lineWords_) * 4; }
    std::uint32_t
    lineIndexOf(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr / lineBytes()) % lines_);
    }
    std::uint32_t
    wordOffsetOf(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr / 4) % lineWords_);
    }

    // Observer unit mapping (matches cacheLineAceUnits).
    std::uint32_t
    metaUnit(std::uint32_t line) const
    {
        return line * (1 + lineWords_);
    }
    std::uint32_t
    dataUnit(std::uint32_t line, std::uint32_t j) const
    {
        return metaUnit(line) + 1 + j;
    }

    std::optional<TrapKind> writebackLine(std::uint32_t line,
                                          CacheModel* next,
                                          MemoryImage& mem,
                                          SimObserver* obs, Cycle now);
    std::optional<TrapKind> refillLine(std::uint32_t line, Addr base,
                                       CacheModel* next, MemoryImage& mem,
                                       SimObserver* obs, Cycle now);
    std::optional<TrapKind> ensureLine(Addr addr, CacheModel* next,
                                       MemoryImage& mem, SimObserver* obs,
                                       Cycle now, std::uint32_t& line);

    TargetStructure structure_;
    SmId sm_;
    /** True for private L1 data caches (stores propagate to the next
     *  level immediately); false for the write-back shared L2. */
    bool writeThrough_;
    std::uint32_t lines_;
    std::uint32_t lineWords_;
    std::uint32_t bitmapWords_; ///< words per packed line bitmap
    std::uint32_t dataBase_;    ///< word index of the first data word
    std::vector<Word> words_;
    PageTracker pages_;
};

} // namespace gpr

#endif // GPR_SIM_CACHE_HH
