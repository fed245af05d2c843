/**
 * @file
 * Ownership records (orecs), the global version clock, and the shared
 * lock-table used by the word-based STMs.
 *
 * An orec is a 64-bit versioned lock:
 *   - unlocked: (version << 1) | 0
 *   - locked:   (owner-thread-id << 1) | 1
 *
 * Versions are drawn from a global clock (TL2/TinySTM-style). All orec
 * state lives in backend-owned tables, never inside application memory,
 * which is the integration requirement PolyTM imposes on backends
 * (paper §4: metadata "in separate memory regions").
 */

#ifndef PROTEUS_TM_OREC_HPP
#define PROTEUS_TM_OREC_HPP

#include <atomic>
#include <cstdint>

#include "common/cacheline.hpp"
#include "common/pages.hpp"

namespace proteus::tm {

/** Word describing an orec state. */
struct OrecWord
{
    std::uint64_t raw = 0;

    static constexpr std::uint64_t kLockBit = 1;

    bool locked() const { return (raw & kLockBit) != 0; }
    std::uint64_t version() const { return raw >> 1; }
    std::uint64_t owner() const { return raw >> 1; }

    static OrecWord makeVersion(std::uint64_t version)
    {
        return OrecWord{version << 1};
    }

    static OrecWord makeLocked(std::uint64_t owner_tid)
    {
        return OrecWord{(owner_tid << 1) | kLockBit};
    }

    bool operator==(const OrecWord &other) const = default;
};

/**
 * One versioned lock, alone on a cache line.
 *
 * The word is plain storage reached through std::atomic_ref, which
 * keeps Orec an implicit-lifetime aggregate: the zero pages of a fresh
 * or reset OrecTable are unlocked version-0 orecs without a
 * constructor writing (and so faulting in) every one of them.
 */
struct alignas(kCacheLineSize) Orec
{
    std::uint64_t word;

    OrecWord load(std::memory_order mo = std::memory_order_acquire) const
    {
        return OrecWord{ref().load(mo)};
    }

    /** Try to move unlocked `expected` -> locked by `tid`. */
    bool
    tryLock(OrecWord expected, std::uint64_t tid)
    {
        std::uint64_t raw = expected.raw;
        return ref().compare_exchange_strong(
            raw, OrecWord::makeLocked(tid).raw, std::memory_order_acq_rel);
    }

    /** Release a lock we own, installing a new version. */
    void
    releaseToVersion(std::uint64_t version)
    {
        ref().store(OrecWord::makeVersion(version).raw,
                    std::memory_order_release);
    }

    /** Release a lock we own, restoring the pre-lock word. */
    void
    releaseRestore(OrecWord prev)
    {
        ref().store(prev.raw, std::memory_order_release);
    }

  private:
    std::atomic_ref<std::uint64_t> ref() const
    {
        return std::atomic_ref<std::uint64_t>(
            const_cast<std::uint64_t &>(word));
    }
};

/**
 * Fixed-size hash table of orecs indexed by address.
 *
 * The stripe count is a power of two; addresses map to stripes at
 * word granularity with a multiplicative hash, like TinySTM's
 * lock array.
 *
 * The table is a PageArray, one zero-filled anonymous mapping
 * (common/pages.hpp):
 * an all-zero orec is unlocked at version 0, so construction writes
 * nothing and a page of orecs becomes resident only once a
 * transaction locks a stripe on it. reset() hands every page back.
 * PolyTM resets both backends of a switch, so only the active
 * backend's pages are resident.
 */
class OrecTable
{
  public:
    /** @param log2_size log2 of the number of stripes. */
    explicit OrecTable(unsigned log2_size = 20)
        : mask_((std::size_t{1} << log2_size) - 1), orecs_(mask_ + 1)
    {}

    Orec &forAddr(const void *addr)
    {
        return orecs_[indexOf(addr)];
    }

    /** The orec of stripe `i` (< size()). */
    Orec &operator[](std::size_t i) { return orecs_[i]; }

    std::size_t indexOf(const void *addr) const
    {
        auto bits = reinterpret_cast<std::uintptr_t>(addr) >> 3;
        bits *= 0x9e3779b97f4a7c15ull;
        return static_cast<std::size_t>(bits >> 24) & mask_;
    }

    std::size_t size() const { return mask_ + 1; }

    /** Reset all stripes to version 0 and release their pages (only
     *  while quiesced). */
    void reset() { orecs_.discard(); }

  private:
    std::size_t mask_;
    PageArray<Orec> orecs_;
};

/** Global version clock shared by the timestamp-based STMs. */
class GlobalClock
{
  public:
    std::uint64_t now() const
    {
        return clock_->load(std::memory_order_acquire);
    }

    /** Atomically advance and return the new timestamp. */
    std::uint64_t tick()
    {
        return clock_->fetch_add(1, std::memory_order_acq_rel) + 1;
    }

    /** Reset to zero (only while quiesced). */
    void reset() { clock_->store(0, std::memory_order_relaxed); }

  private:
    PaddedAtomicU64 clock_{};
};

} // namespace proteus::tm

#endif // PROTEUS_TM_OREC_HPP
