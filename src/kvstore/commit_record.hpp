/**
 * @file
 * Cross-shard commit machinery for ProteusKV's 2PC-over-TM protocol.
 *
 * A writing multiOp cannot get cross-shard atomicity from TM alone
 * (shards are separate PolyTM universes), so it commits in two phases:
 *
 *  1. *prepare* — one TM transaction per touched shard validates the
 *     reads and publishes a per-slot WriteIntent (the slot's intent
 *     word becomes a pointer to the intent, installed transactionally,
 *     so it appears atomically with the rest of the shard's prepare);
 *  2. *commit point* — one atomic store flips the shared CommitRecord
 *     from kPending to kCommitted (or kAborted on validation/capacity
 *     failure);
 *  3. *finalize* — one TM transaction per shard folds each intent into
 *     the real slot words and clears the intent pointer.
 *
 * Any other operation that encounters an intent resolves it by reading
 * the commit record — use the pre-image while kPending, the intent's
 * post-image once kCommitted, discard on kAborted — so single-key
 * traffic keeps flowing through a multi-key commit instead of waiting
 * for it.
 *
 * Memory lifetime. Intent pointers are loaded inside reader
 * transactions that may dereference them *after* the owner finalized
 * and moved on (the reader will fail TM validation at commit because
 * the intent word changed, but it must not touch freed memory
 * mid-transaction). Therefore intents live in an IntentArena with
 * stable addresses that is recycled, never shrunk, and a session's
 * CommitContext is retired to the store's graveyard instead of freed
 * when the session closes. Reader-visible fields are atomics so
 * recycling can race stale readers without undefined behaviour; the
 * TM read-set validation is what rejects any value computed from a
 * recycled intent.
 */

#ifndef PROTEUS_KVSTORE_COMMIT_RECORD_HPP
#define PROTEUS_KVSTORE_COMMIT_RECORD_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace proteus::kvstore {

struct ShardTable;

/**
 * Shared fate word of one cross-shard commit: (epoch << 2) | state.
 *
 * The epoch increments every time the owning session re-arms the
 * record for its next multiOp. Resolvers only trust a status whose
 * epoch matches the tag carried in the intent word they loaded (see
 * packIntentWord): a record recycled underneath a slow reader then
 * reads as a different epoch — never as a stale COMMITTED verdict
 * applied to the wrong generation's payload.
 */
struct CommitRecord
{
    static constexpr std::uint64_t kPending = 0;
    static constexpr std::uint64_t kCommitted = 1;
    static constexpr std::uint64_t kAborted = 2;

    std::atomic<std::uint64_t> status{kPending};

    /**
     * (global commit sequence << 16) | (epoch & 0xffff) — the commit
     * timestamp of this record's current generation, stored by the
     * owner at its commit point *after* reserving the store-wide
     * sequence and *before* bumping any per-shard sequence or
     * flipping the status. Snapshot readers compare seqOf() against
     * their sampled read timestamp to include or exclude an in-flight
     * commit without retrying (shard.cpp::resolveSlotLiveTx). A tag
     * that does not match the intent's epoch means the sequence of
     * this generation is not assigned yet (the word still belongs to
     * a previous multiOp) — the commit, if it ever flips, is then
     * guaranteed to be ordered after the reader's snapshot.
     */
    std::atomic<std::uint64_t> commitSeq{0};

    static std::uint64_t stateOf(std::uint64_t word) { return word & 3; }
    static std::uint64_t epochOf(std::uint64_t word) { return word >> 2; }

    static std::uint64_t seqOf(std::uint64_t word) { return word >> 16; }
    static std::uint64_t seqEpochTag(std::uint64_t word)
    {
        return word & 0xffff;
    }
    static std::uint64_t
    packSeq(std::uint64_t seq, std::uint64_t epoch)
    {
        return (seq << 16) | (epoch & 0xffff);
    }
};

/**
 * One prepared write to one slot. Published by storing this object's
 * address into the slot's intent word inside the prepare transaction.
 *
 * `record`, `newState`, `newValue` and `newExpiry` are read by
 * concurrent resolvers (possibly after the entry was recycled — see
 * file comment); `table` and `slot` are touched only by the owning
 * thread (finalize/abort must address the table the intent was
 * installed in, which may have become the *old* table if a resize
 * started mid-commit).
 */
struct WriteIntent
{
    std::atomic<CommitRecord *> record{nullptr};
    /** Post-image slot state: kFull, kFullRef or kTombstone. */
    std::atomic<std::uint64_t> newState{0};
    std::atomic<std::uint64_t> newValue{0};
    /** Post-image TTL deadline (0 = none). */
    std::atomic<std::uint64_t> newExpiry{0};

    ShardTable *table = nullptr;
    std::uint64_t slot = 0;
    /** Owner-only (like table/slot): the pending insert claimed a
     *  tombstone, not an empty slot — finalize must then neither
     *  count the slot as newly consumed nor, on a delete, as a newly
     *  minted tombstone. */
    bool claimedTombstone = false;
};

/**
 * A slot's intent word carries the owning record's epoch in its top
 * 16 bits next to the entry pointer (user-space heap pointers fit in
 * 48 bits on every platform this builds for). Two consequences:
 * value-validating backends (NOrec) distinguish a recycled
 * same-address intent from the original — the republished word
 * differs — and resolvers can check that the status they read belongs
 * to the same generation as the intent they hold. (The tag wraps at
 * 2^16; a wrap-collision would additionally need the reader to miss
 * 65536 commit-sequence bumps, which the snapshot validation in
 * KvStore catches.)
 */
constexpr unsigned kIntentEpochShift = 48;
constexpr std::uint64_t kIntentPtrMask =
    (std::uint64_t{1} << kIntentEpochShift) - 1;

inline std::uint64_t
packIntentWord(const WriteIntent *intent, std::uint64_t epoch)
{
    return reinterpret_cast<std::uint64_t>(intent) |
           (epoch << kIntentEpochShift);
}

inline WriteIntent *
intentOf(std::uint64_t word)
{
    return reinterpret_cast<WriteIntent *>(word & kIntentPtrMask);
}

inline std::uint64_t
intentEpochTag(std::uint64_t word)
{
    return word >> kIntentEpochShift;
}

/**
 * Bump allocator of WriteIntents with stable addresses. rewindTo()
 * lets a retried prepare transaction reuse the entries of its aborted
 * attempt; memory is only released on destruction.
 */
class IntentArena
{
  public:
    WriteIntent *alloc();

    std::size_t mark() const { return used_; }
    void rewindTo(std::size_t mark) { used_ = mark; }
    void reset() { used_ = 0; }

  private:
    static constexpr std::size_t kChunk = 64;
    std::vector<std::unique_ptr<WriteIntent[]>> chunks_;
    std::size_t used_ = 0;
};

/**
 * Per-session 2PC state: one commit record (recycled across the
 * session's multiOps — legal because every intent of the previous
 * multiOp is cleared before the record's status is re-armed) plus the
 * intent arena. Retired to the store's pool/graveyard on session
 * close; `next` chains retired contexts intrusively so parking one is
 * a noexcept pointer swap — the retirement paths run under memory
 * pressure (bad_alloc handling) and must not themselves allocate.
 */
struct CommitContext
{
    CommitRecord record;
    IntentArena arena;
    std::unique_ptr<CommitContext> next;
};

} // namespace proteus::kvstore

#endif // PROTEUS_KVSTORE_COMMIT_RECORD_HPP
