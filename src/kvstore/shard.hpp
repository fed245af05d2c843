/**
 * @file
 * One ProteusKV shard: an elastic open-addressing hash table whose
 * every operation runs as a transaction on the shard's private PolyTM
 * instance.
 *
 * Layout: a shard owns a chain of ShardTables (five parallel word
 * arrays each: state / key / value / expiry / intent, linear probing
 * with tombstones) plus a ValueArena for wide values. All slot words
 * are accessed only through Tx::readWord/writeWord, so any mix of
 * backends (STM, emulated HTM, hybrid, global lock) serializes
 * get/put/del/scan correctly — and the shard can be re-tuned live by
 * a per-shard ProteusRuntime without pausing the service.
 *
 * Online resize. Which tables exist is itself transactional state: a
 * TM-visible epoch word holds a pointer to an immutable TableEpoch
 * {live, old}. Every operation reads the epoch word first, so a grow
 * (publishing a doubled live table with the previous one as `old`)
 * invalidates every straddling transaction through ordinary TM
 * conflict detection. During migration, lookups consult live-then-old;
 * inserts go to live only; updates and deletes hit the key wherever it
 * currently lives — a key is live in at most one table at any
 * committed state. Writers piggyback bounded migration chunks
 * (maintainTick) that relocate old-table slots into live as small
 * transactions; when the old table drains, a follow-up epoch {live,
 * nullptr} retires it. Retired tables and epochs are never freed
 * before shard destruction, so a doomed transaction that loaded a
 * stale epoch never touches unmapped memory. put() only reports
 * failure once growth is capped (ShardOptions::maxLog2Slots) AND the
 * table is full; otherwise callers grow-and-retry via tryGrow().
 *
 * Values. A slot's value word is state-tagged: kFull means a raw
 * 64-bit value (numeric API, kAdd arithmetic); kFullRef means a
 * ValueRef — inline small bytes or a blob handle into the shard's
 * ValueArena (see value_arena.hpp). Numeric reads of byte values
 * decode the leading 8 bytes; byte reads of numeric values return the
 * 8 raw bytes. Blob allocation happens outside transactions; displaced
 * blob handles are pushed onto caller-provided reclaim lists and
 * *retired* (not freed) after the displacing transaction committed:
 * the arena recycles them only once every reader-epoch section that
 * could hold the handle has ended (readerEpochs_), which is what lets
 * pinned byte readers copy blobs with zero seqlock re-checks.
 *
 * TTL. A slot's expiry word is an absolute nowNanos() deadline (0 =
 * none). Reads treat an expired slot as absent (lazy expiry); a
 * clock-hand sweep (the migration walker pointed at the live table)
 * tombstones expired slots in the background.
 *
 * Write intents (2PC commit). A slot's intent word is either 0 or
 * a pointer to a WriteIntent belonging to an in-flight cross-shard
 * commit (see commit_record.hpp). Slot states then read as:
 *  - kFull/kFullRef + intent: the pre-image is live until the intent's
 *    record commits, after which the intent's post-image wins;
 *  - kPendingInsert (+ intent, always): the key is invisible until the
 *    record commits; the slot is consumed so concurrent inserts probe
 *    past it. Finalize turns it kFull/kFullRef, abort turns it
 *    kTombstone (never back to kEmpty — probe chains may already run
 *    past it).
 * Readers resolve intents without blocking: point reads take the
 * committed image (ReadView::kLatest), and snapshot reads compare the
 * record's commit sequence against their sampled read timestamp
 * (ReadView::kSnapshot) so an in-flight commit is included or
 * excluded deterministically instead of forcing a retry round — the
 * only wait left is the few-store window between a commit's sequence
 * reservation and its status flip. Writers fold a finished
 * (committed/aborted) intent in their own transaction and proceed; a
 * still-pending intent makes a writer wait out the short prepare→
 * commit window (retry-with-backoff when the backend is revocable,
 * in-place spin on the status word when irrevocable — the commit flip
 * is a plain atomic store, so it needs no TM resources a spinner
 * could be holding). Intents record the table they were installed in,
 * so a 2PC that straddles a grow finalizes against the right slots.
 *
 * Resize vs compaction. A doubling grow is triggered by consumed
 * slots crossing growLoadPercent — unless tombstones dominate the
 * consumed count (delete churn), in which case the shard migrates
 * into a SAME-size table instead, shedding the tombstones without
 * doubling memory; a capped shard whose table fills with tombstones
 * compacts the same way rather than failing the insert.
 *
 * Control-byte filter (Swiss-table style). Each table carries one
 * byte per slot, packed 8-per-word in `ctrl`: 0x80 = never used,
 * 0xFF = tombstone, 0x00-0x7F = the 7-bit hash fingerprint of the
 * resident key (kPendingInsert slots carry their key's fingerprint
 * too — probers must find them to resolve the intent). The probe
 * reads two ctrl words per 16 slots through the TM — putting them in
 * the read set, so a skipped slot cannot change state behind a
 * straddling transaction's back — and byte-matches them 16 ways in
 * registers (common/simd.hpp). Only fingerprint-match / empty /
 * tombstone lanes fall through to the state/key words; correctness
 * still rests entirely on those transactional words — every candidate
 * is verified, termination only happens on a TM-read kEmpty state,
 * and a wrong hint in the safe directions (empty/tombstone/garbage
 * with bit 7 set over a live key, any fingerprint over an
 * empty/tombstone slot) costs extra verification reads, never a lost
 * key. Ctrl bytes are maintained *transactionally*: every site that
 * changes a slot's state class rewrites the slot's ctrl byte in the
 * same transaction (insert/delete/2PC prepare/finalize/abort/restore,
 * migration, TTL sweep), which keeps the filter exact at every
 * committed state. The maintenance walkers (migration, sweep, scan)
 * share one ctrl-lane walker, forEachKeyedSlotTx, which uses the same
 * words to skip empty/tombstone runs wholesale. The group probe is
 * the only probe, so every table holds at least one 16-slot ctrl
 * group (log2Slots >= 4).
 */

#ifndef PROTEUS_KVSTORE_SHARD_HPP
#define PROTEUS_KVSTORE_SHARD_HPP

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.hpp"
#include "common/pages.hpp"
#include "common/simd.hpp"
#include "kvstore/commit_record.hpp"
#include "kvstore/value_arena.hpp"
#include "obs/flight_recorder.hpp"
#include "polytm/polytm.hpp"

namespace proteus::kvstore {

/**
 * How a read resolves a slot that carries an in-flight cross-shard
 * write intent (see resolveSlotLiveTx):
 *
 *  - kLatest   : non-blocking point read. COMMITTED intents win,
 *                PENDING ones yield the pre-image. Single-key gets.
 *  - kSnapshot : validation-free snapshot read against the sampled
 *                store-wide commit sequence `seq`. A commit whose
 *                record sequence is <= seq is included (its verdict is
 *                briefly waited out if the flip is still in flight —
 *                the window spans only the owner's per-shard sequence
 *                bumps); one ordered after the snapshot is excluded.
 *                Used by read-only multiOps and KvStore scans, paired
 *                with the caller's trailing per-shard sequence check.
 *  - kSettle   : wait every PENDING intent out to its verdict. Gives
 *                a standalone shard scan all-or-nothing consistency
 *                per commit without any store-level sequence to
 *                validate against.
 */
struct ReadView
{
    enum class Mode : std::uint8_t
    {
        kLatest = 0,
        kSnapshot,
        kSettle,
    };

    Mode mode = Mode::kLatest;
    /** Sampled store-wide commit sequence (kSnapshot only). */
    std::uint64_t seq = 0;
};

struct ShardOptions
{
    /** log2 of the initial slot count, in [4, 31] (at least one
     *  16-slot ctrl group); default 2^14 slots. */
    unsigned log2Slots = 14;
    /**
     * Growth cap: tables double until 2^maxLog2Slots slots. 0 means
     * unbounded; equal to log2Slots pins the seed's fixed capacity
     * (put() then reports failure on a full table again).
     */
    unsigned maxLog2Slots = 0;
    /** Consumed-slot percentage that triggers a proactive grow. */
    unsigned growLoadPercent = 70;
    /** Old-table slots relocated per migration step. */
    unsigned migrateChunkSlots = 64;
    /** Live-table slots visited per TTL sweep step. */
    unsigned sweepChunkSlots = 64;
    /** TM configuration active at construction. */
    polytm::TmConfig initial{};
    /**
     * log2 of the per-backend orec/stripe table. Smaller than the
     * PolyTM default (18): a shard covers only its own slice of the
     * key space. Tables are mapped lazily, so a shard's resident
     * footprint is the pages its active backend has written, at most
     * that backend's tables (64 B per stripe each; one table, two for
     * SwissTM).
     */
    unsigned log2Orecs = 16;
    /**
     * Observability plane, injected by the owning KvStore (all three
     * null/-1 for a standalone shard): the flight recorder that
     * maintenance and arena events land in, the store-wide commit
     * sequence they are stamped with, and this shard's index for
     * attribution.
     */
    obs::FlightRecorder *recorder = nullptr;
    const std::atomic<std::uint64_t> *commitSeq = nullptr;
    int shardIndex = -1;
};

/** Slot states; the value word's interpretation is state-tagged. */
enum SlotState : std::uint64_t
{
    kEmpty = 0,
    kFull = 1, //!< value word is a raw 64-bit value
    kTombstone = 2,
    /** Insert prepared by an uncommitted cross-shard commit. */
    kPendingInsert = 3,
    kFullRef = 4, //!< value word is a ValueRef (see value_arena.hpp)
};

/** The one definition of "this slot state carries a value". */
inline bool
slotStateIsValue(std::uint64_t state)
{
    return state == kFull || state == kFullRef;
}

/** Control-byte filter encoding (see the file comment): never-used /
 *  tombstone markers carry bit 7; resident keys carry their 7-bit
 *  fingerprint (bit 7 clear). */
inline constexpr std::uint8_t kCtrlEmpty = 0x80;
inline constexpr std::uint8_t kCtrlTombstone = 0xff;
/** A ctrl word of 8 never-used slots (table construction fill). */
inline constexpr std::uint64_t kCtrlEmptyWord = 0x8080808080808080ull;
/** Slots matched per ctrl-group compare (two ctrl words). */
inline constexpr std::size_t kCtrlGroupSlots = 16;

/** 7-bit key fingerprint from the full mixed hash: the top 7 bits,
 *  disjoint from the low bits that pick the home slot. */
inline std::uint8_t
ctrlFingerprint(std::uint64_t hash)
{
    return static_cast<std::uint8_t>(hash >> 57);
}

/** One table generation (see the resize notes in the file comment). */
struct ShardTable
{
    explicit ShardTable(std::size_t slot_count)
        : slots(slot_count), mask(slot_count - 1),
          state(slot_count, kEmpty), keys(slot_count),
          values(slot_count), expiry(slot_count),
          intents(slot_count),
          ctrl((slot_count + 7) / 8, kCtrlEmptyWord)
    {}

    const std::size_t slots;
    const std::size_t mask;
    /** Slot words, each array its own zero-filled mapping; arrays
     *  of 2 MiB and up sit on huge pages (common/pages.hpp). */
    PageArray<std::uint64_t> state;
    PageArray<std::uint64_t> keys;
    PageArray<std::uint64_t> values;
    /** Absolute nowNanos() deadline; 0 = no TTL. */
    PageArray<std::uint64_t> expiry;
    /** 0 or a WriteIntent* of an in-flight cross-shard commit. */
    PageArray<std::uint64_t> intents;
    /** Control-byte filter, 8 slots per TM-visible word (slot s is
     *  byte s&7 of word s>>3); see the file comment. */
    PageArray<std::uint64_t> ctrl;

    /** Heuristic non-kEmpty slot count (grow trigger; drift is ok). */
    std::atomic<std::size_t> consumed{0};
    /**
     * Heuristic tombstone count (compaction trigger). Signed so racy
     * decrements can momentarily undershoot without wrapping. Known
     * drift: helper-folded deletes and aborted pending inserts mint
     * tombstones uncounted (low drift), and raced double-accounting
     * can overshoot (high drift) — both are bounded to one table
     * generation, because every migration (grow OR compact) rebuilds
     * the new table's counters from the relocated truth.
     */
    std::atomic<std::int64_t> tombstones{0};
    /** Next migration chunk to claim (when this is the old table).
     *  Chunk claims are always chunk-aligned: stall rewinds CAS back
     *  to a chunk's begin, never into its middle. */
    std::atomic<std::size_t> migrateCursor{0};
    /** Distinct migration chunks fully relocated. */
    std::atomic<std::size_t> chunksDone{0};
    /** Per-chunk completion bits (allocated when this table becomes
     *  the migration source): a chunk re-processed after a stall
     *  rewind must count toward chunksDone exactly once, or the old
     *  table could retire with un-migrated keys still in it. */
    std::unique_ptr<std::atomic<std::uint8_t>[]> chunkDone;
    std::size_t totalChunks = 0;
    /** TTL clock hand (when this is the live table). */
    std::atomic<std::size_t> sweepCursor{0};
};

/**
 * Immutable per-generation table view; the shard's TM-visible epoch
 * word points at the current one.
 */
struct TableEpoch
{
    ShardTable *live = nullptr;
    ShardTable *old = nullptr; //!< non-null while migrating
};

/** Pre-image of one slot (kEmpty state = key was absent). */
struct SlotImage
{
    std::uint64_t state = kEmpty;
    std::uint64_t value = 0;
    std::uint64_t expiry = 0;
};

class Shard
{
  public:
    explicit Shard(ShardOptions options = {});
    ~Shard();

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /**
     * Register the calling thread with this shard's PolyTM. Throws
     * (from PolyTM / ThreadGate) when more than tm::kMaxThreads
     * workers try to register — the KV driver must size its pool
     * accordingly. The token carries the thread's reader-epoch slot
     * so byte-read paths can pin blobs (see readerEpochs()).
     */
    polytm::ThreadToken
    registerWorker()
    {
        polytm::ThreadToken token = poly_.registerThread();
        token.epochSlot = readerEpochs_.claimSlot(
            static_cast<std::size_t>(token.tid));
        return token;
    }
    void deregisterWorker(polytm::ThreadToken &token)
    {
        poly_.deregisterThread(token);
    }

    /**
     * Whole-op transactions (each runs its own PolyTM transaction).
     * put()/putBytes() grow-and-retry on a full table and fail only
     * when growth is capped. ttl_nanos is relative (0 = no expiry).
     */
    bool get(polytm::ThreadToken &token, std::uint64_t key,
             std::uint64_t *value = nullptr);
    bool put(polytm::ThreadToken &token, std::uint64_t key,
             std::uint64_t value, std::uint64_t ttl_nanos = 0);
    bool del(polytm::ThreadToken &token, std::uint64_t key);
    bool putBytes(polytm::ThreadToken &token, std::uint64_t key,
                  const void *data, std::size_t len,
                  std::uint64_t ttl_nanos = 0);
    bool getBytes(polytm::ThreadToken &token, std::uint64_t key,
                  std::string *out);

    /**
     * Collect up to `limit` live entries starting from key's home slot
     * (YCSB-E-style short range scan; open addressing makes it a slot
     * walk, not a key-ordered scan). One transaction, run under
     * ReadView::kSettle so every in-flight cross-shard commit it
     * touches resolves to a terminal verdict (all-or-nothing per
     * commit). During a migration the walk covers the live table,
     * then the old one — a key is live in at most one of them.
     */
    std::size_t scan(polytm::ThreadToken &token, std::uint64_t start_key,
                     std::size_t limit,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>
                         *out = nullptr);

    /**
     * Transactional primitives for composition: run inside a caller-
     * managed transaction (KvStore multi-key commits, batches). All are
     * intent-aware: they resolve any write intent on the touched slot
     * as described in the file comment. Write primitives optionally
     * report the displaced pre-image (`pre`, captured after intent
     * resolution from the same probe walk) for compensation-log
     * callers, and push displaced blob handles onto `reclaim` — the
     * caller frees those only after the transaction committed.
     */
    bool getTx(polytm::Tx &tx, std::uint64_t key,
               std::uint64_t *value = nullptr);
    /**
     * getTx under an explicit ReadView: kSnapshot resolves in-flight
     * intents against the caller's sampled commit sequence instead of
     * retry-looping (the caller pairs it with a trailing per-shard
     * sequence check); kSettle waits intents out to their verdict.
     * The bytes variant requires the caller to be pinned in this
     * shard's readerEpochs() for the transaction body — the blob
     * copy-out runs with no seqlock re-check.
     */
    bool snapshotGetTx(polytm::Tx &tx, std::uint64_t key,
                       std::uint64_t *value, const ReadView &view);
    bool snapshotGetBytesTx(polytm::Tx &tx, std::uint64_t key,
                            std::string *out, const ReadView &view);
    /**
     * getTx that first makes the slot writable — waiting out / folding
     * any foreign intent exactly like the write primitives do — so the
     * returned pre-image is the one a subsequent write in this same
     * transaction builds on. Required for compensation-log capture: a
     * plain getTx may return the pre-image of a still-PENDING foreign
     * commit that a following putTx then folds, and restoring the
     * earlier value on abort would erase that commit's write.
     */
    bool getForUpdateTx(polytm::Tx &tx, std::uint64_t key,
                        std::uint64_t *value);
    bool getBytesForUpdateTx(polytm::Tx &tx, std::uint64_t key,
                             std::string *out);
    /** Store a raw 64-bit value (state kFull). False on a full table. */
    bool putTx(polytm::Tx &tx, std::uint64_t key, std::uint64_t value,
               std::uint64_t expiry = 0, SlotImage *pre = nullptr,
               std::vector<std::uint64_t> *reclaim = nullptr);
    /** Store a ValueRef (state kFullRef). False on a full table. */
    bool putRefTx(polytm::Tx &tx, std::uint64_t key, ValueRef ref,
                  std::uint64_t expiry = 0, SlotImage *pre = nullptr,
                  std::vector<std::uint64_t> *reclaim = nullptr);
    bool delTx(polytm::Tx &tx, std::uint64_t key,
               SlotImage *pre = nullptr,
               std::vector<std::uint64_t> *reclaim = nullptr);
    /**
     * value += delta (two's-complement), creating the key at delta.
     * A byte value is coerced through its numeric decode (the blob is
     * displaced onto `reclaim`).
     */
    bool addTx(polytm::Tx &tx, std::uint64_t key, std::int64_t delta,
               SlotImage *pre = nullptr,
               std::vector<std::uint64_t> *reclaim = nullptr,
               SlotImage *post = nullptr);
    /**
     * Compensation-log replay: force the slot for `key` back to the
     * given pre-image (kEmpty state deletes). Runs inside the same
     * transaction as the failed attempt, so the insert point is
     * always available.
     */
    void restoreTx(polytm::Tx &tx, std::uint64_t key,
                   const SlotImage &pre);
    /** Scan under a ReadView (kLatest scans can return a torn mix of
     *  one composite's pre-/post-images; use kSnapshot + the trailing
     *  sequence check, or kSettle, for consistent scans). */
    std::size_t
    scanTx(polytm::Tx &tx, std::uint64_t start_key, std::size_t limit,
           std::vector<std::pair<std::uint64_t, std::uint64_t>> *out,
           const ReadView &view = {});
    /** Byte-decoding scan (numeric values yield their 8 raw bytes);
     *  requires the caller pinned in readerEpochs() (see
     *  snapshotGetBytesTx). */
    struct ScanEntry
    {
        std::uint64_t key = 0;
        std::string bytes;
    };
    std::size_t scanEntriesTx(polytm::Tx &tx, std::uint64_t start_key,
                              std::size_t limit,
                              std::vector<ScanEntry> *out,
                              const ReadView &view = {});

    /**
     * 2PC prepare primitives: validate the operation and publish a
     * WriteIntent pointing at `record` instead of mutating the live
     * words. Newly allocated intents are appended to `out` (merged
     * re-writes of a slot this multiOp already prepared mutate the
     * existing intent in place — legal because nothing is visible
     * until the enclosing transaction commits). `*applied` receives
     * the op's logical outcome exactly as the direct primitives
     * report it. preparePutTx/prepareAddTx return false only when the
     * table has no slot (the caller must then grow-and-retry, or
     * abort the whole commit when growth is capped). `new_state` is
     * kFull or kFullRef; displaced kFullRef pre-images land on
     * `reclaim` (freed by the owner only after the record committed).
     */
    bool preparePutTx(polytm::Tx &tx, CommitRecord *record,
                      IntentArena &arena,
                      std::vector<WriteIntent *> &out, std::uint64_t key,
                      std::uint64_t new_state, std::uint64_t value,
                      std::uint64_t expiry, bool *applied,
                      std::vector<std::uint64_t> *reclaim = nullptr);
    void prepareDelTx(polytm::Tx &tx, CommitRecord *record,
                      IntentArena &arena,
                      std::vector<WriteIntent *> &out, std::uint64_t key,
                      bool *applied,
                      std::vector<std::uint64_t> *reclaim = nullptr);
    bool prepareAddTx(polytm::Tx &tx, CommitRecord *record,
                      IntentArena &arena,
                      std::vector<WriteIntent *> &out, std::uint64_t key,
                      std::int64_t delta, bool *applied,
                      std::vector<std::uint64_t> *reclaim = nullptr,
                      SlotImage *post = nullptr);
    /** Read that sees this commit's own intents (read-your-writes). */
    bool prepareGetTx(polytm::Tx &tx, CommitRecord *record,
                      std::uint64_t key, std::uint64_t *value);
    bool prepareGetBytesTx(polytm::Tx &tx, CommitRecord *record,
                           std::uint64_t key, std::string *out);

    /**
     * Fold one of this commit's intents into the live slot words and
     * clear the intent pointer; a no-op if a helping writer already
     * folded it. Call with the record kCommitted. Returns true when
     * the fold turned a pending insert into a value slot on a
     * previously EMPTY slot (the caller feeds the consumed-slot
     * heuristic; a tombstone-claiming insert consumed nothing new);
     * `tombstone_delta` (optional) accumulates the net tombstones the
     * fold created (+1 committed delete of a value slot, -1 insert
     * that reused a tombstone).
     */
    bool finalizeIntentTx(polytm::Tx &tx, WriteIntent *intent,
                          std::int64_t *tombstone_delta = nullptr);

    /**
     * Discard one of this commit's intents (pending inserts become
     * tombstones); a no-op if already helped. Normally called with
     * the record kAborted, but the record's verdict is deliberately
     * never read here: the irrevocable table-full path discards a
     * failed prepare's intents while the record is still kPending.
     */
    void abortIntentTx(polytm::Tx &tx, WriteIntent *intent);

    /**
     * Maintenance step, called by writers after their op commits (and
     * by the KvStore batching loop): relocates one migration chunk
     * when a resize is in flight (or, on a growable shard whose live
     * table already crossed the load threshold, drains the whole
     * migration first), triggers a proactive grow when the live table
     * crosses the load threshold, and occasionally advances the TTL
     * clock hand. Cheap (two atomic loads) when idle.
     */
    void maintainTick(polytm::ThreadToken &token);

    /**
     * Make capacity progress after an operation reported a full table
     * of `full_capacity` slots: helps drain an in-flight migration,
     * then doubles the live table. Returns false only when the table
     * cannot grow past `full_capacity` (maxLog2Slots reached) — the
     * caller's operation has genuinely failed.
     */
    bool tryGrow(polytm::ThreadToken &token, std::size_t full_capacity);

    /** Drive the current migration (if any) to completion. */
    void drainMigration(polytm::ThreadToken &token);

    /** Bump the heuristic consumed-slot count (insert bookkeeping). */
    void noteConsumed(std::size_t n);

    /** Adjust the heuristic tombstone count: +1 per committed delete
     *  of a value slot, -1 per insert that reused a tombstone. Feeds
     *  the compaction-vs-grow decision; drift is tolerated. */
    void noteTombstones(std::int64_t delta);

    /**
     * Post-commit bookkeeping shared by every direct put path (the
     * Shard wrappers and KvStore's session-aware ones): free the
     * displaced blob handles, feed the consumed-slot heuristic, run a
     * maintenance tick. Call only after the put's transaction
     * committed.
     */
    void finishWrite(polytm::ThreadToken &token, const SlotImage &pre,
                     const std::vector<std::uint64_t> &reclaim);
    /** finishWrite for callers that route displaced handles through
     *  their own retire batching (KvStore session backlogs). */
    void
    finishWrite(polytm::ThreadToken &token, const SlotImage &pre)
    {
        static const std::vector<std::uint64_t> kNone;
        finishWrite(token, pre, kNone);
    }

    /** Record that TTL'd values exist (enables the sweep); called by
     *  layers that drive the *Tx primitives directly. */
    void noteTtlUsed() { ttlSeen_.store(true, std::memory_order_relaxed); }

    polytm::PolyTm &poly() { return poly_; }
    const polytm::PolyTm &poly() const { return poly_; }

    ValueArena &arena() { return arena_; }
    const ValueArena &arena() const { return arena_; }

    /** Reader-epoch domain for blob pinning: byte-read paths enter a
     *  section (via the token's epochSlot) for each transaction body
     *  so the arena defers blob recycling past them. */
    EpochDomain &readerEpochs() { return readerEpochs_; }

    /** Defer-recycle a displaced blob handle once its displacing
     *  transaction committed: parks it in the arena limbo (recycled
     *  by maintenance once every reader-epoch section that could
     *  hold it has ended). */
    void retireBlob(ValueRef ref) { arena_.retireBlob(ref); }

    /** Current live-table slot count (grows over the shard's life). */
    std::size_t capacity() const;
    bool migrationActive() const;
    /** Resizes completed since construction. */
    std::uint64_t growCount() const
    {
        return growCount_.load(std::memory_order_relaxed);
    }
    /** Same-size compacting migrations (tombstone churn) completed. */
    std::uint64_t compactCount() const
    {
        return compactCount_.load(std::memory_order_relaxed);
    }
    /** In-flight commit verdicts snapshot readers waited out. */
    std::uint64_t snapshotPendingWaits() const
    {
        return snapshotWaits_.load(std::memory_order_relaxed);
    }

    /** Live entries; quiesced-only (raw, non-transactional reads). */
    std::size_t sizeQuiesced() const;

    /** The full mixed hash behind homeSlot()/ctrlFingerprint() —
     *  exposed so tests can construct fingerprint collisions. */
    static std::uint64_t keyHash(std::uint64_t key);

    /** Probe slots whose ctrl fingerprint matched but whose key did
     *  not (hash collisions plus deliberately corrupted hints): each
     *  one cost exactly one extra verification read-pair. */
    std::uint64_t
    ctrlFalsePositives() const
    {
        return ctrlFalsePositives_.load(std::memory_order_relaxed);
    }

    /**
     * Quiesced-only test hooks for the control-byte filter: locate a
     * key's live-table slot (slots() when absent), read a slot's ctrl
     * byte, and overwrite one — the deliberate-corruption tests use
     * the latter to prove wrong hints in the safe directions only add
     * probes. Raw, non-transactional access; never call on a live
     * store.
     */
    std::size_t findSlotQuiesced(std::uint64_t key) const;
    std::uint8_t ctrlByteQuiesced(std::size_t slot) const;
    void setCtrlByteQuiesced(std::size_t slot, std::uint8_t byte);

    /**
     * WAL sequencing: draw the next log sequence number inside a
     * writing transaction. The ticket is a TM-visible word every
     * durable writer read-modify-writes, so the TM totally orders all
     * writing transactions on this shard and ticket order equals
     * serialization order — recovery replays records sorted by this
     * LSN. An aborted attempt leaves a gap, which replay tolerates.
     */
    std::uint64_t
    walTicketTx(polytm::Tx &tx)
    {
        const std::uint64_t next = tx.readWord(&walTicketWord_) + 1;
        tx.writeWord(&walTicketWord_, next);
        return next;
    }

    /** Quiesced-only: seed the ticket after recovery replay. */
    void setWalTicketQuiesced(std::uint64_t v) { walTicketWord_ = v; }
    std::uint64_t walTicketQuiesced() const { return walTicketWord_; }

    /** One checkpoint-walk step's outcome. */
    enum class CkptStep
    {
        kMore,    ///< chunk captured, keep walking
        kDone,    ///< table fully walked
        kRestart, ///< epoch changed / migration active — start over
    };

    struct CheckpointCursor
    {
        const void *epoch = nullptr; ///< table epoch the walk pinned
        std::size_t slot = 0;
    };

    /** One live entry as captured for a checkpoint image. */
    struct CheckpointEntry
    {
        std::uint64_t key = 0;
        bool isBytes = false;
        std::uint64_t value = 0;  ///< numeric payload (kFull slots)
        std::uint64_t expiry = 0; ///< absolute deadline ns, 0 = none
        std::string bytes;        ///< blob payload (kFullRef slots)
    };

    /**
     * Fuzzy-checkpoint walker: capture up to `chunk_slots` slots'
     * live entries into `out` (appended), one bounded transaction per
     * call — the same incremental pattern as the migration walker, so
     * writers are never stalled. Reads are kSettle (pending 2PC
     * intents are waited to their verdict). The walk only runs on a
     * migration-free epoch: kRestart means the caller must
     * drainMigration() and start over with a fresh cursor (entries
     * captured so far are stale — a migration may have relocated keys
     * across already-walked regions). Writers racing the walk are
     * fine: their records carry LSNs after the checkpoint barrier and
     * are re-applied over the image on replay (post-images make that
     * idempotent).
     */
    CkptStep checkpointChunk(polytm::ThreadToken &token,
                             CheckpointCursor *cursor,
                             std::vector<CheckpointEntry> *out,
                             unsigned chunk_slots);

  private:
    struct SlotRef
    {
        ShardTable *table = nullptr;
        std::size_t slot = 0;
    };

    /** Committed (state, value-word, expiry) of a resolved slot. */
    struct LiveValue
    {
        std::uint64_t state = kEmpty;
        std::uint64_t value = 0;
        std::uint64_t expiry = 0;
    };

    TableEpoch *epochTx(polytm::Tx &tx);
    static std::size_t homeSlot(const ShardTable &table,
                                std::uint64_t key);

    std::size_t probe(polytm::Tx &tx, ShardTable &table,
                      std::uint64_t key, bool *found);

    /**
     * The one ctrl-lane walker (migration, TTL sweep, scan): visits,
     * in ascending slot order with wraparound from `start`, every
     * slot among the next `count` (at most the whole table) whose
     * ctrl byte has bit 7 clear — kFull/kFullRef/kPendingInsert —
     * and stops when visit(slot) returns false. One TM read per ctrl
     * word skips 8 empty/tombstone slots. Unlike the probe, walkers
     * lean on the ctrl words as transactional truth, which they are:
     * every committed state-class change rewrites its ctrl byte in
     * the same transaction, and intents only ever sit on
     * fingerprint-class slots, so a skipped lane can hide neither a
     * value nor an intent.
     */
    template <typename Visit>
    static void
    forEachKeyedSlotTx(polytm::Tx &tx, ShardTable &table,
                       std::size_t start, std::size_t count,
                       Visit &&visit)
    {
        std::size_t slot = start;
        std::size_t remaining = std::min(count, table.slots);
        while (remaining > 0) {
            const std::size_t word = slot >> 3;
            const auto first_lane = static_cast<unsigned>(slot & 7);
            const std::size_t in_word =
                std::min<std::size_t>(8 - first_lane, remaining);
            const std::uint32_t lanes =
                (~(~std::uint32_t{0} << in_word) & 0xffu) << first_lane;
            const std::uint64_t bytes = tx.readWord(&table.ctrl[word]);
            std::uint32_t cand = ~simd::matchHighBit16(bytes, 0) & lanes;
            while (cand != 0) {
                const unsigned lane =
                    static_cast<unsigned>(std::countr_zero(cand));
                cand &= cand - 1;
                if (!visit((word << 3) + lane))
                    return;
            }
            slot = (slot + in_word) & table.mask;
            remaining -= in_word;
        }
    }

    /** Rewrite slot `slot`'s ctrl byte inside `tx` (read-modify-write
     *  of its packed word); every slot-state-class change calls this
     *  in the same transaction. */
    static void ctrlSetTx(polytm::Tx &tx, ShardTable &table,
                          std::size_t slot, std::uint8_t byte);

    /** Resync the live table's heuristic tombstone count from the
     *  (transactionally exact) ctrl words after a migration retires
     *  its source; under PROTEUS_ASSERT_CTRL_SYNC also asserts every
     *  slot's ctrl class matches its state class. growMutex_ held. */
    void recountTombstonesLocked(polytm::ThreadToken &token,
                                 ShardTable &live);

    /**
     * Reader lookup: probe live-then-old and resolve the match to its
     * committed view. False when the key is logically absent.
     */
    bool lookupLiveTx(polytm::Tx &tx, std::uint64_t key, SlotRef *ref,
                      LiveValue *live, const ReadView &view);

    /**
     * Shared slot walk behind scanTx/scanEntriesTx: visits live
     * entries starting at `start_key`'s home slot (live table, then
     * the migration source) and calls emit(table, slot, live) for
     * each, counting the ones it accepts, up to `limit`.
     */
    template <typename Emit>
    std::size_t
    scanWalkTx(polytm::Tx &tx, std::uint64_t start_key,
               std::size_t limit, const ReadView &view, Emit &&emit)
    {
        std::size_t count = 0;
        TableEpoch *ep = epochTx(tx);
        const auto walk = [&](ShardTable &table) {
            if (count >= limit)
                return;
            forEachKeyedSlotTx(
                tx, table, homeSlot(table, start_key), table.slots,
                [&](std::size_t slot) {
                    LiveValue live;
                    if (resolveSlotLiveTx(tx, table, slot, &live,
                                          view) &&
                        emit(table, slot, live))
                        ++count;
                    return count < limit;
                });
        };
        // A key is live in at most one table, so walking both cannot
        // double-count.
        walk(*ep->live);
        if (ep->old)
            walk(*ep->old);
        return count;
    }

    /**
     * Logical liveness+value of a probed-matching slot for readers:
     * resolves any intent against its commit record without writing
     * — per the ReadView's mode (see the ReadView comment) — and
     * applies lazy TTL expiry.
     */
    bool resolveSlotLiveTx(polytm::Tx &tx, ShardTable &table,
                           std::size_t slot, LiveValue *out,
                           const ReadView &view = {});

    /**
     * Wait out / fold / discard the foreign intent published as
     * `word` at `slot` so the caller can write the slot. May abort
     * the transaction (revocable backends) to wait for a pending
     * commit.
     */
    void resolveForeignIntentTx(polytm::Tx &tx, ShardTable &table,
                                std::size_t slot, std::uint64_t word);

    /**
     * Probe live-then-old + make the matched slot writable. On return
     * with *found=true the slot carries either no intent (state
     * kFull/kFullRef) or this commit's own intent (*own != nullptr,
     * `record` non-null). *found=false means the key is logically
     * absent; the returned ref is the live-table insert point
     * (slot == live->slots when the live table has no room).
     */
    SlotRef writeLookup(polytm::Tx &tx, CommitRecord *record,
                        std::uint64_t key, bool *found,
                        WriteIntent **own);

    /** Decode the numeric view of a committed (state, value) pair;
     *  re-reads the slot (under `view`) when a blob was recycled
     *  underneath. */
    bool numericValueTx(polytm::Tx &tx, ShardTable &table,
                        std::size_t slot, LiveValue live,
                        std::uint64_t *out,
                        const ReadView &view = {});
    /** Byte view; numeric values yield their 8 raw bytes. `pinned`
     *  callers (inside a readerEpochs() section) copy blobs with no
     *  seqlock re-check; unpinned ones use the stamped retry loop. */
    bool bytesValueTx(polytm::Tx &tx, ShardTable &table,
                      std::size_t slot, LiveValue live,
                      std::string *out, const ReadView &view = {},
                      bool pinned = false);

    /** Shared body of putTx/putRefTx. */
    bool putSlotTx(polytm::Tx &tx, std::uint64_t key,
                   std::uint64_t new_state, std::uint64_t value,
                   std::uint64_t expiry, SlotImage *pre,
                   std::vector<std::uint64_t> *reclaim);

    WriteIntent *installIntent(polytm::Tx &tx, CommitRecord *record,
                               IntentArena &arena,
                               std::vector<WriteIntent *> &out,
                               ShardTable &table, std::size_t slot,
                               std::uint64_t new_state,
                               std::uint64_t new_value,
                               std::uint64_t new_expiry);

    /** Capture a slot's pre-image (after intent resolution). */
    SlotImage slotImageTx(polytm::Tx &tx, ShardTable &table,
                          std::size_t slot);

    /** Literal committed view of a writeLookup match (the slot holds
     *  no foreign intent any more), applying lazy expiry. */
    bool settledValueTx(polytm::Tx &tx, const SlotRef &ref,
                        LiveValue *out);

    /** Relocate one claimed old-table chunk; true while migrating. */
    bool migrateChunk(polytm::ThreadToken &token);
    void sweepChunk(polytm::ThreadToken &token);
    /** Start a migration of `source` into a fresh table of
     *  `new_slots`; growMutex_ must be held, no migration in flight. */
    void startMigrationLocked(polytm::ThreadToken &token,
                              ShardTable *source,
                              std::size_t new_slots);
    /** Publish a doubled live table; growMutex_ must be held. */
    bool growLocked(polytm::ThreadToken &token,
                    std::size_t full_capacity);
    /** Same-size compacting migration (sheds tombstones without
     *  doubling); growMutex_ must be held, no migration in flight. */
    void compactLocked(polytm::ThreadToken &token);
    /** True when the live table's tombstone share says a same-size
     *  compaction beats (or must replace) a doubling grow. */
    static bool tombstoneHeavy(const ShardTable &live);
    void finishMigration(polytm::ThreadToken &token, ShardTable *old);
    void publishEpoch(polytm::ThreadToken &token, TableEpoch *next);

    polytm::PolyTm poly_;
    ValueArena arena_;
    ShardOptions options_;
    std::size_t maxSlots_;
    /** Reader-epoch slots (one per registered tid) for blob pinning. */
    EpochDomain readerEpochs_{static_cast<std::size_t>(tm::kMaxThreads)};

    /** TM-visible: holds the current TableEpoch*. Every transaction
     *  reads it, so epoch changes conflict with all straddlers. */
    alignas(8) std::uint64_t epochWord_ = 0;

    /** TM-visible WAL ticket (see walTicketTx). Only touched when the
     *  owning KvStore runs durable, so non-durable stores pay nothing. */
    alignas(8) std::uint64_t walTicketWord_ = 0;

    /** Non-transactional mirror for heuristics and quiesced readers;
     *  correctness always goes through epochWord_. */
    std::atomic<TableEpoch *> epochMirror_{nullptr};

    /** Guards table/epoch creation and the retire lists. */
    std::mutex growMutex_;
    std::vector<std::unique_ptr<ShardTable>> tables_;
    std::vector<std::unique_ptr<TableEpoch>> epochs_;

    /** Flight-recorder hook for maintenance events, stamped with the
     *  store-wide commit sequence (no-op for standalone shards). */
    void
    trace(obs::TraceKind kind, std::uint64_t a = 0,
          std::uint64_t b = 0) const
    {
        if (options_.recorder) {
            options_.recorder->record(
                kind, options_.shardIndex,
                options_.commitSeq ? options_.commitSeq->load(
                                         std::memory_order_relaxed)
                                   : 0,
                a, b);
        }
    }

    std::atomic<std::uint64_t> growCount_{0};
    std::atomic<std::uint64_t> compactCount_{0};
    /** Fingerprint hits whose key compare failed (see accessor). */
    std::atomic<std::uint64_t> ctrlFalsePositives_{0};
    std::atomic<std::uint64_t> maintainTicks_{0};
    /** Snapshot readers that waited out an in-flight commit verdict. */
    std::atomic<std::uint64_t> snapshotWaits_{0};
    /** Set once any put carries a TTL; gates the sweep. */
    std::atomic<bool> ttlSeen_{false};
};

} // namespace proteus::kvstore

#endif // PROTEUS_KVSTORE_SHARD_HPP
