#include "kvstore/shard.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/hints.hpp"
#include "common/timing.hpp"

namespace proteus::kvstore {

namespace {

/** SplitMix64 finalizer: slot spread for adversarial key patterns. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

unsigned
checkedLog2(unsigned log2_value, unsigned min, const char *what)
{
    // >= 32 is either a config typo or would shift into UB territory;
    // fail loudly like the rest of the subsystem's range checks.
    if (log2_value < min || log2_value >= 32) {
        throw std::invalid_argument(std::string("Shard: ") + what +
                                    " must be in [" +
                                    std::to_string(min) + ", 31]");
    }
    return log2_value;
}

inline bool
stateIsValue(std::uint64_t state)
{
    return slotStateIsValue(state);
}

/** Numeric decode of an inline ValueRef (zero-padded to 8 bytes). */
inline std::uint64_t
inlineNumeric(ValueRef ref)
{
    const std::size_t len = inlineRefLen(ref);
    if (len == 0)
        return 0;
    if (len >= 8)
        return ref; // unreachable for well-formed inline refs
    return ref & (~std::uint64_t{0} >> (64 - 8 * len));
}

} // namespace

Shard::Shard(ShardOptions options)
    : poly_(options.initial, {},
            checkedLog2(options.log2Orecs, 1, "log2Orecs")),
      options_(options)
{
    // >= 4: at least one 16-slot ctrl group, the probe's unit.
    const unsigned log2_slots =
        checkedLog2(options.log2Slots, 4, "log2Slots");
    if (options.maxLog2Slots == 0) {
        maxSlots_ = std::numeric_limits<std::size_t>::max();
    } else {
        if (options.maxLog2Slots < log2_slots ||
            options.maxLog2Slots >= 32) {
            throw std::invalid_argument(
                "Shard: maxLog2Slots must be 0 or in "
                "[log2Slots, 31]");
        }
        maxSlots_ = std::size_t{1} << options.maxLog2Slots;
    }
    if (options_.migrateChunkSlots == 0 ||
        options_.sweepChunkSlots == 0) {
        throw std::invalid_argument(
            "Shard: maintenance chunk sizes must be >= 1");
    }
    arena_.attachObs(options_.recorder, options_.commitSeq,
                     options_.shardIndex);
    tables_.push_back(
        std::make_unique<ShardTable>(std::size_t{1} << log2_slots));
    epochs_.push_back(std::make_unique<TableEpoch>(
        TableEpoch{tables_.back().get(), nullptr}));
    // Quiesced raw store: no transaction can run before construction
    // returns.
    epochWord_ = reinterpret_cast<std::uint64_t>(epochs_.back().get());
    epochMirror_.store(epochs_.back().get(), std::memory_order_release);
}

Shard::~Shard() = default;

TableEpoch *
Shard::epochTx(polytm::Tx &tx)
{
    return reinterpret_cast<TableEpoch *>(tx.readWord(&epochWord_));
}

std::size_t
Shard::homeSlot(const ShardTable &table, std::uint64_t key)
{
    return static_cast<std::size_t>(mix64(key)) & table.mask;
}

std::uint64_t
Shard::keyHash(std::uint64_t key)
{
    return mix64(key);
}

void
Shard::ctrlSetTx(polytm::Tx &tx, ShardTable &table, std::size_t slot,
                 std::uint8_t byte)
{
    const std::size_t word = slot >> 3;
    const unsigned shift = static_cast<unsigned>(slot & 7) * 8;
    const std::uint64_t cur = tx.readWord(&table.ctrl[word]);
    const std::uint64_t next =
        (cur & ~(std::uint64_t{0xff} << shift)) |
        (std::uint64_t{byte} << shift);
    if (next != cur)
        tx.writeWord(&table.ctrl[word], next);
}

std::size_t
Shard::probe(polytm::Tx &tx, ShardTable &table, std::uint64_t key,
             bool *found)
{
    *found = false;
    const std::uint64_t hash = mix64(key);
    const std::size_t home =
        static_cast<std::size_t>(hash) & table.mask;
    // Fast path: the common probe ends at the home slot — a direct
    // hit or a virgin empty slot. Identical TM-read cost to the old
    // slot walk (state word, then key word); only contended chains
    // pay for ctrl words.
    {
        const std::uint64_t state = tx.readWord(&table.state[home]);
        if (state == kEmpty)
            return home;
        if (state != kTombstone &&
            PROTEUS_LIKELY(tx.readWord(&table.keys[home]) == key)) {
            *found = true;
            return home;
        }
    }
    // Group scan: two TM ctrl reads cover 16 slots; matching runs on
    // the returned register values (no memory loads — see
    // common/simd.hpp). Candidates are fingerprint hits plus every
    // empty/tombstone hint; each one is verified against the
    // transactional state/key words, and the walk terminates only on
    // a TM-read kEmpty — the hints steer, the slot words decide. The
    // ctrl reads also cover the *skipped* lanes through the read set:
    // any committed state-class change rewrites the slot's ctrl byte,
    // so a straddling transaction that skipped the slot validates
    // against the change like any other conflicting read.
    const std::uint8_t fp = ctrlFingerprint(hash);
    const std::size_t num_groups = table.slots / kCtrlGroupSlots;
    const std::size_t group_mask = num_groups - 1;
    std::size_t insert_at = table.slots;
    std::size_t group = home / kCtrlGroupSlots;
    const auto home_lane = static_cast<unsigned>(home & 15);
    // The home group's leading lanes are not on this key's chain;
    // they are re-scanned as the chain's true tail if the walk wraps
    // the whole table.
    std::uint32_t lane_filter = ~std::uint32_t{0} << home_lane;
    for (std::size_t gi = 0; gi <= num_groups; ++gi) {
        if (PROTEUS_UNLIKELY(gi == num_groups)) {
            if (home_lane == 0)
                break; // chain start was group-aligned: fully covered
            lane_filter = ~(~std::uint32_t{0} << home_lane) & 0xffffu;
        }
        const std::size_t base = group * kCtrlGroupSlots;
        const std::uint64_t lo = tx.readWord(&table.ctrl[group * 2]);
        const std::uint64_t hi =
            tx.readWord(&table.ctrl[group * 2 + 1]);
        std::uint32_t cand = (simd::matchByte16(lo, hi, fp) |
                              simd::matchHighBit16(lo, hi)) &
                             lane_filter;
        while (cand != 0) {
            const unsigned lane =
                static_cast<unsigned>(std::countr_zero(cand));
            cand &= cand - 1;
            const std::size_t slot = base + lane;
            const std::uint64_t state =
                tx.readWord(&table.state[slot]);
            if (state == kEmpty)
                return insert_at < table.slots ? insert_at : slot;
            if (state == kTombstone) {
                if (insert_at == table.slots)
                    insert_at = slot;
            } else if (tx.readWord(&table.keys[slot]) == key) {
                *found = true;
                return slot;
            } else {
                ctrlFalsePositives_.fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
        group = (group + 1) & group_mask;
        lane_filter = 0xffffu;
    }
    return insert_at; // table.slots when the table has no reusable slot
}

bool
Shard::resolveSlotLiveTx(polytm::Tx &tx, ShardTable &table,
                         std::size_t slot, LiveValue *out,
                         const ReadView &view)
{
    const auto expired = [](std::uint64_t deadline) {
        return deadline != 0 && deadline <= nowNanos();
    };
    const std::uint64_t word = tx.readWord(&table.intents[slot]);
    const std::uint64_t state = tx.readWord(&table.state[slot]);
    if (PROTEUS_LIKELY(word == 0)) {
        if (!stateIsValue(state))
            return false;
        const std::uint64_t deadline =
            tx.readWord(&table.expiry[slot]);
        if (PROTEUS_UNLIKELY(expired(deadline)))
            return false; // lazy TTL: expired reads as absent
        if (out) {
            out->state = state;
            out->value = tx.readWord(&table.values[slot]);
            out->expiry = deadline;
        }
        return true;
    }
    WriteIntent *intent = intentOf(word);
    CommitRecord *record =
        intent->record.load(std::memory_order_acquire);
    const std::uint64_t tag = intentEpochTag(word);
    bool waited = false;
    for (;;) {
        // Payload fields must be read before the status word: fields
        // of epoch E freeze before E's flip and are only rewritten
        // after the next re-arm, so a status that still reads
        // (E, kCommitted) at a later point proves the earlier field
        // loads saw epoch E's frozen payload.
        const std::uint64_t new_state =
            intent->newState.load(std::memory_order_relaxed);
        const std::uint64_t new_value =
            intent->newValue.load(std::memory_order_relaxed);
        const std::uint64_t new_expiry =
            intent->newExpiry.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        const std::uint64_t status =
            record ? record->status.load(std::memory_order_acquire)
                   : 0;
        const bool same_epoch =
            record && (CommitRecord::epochOf(status) & 0xffff) == tag;
        const std::uint64_t verdict = CommitRecord::stateOf(status);
        if (same_epoch && verdict == CommitRecord::kCommitted) {
            // Post-image wins from the commit point on — but a
            // snapshot view excludes a commit sequenced after its
            // sampled read timestamp (the reader's round began before
            // this commit existed; its trailing sequence check keeps
            // the exclusion consistent across slots and shards).
            bool include = true;
            if (view.mode == ReadView::Mode::kSnapshot) {
                const std::uint64_t cword =
                    record->commitSeq.load(std::memory_order_acquire);
                include =
                    CommitRecord::seqEpochTag(cword) == (tag & 0xffff) &&
                    CommitRecord::seqOf(cword) <= view.seq;
            }
            if (include) {
                if (!stateIsValue(new_state) || expired(new_expiry))
                    return false;
                if (out) {
                    out->state = new_state;
                    out->value = new_value;
                    out->expiry = new_expiry;
                }
                return true;
            }
            break; // pre-image: commit is after this snapshot
        }
        if (same_epoch && verdict == CommitRecord::kPending) {
            // In-flight. kSettle always waits the verdict out;
            // kSnapshot waits only when the commit already reserved a
            // sequence inside our snapshot (the flip is then at most
            // a few plain stores away) — an unreserved sequence is
            // provably ordered after our sampled timestamp, so the
            // pre-image is final for this view. kLatest never waits.
            bool wait = view.mode == ReadView::Mode::kSettle;
            if (view.mode == ReadView::Mode::kSnapshot) {
                const std::uint64_t cword =
                    record->commitSeq.load(std::memory_order_acquire);
                wait =
                    CommitRecord::seqEpochTag(cword) == (tag & 0xffff) &&
                    CommitRecord::seqOf(cword) <= view.seq;
            }
            if (wait) {
                if (!waited) {
                    waited = true;
                    snapshotWaits_.fetch_add(
                        1, std::memory_order_relaxed);
                }
                std::this_thread::yield();
                continue;
            }
        }
        break;
    }
    // Pending-outside-view or aborted: the pre-image is the live
    // state. An epoch mismatch means the intent was recycled
    // underneath us; the republished word differs (epoch tag), so
    // this transaction's read-set validation rejects the commit and
    // the retry sees the slot's real state — pre-image junk never
    // escapes.
    if (!stateIsValue(state))
        return false;
    const std::uint64_t deadline = tx.readWord(&table.expiry[slot]);
    if (expired(deadline))
        return false;
    if (out) {
        out->state = state;
        out->value = tx.readWord(&table.values[slot]);
        out->expiry = deadline;
    }
    return true;
}

void
Shard::resolveForeignIntentTx(polytm::Tx &tx, ShardTable &table,
                              std::size_t slot, std::uint64_t word)
{
    WriteIntent *intent = intentOf(word);
    CommitRecord *record =
        intent->record.load(std::memory_order_acquire);
    const auto read_payload = [&](std::uint64_t *new_state,
                                  std::uint64_t *new_value,
                                  std::uint64_t *new_expiry) {
        // Fields before status, as in resolveSlotLiveTx: a matching
        // (epoch, kCommitted) status read afterwards proves the
        // fields belonged to that frozen generation.
        *new_state = intent->newState.load(std::memory_order_relaxed);
        *new_value = intent->newValue.load(std::memory_order_relaxed);
        *new_expiry = intent->newExpiry.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        return record->status.load(std::memory_order_acquire);
    };
    std::uint64_t new_state = 0;
    std::uint64_t new_value = 0;
    std::uint64_t new_expiry = 0;
    std::uint64_t status =
        record ? read_payload(&new_state, &new_value, &new_expiry) : 0;
    const auto same_epoch = [&](std::uint64_t s) {
        return record && (CommitRecord::epochOf(s) & 0xffff) ==
                             intentEpochTag(word);
    };
    while (same_epoch(status) &&
           CommitRecord::stateOf(status) == CommitRecord::kPending) {
        if (tx.revocable()) {
            // Drop all TM resources and come back with backoff; the
            // owner needs this slot's universe only to finalize, and
            // the commit flip we are waiting for is a plain store.
            tx.retry();
        }
        // Irrevocable (HTM fallback holder): wait in place. Safe
        // because the flip needs no TM resources, and the owner only
        // ever waits on *higher-numbered* shards (prepare is
        // shard-ordered), so wait chains cannot cycle.
        std::this_thread::yield();
        status = read_payload(&new_state, &new_value, &new_expiry);
    }
    if (same_epoch(status) &&
        CommitRecord::stateOf(status) == CommitRecord::kCommitted) {
        tx.writeWord(&table.state[slot], new_state);
        if (stateIsValue(new_state)) {
            tx.writeWord(&table.values[slot], new_value);
            tx.writeWord(&table.expiry[slot], new_expiry);
        } else {
            ctrlSetTx(tx, table, slot, kCtrlTombstone);
        }
    } else if (tx.readWord(&table.state[slot]) == kPendingInsert) {
        // Aborted (or recycled-underneath-us — then this transaction
        // fails validation on the changed intent word and the writes
        // roll back): tombstone, never back to empty — concurrent
        // probe chains may already run past this slot.
        tx.writeWord(&table.state[slot], kTombstone);
        ctrlSetTx(tx, table, slot, kCtrlTombstone);
    }
    tx.writeWord(&table.intents[slot], 0);
}

Shard::SlotRef
Shard::writeLookup(polytm::Tx &tx, CommitRecord *record,
                   std::uint64_t key, bool *found, WriteIntent **own)
{
    if (own)
        *own = nullptr;
    TableEpoch *ep = epochTx(tx);
    const auto settle = [&](ShardTable &table,
                            std::size_t slot) -> bool {
        // Resolve foreign intents until the slot is quiet or ours;
        // returns whether the key is (still) logically present there.
        for (;;) {
            const std::uint64_t word =
                tx.readWord(&table.intents[slot]);
            if (word == 0)
                break;
            WriteIntent *intent = intentOf(word);
            if (record && intent->record.load(
                              std::memory_order_relaxed) == record) {
                // Ours — necessarily the current epoch: every intent
                // of the previous multiOp was cleared before re-arming.
                // (`own` is only optional for record==nullptr callers.)
                *own = intent;
                return true;
            }
            resolveForeignIntentTx(tx, table, slot, word);
        }
        return stateIsValue(tx.readWord(&table.state[slot]));
    };

    bool in_live = false;
    const std::size_t live_slot = probe(tx, *ep->live, key, &in_live);
    if (in_live) {
        *found = settle(*ep->live, live_slot);
        return {ep->live, live_slot};
    }
    if (ep->old) {
        bool in_old = false;
        const std::size_t old_slot = probe(tx, *ep->old, key, &in_old);
        if (in_old && settle(*ep->old, old_slot)) {
            *found = true;
            return {ep->old, old_slot};
        }
    }
    // Absent everywhere; inserts always target the live table.
    *found = false;
    return {ep->live, live_slot};
}

bool
Shard::numericValueTx(polytm::Tx &tx, ShardTable &table,
                      std::size_t slot, LiveValue live,
                      std::uint64_t *out, const ReadView &view)
{
    for (;;) {
        if (PROTEUS_LIKELY(live.state == kFull)) {
            if (out)
                *out = live.value;
            return true;
        }
        const ValueRef ref = live.value;
        if (!valueRefIsBlob(ref)) {
            if (out)
                *out = inlineNumeric(ref);
            return true;
        }
        std::uint64_t word = 0;
        if (arena_.readBlobWord(ref, &word)) {
            if (out)
                *out = word;
            return true;
        }
        // Blob recycled underneath the handle: the slot's value word
        // changed first, so re-resolving through the TM either aborts
        // this transaction (version/value validation) or yields the
        // fresh pair.
        if (!resolveSlotLiveTx(tx, table, slot, &live, view))
            return false;
    }
}

bool
Shard::bytesValueTx(polytm::Tx &tx, ShardTable &table, std::size_t slot,
                    LiveValue live, std::string *out,
                    const ReadView &view, bool pinned)
{
    for (;;) {
        if (live.state == kFull) {
            // Numeric values read as their 8 raw bytes.
            out->resize(8);
            std::memcpy(out->data(), &live.value, 8);
            return true;
        }
        const ValueRef ref = live.value;
        if (!valueRefIsBlob(ref)) {
            inlineRefCopy(ref, out);
            return true;
        }
        if (PROTEUS_LIKELY(pinned)) {
            // The caller's reader-epoch section defers recycling of
            // every handle it can legally hold — copy with zero
            // seqlock fences or re-checks.
            arena_.readBlobPinned(ref, out);
            return true;
        }
        if (arena_.readBlob(ref, out))
            return true;
        if (!resolveSlotLiveTx(tx, table, slot, &live, view))
            return false;
    }
}

bool
Shard::lookupLiveTx(polytm::Tx &tx, std::uint64_t key, SlotRef *ref,
                    LiveValue *live, const ReadView &view)
{
    TableEpoch *ep = epochTx(tx);
    bool found = false;
    std::size_t slot = probe(tx, *ep->live, key, &found);
    ShardTable *table = ep->live;
    if (!found && ep->old) {
        slot = probe(tx, *ep->old, key, &found);
        table = ep->old;
    }
    if (!found)
        return false;
    if (!resolveSlotLiveTx(tx, *table, slot, live, view))
        return false;
    *ref = {table, slot};
    return true;
}

bool
Shard::getTx(polytm::Tx &tx, std::uint64_t key, std::uint64_t *value)
{
    return snapshotGetTx(tx, key, value, ReadView{});
}

bool
Shard::snapshotGetTx(polytm::Tx &tx, std::uint64_t key,
                     std::uint64_t *value, const ReadView &view)
{
    SlotRef ref;
    LiveValue live;
    if (!lookupLiveTx(tx, key, &ref, &live, view))
        return false;
    return numericValueTx(tx, *ref.table, ref.slot, live, value, view);
}

bool
Shard::snapshotGetBytesTx(polytm::Tx &tx, std::uint64_t key,
                          std::string *out, const ReadView &view)
{
    SlotRef ref;
    LiveValue live;
    if (!lookupLiveTx(tx, key, &ref, &live, view))
        return false;
    return bytesValueTx(tx, *ref.table, ref.slot, live, out, view,
                        /*pinned=*/true);
}

SlotImage
Shard::slotImageTx(polytm::Tx &tx, ShardTable &table, std::size_t slot)
{
    SlotImage image;
    image.state = tx.readWord(&table.state[slot]);
    if (stateIsValue(image.state)) {
        image.value = tx.readWord(&table.values[slot]);
        image.expiry = tx.readWord(&table.expiry[slot]);
    }
    return image;
}

bool
Shard::settledValueTx(polytm::Tx &tx, const SlotRef &ref,
                      LiveValue *out)
{
    const SlotImage image = slotImageTx(tx, *ref.table, ref.slot);
    if (image.expiry != 0 && image.expiry <= nowNanos())
        return false;
    *out = {image.state, image.value, image.expiry};
    return true;
}

bool
Shard::getForUpdateTx(polytm::Tx &tx, std::uint64_t key,
                      std::uint64_t *value)
{
    bool found = false;
    const SlotRef ref = writeLookup(tx, nullptr, key, &found, nullptr);
    LiveValue live;
    if (!found || !settledValueTx(tx, ref, &live))
        return false;
    return numericValueTx(tx, *ref.table, ref.slot, live, value);
}

bool
Shard::getBytesForUpdateTx(polytm::Tx &tx, std::uint64_t key,
                           std::string *out)
{
    bool found = false;
    const SlotRef ref = writeLookup(tx, nullptr, key, &found, nullptr);
    LiveValue live;
    if (!found || !settledValueTx(tx, ref, &live))
        return false;
    return bytesValueTx(tx, *ref.table, ref.slot, live, out);
}

bool
Shard::putSlotTx(polytm::Tx &tx, std::uint64_t key,
                 std::uint64_t new_state, std::uint64_t value,
                 std::uint64_t expiry, SlotImage *pre,
                 std::vector<std::uint64_t> *reclaim)
{
    bool found = false;
    const SlotRef ref = writeLookup(tx, nullptr, key, &found, nullptr);
    if (ref.slot == ref.table->slots) {
        if (pre)
            *pre = SlotImage{};
        return false; // full
    }
    const SlotImage image = slotImageTx(tx, *ref.table, ref.slot);
    if (pre)
        *pre = image;
    if (found) {
        if (reclaim && image.state == kFullRef)
            reclaim->push_back(image.value);
        tx.writeWord(&ref.table->state[ref.slot], new_state);
        tx.writeWord(&ref.table->values[ref.slot], value);
        tx.writeWord(&ref.table->expiry[ref.slot], expiry);
        return true;
    }
    tx.writeWord(&ref.table->state[ref.slot], new_state);
    tx.writeWord(&ref.table->keys[ref.slot], key);
    tx.writeWord(&ref.table->values[ref.slot], value);
    tx.writeWord(&ref.table->expiry[ref.slot], expiry);
    ctrlSetTx(tx, *ref.table, ref.slot, ctrlFingerprint(keyHash(key)));
    return true;
}

bool
Shard::putTx(polytm::Tx &tx, std::uint64_t key, std::uint64_t value,
             std::uint64_t expiry, SlotImage *pre,
             std::vector<std::uint64_t> *reclaim)
{
    return putSlotTx(tx, key, kFull, value, expiry, pre, reclaim);
}

bool
Shard::putRefTx(polytm::Tx &tx, std::uint64_t key, ValueRef ref_value,
                std::uint64_t expiry, SlotImage *pre,
                std::vector<std::uint64_t> *reclaim)
{
    return putSlotTx(tx, key, kFullRef, ref_value, expiry, pre,
                     reclaim);
}

bool
Shard::delTx(polytm::Tx &tx, std::uint64_t key, SlotImage *pre,
             std::vector<std::uint64_t> *reclaim)
{
    bool found = false;
    const SlotRef ref = writeLookup(tx, nullptr, key, &found, nullptr);
    if (pre)
        *pre = SlotImage{};
    if (!found)
        return false;
    const SlotImage image = slotImageTx(tx, *ref.table, ref.slot);
    if (pre)
        *pre = image;
    if (reclaim && image.state == kFullRef)
        reclaim->push_back(image.value);
    tx.writeWord(&ref.table->state[ref.slot], kTombstone);
    ctrlSetTx(tx, *ref.table, ref.slot, kCtrlTombstone);
    // Expired entries are already logically absent: reclaim the slot
    // but report the delete as a miss.
    return image.expiry == 0 || image.expiry > nowNanos();
}

bool
Shard::addTx(polytm::Tx &tx, std::uint64_t key, std::int64_t delta,
             SlotImage *pre, std::vector<std::uint64_t> *reclaim,
             SlotImage *post)
{
    // One lookup for the read-modify-write (the transfer hot path),
    // not a getTx+putTx pair walking the chain twice.
    const auto unsigned_delta = static_cast<std::uint64_t>(delta);
    bool found = false;
    const SlotRef ref = writeLookup(tx, nullptr, key, &found, nullptr);
    if (ref.slot == ref.table->slots) {
        if (pre)
            *pre = SlotImage{};
        return false; // full
    }
    const SlotImage image = slotImageTx(tx, *ref.table, ref.slot);
    if (pre)
        *pre = image;
    const bool live_value =
        found && (image.expiry == 0 || image.expiry > nowNanos());
    if (live_value) {
        std::uint64_t current = 0;
        if (!numericValueTx(tx, *ref.table, ref.slot,
                            {image.state, image.value, image.expiry},
                            &current)) {
            // The slot changed under a recycled blob; the transaction
            // is doomed to fail validation — treat as a create so the
            // control flow stays simple.
            current = 0;
        }
        if (reclaim && image.state == kFullRef)
            reclaim->push_back(image.value); // coerced to numeric
        tx.writeWord(&ref.table->state[ref.slot], kFull);
        tx.writeWord(&ref.table->values[ref.slot],
                     current + unsigned_delta);
        tx.writeWord(&ref.table->expiry[ref.slot], image.expiry);
        if (post)
            *post = SlotImage{kFull, current + unsigned_delta,
                              image.expiry};
        return true;
    }
    if (found) {
        // Expired slot: recreate in place at delta with no TTL.
        if (reclaim && image.state == kFullRef)
            reclaim->push_back(image.value);
        tx.writeWord(&ref.table->state[ref.slot], kFull);
        tx.writeWord(&ref.table->values[ref.slot], unsigned_delta);
        tx.writeWord(&ref.table->expiry[ref.slot], 0);
        if (post)
            *post = SlotImage{kFull, unsigned_delta, 0};
        return true;
    }
    tx.writeWord(&ref.table->state[ref.slot], kFull);
    tx.writeWord(&ref.table->keys[ref.slot], key);
    tx.writeWord(&ref.table->values[ref.slot], unsigned_delta);
    tx.writeWord(&ref.table->expiry[ref.slot], 0);
    ctrlSetTx(tx, *ref.table, ref.slot, ctrlFingerprint(keyHash(key)));
    if (post)
        *post = SlotImage{kFull, unsigned_delta, 0};
    return true;
}

void
Shard::restoreTx(polytm::Tx &tx, std::uint64_t key, const SlotImage &pre)
{
    bool found = false;
    const SlotRef ref = writeLookup(tx, nullptr, key, &found, nullptr);
    if (stateIsValue(pre.state)) {
        if (ref.slot == ref.table->slots)
            return; // cannot happen: the failed attempt freed the slot
        if (!found)
            tx.writeWord(&ref.table->keys[ref.slot], key);
        tx.writeWord(&ref.table->state[ref.slot], pre.state);
        tx.writeWord(&ref.table->values[ref.slot], pre.value);
        tx.writeWord(&ref.table->expiry[ref.slot], pre.expiry);
        ctrlSetTx(tx, *ref.table, ref.slot,
                  ctrlFingerprint(keyHash(key)));
        return;
    }
    if (found) {
        tx.writeWord(&ref.table->state[ref.slot], kTombstone);
        ctrlSetTx(tx, *ref.table, ref.slot, kCtrlTombstone);
    }
}

WriteIntent *
Shard::installIntent(polytm::Tx &tx, CommitRecord *record,
                     IntentArena &arena, std::vector<WriteIntent *> &out,
                     ShardTable &table, std::size_t slot,
                     std::uint64_t new_state, std::uint64_t new_value,
                     std::uint64_t new_expiry)
{
    WriteIntent *intent = arena.alloc();
    intent->record.store(record, std::memory_order_relaxed);
    intent->newState.store(new_state, std::memory_order_relaxed);
    intent->newValue.store(new_value, std::memory_order_relaxed);
    intent->newExpiry.store(new_expiry, std::memory_order_relaxed);
    intent->table = &table;
    intent->slot = slot;
    intent->claimedTombstone = false;
    // The transactional store publishes the intent atomically with the
    // rest of this shard's prepare at commit time (release), so the
    // relaxed field stores above are visible to any resolver that
    // acquires the pointer. The published word carries the record's
    // current epoch so resolvers can reject recycled generations.
    const std::uint64_t epoch = CommitRecord::epochOf(
        record->status.load(std::memory_order_relaxed));
    tx.writeWord(&table.intents[slot],
                 packIntentWord(intent, epoch & 0xffff));
    out.push_back(intent);
    return intent;
}

bool
Shard::preparePutTx(polytm::Tx &tx, CommitRecord *record,
                    IntentArena &arena, std::vector<WriteIntent *> &out,
                    std::uint64_t key, std::uint64_t new_state,
                    std::uint64_t value, std::uint64_t expiry,
                    bool *applied, std::vector<std::uint64_t> *reclaim)
{
    bool found = false;
    WriteIntent *own = nullptr;
    const SlotRef ref = writeLookup(tx, record, key, &found, &own);
    if (own) {
        // Re-writing a slot this composite already prepared: the
        // previous own post-image's staged blob (if any) becomes
        // garbage once the record commits — reclaim it, exactly like
        // prepareAddTx's coercion path (on abort it is freed through
        // the owner's staged-blob list instead, and the reclaim list
        // is discarded).
        if (reclaim && own->newState.load(std::memory_order_relaxed) ==
                           kFullRef) {
            const ValueRef own_ref =
                own->newValue.load(std::memory_order_relaxed);
            if (valueRefIsBlob(own_ref))
                reclaim->push_back(own_ref);
        }
        own->newState.store(new_state, std::memory_order_relaxed);
        own->newValue.store(value, std::memory_order_relaxed);
        own->newExpiry.store(expiry, std::memory_order_relaxed);
        *applied = true;
        return true;
    }
    if (found) {
        if (reclaim) {
            const SlotImage image =
                slotImageTx(tx, *ref.table, ref.slot);
            if (image.state == kFullRef)
                reclaim->push_back(image.value);
        }
        installIntent(tx, record, arena, out, *ref.table, ref.slot,
                      new_state, value, expiry);
        *applied = true;
        return true;
    }
    if (ref.slot == ref.table->slots) {
        *applied = false;
        return false; // full: caller grows (or aborts when capped)
    }
    const bool reused_tombstone =
        tx.readWord(&ref.table->state[ref.slot]) == kTombstone;
    tx.writeWord(&ref.table->state[ref.slot], kPendingInsert);
    tx.writeWord(&ref.table->keys[ref.slot], key);
    ctrlSetTx(tx, *ref.table, ref.slot, ctrlFingerprint(keyHash(key)));
    installIntent(tx, record, arena, out, *ref.table, ref.slot,
                  new_state, value, expiry)
        ->claimedTombstone = reused_tombstone;
    *applied = true;
    return true;
}

void
Shard::prepareDelTx(polytm::Tx &tx, CommitRecord *record,
                    IntentArena &arena, std::vector<WriteIntent *> &out,
                    std::uint64_t key, bool *applied,
                    std::vector<std::uint64_t> *reclaim)
{
    bool found = false;
    WriteIntent *own = nullptr;
    const SlotRef ref = writeLookup(tx, record, key, &found, &own);
    if (own) {
        const std::uint64_t own_state =
            own->newState.load(std::memory_order_relaxed);
        *applied = stateIsValue(own_state);
        // Deleting this composite's own staged byte value: its blob
        // is garbage from the commit on (see preparePutTx).
        if (reclaim && own_state == kFullRef) {
            const ValueRef own_ref =
                own->newValue.load(std::memory_order_relaxed);
            if (valueRefIsBlob(own_ref))
                reclaim->push_back(own_ref);
        }
        own->newState.store(kTombstone, std::memory_order_relaxed);
        return;
    }
    if (!found) {
        *applied = false; // absent (or full table with no match)
        return;
    }
    const SlotImage image = slotImageTx(tx, *ref.table, ref.slot);
    if (image.expiry != 0 && image.expiry <= nowNanos()) {
        // Logically absent; install the tombstone anyway so the slot
        // is reclaimed with the commit.
        *applied = false;
    } else {
        *applied = true;
    }
    if (reclaim && image.state == kFullRef)
        reclaim->push_back(image.value);
    installIntent(tx, record, arena, out, *ref.table, ref.slot,
                  kTombstone, 0, 0);
}

bool
Shard::prepareAddTx(polytm::Tx &tx, CommitRecord *record,
                    IntentArena &arena, std::vector<WriteIntent *> &out,
                    std::uint64_t key, std::int64_t delta, bool *applied,
                    std::vector<std::uint64_t> *reclaim,
                    SlotImage *post)
{
    const auto unsigned_delta = static_cast<std::uint64_t>(delta);
    bool found = false;
    WriteIntent *own = nullptr;
    const SlotRef ref = writeLookup(tx, record, key, &found, &own);
    if (own) {
        const std::uint64_t own_state =
            own->newState.load(std::memory_order_relaxed);
        if (stateIsValue(own_state)) {
            std::uint64_t current =
                own->newValue.load(std::memory_order_relaxed);
            if (own_state == kFullRef) {
                // Coerce this composite's own byte value to numeric;
                // its blob becomes garbage once the record commits.
                const ValueRef own_ref = current;
                if (valueRefIsBlob(own_ref)) {
                    std::uint64_t word = 0;
                    // Own blob: stable (never recycled while pending).
                    arena_.readBlobWord(own_ref, &word);
                    current = word;
                    if (reclaim)
                        reclaim->push_back(own_ref);
                } else {
                    current = inlineNumeric(own_ref);
                }
                own->newState.store(kFull, std::memory_order_relaxed);
            }
            own->newValue.store(current + unsigned_delta,
                                std::memory_order_relaxed);
        } else { // deleted earlier in this multiOp: recreate at delta
            own->newState.store(kFull, std::memory_order_relaxed);
            own->newValue.store(unsigned_delta,
                                std::memory_order_relaxed);
            own->newExpiry.store(0, std::memory_order_relaxed);
        }
        if (post)
            *post = SlotImage{
                kFull, own->newValue.load(std::memory_order_relaxed),
                own->newExpiry.load(std::memory_order_relaxed)};
        *applied = true;
        return true;
    }
    if (found) {
        const SlotImage image = slotImageTx(tx, *ref.table, ref.slot);
        const bool live_value =
            image.expiry == 0 || image.expiry > nowNanos();
        std::uint64_t current = 0;
        if (live_value) {
            if (!numericValueTx(tx, *ref.table, ref.slot,
                                {image.state, image.value,
                                 image.expiry},
                                &current))
                current = 0; // doomed transaction; keep control simple
        }
        if (reclaim && image.state == kFullRef)
            reclaim->push_back(image.value);
        installIntent(tx, record, arena, out, *ref.table, ref.slot,
                      kFull, current + unsigned_delta,
                      live_value ? image.expiry : 0);
        if (post)
            *post = SlotImage{kFull, current + unsigned_delta,
                              live_value ? image.expiry : 0};
        *applied = true;
        return true;
    }
    if (ref.slot == ref.table->slots) {
        *applied = false;
        return false; // full: caller grows (or aborts when capped)
    }
    const bool reused_tombstone =
        tx.readWord(&ref.table->state[ref.slot]) == kTombstone;
    tx.writeWord(&ref.table->state[ref.slot], kPendingInsert);
    tx.writeWord(&ref.table->keys[ref.slot], key);
    ctrlSetTx(tx, *ref.table, ref.slot, ctrlFingerprint(keyHash(key)));
    installIntent(tx, record, arena, out, *ref.table, ref.slot, kFull,
                  unsigned_delta, 0)
        ->claimedTombstone = reused_tombstone;
    if (post)
        *post = SlotImage{kFull, unsigned_delta, 0};
    *applied = true;
    return true;
}

bool
Shard::prepareGetTx(polytm::Tx &tx, CommitRecord *record,
                    std::uint64_t key, std::uint64_t *value)
{
    // Reads inside a *writing* composite resolve foreign intents the
    // way the write primitives do — waiting out PENDING ones — rather
    // than taking the non-blocking pre-image. Otherwise an
    // irrevocable backend could report a pre-image here and then fold
    // the foreign post-image under a later write of the same key in
    // the same transaction (no retry re-runs the read), leaving the
    // composite's own outputs unserializable.
    bool found = false;
    WriteIntent *own = nullptr;
    const SlotRef ref = writeLookup(tx, record, key, &found, &own);
    if (own) {
        // Read-your-writes within the composite.
        const std::uint64_t own_state =
            own->newState.load(std::memory_order_relaxed);
        if (!stateIsValue(own_state))
            return false;
        const std::uint64_t own_value =
            own->newValue.load(std::memory_order_relaxed);
        if (own_state == kFull) {
            if (value)
                *value = own_value;
            return true;
        }
        const ValueRef own_ref = own_value;
        if (!valueRefIsBlob(own_ref)) {
            if (value)
                *value = inlineNumeric(own_ref);
            return true;
        }
        std::uint64_t word = 0;
        arena_.readBlobWord(own_ref, &word); // own blob: stable
        if (value)
            *value = word;
        return true;
    }
    LiveValue live;
    if (!found || !settledValueTx(tx, ref, &live))
        return false;
    return numericValueTx(tx, *ref.table, ref.slot, live, value);
}

bool
Shard::prepareGetBytesTx(polytm::Tx &tx, CommitRecord *record,
                         std::uint64_t key, std::string *out)
{
    bool found = false;
    WriteIntent *own = nullptr;
    const SlotRef ref = writeLookup(tx, record, key, &found, &own);
    if (own) {
        const std::uint64_t own_state =
            own->newState.load(std::memory_order_relaxed);
        if (!stateIsValue(own_state))
            return false;
        const std::uint64_t own_value =
            own->newValue.load(std::memory_order_relaxed);
        if (own_state == kFull) {
            out->resize(8);
            std::memcpy(out->data(), &own_value, 8);
            return true;
        }
        const ValueRef own_ref = own_value;
        if (!valueRefIsBlob(own_ref)) {
            inlineRefCopy(own_ref, out);
            return true;
        }
        arena_.readBlob(own_ref, out); // own blob: stable
        return true;
    }
    LiveValue live;
    if (!found || !settledValueTx(tx, ref, &live))
        return false;
    return bytesValueTx(tx, *ref.table, ref.slot, live, out);
}

bool
Shard::finalizeIntentTx(polytm::Tx &tx, WriteIntent *intent,
                        std::int64_t *tombstone_delta)
{
    ShardTable &table = *intent->table;
    const std::size_t slot = static_cast<std::size_t>(intent->slot);
    const std::uint64_t word = tx.readWord(&table.intents[slot]);
    if (intentOf(word) != intent)
        return false; // a helping writer already folded it
    const std::uint64_t pre_state = tx.readWord(&table.state[slot]);
    const bool was_pending_insert = pre_state == kPendingInsert;
    const std::uint64_t new_state =
        intent->newState.load(std::memory_order_relaxed);
    tx.writeWord(&table.state[slot], new_state);
    if (stateIsValue(new_state)) {
        tx.writeWord(&table.values[slot],
                     intent->newValue.load(std::memory_order_relaxed));
        tx.writeWord(&table.expiry[slot],
                     intent->newExpiry.load(std::memory_order_relaxed));
    } else {
        ctrlSetTx(tx, table, slot, kCtrlTombstone);
    }
    tx.writeWord(&table.intents[slot], 0);
    if (tombstone_delta) {
        if (new_state == kTombstone && stateIsValue(pre_state))
            ++*tombstone_delta; // committed delete of a value slot
        else if (was_pending_insert && stateIsValue(new_state) &&
                 intent->claimedTombstone)
            --*tombstone_delta; // the insert reused a tombstone
    }
    // A pending insert that claimed a tombstone consumed no new slot.
    return was_pending_insert && stateIsValue(new_state) &&
           !intent->claimedTombstone;
}

void
Shard::abortIntentTx(polytm::Tx &tx, WriteIntent *intent)
{
    ShardTable &table = *intent->table;
    const std::size_t slot = static_cast<std::size_t>(intent->slot);
    const std::uint64_t word = tx.readWord(&table.intents[slot]);
    if (intentOf(word) != intent)
        return; // a helping writer already discarded it
    if (tx.readWord(&table.state[slot]) == kPendingInsert) {
        tx.writeWord(&table.state[slot], kTombstone);
        ctrlSetTx(tx, table, slot, kCtrlTombstone);
    }
    tx.writeWord(&table.intents[slot], 0);
}

bool
Shard::get(polytm::ThreadToken &token, std::uint64_t key,
           std::uint64_t *value)
{
    bool ok = false;
    poly_.run(token,
              [&](polytm::Tx &tx) { ok = getTx(tx, key, value); });
    return ok;
}

bool
Shard::put(polytm::ThreadToken &token, std::uint64_t key,
           std::uint64_t value, std::uint64_t ttl_nanos)
{
    const std::uint64_t expiry =
        ttl_nanos == 0 ? 0 : nowNanos() + ttl_nanos;
    if (expiry != 0)
        ttlSeen_.store(true, std::memory_order_relaxed);
    std::vector<std::uint64_t> reclaim;
    for (;;) {
        // Capacity snapshot BEFORE the attempt: if a concurrent grow
        // doubles the table mid-attempt, tryGrow sees the enlarged
        // live table, returns immediately, and the retry runs against
        // it instead of failing a capped shard spuriously.
        const std::size_t cap = capacity();
        bool ok = false;
        SlotImage pre;
        poly_.run(token, [&](polytm::Tx &tx) {
            reclaim.clear(); // retried attempts restart
            ok = putTx(tx, key, value, expiry, &pre, &reclaim);
        });
        if (ok) {
            finishWrite(token, pre, reclaim);
            return true;
        }
        if (!tryGrow(token, cap))
            return false;
    }
}

bool
Shard::putBytes(polytm::ThreadToken &token, std::uint64_t key,
                const void *data, std::size_t len,
                std::uint64_t ttl_nanos)
{
    const std::uint64_t expiry =
        ttl_nanos == 0 ? 0 : nowNanos() + ttl_nanos;
    if (expiry != 0)
        ttlSeen_.store(true, std::memory_order_relaxed);
    const ValueRef ref = len <= kValueRefInlineMax
                             ? makeInlineRef(data, len)
                             : arena_.allocBlob(data, len);
    std::vector<std::uint64_t> reclaim;
    for (;;) {
        const std::size_t cap = capacity(); // before the attempt
        bool ok = false;
        SlotImage pre;
        poly_.run(token, [&](polytm::Tx &tx) {
            reclaim.clear();
            ok = putRefTx(tx, key, ref, expiry, &pre, &reclaim);
        });
        if (ok) {
            finishWrite(token, pre, reclaim);
            return true;
        }
        if (!tryGrow(token, cap)) {
            arena_.freeBlob(ref); // never published
            return false;
        }
    }
}

bool
Shard::getBytes(polytm::ThreadToken &token, std::uint64_t key,
                std::string *out)
{
    bool ok = false;
    poly_.run(token, [&](polytm::Tx &tx) {
        // Pin per attempt (never across a gate park): the section
        // covers every blob deref of this body.
        EpochPin pin(readerEpochs_, *token.epochSlot);
        ok = snapshotGetBytesTx(tx, key, out, ReadView{});
    });
    return ok;
}

bool
Shard::del(polytm::ThreadToken &token, std::uint64_t key)
{
    bool ok = false;
    SlotImage pre;
    std::vector<std::uint64_t> reclaim;
    poly_.run(token, [&](polytm::Tx &tx) {
        reclaim.clear();
        ok = delTx(tx, key, &pre, &reclaim);
    });
    for (const std::uint64_t ref : reclaim)
        retireBlob(ref);
    if (stateIsValue(pre.state)) {
        noteTombstones(1);
        // Deletes drive maintenance like every other write — a
        // del-only phase must still reclaim its retired blobs.
        maintainTick(token);
    }
    return ok;
}

std::size_t
Shard::scanTx(polytm::Tx &tx, std::uint64_t start_key, std::size_t limit,
              std::vector<std::pair<std::uint64_t, std::uint64_t>> *out,
              const ReadView &view)
{
    if (out)
        out->clear(); // retried attempts restart the collection
    return scanWalkTx(
        tx, start_key, limit, view,
        [&](ShardTable &table, std::size_t slot,
            const LiveValue &live) {
            std::uint64_t word = 0;
            if (!numericValueTx(tx, table, slot, live, &word, view))
                return false;
            if (out)
                out->emplace_back(tx.readWord(&table.keys[slot]), word);
            return true;
        });
}

std::size_t
Shard::scanEntriesTx(polytm::Tx &tx, std::uint64_t start_key,
                     std::size_t limit, std::vector<ScanEntry> *out,
                     const ReadView &view)
{
    if (out)
        out->clear();
    return scanWalkTx(
        tx, start_key, limit, view,
        [&](ShardTable &table, std::size_t slot,
            const LiveValue &live) {
            ScanEntry entry;
            entry.key = tx.readWord(&table.keys[slot]);
            if (!bytesValueTx(tx, table, slot, live, &entry.bytes,
                              view, /*pinned=*/true))
                return false;
            if (out)
                out->push_back(std::move(entry));
            return true;
        });
}

std::size_t
Shard::scan(polytm::ThreadToken &token, std::uint64_t start_key,
            std::size_t limit,
            std::vector<std::pair<std::uint64_t, std::uint64_t>> *out)
{
    // kSettle: every in-flight cross-shard commit the walk touches is
    // waited out to its terminal verdict, so one transaction sees each
    // commit all-or-nothing — no retry loop, no store-level sequence
    // needed. (A commit preparing *after* our reads invalidates the
    // scan's read-set through the intent words, so the TM retries it.)
    std::size_t count = 0;
    poly_.run(token, [&](polytm::Tx &tx) {
        count = scanTx(tx, start_key, limit, out,
                       ReadView{ReadView::Mode::kSettle, 0});
    });
    return count;
}

void
Shard::noteConsumed(std::size_t n)
{
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    ep->live->consumed.fetch_add(n, std::memory_order_relaxed);
}

void
Shard::noteTombstones(std::int64_t delta)
{
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    ep->live->tombstones.fetch_add(delta, std::memory_order_relaxed);
}

void
Shard::finishWrite(polytm::ThreadToken &token, const SlotImage &pre,
                   const std::vector<std::uint64_t> &reclaim)
{
    for (const std::uint64_t ref : reclaim)
        retireBlob(ref);
    if (pre.state == kEmpty)
        noteConsumed(1);
    else if (pre.state == kTombstone)
        noteTombstones(-1); // insert reused a tombstone
    maintainTick(token);
}

std::size_t
Shard::capacity() const
{
    return epochMirror_.load(std::memory_order_acquire)->live->slots;
}

bool
Shard::migrationActive() const
{
    return epochMirror_.load(std::memory_order_acquire)->old != nullptr;
}

namespace {

/**
 * Pin a token for a maintenance span so its transactions never park
 * behind the parallelism gate while the thread holds a resource
 * others wait on (growMutex_, a claimed migration chunk) — the same
 * §4.2 escape hatch the multiOp paths use. Pins don't nest: a caller
 * that is itself pinned (a multiOp's grow-retry) gets transiently
 * unpinned at this guard's exit, which is safe because every
 * poly_.run between here and the outer span's end is itself guarded.
 */
class PinGuard
{
  public:
    PinGuard(polytm::PolyTm &poly, int tid) : poly_(poly), tid_(tid)
    {
        poly_.setPinned(tid_, true);
    }
    ~PinGuard() { poly_.setPinned(tid_, false); }

  private:
    polytm::PolyTm &poly_;
    int tid_;
};

} // namespace

void
Shard::publishEpoch(polytm::ThreadToken &token, TableEpoch *next)
{
    // Pinned: this runs under growMutex_, and a publisher parked by a
    // shrunk parallelism degree would stall every grower behind the
    // mutex until the next retune.
    PinGuard pin(poly_, token.tid);
    poly_.run(token, [&](polytm::Tx &tx) {
        tx.writeWord(&epochWord_,
                     reinterpret_cast<std::uint64_t>(next));
    });
    epochMirror_.store(next, std::memory_order_release);
}

void
Shard::startMigrationLocked(polytm::ThreadToken &token,
                            ShardTable *source, std::size_t new_slots)
{
    // growMutex_ held by the caller; `source` is the live table and
    // no migration is in flight. Set up the source's chunk accounting
    // before anyone can claim a chunk.
    const std::size_t chunk = options_.migrateChunkSlots;
    source->totalChunks = (source->slots + chunk - 1) / chunk;
    source->chunkDone =
        std::make_unique<std::atomic<std::uint8_t>[]>(
            source->totalChunks);
    source->migrateCursor.store(0, std::memory_order_relaxed);
    source->chunksDone.store(0, std::memory_order_relaxed);
    tables_.push_back(std::make_unique<ShardTable>(new_slots));
    epochs_.push_back(std::make_unique<TableEpoch>(
        TableEpoch{tables_.back().get(), source}));
    publishEpoch(token, epochs_.back().get());
}

bool
Shard::tombstoneHeavy(const ShardTable &live)
{
    const std::int64_t tombs =
        live.tombstones.load(std::memory_order_relaxed);
    const auto consumed = static_cast<std::int64_t>(
        live.consumed.load(std::memory_order_relaxed));
    // Half-or-more of the consumed slots are garbage: a same-size
    // table holds the survivors comfortably, a doubling would mostly
    // duplicate empty space.
    return tombs > 0 && tombs * 2 >= consumed;
}

bool
Shard::growLocked(polytm::ThreadToken &token, std::size_t full_capacity)
{
    // growMutex_ held by the caller.
    TableEpoch *cur = epochMirror_.load(std::memory_order_acquire);
    if (cur->live->slots > full_capacity)
        return true; // someone already grew past the reported size
    if (cur->live->slots >= maxSlots_)
        return false; // capped: the caller's op has genuinely failed
    startMigrationLocked(token, cur->live, cur->live->slots * 2);
    growCount_.fetch_add(1, std::memory_order_relaxed);
    trace(obs::TraceKind::kGrow, cur->live->slots,
          cur->live->slots * 2);
    return true;
}

void
Shard::compactLocked(polytm::ThreadToken &token)
{
    TableEpoch *cur = epochMirror_.load(std::memory_order_acquire);
    startMigrationLocked(token, cur->live, cur->live->slots);
    compactCount_.fetch_add(1, std::memory_order_relaxed);
    trace(obs::TraceKind::kCompact, cur->live->slots);
}

bool
Shard::tryGrow(polytm::ThreadToken &token, std::size_t full_capacity)
{
    bool compacted = false;
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(growMutex_);
            TableEpoch *cur =
                epochMirror_.load(std::memory_order_acquire);
            if (cur->live->slots > full_capacity)
                return true; // a concurrent grow already helped
            if (!cur->old) {
                if (compacted) {
                    // Our compaction drained: the tombstones it shed
                    // are insert room now — let the caller retry.
                    return true;
                }
                if (cur->live->slots < maxSlots_)
                    return growLocked(token, full_capacity);
                // Capped. Delete churn can still fill a pinned table
                // with tombstones; a same-size compacting migration
                // recovers them. Only a table full of *live* entries
                // is a genuine failure. (The heuristic count resets
                // to truth through the migration, so a drifted-high
                // estimate costs at most one wasted compaction.)
                if (!tombstoneHeavy(*cur->live))
                    return false;
                compactLocked(token);
                compacted = true;
            }
        }
        // A migration is in flight: help drain it, then re-check.
        migrateChunk(token);
    }
}

void
Shard::drainMigration(polytm::ThreadToken &token)
{
    while (migrationActive()) {
        migrateChunk(token);
        std::this_thread::yield();
    }
}

bool
Shard::migrateChunk(polytm::ThreadToken &token)
{
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    ShardTable *old = ep->old;
    if (!old)
        return false;
    // Pinned for the claim-to-completion span: a claimer parked by a
    // shrunk parallelism degree would strand its chunk, wedging
    // migration completion (and every tryGrow looping on it) until
    // the next retune.
    PinGuard pin(poly_, token.tid);
    const std::size_t chunk = options_.migrateChunkSlots;
    const std::size_t begin =
        old->migrateCursor.fetch_add(chunk, std::memory_order_acq_rel);
    if (begin >= old->slots) {
        // Someone else claimed the tail; migration finishes when the
        // last claimed chunk lands.
        std::this_thread::yield();
        return migrationActive();
    }
    const std::size_t end =
        begin + chunk < old->slots ? begin + chunk : old->slots;

    std::vector<std::uint64_t> reclaim; // expired entries' blobs
    bool stalled = false;
    std::size_t consumed_live = 0;
    poly_.run(token, [&](polytm::Tx &tx) {
        reclaim.clear(); // retried attempts restart
        stalled = false;
        consumed_live = 0;
        TableEpoch *cur = epochTx(tx);
        if (cur->old != old)
            return; // migration already finished under us
        ShardTable &live = *cur->live;
        const auto migrate_slot = [&](std::size_t slot) -> bool {
            const std::uint64_t word =
                tx.readWord(&old->intents[slot]);
            if (word != 0)
                resolveForeignIntentTx(tx, *old, slot, word);
            const std::uint64_t state =
                tx.readWord(&old->state[slot]);
            if (!stateIsValue(state))
                return true;
            const std::uint64_t value =
                tx.readWord(&old->values[slot]);
            const std::uint64_t deadline =
                tx.readWord(&old->expiry[slot]);
            if (deadline != 0 && deadline <= nowNanos()) {
                // Expired: drop instead of moving.
                tx.writeWord(&old->state[slot], kTombstone);
                ctrlSetTx(tx, *old, slot, kCtrlTombstone);
                if (state == kFullRef)
                    reclaim.push_back(value);
                return true;
            }
            const std::uint64_t key = tx.readWord(&old->keys[slot]);
            bool found = false;
            const std::size_t dst = probe(tx, live, key, &found);
            if (found) {
                // Legitimately reachable when a stall rewind makes
                // two claimers re-process overlapping ranges: the
                // live copy is the relocated (or newer) one — drop
                // the old-table copy.
                tx.writeWord(&old->state[slot], kTombstone);
                ctrlSetTx(tx, *old, slot, kCtrlTombstone);
                if (state == kFullRef)
                    reclaim.push_back(value);
                return true;
            }
            if (dst == live.slots) {
                // Live table out of room (only reachable on a capped
                // shard under extreme fill): park the rest of this
                // chunk; deletes/sweeps will free space eventually.
                stalled = true;
                return false;
            }
            if (tx.readWord(&live.state[dst]) == kEmpty)
                ++consumed_live;
            tx.writeWord(&live.state[dst], state);
            tx.writeWord(&live.keys[dst], key);
            tx.writeWord(&live.values[dst], value);
            tx.writeWord(&live.expiry[dst], deadline);
            ctrlSetTx(tx, live, dst, ctrlFingerprint(keyHash(key)));
            tx.writeWord(&old->state[slot], kTombstone);
            ctrlSetTx(tx, *old, slot, kCtrlTombstone);
            return true;
        };
        // Chunks are claimed at multiples of `chunk` and end at the
        // table's end, so the walk never wraps.
        forEachKeyedSlotTx(tx, *old, begin, end - begin, migrate_slot);
    });
    for (const std::uint64_t ref : reclaim)
        retireBlob(ref); // a doomed scan may still hold the handles
    if (consumed_live > 0)
        noteConsumed(consumed_live);
    if (stalled) {
        // Give the chunk back: relocated slots are tombstones now, so
        // re-processing is idempotent, and the rewind target is the
        // chunk's own begin, so claims stay chunk-aligned. CAS-min
        // keeps concurrent claims monotone.
        std::size_t cur =
            old->migrateCursor.load(std::memory_order_relaxed);
        while (cur > begin && !old->migrateCursor.compare_exchange_weak(
                                  cur, begin, std::memory_order_acq_rel))
            ;
        return true;
    }
    // Count each chunk exactly once: after a stall rewind the same
    // chunk can complete under several claimers, and double-counting
    // would let chunksDone reach the total while another chunk still
    // holds un-migrated keys — retiring the old table would lose them.
    const std::size_t chunk_index = begin / chunk;
    trace(obs::TraceKind::kMigrateChunk, chunk_index, consumed_live);
    if (old->chunkDone[chunk_index].exchange(
            1, std::memory_order_acq_rel) == 0) {
        if (old->chunksDone.fetch_add(1, std::memory_order_acq_rel) +
                1 ==
            old->totalChunks)
            finishMigration(token, old);
    }
    return migrationActive();
}

void
Shard::finishMigration(polytm::ThreadToken &token, ShardTable *old)
{
    std::lock_guard<std::mutex> lk(growMutex_);
    TableEpoch *cur = epochMirror_.load(std::memory_order_acquire);
    if (cur->old != old)
        return;
    epochs_.push_back(std::make_unique<TableEpoch>(
        TableEpoch{cur->live, nullptr}));
    publishEpoch(token, epochs_.back().get());
    recountTombstonesLocked(token, *cur->live);
}

void
Shard::recountTombstonesLocked(polytm::ThreadToken &token,
                               ShardTable &live)
{
    // Migration seeds the new table's tombstone estimate only through
    // per-op deltas, so the count drifts across rotations (the old
    // table's garbage vanished with it, foreign deletes raced the
    // walk). The ctrl bytes are transactionally exact, so one chunked
    // pass over them resyncs the estimate at 1/8 the TM reads of a
    // state-word walk. Concurrent deletes may still slip a delta in
    // while we scan — the estimate only feeds the tombstoneHeavy
    // heuristic, and the next rotation resyncs again.
    const std::size_t words = live.ctrl.size();
    constexpr std::size_t kStride = 512; // ctrl words per transaction
    std::int64_t total = 0;
    for (std::size_t w0 = 0; w0 < words; w0 += kStride) {
        const std::size_t w1 = std::min(words, w0 + kStride);
        std::int64_t count = 0;
        poly_.run(token, [&](polytm::Tx &tx) {
            count = 0; // retried attempts restart
            for (std::size_t w = w0; w < w1; ++w) {
                const std::uint64_t bytes =
                    tx.readWord(&live.ctrl[w]);
                count += std::popcount(
                    simd::matchByte16(bytes, 0, kCtrlTombstone) &
                    0xffu);
#ifdef PROTEUS_ASSERT_CTRL_SYNC
                // Sanitizer builds: every ctrl byte must agree with
                // its slot's state class inside one transaction.
                for (unsigned lane = 0; lane < 8; ++lane) {
                    const std::size_t slot = (w << 3) + lane;
                    if (slot >= live.slots)
                        break;
                    const auto byte = static_cast<std::uint8_t>(
                        bytes >> (8 * lane));
                    const std::uint64_t state =
                        tx.readWord(&live.state[slot]);
                    const bool ok =
                        state == kEmpty
                            ? byte == kCtrlEmpty
                            : state == kTombstone
                                  ? byte == kCtrlTombstone
                                  : byte ==
                                        ctrlFingerprint(keyHash(
                                            tx.readWord(
                                                &live.keys[slot])));
                    if (!ok)
                        std::abort(); // ctrl/state desync
                }
#endif
            }
        });
        total += count;
    }
    live.tombstones.store(total, std::memory_order_relaxed);
}

void
Shard::sweepChunk(polytm::ThreadToken &token)
{
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    ShardTable &live = *ep->live;
    const std::size_t chunk = options_.sweepChunkSlots;
    const std::size_t begin =
        live.sweepCursor.fetch_add(chunk, std::memory_order_relaxed) %
        live.slots;

    std::vector<std::uint64_t> reclaim;
    std::size_t expired_count = 0;
    poly_.run(token, [&](polytm::Tx &tx) {
        reclaim.clear();
        expired_count = 0; // retried attempts restart
        TableEpoch *cur = epochTx(tx);
        if (cur->live != &live)
            return; // table rotated under the clock hand
        forEachKeyedSlotTx(tx, live, begin, chunk, [&](std::size_t slot) {
            // Slots under an intent belong to an in-flight commit;
            // leave them to their owner.
            if (tx.readWord(&live.intents[slot]) != 0)
                return true;
            const std::uint64_t state = tx.readWord(&live.state[slot]);
            if (!stateIsValue(state))
                return true;
            const std::uint64_t deadline =
                tx.readWord(&live.expiry[slot]);
            if (deadline != 0 && deadline <= nowNanos()) {
                if (state == kFullRef)
                    reclaim.push_back(tx.readWord(&live.values[slot]));
                tx.writeWord(&live.state[slot], kTombstone);
                ctrlSetTx(tx, live, slot, kCtrlTombstone);
                ++expired_count;
            }
            return true;
        });
    });
    for (const std::uint64_t ref : reclaim)
        retireBlob(ref);
    trace(obs::TraceKind::kSweepChunk, begin / chunk, expired_count);
    if (expired_count > 0) {
        live.tombstones.fetch_add(
            static_cast<std::int64_t>(expired_count),
            std::memory_order_relaxed);
    }
}

void
Shard::maintainTick(polytm::ThreadToken &token)
{
    const auto over_threshold = [&](const ShardTable &table) {
        return table.consumed.load(std::memory_order_relaxed) * 100 >=
               table.slots * options_.growLoadPercent;
    };
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    if (ep->old) {
        // Writers must not outrun a migration on a growable shard: if
        // inserts filled the live table while old-table entries still
        // needed room in it, the walker would stall for good and every
        // tryGrow would wait on it. Past the load threshold a writer
        // drains the migration before writing on. (A capped shard
        // keeps writing: its deletes free room for a stalled walker.)
        if (!over_threshold(*ep->live) || ep->live->slots >= maxSlots_) {
            migrateChunk(token);
            return;
        }
        drainMigration(token);
        ep = epochMirror_.load(std::memory_order_acquire);
    }
    ShardTable &live = *ep->live;
    if (over_threshold(live) &&
        (live.slots < maxSlots_ || tombstoneHeavy(live))) {
        std::lock_guard<std::mutex> lk(growMutex_);
        TableEpoch *cur = epochMirror_.load(std::memory_order_acquire);
        if (!cur->old && cur->live == &live) {
            // Delete churn consumes slots without holding data: a
            // tombstone-dominated table migrates into a SAME-size
            // table (shedding the garbage) instead of doubling.
            if (tombstoneHeavy(live))
                compactLocked(token);
            else
                growLocked(token, live.slots);
        }
        return;
    }
    const std::uint64_t ticks =
        maintainTicks_.fetch_add(1, std::memory_order_relaxed);
    if (ttlSeen_.load(std::memory_order_relaxed) && (ticks & 63) == 0)
        sweepChunk(token);
    // Recycle retired blobs whose reader epochs have quiesced. The
    // sweep pays one epoch RMW plus a claimed-slot scan, so it runs
    // on a sparse tick unless limbo is piling up.
    const std::size_t limbo = arena_.limboCount();
    if (limbo > 512 || (limbo > 0 && (ticks & 15) == 0))
        arena_.reclaim(readerEpochs_);
}

std::size_t
Shard::sizeQuiesced() const
{
    const std::uint64_t now = nowNanos();
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    const auto count = [&](const ShardTable *table) {
        std::size_t n = 0;
        if (!table)
            return n;
        for (std::size_t slot = 0; slot < table->slots; ++slot) {
            if (stateIsValue(table->state[slot]) &&
                (table->expiry[slot] == 0 || table->expiry[slot] > now))
                ++n;
        }
        return n;
    };
    return count(ep->live) + count(ep->old);
}

std::size_t
Shard::findSlotQuiesced(std::uint64_t key) const
{
    // Test hook: raw probe over the quiesced live table (no TM, no
    // concurrency): a slot walk with the probe's termination rules.
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    const ShardTable &table = *ep->live;
    std::size_t slot = homeSlot(table, key);
    for (std::size_t step = 0; step < table.slots; ++step) {
        const std::uint64_t state = table.state[slot];
        if (state == kEmpty)
            return table.slots;
        if (state != kTombstone && table.keys[slot] == key)
            return slot;
        slot = (slot + 1) & table.mask;
    }
    return table.slots;
}

std::uint8_t
Shard::ctrlByteQuiesced(std::size_t slot) const
{
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    const ShardTable &table = *ep->live;
    return static_cast<std::uint8_t>(table.ctrl[slot >> 3] >>
                                     (8 * (slot & 7)));
}

void
Shard::setCtrlByteQuiesced(std::size_t slot, std::uint8_t byte)
{
    // Test hook: deliberately corrupt a ctrl byte on a quiesced table
    // (corruption tests prove mismatched hints only add probes).
    TableEpoch *ep = epochMirror_.load(std::memory_order_acquire);
    ShardTable &table = *ep->live;
    const unsigned shift = static_cast<unsigned>(slot & 7) * 8;
    table.ctrl[slot >> 3] =
        (table.ctrl[slot >> 3] & ~(std::uint64_t{0xff} << shift)) |
        (std::uint64_t{byte} << shift);
}

Shard::CkptStep
Shard::checkpointChunk(polytm::ThreadToken &token,
                       CheckpointCursor *cursor,
                       std::vector<CheckpointEntry> *out,
                       unsigned chunk_slots)
{
    CkptStep step = CkptStep::kMore;
    const std::size_t out_mark = out->size();
    poly_.run(token, [&](polytm::Tx &tx) {
        // A TM retry re-runs this body: drop the half-captured chunk.
        out->resize(out_mark);
        step = CkptStep::kMore;
        TableEpoch *ep = epochTx(tx);
        // The walk is only sound on a migration-free epoch: a
        // migration relocates keys across regions the cursor already
        // passed, silently dropping them from the image. The caller
        // drains the migration and restarts.
        if (ep->old != nullptr) {
            cursor->epoch = nullptr;
            step = CkptStep::kRestart;
            return;
        }
        if (cursor->epoch == nullptr) {
            cursor->epoch = ep;
            cursor->slot = 0;
        } else if (cursor->epoch != ep) {
            // Grow/compact published a new table mid-walk; entries
            // captured so far may miss relocated keys.
            cursor->epoch = nullptr;
            step = CkptStep::kRestart;
            return;
        }
        ShardTable &table = *ep->live;
        // Pin: blob copy-outs below run without seqlock re-checks.
        EpochPin pin(readerEpochs_, *token.epochSlot);
        const ReadView view{ReadView::Mode::kSettle, 0};
        const std::size_t end =
            std::min(table.slots, cursor->slot + chunk_slots);
        for (std::size_t slot = cursor->slot; slot < end; ++slot) {
            const std::uint64_t state =
                tx.readWord(&table.state[slot]);
            if (state != kFull && state != kFullRef &&
                state != kPendingInsert)
                continue;
            LiveValue live;
            if (!resolveSlotLiveTx(tx, table, slot, &live, view))
                continue; // logically absent (expired / aborted)
            CheckpointEntry entry;
            entry.key = tx.readWord(&table.keys[slot]);
            entry.expiry = live.expiry;
            if (live.state == kFull) {
                entry.value = live.value;
            } else {
                entry.isBytes = true;
                if (!bytesValueTx(tx, table, slot, live, &entry.bytes,
                                  view, /*pinned=*/true))
                    continue;
            }
            out->push_back(std::move(entry));
        }
        cursor->slot = end;
        if (cursor->slot >= table.slots)
            step = CkptStep::kDone;
    });
    return step;
}

} // namespace proteus::kvstore
