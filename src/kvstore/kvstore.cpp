#include "kvstore/kvstore.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <new>
#include <stdexcept>
#include <thread>

#include "common/timing.hpp"
#include "kvstore/recovery.hpp"

namespace proteus::kvstore {

namespace {

/** Shard router hash — distinct from the in-shard slot hash so shard
 *  choice and slot choice stay uncorrelated. */
std::uint64_t
routeMix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    return x ^ (x >> 33);
}

/**
 * Thrown out of a transaction body when a put/add finds no slot. A
 * foreign (non-TxAbort) exception, so PolyTm::run rolls the open
 * transaction back — nothing of the failing shard commits — and
 * rethrows for the multiOp driver to unwind the other shards and
 * grow-and-retry (or fail for good when growth is capped).
 */
struct TableFullError
{
};

} // namespace

const char *
healthName(Health h)
{
    switch (h) {
      case Health::kHealthy:          return "healthy";
      case Health::kDegradedReadOnly: return "degraded_readonly";
      case Health::kFailed:           return "failed";
    }
    return "unknown";
}

const char *
kvStatusName(KvStatus s)
{
    switch (s) {
      case KvStatus::kOk:       return "ok";
      case KvStatus::kNotFound: return "not_found";
      case KvStatus::kNoSpace:  return "no_space";
      case KvStatus::kNoMemory: return "no_memory";
      case KvStatus::kReadOnly: return "read_only";
      case KvStatus::kWalError: return "wal_error";
    }
    return "unknown";
}

KvStore::KvStore(KvStoreOptions options)
    : options_(options), recorder_(options.telemetry),
      snapRounds_(metrics_.counter("snapshot_rounds")),
      snapRetries_(metrics_.counter("snapshot_retries")),
      snapEscalations_(metrics_.counter("snapshot_escalations")),
      twoPhaseCommits_(metrics_.counter("twophase_commits")),
      twoPhaseAborts_(metrics_.counter("twophase_aborts")),
      retunes_(metrics_.counter("tuner_retunes")),
      walAppends_(metrics_.counter("wal_appends")),
      walFsyncs_(metrics_.counter("wal_fsyncs")),
      walBytes_(metrics_.counter("wal_bytes")),
      walCkptChunks_(metrics_.counter("checkpoint_chunks")),
      walErrors_(metrics_.counter("wal_errors")),
      walRescues_(metrics_.counter("wal_rescues")),
      walCkptFailures_(metrics_.counter("checkpoint_failures")),
      writesRejected_(metrics_.counter("writes_rejected")),
      healthTransitions_(metrics_.counter("health_transitions")),
      walFsyncNanos_(metrics_.histogram("wal_fsync_nanos"))
{
    if (options.numShards <= 0)
        throw std::invalid_argument("KvStore: numShards must be >= 1");
    // >= 4: a shard table holds at least one 16-slot ctrl group.
    if (options.log2SlotsPerShard < 4 || options.log2SlotsPerShard > 30)
        throw std::invalid_argument(
            "KvStore: log2SlotsPerShard must be in [4, 30]");
    if (options.maxLog2SlotsPerShard != 0 &&
        options.maxLog2SlotsPerShard < options.log2SlotsPerShard)
        throw std::invalid_argument(
            "KvStore: maxLog2SlotsPerShard is below the initial "
            "log2SlotsPerShard (the table could never hold its seed)");
    if (options.growLoadPercent == 0 || options.growLoadPercent > 100)
        throw std::invalid_argument(
            "KvStore: growLoadPercent must be in [1, 100]");
    if (options.durability != Durability::kOff) {
        if (options.walDir.empty())
            throw std::invalid_argument(
                "KvStore: durability requires a walDir");
        if (options.walFlushBytes == 0)
            throw std::invalid_argument(
                "KvStore: walFlushBytes of 0 would make every group "
                "commit window empty; use >= 1");
        if (options.checkpointChunkSlots == 0)
            throw std::invalid_argument(
                "KvStore: checkpointChunkSlots must be >= 1");
    }
    shards_.reserve(static_cast<std::size_t>(options.numShards));
    shardSeqs_ = std::make_unique<PaddedAtomicU64[]>(
        static_cast<std::size_t>(options.numShards));
    for (int s = 0; s < options.numShards; ++s) {
        ShardOptions shard_options;
        shard_options.log2Slots = options.log2SlotsPerShard;
        shard_options.maxLog2Slots = options.maxLog2SlotsPerShard;
        shard_options.growLoadPercent = options.growLoadPercent;
        shard_options.initial = options.initial;
        shard_options.recorder = &recorder_;
        shard_options.commitSeq = &commitSeq_;
        shard_options.shardIndex = s;
        shards_.push_back(std::make_unique<Shard>(shard_options));
    }

    // Bridge the pre-existing stats planes into the registry so one
    // telemetry() walk exports them; the `this`-capturing callbacks
    // are safe because the registry is a member.
    const auto sumShards = [this](auto fn) {
        std::uint64_t total = 0;
        for (const auto &shard : shards_)
            total += fn(*shard);
        return total;
    };
    metrics_.counterFn("tm_commits", [this] {
        return totalStats().commits;
    });
    metrics_.counterFn("tm_aborts", [this] {
        return totalStats().aborts;
    });
    static const char *const kCauseNames[] = {
        nullptr,
        "tm_aborts_conflict",
        "tm_aborts_capacity",
        "tm_aborts_explicit",
        "tm_aborts_fallback_lock",
        "tm_aborts_validation",
    };
    for (std::size_t c = 1; c < std::size(kCauseNames); ++c) {
        metrics_.counterFn(kCauseNames[c], [this, c] {
            return totalStats().abortsByCause[c];
        });
    }
    metrics_.counterFn("snapshot_pending_waits", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.snapshotPendingWaits();
        });
    });
    metrics_.counterFn("shard_grows", [sumShards] {
        return sumShards(
            [](const Shard &shard) { return shard.growCount(); });
    });
    metrics_.counterFn("shard_compacts", [sumShards] {
        return sumShards(
            [](const Shard &shard) { return shard.compactCount(); });
    });
    metrics_.gaugeFn("store_capacity_slots", [sumShards] {
        return sumShards(
            [](const Shard &shard) { return shard.capacity(); });
    });
    metrics_.counterFn("arena_allocs", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().allocs;
        });
    });
    metrics_.counterFn("arena_magazine_hits", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().magazineHits;
        });
    });
    metrics_.counterFn("arena_global_hits", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().globalHits;
        });
    });
    metrics_.counterFn("arena_carves", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().carves;
        });
    });
    metrics_.counterFn("arena_carve_contended", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().carveContended;
        });
    });
    metrics_.counterFn("arena_cas_retries", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().casRetries;
        });
    });
    metrics_.counterFn("arena_retired", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().retired;
        });
    });
    metrics_.counterFn("arena_recycled", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().stats().recycled;
        });
    });
    metrics_.gaugeFn("arena_bytes_live", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().bytesLive();
        });
    });
    metrics_.gaugeFn("arena_limbo", [sumShards] {
        return sumShards([](const Shard &shard) {
            return shard.arena().limboCount();
        });
    });
    metrics_.gaugeFn("health_state", [this] {
        return static_cast<std::uint64_t>(
            health_.load(std::memory_order_relaxed));
    });
    metrics_.gaugeFn("wal_lost_bytes", [this] {
        std::uint64_t total = 0;
        for (const auto &shard_wal : wals_)
            total += shard_wal->lostBytes();
        return total;
    });

    if (options_.durability != Durability::kOff) {
        std::filesystem::create_directories(options_.walDir);
        int meta_shards = 0;
        if (wal::readMeta(options_.walDir, &meta_shards)) {
            if (meta_shards != options_.numShards)
                throw std::invalid_argument(
                    "KvStore: walDir belongs to a store with " +
                    std::to_string(meta_shards) + " shards, not " +
                    std::to_string(options_.numShards));
        } else {
            wal::writeMeta(options_.walDir, options_.numShards);
        }

        // Replay what survived into the freshly built shards, then
        // seed the store-wide sequences past everything recovered.
        const recovery::RecoveryStats stats =
            recovery::recover(options_.walDir, shards_, &recorder_);
        commitSeq_.store(stats.maxCommitSeq, std::memory_order_relaxed);
        walTxnId_.store(stats.maxTxnId, std::memory_order_relaxed);
        for (std::size_t s = 0; s < shards_.size(); ++s)
            shardSeqs_[s].value.store(stats.maxCommitSeq,
                                      std::memory_order_relaxed);
        recoveryInfo_.checkpointEntries = stats.checkpointEntries;
        recoveryInfo_.replayedRecords = stats.replayedRecords;
        recoveryInfo_.replayedOps = stats.replayedOps;
        recoveryInfo_.inDoubtAborted = stats.inDoubtAborted;
        recoveryInfo_.tornBytes = stats.tornBytes;
        metrics_.counter("recovery_replayed_records")
            .add(stats.replayedRecords, 0);
        metrics_.counter("recovery_replayed_ops")
            .add(stats.replayedOps, 0);
        metrics_.counter("recovery_indoubt_aborted")
            .add(stats.inDoubtAborted, 0);

        // Open each shard's log at a fresh generation, then compact:
        // the initial checkpoint folds everything just replayed into
        // one image and deletes the old segment files.
        wals_.reserve(shards_.size());
        walGen_.resize(shards_.size(), 0);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            wal::WalObs obs{&walAppends_, &walFsyncs_, &walBytes_,
                            &walFsyncNanos_, &recorder_,
                            static_cast<int>(s)};
            const std::uint64_t gen =
                wal::maxGeneration(options_.walDir,
                                   static_cast<int>(s)) +
                1;
            walGen_[s] = gen;
            wals_.push_back(std::make_unique<wal::ShardWal>(
                options_.walDir + "/" +
                    wal::segmentFileName(static_cast<int>(s), gen),
                options_.durability, options_.walFlushBytes, obs));
        }
        Session session = openSession();
        checkpoint(session);
        closeSession(session);
    }
}

std::size_t
KvStore::shardOf(std::uint64_t key) const
{
    return static_cast<std::size_t>(routeMix(key) % shards_.size());
}

KvStore::~KvStore()
{
    flushWal(); // final barrier: nothing acknowledged stays buffered
    for (auto *list : {&graveyard_, &ctxPool_}) {
        while (*list)
            *list = std::move((*list)->next);
    }
}

KvStore::Session::~Session()
{
    if (!store_)
        return;
    // Same teardown as closeSession, so stack unwinding between
    // openSession and closeSession leaks neither thread slots nor the
    // commit context (deregisterThread is adminMutex-protected).
    store_->spillOwnerLimbos(*this);
    for (std::size_t s = 0; s < arenaCaches_.size(); ++s)
        store_->shards_[s]->arena().flushCache(arenaCaches_[s]);
    for (std::size_t s = 0; s < tokens_.size(); ++s)
        store_->shards_[s]->deregisterWorker(tokens_[s]);
    if (ctx_)
        store_->retireContext(std::move(ctx_));
}

void
KvStore::retireContext(std::unique_ptr<CommitContext> ctx) noexcept
{
    std::lock_guard<std::mutex> lk(ctxMutex_);
    ctx->next = std::move(ctxPool_);
    ctxPool_ = std::move(ctx);
}

KvStore::Session
KvStore::openSession()
{
    Session session;
    session.store_ = this;
    session.tokens_.reserve(shards_.size());
    {
        // Recycle a cleanly retired commit context (every intent
        // cleared before its previous owner closed); the epoch in its
        // record keeps any stale readers of the old generation safe.
        std::lock_guard<std::mutex> lk(ctxMutex_);
        if (ctxPool_) {
            session.ctx_ = std::move(ctxPool_);
            ctxPool_ = std::move(session.ctx_->next);
        }
    }
    // Thread-slot exhaustion mid-loop is safe: ~Session gives back
    // the prefix of slots we took and parks the pooled commit
    // context (freeing it would break the never-free invariant).
    for (auto &shard : shards_)
        session.tokens_.push_back(shard->registerWorker());
    session.arenaCaches_.resize(shards_.size());
    session.ownerLimbos_.resize(shards_.size());
    return session;
}

void
KvStore::closeSession(Session &session)
{
    spillOwnerLimbos(session);
    session.ownerLimbos_.clear();
    for (std::size_t s = 0; s < session.arenaCaches_.size(); ++s)
        shards_[s]->arena().flushCache(session.arenaCaches_[s]);
    session.arenaCaches_.clear();
    for (std::size_t s = 0; s < session.tokens_.size(); ++s)
        shards_[s]->deregisterWorker(session.tokens_[s]);
    session.tokens_.clear();
    if (session.ctx_) {
        // Park for reuse, don't free: a reader transaction that
        // loaded one of this session's intent pointers may still
        // dereference it (and then fail validation on the changed,
        // epoch-tagged word); the memory must outlive it. Every
        // intent was cleared before the owning multiOp returned, so
        // the context is clean — exception-poisoned contexts never
        // get here (multiOpTwoPhaseWrite graveyards them directly).
        retireContext(std::move(session.ctx_));
    }
}

bool
KvStore::get(Session &session, std::uint64_t key, std::uint64_t *value)
{
    const std::size_t s = shardOf(key);
    bool ok = false;
    shards_[s]->poly().run(session.tokens_[s], [&](polytm::Tx &tx) {
        ok = shards_[s]->getTx(tx, key, value);
    });
    return ok;
}

bool
KvStore::getBytes(Session &session, std::uint64_t key, std::string *out)
{
    const std::size_t s = shardOf(key);
    bool ok = false;
    shards_[s]->poly().run(session.tokens_[s], [&](polytm::Tx &tx) {
        // Pin per attempt: the reader-epoch section lets the blob
        // copy-out skip the seqlock re-check, and it must never be
        // held across a gate park (the body runs post-admission).
        EpochPin pin(shards_[s]->readerEpochs(),
                     *session.tokens_[s].epochSlot);
        ok = shards_[s]->snapshotGetBytesTx(tx, key, out, ReadView{});
    });
    return ok;
}

KvResult
KvStore::put(Session &session, std::uint64_t key, std::uint64_t value,
             std::uint64_t ttl_nanos)
{
    if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
        return gate;
    const std::size_t s = shardOf(key);
    Shard &shard = *shards_[s];
    const std::uint64_t ttl =
        ttl_nanos != 0 ? ttl_nanos : options_.defaultTtlNanos;
    const std::uint64_t expiry = ttl == 0 ? 0 : nowNanos() + ttl;
    if (expiry != 0)
        shard.noteTtlUsed();
    std::vector<std::uint64_t> reclaim;
    for (;;) {
        const std::size_t cap = shard.capacity();
        bool ok = false;
        SlotImage pre;
        std::uint64_t lsn = 0;
        shard.poly().run(session.tokens_[s], [&](polytm::Tx &tx) {
            reclaim.clear(); // retried attempts restart
            ok = shard.putTx(tx, key, value, expiry, &pre, &reclaim);
            if (ok && durable())
                lsn = shard.walTicketTx(tx);
        });
        if (ok) {
            KvStatus wal_status = KvStatus::kOk;
            if (durable())
                wal_status = logSingleOp(
                    s, lsn,
                    {wal::WalOp::Kind::kPut, key, value, expiry, {}});
            retireDisplaced(session, static_cast<std::uint32_t>(s),
                            reclaim);
            shard.finishWrite(session.tokens_[s], pre);
            return wal_status;
        }
        if (!shard.tryGrow(session.tokens_[s], cap))
            return KvStatus::kNoSpace;
    }
}

KvResult
KvStore::putBytes(Session &session, std::uint64_t key, const void *data,
                  std::size_t len, std::uint64_t ttl_nanos)
{
    if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
        return gate;
    const std::size_t s = shardOf(key);
    Shard &shard = *shards_[s];
    const std::uint64_t ttl =
        ttl_nanos != 0 ? ttl_nanos : options_.defaultTtlNanos;
    const std::uint64_t expiry = ttl == 0 ? 0 : nowNanos() + ttl;
    if (expiry != 0)
        shard.noteTtlUsed();
    ValueRef ref = 0;
    try {
        ref = len <= kValueRefInlineMax
                  ? makeInlineRef(data, len)
                  : shard.arena().allocBlob(data, len,
                                            &session.arenaCaches_[s]);
    } catch (const std::bad_alloc &) {
        return KvStatus::kNoMemory; // nothing staged, nothing written
    }
    std::vector<std::uint64_t> reclaim;
    for (;;) {
        const std::size_t cap = shard.capacity();
        bool ok = false;
        SlotImage pre;
        std::uint64_t lsn = 0;
        shard.poly().run(session.tokens_[s], [&](polytm::Tx &tx) {
            reclaim.clear();
            ok = shard.putRefTx(tx, key, ref, expiry, &pre, &reclaim);
            if (ok && durable())
                lsn = shard.walTicketTx(tx);
        });
        if (ok) {
            KvStatus wal_status = KvStatus::kOk;
            if (durable()) {
                wal::WalOp op{wal::WalOp::Kind::kPutBytes, key, 0,
                              expiry, {}};
                op.bytes.assign(static_cast<const char *>(data), len);
                wal_status = logSingleOp(s, lsn, std::move(op));
            }
            retireDisplaced(session, static_cast<std::uint32_t>(s),
                            reclaim);
            shard.finishWrite(session.tokens_[s], pre);
            return wal_status;
        }
        if (!shard.tryGrow(session.tokens_[s], cap)) {
            // Never published: immediate recycle is safe.
            shard.arena().freeBlob(ref, &session.arenaCaches_[s]);
            return KvStatus::kNoSpace;
        }
    }
}

KvResult
KvStore::del(Session &session, std::uint64_t key)
{
    if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
        return gate;
    const std::size_t s = shardOf(key);
    Shard &shard = *shards_[s];
    bool ok = false;
    SlotImage pre;
    std::vector<std::uint64_t> reclaim;
    std::uint64_t lsn = 0;
    shard.poly().run(session.tokens_[s], [&](polytm::Tx &tx) {
        reclaim.clear();
        ok = shard.delTx(tx, key, &pre, &reclaim);
        if (durable())
            lsn = shard.walTicketTx(tx);
    });
    KvStatus wal_status = KvStatus::kOk;
    if (durable())
        wal_status = logSingleOp(
            s, lsn, {wal::WalOp::Kind::kDel, key, 0, 0, {}});
    // Stale readers may hold the displaced handles: retire, batched.
    retireDisplaced(session, static_cast<std::uint32_t>(s), reclaim);
    if (slotStateIsValue(pre.state)) {
        shard.noteTombstones(1);
        // Deletes are writes: they must drive maintenance too, or a
        // del-only phase would park retired blobs in limbo forever
        // (and stall an in-flight migration).
        shard.maintainTick(session.tokens_[s]);
    }
    if (wal_status != KvStatus::kOk)
        return wal_status;
    return ok ? KvStatus::kOk : KvStatus::kNotFound;
}

std::size_t
KvStore::scan(Session &session, std::uint64_t start_key,
              std::size_t limit,
              std::vector<std::pair<std::uint64_t, std::uint64_t>> *out)
{
    const std::size_t s = shardOf(start_key);
    std::size_t count = 0;
    runReadSnapshot(
        session, s, [&](polytm::Tx &tx, const ReadView &view) {
            count = shards_[s]->scanTx(tx, start_key, limit, out, view);
        });
    return count;
}

std::size_t
KvStore::scanEntries(Session &session, std::uint64_t start_key,
                     std::size_t limit,
                     std::vector<Shard::ScanEntry> *out)
{
    const std::size_t s = shardOf(start_key);
    std::size_t count = 0;
    runReadSnapshot(
        session, s, [&](polytm::Tx &tx, const ReadView &view) {
            EpochPin pin(shards_[s]->readerEpochs(),
                         *session.tokens_[s].epochSlot);
            count = shards_[s]->scanEntriesTx(tx, start_key, limit,
                                              out, view);
        });
    return count;
}

namespace {

using TaggedOp = KvStore::Session::TaggedOp;

/** Net tombstone-count effect of one committed write: a delete of a
 *  value slot mints one, an insert over a tombstone reuses one. */
std::int64_t
tombstoneEffect(KvOp::Kind kind, bool applied, const SlotImage &pre)
{
    if (kind == KvOp::Kind::kDel)
        return slotStateIsValue(pre.state) ? 1 : 0;
    if (applied && pre.state == kTombstone)
        return -1; // kPut/kPutBytes/kAdd landed on a tombstone
    return 0;
}

/**
 * Apply one shard's slice of a composite op inside a transaction
 * (batch path: per-shard semantics, fitting prefix commits).
 * `consumed_empty` counts inserts that claimed a previously kEmpty
 * slot (the grow heuristic), `tombstone_delta` the net tombstones
 * minted/reused (the compaction heuristic); `reclaim` collects
 * displaced blob handles — all restart with the attempt.
 */
/** Append `op`'s post-image to `wal_ops` (nullptr → store not durable
 *  or capture disabled for this path). kAdd logs its computed result
 *  as a plain put, so replay never re-adds. */
void
captureWalOp(std::vector<wal::WalOp> *wal_ops, const KvOp &op,
             std::uint64_t expiry, const SlotImage &post)
{
    if (wal_ops == nullptr)
        return;
    switch (op.kind) {
      case KvOp::Kind::kPut:
        if (op.ok)
            wal_ops->push_back({wal::WalOp::Kind::kPut, op.key,
                                op.value, expiry, {}});
        break;
      case KvOp::Kind::kPutBytes:
        if (op.ok)
            wal_ops->push_back({wal::WalOp::Kind::kPutBytes, op.key, 0,
                                expiry, op.bytes});
        break;
      case KvOp::Kind::kDel:
        // Always logged: a delete post-image is idempotent and a miss
        // may still have reclaimed an expired slot.
        wal_ops->push_back(
            {wal::WalOp::Kind::kDel, op.key, 0, 0, {}});
        break;
      case KvOp::Kind::kAdd:
        if (op.ok)
            wal_ops->push_back({wal::WalOp::Kind::kPut, op.key,
                                post.value, post.expiry, {}});
        break;
      default:
        break;
    }
}

void
applyOpsInTx(Shard &shard, polytm::Tx &tx, const TaggedOp *begin,
             const TaggedOp *end, bool &space_ok,
             std::size_t &consumed_empty, std::int64_t &tombstone_delta,
             std::vector<std::uint64_t> &reclaim,
             std::vector<wal::WalOp> *wal_ops)
{
    space_ok = true; // retried attempts restart the accumulation
    consumed_empty = 0;
    tombstone_delta = 0;
    reclaim.clear();
    if (wal_ops != nullptr)
        wal_ops->clear();
    for (const TaggedOp *it = begin; it != end; ++it) {
        KvOp *op = it->op;
        SlotImage pre;
        SlotImage post;
        switch (op->kind) {
          case KvOp::Kind::kGet:
            // getForUpdateTx, not getTx: batch results are documented
            // per-shard atomic, so reads resolve foreign intents the
            // way the write primitives do — a non-blocking pre-image
            // could straddle a commit flip against another read or be
            // contradicted by a fold under a later write of the same
            // key (irrevocable backends never re-run the read).
            op->ok = shard.getForUpdateTx(tx, op->key, &op->value);
            continue;
          case KvOp::Kind::kGetBytes:
            op->ok = shard.getBytesForUpdateTx(tx, op->key, &op->bytes);
            continue;
          case KvOp::Kind::kPut:
            op->ok = shard.putTx(tx, op->key, op->value, it->expiry,
                                 &pre, &reclaim);
            space_ok &= op->ok;
            break;
          case KvOp::Kind::kPutBytes:
            // op->value holds the ValueRef staged by the caller.
            op->ok = shard.putRefTx(tx, op->key, op->value, it->expiry,
                                    &pre, &reclaim);
            space_ok &= op->ok;
            break;
          case KvOp::Kind::kDel:
            op->ok = shard.delTx(tx, op->key, &pre, &reclaim);
            break;
          case KvOp::Kind::kAdd:
            op->ok = shard.addTx(tx, op->key,
                                 static_cast<std::int64_t>(op->value),
                                 &pre, &reclaim, &post);
            space_ok &= op->ok;
            break;
        }
        if (op->ok && pre.state == kEmpty)
            ++consumed_empty;
        tombstone_delta += tombstoneEffect(op->kind, op->ok, pre);
        captureWalOp(wal_ops, *op, it->expiry, post);
    }
}

/**
 * Writing single-shard multiOp with all-or-nothing semantics: like
 * applyOpsInTx but records a pre-image per write into the
 * compensation log and raises TableFullError instead of committing a
 * shard-local prefix. On an irrevocable backend (HTM fallback holder)
 * the writes already hit memory and rollback() cannot undo them, so
 * the failing attempt's effects are reverted from the log, in place,
 * before the throw.
 */
void
applyOpsUndoTx(Shard &shard, polytm::Tx &tx, const TaggedOp *begin,
               const TaggedOp *end,
               std::vector<KvStore::Session::Undo> &undo,
               std::int64_t &tombstone_delta,
               std::vector<std::uint64_t> &reclaim,
               std::vector<wal::WalOp> *wal_ops)
{
    undo.clear(); // retried attempts restart the log
    if (wal_ops != nullptr)
        wal_ops->clear();
    tombstone_delta = 0;
    reclaim.clear();
    const auto fail_full = [&]() {
        if (!tx.revocable()) {
            // Restore the logged pre-images, newest first.
            for (std::size_t k = undo.size(); k-- > 0;)
                shard.restoreTx(tx, undo[k].key, undo[k].pre);
        }
        throw TableFullError{};
    };
    for (const TaggedOp *it = begin; it != end; ++it) {
        KvOp *op = it->op;
        if (op->kind == KvOp::Kind::kGet) {
            // Writing-composite reads resolve foreign intents like
            // writers (see Shard::prepareGetTx): a non-blocking
            // pre-image here could be contradicted by a fold under a
            // later write of the same key on an irrevocable backend.
            op->ok = shard.getForUpdateTx(tx, op->key, &op->value);
            continue;
        }
        if (op->kind == KvOp::Kind::kGetBytes) {
            op->ok = shard.getBytesForUpdateTx(tx, op->key, &op->bytes);
            continue;
        }
        // The write primitives report the displaced pre-image from
        // their own (intent-resolving) probe walk — taken after any
        // foreign intent is folded, so an abort-time restore never
        // erases a foreign commit's write. A failed put/add wrote
        // nothing, so nothing is logged for it.
        KvStore::Session::Undo entry{op->key, SlotImage{}};
        bool wrote = true;
        SlotImage post;
        switch (op->kind) {
          case KvOp::Kind::kPut:
            op->ok = shard.putTx(tx, op->key, op->value, it->expiry,
                                 &entry.pre, &reclaim);
            wrote = op->ok;
            break;
          case KvOp::Kind::kPutBytes:
            op->ok = shard.putRefTx(tx, op->key, op->value, it->expiry,
                                    &entry.pre, &reclaim);
            wrote = op->ok;
            break;
          case KvOp::Kind::kDel:
            op->ok = shard.delTx(tx, op->key, &entry.pre, &reclaim);
            // Even a miss may have reclaimed an expired slot.
            wrote = entry.pre.state != kEmpty;
            break;
          case KvOp::Kind::kAdd:
            op->ok = shard.addTx(tx, op->key,
                                 static_cast<std::int64_t>(op->value),
                                 &entry.pre, &reclaim, &post);
            wrote = op->ok;
            break;
          default:
            break;
        }
        if ((op->kind == KvOp::Kind::kPut ||
             op->kind == KvOp::Kind::kPutBytes ||
             op->kind == KvOp::Kind::kAdd) &&
            !op->ok)
            fail_full();
        tombstone_delta += tombstoneEffect(op->kind, op->ok, entry.pre);
        if (wrote)
            undo.push_back(entry);
        captureWalOp(wal_ops, *op, it->expiry, post);
    }
}

/**
 * Group `ops` by home shard into the session's reusable scratch:
 * each shard index is computed exactly once, a stable sort on the
 * cached index preserves program order within one shard, the absolute
 * TTL deadline of every put is fixed once per multiOp (so retries
 * agree on it), and the contiguous slices are recorded so the
 * pin/prepare/finalize passes walk a precomputed list. Steady state
 * allocates nothing.
 */
void
groupByShard(const KvStore &store, std::uint64_t default_ttl,
             std::vector<KvOp> &ops, std::vector<TaggedOp> &scratch,
             std::vector<KvStore::Session::ShardSlice> &slices)
{
    scratch.clear();
    scratch.reserve(ops.size());
    std::uint64_t now = 0;
    for (KvOp &op : ops) {
        std::uint64_t expiry = 0;
        if (op.kind == KvOp::Kind::kPut ||
            op.kind == KvOp::Kind::kPutBytes) {
            const std::uint64_t ttl =
                op.ttlNanos != 0 ? op.ttlNanos : default_ttl;
            if (ttl != 0) {
                if (now == 0)
                    now = nowNanos();
                expiry = now + ttl;
            }
        }
        scratch.push_back(
            {static_cast<std::uint32_t>(store.shardOf(op.key)), &op,
             expiry});
    }
    std::stable_sort(scratch.begin(), scratch.end(),
                     [](const TaggedOp &a, const TaggedOp &b) {
                         return a.shard < b.shard;
                     });
    slices.clear();
    for (std::uint32_t i = 0; i < scratch.size();) {
        std::uint32_t end = i;
        while (end < scratch.size() &&
               scratch[end].shard == scratch[i].shard)
            ++end;
        slices.push_back({scratch[i].shard, i, end});
        i = end;
    }
}

/**
 * Pin the session's tokens on every touched shard for a multiOp's
 * prepare-to-finalize window: a parked thread must not strand a
 * PENDING intent, and pinning bounds gate pauses to in-flight
 * algorithm switches (paper §4.2).
 */
class PinSpan
{
  public:
    PinSpan(std::vector<std::unique_ptr<Shard>> &shards,
            std::vector<polytm::ThreadToken> &tokens,
            const std::vector<KvStore::Session::ShardSlice> &slices)
        : shards_(shards), tokens_(tokens), slices_(slices)
    {
        for (const auto &slice : slices_)
            shards_[slice.shard]->poly().setPinned(
                tokens_[slice.shard].tid, true);
    }

    ~PinSpan()
    {
        for (const auto &slice : slices_)
            shards_[slice.shard]->poly().setPinned(
                tokens_[slice.shard].tid, false);
    }

  private:
    std::vector<std::unique_ptr<Shard>> &shards_;
    std::vector<polytm::ThreadToken> &tokens_;
    const std::vector<KvStore::Session::ShardSlice> &slices_;
};

} // namespace

KvResult
KvStore::multiOp(Session &session, std::vector<KvOp> &ops)
{
    bool writes = false;
    for (const KvOp &op : ops) {
        writes |= op.kind != KvOp::Kind::kGet &&
                  op.kind != KvOp::Kind::kGetBytes;
    }
    if (writes) {
        if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
            return gate;
    }
    groupByShard(*this, options_.defaultTtlNanos, ops, session.scratch_,
                 session.slices_);
    if (session.slices_.empty())
        return KvStatus::kOk;
    session.walStatus_ = KvStatus::kOk;

    // Stage wide values up-front: blob allocation is a side effect a
    // retried prepare must not repeat, so each kPutBytes op gets its
    // ValueRef once (kept across grow-retries of the whole composite)
    // and carries it in the op's scratch value field.
    session.newBlobs_.clear();
    if (writes) {
        for (const TaggedOp &tagged : session.scratch_) {
            KvOp *op = tagged.op;
            // Any TTL-carrying write (numeric or bytes) must enable
            // the home shard's sweep.
            if (tagged.expiry != 0)
                shards_[tagged.shard]->noteTtlUsed();
            if (op->kind != KvOp::Kind::kPutBytes)
                continue;
            if (op->bytes.size() <= kValueRefInlineMax) {
                op->value =
                    makeInlineRef(op->bytes.data(), op->bytes.size());
            } else {
                try {
                    op->value =
                        shards_[tagged.shard]->arena().allocBlob(
                            op->bytes.data(), op->bytes.size(),
                            &session.arenaCaches_[tagged.shard]);
                } catch (const std::bad_alloc &) {
                    // Nothing ran yet; recycle what was staged so far.
                    releaseStagedBlobs(session, false);
                    return KvStatus::kNoMemory;
                }
                session.newBlobs_.emplace_back(tagged.shard, op->value);
            }
        }
    }

    OpStatus status = OpStatus::kDone;
    for (;;) {
        // Single-shard fast path: one TM transaction is already atomic.
        if (session.slices_.size() == 1) {
            status = multiOpSingleShard(session, writes);
        } else if (writes) {
            status = multiOpTwoPhaseWrite(session);
        } else {
            multiOpTwoPhaseRead(session);
            status = OpStatus::kDone;
        }
        if (status != OpStatus::kRetryAfterGrow)
            break;
    }

    const bool ok = status == OpStatus::kDone;
    if (writes) {
        releaseStagedBlobs(session, ok);
        if (ok) {
            freeReclaimed(session);
            for (const auto &slice : session.slices_) {
                shards_[slice.shard]->maintainTick(
                    session.tokens_[slice.shard]);
            }
        } else {
            session.reclaim_.clear(); // pre-images stayed live
        }
    }
    if (!ok) {
        // A WAL failure aborts the composite before it becomes
        // visible (kFailed from the 2PC prepare round); otherwise the
        // failure was capacity.
        return session.walStatus_ != KvStatus::kOk ? session.walStatus_
                                                   : KvStatus::kNoSpace;
    }
    // Committed in memory; a non-kOk walStatus_ means the commit is
    // NOT acknowledged durable (see KvStatus::kWalError).
    return session.walStatus_;
}

void
KvStore::releaseStagedBlobs(Session &session, bool committed)
{
    if (!committed) {
        // Never reachable through a committed slot word (the record
        // aborted before anything became visible, and resolvers only
        // dereference a post-image handle under a COMMITTED verdict):
        // immediate recycle into the session magazine is safe.
        for (const auto &[shard, ref] : session.newBlobs_) {
            shards_[shard]->arena().freeBlob(
                ref, &session.arenaCaches_[shard]);
        }
    }
    session.newBlobs_.clear();
}

void
KvStore::freeReclaimed(Session &session)
{
    // Displaced pre-images WERE committed-visible: a pinned reader
    // may still be copying them, so they retire through the reader
    // epochs instead of recycling immediately — but into the
    // session's OWN limbo, which it drains itself (no shared lock on
    // the displace-churn path; see ValueArena::OwnerLimbo).
    for (const auto &[shard, ref] : session.reclaim_) {
        Shard &owner = *shards_[shard];
        owner.arena().retireOwned(ref, session.ownerLimbos_[shard],
                                  owner.readerEpochs(),
                                  &session.arenaCaches_[shard]);
    }
    session.reclaim_.clear();
}

void
KvStore::retireDisplaced(Session &session, std::uint32_t shard,
                         const std::vector<std::uint64_t> &refs)
{
    Shard &owner = *shards_[shard];
    for (const std::uint64_t ref : refs) {
        owner.arena().retireOwned(ref, session.ownerLimbos_[shard],
                                  owner.readerEpochs(),
                                  &session.arenaCaches_[shard]);
    }
}

void
KvStore::spillOwnerLimbos(Session &session)
{
    for (std::size_t s = 0; s < session.ownerLimbos_.size(); ++s)
        shards_[s]->arena().spillOwned(session.ownerLimbos_[s]);
}

KvStore::OpStatus
KvStore::multiOpSingleShard(Session &session, bool writes)
{
    const auto &grouped = session.scratch_;
    const auto &slice = session.slices_[0];
    Shard &shard = *shards_[slice.shard];
    if (writes) {
        // One TM transaction is atomic to every observer on this
        // shard — no intents or compensation across shards needed.
        // Table-full throws out of the (rolled-back or self-reverted)
        // transaction for all-or-nothing, after which the shard grows
        // and the caller retries. The shard sequence is bumped BEFORE
        // the transaction so a snapshot round can never pair this
        // commit's post-image with another shard's pre-image and
        // still validate (bumping after the commit would reopen the
        // straddle window; a bump for an aborted attempt only costs
        // readers a spurious retry). The pin keeps a PENDING-free
        // transaction from parking mid-composite.
        PinSpan pin(shards_, session.tokens_, session.slices_);
        const std::size_t cap = shard.capacity();
        session.reclaim_.clear();
        std::vector<std::uint64_t> reclaim;
        std::int64_t tomb_delta = 0;
        std::uint64_t lsn = 0;
        session.walOps_.clear();
        try {
            shardSeqs_[slice.shard].value.fetch_add(
                1, std::memory_order_acq_rel);
            shard.poly().run(
                session.tokens_[slice.shard], [&](polytm::Tx &tx) {
                    applyOpsUndoTx(shard, tx,
                                   grouped.data() + slice.begin,
                                   grouped.data() + slice.end,
                                   session.undo_, tomb_delta, reclaim,
                                   durable() ? &session.walOps_
                                             : nullptr);
                    if (durable())
                        lsn = shard.walTicketTx(tx);
                });
        } catch (const TableFullError &) {
            return shard.tryGrow(session.tokens_[slice.shard], cap)
                       ? OpStatus::kRetryAfterGrow
                       : OpStatus::kFailed;
        }
        if (durable() && !session.walOps_.empty()) {
            wal::Record rec;
            rec.type = wal::RecordType::kBatch;
            rec.lsn = lsn;
            rec.ops = std::move(session.walOps_);
            const wal::AppendResult res =
                wals_[slice.shard]->appendAndBarrier(rec);
            session.walOps_.clear();
            // Memory already committed (single TM transaction): the
            // op completes un-acked; the ladder decides store health.
            if (res.err != wal::WalError::kOk)
                session.walStatus_ =
                    committedBatchWalError(slice.shard, rec, res);
        }
        std::size_t consumed = 0;
        for (const Session::Undo &entry : session.undo_)
            consumed += entry.pre.state == kEmpty ? 1 : 0;
        if (consumed > 0)
            shard.noteConsumed(consumed);
        if (tomb_delta != 0)
            shard.noteTombstones(tomb_delta);
        for (const std::uint64_t ref : reclaim)
            session.reclaim_.emplace_back(slice.shard, ref);
        return OpStatus::kDone;
    }
    // Read-only: one snapshot-epoch round. The TM transaction is
    // per-shard consistent on its own; the sampled read timestamp
    // resolves in-flight cross-shard intents deterministically and
    // the trailing sequence check repeats the round only when a
    // commit actually flipped on this shard inside it.
    runReadSnapshot(
        session, slice.shard,
        [&](polytm::Tx &tx, const ReadView &view) {
            EpochPin epoch_pin(shard.readerEpochs(),
                               *session.tokens_[slice.shard].epochSlot);
            for (std::uint32_t i = slice.begin; i < slice.end; ++i) {
                KvOp *op = grouped[i].op;
                if (op->kind == KvOp::Kind::kGetBytes) {
                    op->ok = shard.snapshotGetBytesTx(
                        tx, op->key, &op->bytes, view);
                } else {
                    op->ok = shard.snapshotGetTx(tx, op->key,
                                                 &op->value, view);
                }
            }
        });
    return OpStatus::kDone;
}

void
KvStore::multiOpTwoPhaseRead(Session &session)
{
    const auto &grouped = session.scratch_;
    const auto &slices = session.slices_;
    // Snapshot-epoch read: sample every touched shard's sequence,
    // then the store-wide commit sequence (in that order — the proof
    // below leans on it), and run each shard's reads as one TM
    // transaction resolving in-flight intents against the sampled
    // timestamp. The round is trustworthy iff no touched shard's
    // sequence advanced inside it:
    //  - a commit whose per-shard bump the round *straddled* (bump
    //    before our sample) reserved and published its record
    //    sequence before that bump, so our snapshot G >= its C — the
    //    resolver includes it deterministically (waiting out the
    //    few-store flip window if it races the round);
    //  - a commit whose bump came after our samples is excluded by
    //    the resolver (its C is provably > G or unpublished), and if
    //    it flips mid-round — the only case a torn pre/post mix or a
    //    raw folded post-image could be observed — the trailing check
    //    fails and the round repeats.
    // Commits touching only other shards never force a retry, and a
    // write-free workload settles every round first try. Single-key
    // writers are not serialized against (contract in kvstore.hpp).
    const auto run_round = [&]() -> bool {
        session.seqSnapshot_.clear();
        for (const auto &slice : slices) {
            session.seqSnapshot_.push_back(
                shardSeqs_[slice.shard].value.load(
                    std::memory_order_acquire));
        }
        const ReadView view{
            ReadView::Mode::kSnapshot,
            commitSeq_.load(std::memory_order_acquire)};
        for (const auto &slice : slices) {
            Shard &shard = *shards_[slice.shard];
            shard.poly().run(
                session.tokens_[slice.shard], [&](polytm::Tx &tx) {
                    EpochPin pin(
                        shard.readerEpochs(),
                        *session.tokens_[slice.shard].epochSlot);
                    for (std::uint32_t i = slice.begin; i < slice.end;
                         ++i) {
                        KvOp *op = grouped[i].op;
                        if (op->kind == KvOp::Kind::kGetBytes) {
                            op->ok = shard.snapshotGetBytesTx(
                                tx, op->key, &op->bytes, view);
                        } else {
                            op->ok = shard.snapshotGetTx(
                                tx, op->key, &op->value, view);
                        }
                    }
                });
        }
        bool stable = true;
        for (std::size_t j = 0; stable && j < slices.size(); ++j) {
            stable = shardSeqs_[slices[j].shard].value.load(
                         std::memory_order_acquire) ==
                     session.seqSnapshot_[j];
        }
        // Attributed to the round's first touched shard so concurrent
        // readers of disjoint shards never serialize on one stripe.
        snapRounds_.add(1, slices[0].shard);
        return stable;
    };

    for (int round = 0;; ++round) {
        if (run_round())
            return;
        snapRetries_.add(1, slices[0].shard);
        recorder_.record(obs::TraceKind::kSnapshotRetry,
                         static_cast<std::int32_t>(slices[0].shard),
                         commitSequence(),
                         static_cast<std::uint64_t>(round),
                         slices.size());
        snapshotRetryPause(round);
    }
}

void
KvStore::snapshotRetryPause(int round)
{
    if (round < kSnapshotBackoffRounds) {
        std::this_thread::yield();
        return;
    }
    // A commit storm is landing on exactly the touched shards faster
    // than rounds complete. Back off exponentially (capped) so the
    // reader stops burning the very cycles the storm needs to drain;
    // each doubling makes a repeat collision geometrically unlikely.
    if (round == kSnapshotBackoffRounds) {
        snapEscalations_.add(1);
        recorder_.record(obs::TraceKind::kSnapshotEscalate, -1,
                         commitSequence(),
                         static_cast<std::uint64_t>(round));
    }
    const int shift = round - kSnapshotBackoffRounds;
    const std::int64_t micros = std::int64_t{1}
                                << (shift < 10 ? shift : 10);
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

KvStore::OpStatus
KvStore::multiOpTwoPhaseWrite(Session &session)
{
    const auto &grouped = session.scratch_;
    const auto &slices = session.slices_;
    if (!session.ctx_)
        session.ctx_ = std::make_unique<CommitContext>();
    CommitContext &ctx = *session.ctx_;

    PinSpan pin(shards_, session.tokens_, slices);

    // Re-arm the session's commit record under the next epoch. Legal:
    // every intent of the previous multiOp was cleared before it
    // returned, so no live intent word reaches this record any more —
    // and a stale resolver that still holds one sees an epoch-tagged
    // word that no longer matches the status, so it can never apply
    // this generation's verdict to the old generation's payload.
    const std::uint64_t armed =
        ((CommitRecord::epochOf(ctx.record.status.load(
              std::memory_order_relaxed)) +
          1)
         << 2) |
        CommitRecord::kPending;
    ctx.record.status.store(armed, std::memory_order_release);
    ctx.arena.reset();
    session.intents_.clear();
    session.intentRanges_.clear();
    session.reclaim_.clear();
    session.walOps_.clear();
    session.walOpRanges_.clear();
    session.walLsns_.clear();
    std::uint64_t wal_txid = 0;

    try {
        bool full = false;
        bool wal_abort = false;
        std::uint32_t full_shard = 0;
        std::size_t full_capacity = 0;
        std::size_t prepared = 0;
        std::uint64_t reserved_seq = 0;
        {
            // Phase 1: prepare, in ascending shard order. A
            // conflicting preparer only ever waits on lower-numbered
            // shards' pending intents it meets while preparing a
            // higher one — wait chains strictly ascend, so they
            // cannot cycle. Snapshot readers order themselves against
            // this window through the record's commit sequence alone.
            std::vector<std::uint64_t> slice_reclaim;
            for (const auto &slice : slices) {
                Shard &shard = *shards_[slice.shard];
                const std::size_t cap = shard.capacity();
                const std::size_t arena_mark = ctx.arena.mark();
                const auto intents_mark = static_cast<std::uint32_t>(
                    session.intents_.size());
                const auto wal_mark = static_cast<std::uint32_t>(
                    session.walOps_.size());
                std::uint64_t slice_lsn = 0;
                try {
                    shard.poly().run(
                        session.tokens_[slice.shard],
                        [&](polytm::Tx &tx) {
                            // Retried attempts restart this shard's
                            // intent allocation and reclaim captures.
                            ctx.arena.rewindTo(arena_mark);
                            session.intents_.resize(intents_mark);
                            session.walOps_.resize(wal_mark);
                            slice_reclaim.clear();
                            // On an irrevocable backend the prepare's
                            // writes are already in place and
                            // rollback() cannot undo them — discard
                            // this attempt's published intents by
                            // hand before raising.
                            const auto fail_full = [&]() {
                                if (!tx.revocable()) {
                                    for (std::size_t k =
                                             session.intents_.size();
                                         k-- > intents_mark;) {
                                        shard.abortIntentTx(
                                            tx, session.intents_[k]);
                                    }
                                }
                                throw TableFullError{};
                            };
                            std::vector<wal::WalOp> *wal_ops =
                                durable() ? &session.walOps_ : nullptr;
                            for (std::uint32_t i = slice.begin;
                                 i < slice.end; ++i) {
                                KvOp *op = grouped[i].op;
                                SlotImage post;
                                switch (op->kind) {
                                  case KvOp::Kind::kGet:
                                    op->ok = shard.prepareGetTx(
                                        tx, &ctx.record, op->key,
                                        &op->value);
                                    break;
                                  case KvOp::Kind::kGetBytes:
                                    op->ok = shard.prepareGetBytesTx(
                                        tx, &ctx.record, op->key,
                                        &op->bytes);
                                    break;
                                  case KvOp::Kind::kPut:
                                    if (!shard.preparePutTx(
                                            tx, &ctx.record, ctx.arena,
                                            session.intents_, op->key,
                                            kFull, op->value,
                                            grouped[i].expiry, &op->ok,
                                            &slice_reclaim))
                                        fail_full();
                                    break;
                                  case KvOp::Kind::kPutBytes:
                                    if (!shard.preparePutTx(
                                            tx, &ctx.record, ctx.arena,
                                            session.intents_, op->key,
                                            kFullRef, op->value,
                                            grouped[i].expiry, &op->ok,
                                            &slice_reclaim))
                                        fail_full();
                                    break;
                                  case KvOp::Kind::kDel:
                                    shard.prepareDelTx(
                                        tx, &ctx.record, ctx.arena,
                                        session.intents_, op->key,
                                        &op->ok, &slice_reclaim);
                                    break;
                                  case KvOp::Kind::kAdd:
                                    if (!shard.prepareAddTx(
                                            tx, &ctx.record, ctx.arena,
                                            session.intents_, op->key,
                                            static_cast<std::int64_t>(
                                                op->value),
                                            &op->ok, &slice_reclaim,
                                            &post))
                                        fail_full();
                                    break;
                                }
                                captureWalOp(wal_ops, *op,
                                             grouped[i].expiry, post);
                            }
                            if (durable())
                                slice_lsn = shard.walTicketTx(tx);
                        });
                } catch (const TableFullError &) {
                    full = true;
                    full_shard = slice.shard;
                    full_capacity = cap;
                }
                if (full)
                    break;
                session.intentRanges_.emplace_back(
                    intents_mark, static_cast<std::uint32_t>(
                                      session.intents_.size()));
                session.walOpRanges_.emplace_back(
                    wal_mark, static_cast<std::uint32_t>(
                                  session.walOps_.size()));
                session.walLsns_.push_back(slice_lsn);
                for (const std::uint64_t ref : slice_reclaim)
                    session.reclaim_.emplace_back(slice.shard, ref);
                ++prepared;
            }

            // Durable-before-visible, round (a): every participant's
            // prepare record (its post-images) must be durable on its
            // own log BEFORE any outcome is appended anywhere —
            // without this, a buffer spill could leak a commit
            // outcome to disk while a peer's prepare was still
            // buffered, and a kill-9 would recover half the
            // transaction. A failed append or barrier here aborts the
            // whole composite: no outcome record exists on any shard
            // yet, so recovery resolves the orphaned prepares as
            // ABORT — unwinding the in-memory intents keeps the live
            // store and the recovered store identical.
            std::uint32_t werr_shard = 0;
            wal::WalError werr = wal::WalError::kOk;
            if (!full && durable()) {
                wal_txid = walTxnId_.fetch_add(
                               1, std::memory_order_relaxed) +
                           1;
                std::vector<std::uint64_t> prep_ends(slices.size());
                for (std::size_t j = 0; j < slices.size(); ++j) {
                    wal::Record prep;
                    prep.type = wal::RecordType::kTxnPrepare;
                    prep.txid = wal_txid;
                    prep.lsn = session.walLsns_[j];
                    const auto range = session.walOpRanges_[j];
                    prep.ops.assign(
                        session.walOps_.begin() + range.first,
                        session.walOps_.begin() + range.second);
                    const wal::AppendResult res =
                        wals_[slices[j].shard]->append(prep);
                    prep_ends[j] = res.end;
                    if (res.err != wal::WalError::kOk) {
                        werr = res.err;
                        werr_shard = slices[j].shard;
                        break;
                    }
                }
                for (std::size_t j = 0;
                     werr == wal::WalError::kOk && j < slices.size();
                     ++j) {
                    const wal::WalError e =
                        wals_[slices[j].shard]->barrier(prep_ends[j]);
                    if (e != wal::WalError::kOk) {
                        werr = e;
                        werr_shard = slices[j].shard;
                    }
                }
                wal_abort = werr != wal::WalError::kOk;
            }

            if (full || wal_abort) {
                // All-or-nothing: nothing committed on the failing
                // shard (its transaction rolled back), and the
                // already-prepared shards only hold invisible intents
                // — mark the record aborted and discard them.
                ctx.record.status.store((armed & ~std::uint64_t{3}) |
                                            CommitRecord::kAborted,
                                        std::memory_order_release);
                const std::uint32_t abort_shard =
                    full ? full_shard : werr_shard;
                twoPhaseAborts_.add(1, abort_shard);
                recorder_.record(obs::TraceKind::kTwoPhaseAbort,
                                 static_cast<std::int32_t>(abort_shard),
                                 commitSequence(), full_capacity,
                                 prepared);
                for (std::size_t j = 0; j < prepared; ++j) {
                    Shard &shard = *shards_[slices[j].shard];
                    const auto range = session.intentRanges_[j];
                    shard.poly().run(
                        session.tokens_[slices[j].shard],
                        [&](polytm::Tx &tx) {
                            for (std::uint32_t k = range.first;
                                 k < range.second; ++k)
                                shard.abortIntentTx(
                                    tx, session.intents_[k]);
                        });
                }
                if (wal_abort) {
                    // Best-effort abort outcome on every participant
                    // (recovery would abort the in-doubt prepares
                    // anyway; this just spares it the doubt). Only
                    // then consult the ladder — the record is already
                    // resolved, so the rescue rotation can never
                    // deadlock against a checkpoint walking over this
                    // transaction's intents.
                    wal::Record outcome;
                    outcome.type = wal::RecordType::kTxnOutcome;
                    outcome.txid = wal_txid;
                    outcome.committed = false;
                    for (const auto &slice : slices)
                        wals_[slice.shard]->appendAndBarrier(outcome);
                    session.walStatus_ = onWalError(werr_shard, werr);
                }
            } else {
                // Phase 2: the commit point, in snapshot-epoch order:
                //  (1) reserve the store-wide sequence C and stamp it
                //      (epoch-tagged) into the record — from here on
                //      any reader whose snapshot G >= C can see that
                //      this commit belongs inside its snapshot and
                //      waits out the flip below;
                //  (2) bump every touched shard's sequence — a
                //      snapshot round sampling a bump therefore
                //      *also* sees the published C (store order), so
                //      straddling rounds classify this commit
                //      deterministically instead of retrying;
                //  (3) flip the record: one store makes every
                //      intent's post-image the live value on all
                //      shards at once. Bumps before flip: a round
                //      that could observe any post-image without
                //      having seen C fails its trailing check.
                recorder_.record(
                    obs::TraceKind::kTwoPhasePrepare, -1,
                    commitSequence(), slices.size(),
                    session.intents_.size());
                // Durable-before-visible, round (b): the commit
                // outcome reaches EVERY participant's log and its
                // barrier before the record is stamped or flipped, so
                // no reader observes a commit recovery could lose.
                // Recovery may therefore trust any single durable
                // outcome: round (a) above guaranteed all prepares
                // are on disk. An outcome append/barrier failure does
                // NOT abort: the outcome may already be durable on a
                // sibling shard, and aborting in memory while
                // recovery would commit diverges with data loss —
                // instead the commit flips as usual and the composite
                // returns un-acked (kWalError: the effect may or may
                // not survive recovery, which the ack contract
                // permits for un-acknowledged operations).
                const std::uint64_t commit_seq =
                    commitSeq_.fetch_add(1, std::memory_order_acq_rel) +
                    1;
                recorder_.record(obs::TraceKind::kTwoPhaseReserve, -1,
                                 commit_seq, slices.size());
                if (durable()) {
                    wal::Record outcome;
                    outcome.type = wal::RecordType::kTxnOutcome;
                    outcome.txid = wal_txid;
                    outcome.commitSeq = commit_seq;
                    outcome.committed = true;
                    session.walLsns_.clear(); // reuse as end offsets
                    for (const auto &slice : slices) {
                        const wal::AppendResult res =
                            wals_[slice.shard]->append(outcome);
                        session.walLsns_.push_back(res.end);
                        if (res.err != wal::WalError::kOk &&
                            werr == wal::WalError::kOk) {
                            werr = res.err;
                            werr_shard = slice.shard;
                        }
                    }
                    for (std::size_t j = 0; j < slices.size(); ++j) {
                        const wal::WalError e =
                            wals_[slices[j].shard]->barrier(
                                session.walLsns_[j]);
                        if (e != wal::WalError::kOk &&
                            werr == wal::WalError::kOk) {
                            werr = e;
                            werr_shard = slices[j].shard;
                        }
                    }
                }
                ctx.record.commitSeq.store(
                    CommitRecord::packSeq(commit_seq,
                                          CommitRecord::epochOf(armed)),
                    std::memory_order_release);
                for (const auto &slice : slices)
                    shardSeqs_[slice.shard].value.fetch_add(
                        1, std::memory_order_acq_rel);
                ctx.record.status.store((armed & ~std::uint64_t{3}) |
                                            CommitRecord::kCommitted,
                                        std::memory_order_release);
                recorder_.record(obs::TraceKind::kTwoPhaseFlip, -1,
                                 commit_seq, slices.size(),
                                 session.intents_.size());
                // Ladder only after the flip: the record is resolved,
                // so a rescue rotation cannot deadlock against a
                // checkpoint waiting on this transaction's intents.
                if (werr != wal::WalError::kOk) {
                    session.walStatus_ = onWalError(werr_shard, werr);
                    // A rescued shard restarts on a fresh generation
                    // with no copy of this verdict, and the abandoned
                    // segment's copy is of indeterminate durability.
                    // Re-append it wherever the log still accepts
                    // writes (duplicates are harmless — recovery
                    // resolves outcomes by txid) so losing the
                    // poisoned bytes cannot orphan a sibling shard's
                    // durable prepare into an in-doubt abort.
                    wal::Record outcome;
                    outcome.type = wal::RecordType::kTxnOutcome;
                    outcome.txid = wal_txid;
                    outcome.commitSeq = commit_seq;
                    outcome.committed = true;
                    for (const auto &slice : slices)
                        if (wals_[slice.shard]->status() ==
                            wal::WalError::kOk)
                            (void)wals_[slice.shard]->append(outcome);
                }
                reserved_seq = commit_seq;
            }
        } // the PENDING window is over

        if (full) {
            session.reclaim_.clear(); // pre-images stayed live
            Shard &shard = *shards_[full_shard];
            return shard.tryGrow(session.tokens_[full_shard],
                                 full_capacity)
                       ? OpStatus::kRetryAfterGrow
                       : OpStatus::kFailed;
        }
        if (wal_abort) {
            // Aborted before visibility; the caller reports the
            // session's walStatus_ (never retried — the log, not the
            // table, refused).
            session.reclaim_.clear(); // pre-images stayed live
            return OpStatus::kFailed;
        }

        // Phase 3: finalize — fold intents into the slot words so the
        // record can be re-armed. Observers that get there first help,
        // so each fold is conditional on the intent still standing.
        for (std::size_t j = 0; j < slices.size(); ++j) {
            Shard &shard = *shards_[slices[j].shard];
            const auto range = session.intentRanges_[j];
            std::size_t consumed = 0;
            std::int64_t tomb_delta = 0;
            shard.poly().run(
                session.tokens_[slices[j].shard], [&](polytm::Tx &tx) {
                    consumed = 0; // retried attempts restart
                    tomb_delta = 0;
                    for (std::uint32_t k = range.first;
                         k < range.second; ++k) {
                        consumed += shard.finalizeIntentTx(
                                        tx, session.intents_[k],
                                        &tomb_delta)
                                        ? 1
                                        : 0;
                    }
                });
            if (consumed > 0)
                shard.noteConsumed(consumed);
            if (tomb_delta != 0)
                shard.noteTombstones(tomb_delta);
        }
        twoPhaseCommits_.add(1, slices[0].shard);
        recorder_.record(obs::TraceKind::kTwoPhaseFinalize, -1,
                         reserved_seq, session.intents_.size());
        return OpStatus::kDone;
    } catch (...) {
        // Foreign exception (e.g. bad_alloc) mid-protocol. Make the
        // record's fate terminal — kAborted unless the commit point
        // already passed — and retire the context: leftover intents
        // stay resolvable (writers fold/discard them on contact,
        // readers read through) and the memory stays valid.
        std::uint64_t expected = armed;
        ctx.record.status.compare_exchange_strong(
            expected,
            (armed & ~std::uint64_t{3}) | CommitRecord::kAborted,
            std::memory_order_acq_rel);
        // Staged blobs are freed only if the commit point was never
        // reached (they are live table values otherwise).
        const bool committed =
            CommitRecord::stateOf(ctx.record.status.load(
                std::memory_order_acquire)) == CommitRecord::kCommitted;
        if (durable() && !committed && wal_txid != 0) {
            // The prepares (and possibly some commit outcomes) are in
            // the logs but the live store aborted: log an abort
            // outcome everywhere — aborts win during recovery — so a
            // later crash cannot resurrect this transaction.
            // Best-effort: this path already handles bad_alloc.
            try {
                wal::Record outcome;
                outcome.type = wal::RecordType::kTxnOutcome;
                outcome.txid = wal_txid;
                outcome.committed = false;
                for (const auto &slice : slices)
                    wals_[slice.shard]->appendAndBarrier(outcome);
            } catch (...) {
            }
        }
        releaseStagedBlobs(session, committed);
        session.reclaim_.clear();
        {
            // Intrusive push: must not allocate — this very path
            // handles bad_alloc.
            std::lock_guard<std::mutex> lk(ctxMutex_);
            session.ctx_->next = std::move(graveyard_);
            graveyard_ = std::move(session.ctx_);
        }
        throw;
    }
}

KvResult
KvStore::applyBatch(Session &session, Batch &batch)
{
    if (const KvStatus gate = admitWrite(); gate != KvStatus::kOk)
        return gate;
    groupByShard(*this, options_.defaultTtlNanos, batch.ops_,
                 session.scratch_, session.slices_);
    const auto &grouped = session.scratch_;
    session.walStatus_ = KvStatus::kOk;
    for (std::size_t idx = 0; idx < grouped.size(); ++idx) {
        const TaggedOp &tagged = grouped[idx];
        KvOp *op = tagged.op;
        if (tagged.expiry != 0)
            shards_[tagged.shard]->noteTtlUsed();
        if (op->kind != KvOp::Kind::kPutBytes)
            continue;
        if (op->bytes.size() <= kValueRefInlineMax) {
            op->value =
                makeInlineRef(op->bytes.data(), op->bytes.size());
            continue;
        }
        try {
            op->value = shards_[tagged.shard]->arena().allocBlob(
                op->bytes.data(), op->bytes.size(),
                &session.arenaCaches_[tagged.shard]);
        } catch (const std::bad_alloc &) {
            // Nothing applied yet: recycle the blobs staged before
            // the failing one and reject the whole batch.
            for (std::size_t k = 0; k < idx; ++k) {
                const TaggedOp &prev = grouped[k];
                if (prev.op->kind == KvOp::Kind::kPutBytes &&
                    prev.op->bytes.size() > kValueRefInlineMax)
                    shards_[prev.shard]->arena().freeBlob(
                        prev.op->value,
                        &session.arenaCaches_[prev.shard]);
            }
            return KvStatus::kNoMemory;
        }
    }

    bool ok = true;
    std::vector<std::uint64_t> reclaim;
    if (durable())
        session.walBatchEnds_.assign(shards_.size(), 0);
    for (const auto &slice : session.slices_) {
        Shard &shard = *shards_[slice.shard];
        bool space_ok = true;
        std::size_t consumed = 0;
        std::int64_t tomb_delta = 0;
        std::uint64_t wal_end = 0;
        const auto run_ops = [&](const TaggedOp *begin,
                                 const TaggedOp *end) {
            std::uint64_t lsn = 0;
            polytm::ThreadToken &token = session.tokens_[slice.shard];
            shard.poly().run(token, [&](polytm::Tx &tx) {
                applyOpsInTx(shard, tx, begin, end, space_ok, consumed,
                             tomb_delta, reclaim,
                             durable() ? &session.walOps_ : nullptr);
                if (durable())
                    lsn = shard.walTicketTx(tx);
            });
            // Group commit: append now, ride ONE barrier per touched
            // shard at the end of its slice (the batch is the window).
            if (durable() && !session.walOps_.empty()) {
                wal::Record rec;
                rec.type = wal::RecordType::kBatch;
                rec.lsn = lsn;
                rec.ops = std::move(session.walOps_);
                const wal::AppendResult res =
                    wals_[slice.shard]->append(rec);
                wal_end = res.end;
                session.walOps_.clear();
                if (res.err != wal::WalError::kOk) {
                    const KvStatus wal_status =
                        committedBatchWalError(slice.shard, rec, res);
                    if (session.walStatus_ == KvStatus::kOk)
                        session.walStatus_ = wal_status;
                }
            }
            // This slice committed; batch-retire its displacements.
            retireDisplaced(session, slice.shard, reclaim);
            if (consumed > 0)
                shard.noteConsumed(consumed);
            if (tomb_delta != 0)
                shard.noteTombstones(tomb_delta);
        };
        std::size_t cap = shard.capacity();
        run_ops(grouped.data() + slice.begin,
                grouped.data() + slice.end);
        // Space-failed puts wrote nothing, so retrying exactly those
        // ops after a grow is per-shard exact (gets/dels/successful
        // puts are not replayed).
        while (!space_ok) {
            if (!shard.tryGrow(session.tokens_[slice.shard], cap)) {
                ok = false;
                break;
            }
            session.retryOps_.clear();
            for (std::uint32_t i = slice.begin; i < slice.end; ++i) {
                KvOp *op = grouped[i].op;
                if (!op->ok && (op->kind == KvOp::Kind::kPut ||
                                op->kind == KvOp::Kind::kPutBytes ||
                                op->kind == KvOp::Kind::kAdd))
                    session.retryOps_.push_back(grouped[i]);
            }
            cap = shard.capacity();
            run_ops(session.retryOps_.data(),
                    session.retryOps_.data() +
                        session.retryOps_.size());
        }
        // Record the slice's highest append end; the ONE barrier per
        // touched shard rides after every slice has appended, so no
        // shard's log writes interleave with another shard's fsync
        // stall (append ends are monotone — a grow-retry's second
        // append already left wal_end at the slice maximum).
        if (wal_end != 0)
            session.walBatchEnds_[slice.shard] = wal_end;
        // The batching loop doubles as the maintenance driver.
        shard.maintainTick(session.tokens_[slice.shard]);
    }
    if (durable()) {
        // Group commit across the whole batch: one barrier(maxEnd)
        // per touched shard (groupByShard emits one slice per shard,
        // so this pass is a single fsync each — the wal_test
        // fsync-coalescing case pins the count). Runs regardless of
        // `ok`: space-failed slices may still have appended records.
        for (const auto &slice : session.slices_) {
            const std::uint64_t end =
                session.walBatchEnds_[slice.shard];
            if (end != 0) {
                const wal::WalError e =
                    wals_[slice.shard]->barrier(end);
                if (e != wal::WalError::kOk &&
                    session.walStatus_ == KvStatus::kOk)
                    session.walStatus_ = onWalError(slice.shard, e);
            }
        }
    }
    if (!ok) {
        // Space-failed kPutBytes ops never published their staged
        // blob; without this sweep each capped-store failure would
        // strand the blob's arena capacity forever.
        for (const TaggedOp &tagged : grouped) {
            KvOp *op = tagged.op;
            if (op->kind == KvOp::Kind::kPutBytes && !op->ok &&
                op->bytes.size() > kValueRefInlineMax)
                shards_[tagged.shard]->arena().freeBlob(
                    op->value, &session.arenaCaches_[tagged.shard]);
        }
        return KvStatus::kNoSpace;
    }
    // The batch applied in memory; a WAL failure along the way means
    // it is NOT acknowledged durable.
    return session.walStatus_;
}

KvStatus
KvStore::logSingleOp(std::size_t s, std::uint64_t lsn, wal::WalOp op)
{
    wal::Record rec;
    rec.type = wal::RecordType::kBatch;
    rec.lsn = lsn;
    rec.ops.push_back(std::move(op));
    const wal::AppendResult res = wals_[s]->appendAndBarrier(rec);
    if (res.err == wal::WalError::kOk)
        return KvStatus::kOk;
    return committedBatchWalError(s, rec, res);
}

void
KvStore::raiseHealth(Health target, int shard)
{
    const auto want = static_cast<std::uint8_t>(target);
    std::uint8_t cur = health_.load(std::memory_order_acquire);
    while (cur < want) {
        if (health_.compare_exchange_weak(cur, want,
                                          std::memory_order_acq_rel)) {
            healthTransitions_.add(
                1, shard < 0 ? 0 : static_cast<std::size_t>(shard));
            recorder_.record(obs::TraceKind::kHealthTransition, shard,
                             commitSequence(), cur, want);
            std::fprintf(stderr,
                         "kvstore: health %s -> %s (shard %d)\n",
                         healthName(static_cast<Health>(cur)),
                         healthName(target), shard);
            return;
        }
        // cur reloaded by the failed CAS; stop if someone raised past
        // us (transitions are monotonic).
    }
}

KvStatus
KvStore::onWalError(std::size_t s, wal::WalError err)
{
    // The lock only matters for the kSyncLoss rescue (walGen_ and the
    // rotation race with checkpoints), but the path is cold and
    // taking it uniformly keeps one code shape.
    std::lock_guard<std::mutex> lk(walCkptMutex_);
    return onWalErrorLocked(s, err);
}

KvStatus
KvStore::onWalErrorLocked(std::size_t s, wal::WalError err)
{
    if (err == wal::WalError::kOk)
        return KvStatus::kOk;
    walErrors_.add(1, s);
    switch (err) {
      case wal::WalError::kNoSpace:
        // Space exhaustion loses nothing already acked: stop taking
        // writes, keep serving reads, let the operator free space and
        // restart.
        raiseHealth(Health::kDegradedReadOnly, static_cast<int>(s));
        return KvStatus::kReadOnly;
      case wal::WalError::kSyncLoss: {
        // fsyncgate: the kernel may have dropped the dirty pages, so
        // the failed range is permanently un-ackable. ONE rescue is
        // allowed: abandon the poisoned segment and continue on a
        // fresh generation (buffered-but-unwritten records carry
        // over). A second sync loss, or a failed rescue, degrades.
        if (wals_[s]->status() == wal::WalError::kOk)
            return KvStatus::kWalError; // racer already rescued
        if (wals_[s]->canRescue()) {
            const std::uint64_t gen = ++walGen_[s];
            const wal::WalError rescue = wals_[s]->rotateFresh(
                options_.walDir + "/" +
                wal::segmentFileName(static_cast<int>(s), gen));
            if (rescue == wal::WalError::kOk) {
                walRescues_.add(1, s);
                // The store stays healthy for FUTURE writes; the op
                // that hit the failure is still not acknowledged.
                return KvStatus::kWalError;
            }
        }
        raiseHealth(Health::kDegradedReadOnly, static_cast<int>(s));
        return KvStatus::kWalError;
      }
      case wal::WalError::kIo:
      default:
        // Hard I/O failure: this shard's log is gone and with it any
        // durability claim. Reads still serve from memory.
        raiseHealth(Health::kFailed, static_cast<int>(s));
        return KvStatus::kWalError;
    }
}

KvStatus
KvStore::committedBatchWalError(std::size_t s, wal::Record &rec,
                                const wal::AppendResult &res)
{
    const KvStatus status = onWalError(s, res.err);
    // res.end == 0 means the append failed fast against a sticky
    // error and the record never reached the log (a record that DID
    // enter either sits on the old fd or rides rotateFresh's buffer
    // carry-over). Its memory effects are visible regardless, so if
    // the rescue put this shard's log back in business, the batch
    // must follow it onto the fresh generation: replay sorts by LSN,
    // so a late re-append lands in its serialization slot.
    if (res.end == 0 && wals_[s]->status() == wal::WalError::kOk) {
        const wal::AppendResult retry =
            wals_[s]->appendAndBarrier(rec);
        if (retry.err != wal::WalError::kOk)
            return onWalError(s, retry.err);
    }
    return status;
}

void
KvStore::flushWal()
{
    for (auto &shard_wal : wals_)
        shard_wal->flushAll(options_.durability ==
                            Durability::kFsyncGroup);
}

bool
KvStore::checkpoint(Session &session)
{
    if (!durable())
        return true;
    // Concurrent checkpoints serialize; writers never wait on this
    // lock (the chunk walk shares the table only through the TM).
    std::lock_guard<std::mutex> lk(walCkptMutex_);
    bool ok = true;
    for (std::size_t s = 0; s < shards_.size(); ++s)
        ok &= checkpointShard(session, s);
    return ok;
}

bool
KvStore::checkpointShard(Session &session, std::size_t s)
{
    Shard &shard = *shards_[s];

    // A sticky-failed log cannot rotate; run it through the ladder
    // (which may rescue a sync loss onto a fresh generation) and skip
    // this round — the old checkpoints stay authoritative.
    if (wals_[s]->status() != wal::WalError::kOk) {
        walCkptFailures_.add(1, s);
        onWalErrorLocked(s, wals_[s]->status());
        return false;
    }

    // Retention floor: keep everything from the newest EXISTING
    // checkpoint's generation forward, so recovery can fall back to
    // the previous image (plus the segments written since it) if the
    // image written below turns out corrupt on disk.
    const std::vector<std::uint64_t> prev_ckpts =
        wal::listCheckpoints(options_.walDir, static_cast<int>(s));
    const std::uint64_t keep_gen =
        prev_ckpts.empty() ? 0 : prev_ckpts.back();
    const std::uint64_t gen = ++walGen_[s];

    // Rotate FIRST, then capture the barrier: every record in the old
    // segments then provably has lsn <= B (its ticket was drawn before
    // B's), so deleting them after the image lands loses nothing.
    // Writers racing the walk land with lsn > B — in the new segment
    // or double-captured by the image — and replay over it
    // idempotently (post-images).
    const wal::WalError rot =
        wals_[s]->rotate(options_.walDir + "/" +
                         wal::segmentFileName(static_cast<int>(s), gen));
    if (rot != wal::WalError::kOk) {
        walCkptFailures_.add(1, s);
        if (wals_[s]->status() != wal::WalError::kOk) {
            // The rotation flush poisoned the log (write/sync
            // failure): escalate through the ladder.
            onWalErrorLocked(s, wals_[s]->status());
        } else if (rot == wal::WalError::kNoSpace) {
            // New segment could not be opened for lack of space; the
            // log continues healthily on the old segment, but the
            // next append would hit the same wall.
            raiseHealth(Health::kDegradedReadOnly,
                        static_cast<int>(s));
        }
        return false;
    }
    std::uint64_t barrier = 0;
    shard.poly().run(session.tokens_[s], [&](polytm::Tx &tx) {
        barrier = shard.walTicketTx(tx);
    });
    recorder_.record(obs::TraceKind::kCkptBegin,
                     static_cast<std::int32_t>(s), commitSequence(),
                     barrier, gen);

    // Bounded transactional chunks; a table epoch change (grow /
    // compact) or an in-flight migration restarts the walk — the walk
    // needs one migration-free epoch, because migration relocates
    // keys across regions it already visited.
    std::vector<Shard::CheckpointEntry> entries;
    std::uint64_t chunks = 0;
    shard.drainMigration(session.tokens_[s]);
    Shard::CheckpointCursor cursor;
    for (;;) {
        const Shard::CkptStep step = shard.checkpointChunk(
            session.tokens_[s], &cursor, &entries,
            options_.checkpointChunkSlots);
        ++chunks;
        walCkptChunks_.add(1, s);
        if (step == Shard::CkptStep::kDone)
            break;
        if (step == Shard::CkptStep::kRestart) {
            entries.clear();
            cursor = Shard::CheckpointCursor{};
            shard.drainMigration(session.tokens_[s]);
        }
    }

    wal::CheckpointImage image;
    image.barrierLsn = barrier;
    image.entries.reserve(entries.size());
    for (Shard::CheckpointEntry &entry : entries) {
        wal::WalOp op;
        op.key = entry.key;
        op.expiry = entry.expiry;
        if (entry.isBytes) {
            op.kind = wal::WalOp::Kind::kPutBytes;
            op.bytes = std::move(entry.bytes);
        } else {
            op.kind = wal::WalOp::Kind::kPut;
            op.value = entry.value;
        }
        image.entries.push_back(std::move(op));
    }
    const wal::WalError werr = wal::writeCheckpoint(
        options_.walDir + "/" +
            wal::checkpointFileName(static_cast<int>(s), gen),
        image);
    if (werr != wal::WalError::kOk) {
        // Non-fatal: the tmp file was discarded, the previous
        // checkpoint and every segment since it still recover the
        // shard — just skip truncation. Only space exhaustion
        // escalates (the next one would fail the same way).
        walCkptFailures_.add(1, s);
        if (werr == wal::WalError::kNoSpace)
            raiseHealth(Health::kDegradedReadOnly,
                        static_cast<int>(s));
        return false;
    }
    // A sticky-failed sibling log may hold durable prepares whose
    // only surviving outcome copies live in OTHER shards' segments;
    // truncating those would orphan the prepares into in-doubt
    // aborts while the flipped effects sit in checkpoint images. A
    // shard goes sticky before any such flip can reach an image, so
    // checking here (after the scan, before deletion) is sufficient.
    bool all_logs_ok = true;
    for (const auto &shard_wal : wals_)
        if (shard_wal->status() != wal::WalError::kOk)
            all_logs_ok = false;
    if (all_logs_ok)
        wal::deleteObsolete(options_.walDir, static_cast<int>(s),
                            keep_gen);
    recorder_.record(obs::TraceKind::kCkptEnd,
                     static_cast<std::int32_t>(s), commitSequence(),
                     image.entries.size(), chunks);
    return true;
}

KvStore::SnapshotReadStats
KvStore::snapshotReadStats() const
{
    // Thin view over the registry counters (the instruments ARE the
    // stats now); kept so existing callers and tests stay source-
    // compatible.
    SnapshotReadStats out;
    out.rounds = snapRounds_.total();
    out.retries = snapRetries_.total();
    out.escalations = snapEscalations_.total();
    for (const auto &shard : shards_)
        out.pendingWaits += shard->snapshotPendingWaits();
    return out;
}

obs::TelemetrySnapshot
KvStore::telemetry() const
{
    obs::TelemetrySnapshot snap = metrics_.snapshot();
    snap.commitSeq = commitSequence();
    return snap;
}

void
KvStore::noteRetune(int shard, std::uint64_t packedConfigs,
                    std::uint64_t kpiBits)
{
    retunes_.add(1, static_cast<std::size_t>(shard));
    recorder_.record(obs::TraceKind::kRetune, shard, commitSequence(),
                     packedConfigs, kpiBits);
}

polytm::PolyStats
KvStore::totalStats() const
{
    polytm::PolyStats total;
    for (const auto &shard : shards_) {
        const polytm::PolyStats stats = shard->poly().snapshotStats();
        total.commits += stats.commits;
        total.aborts += stats.aborts;
        for (std::size_t c = 0; c < total.abortsByCause.size(); ++c)
            total.abortsByCause[c] += stats.abortsByCause[c];
    }
    return total;
}

void
KvStore::resumeAllForShutdown()
{
    for (auto &shard : shards_)
        shard->poly().resumeAllForShutdown();
}

} // namespace proteus::kvstore
