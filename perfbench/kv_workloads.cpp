/**
 * @file
 * The two kvstore workloads. Both are closed loops: kClients threads
 * each wait for one reply before issuing the next op. Writes are
 * partitioned by client, and each client keeps a shadow of the keys it
 * owns, so every read of an owned key has exactly one right answer.
 *
 *  - point-large: 80% get / 10% put / 10% del of word values, uniform
 *    over 5 M keys of which about half are live, on 4 x 2^20 slots
 *    (past the last-level cache), durability off, static TL2.
 *  - txn-wal: 72% getBytes / 18% putBytes (64-192 B) / 10% cross-shard
 *    transfers on 2^14 keys (inside the cache), buffered WAL. After the
 *    window the store is reopened from its WAL and checked again.
 */
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "kvstore/kvstore.hpp"

namespace perfbench {
namespace {

using proteus::kvstore::Durability;
using proteus::kvstore::KvOp;
using proteus::kvstore::KvResult;
using proteus::kvstore::KvStatus;
using proteus::kvstore::KvStore;
using proteus::kvstore::KvStoreOptions;

constexpr int kClients = 4;
constexpr int kSetups = 5;
/** Slot arrays of a ShardTable: state, key, value, expiry and intent
 *  words plus one control byte per slot. */
constexpr double kSlotBytes = 5 * sizeof(std::uint64_t) + 1;

enum OpClass : int
{
    kGetOp,
    kPutOp,
    kDelOp,
    kTxnOp,
    kClasses
};

constexpr SpanName kClassSpan[kClasses] = {SpanName::kGet, SpanName::kPut,
                                           SpanName::kDel, SpanName::kTxn};
constexpr const char *kClassName[kClasses] = {"get", "put", "del", "txn"};

/** True for a write the store refused (read-only, WAL error, no
 *  memory, no space); a delete of an absent key is not refused. */
bool
refused(const KvResult &r)
{
    return r.status != KvStatus::kOk && r.status != KvStatus::kNotFound;
}

/** One client's measurements; only its own thread writes them. */
struct Client
{
    /** [slice][class]: per-op time in each slice of the window. */
    std::vector<std::array<Histogram, kClasses>> hist;
    std::vector<std::uint64_t> ops;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Value bytes carried by acknowledged writes in the window. */
    std::uint64_t userBytes = 0;
    Tracer tracer;
    std::vector<std::string> errors;
};

/**
 * The measured window, cut into slices of about a second. Figures are
 * medians over slices, so a burst of outside load in one second moves
 * them little. In a traced run odd slices are traced and even ones
 * not, so both throughputs come from the same run.
 */
class Window
{
  public:
    Window(double seconds, bool trace)
        : sliceSeconds(static_cast<std::size_t>(
                           std::max(2.0, std::round(seconds))),
                       0.0),
          seconds_(seconds), trace_(trace)
    {}

    /** Measured length of each slice. */
    std::vector<double> sliceSeconds;

    std::size_t slices() const { return sliceSeconds.size(); }
    bool traced(std::size_t i) const { return trace_ && i % 2 == 1; }

    /** -1 outside the window, else the slice the current op is in. */
    int slice() const { return slice_.load(std::memory_order_relaxed); }
    bool running() const { return !stop_.load(std::memory_order_relaxed); }

    /** Warm up, measure, then stop the clients. The hooks run on the
     *  calling thread while the clients run: at the window's start, at
     *  the start of every slice, and at its end. */
    void
    run(const std::function<void()> &at_start,
        const std::function<void()> &at_slice,
        const std::function<void()> &at_end)
    {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(1.0, 0.1 * seconds_)));
        at_start();
        const auto len = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds_ /
                                          static_cast<double>(slices())));
        auto deadline = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < slices(); ++i) {
            const std::uint64_t t0 = nowNs();
            slice_.store(static_cast<int>(i));
            at_slice();
            deadline += len;
            std::this_thread::sleep_until(deadline);
            sliceSeconds[i] = secondsSince(t0);
        }
        slice_.store(-1);
        at_end();
        stop_.store(true);
    }

    /** Median over the untraced (or traced) slices of `f(slice)`. */
    template <typename F>
    double
    medianOver(bool traced_slices, F &&f) const
    {
        std::vector<double> v;
        for (std::size_t i = 0; i < slices(); ++i)
            if (traced(i) == traced_slices)
                v.push_back(f(i));
        return median(v);
    }

  private:
    const double seconds_;
    const bool trace_;
    std::atomic<int> slice_{-1};
    std::atomic<bool> stop_{false};
};

/** Time `call` as one op of class `cls` in window slice `slice`
 *  (-1: outside the window); returns its result. */
template <typename F>
auto
timedOp(const Window &w, Client &cl, int slice, OpClass cls, F &&call)
{
    const std::uint64_t t0 = nowNs();
    auto r = call();
    const std::uint64_t t1 = nowNs();
    if (slice >= 0) {
        const auto i = static_cast<std::size_t>(slice);
        cl.hist[i][cls].add(t1 - t0);
        ++cl.ops[i];
        ++cl.attempted;
        if (w.traced(i))
            cl.tracer.record(kClassSpan[cls], t0, t1);
    }
    return r;
}

/** Counter deltas over the window, read through telemetry(). */
struct Counters
{
    std::vector<std::pair<std::string, double>> v;

    static Counters
    read(const KvStore &store, Tracer &tracer, std::vector<double> &spans)
    {
        const std::uint64_t t0 = nowNs();
        const auto snap = store.telemetry();
        const std::uint64_t t1 = nowNs();
        tracer.record(SpanName::kTelemetry, t0, t1);
        spans.push_back(static_cast<double>(t1 - t0) * 1e-3);
        Counters c;
        for (const auto &s : snap.samples)
            c.v.emplace_back(s.name, static_cast<double>(s.value));
        return c;
    }

    double
    get(const std::string &name) const
    {
        for (const auto &[n, x] : v)
            if (n == name)
                return x;
        return 0;
    }
};

/** Everything both kv workloads report from one finished window. */
struct KvLedger
{
    std::vector<Client> clients;
    Window window;
    std::vector<double> setupS, preloadS, telemetryUs;
    Counters before, after;
    Tracer mainTracer;
    double peakRss = 0;
    double tableMib = 0;
    double arenaLiveMib = 0;
    double walFlushMs = 0;
    double recoverS = 0;
    double recoveryRecords = 0;
    double recoveryIndoubt = 0;

    KvLedger(const RunOptions &o)
        : clients(kClients), window(o.seconds, o.trace)
    {
        for (Client &c : clients) {
            c.hist.resize(window.slices());
            c.ops.assign(window.slices(), 0);
        }
    }

    double delta(const std::string &name) const
    {
        return after.get(name) - before.get(name);
    }
};

void
report(const KvLedger &k, const RunOptions &options, Result &r)
{
    const Window &w = k.window;
    std::vector<std::array<Histogram, kClasses>> cls(w.slices());
    std::vector<double> rate(w.slices(), 0.0);
    Tracer spans;
    std::uint64_t user_bytes = 0;
    for (const Client &c : k.clients) {
        for (std::size_t i = 0; i < w.slices(); ++i) {
            for (int j = 0; j < kClasses; ++j)
                cls[i][j].merge(c.hist[i][j]);
            rate[i] += static_cast<double>(c.ops[i]) / w.sliceSeconds[i];
        }
        r.attempted += c.attempted;
        r.failed += c.failed;
        user_bytes += c.userBytes;
        spans.merge(c.tracer);
        r.errors.insert(r.errors.end(), c.errors.begin(), c.errors.end());
    }
    // Percentiles of op classes [from, to) over the untraced slices.
    auto percentiles = [&](const std::string &prefix, int from, int to) {
        std::vector<Histogram> merged;
        for (std::size_t i = 0; i < w.slices(); ++i) {
            if (w.traced(i))
                continue;
            merged.emplace_back();
            for (int j = from; j < to; ++j)
                merged.back().merge(cls[i][j]);
        }
        addSlicePercentiles(r, prefix, merged);
    };
    const double untraced_rate =
        w.medianOver(false, [&](std::size_t i) { return rate[i]; });
    r.add("ops_per_s", untraced_rate, "1/s");
    percentiles("", kGetOp, kClasses);
    percentiles("read_", kGetOp, kPutOp);
    percentiles("write_", kPutOp, kClasses);
    r.add("setup_s", median(k.setupS), "s");
    r.add("peak_rss_mib", k.peakRss, "MiB");
    r.add("fail_frac", ratio(r.failed, r.attempted), "ratio");

    // Per-layer ledger. Window totals cover every slice.
    double window_ops = 0, window_s = 0;
    for (const Client &c : k.clients)
        for (std::uint64_t n : c.ops)
            window_ops += static_cast<double>(n);
    for (double x : w.sliceSeconds)
        window_s += x;
    const double kops = window_ops / 1000.0;
    for (int i = 0; i < kClasses; ++i) {
        const std::string p = std::string("kvstore.") + kClassName[i] + ".";
        r.add(p + "count", static_cast<double>(spans.count(kClassSpan[i])),
              "count");
        r.add(p + "busy_ms", static_cast<double>(spans.busyNs(kClassSpan[i])) *
                                 1e-6,
              "ms");
        percentiles(p, i, i + 1);
    }
    const double tp_c = k.delta("twophase_commits");
    const double tp_a = k.delta("twophase_aborts");
    r.add("kvstore.2pc_abort_ratio", ratio(tp_a, tp_c + tp_a), "ratio");
    r.add("kvstore.preload_s", median(k.preloadS), "s");
    r.add("kvstore.telemetry_us", median(k.telemetryUs), "us");

    r.add("shard.table_mib", k.tableMib, "MiB");
    r.add("shard.grows", k.delta("shard_grows"), "count");
    r.add("shard.compacts", k.delta("shard_compacts"), "count");
    r.add("shard.snapshot_retry_ratio",
          ratio(k.delta("snapshot_retries"), k.delta("snapshot_rounds")),
          "ratio");

    const double commits = k.delta("tm_commits");
    const double aborts = k.delta("tm_aborts");
    r.add("tm.tx_per_op", ratio(commits, window_ops), "ratio");
    r.add("tm.abort_ratio", ratio(aborts, commits + aborts), "ratio");
    for (const char *cause : {"conflict", "validation", "explicit"})
        r.add(std::string("tm.") + cause + "_aborts_per_kop",
              ratio(k.delta(std::string("tm_aborts_") + cause), kops),
              "1/kop");

    double puts = 0;
    for (const auto &slice : cls)
        puts += static_cast<double>(slice[kPutOp].count());
    const double allocs = k.delta("arena_allocs");
    r.add("value_arena.allocs_per_put", ratio(allocs, puts), "ratio");
    r.add("value_arena.magazine_hit_ratio",
          ratio(k.delta("arena_magazine_hits"), allocs), "ratio");
    r.add("value_arena.cas_retries_per_kop",
          ratio(k.delta("arena_cas_retries"), kops), "1/kop");
    r.add("value_arena.live_mib", k.arenaLiveMib, "MiB");

    const double wal_bytes = k.delta("wal_bytes");
    r.add("wal.appends_per_op", ratio(k.delta("wal_appends"), window_ops),
          "ratio");
    r.add("wal.bytes_per_user_byte", ratio(wal_bytes, user_bytes), "ratio");
    r.add("wal.mib_per_s", ratio(wal_bytes / kMib, window_s), "MiB/s");
    r.add("wal.flush_ms", k.walFlushMs, "ms");
    r.add("wal.errors", k.after.get("wal_errors"), "count");

    r.add("recovery.recover_s", k.recoverS, "s");
    r.add("recovery.records", k.recoveryRecords, "count");
    r.add("recovery.ns_per_record",
          ratio(k.recoverS * 1e9, k.recoveryRecords), "ns");
    r.add("recovery.indoubt_aborted", k.recoveryIndoubt, "count");

    const double traced_rate =
        w.medianOver(true, [&](std::size_t i) { return rate[i]; });
    r.add("trace.overhead_pct",
          options.trace ? 100.0 * (1.0 - ratio(traced_rate, untraced_rate))
                        : 0.0,
          "%");

    if (options.trace) {
        dumpSpans(options.spanFile, 0, k.mainTracer);
        for (int c = 0; c < kClients; ++c)
            dumpSpans(options.spanFile, c + 1, k.clients[c].tracer);
    }
}

/** Run `body(c)` on kClients threads and join them. */
void
onClients(const std::function<void(int)> &body)
{
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back(body, c);
    for (auto &t : threads)
        t.join();
}

/** Flush the file system that holds `dir`, so writes and frees left
 *  by earlier work (an earlier run's log, say) do not land in the
 *  next timed section. */
void
settleFileSystem(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

/**
 * Build a store and preload it on kClients threads, kSetups times, and
 * keep the last one. `discard(i)` runs after store i is destroyed.
 */
std::unique_ptr<KvStore>
setUp(KvLedger &k, const RunOptions &options,
      const std::function<KvStoreOptions(int)> &options_for,
      const std::function<void(KvStore &, KvStore::Session &, int)> &preload,
      const std::function<void(int)> &discard)
{
    std::unique_ptr<KvStore> store;
    for (int i = 0; i < kSetups; ++i) {
        if (store) {
            store.reset();
            discard(i - 1);
        }
        settleFileSystem(options.scratchDir);
        const std::uint64_t t0 = nowNs();
        store = std::make_unique<KvStore>(options_for(i));
        const std::uint64_t t1 = nowNs();
        onClients([&](int c) {
            KvStore::Session s = store->openSession();
            preload(*store, s, c);
            store->closeSession(s);
        });
        store->flushWal();
        const std::uint64_t t2 = nowNs();
        k.mainTracer.record(SpanName::kPreload, t1, t2);
        k.setupS.push_back(static_cast<double>(t2 - t0) * 1e-9);
        k.preloadS.push_back(static_cast<double>(t2 - t1) * 1e-9);
    }
    settleFileSystem(options.scratchDir);
    return store;
}

// ------------------------------------------------------------ point-large

constexpr std::uint64_t kPlKeys = 5'000'000;
constexpr std::uint64_t kPlOwned = kPlKeys / kClients;
constexpr std::uint64_t kAbsent = ~std::uint64_t{0};
/** Shadow entry of a key whose last write was refused: not checked. */
constexpr std::uint64_t kUnknown = kAbsent - 1;

/** Word value of version `ver` of key `k`: the key sits in the high
 *  half so any read can be checked for well-formedness. */
std::uint64_t
plValue(std::uint64_t k, std::uint64_t ver)
{
    return (k << 32) | (ver & 0xffffffffu);
}

bool
plPreloaded(std::uint64_t k, std::uint64_t seed)
{
    return (mix64(k ^ mix64(seed)) & 1) != 0;
}

} // namespace

Result
runPointLarge(const RunOptions &options)
{
    KvLedger k(options);
    auto options_for = [](int) {
        KvStoreOptions o;
        o.numShards = 4;
        o.log2SlotsPerShard = 20;
        // Capacity pinned: the table stays 4 x 2^20 slots for the
        // whole run instead of doubling mid-window.
        o.maxLog2SlotsPerShard = 20;
        o.initial = {proteus::tm::BackendKind::kTl2, 16, {}};
        return o;
    };
    auto preload = [&](KvStore &store, KvStore::Session &s, int c) {
        const std::uint64_t base = static_cast<std::uint64_t>(c) * kPlOwned;
        for (std::uint64_t key = base; key < base + kPlOwned; ++key)
            if (plPreloaded(key, options.seed))
                store.put(s, key, plValue(key, 0));
    };
    std::unique_ptr<KvStore> store =
        setUp(k, options, options_for, preload, [](int) {});
    KvStore &kv = *store;

    std::vector<std::vector<std::uint64_t>> shadow(kClients);
    for (int c = 0; c < kClients; ++c) {
        const std::uint64_t base = static_cast<std::uint64_t>(c) * kPlOwned;
        shadow[c].resize(kPlOwned);
        for (std::uint64_t i = 0; i < kPlOwned; ++i)
            shadow[c][i] = plPreloaded(base + i, options.seed)
                               ? plValue(base + i, 0)
                               : kAbsent;
    }

    auto client_loop = [&](int c) {
        Client &cl = k.clients[c];
        std::vector<std::uint64_t> &own = shadow[c];
        const std::uint64_t base = static_cast<std::uint64_t>(c) * kPlOwned;
        Gen gen(options.seed * 1000003 + static_cast<std::uint64_t>(c));
        std::uint64_t ver = 0;
        std::uint64_t bad = 0;
        KvStore::Session s = kv.openSession();
        while (k.window.running()) {
            const int slice = k.window.slice();
            const std::uint64_t draw = gen.below(10);
            if (draw < 8) {
                const std::uint64_t key = gen.below(kPlKeys);
                std::uint64_t v = 0;
                const bool found = timedOp(k.window, cl, slice, kGetOp,
                                           [&] { return kv.get(s, key, &v); });
                if (found && (v >> 32) != key)
                    ++bad;
                if (key - base < kPlOwned) {
                    const std::uint64_t want = own[key - base];
                    if (want != kUnknown && want != (found ? v : kAbsent))
                        ++bad;
                }
                continue;
            }
            const std::uint64_t i = gen.below(kPlOwned);
            const std::uint64_t key = base + i;
            if (draw == 8) {
                const std::uint64_t v = plValue(key, ++ver);
                const KvResult res = timedOp(
                    k.window, cl, slice, kPutOp, [&] { return kv.put(s, key, v); });
                if (refused(res)) {
                    cl.failed += slice >= 0;
                    own[i] = kUnknown;
                    continue;
                }
                own[i] = v;
                cl.userBytes += slice >= 0 ? sizeof v : 0;
            } else {
                const KvResult res = timedOp(k.window, cl, slice, kDelOp,
                                             [&] { return kv.del(s, key); });
                if (refused(res)) {
                    cl.failed += slice >= 0;
                    own[i] = kUnknown;
                    continue;
                }
                if ((res.status == KvStatus::kNotFound) != (own[i] == kAbsent))
                    ++bad;
                own[i] = kAbsent;
            }
        }
        // Read every owned key back against the shadow.
        std::uint64_t lost = 0;
        for (std::uint64_t j = 0; j < kPlOwned; ++j) {
            std::uint64_t v = 0;
            const bool found = kv.get(s, base + j, &v);
            if (own[j] != kUnknown && own[j] != (found ? v : kAbsent))
                ++lost;
        }
        kv.closeSession(s);
        if (bad)
            cl.errors.push_back("point-large: client " + std::to_string(c) +
                                " read " + std::to_string(bad) +
                                " wrong values in the window");
        if (lost)
            cl.errors.push_back("point-large: client " + std::to_string(c) +
                                " lost " + std::to_string(lost) +
                                " acknowledged writes");
    };

    std::thread clients([&] { onClients(client_loop); });
    k.window.run(
        [&] { k.before = Counters::read(kv, k.mainTracer, k.telemetryUs); },
        [] {},
        [&] {
            k.after = Counters::read(kv, k.mainTracer, k.telemetryUs);
            k.peakRss = peakRssMib();
        });
    clients.join();

    k.tableMib = k.after.get("store_capacity_slots") * kSlotBytes / kMib;
    k.arenaLiveMib = k.after.get("arena_bytes_live") / kMib;
    const std::uint64_t f0 = nowNs();
    kv.flushWal();
    const std::uint64_t f1 = nowNs();
    k.mainTracer.record(SpanName::kWalFlush, f0, f1);
    k.walFlushMs = static_cast<double>(f1 - f0) * 1e-6;

    Result r;
    report(k, options, r);
    return r;
}

// ---------------------------------------------------------------- txn-wal

namespace {

constexpr std::uint64_t kBlobKeys = 12288;
constexpr std::uint64_t kBlobOwned = kBlobKeys / kClients;
constexpr std::uint64_t kAccounts = 4096;
constexpr std::uint64_t kFirstAccount = kBlobKeys;
constexpr std::uint64_t kOpening = 1000;

/** Value length of version `ver` of blob key `k`: 64..192 bytes. */
std::size_t
blobLen(std::uint64_t k, std::uint64_t ver)
{
    return 64 + static_cast<std::size_t>(mix64(k * 131 + ver) % 129);
}

/** Self-describing blob: key, version, then a pattern of both. */
void
encodeBlob(std::uint64_t k, std::uint64_t ver, std::string &out)
{
    out.resize(blobLen(k, ver));
    std::memcpy(out.data(), &k, 8);
    std::memcpy(out.data() + 8, &ver, 8);
    for (std::size_t i = 16; i < out.size(); ++i)
        out[i] = static_cast<char>(k * 31 + ver * 17 + i);
}

/** Decode a blob of key `k`; returns its version or kAbsent when the
 *  bytes are not a well-formed value of that key. */
std::uint64_t
decodeBlob(std::uint64_t k, const std::string &b)
{
    if (b.size() < 16)
        return kAbsent;
    std::uint64_t key = 0, ver = 0;
    std::memcpy(&key, b.data(), 8);
    std::memcpy(&ver, b.data() + 8, 8);
    if (key != k || b.size() != blobLen(k, ver))
        return kAbsent;
    for (std::size_t i = 16; i < b.size(); ++i)
        if (b[i] != static_cast<char>(k * 31 + ver * 17 + i))
            return kAbsent;
    return ver;
}

/** Count owned blob keys whose value is not the shadowed version. */
std::uint64_t
checkBlobs(KvStore &kv, KvStore::Session &s,
           const std::vector<std::uint64_t> &own, std::uint64_t base)
{
    std::uint64_t lost = 0;
    std::string out;
    for (std::uint64_t j = 0; j < own.size(); ++j) {
        const bool found = kv.getBytes(s, base + j, &out);
        if (own[j] != kUnknown &&
            (!found || decodeBlob(base + j, out) != own[j]))
            ++lost;
    }
    return lost;
}

/** Sum of every account balance (mod 2^64: transfers conserve it). */
std::uint64_t
accountTotal(KvStore &kv, KvStore::Session &s)
{
    std::uint64_t total = 0;
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
        std::uint64_t v = 0;
        kv.get(s, kFirstAccount + a, &v);
        total += v;
    }
    return total;
}

} // namespace

Result
runTxnWal(const RunOptions &options)
{
    namespace fs = std::filesystem;
    KvLedger k(options);
    Result r;
    auto options_for = [&](int i) {
        KvStoreOptions o;
        o.numShards = 4;
        o.log2SlotsPerShard = 14;
        o.initial = {proteus::tm::BackendKind::kTl2, 16, {}};
        o.durability = Durability::kBuffered;
        o.walDir = (fs::path(options.scratchDir) / ("wal" + std::to_string(i)))
                       .string();
        return o;
    };
    auto preload = [&](KvStore &store, KvStore::Session &s, int c) {
        std::string blob;
        const std::uint64_t base = static_cast<std::uint64_t>(c) * kBlobOwned;
        for (std::uint64_t key = base; key < base + kBlobOwned; ++key) {
            encodeBlob(key, 0, blob);
            store.putBytes(s, key, blob.data(), blob.size());
        }
        for (std::uint64_t a = c; a < kAccounts; a += kClients)
            store.put(s, kFirstAccount + a, kOpening);
    };
    // Each set-up logs into its own fresh directory, dropped with it.
    std::unique_ptr<KvStore> store =
        setUp(k, options, options_for, preload,
              [&](int i) { fs::remove_all(options_for(i).walDir); });
    KvStore *kv = store.get();

    std::vector<std::vector<std::uint64_t>> shadow(
        kClients, std::vector<std::uint64_t>(kBlobOwned, 0));

    auto client_loop = [&](int c) {
        Client &cl = k.clients[c];
        std::vector<std::uint64_t> &own = shadow[c];
        const std::uint64_t base = static_cast<std::uint64_t>(c) * kBlobOwned;
        Gen gen(options.seed * 1000003 + static_cast<std::uint64_t>(c));
        std::vector<KvOp> transfer(2);
        std::string blob, out;
        std::uint64_t ver = 0, bad = 0;
        KvStore::Session s = kv->openSession();
        while (k.window.running()) {
            const int slice = k.window.slice();
            const std::uint64_t draw = gen.below(100);
            if (draw < 10) {
                const std::uint64_t a = kFirstAccount + gen.below(kAccounts);
                std::uint64_t b = a;
                while (kv->shardOf(b) == kv->shardOf(a))
                    b = kFirstAccount + gen.below(kAccounts);
                const std::uint64_t d = 1 + gen.below(100);
                transfer[0] = {KvOp::Kind::kAdd, a, ~d + 1, false};
                transfer[1] = {KvOp::Kind::kAdd, b, d, false};
                const KvResult res = timedOp(k.window, cl, slice, kTxnOp, [&] {
                    return kv->multiOp(s, transfer);
                });
                if (refused(res))
                    cl.failed += slice >= 0;
                else
                    cl.userBytes += slice >= 0 ? 2 * sizeof d : 0;
            } else if (draw < 82) {
                const std::uint64_t key = gen.below(kBlobKeys);
                const bool found = timedOp(k.window, cl, slice, kGetOp, [&] {
                    return kv->getBytes(s, key, &out);
                });
                const std::uint64_t v = found ? decodeBlob(key, out) : kAbsent;
                if (v == kAbsent || (key - base < kBlobOwned &&
                                     own[key - base] != kUnknown &&
                                     own[key - base] != v))
                    ++bad;
            } else {
                const std::uint64_t i = gen.below(kBlobOwned);
                encodeBlob(base + i, ++ver, blob);
                const KvResult res = timedOp(k.window, cl, slice, kPutOp, [&] {
                    return kv->putBytes(s, base + i, blob.data(), blob.size());
                });
                if (refused(res)) {
                    cl.failed += slice >= 0;
                    own[i] = kUnknown;
                    continue;
                }
                own[i] = ver;
                cl.userBytes += slice >= 0 ? blob.size() : 0;
            }
        }
        const std::uint64_t lost = checkBlobs(*kv, s, own, base);
        kv->closeSession(s);
        if (bad)
            cl.errors.push_back("txn-wal: client " + std::to_string(c) +
                                " read " + std::to_string(bad) +
                                " wrong values in the window");
        if (lost)
            cl.errors.push_back("txn-wal: client " + std::to_string(c) +
                                " lost " + std::to_string(lost) +
                                " acknowledged writes before recovery");
    };

    // The service checkpoints once a slice, which bounds the log that
    // recovery replays to about a slice of writes and the dirty log in
    // the page cache to about a slice too.
    KvStore::Session ckpt = kv->openSession();
    std::thread clients([&] { onClients(client_loop); });
    k.window.run(
        [&] { k.before = Counters::read(*kv, k.mainTracer, k.telemetryUs); },
        [&] { r.check(kv->checkpoint(ckpt), "txn-wal: a checkpoint failed"); },
        [&] {
            k.after = Counters::read(*kv, k.mainTracer, k.telemetryUs);
            k.peakRss = peakRssMib();
        });
    clients.join();
    kv->closeSession(ckpt);

    k.tableMib = k.after.get("store_capacity_slots") * kSlotBytes / kMib;
    k.arenaLiveMib = k.after.get("arena_bytes_live") / kMib;
    const std::uint64_t expect_total = kAccounts * kOpening;
    {
        KvStore::Session s = kv->openSession();
        r.check(accountTotal(*kv, s) == expect_total,
                "txn-wal: transfer total not conserved before recovery");
        kv->closeSession(s);
    }
    const std::uint64_t f0 = nowNs();
    kv->flushWal();
    const std::uint64_t f1 = nowNs();
    k.mainTracer.record(SpanName::kWalFlush, f0, f1);
    k.walFlushMs = static_cast<double>(f1 - f0) * 1e-6;
    store.reset();

    // Reopen the window's WAL directory: replay until serving.
    const std::uint64_t r0 = nowNs();
    store = std::make_unique<KvStore>(options_for(kSetups - 1));
    const std::uint64_t r1 = nowNs();
    k.mainTracer.record(SpanName::kRecover, r0, r1);
    k.recoverS = static_cast<double>(r1 - r0) * 1e-9;
    k.recoveryRecords =
        static_cast<double>(store->recoveryInfo().replayedRecords);
    k.recoveryIndoubt =
        static_cast<double>(store->recoveryInfo().inDoubtAborted);
    {
        KvStore::Session s = store->openSession();
        r.check(accountTotal(*store, s) == expect_total,
                "txn-wal: transfer total not conserved after recovery");
        for (int c = 0; c < kClients; ++c) {
            const std::uint64_t lost = checkBlobs(
                *store, s, shadow[c], static_cast<std::uint64_t>(c) * kBlobOwned);
            r.check(lost == 0, "txn-wal: client " + std::to_string(c) +
                                   " lost " + std::to_string(lost) +
                                   " acknowledged writes in recovery");
        }
        store->closeSession(s);
    }
    store.reset();

    report(k, options, r);
    return r;
}

} // namespace perfbench
