/**
 * bench_kvstore — ProteusKV throughput characterization.
 *
 * Series 1 (scaling): closed-loop read-heavy (YCSB-B) throughput as
 * the shard count grows 1 -> 2 -> 4 at a fixed worker count. Shards
 * are independent PolyTM universes, so routing spreads both data and
 * TM metadata contention; on a multicore host the expected shape is
 * linear-ish scaling (on a single hardware thread the series degrades
 * to constant — the harness prints the host's core count for
 * context).
 *
 * Series 2 (mixes): per-mix throughput at 4 shards across the YCSB-
 * style presets, plus the batched-put path vs single puts.
 *
 * Series 3 (mixed): the mixed scenario — 90% single-key ops / 10%
 * cross-shard writing multiOps committed through 2PC over TM. The
 * headline number is single-key throughput, which keeps flowing
 * through the cross-shard commits. Results (throughput + latency
 * percentiles) are also written to BENCH_kvstore.json so CI can track
 * the trajectory.
 *
 * Series 4 (cache preset, --cache): the kCache mix — Zipf-skewed gets,
 * ~128 B blob values, 50 ms TTL churn — on a small store that starts
 * at 2^10 slots per shard and must grow online under the load. The
 * headline numbers are throughput, the get hit rate (TTL eviction
 * makes it settle well below 1) and how many online resizes the run
 * triggered; all of it lands in BENCH_kvstore.json too.
 *
 * Series 5 (read path, --read-heavy): (a) a 95/5 Zipf mix over ~128 B
 * byte values — the snapshot-epoch read path's home turf (pinned blob
 * copies, magazine-backed putBytes) — reporting throughput and
 * latency percentiles plus the arena contention counters; (b) a
 * write-free phase of read-only multiOps and scans on the same store,
 * asserting the validation-free guarantee: the snapshot counters must
 * show ZERO retries and ZERO escalations, or the bench exits nonzero
 * (the CI gate for the read path). Both land in BENCH_kvstore.json
 * next to the pre-snapshot-epoch reference baseline so the
 * trajectory is tracked in-repo. The series also (c) A/Bs the same
 * mix with KvStoreOptions::telemetry on vs off (three interleaved
 * pairs) and records the flight-recorder overhead as
 * obs_overhead_pct — above 3% the bench exits nonzero — and (d)
 * dumps the instrumented store's full telemetry() in Prometheus text
 * format to BENCH_kvstore.prom for the CI artifact.
 *
 * Series 6 (durability A/B, --durability): the mixed 90/10 scenario
 * under 2PC run three times — durability off, buffered WAL (ack after
 * the page-cache write), and group-commit fsync — on a scratch WAL
 * directory. Reports the single-key throughput cost of each mode
 * (wal_overhead_*_pct), the WAL volume the measured window produced,
 * and the fsync latency percentiles straight from the store's
 * wal_fsync_nanos histogram; all of it lands in BENCH_kvstore.json.
 *
 * Series 7 (thread scaling, --threads): the read-heavy and mixed
 * presets swept across 1/2/4/8 worker threads at 4 shards, reporting
 * throughput + p99 per point. This is the series that makes multicore
 * claims honest: every other number here is taken at a fixed worker
 * count, and on a 1-hardware-thread host the sweep degrades to flat —
 * the JSON always records hardware_threads next to the series so CI
 * (on a multicore runner) and a laptop reading the artifact can tell
 * the difference. The 4-vs-1-thread read-heavy comparison is the CI
 * scaling gate (checked by the workflow from the JSON, not by the
 * bench itself, so single-core dev runs don't fail spuriously).
 *
 * Usage: bench_kvstore [seconds-per-point] [--mixed-only] [--cache]
 *                      [--read-heavy] [--durability] [--threads]
 *   seconds-per-point   default 0.4
 *   --mixed-only        skip series 1/2 (CI smoke mode)
 *   --cache             add the cache-preset series
 *   --read-heavy        add the read-path series (+ CI gate)
 *   --durability        add the WAL durability A/B series
 *   --threads           add the 1/2/4/8-thread scaling series
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/timing.hpp"
#include "kvstore/traffic.hpp"

using namespace proteus;
using kvstore::Durability;
using kvstore::KvOp;
using kvstore::KvStore;
using kvstore::KvStoreOptions;
using kvstore::ValueArena;
using kvstore::MixKind;
using kvstore::PhaseLatency;
using kvstore::TrafficDriver;
using kvstore::TrafficMix;
using kvstore::TrafficOptions;

namespace {

constexpr int kThreads = 4;

double
runPoint(int shards, const TrafficMix &mix, int threads, double seconds)
{
    KvStoreOptions store_options;
    store_options.numShards = shards;
    store_options.log2SlotsPerShard = 16;
    store_options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(store_options);

    TrafficOptions traffic_options;
    traffic_options.threads = threads;
    traffic_options.phases = {mix};
    TrafficDriver driver(store, traffic_options);
    driver.preload(mix.keySpace / 2);

    driver.start();
    // Short warmup so table population / first faults don't count.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds * 0.25));
    const std::uint64_t before = driver.opsCompleted();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const std::uint64_t after = driver.opsCompleted();
    driver.stop();

    return static_cast<double>(after - before) / seconds;
}

struct MixedResult
{
    double singleOpsPerSec = 0;
    double multiOpsPerSec = 0;
    PhaseLatency latency;
};

struct DurabilityResult
{
    MixedResult off;
    MixedResult buffered;
    MixedResult fsync;
    /** Single-key throughput lost vs durability-off (positive = WAL
     *  costs throughput). */
    double bufferedOverheadPct = 0;
    double fsyncOverheadPct = 0;
    /** WAL volume + fsync latency of the group-commit leg. */
    std::uint64_t walAppends = 0;
    std::uint64_t walBytes = 0;
    std::uint64_t walFsyncs = 0;
    std::uint64_t fsyncP50 = 0;
    std::uint64_t fsyncP95 = 0;
    std::uint64_t fsyncP99 = 0;
    std::uint64_t fsyncMax = 0;
};

/**
 * The mixed 90/10 scenario under 2PC, on a scratch WAL directory
 * unless `mode` is kOff. When `result` is non-null the run's WAL
 * counters and fsync percentiles are captured into it.
 *
 * Phase 0 is warmup, phase 1 (same mix) is the measurement window:
 * the per-phase latency histogram then covers (nearly) the same
 * interval as the throughput deltas — the run switches back to phase
 * 0 before stop() so teardown-skewed ops don't pollute the phase-1
 * percentiles BENCH_kvstore.json pairs with the windowed ops/s (only
 * ops in flight at the phase edges leak across).
 */
MixedResult
runMixed(double seconds, Durability mode = Durability::kOff,
         DurabilityResult *result = nullptr)
{
    namespace fs = std::filesystem;
    const char *wal_dir = "bench_wal_scratch";
    if (mode != Durability::kOff)
        fs::remove_all(wal_dir);

    KvStoreOptions store_options;
    store_options.numShards = 4;
    store_options.log2SlotsPerShard = 16;
    store_options.initial = {tm::BackendKind::kTl2, 16, {}};
    store_options.durability = mode;
    if (mode != Durability::kOff)
        store_options.walDir = wal_dir;

    MixedResult leg;
    {
        KvStore store(store_options);
        const TrafficMix mix = TrafficMix::preset(MixKind::kMixedCross);
        TrafficOptions traffic_options;
        traffic_options.threads = kThreads;
        traffic_options.phases = {mix, mix};
        TrafficDriver driver(store, traffic_options);
        driver.preload(mix.keySpace / 2);

        driver.start();
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds * 0.25));
        driver.setPhase(1);
        const std::uint64_t single_before =
            driver.singleKeyOpsCompleted();
        const std::uint64_t multi_before = driver.multiOpsCompleted();
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
        const std::uint64_t single_after =
            driver.singleKeyOpsCompleted();
        const std::uint64_t multi_after = driver.multiOpsCompleted();
        driver.setPhase(0);
        driver.stop();

        leg.singleOpsPerSec =
            static_cast<double>(single_after - single_before) / seconds;
        leg.multiOpsPerSec =
            static_cast<double>(multi_after - multi_before) / seconds;
        leg.latency = driver.latency(1);

        if (result) {
            const obs::TelemetrySnapshot snap = store.telemetry();
            result->walAppends = snap.value("wal_appends");
            result->walBytes = snap.value("wal_bytes");
            result->walFsyncs = snap.value("wal_fsyncs");
            if (const obs::MetricSample *fsync_hist =
                    snap.find("wal_fsync_nanos")) {
                result->fsyncP50 =
                    fsync_hist->hist.percentileNanos(0.50);
                result->fsyncP95 =
                    fsync_hist->hist.percentileNanos(0.95);
                result->fsyncP99 =
                    fsync_hist->hist.percentileNanos(0.99);
                result->fsyncMax = fsync_hist->hist.maxNanos();
            }
        }
    }
    if (mode != Durability::kOff)
        fs::remove_all(wal_dir);
    return leg;
}

DurabilityResult
runDurability(double seconds)
{
    DurabilityResult result;
    result.off = runMixed(seconds);
    result.buffered = runMixed(seconds, Durability::kBuffered);
    result.fsync = runMixed(seconds, Durability::kFsyncGroup, &result);
    if (result.off.singleOpsPerSec > 0) {
        result.bufferedOverheadPct =
            (result.off.singleOpsPerSec -
             result.buffered.singleOpsPerSec) /
            result.off.singleOpsPerSec * 100.0;
        result.fsyncOverheadPct =
            (result.off.singleOpsPerSec -
             result.fsync.singleOpsPerSec) /
            result.off.singleOpsPerSec * 100.0;
    }
    return result;
}

struct CacheResult
{
    double opsPerSec = 0;
    double hitRate = 0;
    std::uint64_t grows = 0;
    PhaseLatency latency;
};

CacheResult
runCache(double seconds)
{
    KvStoreOptions store_options;
    store_options.numShards = 4;
    // Deliberately small initial tables: the preset's working set
    // forces several online grows during the measured window.
    store_options.log2SlotsPerShard = 10;
    store_options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(store_options);

    const TrafficMix mix = TrafficMix::preset(MixKind::kCache);
    TrafficOptions traffic_options;
    traffic_options.threads = kThreads;
    traffic_options.phases = {mix, mix};
    TrafficDriver driver(store, traffic_options);
    driver.preload(mix.keySpace / 4);

    driver.start();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds * 0.25));
    driver.setPhase(1);
    const std::uint64_t ops_before = driver.opsCompleted();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const std::uint64_t ops_after = driver.opsCompleted();
    driver.setPhase(0);
    driver.stop();

    CacheResult result;
    result.opsPerSec =
        static_cast<double>(ops_after - ops_before) / seconds;
    result.hitRate = driver.hitRate();
    for (int s = 0; s < store.numShards(); ++s)
        result.grows +=
            store.shard(static_cast<std::size_t>(s)).growCount();
    result.latency = driver.latency(1);
    return result;
}

struct ReadHeavyResult
{
    double opsPerSec = 0;
    PhaseLatency latency;
    /** Write-free snapshot phase (read-only multiOps + scans). */
    double snapOpsPerSec = 0;
    KvStore::SnapshotReadStats snap;
    /** Arena contention counters, summed over shards. */
    std::uint64_t arenaCarveContended = 0;
    std::uint64_t arenaCasRetries = 0;
    std::uint64_t arenaMagazineHits = 0;
    std::uint64_t arenaAllocs = 0;
    /** The CI gate: zero retries/escalations on the write-free phase. */
    bool readOnlyClean = false;
    /** Telemetry-on vs -off throughput delta: the median pair is
     *  recorded, the best (smallest) pair is the > 3% gate. */
    double obsOverheadPct = 0;
    double obsOverheadMinPct = 0;
    /** Full Prometheus-text dump of the instrumented run's store. */
    std::string prometheus;
};

/** One point of the thread-scaling series. */
struct ScalePoint
{
    int threads = 0;
    double opsPerSec = 0;
    std::uint64_t p99 = 0;
};

struct ScalingResult
{
    std::vector<ScalePoint> readHeavy;
    std::vector<ScalePoint> mixed;
};

/** One scaling point: `mix` at 4 shards under `threads` workers,
 *  warmup phase 0 / measured phase 1 (same windowing as runMixed). */
ScalePoint
runScalePoint(const TrafficMix &mix, int threads, double seconds)
{
    KvStoreOptions store_options;
    store_options.numShards = 4;
    store_options.log2SlotsPerShard = 16;
    store_options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(store_options);

    TrafficOptions traffic_options;
    traffic_options.threads = threads;
    traffic_options.phases = {mix, mix};
    TrafficDriver driver(store, traffic_options);
    driver.preload(mix.keySpace / 2);

    driver.start();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds * 0.25));
    driver.setPhase(1);
    const std::uint64_t before = driver.opsCompleted();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const std::uint64_t after = driver.opsCompleted();
    driver.setPhase(0);
    driver.stop();

    ScalePoint point;
    point.threads = threads;
    point.opsPerSec = static_cast<double>(after - before) / seconds;
    point.p99 = driver.latency(1).p99;
    return point;
}

ScalingResult
runScaling(double seconds)
{
    ScalingResult result;
    for (const int threads : {1, 2, 4, 8}) {
        result.readHeavy.push_back(runScalePoint(
            TrafficMix::preset(MixKind::kReadHeavy), threads, seconds));
        result.mixed.push_back(runScalePoint(
            TrafficMix::preset(MixKind::kMixedCross), threads,
            seconds));
    }
    return result;
}

/** The series-5 mix: 95/5 Zipf over ~128 B byte values. */
TrafficMix
readHeavyMix()
{
    TrafficMix mix;
    mix.getRatio = 0.95;
    mix.putRatio = 0.05;
    mix.zipfTheta = 0.8;
    mix.keySpace = std::uint64_t{1} << 14;
    mix.valueBytes = 128;
    return mix;
}

/** One telemetry A/B point: the read-heavy mix on a fresh store with
 *  the flight recorder forced on or off. */
double
runObsPoint(bool telemetry, double seconds)
{
    KvStoreOptions store_options;
    store_options.numShards = 4;
    store_options.log2SlotsPerShard = 16;
    store_options.initial = {tm::BackendKind::kTl2, 16, {}};
    store_options.telemetry = telemetry;
    KvStore store(store_options);

    const TrafficMix mix = readHeavyMix();
    TrafficOptions traffic_options;
    traffic_options.threads = kThreads;
    traffic_options.phases = {mix};
    TrafficDriver driver(store, traffic_options);
    driver.preload(mix.keySpace / 2);

    driver.start();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds * 0.25));
    const std::uint64_t before = driver.opsCompleted();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const std::uint64_t after = driver.opsCompleted();
    driver.stop();
    return static_cast<double>(after - before) / seconds;
}

struct ObsOverhead
{
    double medianPct = 0; //!< recorded in the JSON
    double minPct = 0;    //!< the CI gate
};

/**
 * Instrumentation overhead: three interleaved on/off pairs (so drift
 * in the host's background load hits both sides). The median pair is
 * the recorded estimate; the gate uses the smallest pair, because a
 * real hot-path cost is present in every pair while a scheduler
 * hiccup hitting one or two pairs must not fail CI. Short CLI windows
 * are floored at 0.3 s — below that, run-to-run variance swamps the
 * signal. Positive = telemetry costs throughput.
 */
ObsOverhead
measureObsOverheadPct(double seconds)
{
    const double ab_seconds = seconds < 0.3 ? 0.3 : seconds;
    double pct[3];
    for (int i = 0; i < 3; ++i) {
        const double on = runObsPoint(true, ab_seconds);
        const double off = runObsPoint(false, ab_seconds);
        pct[i] = off > 0 ? (off - on) / off * 100.0 : 0.0;
    }
    std::sort(pct, pct + 3);
    return {pct[1], pct[0]};
}

/**
 * Pre-change reference for the read-path trajectory: medians of an
 * interleaved old-vs-new A/B recorded on this repo's 1-core dev
 * container immediately before the snapshot-epoch read path landed
 * (4 workers; 95/5 Zipf over ~128 B values, and the write-free
 * 8-key-multiOp + scan phase). Kept in the JSON so the current
 * numbers always ship next to the baseline they must beat — in the
 * same session the snapshot phase measured ~8% above this baseline,
 * and snapshot reads racing a cross-shard write storm ~25% above.
 */
constexpr double kReadHeavyBaselineOpsPerSec = 2.22e6;
constexpr double kReadHeavyBaselineSnapOpsPerSec = 3.20e5;

ReadHeavyResult
runReadHeavy(double seconds)
{
    KvStoreOptions store_options;
    store_options.numShards = 4;
    store_options.log2SlotsPerShard = 16;
    store_options.initial = {tm::BackendKind::kTl2, 16, {}};
    KvStore store(store_options);

    // 95/5 Zipf over ~128 B byte values: gets take the pinned blob
    // copy-out, puts exercise the magazine-backed arena.
    const TrafficMix mix = readHeavyMix();

    TrafficOptions traffic_options;
    traffic_options.threads = kThreads;
    traffic_options.phases = {mix, mix};
    TrafficDriver driver(store, traffic_options);
    driver.preload(mix.keySpace / 2);

    driver.start();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds * 0.25));
    driver.setPhase(1);
    const std::uint64_t before = driver.opsCompleted();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const std::uint64_t after = driver.opsCompleted();
    driver.setPhase(0);
    driver.stop();

    ReadHeavyResult result;
    result.opsPerSec =
        static_cast<double>(after - before) / seconds;
    result.latency = driver.latency(1);

    // Write-free phase: read-only multiOps + scans only. With no
    // writer anywhere, every snapshot round must settle first try —
    // the delta of the snapshot counters across this phase is the
    // validation-free gate.
    const KvStore::SnapshotReadStats pre = store.snapshotReadStats();
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> snap_ops{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
        readers.emplace_back([&, t] {
            auto session = store.openSession();
            Rng rng(0x5eed + static_cast<unsigned>(t));
            std::vector<KvOp> snap;
            std::uint64_t local = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                if ((local++ & 7) == 7) {
                    store.scan(session, rng.nextBounded(mix.keySpace),
                               16);
                } else {
                    snap.clear();
                    for (int i = 0; i < 8; ++i) {
                        snap.push_back({KvOp::Kind::kGet,
                                        rng.nextBounded(mix.keySpace),
                                        0, false});
                    }
                    store.multiOp(session, snap);
                }
                snap_ops.fetch_add(1, std::memory_order_relaxed);
            }
            store.closeSession(session);
        });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (auto &reader : readers)
        reader.join();
    result.snapOpsPerSec =
        static_cast<double>(snap_ops.load()) / seconds;

    const KvStore::SnapshotReadStats post = store.snapshotReadStats();
    result.snap.rounds = post.rounds - pre.rounds;
    result.snap.retries = post.retries - pre.retries;
    result.snap.pendingWaits = post.pendingWaits - pre.pendingWaits;
    result.snap.escalations = post.escalations - pre.escalations;
    result.readOnlyClean = result.snap.rounds > 0 &&
                           result.snap.retries == 0 &&
                           result.snap.pendingWaits == 0 &&
                           result.snap.escalations == 0;

    for (int s = 0; s < store.numShards(); ++s) {
        const ValueArena::Stats arena =
            store.shard(static_cast<std::size_t>(s)).arena().stats();
        result.arenaCarveContended += arena.carveContended;
        result.arenaCasRetries += arena.casRetries;
        result.arenaMagazineHits += arena.magazineHits;
        result.arenaAllocs += arena.allocs;
    }
    // One consistent telemetry walk over everything the run recorded —
    // the Prometheus artifact CI uploads next to the JSON.
    result.prometheus = store.telemetry().toPrometheus();
    return result;
}

void
printMixed(const char *name, const MixedResult &r)
{
    std::printf("  %-10s %14.0f %12.0f %8llu %8llu %8llu %9llu\n",
                name, r.singleOpsPerSec, r.multiOpsPerSec,
                static_cast<unsigned long long>(r.latency.p50),
                static_cast<unsigned long long>(r.latency.p95),
                static_cast<unsigned long long>(r.latency.p99),
                static_cast<unsigned long long>(r.latency.max));
}

void
writeJsonObject(std::FILE *f, const char *name, const MixedResult &r)
{
    std::fprintf(
        f,
        "  \"%s\": {\n"
        "    \"single_key_ops_per_sec\": %.0f,\n"
        "    \"multi_ops_per_sec\": %.0f,\n"
        "    \"ops_measured\": %llu,\n"
        "    \"p50_ns\": %llu,\n"
        "    \"p95_ns\": %llu,\n"
        "    \"p99_ns\": %llu,\n"
        "    \"max_ns\": %llu\n"
        "  }",
        name, r.singleOpsPerSec, r.multiOpsPerSec,
        static_cast<unsigned long long>(r.latency.count),
        static_cast<unsigned long long>(r.latency.p50),
        static_cast<unsigned long long>(r.latency.p95),
        static_cast<unsigned long long>(r.latency.p99),
        static_cast<unsigned long long>(r.latency.max));
}

/** Machine-readable trajectory point for CI artifacts. Returns false
 *  (and the bench exits nonzero) when the file cannot be written —
 *  a silently missing artifact defeats the trajectory tracking. */
void
writeScaleSeries(std::FILE *f, const char *name,
                 const std::vector<ScalePoint> &series)
{
    std::fprintf(f, "    \"%s\": [", name);
    for (std::size_t i = 0; i < series.size(); ++i) {
        std::fprintf(
            f,
            "%s\n      {\"threads\": %d, \"ops_per_sec\": %.0f, "
            "\"p99_ns\": %llu}",
            i == 0 ? "" : ",", series[i].threads, series[i].opsPerSec,
            static_cast<unsigned long long>(series[i].p99));
    }
    std::fprintf(f, "\n    ]");
}

bool
writeJson(const char *path, double seconds,
          const MixedResult &two_phase, const CacheResult *cache,
          const ReadHeavyResult *read_heavy,
          const DurabilityResult *durability,
          const ScalingResult *scaling)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "bench_kvstore: cannot write %s\n", path);
        return false;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"kvstore_mixed_90_10\",\n"
                 "  \"threads\": %d,\n"
                 "  \"shards\": 4,\n"
                 "  \"seconds_per_point\": %.3f,\n"
                 "  \"hardware_threads\": %u,\n",
                 kThreads, seconds,
                 std::thread::hardware_concurrency());
    writeJsonObject(f, "two_phase", two_phase);
    if (cache) {
        std::fprintf(
            f,
            ",\n"
            "  \"cache\": {\n"
            "    \"ops_per_sec\": %.0f,\n"
            "    \"hit_rate\": %.4f,\n"
            "    \"online_grows\": %llu,\n"
            "    \"p50_ns\": %llu,\n"
            "    \"p95_ns\": %llu,\n"
            "    \"p99_ns\": %llu,\n"
            "    \"max_ns\": %llu\n"
            "  }",
            cache->opsPerSec, cache->hitRate,
            static_cast<unsigned long long>(cache->grows),
            static_cast<unsigned long long>(cache->latency.p50),
            static_cast<unsigned long long>(cache->latency.p95),
            static_cast<unsigned long long>(cache->latency.p99),
            static_cast<unsigned long long>(cache->latency.max));
    }
    if (read_heavy) {
        std::fprintf(
            f,
            ",\n"
            "  \"read_heavy\": {\n"
            "    \"ops_per_sec\": %.0f,\n"
            "    \"p50_ns\": %llu,\n"
            "    \"p95_ns\": %llu,\n"
            "    \"p99_ns\": %llu,\n"
            "    \"max_ns\": %llu,\n"
            "    \"read_only_snapshot_ops_per_sec\": %.0f,\n"
            "    \"snapshot_rounds\": %llu,\n"
            "    \"snapshot_retries\": %llu,\n"
            "    \"snapshot_pending_waits\": %llu,\n"
            "    \"snapshot_escalations\": %llu,\n"
            "    \"arena_carve_contended\": %llu,\n"
            "    \"arena_cas_retries\": %llu,\n"
            "    \"arena_magazine_hit_rate\": %.4f,\n"
            "    \"obs_overhead_pct\": %.2f,\n"
            "    \"baseline_pre_epoch_ops_per_sec\": %.0f,\n"
            "    \"baseline_pre_epoch_snapshot_ops_per_sec\": %.0f\n"
            "  }",
            read_heavy->opsPerSec,
            static_cast<unsigned long long>(read_heavy->latency.p50),
            static_cast<unsigned long long>(read_heavy->latency.p95),
            static_cast<unsigned long long>(read_heavy->latency.p99),
            static_cast<unsigned long long>(read_heavy->latency.max),
            read_heavy->snapOpsPerSec,
            static_cast<unsigned long long>(read_heavy->snap.rounds),
            static_cast<unsigned long long>(read_heavy->snap.retries),
            static_cast<unsigned long long>(
                read_heavy->snap.pendingWaits),
            static_cast<unsigned long long>(
                read_heavy->snap.escalations),
            static_cast<unsigned long long>(
                read_heavy->arenaCarveContended),
            static_cast<unsigned long long>(
                read_heavy->arenaCasRetries),
            read_heavy->arenaAllocs > 0
                ? static_cast<double>(read_heavy->arenaMagazineHits) /
                      static_cast<double>(read_heavy->arenaAllocs)
                : 0.0,
            read_heavy->obsOverheadPct,
            kReadHeavyBaselineOpsPerSec,
            kReadHeavyBaselineSnapOpsPerSec);
    }
    if (durability) {
        std::fprintf(
            f,
            ",\n"
            "  \"durability\": {\n"
            "    \"off_single_ops_per_sec\": %.0f,\n"
            "    \"buffered_single_ops_per_sec\": %.0f,\n"
            "    \"fsync_single_ops_per_sec\": %.0f,\n"
            "    \"off_multi_ops_per_sec\": %.0f,\n"
            "    \"buffered_multi_ops_per_sec\": %.0f,\n"
            "    \"fsync_multi_ops_per_sec\": %.0f,\n"
            "    \"wal_overhead_buffered_pct\": %.2f,\n"
            "    \"wal_overhead_fsync_pct\": %.2f,\n"
            "    \"wal_appends\": %llu,\n"
            "    \"wal_bytes\": %llu,\n"
            "    \"wal_fsyncs\": %llu,\n"
            "    \"fsync_p50_ns\": %llu,\n"
            "    \"fsync_p95_ns\": %llu,\n"
            "    \"fsync_p99_ns\": %llu,\n"
            "    \"fsync_max_ns\": %llu\n"
            "  }",
            durability->off.singleOpsPerSec,
            durability->buffered.singleOpsPerSec,
            durability->fsync.singleOpsPerSec,
            durability->off.multiOpsPerSec,
            durability->buffered.multiOpsPerSec,
            durability->fsync.multiOpsPerSec,
            durability->bufferedOverheadPct,
            durability->fsyncOverheadPct,
            static_cast<unsigned long long>(durability->walAppends),
            static_cast<unsigned long long>(durability->walBytes),
            static_cast<unsigned long long>(durability->walFsyncs),
            static_cast<unsigned long long>(durability->fsyncP50),
            static_cast<unsigned long long>(durability->fsyncP95),
            static_cast<unsigned long long>(durability->fsyncP99),
            static_cast<unsigned long long>(durability->fsyncMax));
    }
    if (scaling) {
        std::fprintf(f, ",\n  \"scaling\": {\n");
        writeScaleSeries(f, "read_heavy", scaling->readHeavy);
        std::fprintf(f, ",\n");
        writeScaleSeries(f, "mixed", scaling->mixed);
        std::fprintf(f, "\n  }");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    double seconds = 0.4;
    bool mixed_only = false;
    bool with_cache = false;
    bool with_read_heavy = false;
    bool with_durability = false;
    bool with_threads = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--mixed-only") == 0) {
            mixed_only = true;
        } else if (std::strcmp(argv[i], "--cache") == 0) {
            with_cache = true;
        } else if (std::strcmp(argv[i], "--read-heavy") == 0) {
            with_read_heavy = true;
        } else if (std::strcmp(argv[i], "--durability") == 0) {
            with_durability = true;
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            with_threads = true;
        } else {
            const double parsed = std::atof(argv[i]);
            if (parsed > 0) {
                seconds = parsed;
            } else {
                std::fprintf(stderr,
                             "bench_kvstore: invalid argument '%s' "
                             "(usage: bench_kvstore [seconds-per-point]"
                             " [--mixed-only] [--cache]"
                             " [--read-heavy] [--durability]"
                             " [--threads])\n",
                             argv[i]);
                return 2;
            }
        }
    }
    const int threads = kThreads;

    std::printf("ProteusKV bench — %d workers, %.2fs/point, host has "
                "%u hardware threads\n\n",
                threads, seconds,
                std::thread::hardware_concurrency());

    if (!mixed_only) {
        std::printf("shard scaling, read-heavy (YCSB-B):\n");
        std::printf("  %-8s %14s %10s\n", "shards", "ops/s", "speedup");
        double base = 0;
        for (const int shards : {1, 2, 4}) {
            const double ops = runPoint(
                shards, TrafficMix::preset(MixKind::kReadHeavy),
                threads, seconds);
            if (shards == 1)
                base = ops;
            std::printf("  %-8d %14.0f %9.2fx\n", shards, ops,
                        base > 0 ? ops / base : 0.0);
        }

        std::printf("\nworkload mixes at 4 shards:\n");
        std::printf("  %-12s %14s\n", "mix", "ops/s");
        const struct
        {
            const char *name;
            MixKind kind;
        } mixes[] = {
            {"read-heavy", MixKind::kReadHeavy},
            {"balanced", MixKind::kBalanced},
            {"scan-heavy", MixKind::kScanHeavy},
            {"write-heavy", MixKind::kWriteHeavy},
            {"hotspot", MixKind::kHotspot},
        };
        for (const auto &mix : mixes) {
            const double ops = runPoint(
                4, TrafficMix::preset(mix.kind), threads, seconds);
            std::printf("  %-12s %14.0f\n", mix.name, ops);
        }

        // Batched vs single-op puts: one session, one thread, same keys.
        std::printf("\nbatching (single thread, 1 shard, %d puts):\n",
                    1 << 16);
        KvStoreOptions store_options;
        store_options.numShards = 1;
        store_options.log2SlotsPerShard = 18;
        store_options.initial = {tm::BackendKind::kTl2, 1, {}};
        {
            KvStore store(store_options);
            auto session = store.openSession();
            Stopwatch sw;
            for (std::uint64_t key = 0; key < (1u << 16); ++key)
                store.put(session, key, key);
            const double single = (1 << 16) / sw.elapsedSeconds();
            store.closeSession(session);
            std::printf("  %-12s %14.0f ops/s\n", "single", single);
        }
        {
            KvStore store(store_options);
            auto session = store.openSession();
            KvStore::Batch batch;
            Stopwatch sw;
            for (std::uint64_t key = 0; key < (1u << 16); ++key) {
                batch.put(key, key);
                if (batch.size() == 64) {
                    store.applyBatch(session, batch);
                    batch.clear();
                }
            }
            const double batched = (1 << 16) / sw.elapsedSeconds();
            store.closeSession(session);
            std::printf("  %-12s %14.0f ops/s\n", "batch(64)", batched);
        }
    }

    std::printf("\nmixed 90%% single-key / 10%% cross-shard multiOp "
                "(4 shards, 2PC commit):\n");
    std::printf("  %-10s %14s %12s %8s %8s %8s %9s\n", "mode",
                "single ops/s", "multi ops/s", "p50ns", "p95ns",
                "p99ns", "maxns");
    const MixedResult two_phase = runMixed(seconds);
    printMixed("2pc", two_phase);

    ReadHeavyResult read_heavy;
    if (with_read_heavy) {
        std::printf("\nread path (95/5 Zipf over ~128 B values, then a "
                    "write-free snapshot phase):\n");
        read_heavy = runReadHeavy(seconds);
        std::printf("  %14s %8s %8s %8s %16s\n", "ops/s", "p50ns",
                    "p95ns", "p99ns", "snap ops/s");
        std::printf(
            "  %14.0f %8llu %8llu %8llu %16.0f\n", read_heavy.opsPerSec,
            static_cast<unsigned long long>(read_heavy.latency.p50),
            static_cast<unsigned long long>(read_heavy.latency.p95),
            static_cast<unsigned long long>(read_heavy.latency.p99),
            read_heavy.snapOpsPerSec);
        std::printf("  snapshot rounds %llu retries %llu waits %llu "
                    "escalations %llu | arena carve-contended %llu "
                    "cas-retries %llu\n",
                    static_cast<unsigned long long>(
                        read_heavy.snap.rounds),
                    static_cast<unsigned long long>(
                        read_heavy.snap.retries),
                    static_cast<unsigned long long>(
                        read_heavy.snap.pendingWaits),
                    static_cast<unsigned long long>(
                        read_heavy.snap.escalations),
                    static_cast<unsigned long long>(
                        read_heavy.arenaCarveContended),
                    static_cast<unsigned long long>(
                        read_heavy.arenaCasRetries));
        if (!read_heavy.readOnlyClean) {
            std::fprintf(stderr,
                         "bench_kvstore: the write-free snapshot phase "
                         "reported validation retries or escalations — "
                         "the read path is NOT validation-free\n");
        }

        const ObsOverhead overhead = measureObsOverheadPct(seconds);
        read_heavy.obsOverheadPct = overhead.medianPct;
        read_heavy.obsOverheadMinPct = overhead.minPct;
        std::printf("  telemetry overhead (on vs off, 3 pairs): "
                    "median %.2f%%, best %.2f%%\n",
                    overhead.medianPct, overhead.minPct);

        std::FILE *prom = std::fopen("BENCH_kvstore.prom", "w");
        if (prom) {
            std::fputs(read_heavy.prometheus.c_str(), prom);
            std::fclose(prom);
            std::printf("wrote BENCH_kvstore.prom\n");
        } else {
            std::fprintf(
                stderr,
                "bench_kvstore: cannot write BENCH_kvstore.prom\n");
        }
    }

    DurabilityResult durability;
    if (with_durability) {
        std::printf("\ndurability A/B, mixed 90/10 under 2PC "
                    "(4 shards, scratch WAL dir):\n");
        durability = runDurability(seconds);
        std::printf("  %-10s %14s %12s %8s %8s %8s %9s\n", "mode",
                    "single ops/s", "multi ops/s", "p50ns", "p95ns",
                    "p99ns", "maxns");
        printMixed("off", durability.off);
        printMixed("buffered", durability.buffered);
        printMixed("fsync", durability.fsync);
        std::printf("  wal overhead: buffered %.2f%%, fsync %.2f%% "
                    "(single-key ops/s vs off)\n",
                    durability.bufferedOverheadPct,
                    durability.fsyncOverheadPct);
        std::printf("  fsync leg: %llu appends, %llu bytes, %llu "
                    "fsyncs; fsync p50 %llu ns p95 %llu ns p99 %llu "
                    "ns max %llu ns\n",
                    static_cast<unsigned long long>(
                        durability.walAppends),
                    static_cast<unsigned long long>(
                        durability.walBytes),
                    static_cast<unsigned long long>(
                        durability.walFsyncs),
                    static_cast<unsigned long long>(
                        durability.fsyncP50),
                    static_cast<unsigned long long>(
                        durability.fsyncP95),
                    static_cast<unsigned long long>(
                        durability.fsyncP99),
                    static_cast<unsigned long long>(
                        durability.fsyncMax));
    }

    CacheResult cache;
    if (with_cache) {
        std::printf("\ncache preset (wide values + 50ms TTL, shards "
                    "start small and grow online):\n");
        cache = runCache(seconds);
        std::printf("  %14s %9s %7s %8s %8s\n", "ops/s", "hit-rate",
                    "grows", "p50ns", "p99ns");
        std::printf("  %14.0f %9.3f %7llu %8llu %8llu\n",
                    cache.opsPerSec, cache.hitRate,
                    static_cast<unsigned long long>(cache.grows),
                    static_cast<unsigned long long>(cache.latency.p50),
                    static_cast<unsigned long long>(cache.latency.p99));
    }

    ScalingResult scaling;
    if (with_threads) {
        std::printf("\nthread scaling at 4 shards (read-heavy and "
                    "mixed 90/10):\n");
        scaling = runScaling(seconds);
        std::printf("  %-10s %8s %14s %8s\n", "preset", "threads",
                    "ops/s", "p99ns");
        const auto print_series =
            [](const char *name, const std::vector<ScalePoint> &series) {
                for (const ScalePoint &point : series) {
                    std::printf(
                        "  %-10s %8d %14.0f %8llu\n", name,
                        point.threads, point.opsPerSec,
                        static_cast<unsigned long long>(point.p99));
                }
            };
        print_series("read-heavy", scaling.readHeavy);
        print_series("mixed", scaling.mixed);
    }

    if (!writeJson("BENCH_kvstore.json", seconds, two_phase,
                   with_cache ? &cache : nullptr,
                   with_read_heavy ? &read_heavy : nullptr,
                   with_durability ? &durability : nullptr,
                   with_threads ? &scaling : nullptr))
        return 1;
    // The read-path gate: a write-free workload that still pays
    // validation retries or snapshot escalations is a regression CI must
    // catch, not a number to eyeball.
    if (with_read_heavy && !read_heavy.readOnlyClean)
        return 2;
    // The observability gate: the flight recorder must stay out of
    // the read path's way. Gating on the best of the interleaved
    // pairs absorbs host noise; a real >3% cost means a trace hook
    // grew hot and shows up in every pair.
    if (with_read_heavy && read_heavy.obsOverheadMinPct > 3.0) {
        std::fprintf(stderr,
                     "bench_kvstore: telemetry overhead %.2f%% exceeds "
                     "the 3%% budget in every A/B pair\n",
                     read_heavy.obsOverheadMinPct);
        return 3;
    }
    return 0;
}
