/**
 * Table 4 — Overhead (%) incurred by ProteusTM (PolyTM) relative to
 * the bare TM backend, per backend and thread count, measured on real
 * executions of this repository's TM runtimes.
 *
 * "Bare" drives the backend directly with a minimal retry loop (no
 * thread gate, no counters); "PolyTM" goes through PolyTm::run with
 * the dispatch pointer, the Algorithm-1 gate fetch-and-adds, budget
 * management and profiling counters. HTM-naive additionally routes
 * the emulated-HTM accesses through an instrumented shim, standing in
 * for GCC's fully-instrumented code path (the dual-path ablation).
 *
 * Shape targets: overheads small (paper: <5% on STMs / HTM-opt;
 * 14-24% for HTM-naive). The CI and bench hosts have 4 vCPUs, so the
 * 8-thread row is oversubscribed; the *relative* bare-vs-PolyTM
 * comparison is still meaningful since both sides are oversubscribed
 * equally.
 */

#include <thread>

#include "bench_util.hpp"
#include "common/timing.hpp"
#include "polytm/polytm.hpp"
#include "tm/global_lock.hpp"
#include "tm/hybrid_norec.hpp"
#include "tm/norec.hpp"
#include "tm/swisstm.hpp"
#include "tm/tinystm.hpp"
#include "tm/tl2.hpp"

namespace proteus::bench {
namespace {

using polytm::PolyTm;
using polytm::TmConfig;
using tm::BackendKind;
using tm::TxDesc;

constexpr std::uint64_t kSlots = 1 << 18;
constexpr int kReads = 40;
constexpr int kWrites = 8;
constexpr std::uint64_t kOpsPerThread = 15000;
constexpr int kLocalWorkIters = 120; // intra-tx compute, STAMP-like

/** Non-transactional work inside the transaction body. */
inline std::uint64_t
localWork(std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (int i = 0; i < kLocalWorkIters; ++i) {
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
    }
    return h;
}

/** One synthetic transaction against a raw backend descriptor. */
template <typename ReadFn, typename WriteFn>
void
syntheticBody(Rng &rng, std::vector<std::uint64_t> &slots, ReadFn read,
              WriteFn write)
{
    std::uint64_t acc = 0;
    std::uint64_t idx[kReads];
    for (int i = 0; i < kReads; ++i)
        idx[i] = rng.nextBounded(kSlots);
    for (int i = 0; i < kReads; ++i)
        acc += read(&slots[idx[i]]);
    acc = localWork(acc);
    for (int i = 0; i < kWrites; ++i)
        write(&slots[rng.nextBounded(kSlots)], acc + i);
}

/** Bare-backend ops/sec. */
double
runBare(tm::TmBackend &backend, int threads, bool instrumented_shim)
{
    std::vector<std::uint64_t> slots(kSlots, 1);
    std::vector<std::thread> workers;
    Stopwatch sw;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            TxDesc desc(t, 0xb00 + t);
            backend.registerThread(desc);
            Rng rng(0xabc + t);
            for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
                desc.consecutiveAborts = 0;
                desc.htmBudgetLeft = 5;
                for (;;) {
                    backend.txBegin(desc);
                    try {
                        syntheticBody(
                            rng, slots,
                            [&](const std::uint64_t *a) {
                                if (instrumented_shim) {
                                    // Emulated per-access
                                    // instrumentation of the naive
                                    // (fully compiled) path.
                                    volatile std::uint64_t sink =
                                        reinterpret_cast<
                                            std::uintptr_t>(a) *
                                        0x9e3779b97f4a7c15ull;
                                    (void)sink;
                                }
                                return backend.txRead(desc, a);
                            },
                            [&](std::uint64_t *a, std::uint64_t v) {
                                if (instrumented_shim) {
                                    volatile std::uint64_t sink =
                                        reinterpret_cast<
                                            std::uintptr_t>(a) ^ v;
                                    (void)sink;
                                }
                                backend.txWrite(desc, a, v);
                            });
                        backend.txCommit(desc);
                        break;
                    } catch (const tm::TxAbort &) {
                        ++desc.consecutiveAborts;
                        if (desc.htmBudgetLeft > 0)
                            --desc.htmBudgetLeft;
                        tm::backoffOnAbort(desc);
                    }
                }
            }
            backend.deregisterThread(desc);
        });
    }
    for (auto &w : workers)
        w.join();
    return static_cast<double>(kOpsPerThread) * threads /
           sw.elapsedSeconds();
}

/** PolyTM ops/sec with the same body. */
double
runPoly(BackendKind kind, int threads, bool instrumented_shim)
{
    PolyTm poly(TmConfig{kind, threads, {}});
    std::vector<std::uint64_t> slots(kSlots, 1);
    std::vector<std::thread> workers;
    Stopwatch sw;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            auto token = poly.registerThread();
            Rng rng(0xabc + t);
            for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
                poly.run(token, [&](polytm::Tx &tx) {
                    syntheticBody(
                        rng, slots,
                        [&](const std::uint64_t *a) {
                            if (instrumented_shim) {
                                volatile std::uint64_t sink =
                                    reinterpret_cast<std::uintptr_t>(a) *
                                    0x9e3779b97f4a7c15ull;
                                (void)sink;
                            }
                            return tx.readWord(a);
                        },
                        [&](std::uint64_t *a, std::uint64_t v) {
                            if (instrumented_shim) {
                                volatile std::uint64_t sink =
                                    reinterpret_cast<std::uintptr_t>(a) ^
                                    v;
                                (void)sink;
                            }
                            tx.writeWord(a, v);
                        });
                });
            }
            poly.deregisterThread(token);
        });
    }
    for (auto &w : workers)
        w.join();
    return static_cast<double>(kOpsPerThread) * threads /
           sw.elapsedSeconds();
}

std::unique_ptr<tm::TmBackend>
makeBare(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kTl2: return std::make_unique<tm::Tl2Tm>(18);
      case BackendKind::kNorec: return std::make_unique<tm::NorecTm>();
      case BackendKind::kSwissTm:
        return std::make_unique<tm::SwissTm>(18);
      case BackendKind::kTinyStm:
        return std::make_unique<tm::TinyStmTm>(18);
      case BackendKind::kSimHtm:
        return std::make_unique<tm::SimHtm>(tm::SimHtmConfig{}, 18);
      default: return nullptr;
    }
}

int
run()
{
    printTitle("Table 4: PolyTM overhead (%) vs bare TM "
               "(median of 5 runs; threads beyond the host's cores "
               "are oversubscribed)");
    std::printf("%-10s", "#threads");
    const char *columns[] = {"TL2",     "NOrec",   "Swiss",
                             "Tiny",    "HTM-opt", "HTM-naive"};
    for (const auto *c : columns)
        std::printf(" %10s", c);
    std::printf("\n");

    const BackendKind kinds[] = {
        BackendKind::kTl2,    BackendKind::kNorec,
        BackendKind::kSwissTm, BackendKind::kTinyStm,
        BackendKind::kSimHtm, BackendKind::kSimHtm};

    for (const int threads : {1, 4, 8}) {
        std::printf("%-10d", threads);
        for (int k = 0; k < 6; ++k) {
            const bool shim = k == 5; // HTM-naive column
            std::vector<double> overheads;
            for (int rep = 0; rep < 5; ++rep) {
                // Baseline is always the bare, *uninstrumented* path;
                // the HTM-naive column runs PolyTM through the
                // instrumented shim (GCC's default dual-path choice).
                auto bare_backend = makeBare(kinds[k]);
                const double bare =
                    runBare(*bare_backend, threads, false);
                const double poly = runPoly(kinds[k], threads, shim);
                overheads.push_back((bare / poly - 1.0) * 100.0);
            }
            std::printf(" %10.1f", median(overheads));
        }
        std::printf("\n");
    }
    std::printf("\nShape target: STM/HTM-opt columns ~0-5%%; the gate "
                "fetch-and-add dominates PolyTM's added cost.\n"
                "Negative cells are scheduling noise, largest in "
                "oversubscribed rows.\n");
    return 0;
}

} // namespace
} // namespace proteus::bench

int
main()
{
    return proteus::bench::run();
}
