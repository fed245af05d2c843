/**
 * The lazily mapped orec table: fresh and reset tables read version 0
 * at every stripe, the table cannot be copied, and a PolyTm that
 * discards the outgoing backend's table on every switch stays correct
 * when a backend returns to its discarded table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "polytm/polytm.hpp"
#include "tm/orec.hpp"

namespace proteus::tm {
namespace {

static_assert(!std::is_copy_constructible_v<OrecTable>);
static_assert(!std::is_copy_assignable_v<OrecTable>);

void
expectAllVersionZero(OrecTable &table)
{
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < table.size(); ++i)
        nonzero += table[i].load().raw != 0 ? 1 : 0;
    EXPECT_EQ(nonzero, 0u);
}

TEST(OrecTableTest, FreshTableReadsVersionZeroEverywhere)
{
    for (unsigned log2 : {10u, 18u}) {
        SCOPED_TRACE(log2);
        OrecTable table(log2);
        ASSERT_EQ(table.size(), std::size_t{1} << log2);
        expectAllVersionZero(table);
        const OrecWord w = table[table.size() - 1].load();
        EXPECT_FALSE(w.locked());
        EXPECT_EQ(w.version(), 0u);
    }
}

TEST(OrecTableTest, ResetClearsLockedAndVersionedStripes)
{
    for (unsigned log2 : {10u, 18u}) {
        SCOPED_TRACE(log2);
        OrecTable table(log2);
        // Every 3rd stripe is locked; those at multiples of 21 stay
        // locked and the rest are released to a new version, so the
        // table holds both kinds of non-zero word.
        for (std::size_t i = 0; i < table.size(); i += 3) {
            Orec &o = table[i];
            ASSERT_TRUE(o.tryLock(o.load(), 1));
            if (i % 7 != 0)
                o.releaseToVersion(i + 1);
        }
        table.reset();
        expectAllVersionZero(table);

        // The discarded pages are usable again.
        Orec &o = table[5];
        ASSERT_TRUE(o.tryLock(o.load(), 2));
        o.releaseToVersion(9);
        EXPECT_EQ(table[5].load().version(), 9u);
        table.reset();
        expectAllVersionZero(table);
    }
}

TEST(OrecTableTest, ForAddrStaysInsideTheTable)
{
    OrecTable table(10);
    std::vector<std::uint64_t> words(4096);
    for (const auto &w : words) {
        const std::size_t i = table.indexOf(&w);
        ASSERT_LT(i, table.size());
        EXPECT_EQ(&table.forAddr(&w), &table[i]);
    }
}

/**
 * Four writers move value between accounts while the main thread
 * switches TL2 -> NOrec -> TinySTM -> TL2 several times. Each switch
 * discards the outgoing backend's orecs, so TL2 and TinySTM come back
 * to tables that were handed to the kernel. After every switch the
 * writers must make progress again (a stale version or lock left in a
 * discarded table would abort them forever) and the total must hold.
 */
TEST(OrecTableTest, PolyTmPingPongKeepsTheTotal)
{
    using polytm::PolyTm;
    using polytm::Tx;
    using polytm::TxField;

    constexpr int kWriters = 4;
    constexpr int kAccounts = 256;
    constexpr std::int64_t kInitial = 1000;
    constexpr std::int64_t kTotal = kAccounts * kInitial;

    PolyTm poly({BackendKind::kTl2, kWriters, {}});
    std::vector<TxField<std::int64_t>> accounts(kAccounts);
    for (auto &a : accounts)
        a.rawSet(kInitial);

    std::atomic<bool> stop{false};
    std::atomic<bool> pause{false};
    std::atomic<int> parked{0};
    std::atomic<std::uint64_t> transfers{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            auto token = poly.registerThread();
            std::uint64_t x = 0x9e3779b97f4a7c15ull * (w + 1);
            while (!stop.load()) {
                if (pause.load()) {
                    parked.fetch_add(1);
                    while (pause.load())
                        std::this_thread::yield();
                    parked.fetch_sub(1);
                    continue;
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                const std::size_t from = x % kAccounts;
                const std::size_t to = (x >> 20) % kAccounts;
                poly.run(token, [&](Tx &tx) {
                    // Lets a writer stuck in an abort loop commit an
                    // empty transaction once the test gives up.
                    if (stop.load())
                        return;
                    tx.write(accounts[from], tx.read(accounts[from]) - 1);
                    tx.write(accounts[to], tx.read(accounts[to]) + 1);
                });
                transfers.fetch_add(1, std::memory_order_relaxed);
            }
            poly.deregisterThread(token);
        });
    }

    // The audit parks the writers between transactions and sums the
    // accounts directly: a long read-only transaction would starve
    // against four writers.
    const auto sum = [&] {
        pause.store(true);
        while (parked.load() != kWriters)
            std::this_thread::yield();
        std::int64_t total = 0;
        for (auto &a : accounts)
            total += a.rawGet();
        pause.store(false);
        return total;
    };
    const auto progressed = [&] {
        const std::uint64_t base = transfers.load();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (transfers.load() < base + 2000) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            std::this_thread::yield();
        }
        return true;
    };

    // Failures are collected, not asserted, so the writers are always
    // stopped and joined before the test ends.
    std::string failure;
    const BackendKind cycle[] = {BackendKind::kNorec, BackendKind::kTinyStm,
                                 BackendKind::kTl2};
    for (int round = 0; round < 4 && failure.empty(); ++round) {
        for (BackendKind next : cycle) {
            poly.reconfigure({next, kWriters, {}});
            const std::string where =
                " after switching to backend " +
                std::to_string(static_cast<int>(next)) + " in round " +
                std::to_string(round);
            if (!progressed()) {
                failure = "writers stalled" + where;
                break;
            }
            if (const std::int64_t total = sum(); total != kTotal) {
                failure = "total " + std::to_string(total) + where;
                break;
            }
        }
    }

    stop.store(true);
    for (auto &t : writers)
        t.join();
    EXPECT_EQ(failure, "");
}

} // namespace
} // namespace proteus::tm
