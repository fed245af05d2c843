/**
 * Shard unit tests: open-addressing semantics (overwrite, tombstone
 * reuse, full-table behaviour), scans and TTL sweeps that wrap the
 * table, the 16-slot minimum, and transactional composition through
 * the *Tx primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/shard.hpp"

namespace proteus::kvstore {
namespace {

ShardOptions
tinyShard(unsigned log2_slots)
{
    ShardOptions options;
    options.log2Slots = log2_slots;
    options.initial = {tm::BackendKind::kTl2, 1, {}};
    return options;
}

TEST(ShardTest, PutGetDelRoundTrip)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    std::uint64_t value = 0;
    EXPECT_FALSE(shard.get(token, 42, &value));
    EXPECT_TRUE(shard.put(token, 42, 1000));
    EXPECT_TRUE(shard.get(token, 42, &value));
    EXPECT_EQ(value, 1000u);

    // Overwrite keeps a single entry.
    EXPECT_TRUE(shard.put(token, 42, 2000));
    EXPECT_TRUE(shard.get(token, 42, &value));
    EXPECT_EQ(value, 2000u);
    EXPECT_EQ(shard.sizeQuiesced(), 1u);

    EXPECT_TRUE(shard.del(token, 42));
    EXPECT_FALSE(shard.get(token, 42, &value));
    EXPECT_FALSE(shard.del(token, 42));
    EXPECT_EQ(shard.sizeQuiesced(), 0u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, TombstonesAreReusedAndProbesCrossThem)
{
    Shard shard(tinyShard(4)); // 16 slots: collisions guaranteed
    auto token = shard.registerWorker();

    for (std::uint64_t key = 0; key < 12; ++key)
        ASSERT_TRUE(shard.put(token, key, key));
    // Delete every other key, then re-insert different keys: the
    // tombstones must be reusable and remaining keys reachable.
    for (std::uint64_t key = 0; key < 12; key += 2)
        ASSERT_TRUE(shard.del(token, key));
    for (std::uint64_t key = 100; key < 106; ++key)
        ASSERT_TRUE(shard.put(token, key, key * 7));

    std::uint64_t value = 0;
    for (std::uint64_t key = 1; key < 12; key += 2) {
        EXPECT_TRUE(shard.get(token, key, &value)) << key;
        EXPECT_EQ(value, key);
    }
    for (std::uint64_t key = 100; key < 106; ++key) {
        EXPECT_TRUE(shard.get(token, key, &value)) << key;
        EXPECT_EQ(value, key * 7);
    }
    EXPECT_EQ(shard.sizeQuiesced(), 12u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, PinnedTableRejectsNewKeysButAcceptsOverwrites)
{
    // maxLog2Slots == log2Slots restores the seed's fixed-capacity
    // semantics: put() reports failure instead of growing.
    ShardOptions options = tinyShard(4);
    options.maxLog2Slots = 4;
    Shard shard(options);
    auto token = shard.registerWorker();

    for (std::uint64_t key = 0; key < 16; ++key)
        ASSERT_TRUE(shard.put(token, key, key));
    EXPECT_FALSE(shard.put(token, 999, 1)) << "table is full";
    EXPECT_TRUE(shard.put(token, 3, 333)) << "overwrite must still work";

    // Freeing one slot admits one new key again.
    EXPECT_TRUE(shard.del(token, 7));
    EXPECT_TRUE(shard.put(token, 999, 1));
    EXPECT_FALSE(shard.put(token, 1000, 1));

    shard.deregisterWorker(token);
}

TEST(ShardTest, GrowsOnlineWhenFullAndKeepsEveryKey)
{
    // 16 initial slots, growth unbounded: 4x the initial capacity in
    // inserts never fails, the table doubles (possibly repeatedly),
    // and every key/value survives the migrations.
    Shard shard(tinyShard(4));
    auto token = shard.registerWorker();
    const std::size_t initial_cap = shard.capacity();

    for (std::uint64_t key = 0; key < 4 * 16; ++key)
        ASSERT_TRUE(shard.put(token, key, key * 7 + 1)) << key;

    EXPECT_GT(shard.capacity(), initial_cap);
    EXPECT_GE(shard.growCount(), 1u);

    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < 4 * 16; ++key) {
        ASSERT_TRUE(shard.get(token, key, &value)) << key;
        EXPECT_EQ(value, key * 7 + 1);
    }

    // Drain the incremental migration and re-verify: relocation must
    // neither lose nor duplicate entries.
    shard.drainMigration(token);
    EXPECT_FALSE(shard.migrationActive());
    EXPECT_EQ(shard.sizeQuiesced(), 4 * 16u);
    for (std::uint64_t key = 0; key < 4 * 16; ++key)
        ASSERT_TRUE(shard.get(token, key, &value)) << key;

    // Scans cover entries still in the old table mid-migration.
    EXPECT_EQ(shard.scan(token, 0, 1000), 4 * 16u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, BytesRoundTripInlineAndBlob)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    const std::string small = "abc";           // inline
    const std::string exact8 = "12345678";     // smallest blob
    const std::string wide(513, 'q');          // multi-word blob
    ASSERT_TRUE(
        shard.putBytes(token, 1, small.data(), small.size()));
    ASSERT_TRUE(
        shard.putBytes(token, 2, exact8.data(), exact8.size()));
    ASSERT_TRUE(shard.putBytes(token, 3, wide.data(), wide.size()));

    std::string out;
    ASSERT_TRUE(shard.getBytes(token, 1, &out));
    EXPECT_EQ(out, small);
    ASSERT_TRUE(shard.getBytes(token, 2, &out));
    EXPECT_EQ(out, exact8);
    ASSERT_TRUE(shard.getBytes(token, 3, &out));
    EXPECT_EQ(out, wide);

    // Numeric view of a byte value decodes the leading 8 bytes; byte
    // view of a numeric value returns its raw 8 bytes.
    std::uint64_t value = 0;
    ASSERT_TRUE(shard.get(token, 1, &value));
    std::uint64_t expect = 0;
    std::memcpy(&expect, small.data(), small.size());
    EXPECT_EQ(value, expect);
    ASSERT_TRUE(shard.put(token, 4, 0x1122334455667788ull));
    ASSERT_TRUE(shard.getBytes(token, 4, &out));
    ASSERT_EQ(out.size(), 8u);
    std::memcpy(&value, out.data(), 8);
    EXPECT_EQ(value, 0x1122334455667788ull);

    // Overwriting a blob reclaims it into the arena; repeated
    // overwrites must not grow live bytes without bound.
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(shard.putBytes(token, 3, wide.data(), wide.size()));
    EXPECT_LE(shard.arena().bytesLive(), 4096u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, TtlLazyExpiryAndSweep)
{
    Shard shard(tinyShard(6));
    auto token = shard.registerWorker();

    constexpr std::uint64_t kTtl = 30ull * 1000 * 1000; // 30 ms
    for (std::uint64_t key = 0; key < 8; ++key)
        ASSERT_TRUE(shard.put(token, key, key, kTtl));
    ASSERT_TRUE(shard.put(token, 100, 1));

    std::uint64_t value = 0;
    EXPECT_TRUE(shard.get(token, 0, &value));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    for (std::uint64_t key = 0; key < 8; ++key)
        EXPECT_FALSE(shard.get(token, key)) << key;
    EXPECT_TRUE(shard.get(token, 100, &value));
    EXPECT_EQ(shard.sizeQuiesced(), 1u) << "expired keys read absent";

    // The clock-hand sweep reclaims the expired slots (tombstones).
    for (int i = 0; i < 200; ++i)
        shard.maintainTick(token);
    EXPECT_EQ(shard.scan(token, 0, 100), 1u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, ScanCollectsLiveEntries)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    for (std::uint64_t key = 0; key < 40; ++key)
        ASSERT_TRUE(shard.put(token, key, key + 1));

    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    const std::size_t n = shard.scan(token, 5, 10, &out);
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(out.size(), 10u);
    for (const auto &[key, value] : out) {
        EXPECT_LT(key, 40u);
        EXPECT_EQ(value, key + 1);
    }

    // Limit larger than population: returns everything once.
    EXPECT_EQ(shard.scan(token, 0, 1000, &out), 40u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, ScanFromEveryStartSeesEachLiveKeyOnce)
{
    // Pinned tables at ~2/3 load with every 3rd key deleted: long
    // probe chains with tombstones in them. A full-capacity scan from
    // any home slot wraps the table and must return each live key
    // exactly once.
    for (const unsigned log2_slots : {4u, 8u}) {
        ShardOptions options = tinyShard(log2_slots);
        options.maxLog2Slots = log2_slots;
        Shard shard(options);
        auto token = shard.registerWorker();
        const std::size_t slots = shard.capacity();
        const std::uint64_t keys = slots * 2 / 3; // below the grow load

        std::vector<std::uint64_t> live;
        for (std::uint64_t key = 0; key < keys; ++key)
            ASSERT_TRUE(shard.put(token, key, key + 1));
        for (std::uint64_t key = 0; key < keys; ++key) {
            if (key % 3 == 0)
                ASSERT_TRUE(shard.del(token, key));
            else
                live.push_back(key);
        }
        std::size_t tombstones = 0;
        for (std::size_t slot = 0; slot < slots; ++slot)
            tombstones += shard.ctrlByteQuiesced(slot) == kCtrlTombstone;
        ASSERT_GT(tombstones, 0u) << "deletes left no tombstones";

        // Start keys until every home slot has been a scan start.
        std::vector<bool> started(slots, false);
        std::size_t starts = 0;
        for (std::uint64_t start = 0; starts < slots; ++start) {
            const std::size_t home = Shard::keyHash(start) & (slots - 1);
            if (started[home])
                continue;
            started[home] = true;
            ++starts;
            std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
            ASSERT_EQ(shard.scan(token, start, slots, &out), live.size())
                << "log2 " << log2_slots << " start " << start;
            std::vector<std::uint64_t> seen;
            for (const auto &[key, value] : out) {
                EXPECT_EQ(value, key + 1);
                seen.push_back(key);
            }
            std::sort(seen.begin(), seen.end());
            ASSERT_EQ(seen, live)
                << "log2 " << log2_slots << " start " << start;
        }

        shard.deregisterWorker(token);
    }
}

TEST(ShardTest, TtlSweepChunkWrapsTheTable)
{
    // 16 pinned slots, one sweep chunk wider than the table: each
    // sweep visits all 16 slots from cursor % 16 on. The first sweep
    // (tick 0, cursor 0) runs during the puts, before anything
    // expires; the later ones start at slots 1, 2, 3 and reach slot 0
    // only by wrapping past slot 15.
    ShardOptions options = tinyShard(4);
    options.maxLog2Slots = 4;
    options.sweepChunkSlots = 17;
    Shard shard(options);
    auto token = shard.registerWorker();
    const std::size_t slots = shard.capacity();
    const auto home = [&](std::uint64_t key) {
        return Shard::keyHash(key) & (slots - 1);
    };
    const auto keys_homed = [&](auto &&pred, std::size_t count) {
        std::vector<std::uint64_t> keys;
        for (std::uint64_t key = 0; keys.size() < count; ++key)
            if (pred(home(key)))
                keys.push_back(key);
        return keys;
    };

    // TTL'd keys homed at 15 and 0 fill slots 15, 0, 1, 2; the
    // others are homed at slots 4-8.
    std::vector<std::uint64_t> ttl_keys =
        keys_homed([](std::size_t h) { return h == 15; }, 2);
    for (const std::uint64_t key :
         keys_homed([](std::size_t h) { return h == 0; }, 2))
        ttl_keys.push_back(key);
    const std::vector<std::uint64_t> kept = keys_homed(
        [](std::size_t h) { return h >= 4 && h <= 8; }, 4);

    constexpr std::uint64_t kTtl = 30ull * 1000 * 1000; // 30 ms
    for (const std::uint64_t key : ttl_keys)
        ASSERT_TRUE(shard.put(token, key, key, kTtl));
    for (const std::uint64_t key : kept)
        ASSERT_TRUE(shard.put(token, key, key));
    ASSERT_EQ(shard.findSlotQuiesced(ttl_keys[0]), 15u);
    ASSERT_EQ(shard.findSlotQuiesced(ttl_keys[1]), 0u);

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (int i = 0; i < 200; ++i)
        shard.maintainTick(token);

    // Swept: the slots are tombstones now, not merely read as absent.
    for (const std::uint64_t key : ttl_keys) {
        EXPECT_EQ(shard.findSlotQuiesced(key), slots) << key;
        EXPECT_FALSE(shard.get(token, key)) << key;
    }
    EXPECT_EQ(shard.ctrlByteQuiesced(15), kCtrlTombstone);
    EXPECT_EQ(shard.ctrlByteQuiesced(0), kCtrlTombstone);
    std::uint64_t value = 0;
    for (const std::uint64_t key : kept) {
        EXPECT_LT(shard.findSlotQuiesced(key), slots) << key;
        ASSERT_TRUE(shard.get(token, key, &value)) << key;
        EXPECT_EQ(value, key);
    }

    shard.deregisterWorker(token);
}

TEST(ShardTest, RejectsTablesBelowOneCtrlGroup)
{
    EXPECT_THROW(Shard{tinyShard(3)}, std::invalid_argument);
    Shard shard(tinyShard(4));
    EXPECT_EQ(shard.capacity(), 16u);
}

TEST(ShardTest, AddTxComposesReadModifyWrite)
{
    Shard shard(tinyShard(8));
    auto token = shard.registerWorker();

    shard.poly().run(token, [&](polytm::Tx &tx) {
        EXPECT_TRUE(shard.addTx(tx, 7, 10));
        EXPECT_TRUE(shard.addTx(tx, 7, -4));
    });
    std::uint64_t value = 0;
    EXPECT_TRUE(shard.get(token, 7, &value));
    EXPECT_EQ(value, 6u);

    shard.deregisterWorker(token);
}

TEST(ShardTest, SurvivesLiveReconfiguration)
{
    Shard shard(tinyShard(10));
    auto token = shard.registerWorker();
    for (std::uint64_t key = 0; key < 100; ++key)
        ASSERT_TRUE(shard.put(token, key, key));

    for (const auto backend :
         {tm::BackendKind::kNorec, tm::BackendKind::kSwissTm,
          tm::BackendKind::kSimHtm, tm::BackendKind::kTl2}) {
        shard.poly().reconfigure({backend, 1, {}});
        std::uint64_t value = 0;
        for (std::uint64_t key = 0; key < 100; key += 17) {
            EXPECT_TRUE(shard.get(token, key, &value));
            EXPECT_EQ(value, key);
        }
    }

    shard.deregisterWorker(token);
}

} // namespace
} // namespace proteus::kvstore
