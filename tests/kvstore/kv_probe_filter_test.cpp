/**
 * Control-byte probe filter tests: the group-filtered probe must rest
 * its correctness entirely on the transactional state/key words —
 * fingerprint collisions fall through to the key check, deliberately
 * corrupted hints (in the directions that keep lanes visible) only add
 * probes, and lookups on a churned, grown table agree with a
 * std::unordered_map oracle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "kvstore/shard.hpp"

namespace proteus::kvstore {
namespace {

ShardOptions
smallShard(unsigned log2_slots)
{
    ShardOptions options;
    options.log2Slots = log2_slots;
    options.initial = {tm::BackendKind::kTl2, 1, {}};
    return options;
}

/** Keys whose mixed hash lands on `seed`'s home slot (and, when
 *  `same_fp`, also shares its 7-bit fingerprint) in a `slots`-wide
 *  table. Returns `count` keys including the seed. */
std::vector<std::uint64_t>
colliders(std::uint64_t seed, std::size_t slots, std::size_t count,
          bool same_fp)
{
    const std::uint64_t h = Shard::keyHash(seed);
    const std::size_t home = static_cast<std::size_t>(h) & (slots - 1);
    const std::uint8_t fp = ctrlFingerprint(h);
    std::vector<std::uint64_t> keys{seed};
    for (std::uint64_t k = seed + 1; keys.size() < count; ++k) {
        const std::uint64_t kh = Shard::keyHash(k);
        if ((static_cast<std::size_t>(kh) & (slots - 1)) != home)
            continue;
        if (same_fp && ctrlFingerprint(kh) != fp)
            continue;
        keys.push_back(k);
    }
    return keys;
}

TEST(KvProbeFilterTest, FingerprintCollisionFallsThroughToKeyCheck)
{
    Shard shard(smallShard(8));
    auto token = shard.registerWorker();

    // Three resident keys plus one absent, all sharing home slot AND
    // fingerprint: every lookup past the first slot sees fp-matching
    // lanes holding the wrong key.
    const auto keys = colliders(7, shard.capacity(), 4, true);
    for (std::size_t i = 0; i + 1 < keys.size(); ++i)
        ASSERT_TRUE(shard.put(token, keys[i], 1000 + i));

    const std::uint64_t fp_before = shard.ctrlFalsePositives();
    std::uint64_t value = 0;
    for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
        ASSERT_TRUE(shard.get(token, keys[i], &value)) << keys[i];
        EXPECT_EQ(value, 1000 + i);
    }
    EXPECT_FALSE(shard.get(token, keys.back(), &value));
    // The colliding lanes were candidates, the key words vetoed them,
    // and the probe counted each veto.
    EXPECT_GT(shard.ctrlFalsePositives(), fp_before);

    // Each resident key's ctrl byte is its fingerprint — and here all
    // three share it by construction.
    const std::uint8_t fp = ctrlFingerprint(Shard::keyHash(keys[0]));
    for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
        const std::size_t slot = shard.findSlotQuiesced(keys[i]);
        ASSERT_LT(slot, shard.capacity());
        EXPECT_EQ(shard.ctrlByteQuiesced(slot), fp);
    }

    shard.deregisterWorker(token);
}

TEST(KvProbeFilterTest, CorruptedHintsOnlyAddProbes)
{
    Shard shard(smallShard(8));
    auto token = shard.registerWorker();

    constexpr std::uint64_t kKeys = 64;
    for (std::uint64_t key = 0; key < kKeys; ++key)
        ASSERT_TRUE(shard.put(token, key, key * 11));

    // Safe corruption over RESIDENT keys: anything with bit 7 set
    // (empty marker, tombstone marker, garbage) keeps the lane a
    // candidate, and the state word — not the hint — decides.
    const std::uint8_t wrong[] = {kCtrlEmpty, kCtrlTombstone, 0xc7};
    for (std::uint64_t key = 0; key < 3; ++key) {
        const std::size_t slot = shard.findSlotQuiesced(key);
        ASSERT_LT(slot, shard.capacity());
        shard.setCtrlByteQuiesced(slot, wrong[key]);
    }

    // Safe corruption over an EMPTY slot: plant an absent key's
    // fingerprint on its own probe path. The lane becomes a candidate
    // whose kEmpty state word terminates the probe — the key must
    // still read as absent.
    const std::uint64_t absent = 1u << 20;
    ASSERT_EQ(shard.findSlotQuiesced(absent), shard.capacity());
    const std::uint64_t ah = Shard::keyHash(absent);
    std::size_t empty_slot =
        static_cast<std::size_t>(ah) & (shard.capacity() - 1);
    while (shard.ctrlByteQuiesced(empty_slot) != kCtrlEmpty)
        empty_slot = (empty_slot + 1) & (shard.capacity() - 1);
    shard.setCtrlByteQuiesced(empty_slot, ctrlFingerprint(ah));

    const std::uint64_t fp_before = shard.ctrlFalsePositives();
    std::uint64_t value = 0;
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        ASSERT_TRUE(shard.get(token, key, &value)) << key;
        EXPECT_EQ(value, key * 11);
    }
    EXPECT_FALSE(shard.get(token, absent, &value));
    // Corruption is visible only as extra verification reads.
    EXPECT_GE(shard.ctrlFalsePositives(), fp_before);

    // Writes through corrupted hints still work: the overwrite and
    // delete both locate their keys via the state/key words.
    ASSERT_TRUE(shard.put(token, 0, 555));
    ASSERT_TRUE(shard.get(token, 0, &value));
    EXPECT_EQ(value, 555u);
    ASSERT_TRUE(shard.del(token, 1));
    EXPECT_FALSE(shard.get(token, 1, &value));

    shard.deregisterWorker(token);
}

TEST(KvProbeFilterTest, GroupProbeMatchesOracle)
{
    Shard shard(smallShard(6));
    auto token = shard.registerWorker();
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;

    // Enough churn to force growth, tombstones, and long runs.
    constexpr std::uint64_t kKeys = 300;
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        ASSERT_TRUE(shard.put(token, key, key + 1));
        oracle[key] = key + 1;
    }
    for (std::uint64_t key = 0; key < kKeys; key += 3) {
        ASSERT_TRUE(shard.del(token, key));
        oracle.erase(key);
    }
    for (std::uint64_t key = 0; key < kKeys; key += 7) {
        ASSERT_TRUE(shard.put(token, key, key + 2));
        oracle[key] = key + 2;
    }
    ASSERT_GT(shard.capacity(), 64u); // the churn grew the table

    for (std::uint64_t key = 0; key < kKeys + 50; ++key) {
        std::uint64_t value = 0;
        const bool found = shard.get(token, key, &value);
        const auto it = oracle.find(key);
        ASSERT_EQ(found, it != oracle.end()) << key;
        if (found) {
            ASSERT_EQ(value, it->second) << key;
        }
    }

    shard.deregisterWorker(token);
}

TEST(KvProbeFilterTest, TombstoneChainsAcrossGroupsStayReachable)
{
    Shard shard(smallShard(8));
    auto token = shard.registerWorker();

    // 24 same-home keys: the probe chain spans more than one 16-slot
    // ctrl group. Delete the front of the chain, then verify the
    // group scan still crosses the tombstones to the survivors and
    // reuses them for new colliders.
    const auto keys = colliders(3, shard.capacity(), 24, false);
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_TRUE(shard.put(token, keys[i], i));
    for (std::size_t i = 0; i < 12; ++i)
        ASSERT_TRUE(shard.del(token, keys[i]));

    std::uint64_t value = 0;
    for (std::size_t i = 12; i < keys.size(); ++i) {
        ASSERT_TRUE(shard.get(token, keys[i], &value)) << keys[i];
        EXPECT_EQ(value, i);
    }
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_FALSE(shard.get(token, keys[i], &value));
        const std::size_t slot = shard.findSlotQuiesced(keys[i]);
        EXPECT_EQ(slot, shard.capacity());
    }

    // Reinsert into the tombstoned prefix; everything stays reachable.
    for (std::size_t i = 0; i < 12; ++i)
        ASSERT_TRUE(shard.put(token, keys[i], 900 + i));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(shard.get(token, keys[i], &value)) << keys[i];
        EXPECT_EQ(value, i < 12 ? 900 + i : i);
    }
    EXPECT_EQ(shard.sizeQuiesced(), keys.size());

    shard.deregisterWorker(token);
}

} // namespace
} // namespace proteus::kvstore
