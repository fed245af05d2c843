/**
 * Resident-memory footprint of the TM metadata and the shard tables.
 *
 * PolyTM keeps every backend constructed so it can switch live, but
 * orec tables are lazily mapped: constructing a PolyTm or a KvStore
 * must not make the idle backends' tables resident, and switching
 * away from a backend must hand its table back. RSS is read from
 * /proc/self/statm. Sanitizer builds skip these checks, because
 * shadow memory distorts RSS.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "kvstore/kvstore.hpp"
#include "polytm/polytm.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PROTEUS_FOOTPRINT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PROTEUS_FOOTPRINT_SANITIZED 1
#endif
#endif

namespace proteus {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/** Resident set size of this process in MiB. */
double
rssMib()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return -1.0;
    unsigned long size = 0;
    unsigned long resident = 0;
    const int n = std::fscanf(f, "%lu %lu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return -1.0;
    return static_cast<double>(resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE)) / kMiB;
}

class FootprintTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
#ifdef PROTEUS_FOOTPRINT_SANITIZED
        GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
#endif
        if (rssMib() < 0)
            GTEST_SKIP() << "/proc/self/statm unreadable";
    }
};

TEST_F(FootprintTest, DefaultKvStoreConstructionStaysSmall)
{
    const double before = rssMib();
    auto store = std::make_unique<kvstore::KvStore>();
    const double grown = rssMib() - before;
    // 4 shards x 6 orec backends x 4 MiB would be 96 MiB if the
    // tables were filled eagerly.
    EXPECT_LT(grown, 16.0) << "RSS grew " << grown << " MiB";
}

TEST_F(FootprintTest, PolyTmConstructionStaysSmall)
{
    const double before = rssMib();
    auto poly = std::make_unique<polytm::PolyTm>(polytm::TmConfig{},
                                                 tm::SimHtmConfig{}, 18);
    const double grown = rssMib() - before;
    // Six 16 MiB orec tables at log2_orecs 18.
    EXPECT_LT(grown, 16.0) << "RSS grew " << grown << " MiB";
}

TEST_F(FootprintTest, SwitchingAwayFromTl2ReleasesItsTable)
{
    constexpr unsigned kLog2Orecs = 18;
    const double table_mib =
        static_cast<double>(std::size_t{1} << kLog2Orecs) *
        sizeof(tm::Orec) / kMiB;

    polytm::PolyTm poly({tm::BackendKind::kTl2, 1, {}}, {}, kLog2Orecs);
    auto token = poly.registerThread();

    // Writing one word per stripe's worth of addresses locks (and so
    // dirties) nearly every page of TL2's table.
    std::vector<std::uint64_t> words(std::size_t{1} << kLog2Orecs);
    constexpr std::size_t kPerTx = 256;
    for (std::size_t base = 0; base < words.size(); base += kPerTx) {
        poly.run(token, [&](polytm::Tx &tx) {
            for (std::size_t i = base; i < base + kPerTx; ++i)
                tx.writeWord(&words[i], i);
        });
    }
    ASSERT_EQ(words.back(), words.size() - 1);

    const double busy = rssMib();
    poly.reconfigure({tm::BackendKind::kNorec, 1, {}});
    const double released = busy - rssMib();
    EXPECT_GE(released, table_mib / 2)
        << "switching to NOrec released " << released << " MiB of a "
        << table_mib << " MiB TL2 table";
    poly.deregisterThread(token);
}

} // namespace
} // namespace proteus
