/**
 * simd.hpp tests: both lane-match paths (SSE2 when compiled in, the
 * portable per-byte fallback always) against hand-computed patterns
 * and against each other on random words, plus lane-numbering pins.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace proteus::simd {
namespace {

/** Independent brute-force reference, structured differently from
 *  the scalar path on purpose. */
std::uint32_t
refMatchByte(std::uint64_t lo, std::uint64_t hi, std::uint8_t byte)
{
    std::uint8_t bytes[16];
    for (unsigned i = 0; i < 8; ++i) {
        bytes[i] = static_cast<std::uint8_t>(lo >> (8 * i));
        bytes[8 + i] = static_cast<std::uint8_t>(hi >> (8 * i));
    }
    std::uint32_t mask = 0;
    for (unsigned lane = 0; lane < 16; ++lane)
        if (bytes[lane] == byte)
            mask |= 1u << lane;
    return mask;
}

std::uint32_t
refMatchHighBit(std::uint64_t lo, std::uint64_t hi)
{
    std::uint32_t mask = 0;
    for (unsigned lane = 0; lane < 16; ++lane) {
        const std::uint64_t word = lane < 8 ? lo : hi;
        if ((word >> (8 * (lane & 7) + 7)) & 1)
            mask |= 1u << lane;
    }
    return mask;
}

TEST(SimdTest, LaneNumberingIsLittleEndianLoThenHi)
{
    // Byte 0 of lo is lane 0; byte 0 of hi is lane 8.
    EXPECT_EQ(matchByte16(0xffull, 0, 0xff), 0x0001u);
    EXPECT_EQ(matchByte16(0, 0xffull, 0xff), 0x0100u);
    // Byte 7 of lo is lane 7; byte 7 of hi is lane 15.
    EXPECT_EQ(matchByte16(0xffull << 56, 0, 0xff), 0x0080u);
    EXPECT_EQ(matchByte16(0, 0xffull << 56, 0xff), 0x8000u);
}

TEST(SimdTest, KnownByteMatchPatterns)
{
    EXPECT_EQ(matchByte16(0, 0, 0x00), 0xffffu);
    EXPECT_EQ(matchByte16(0, 0, 0x80), 0u);
    // A fresh ctrl group: all sixteen lanes read "never used".
    const std::uint64_t empty = 0x8080808080808080ull;
    EXPECT_EQ(matchByte16(empty, empty, 0x80), 0xffffu);
    EXPECT_EQ(matchByte16(empty, 0, 0x80), 0x00ffu);
    EXPECT_EQ(matchByte16(0, empty, 0x80), 0xff00u);
    // Mixed word: fingerprint 0x41 in lanes 1 and 6 only.
    const std::uint64_t mixed = 0x0041800080ff4100ull;
    EXPECT_EQ(matchByte16(mixed, 0, 0x41), (1u << 1) | (1u << 6));
    EXPECT_EQ(matchByte16(mixed, 0, 0xff), 1u << 2);
}

TEST(SimdTest, KnownHighBitPatterns)
{
    EXPECT_EQ(matchHighBit16(0, 0), 0u);
    const std::uint64_t empty = 0x8080808080808080ull;
    EXPECT_EQ(matchHighBit16(empty, empty), 0xffffu);
    EXPECT_EQ(matchHighBit16(empty, 0), 0x00ffu);
    // 0x7f (high bit clear) must not match; 0xff and 0x80 must.
    EXPECT_EQ(matchHighBit16(0x7fff807f00000000ull, 0),
              (1u << 5) | (1u << 6));
}

TEST(SimdTest, DispatchAgreesWithScalarAndBruteForce)
{
    Rng rng(0x51);
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t lo = rng.nextU64();
        const std::uint64_t hi = rng.nextU64();
        const auto byte = static_cast<std::uint8_t>(rng.nextU64());
        const std::uint32_t expect_eq = refMatchByte(lo, hi, byte);
        ASSERT_EQ(matchByte16Scalar(lo, hi, byte), expect_eq);
        ASSERT_EQ(matchByte16(lo, hi, byte), expect_eq);
        const std::uint32_t expect_hi = refMatchHighBit(lo, hi);
        ASSERT_EQ(matchHighBit16Scalar(lo, hi), expect_hi);
        ASSERT_EQ(matchHighBit16(lo, hi), expect_hi);
    }
}

#if PROTEUS_SIMD_SSE2
TEST(SimdTest, Sse2PathAgreesWithScalarOnBiasedBytes)
{
    // Bias toward the probe's real operands: 0x80 / 0xff / small
    // fingerprints, repeated across lanes, where SWAR-style bugs
    // (carry between lanes) would show.
    Rng rng(0x52);
    const std::uint8_t bytes[] = {0x00, 0x01, 0x7f, 0x80, 0x81, 0xff};
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t lo = 0, hi = 0;
        for (unsigned b = 0; b < 8; ++b) {
            lo |= static_cast<std::uint64_t>(
                      bytes[rng.nextBounded(6)])
                  << (8 * b);
            hi |= static_cast<std::uint64_t>(
                      bytes[rng.nextBounded(6)])
                  << (8 * b);
        }
        for (const std::uint8_t needle : bytes) {
            ASSERT_EQ(matchByte16Sse2(lo, hi, needle),
                      matchByte16Scalar(lo, hi, needle));
        }
        ASSERT_EQ(matchHighBit16Sse2(lo, hi),
                  matchHighBit16Scalar(lo, hi));
    }
}
#endif

} // namespace
} // namespace proteus::simd
