/**
 * @file
 * 16-lane byte matching over register data — the probe filter's only
 * SIMD dependency.
 *
 * The KV probe loop (see kvstore/shard.cpp) reads two 64-bit control
 * words through the TM layer and needs "which of these 16 bytes equal
 * X" / "which have the high bit set" as a lane bitmask. Both
 * primitives take the words BY VALUE: matching runs on register data
 * the caller already owns, so the SIMD layer performs no memory loads
 * of its own — no unaligned access, no racy wide reads, nothing for
 * TSan to see.
 *
 * Dispatch is compile-time: SSE2 when the target has it (baseline on
 * x86-64), a portable per-byte fallback otherwise. The portable path
 * is always compiled, and unit-tested against brute force alongside
 * the SSE2 one.
 *
 * Lane numbering: lane i (0..7) is byte i of `lo` (little-endian byte
 * order, i.e. bits [8i, 8i+8)), lane 8+i is byte i of `hi`.
 */

#ifndef PROTEUS_COMMON_SIMD_HPP
#define PROTEUS_COMMON_SIMD_HPP

#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#define PROTEUS_SIMD_SSE2 1
#else
#define PROTEUS_SIMD_SSE2 0
#endif

namespace proteus::simd {

/** Portable path: lane mask of bytes equal to `byte`. */
inline std::uint32_t
matchByte16Scalar(std::uint64_t lo, std::uint64_t hi,
                  std::uint8_t byte)
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < 8; ++i) {
        mask |= static_cast<std::uint32_t>(
                    ((lo >> (8 * i)) & 0xff) == byte)
                << i;
        mask |= static_cast<std::uint32_t>(
                    ((hi >> (8 * i)) & 0xff) == byte)
                << (8 + i);
    }
    return mask;
}

/** Portable path: lane mask of bytes with bit 7 set. */
inline std::uint32_t
matchHighBit16Scalar(std::uint64_t lo, std::uint64_t hi)
{
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < 8; ++i) {
        mask |= static_cast<std::uint32_t>((lo >> (8 * i + 7)) & 1)
                << i;
        mask |= static_cast<std::uint32_t>((hi >> (8 * i + 7)) & 1)
                << (8 + i);
    }
    return mask;
}

#if PROTEUS_SIMD_SSE2

inline std::uint32_t
matchByte16Sse2(std::uint64_t lo, std::uint64_t hi, std::uint8_t byte)
{
    const __m128i group = _mm_set_epi64x(
        static_cast<long long>(hi), static_cast<long long>(lo));
    const __m128i needle = _mm_set1_epi8(static_cast<char>(byte));
    return static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(group, needle)));
}

inline std::uint32_t
matchHighBit16Sse2(std::uint64_t lo, std::uint64_t hi)
{
    const __m128i group = _mm_set_epi64x(
        static_cast<long long>(hi), static_cast<long long>(lo));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(group));
}

#endif // PROTEUS_SIMD_SSE2

/** Lane mask (bit i = lane i) of the 16 bytes in (hi:lo) equal to
 *  `byte`. */
inline std::uint32_t
matchByte16(std::uint64_t lo, std::uint64_t hi, std::uint8_t byte)
{
#if PROTEUS_SIMD_SSE2
    return matchByte16Sse2(lo, hi, byte);
#else
    return matchByte16Scalar(lo, hi, byte);
#endif
}

/** Lane mask of the 16 bytes in (hi:lo) whose bit 7 is set. */
inline std::uint32_t
matchHighBit16(std::uint64_t lo, std::uint64_t hi)
{
#if PROTEUS_SIMD_SSE2
    return matchHighBit16Sse2(lo, hi);
#else
    return matchHighBit16Scalar(lo, hi);
#endif
}

} // namespace proteus::simd

#endif // PROTEUS_COMMON_SIMD_HPP
