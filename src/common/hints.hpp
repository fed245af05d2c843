/**
 * @file
 * Branch-prediction hints for hot probe loops.
 *
 * Thin, compiler-gated wrappers: hints are advisory only and compile
 * to nothing on toolchains without the builtins, so call sites stay
 * portable. Use sparingly — only on branches whose skew is structural
 * (e.g. "this slot carries no write intent" on the KV probe loop),
 * never on data-dependent guesses.
 */

#ifndef PROTEUS_COMMON_HINTS_HPP
#define PROTEUS_COMMON_HINTS_HPP

#if defined(__GNUC__) || defined(__clang__)
#define PROTEUS_LIKELY(x) __builtin_expect(!!(x), 1)
#define PROTEUS_UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define PROTEUS_LIKELY(x) (x)
#define PROTEUS_UNLIKELY(x) (x)
#endif

#endif // PROTEUS_COMMON_HINTS_HPP
