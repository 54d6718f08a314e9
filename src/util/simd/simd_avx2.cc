/**
 * @file
 * AVX2 kernel backend (the only translation unit built with -mavx2).
 *
 * Each kernel processes four 64-bit words per 256-bit vector with a
 * scalar tail, computing exactly the word-wise results of the scalar
 * backend. Population counts stay scalar — AVX2 has no vector popcount
 * — but this TU's -mavx2 baseline turns std::popcount into the POPCNT
 * instruction, which the portable backend cannot assume.
 *
 * When the build disables the backend (AEGIS_ENABLE_AVX2=OFF or a
 * compiler without -mavx2), this file compiles to the nullptr stub and
 * dispatch stays on scalar; when built in, __builtin_cpu_supports
 * gates it at runtime so one binary serves CPUs with and without AVX2.
 */

#include "util/simd/backends.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

#include "util/hot.h"

namespace aegis::simd::detail {

namespace {

inline __m256i
load4(const std::uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
store4(std::uint64_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

AEGIS_HOT void
xorWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(dst + i, _mm256_xor_si256(load4(dst + i), load4(src + i)));
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

AEGIS_HOT void
orWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(dst + i, _mm256_or_si256(load4(dst + i), load4(src + i)));
    for (; i < n; ++i)
        dst[i] |= src[i];
}

AEGIS_HOT void
andWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        store4(dst + i, _mm256_and_si256(load4(dst + i), load4(src + i)));
    for (; i < n; ++i)
        dst[i] &= src[i];
}

AEGIS_HOT void
xorAndNotWords(std::uint64_t *dst, const std::uint64_t *value,
               const std::uint64_t *mask, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i masked =
            _mm256_andnot_si256(load4(mask + i), load4(value + i));
        store4(dst + i, _mm256_xor_si256(load4(dst + i), masked));
    }
    for (; i < n; ++i)
        dst[i] ^= value[i] & ~mask[i];
}

AEGIS_HOT void
selectWords(std::uint64_t *dst, const std::uint64_t *base,
            const std::uint64_t *chosen, const std::uint64_t *mask,
            std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i m = load4(mask + i);
        const __m256i kept = _mm256_andnot_si256(m, load4(base + i));
        const __m256i taken = _mm256_and_si256(m, load4(chosen + i));
        store4(dst + i, _mm256_or_si256(kept, taken));
    }
    for (; i < n; ++i)
        dst[i] = (base[i] & ~mask[i]) | (chosen[i] & mask[i]);
}

AEGIS_HOT std::size_t
popcountWords(const std::uint64_t *w, std::size_t n)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::size_t>(std::popcount(w[i]));
    return count;
}

AEGIS_HOT std::size_t
xorPopcountWords(const std::uint64_t *a, const std::uint64_t *b,
                 std::size_t n)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
    return count;
}

AEGIS_HOT std::size_t
firstMismatchWords(const std::uint64_t *a, const std::uint64_t *b,
                   std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i eq =
            _mm256_cmpeq_epi64(load4(a + i), load4(b + i));
        const unsigned lanes_equal = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
        if (lanes_equal != 0xFu) {
            const unsigned first = static_cast<unsigned>(
                std::countr_one(lanes_equal));
            return i + first;
        }
    }
    for (; i < n; ++i) {
        if (a[i] != b[i])
            return i;
    }
    return n;
}

const Backend kAvx2Backend = {
    "avx2",          &xorWords,         &orWords,
    &andWords,       &xorAndNotWords,   &selectWords,
    &popcountWords,  &xorPopcountWords, &firstMismatchWords,
};

} // namespace

const Backend *
avx2Backend()
{
    if (__builtin_cpu_supports("avx2"))
        return &kAvx2Backend;
    return nullptr;
}

} // namespace aegis::simd::detail

#else // !defined(__AVX2__)

namespace aegis::simd::detail {

const Backend *
avx2Backend()
{
    return nullptr;
}

} // namespace aegis::simd::detail

#endif // defined(__AVX2__)
