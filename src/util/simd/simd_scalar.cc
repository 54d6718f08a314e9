/**
 * @file
 * Portable scalar kernel backend.
 *
 * Plain word loops the compiler may auto-vectorize however the build's
 * baseline ISA allows. This table is the reference implementation: the
 * fuzz oracle forces it via AEGIS_SIMD=scalar and demands bit-identical
 * results from every other backend.
 */

#include "util/simd/backends.h"

#include <bit>

#include "util/hot.h"

namespace aegis::simd::detail {

namespace {

AEGIS_HOT void
xorWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= src[i];
}

AEGIS_HOT void
orWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] |= src[i];
}

AEGIS_HOT void
andWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] &= src[i];
}

AEGIS_HOT void
xorAndNotWords(std::uint64_t *dst, const std::uint64_t *value,
               const std::uint64_t *mask, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= value[i] & ~mask[i];
}

AEGIS_HOT void
selectWords(std::uint64_t *dst, const std::uint64_t *base,
            const std::uint64_t *chosen, const std::uint64_t *mask,
            std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
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
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return i;
    }
    return n;
}

} // namespace

const Backend kScalarBackend = {
    "scalar",        &xorWords,         &orWords,
    &andWords,       &xorAndNotWords,   &selectWords,
    &popcountWords,  &xorPopcountWords, &firstMismatchWords,
};

} // namespace aegis::simd::detail
