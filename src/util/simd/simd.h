/**
 * @file
 * Runtime-dispatched bulk bitwise kernels over 64-bit word spans.
 *
 * This is the single home for explicit vectorization in the project:
 * a small fixed vocabulary of kernels (xor / andnot / select /
 * popcount / first-mismatch over contiguous word spans) behind one
 * function-pointer table. BitVector's in-place word operations and
 * CellArray's read/differential-write paths are thin wrappers over
 * these kernels.
 *
 * Backend selection happens once at startup: AVX2 when both the build
 * and the CPU support it, portable scalar otherwise. The environment
 * variable AEGIS_SIMD (auto | scalar | avx2) overrides the choice, and
 * selectBackend() overrides it programmatically for in-process tests.
 * Every backend computes bit-identical results — the kernels are pure
 * word-wise bitwise transforms — so the backend can never change
 * simulation output, only its speed. Raw vector intrinsics are
 * confined to src/util/simd/ (lint rule SIMD-CONFINE).
 */

#ifndef AEGIS_UTIL_SIMD_SIMD_H
#define AEGIS_UTIL_SIMD_SIMD_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace aegis::simd {

/**
 * One backend's kernel table. All spans are in 64-bit words; callers
 * pass word counts, never bit counts. Distinct operand spans must not
 * overlap (a span may alias itself as dst, as the in-place signatures
 * show).
 */
struct Backend
{
    const char *name;

    /** dst[i] ^= src[i] */
    void (*xorWords)(std::uint64_t *dst, const std::uint64_t *src,
                     std::size_t n);

    /** dst[i] ^= value[i] & ~mask[i] */
    void (*xorAndNotWords)(std::uint64_t *dst,
                           const std::uint64_t *value,
                           const std::uint64_t *mask, std::size_t n);

    /** dst[i] = (base[i] & ~mask[i]) | (chosen[i] & mask[i]) */
    void (*selectWords)(std::uint64_t *dst, const std::uint64_t *base,
                        const std::uint64_t *chosen,
                        const std::uint64_t *mask, std::size_t n);

    /** Sum of popcount(w[i]). */
    std::size_t (*popcountWords)(const std::uint64_t *w, std::size_t n);

    /** Sum of popcount(a[i] ^ b[i]) — Hamming distance in words. */
    std::size_t (*xorPopcountWords)(const std::uint64_t *a,
                                    const std::uint64_t *b,
                                    std::size_t n);

    /** Smallest i with a[i] != b[i], or n when the spans are equal. */
    std::size_t (*firstMismatchWords)(const std::uint64_t *a,
                                      const std::uint64_t *b,
                                      std::size_t n);
};

namespace detail {
/** Active table. Constant-initialized to scalar so kernel calls made
 *  during other translation units' static initialization are always
 *  safe; the AEGIS_SIMD/CPU upgrade happens in simd.cc's initializer
 *  and, being bit-exact, is invisible except in speed. */
extern const Backend *gActive;
} // namespace detail

/** The active kernel table. */
inline const Backend &backend() { return *detail::gActive; }

/** Name of the active backend ("scalar" or "avx2"). */
const char *backendName();

/**
 * Force a backend: "auto" (re-run startup detection), "scalar", or
 * "avx2". Returns false — leaving the active backend unchanged — when
 * the named backend is unknown or unavailable on this build/CPU.
 * Not thread-safe; call before spawning workers (tests only).
 */
bool selectBackend(std::string_view name);

/** True when this build carries the AVX2 backend and the CPU runs it. */
bool avx2Available();

// ---- convenience wrappers (the call sites read better) -------------

inline void
xorWords(std::uint64_t *dst, const std::uint64_t *src, std::size_t n)
{ backend().xorWords(dst, src, n); }

inline void
xorAndNotWords(std::uint64_t *dst, const std::uint64_t *value,
               const std::uint64_t *mask, std::size_t n)
{ backend().xorAndNotWords(dst, value, mask, n); }

inline void
selectWords(std::uint64_t *dst, const std::uint64_t *base,
            const std::uint64_t *chosen, const std::uint64_t *mask,
            std::size_t n)
{ backend().selectWords(dst, base, chosen, mask, n); }

inline std::size_t
popcountWords(const std::uint64_t *w, std::size_t n)
{ return backend().popcountWords(w, n); }

inline std::size_t
xorPopcountWords(const std::uint64_t *a, const std::uint64_t *b,
                 std::size_t n)
{ return backend().xorPopcountWords(a, b, n); }

inline std::size_t
firstMismatchWords(const std::uint64_t *a, const std::uint64_t *b,
                   std::size_t n)
{ return backend().firstMismatchWords(a, b, n); }

} // namespace aegis::simd

#endif // AEGIS_UTIL_SIMD_SIMD_H
