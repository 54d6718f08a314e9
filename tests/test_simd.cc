/**
 * @file
 * Kernel-layer tests: backend dispatch and scalar/AVX2 bit-identity.
 *
 * The contract under test is the one the whole data plane leans on:
 * every backend computes exactly the same words, so AEGIS_SIMD can
 * never change a simulation result. Each kernel is exercised across
 * span lengths that cover the vector body, the scalar tail, and the
 * empty span, on operands from a fixed-seed Rng.
 */

#include "util/simd/simd.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/simd/backends.h"

namespace aegis {
namespace {

using simd::Backend;

std::vector<std::uint64_t>
randomWords(std::size_t n, Rng &rng)
{
    std::vector<std::uint64_t> w(n);
    for (auto &x : w)
        x = rng.nextU64();
    return w;
}

/** Span lengths straddling the 4-word AVX2 body and its tail. */
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100};

class BackendPair : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        avx2 = simd::detail::avx2Backend();
        if (avx2 == nullptr)
            GTEST_SKIP() << "AVX2 backend unavailable on this build/CPU";
        scalar = &simd::detail::kScalarBackend;
    }

    const Backend *scalar = nullptr;
    const Backend *avx2 = nullptr;
};

TEST_F(BackendPair, InPlaceKernelsMatchScalar)
{
    Rng rng(0xABCDEF12345678ull);
    for (std::size_t n : kLengths) {
        const auto src = randomWords(n, rng);
        const auto dst0 = randomWords(n, rng);
        struct Case {
            const char *name;
            void (*Backend::*op)(std::uint64_t *, const std::uint64_t *,
                                 std::size_t);
        };
        const Case cases[] = {
            {"xor", &Backend::xorWords},
            {"or", &Backend::orWords},
            {"and", &Backend::andWords},
        };
        for (const auto &c : cases) {
            auto a = dst0;
            auto b = dst0;
            (scalar->*(c.op))(a.data(), src.data(), n);
            (avx2->*(c.op))(b.data(), src.data(), n);
            EXPECT_EQ(a, b) << c.name << " n=" << n;
        }
    }
}

TEST_F(BackendPair, TernaryKernelsMatchScalar)
{
    Rng rng(0x5EED5EED5EEDull);
    for (std::size_t n : kLengths) {
        const auto value = randomWords(n, rng);
        const auto mask = randomWords(n, rng);
        const auto base = randomWords(n, rng);
        const auto dst0 = randomWords(n, rng);

        auto a = dst0;
        auto b = dst0;
        scalar->xorAndNotWords(a.data(), value.data(), mask.data(), n);
        avx2->xorAndNotWords(b.data(), value.data(), mask.data(), n);
        EXPECT_EQ(a, b) << "xorAndNot n=" << n;

        a = dst0;
        b = dst0;
        scalar->selectWords(a.data(), base.data(), value.data(),
                            mask.data(), n);
        avx2->selectWords(b.data(), base.data(), value.data(),
                          mask.data(), n);
        EXPECT_EQ(a, b) << "select n=" << n;
    }
}

TEST_F(BackendPair, ReductionsMatchScalar)
{
    Rng rng(0x1234123412341234ull);
    for (std::size_t n : kLengths) {
        const auto a = randomWords(n, rng);
        auto b = a;
        // A mismatch planted at every position in turn exercises every
        // word of the first-mismatch scan.
        EXPECT_EQ(scalar->popcountWords(a.data(), n),
                  avx2->popcountWords(a.data(), n));
        EXPECT_EQ(scalar->xorPopcountWords(a.data(), b.data(), n),
                  avx2->xorPopcountWords(a.data(), b.data(), n));
        EXPECT_EQ(avx2->firstMismatchWords(a.data(), b.data(), n), n);
        for (std::size_t flip = 0; flip < n; ++flip) {
            b[flip] ^= 0x8000000000000001ull;
            EXPECT_EQ(
                scalar->firstMismatchWords(a.data(), b.data(), n),
                avx2->firstMismatchWords(a.data(), b.data(), n))
                << "n=" << n << " flip=" << flip;
            EXPECT_EQ(scalar->xorPopcountWords(a.data(), b.data(), n),
                      avx2->xorPopcountWords(a.data(), b.data(), n));
            b[flip] = a[flip];
        }
    }
}

TEST(SimdDispatch, ScalarAlwaysSelectable)
{
    const std::string before = simd::backendName();
    ASSERT_TRUE(simd::selectBackend("scalar"));
    EXPECT_STREQ(simd::backendName(), "scalar");
    ASSERT_TRUE(simd::selectBackend("auto"));
    if (simd::avx2Available())
        EXPECT_STREQ(simd::backendName(), "avx2");
    else
        EXPECT_STREQ(simd::backendName(), "scalar");
    ASSERT_TRUE(simd::selectBackend(before));
}

TEST(SimdDispatch, UnknownBackendRejectedWithoutSideEffects)
{
    const std::string before = simd::backendName();
    EXPECT_FALSE(simd::selectBackend("avx512"));
    EXPECT_FALSE(simd::selectBackend(""));
    EXPECT_EQ(before, simd::backendName());
}

TEST(SimdDispatch, Avx2SelectableExactlyWhenAvailable)
{
    const std::string before = simd::backendName();
    EXPECT_EQ(simd::selectBackend("avx2"), simd::avx2Available());
    ASSERT_TRUE(simd::selectBackend(before));
}

} // namespace
} // namespace aegis
