/**
 * @file
 * Unit tests for util/bit_vector.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/bit_vector.h"
#include "util/error.h"
#include "util/rng.h"

namespace aegis {
namespace {

TEST(BitVector, DefaultIsEmpty)
{
    BitVector v;
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, ConstructZeroed)
{
    BitVector v(100);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_TRUE(v.none());
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_FALSE(v.get(i));
}

TEST(BitVector, ConstructFilled)
{
    BitVector v(70, true);
    EXPECT_EQ(v.popcount(), 70u);
    EXPECT_TRUE(v.any());
}

TEST(BitVector, SetGetFlip)
{
    BitVector v(65);
    v.set(0, true);
    v.set(64, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_FALSE(v.get(32));
    v.flip(64);
    EXPECT_FALSE(v.get(64));
    v.flip(32);
    EXPECT_TRUE(v.get(32));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVector, FillAndInvert)
{
    BitVector v(67);
    v.fill(true);
    EXPECT_EQ(v.popcount(), 67u);
    v.invert();
    EXPECT_EQ(v.popcount(), 0u);
    v.set(3, true);
    v.invert();
    EXPECT_EQ(v.popcount(), 66u);
    EXPECT_FALSE(v.get(3));
}

TEST(BitVector, TailBitsStayMasked)
{
    // Operations on a non-word-multiple size must not leak set bits
    // beyond size() (popcount would be wrong otherwise).
    BitVector v(3, true);
    v.invert();
    v.fill(true);
    EXPECT_EQ(v.popcount(), 3u);
    BitVector w = ~v;
    EXPECT_EQ(w.popcount(), 0u);
}

TEST(BitVector, SetBitsAndFirstSetBit)
{
    BitVector v(130);
    EXPECT_EQ(v.firstSetBit(), 130u);
    v.set(5, true);
    v.set(64, true);
    v.set(129, true);
    const auto bits = v.setBits();
    ASSERT_EQ(bits.size(), 3u);
    EXPECT_EQ(bits[0], 5u);
    EXPECT_EQ(bits[1], 64u);
    EXPECT_EQ(bits[2], 129u);
    EXPECT_EQ(v.firstSetBit(), 5u);
}

TEST(BitVector, BitwiseOps)
{
    BitVector a = BitVector::fromString("1100");
    BitVector b = BitVector::fromString("1010");
    EXPECT_EQ((a ^ b).toString(), "0110");
    EXPECT_EQ((~a).toString(), "0011");
}

TEST(BitVector, EqualityAndHamming)
{
    BitVector a = BitVector::fromString("10110");
    BitVector b = BitVector::fromString("10011");
    EXPECT_NE(a, b);
    EXPECT_EQ(a.hammingDistance(b), 2u);
    EXPECT_EQ(a.hammingDistance(a), 0u);
    BitVector c = a;
    EXPECT_EQ(a, c);
}

TEST(BitVector, FromStringRejectsJunk)
{
    EXPECT_THROW(BitVector::fromString("10a1"), ConfigError);
}

TEST(BitVector, RoundTripString)
{
    const std::string s = "101100111000101";
    EXPECT_EQ(BitVector::fromString(s).toString(), s);
}

TEST(BitVector, RandomizeIsDeterministicPerSeed)
{
    Rng r1(42), r2(42), r3(43);
    const BitVector a = BitVector::random(512, r1);
    const BitVector b = BitVector::random(512, r2);
    const BitVector c = BitVector::random(512, r3);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // A fair 512-bit draw is essentially never all-zero/one and has
    // roughly half the bits set.
    EXPECT_GT(a.popcount(), 150u);
    EXPECT_LT(a.popcount(), 362u);
}

TEST(BitVector, WordPackingMatchesBitOrder)
{
    BitVector v(128);
    v.set(0, true);
    v.set(63, true);
    v.set(64, true);
    EXPECT_EQ(v.words()[0], (1ull << 63) | 1ull);
    EXPECT_EQ(v.words()[1], 1ull);
}

TEST(BitVector, SizeMismatchIsAnError)
{
    BitVector a(8), b(9);
    EXPECT_THROW(a ^= b, InternalError);
    EXPECT_THROW(a.hammingDistance(b), InternalError);
}

TEST(BitVector, OutOfRangeAccessThrows)
{
    BitVector v(8);
    EXPECT_THROW(v.get(8), InternalError);
    EXPECT_THROW(v.set(9, true), InternalError);
    EXPECT_THROW(v.flip(100), InternalError);
}

class BitVectorSizes : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(BitVectorSizes, InvertTwiceIsIdentity)
{
    Rng rng(GetParam() * 7919 + 1);
    BitVector v = BitVector::random(GetParam(), rng);
    BitVector w = v;
    w.invert();
    EXPECT_EQ(v.hammingDistance(w), v.size());
    w.invert();
    EXPECT_EQ(v, w);
}

TEST_P(BitVectorSizes, XorWithSelfIsZero)
{
    Rng rng(GetParam() * 104729 + 3);
    BitVector v = BitVector::random(GetParam(), rng);
    EXPECT_TRUE((v ^ v).none());
}

TEST_P(BitVectorSizes, InPlaceOpsMatchPerBitReference)
{
    const std::size_t n = GetParam();
    Rng rng(n * 6151 + 5);
    const BitVector a = BitVector::random(n, rng);
    const BitVector b = BitVector::random(n, rng);

    BitVector v = a;
    v.xorAssign(b);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(v.get(i), a.get(i) != b.get(i)) << i;

    // invertMasked == XOR with the mask.
    v = a;
    v.invertMasked(b);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(v.get(i), b.get(i) ? !a.get(i) : a.get(i)) << i;
}

TEST_P(BitVectorSizes, XorAssignAndNotMatchesPerBitReference)
{
    const std::size_t n = GetParam();
    Rng rng(n * 12289 + 7);
    const BitVector a = BitVector::random(n, rng);
    const BitVector value = BitVector::random(n, rng);
    const BitVector mask = BitVector::random(n, rng);

    BitVector v = a;
    v.xorAssignAndNot(value, mask);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(v.get(i),
                  a.get(i) != (value.get(i) && !mask.get(i)))
            << i;
    }
}

TEST_P(BitVectorSizes, AssignSelectMatchesPerBitReference)
{
    const std::size_t n = GetParam();
    Rng rng(n * 24593 + 11);
    const BitVector base = BitVector::random(n, rng);
    const BitVector chosen = BitVector::random(n, rng);
    const BitVector mask = BitVector::random(n, rng);

    BitVector out;    // deliberately unsized: assignSelect resizes
    out.assignSelect(base, chosen, mask);
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out.get(i),
                  mask.get(i) ? chosen.get(i) : base.get(i))
            << i;
    }
}

TEST_P(BitVectorSizes, AssignFromEqualsAndFirstMismatch)
{
    const std::size_t n = GetParam();
    Rng rng(n * 49157 + 13);
    const BitVector a = BitVector::random(n, rng);

    BitVector copy;
    copy.assignFrom(a);
    EXPECT_TRUE(copy.equals(a));
    EXPECT_TRUE(a.equals(copy));

    // Flip one bit: equality must fail from either side.
    const std::size_t where = rng.nextBounded(n);
    copy.flip(where);
    EXPECT_FALSE(copy.equals(a));
    EXPECT_FALSE(a.equals(copy));
}

TEST_P(BitVectorSizes, ForEachSetBitVisitsSetBitsAscending)
{
    const std::size_t n = GetParam();
    Rng rng(n * 786433 + 17);
    const BitVector v = BitVector::random(n, rng);

    std::vector<std::size_t> visited;
    v.forEachSetBit([&visited](std::size_t i) { visited.push_back(i); });
    const auto expected = v.setBits();
    ASSERT_EQ(visited.size(), expected.size());
    for (std::size_t i = 0; i < visited.size(); ++i)
        ASSERT_EQ(visited[i], expected[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorSizes,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128,
                                           256, 511, 512));

} // namespace
} // namespace aegis
