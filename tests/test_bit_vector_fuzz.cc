/**
 * @file
 * Differential fuzzing of BitVector against a trivially correct
 * reference model (std::vector<bool>). Random operation sequences on
 * random sizes must agree bit-for-bit on every query.
 */

#include <vector>

#include <gtest/gtest.h>

#include "util/bit_vector.h"
#include "util/rng.h"

namespace aegis {
namespace {

/** The reference: the same API on std::vector<bool>. */
struct Reference
{
    std::vector<bool> bits;

    explicit Reference(std::size_t n)
        : bits(n, false)
    {}

    void set(std::size_t i, bool v) { bits[i] = v; }
    void flip(std::size_t i) { bits[i] = !bits[i]; }

    void
    invert()
    {
        for (std::size_t i = 0; i < bits.size(); ++i)
            bits[i] = !bits[i];
    }

    void
    fill(bool v)
    {
        bits.assign(bits.size(), v);
    }

    std::size_t
    popcount() const
    {
        std::size_t n = 0;
        for (bool b : bits)
            n += b;
        return n;
    }

    void
    xorWith(const Reference &other)
    {
        for (std::size_t i = 0; i < bits.size(); ++i)
            bits[i] = bits[i] != other.bits[i];
    }
};

void
expectSame(const BitVector &v, const Reference &ref)
{
    ASSERT_EQ(v.size(), ref.bits.size());
    ASSERT_EQ(v.popcount(), ref.popcount());
    for (std::size_t i = 0; i < ref.bits.size(); ++i)
        ASSERT_EQ(v.get(i), ref.bits[i]) << "bit " << i;
    // setBits must enumerate exactly the set positions, ascending.
    std::size_t cursor = 0;
    for (std::size_t pos : v.setBits()) {
        while (cursor < pos)
            ASSERT_FALSE(ref.bits[cursor++]);
        ASSERT_TRUE(ref.bits[cursor++]);
    }
    while (cursor < ref.bits.size())
        ASSERT_FALSE(ref.bits[cursor++]);
}

class BitVectorFuzz : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(BitVectorFuzz, AgreesWithReferenceModel)
{
    const std::size_t n = GetParam();
    Rng rng(n * 2654435761u + 17);

    BitVector v(n), w(n);
    Reference rv(n), rw(n);

    for (int step = 0; step < 600; ++step) {
        const auto op = rng.nextBounded(7);
        const auto i = static_cast<std::size_t>(rng.nextBounded(n));
        switch (op) {
          case 0:
            v.set(i, true);
            rv.set(i, true);
            break;
          case 1:
            v.set(i, false);
            rv.set(i, false);
            break;
          case 2:
            v.flip(i);
            rv.flip(i);
            break;
          case 3:
            v.invert();
            rv.invert();
            break;
          case 4:
            w.set(i, true);
            rw.set(i, true);
            break;
          case 5:
            v ^= w;
            rv.xorWith(rw);
            break;
          case 6:
            v.fill(rng.nextBool());
            rv.fill(v.get(0));
            break;
        }
        if (step % 37 == 0)
            expectSame(v, rv);
    }
    expectSame(v, rv);
    expectSame(w, rw);

    // Cross-checks of derived queries.
    EXPECT_EQ(v.hammingDistance(w), (v ^ w).popcount());
    EXPECT_EQ(v.toString(),
              BitVector::fromString(v.toString()).toString());
    EXPECT_EQ((~v).popcount(), n - v.popcount());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorFuzz,
                         ::testing::Values(1, 3, 31, 32, 33, 63, 64,
                                           65, 100, 255, 256, 511,
                                           512, 1000));

} // namespace
} // namespace aegis
