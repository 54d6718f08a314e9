#include "util/bit_vector.h"

#include <bit>

#include "util/error.h"
#include "util/rng.h"
#include "util/simd/simd.h"

namespace aegis {

namespace {

constexpr std::size_t kWordBits = BitVector::kWordBits;

std::size_t
wordCount(std::size_t bits)
{
    return (bits + kWordBits - 1) / kWordBits;
}

} // namespace

BitVector::BitVector(std::size_t n, bool value)
    : numBits(n), wordStore(wordCount(n), value ? ~0ull : 0ull)
{
    maskTail();
}

BitVector
BitVector::fromString(const std::string &bits)
{
    BitVector v(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        AEGIS_REQUIRE(bits[i] == '0' || bits[i] == '1',
                      "BitVector::fromString accepts only '0'/'1'");
        v.set(i, bits[i] == '1');
    }
    return v;
}

AEGIS_HOT bool
BitVector::get(std::size_t i) const
{
    AEGIS_ASSERT(i < numBits, "BitVector::get out of range");
    return (wordStore[i / kWordBits] >> (i % kWordBits)) & 1ull;
}

AEGIS_HOT void
BitVector::set(std::size_t i, bool value)
{
    AEGIS_ASSERT(i < numBits, "BitVector::set out of range");
    const std::uint64_t mask = 1ull << (i % kWordBits);
    if (value)
        wordStore[i / kWordBits] |= mask;
    else
        wordStore[i / kWordBits] &= ~mask;
}

AEGIS_HOT void
BitVector::flip(std::size_t i)
{
    AEGIS_ASSERT(i < numBits, "BitVector::flip out of range");
    wordStore[i / kWordBits] ^= 1ull << (i % kWordBits);
}

AEGIS_HOT void
BitVector::fill(bool value)
{
    for (auto &w : wordStore)
        w = value ? ~0ull : 0ull;
    maskTail();
}

AEGIS_HOT void
BitVector::invert()
{
    for (auto &w : wordStore)
        w = ~w;
    maskTail();
}

AEGIS_HOT std::size_t
BitVector::popcount() const
{
    return simd::popcountWords(wordStore.data(), wordStore.size());
}

std::vector<std::size_t>
BitVector::setBits() const
{
    std::vector<std::size_t> out;
    out.reserve(popcount());
    for (std::size_t wi = 0; wi < wordStore.size(); ++wi) {
        std::uint64_t w = wordStore[wi];
        while (w) {
            const int bit = std::countr_zero(w);
            out.push_back(wi * kWordBits + static_cast<std::size_t>(bit));
            w &= w - 1;
        }
    }
    return out;
}

std::size_t
BitVector::firstSetBit() const
{
    for (std::size_t wi = 0; wi < wordStore.size(); ++wi) {
        if (wordStore[wi]) {
            return wi * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(wordStore[wi]));
        }
    }
    return numBits;
}

AEGIS_HOT BitVector &
BitVector::xorAssign(const BitVector &other)
{
    AEGIS_ASSERT(numBits == other.numBits, "BitVector size mismatch");
    simd::xorWords(wordStore.data(), other.wordStore.data(),
                   wordStore.size());
    return *this;
}

AEGIS_HOT BitVector &
BitVector::xorAssignAndNot(const BitVector &value, const BitVector &mask)
{
    AEGIS_ASSERT(numBits == value.numBits && numBits == mask.numBits,
                 "BitVector size mismatch");
    simd::xorAndNotWords(wordStore.data(), value.wordStore.data(),
                         mask.wordStore.data(), wordStore.size());
    return *this;
}

AEGIS_HOT void
BitVector::assignSelect(const BitVector &base, const BitVector &chosen,
                        const BitVector &mask)
{
    AEGIS_ASSERT(base.numBits == chosen.numBits &&
                     base.numBits == mask.numBits,
                 "BitVector size mismatch");
    numBits = base.numBits;
    // aegis-lint: allow(HOT-ALLOC grows only until operand widths stabilize; steady state is a no-op)
    wordStore.resize(base.wordStore.size());
    simd::selectWords(wordStore.data(), base.wordStore.data(),
                      chosen.wordStore.data(), mask.wordStore.data(),
                      wordStore.size());
}

AEGIS_HOT void
BitVector::assignFrom(const BitVector &other)
{
    numBits = other.numBits;
    wordStore.assign(other.wordStore.begin(), other.wordStore.end());
}

AEGIS_HOT bool
BitVector::equals(const BitVector &other) const
{
    return numBits == other.numBits &&
           simd::firstMismatchWords(wordStore.data(),
                                    other.wordStore.data(),
                                    wordStore.size()) ==
               wordStore.size();
}

BitVector
BitVector::operator~() const
{
    BitVector out(*this);
    out.invert();
    return out;
}

std::size_t
BitVector::hammingDistance(const BitVector &other) const
{
    AEGIS_ASSERT(numBits == other.numBits, "BitVector size mismatch");
    return simd::xorPopcountWords(wordStore.data(),
                                  other.wordStore.data(),
                                  wordStore.size());
}

std::string
BitVector::toString() const
{
    std::string s(numBits, '0');
    for (std::size_t i = 0; i < numBits; ++i)
        s[i] = get(i) ? '1' : '0';
    return s;
}

void
BitVector::randomize(Rng &rng)
{
    for (auto &w : wordStore)
        w = rng.nextU64();
    maskTail();
}

BitVector
BitVector::random(std::size_t n, Rng &rng)
{
    BitVector v(n);
    v.randomize(rng);
    return v;
}

void
BitVector::maskTail()
{
    const std::size_t rem = numBits % kWordBits;
    if (rem != 0 && !wordStore.empty())
        wordStore.back() &= (1ull << rem) - 1ull;
}

} // namespace aegis
