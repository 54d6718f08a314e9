/**
 * @file
 * A dynamically sized bit vector tuned for data-block manipulation.
 *
 * PCM data blocks in this project are 32..512 bits; schemes constantly
 * xor/invert/compare them. std::vector<bool> lacks word access and
 * std::bitset is statically sized, so we provide a small word-backed
 * vector with the operations the recovery schemes need: bitwise ops,
 * popcount, iteration over set bits, and randomized fill.
 */

#ifndef AEGIS_UTIL_BIT_VECTOR_H
#define AEGIS_UTIL_BIT_VECTOR_H

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/hot.h"

namespace aegis {

class Rng;

/**
 * Fixed-length (after construction) vector of bits backed by 64-bit
 * words. Out-of-range accesses are checked via AEGIS_ASSERT.
 */
class BitVector
{
  public:
    /** Bits per backing word. */
    static constexpr std::size_t kWordBits = 64;

    /** Construct an empty (zero-length) vector. */
    BitVector() = default;

    /** Construct @p n bits, all initialized to @p value. */
    explicit BitVector(std::size_t n, bool value = false);

    /**
     * Construct from a string of '0'/'1' characters, most significant
     * (index 0) first. Any other character raises ConfigError.
     */
    static BitVector fromString(const std::string &bits);

    /** Number of bits. */
    std::size_t size() const { return numBits; }

    /** True when the vector holds zero bits. */
    bool empty() const { return numBits == 0; }

    /** Read bit @p i. */
    AEGIS_HOT bool get(std::size_t i) const;

    /** Set bit @p i to @p value. */
    AEGIS_HOT void set(std::size_t i, bool value);

    /** Flip bit @p i. */
    AEGIS_HOT void flip(std::size_t i);

    /** Set all bits to @p value. */
    AEGIS_HOT void fill(bool value);

    /** Flip every bit in place. */
    AEGIS_HOT void invert();

    /** Number of set bits. */
    AEGIS_HOT std::size_t popcount() const;

    /** True when no bit is set. */
    bool none() const { return popcount() == 0; }

    /** True when at least one bit is set. */
    bool any() const { return !none(); }

    /** Indices of all set bits, ascending. Allocates; hot loops
     *  should prefer forEachSetBit. */
    std::vector<std::size_t> setBits() const;

    /** Index of the first set bit, or size() when none is set. */
    std::size_t firstSetBit() const;

    /**
     * Invoke @p fn(index) for every set bit, ascending, without
     * allocating. The vector must not be resized from within @p fn;
     * mutating already-visited bits is allowed (each word is read
     * once before its bits are dispatched).
     */
    template <typename Fn>
    AEGIS_HOT void forEachSetBit(Fn &&fn) const
    {
        for (std::size_t wi = 0; wi < wordStore.size(); ++wi) {
            std::uint64_t w = wordStore[wi];
            while (w != 0) {
                fn(wi * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(w)));
                w &= w - 1;
            }
        }
    }

    /** In-place xor with @p other (sizes must match). */
    AEGIS_HOT BitVector &xorAssign(const BitVector &other);

    /** In-place or with @p other (sizes must match). */
    AEGIS_HOT BitVector &orAssign(const BitVector &other);

    /** In-place and with @p other (sizes must match). */
    AEGIS_HOT BitVector &andAssign(const BitVector &other);

    /** Flip exactly the bits selected by @p mask (word-parallel). */
    AEGIS_HOT void invertMasked(const BitVector &mask) { xorAssign(mask); }

    /** this ^= (value & ~mask), without temporaries: xor in only the
     *  bits of @p value that fall outside @p mask. */
    AEGIS_HOT BitVector &xorAssignAndNot(const BitVector &value,
                                         const BitVector &mask);

    /**
     * Become (base & ~mask) | (chosen & mask): take each bit from
     * @p chosen where @p mask is set and from @p base elsewhere. All
     * three sizes must match; resizes this vector if needed.
     */
    AEGIS_HOT void assignSelect(const BitVector &base,
                                const BitVector &chosen,
                                const BitVector &mask);

    /** Copy @p other's contents; reuses the existing allocation when
     *  capacity suffices (always, once widths have stabilized). */
    AEGIS_HOT void assignFrom(const BitVector &other);

    /** Word-level equality (same size and same bits). */
    AEGIS_HOT bool equals(const BitVector &other) const;

    /** In-place xor with @p other (sizes must match). */
    BitVector &operator^=(const BitVector &other)
    { return xorAssign(other); }

    /** In-place and with @p other (sizes must match). */
    BitVector &operator&=(const BitVector &other)
    { return andAssign(other); }

    /** In-place or with @p other (sizes must match). */
    BitVector &operator|=(const BitVector &other)
    { return orAssign(other); }

    friend BitVector operator^(BitVector lhs, const BitVector &rhs)
    { lhs ^= rhs; return lhs; }

    friend BitVector operator&(BitVector lhs, const BitVector &rhs)
    { lhs &= rhs; return lhs; }

    friend BitVector operator|(BitVector lhs, const BitVector &rhs)
    { lhs |= rhs; return lhs; }

    /** Bitwise complement. */
    BitVector operator~() const;

    bool operator==(const BitVector &other) const
    { return equals(other); }
    bool operator!=(const BitVector &other) const
    { return !(*this == other); }

    /** Hamming distance to @p other (sizes must match). */
    std::size_t hammingDistance(const BitVector &other) const;

    /** Render as a '0'/'1' string, index 0 first. */
    std::string toString() const;

    /** Fill with independent fair coin flips from @p rng. */
    void randomize(Rng &rng);

    /** A fresh random vector of @p n bits. */
    static BitVector random(std::size_t n, Rng &rng);

    /** Direct read access to the backing words (for fast scans). */
    const std::vector<std::uint64_t> &words() const { return wordStore; }

    /** Backing word @p wi (for word-at-a-time codecs). */
    AEGIS_HOT std::uint64_t word(std::size_t wi) const
    { return wordStore[wi]; }

    /** Overwrite backing word @p wi; tail bits beyond size() are
     *  re-masked so invariants hold. */
    AEGIS_HOT void setWord(std::size_t wi, std::uint64_t w);

  private:
    /** Clear any bits in the final partial word beyond numBits. */
    void maskTail();

    std::size_t numBits = 0;
    std::vector<std::uint64_t> wordStore;
};

} // namespace aegis

#endif // AEGIS_UTIL_BIT_VECTOR_H
