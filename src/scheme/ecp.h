/**
 * @file
 * ECP — Error Correcting Pointers (Schechter et al., ISCA 2010).
 *
 * The pointer-based baseline of the paper: each correction entry is a
 * ceil(log2 n)-bit pointer naming a faulty cell plus one replacement
 * bit that stores data on the faulty cell's behalf. ECP-N holds N
 * entries; overhead is N*(ceil(log2 n)+1)+1 bits (the +1 is the
 * "entries exhausted" full flag), i.e. 11/21/.../101 bits for a
 * 512-bit block as in Table 1. Hard FTC == soft FTC == N: the N+1-th
 * fault is fatal regardless of data patterns.
 *
 * Replacement bits are modeled as ideal SRAM-side storage; correcting
 * failed replacement cells via entry chaining (ECP's "pointer to a
 * pointer") is out of scope here, as it is in the paper's evaluation.
 */

#ifndef AEGIS_SCHEME_ECP_H
#define AEGIS_SCHEME_ECP_H

#include <vector>

#include "scheme/scheme.h"
#include "util/bit_vector.h"
#include "util/hot.h"

namespace aegis::scheme {

class EcpScheme : public Scheme
{
  public:
    /**
     * @param block_bits protected block size (e.g. 512).
     * @param num_entries the N of ECP-N.
     */
    EcpScheme(std::size_t block_bits, std::size_t num_entries);

    const std::string &name() const override;
    std::size_t blockBits() const override { return bits; }
    std::size_t overheadBits() const override;
    std::size_t hardFtc() const override { return entriesMax; }

    AEGIS_HOT WriteOutcome write(pcm::CellArray &cells,
                                 const BitVector &data) override;
    BitVector read(const pcm::CellArray &cells) const override;
    AEGIS_HOT void readInto(const pcm::CellArray &cells,
                            BitVector &out) const override;
    void reset() override;
    std::unique_ptr<Scheme> clone() const override;

    /** Packed image: entry counter + N (pointer, replacement) pairs.
     *  The explicit counter costs ceil(log2(N+1)) bits where Table 1
     *  accounts a single "full" flag, so metadataBits() can exceed
     *  overheadBits() by a couple of bits. */
    std::size_t metadataBits() const override;
    BitVector exportMetadata() const override;
    void importMetadata(const BitVector &image) override;

    std::unique_ptr<LifetimeTracker>
    makeTracker(const TrackerOptions &opts) const override;

    /** Correction entries currently allocated. */
    std::size_t entriesUsed() const { return entries.size(); }

    /** Static cost model (Table 1 row). */
    static std::size_t costBits(std::size_t block_bits,
                                std::size_t num_entries);

  private:
    struct Entry
    {
        std::uint32_t pos;
        bool replacement;
    };

    const Entry *findEntry(std::size_t pos) const;

    std::size_t bits;
    std::size_t entriesMax;
    /** Fixed at construction; name() hands out a reference. */
    std::string schemeName;
    std::vector<Entry> entries;
    /** Reusable verification scratch so steady-state writes stay
     *  allocation-free once warmed. */
    BitVector readbackWs;
    BitVector diffWs;
};

} // namespace aegis::scheme

#endif // AEGIS_SCHEME_ECP_H
