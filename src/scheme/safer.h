/**
 * @file
 * SAFER — Stuck-At-Fault Error Recovery (Seong et al., MICRO 2010).
 *
 * The partition-and-inversion baseline. A 2^q-bit block is partitioned
 * by selecting up to k bit positions of the in-block offset address
 * (the paper's "partition vector"); the group of a bit is the value of
 * its address at the selected positions, so there are up to N = 2^k
 * groups. When two faults collide in a group, SAFER appends an address
 * bit position at which they differ, splitting every group in two.
 * Since refinement never merges groups, k fields always separate k+1
 * faults: hard FTC = k+1.
 *
 * Without a fail cache only greedy appending is possible and the block
 * dies when the vector is full and a collision remains. With the cache
 * ("SAFERN-cache" in the paper) all fault positions are known, so we
 * search every C(q, <=k) field subset for one separating all faults —
 * this is the source of the cache variant's longer lifetime in
 * Figures 8 and 9.
 *
 * Overhead (Table 1): k*ceil(log2 q) field pointers + 2^k inversion
 * flags + ceil(log2(k+1)) used-field counter.
 */

#ifndef AEGIS_SCHEME_SAFER_H
#define AEGIS_SCHEME_SAFER_H

#include <cstdint>
#include <vector>

#include "scheme/inversion_driver.h"
#include "scheme/scheme.h"
#include "util/hot.h"

namespace aegis::scheme {

/** SAFER's address-bit-selection partition (a GroupPartition policy). */
class SaferPartition : public GroupPartition
{
  public:
    /**
     * @param block_bits block size; must be a power of two.
     * @param max_fields k, the maximum partition-vector length.
     * @param exhaustive allow cache-assisted global re-partitioning
     *        (search all field subsets) when greedy appending fails.
     */
    SaferPartition(std::size_t block_bits, std::size_t max_fields,
                   bool exhaustive);

    std::size_t groupCount() const override { return 1ull << maxFields; }
    std::size_t groupOf(std::size_t pos) const override;
    bool separate(const pcm::FaultSet &faults,
                  std::uint32_t &repartitions) override;
    void resetConfig() override;

    /** Membership masks are rebuilt eagerly whenever the field
     *  selection changes, so this is a plain lookup. */
    const BitVector *groupMask(std::size_t group) const override;

    /** Currently selected address-bit positions (LSB field first). */
    const std::vector<std::uint8_t> &fields() const { return fieldSel; }

    /** Restore a field selection (metadata import). */
    void setFields(std::vector<std::uint8_t> fields);

    std::size_t addressBits() const { return addrBits; }

  private:
    bool separated(const pcm::FaultSet &faults) const;
    bool separatedBy(const pcm::FaultSet &faults,
                     const std::vector<std::uint8_t> &sel) const;
    bool searchExhaustive(const pcm::FaultSet &faults);
    void rebuildMasks();

    std::size_t bits;
    std::size_t addrBits;
    std::size_t maxFields;
    bool exhaustive;
    std::vector<std::uint8_t> fieldSel;
    std::vector<BitVector> groupMasks;
};

/** The complete SAFER scheme (metadata + write/read protocol). */
class SaferScheme : public Scheme
{
  public:
    /**
     * @param block_bits block size; power of two.
     * @param num_groups N of SAFER-N; power of two, <= block_bits.
     * @param use_cache operate as SAFERN-cache (requires a directory
     *        attached before writes).
     */
    SaferScheme(std::size_t block_bits, std::size_t num_groups,
                bool use_cache);

    const std::string &name() const override;
    std::size_t blockBits() const override { return bits; }
    std::size_t overheadBits() const override;
    std::size_t hardFtc() const override { return maxFields + 1; }

    AEGIS_HOT WriteOutcome write(pcm::CellArray &cells,
                                 const BitVector &data) override;
    BitVector read(const pcm::CellArray &cells) const override;
    AEGIS_HOT void readInto(const pcm::CellArray &cells,
                            BitVector &out) const override;
    void reset() override;
    std::unique_ptr<Scheme> clone() const override;

    /** Packed exactly as Table 1 accounts: used-field counter +
     *  k field selectors + N inversion flags. */
    BitVector exportMetadata() const override;
    void importMetadata(const BitVector &image) override;

    std::unique_ptr<LifetimeTracker>
    makeTracker(const TrackerOptions &opts) const override;

    bool requiresDirectory() const override { return cacheMode; }

    /** Static cost model (Table 1 row). */
    static std::size_t costBits(std::size_t block_bits,
                                std::size_t num_groups);

    const SaferPartition &partition() const { return part; }
    const BitVector &inversionVector() const { return invVector; }

  private:
    std::size_t bits;
    std::size_t numGroups;
    std::size_t maxFields;
    bool cacheMode;
    /** Fixed at construction; name() hands out a reference. */
    std::string schemeName;
    SaferPartition part;
    BitVector invVector;
    InversionWorkspace writeWs;
    /** Reusable fault-lookup scratch so cache-mode writes stay
     *  allocation-free once warmed. */
    pcm::FaultSet knownScratch;
};

} // namespace aegis::scheme

#endif // AEGIS_SCHEME_SAFER_H
