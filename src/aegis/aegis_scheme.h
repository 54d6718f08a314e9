/**
 * @file
 * The basic Aegis error-recovery scheme (paper §2.2).
 *
 * Metadata per block: a slope counter (current partition
 * configuration) and a B-bit inversion vector. A write programs the
 * selectively inverted pattern and issues a verification read; any
 * mismatch is a stuck-at-Wrong fault whose group must be inverted.
 * When two discovered faults collide in a group, the slope counter is
 * advanced until a configuration separates all discovered faults —
 * Theorem 2 bounds the search by C(f,2)+1 <= B configurations. The
 * block is unrecoverable when no slope separates the faults.
 *
 * No fail cache is assumed (the paper's conservative configuration):
 * the only persistent fault information is the inversion vector.
 */

#ifndef AEGIS_AEGIS_AEGIS_SCHEME_H
#define AEGIS_AEGIS_AEGIS_SCHEME_H

#include "aegis/partition.h"
#include "scheme/inversion_driver.h"
#include "scheme/scheme.h"
#include "util/hot.h"

namespace aegis::core {

/** Aegis's slope-based GroupPartition policy. */
class AegisPartitionPolicy : public scheme::GroupPartition
{
  public:
    explicit AegisPartitionPolicy(Partition partition)
        : part(std::move(partition))
    {
        masks.rebuild(part, slope);
    }

    std::size_t groupCount() const override { return part.groups(); }

    std::size_t groupOf(std::size_t pos) const override
    { return part.groupOf(static_cast<std::uint32_t>(pos), slope); }

    AEGIS_HOT bool separate(const pcm::FaultSet &faults,
                            std::uint32_t &repartitions) override;

    void resetConfig() override
    {
        slope = 0;
        masks.rebuild(part, slope);
    }

    /** Membership masks are rebuilt eagerly on every slope change, so
     *  this is a plain lookup on the (const) hot path. */
    const BitVector *groupMask(std::size_t group) const override
    { return &masks.mask(group); }

    /** Restore a configuration (metadata import). */
    void setSlope(std::uint32_t k);

    std::uint32_t currentSlope() const { return slope; }
    const Partition &partition() const { return part; }

    /** True when @p k puts every fault in a distinct group. */
    bool separatesUnder(const pcm::FaultSet &faults,
                        std::uint32_t k) const;

  private:
    Partition part;
    GroupMaskCache masks;
    std::uint32_t slope = 0;
};

/**
 * The complete basic Aegis scheme.
 *
 * With @p use_cache (the paper's closing remark: "If a cache is
 * available, Aegis can take advantage of it"), the fail cache's fault
 * knowledge seeds every write, so the target pattern is computed up
 * front: single program pass, no extra inversion rewrites — the same
 * capacity as basic Aegis with SAFER-cache's wear profile.
 */
class AegisScheme : public scheme::Scheme
{
  public:
    /** Protect an n-bit block with the A x B scheme. */
    AegisScheme(std::uint32_t a, std::uint32_t b,
                std::uint32_t block_bits, bool use_cache = false);

    /** Canonical formation for height @p b: A = ceil(n / B). */
    static AegisScheme forHeight(std::uint32_t b,
                                 std::uint32_t block_bits,
                                 bool use_cache = false);

    const std::string &name() const override;
    std::size_t blockBits() const override;
    std::size_t overheadBits() const override;
    std::size_t hardFtc() const override;

    AEGIS_HOT scheme::WriteOutcome write(pcm::CellArray &cells,
                                         const BitVector &data) override;
    BitVector read(const pcm::CellArray &cells) const override;
    AEGIS_HOT void readInto(const pcm::CellArray &cells,
                            BitVector &out) const override;
    void reset() override;
    std::unique_ptr<scheme::Scheme> clone() const override;

    /** Packed exactly as §2.2 accounts: slope counter + B inversion
     *  flags. */
    BitVector exportMetadata() const override;
    void importMetadata(const BitVector &image) override;

    std::unique_ptr<scheme::LifetimeTracker>
    makeTracker(const scheme::TrackerOptions &opts) const override;

    bool requiresDirectory() const override { return cacheMode; }

    const Partition &partition() const { return policy.partition(); }
    std::uint32_t currentSlope() const { return policy.currentSlope(); }
    const BitVector &inversionVector() const { return invVector; }

  private:
    AegisPartitionPolicy policy;
    BitVector invVector;
    scheme::InversionWorkspace writeWs;
    /** Reusable fault-lookup scratch so cache-mode writes stay
     *  allocation-free once warmed. */
    pcm::FaultSet knownScratch;
    bool cacheMode = false;
    /** Fixed at construction; name() hands out a reference. */
    std::string schemeName;
};

} // namespace aegis::core

#endif // AEGIS_AEGIS_AEGIS_SCHEME_H
