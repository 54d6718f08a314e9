/**
 * @file
 * The unprotected baseline: no metadata, no correction.
 *
 * A block protected by "none" is lost the moment any cell becomes
 * stuck (the first write of the opposite value cannot be stored). The
 * paper's lifetime-improvement figures normalize against exactly this
 * baseline ("a 4KB page without any fault protection").
 */

#ifndef AEGIS_SCHEME_NONE_H
#define AEGIS_SCHEME_NONE_H

#include "scheme/scheme.h"
#include "util/bit_vector.h"
#include "util/hot.h"

namespace aegis::scheme {

class NoneScheme : public Scheme
{
  public:
    explicit NoneScheme(std::size_t block_bits);

    const std::string &name() const override
    {
        static const std::string n = "none";
        return n;
    }
    std::size_t blockBits() const override { return bits; }
    std::size_t overheadBits() const override { return 0; }
    std::size_t hardFtc() const override { return 0; }

    AEGIS_HOT WriteOutcome write(pcm::CellArray &cells,
                                 const BitVector &data) override;
    BitVector read(const pcm::CellArray &cells) const override;
    AEGIS_HOT void readInto(const pcm::CellArray &cells,
                            BitVector &out) const override;
    void reset() override {}
    std::unique_ptr<Scheme> clone() const override;

    BitVector exportMetadata() const override { return BitVector(); }
    void importMetadata(const BitVector &image) override;

    std::unique_ptr<LifetimeTracker>
    makeTracker(const TrackerOptions &opts) const override;

  private:
    std::size_t bits;
    /** Reusable verification scratch (write stays allocation-free). */
    BitVector readbackWs;
};

} // namespace aegis::scheme

#endif // AEGIS_SCHEME_NONE_H
