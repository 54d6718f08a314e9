#include "scheme/none.h"

#include "util/error.h"

namespace aegis::scheme {

namespace {

/** Dies on the first fault; no wear amplification. */
class NoneTracker : public LifetimeTracker
{
  public:
    FaultVerdict
    onFault(const pcm::Fault &) override
    {
        ++faults;
        return FaultVerdict::Dead;
    }

    double writeFailureProbability(Rng &) override
    { return faults ? 1.0 : 0.0; }

    std::vector<std::uint32_t> amplifiedCells() const override
    { return {}; }

    std::size_t faultCount() const override { return faults; }
    bool dataIndependent() const override { return true; }

  private:
    std::size_t faults = 0;
};

} // namespace

NoneScheme::NoneScheme(std::size_t block_bits)
    : bits(block_bits)
{
    AEGIS_REQUIRE(block_bits > 0, "block size must be positive");
}

AEGIS_HOT WriteOutcome
NoneScheme::write(pcm::CellArray &cells, const BitVector &data)
{
    AEGIS_REQUIRE(data.size() == cells.size(),
                  "data width must match the cell array");
    WriteOutcome outcome;
    cells.writeDifferential(data);
    outcome.programPasses = 1;
    outcome.io.programPasses = 1;
    cells.readInto(readbackWs);
    outcome.io.verifyReads = 1;
    outcome.ok = readbackWs.equals(data);
    return outcome;
}

BitVector
NoneScheme::read(const pcm::CellArray &cells) const
{
    return cells.read();
}

AEGIS_HOT void
NoneScheme::readInto(const pcm::CellArray &cells, BitVector &out) const
{
    cells.readInto(out);
}

std::unique_ptr<Scheme>
NoneScheme::clone() const
{
    return std::make_unique<NoneScheme>(*this);
}

void
NoneScheme::importMetadata(const BitVector &image)
{
    AEGIS_REQUIRE(image.empty(), "the unprotected scheme has no "
                                 "metadata");
}

std::unique_ptr<LifetimeTracker>
NoneScheme::makeTracker(const TrackerOptions &) const
{
    return std::make_unique<NoneTracker>();
}

} // namespace aegis::scheme
