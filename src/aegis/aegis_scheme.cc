#include "aegis/aegis_scheme.h"

#include <bit>

#include "util/bit_io.h"

#include "aegis/cost.h"
#include "aegis/trackers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace aegis::core {

bool
AegisPartitionPolicy::separatesUnder(const pcm::FaultSet &faults,
                                     std::uint32_t k) const
{
    // B is at most a few hundred; a stamp array beats sorting.
    // aegis-lint: allow(HOT-ALLOC constructed once per thread, then only assign()ed)
    static thread_local std::vector<std::uint32_t> stamp;
    static thread_local std::uint32_t epoch = 0;
    if (stamp.size() < part.groups())
        stamp.assign(part.groups(), 0);
    ++epoch;
    for (const pcm::Fault &f : faults) {
        const std::uint32_t g = part.groupOf(f.pos, k);
        if (stamp[g] == epoch)
            return false;
        stamp[g] = epoch;
    }
    return true;
}

AEGIS_HOT bool
AegisPartitionPolicy::separate(const pcm::FaultSet &faults,
                               std::uint32_t &repartitions)
{
    // The hardware increments the slope counter and re-examines; we
    // scan the B configurations starting from the current slope.
    AEGIS_TRACE_SCOPE(obs::Scope::SchemeRecover);
    for (std::uint32_t trial = 0; trial < part.slopes(); ++trial) {
        const std::uint32_t k = (slope + trial) % part.slopes();
        if (separatesUnder(faults, k)) {
            repartitions += trial;
            obs::bump(obs::Counter::AegisRepartitions, trial);
            slope = k;
            masks.rebuild(part, slope);
            return true;
        }
    }
    return false;
}

void
AegisPartitionPolicy::setSlope(std::uint32_t k)
{
    AEGIS_REQUIRE(k < part.slopes(), "slope out of range");
    slope = k;
    masks.rebuild(part, slope);
}

AegisScheme::AegisScheme(std::uint32_t a, std::uint32_t b,
                         std::uint32_t block_bits, bool use_cache)
    : policy(Partition(a, b, block_bits)), invVector(b),
      cacheMode(use_cache)
{
    // Matches the factory spelling so names round-trip.
    schemeName = std::string("aegis-") + (use_cache ? "cache-" : "") +
                 policy.partition().formation();
}

AegisScheme
AegisScheme::forHeight(std::uint32_t b, std::uint32_t block_bits,
                       bool use_cache)
{
    const Partition part = Partition::forHeight(b, block_bits);
    return AegisScheme(part.a(), part.b(), block_bits, use_cache);
}

const std::string &
AegisScheme::name() const
{
    return schemeName;
}

std::size_t
AegisScheme::blockBits() const
{
    return policy.partition().blockBits();
}

std::size_t
AegisScheme::overheadBits() const
{
    const std::uint32_t b = policy.partition().b();
    return static_cast<std::size_t>(std::bit_width(b - 1)) + b;
}

std::size_t
AegisScheme::hardFtc() const
{
    return hardFtcBasic(policy.partition().b());
}

AEGIS_HOT scheme::WriteOutcome
AegisScheme::write(pcm::CellArray &cells, const BitVector &data)
{
    AEGIS_REQUIRE(!cacheMode || directory,
                  "aegis-cache needs an attached fault directory");
    pcm::FaultSet &known = knownScratch;
    known.clear();
    if (cacheMode)
        directory->lookupInto(blockId, known);
    const std::size_t known_before = known.size();

    scheme::WriteOutcome outcome = scheme::writeWithInversion(
        cells, data, policy, invVector, known, writeWs);

    if (cacheMode)
        ++outcome.io.metadataLookups;
    if (directory) {
        for (std::size_t i = known_before; i < known.size(); ++i) {
            directory->record(blockId, known[i]);
            ++outcome.io.metadataUpdates;
        }
    }
    return outcome;
}

BitVector
AegisScheme::read(const pcm::CellArray &cells) const
{
    BitVector out;
    readInto(cells, out);
    return out;
}

AEGIS_HOT void
AegisScheme::readInto(const pcm::CellArray &cells, BitVector &out) const
{
    AEGIS_TRACE_SCOPE(obs::Scope::SchemeRead);
    cells.readInto(out);
    // Undo the selective inversion one group mask at a time.
    invVector.forEachSetBit([&](std::size_t g) {
        out.invertMasked(*policy.groupMask(g));
    });
}

void
AegisScheme::reset()
{
    policy.resetConfig();
    invVector.fill(false);
}

std::unique_ptr<scheme::Scheme>
AegisScheme::clone() const
{
    return std::make_unique<AegisScheme>(*this);
}

BitVector
AegisScheme::exportMetadata() const
{
    const std::uint32_t b = policy.partition().b();
    const auto counter_width =
        static_cast<std::size_t>(std::bit_width(b - 1));
    BitWriter w(overheadBits());
    w.writeBits(policy.currentSlope(), counter_width);
    w.writeVector(invVector);
    return w.finish();
}

void
AegisScheme::importMetadata(const BitVector &image)
{
    AEGIS_REQUIRE(image.size() == overheadBits(),
                  "Aegis metadata image has the wrong width");
    const std::uint32_t b = policy.partition().b();
    const auto counter_width =
        static_cast<std::size_t>(std::bit_width(b - 1));
    BitReader r(image);
    const auto k = static_cast<std::uint32_t>(r.readBits(counter_width));
    AEGIS_REQUIRE(k < b, "corrupt slope counter");
    policy.setSlope(k);
    invVector = r.readVector(b);
}

std::unique_ptr<scheme::LifetimeTracker>
AegisScheme::makeTracker(const scheme::TrackerOptions &opts) const
{
    return makeAegisTracker(policy.partition(), opts, cacheMode);
}

} // namespace aegis::core
