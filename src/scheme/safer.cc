#include "scheme/safer.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/bit_io.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace aegis::scheme {

namespace {

bool
isPowerOfTwo(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

std::size_t
log2Exact(std::size_t v)
{
    return static_cast<std::size_t>(std::countr_zero(v));
}

std::size_t
ceilLog2(std::size_t v)
{
    return v <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(v - 1));
}

/**
 * Online recoverability model: mirrors the functional scheme's
 * re-partitioning (greedy appending, plus exhaustive subset search in
 * cache mode) at fault-arrival granularity.
 */
class SaferTracker : public LifetimeTracker
{
  public:
    SaferTracker(std::size_t block_bits, std::size_t max_fields,
                 bool cache_mode)
        : bits(block_bits), cacheMode(cache_mode),
          part(block_bits, max_fields, /*exhaustive=*/cache_mode)
    {}

    FaultVerdict
    onFault(const pcm::Fault &fault) override
    {
        if (dead)
            return FaultVerdict::Dead;
        faults.push_back(fault);
        std::uint32_t reps = 0;
        const bool ok = part.separate(faults, reps);
        numRepartitions += reps;
        if (!ok)
            dead = true;
        return dead ? FaultVerdict::Dead : FaultVerdict::Alive;
    }

    double
    writeFailureProbability(Rng &) override
    {
        // SAFER tolerates any data pattern once the faults are
        // separated: a lone fault per group is masked by inversion.
        return dead ? 1.0 : 0.0;
    }

    std::vector<std::uint32_t>
    amplifiedCells() const override
    {
        // Cache-less SAFER re-writes every fault-bearing group after
        // the initial program pass; the cache variant knows the
        // target pattern up front and writes once.
        if (cacheMode || faults.empty() || dead)
            return {};
        std::vector<bool> hot(part.groupCount(), false);
        for (const pcm::Fault &f : faults)
            hot[part.groupOf(f.pos)] = true;
        std::vector<std::uint32_t> out;
        for (std::size_t pos = 0; pos < bits; ++pos) {
            if (hot[part.groupOf(pos)])
                out.push_back(static_cast<std::uint32_t>(pos));
        }
        return out;
    }

    std::size_t faultCount() const override { return faults.size(); }
    std::uint64_t repartitions() const override { return numRepartitions; }
    bool dataIndependent() const override { return true; }

  private:
    std::size_t bits;
    bool cacheMode;
    SaferPartition part;
    pcm::FaultSet faults;
    bool dead = false;
    std::uint64_t numRepartitions = 0;
};

} // namespace

SaferPartition::SaferPartition(std::size_t block_bits,
                               std::size_t max_fields,
                               bool exhaustive_search)
    : bits(block_bits), maxFields(max_fields),
      exhaustive(exhaustive_search)
{
    AEGIS_REQUIRE(isPowerOfTwo(block_bits),
                  "SAFER requires a power-of-two block size");
    addrBits = log2Exact(block_bits);
    AEGIS_REQUIRE(max_fields <= addrBits,
                  "partition vector cannot exceed the address width");
    rebuildMasks();
}

void
SaferPartition::rebuildMasks()
{
    if (groupMasks.size() != groupCount() ||
        (!groupMasks.empty() && groupMasks.front().size() != bits)) {
        groupMasks.assign(groupCount(), BitVector(bits));
    } else {
        for (BitVector &m : groupMasks)
            m.fill(false);
    }
    for (std::size_t pos = 0; pos < bits; ++pos)
        groupMasks[groupOf(pos)].set(pos, true);
}

const BitVector *
SaferPartition::groupMask(std::size_t group) const
{
    AEGIS_ASSERT(group < groupMasks.size(), "group out of range");
    return &groupMasks[group];
}

std::size_t
SaferPartition::groupOf(std::size_t pos) const
{
    AEGIS_ASSERT(pos < bits, "position out of range");
    std::size_t g = 0;
    for (std::size_t i = 0; i < fieldSel.size(); ++i)
        g |= ((pos >> fieldSel[i]) & 1u) << i;
    return g;
}

bool
SaferPartition::separatedBy(const pcm::FaultSet &faults,
                            const std::vector<std::uint8_t> &sel) const
{
    const auto value = [&sel](std::uint32_t pos) {
        std::size_t g = 0;
        for (std::size_t i = 0; i < sel.size(); ++i)
            g |= ((pos >> sel[i]) & 1u) << i;
        return g;
    };
    for (std::size_t i = 0; i < faults.size(); ++i) {
        for (std::size_t j = i + 1; j < faults.size(); ++j) {
            if (value(faults[i].pos) == value(faults[j].pos))
                return false;
        }
    }
    return true;
}

bool
SaferPartition::separated(const pcm::FaultSet &faults) const
{
    return separatedBy(faults, fieldSel);
}

bool
SaferPartition::searchExhaustive(const pcm::FaultSet &faults)
{
    // Enumerate address-bit subsets by increasing size so the chosen
    // vector stays as short as possible (fewer active groups).
    for (std::size_t size = 0; size <= maxFields; ++size) {
        std::vector<std::uint8_t> sel;
        // Iterate all q-bit masks with popcount == size.
        for (std::size_t mask = 0; mask < (1ull << addrBits); ++mask) {
            if (static_cast<std::size_t>(std::popcount(mask)) != size)
                continue;
            sel.clear();
            for (std::size_t b = 0; b < addrBits; ++b) {
                if (mask & (1ull << b))
                    sel.push_back(static_cast<std::uint8_t>(b));
            }
            if (separatedBy(faults, sel)) {
                fieldSel = sel;
                return true;
            }
        }
    }
    return false;
}

bool
SaferPartition::separate(const pcm::FaultSet &faults,
                         std::uint32_t &repartitions)
{
    if (separated(faults))
        return true;

    AEGIS_TRACE_SCOPE(obs::Scope::SchemeRecover);
    // Greedy: as long as fields are free, resolve one colliding pair
    // by appending an address bit at which the pair differs, picking
    // the candidate that leaves the fewest colliding pairs overall
    // (SAFER's re-partition heuristic). Appending only refines the
    // partition, so previously separated pairs stay separated.
    while (fieldSel.size() < maxFields) {
        const pcm::Fault *a = nullptr, *b = nullptr;
        for (std::size_t i = 0; i < faults.size() && !a; ++i) {
            for (std::size_t j = i + 1; j < faults.size(); ++j) {
                if (groupOf(faults[i].pos) == groupOf(faults[j].pos)) {
                    a = &faults[i];
                    b = &faults[j];
                    break;
                }
            }
        }
        if (!a) {
            rebuildMasks();
            return true;    // separated along the way
        }
        const std::uint32_t diff = a->pos ^ b->pos;
        AEGIS_ASSERT(diff != 0, "two faults at the same position");

        std::uint8_t best_bit = 0;
        std::size_t best_pairs = std::numeric_limits<std::size_t>::max();
        for (std::size_t bit = 0; bit < addrBits; ++bit) {
            if (!((diff >> bit) & 1u))
                continue;    // must split the colliding pair
            fieldSel.push_back(static_cast<std::uint8_t>(bit));
            std::size_t pairs = 0;
            for (std::size_t i = 0; i < faults.size(); ++i) {
                for (std::size_t j = i + 1; j < faults.size(); ++j) {
                    pairs += groupOf(faults[i].pos) ==
                             groupOf(faults[j].pos);
                }
            }
            fieldSel.pop_back();
            if (pairs < best_pairs) {
                best_pairs = pairs;
                best_bit = static_cast<std::uint8_t>(bit);
            }
        }
        AEGIS_ASSERT(std::find(fieldSel.begin(), fieldSel.end(),
                               best_bit) == fieldSel.end(),
                     "colliding faults must agree on selected fields");
        fieldSel.push_back(best_bit);
        ++repartitions;
        obs::bump(obs::Counter::SaferRepartitions);
        if (separated(faults)) {
            rebuildMasks();
            return true;
        }
    }

    if (exhaustive) {
        ++repartitions;
        obs::bump(obs::Counter::SaferRepartitions);
        const bool ok = searchExhaustive(faults);
        rebuildMasks();
        return ok;
    }
    rebuildMasks();
    return false;
}

void
SaferPartition::resetConfig()
{
    fieldSel.clear();
    rebuildMasks();
}

void
SaferPartition::setFields(std::vector<std::uint8_t> fields)
{
    AEGIS_REQUIRE(fields.size() <= maxFields,
                  "too many partition fields");
    for (std::uint8_t f : fields)
        AEGIS_REQUIRE(f < addrBits, "field position out of range");
    fieldSel = std::move(fields);
    rebuildMasks();
}

SaferScheme::SaferScheme(std::size_t block_bits, std::size_t num_groups,
                         bool use_cache)
    : bits(block_bits), numGroups(num_groups), cacheMode(use_cache),
      schemeName("safer" + std::to_string(num_groups) +
                 (use_cache ? "-cache" : "")),
      part(block_bits, isPowerOfTwo(num_groups) ? log2Exact(num_groups) : 0,
           use_cache),
      invVector(num_groups)
{
    AEGIS_REQUIRE(isPowerOfTwo(num_groups) && num_groups <= block_bits,
                  "SAFER-N needs a power-of-two N <= block size");
    maxFields = log2Exact(num_groups);
}

const std::string &
SaferScheme::name() const
{
    return schemeName;
}

std::size_t
SaferScheme::costBits(std::size_t block_bits, std::size_t num_groups)
{
    AEGIS_REQUIRE(isPowerOfTwo(block_bits) && isPowerOfTwo(num_groups),
                  "SAFER cost model needs power-of-two sizes");
    const std::size_t q = log2Exact(block_bits);
    const std::size_t k = log2Exact(num_groups);
    return k * ceilLog2(q) + num_groups + ceilLog2(k + 1);
}

std::size_t
SaferScheme::overheadBits() const
{
    return costBits(bits, numGroups);
}

AEGIS_HOT WriteOutcome
SaferScheme::write(pcm::CellArray &cells, const BitVector &data)
{
    AEGIS_REQUIRE(!cacheMode || directory,
                  "SAFER-cache needs an attached fault directory");
    pcm::FaultSet &known = knownScratch;
    known.clear();
    if (cacheMode)
        directory->lookupInto(blockId, known);
    const std::size_t known_before = known.size();

    WriteOutcome outcome =
        writeWithInversion(cells, data, part, invVector, known, writeWs);

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
SaferScheme::read(const pcm::CellArray &cells) const
{
    BitVector out;
    readInto(cells, out);
    return out;
}

AEGIS_HOT void
SaferScheme::readInto(const pcm::CellArray &cells, BitVector &out) const
{
    AEGIS_TRACE_SCOPE(obs::Scope::SchemeRead);
    cells.readInto(out);
    invVector.forEachSetBit([&](std::size_t g) {
        out.invertMasked(*part.groupMask(g));
    });
}

void
SaferScheme::reset()
{
    part.resetConfig();
    invVector.fill(false);
}

std::unique_ptr<Scheme>
SaferScheme::clone() const
{
    return std::make_unique<SaferScheme>(*this);
}

BitVector
SaferScheme::exportMetadata() const
{
    const std::size_t field_width = ceilLog2(part.addressBits());
    const std::size_t counter_width = ceilLog2(maxFields + 1);
    BitWriter w(overheadBits());
    w.writeBits(part.fields().size(), counter_width);
    for (std::size_t i = 0; i < maxFields; ++i) {
        w.writeBits(i < part.fields().size() ? part.fields()[i] : 0,
                    field_width);
    }
    w.writeVector(invVector);
    return w.finish();
}

void
SaferScheme::importMetadata(const BitVector &image)
{
    AEGIS_REQUIRE(image.size() == overheadBits(),
                  "SAFER metadata image has the wrong width");
    const std::size_t field_width = ceilLog2(part.addressBits());
    const std::size_t counter_width = ceilLog2(maxFields + 1);
    BitReader r(image);
    const std::size_t used = r.readBits(counter_width);
    AEGIS_REQUIRE(used <= maxFields, "corrupt SAFER field counter");
    std::vector<std::uint8_t> fields;
    for (std::size_t i = 0; i < maxFields; ++i) {
        const auto f = static_cast<std::uint8_t>(r.readBits(field_width));
        if (i < used)
            fields.push_back(f);
    }
    part.setFields(std::move(fields));
    invVector = r.readVector(numGroups);
}

std::unique_ptr<LifetimeTracker>
SaferScheme::makeTracker(const TrackerOptions &) const
{
    return std::make_unique<SaferTracker>(bits, maxFields, cacheMode);
}

} // namespace aegis::scheme
