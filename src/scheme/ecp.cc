#include "scheme/ecp.h"

#include <bit>

#include "util/bit_io.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace aegis::scheme {

namespace {

/** Alive while the fault count stays within the pointer budget. */
class EcpTracker : public LifetimeTracker
{
  public:
    explicit EcpTracker(std::size_t max_entries)
        : maxEntries(max_entries)
    {}

    FaultVerdict
    onFault(const pcm::Fault &) override
    {
        ++faults;
        if (faults <= maxEntries) {
            obs::bump(obs::Counter::EcpPointersConsumed);
            return FaultVerdict::Alive;
        }
        return FaultVerdict::Dead;
    }

    double writeFailureProbability(Rng &) override
    { return faults <= maxEntries ? 0.0 : 1.0; }

    std::vector<std::uint32_t> amplifiedCells() const override
    { return {}; }

    std::size_t faultCount() const override { return faults; }
    bool dataIndependent() const override { return true; }

  private:
    std::size_t maxEntries;
    std::size_t faults = 0;
};

} // namespace

EcpScheme::EcpScheme(std::size_t block_bits, std::size_t num_entries)
    : bits(block_bits), entriesMax(num_entries),
      schemeName("ecp" + std::to_string(num_entries))
{
    AEGIS_REQUIRE(block_bits > 1, "block size must exceed one bit");
    AEGIS_REQUIRE(num_entries > 0, "ECP needs at least one entry");
}

const std::string &
EcpScheme::name() const
{
    return schemeName;
}

std::size_t
EcpScheme::costBits(std::size_t block_bits, std::size_t num_entries)
{
    const auto pointer_bits = static_cast<std::size_t>(
        std::bit_width(block_bits - 1));
    return num_entries * (pointer_bits + 1) + 1;
}

std::size_t
EcpScheme::overheadBits() const
{
    return costBits(bits, entriesMax);
}

const EcpScheme::Entry *
EcpScheme::findEntry(std::size_t pos) const
{
    for (const Entry &e : entries) {
        if (e.pos == pos)
            return &e;
    }
    return nullptr;
}

AEGIS_HOT WriteOutcome
EcpScheme::write(pcm::CellArray &cells, const BitVector &data)
{
    AEGIS_REQUIRE(data.size() == cells.size(),
                  "data width must match the cell array");
    AEGIS_TRACE_SCOPE(obs::Scope::SchemeWrite);
    WriteOutcome outcome;

    // Refresh replacement bits for already-corrected cells, then
    // program the block and check for newly failed cells.
    for (Entry &e : entries)
        e.replacement = data.get(e.pos);

    cells.writeDifferential(data);
    outcome.programPasses = 1;
    outcome.io.programPasses = 1;

    cells.readInto(readbackWs);
    outcome.io.verifyReads = 1;
    diffWs.assignFrom(readbackWs);
    diffWs.xorAssign(data);
    // Mismatches at corrected positions are expected: the replacement
    // bit supplies the data there.
    for (const Entry &e : entries)
        diffWs.set(e.pos, false);

    bool exhausted = false;
    diffWs.forEachSetBit([&](std::size_t pos) {
        if (exhausted)
            return;
        if (entries.size() >= entriesMax) {
            exhausted = true;
            return;
        }
        // aegis-lint: allow(HOT-ALLOC grows only when a NEW fault consumes a pointer — the cold branch by definition)
        entries.push_back(Entry{static_cast<std::uint32_t>(pos),
                                data.get(pos)});
        obs::bump(obs::Counter::EcpPointersConsumed);
        ++outcome.newFaults;
    });
    outcome.ok = !exhausted;
    return outcome;
}

BitVector
EcpScheme::read(const pcm::CellArray &cells) const
{
    BitVector out;
    readInto(cells, out);
    return out;
}

AEGIS_HOT void
EcpScheme::readInto(const pcm::CellArray &cells, BitVector &out) const
{
    AEGIS_TRACE_SCOPE(obs::Scope::SchemeRead);
    cells.readInto(out);
    for (const Entry &e : entries)
        out.set(e.pos, e.replacement);
}

void
EcpScheme::reset()
{
    entries.clear();
}

std::unique_ptr<Scheme>
EcpScheme::clone() const
{
    return std::make_unique<EcpScheme>(*this);
}

namespace {

std::size_t
widthFor(std::size_t max_value)
{
    return max_value == 0
               ? 0
               : static_cast<std::size_t>(std::bit_width(max_value));
}

} // namespace

std::size_t
EcpScheme::metadataBits() const
{
    const std::size_t pointer_bits = widthFor(bits - 1);
    return widthFor(entriesMax) + entriesMax * (pointer_bits + 1);
}

BitVector
EcpScheme::exportMetadata() const
{
    const std::size_t pointer_bits = widthFor(bits - 1);
    BitWriter w(metadataBits());
    w.writeBits(entries.size(), widthFor(entriesMax));
    for (std::size_t i = 0; i < entriesMax; ++i) {
        const bool live = i < entries.size();
        w.writeBits(live ? entries[i].pos : 0, pointer_bits);
        w.writeBit(live ? entries[i].replacement : false);
    }
    return w.finish();
}

void
EcpScheme::importMetadata(const BitVector &image)
{
    AEGIS_REQUIRE(image.size() == metadataBits(),
                  "ECP metadata image has the wrong width");
    const std::size_t pointer_bits = widthFor(bits - 1);
    BitReader r(image);
    const std::size_t used = r.readBits(widthFor(entriesMax));
    AEGIS_REQUIRE(used <= entriesMax, "corrupt ECP entry counter");
    entries.clear();
    for (std::size_t i = 0; i < entriesMax; ++i) {
        const auto pos =
            static_cast<std::uint32_t>(r.readBits(pointer_bits));
        const bool repl = r.readBit();
        if (i < used) {
            AEGIS_REQUIRE(pos < bits, "corrupt ECP pointer");
            entries.push_back(Entry{pos, repl});
        }
    }
}

std::unique_ptr<LifetimeTracker>
EcpScheme::makeTracker(const TrackerOptions &) const
{
    return std::make_unique<EcpTracker>(entriesMax);
}

} // namespace aegis::scheme
