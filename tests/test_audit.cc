/**
 * @file
 * The runtime invariant auditor (audit::SchemeAuditor).
 *
 * Two directions: (1) every scheme the factory can build runs clean
 * under the auditor — the decorator is transparent and its checks hold
 * on healthy implementations; (2) deliberately broken schemes and
 * deliberately corrupted metadata are caught, proving the tripwire
 * actually trips.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aegis/factory.h"
#include "audit/scheme_auditor.h"
#include "pcm/fail_cache.h"
#include "sim/experiment.h"
#include "util/error.h"
#include "util/rng.h"

namespace aegis {
namespace {

/** Every factory spelling exercised by the audit sweep, per size. */
std::vector<std::string>
allFactoryNames(std::size_t block_bits)
{
    std::vector<std::string> names =
        core::paperSchemeNames(block_bits);
    names.emplace_back("none");
    if (block_bits == 512) {
        names.emplace_back("aegis-cache-23x23");
        names.emplace_back("aegis-rw-23x23");
        names.emplace_back("aegis-rw-17x31");
        names.emplace_back("aegis-rw-p4-23x23");
        names.emplace_back("aegis-rw-p9-9x61");
        names.emplace_back("safer64-cache");
    } else {
        names.emplace_back("aegis-cache-12x23");
        names.emplace_back("aegis-rw-12x23");
        names.emplace_back("aegis-rw-p4-12x23");
        names.emplace_back("safer16-cache");
    }
    return names;
}

/** Drive @p steps random writes with occasional fault injections. */
void
driveRandomly(scheme::Scheme &scheme, pcm::CellArray &cells,
              pcm::OracleFaultDirectory &dir, std::uint64_t block_id,
              int steps, Rng &rng)
{
    for (int step = 0; step < steps; ++step) {
        if (step > 0 && rng.nextBounded(4) == 0) {
            const auto pos = static_cast<std::uint32_t>(
                rng.nextBounded(cells.size()));
            if (!cells.isStuck(pos)) {
                const bool stuck = cells.readBit(pos);
                cells.injectFaultAtCurrentValue(pos);
                dir.record(block_id, {pos, stuck});
            }
        }
        const BitVector data = BitVector::random(cells.size(), rng);
        if (!scheme.write(cells, data).ok)
            return;
        ASSERT_EQ(scheme.read(cells), data);
    }
}

TEST(SchemeAuditor, WrapsEverySchemeTheFactoryCanBuild)
{
    for (const std::size_t bits : {std::size_t{512}, std::size_t{256}}) {
        for (const std::string &name : allFactoryNames(bits)) {
            SCOPED_TRACE(name + "@" + std::to_string(bits));
            auto scheme = core::makeScheme(name + "+audit", bits);
            auto *auditor =
                dynamic_cast<audit::SchemeAuditor *>(scheme.get());
            ASSERT_NE(auditor, nullptr)
                << "factory did not wrap " << name;
            // The factory has no aliases: the inner scheme keeps the
            // base spelling, and the auditor's name appends the suffix.
            EXPECT_EQ(auditor->inner().name(), name);
            EXPECT_EQ(scheme->name(), name + "+audit");
            EXPECT_EQ(scheme->blockBits(), bits);

            pcm::OracleFaultDirectory dir;
            scheme->attachDirectory(&dir, 1);
            pcm::CellArray cells(bits);
            Rng rng(std::hash<std::string>{}(name) ^ bits);
            driveRandomly(*scheme, cells, dir, 1, 40, rng);
            EXPECT_GT(auditor->auditedWrites(), 0u);
            EXPECT_GT(auditor->checksRun(), 0u);
        }
    }
}

TEST(SchemeAuditor, AuditedNameRoundTripsThroughFactory)
{
    const auto scheme = core::makeScheme("aegis-9x61+audit", 512);
    const auto again = core::makeScheme(scheme->name(), 512);
    EXPECT_EQ(again->name(), "aegis-9x61+audit");
}

TEST(SchemeAuditor, MakeAuditedSchemeNeverDoubleWraps)
{
    const auto scheme = core::makeAuditedScheme("aegis-9x61+audit", 512);
    const auto *auditor =
        dynamic_cast<const audit::SchemeAuditor *>(scheme.get());
    ASSERT_NE(auditor, nullptr);
    EXPECT_EQ(dynamic_cast<const audit::SchemeAuditor *>(
                  &auditor->inner()),
              nullptr);
}

TEST(SchemeAuditor, NeverAuditsAnAuditor)
{
    // Audit is a flag of the structured spec, not a stackable
    // decorator: repeated "+audit" spellings collapse and the built
    // scheme is wrapped exactly once.
    const auto scheme =
        core::makeScheme("aegis-9x61+audit+audit", 512);
    EXPECT_EQ(scheme->name(), "aegis-9x61+audit");
    const auto *auditor =
        dynamic_cast<const audit::SchemeAuditor *>(scheme.get());
    ASSERT_NE(auditor, nullptr);
    EXPECT_EQ(dynamic_cast<const audit::SchemeAuditor *>(
                  &auditor->inner()),
              nullptr);
}

TEST(SchemeAuditor, CloneKeepsAuditingAndCounters)
{
    auto scheme = core::makeAuditedScheme("safer32", 512);
    pcm::OracleFaultDirectory dir;
    scheme->attachDirectory(&dir, 3);
    pcm::CellArray cells(512);
    Rng rng(11);
    const BitVector data = BitVector::random(512, rng);
    ASSERT_TRUE(scheme->write(cells, data).ok);

    const auto copy = scheme->clone();
    const auto *auditor =
        dynamic_cast<const audit::SchemeAuditor *>(copy.get());
    ASSERT_NE(auditor, nullptr);
    EXPECT_EQ(auditor->auditedWrites(), 1u);
    EXPECT_EQ(copy->read(cells), data);
}

TEST(SchemeAuditor, CatchesACorruptedInversionFlag)
{
    // The acceptance scenario: one flipped inversion flag in the
    // persisted metadata must not go unnoticed.
    auto scheme = core::makeAuditedScheme("aegis-9x61", 512);
    auto *auditor = dynamic_cast<audit::SchemeAuditor *>(scheme.get());
    ASSERT_NE(auditor, nullptr);

    pcm::CellArray cells(512);
    Rng rng(23);
    const BitVector data = BitVector::random(512, rng);
    ASSERT_TRUE(scheme->write(cells, data).ok);
    ASSERT_EQ(scheme->read(cells), data);

    // Tamper behind the auditor's back: flip the last inversion flag
    // (group B-1) in the packed image and restore it into the scheme.
    BitVector image = auditor->inner().exportMetadata();
    image.flip(image.size() - 1);
    auditor->inner().importMetadata(image);

    EXPECT_THROW(scheme->read(cells), InternalError);

    // After disowning the shadow copy the decorator is permissive
    // again (reads decode whatever the metadata says).
    auditor->invalidateShadow();
    EXPECT_NO_THROW(scheme->read(cells));
}

TEST(SchemeAuditor, CatchesACorruptedSlopeCounter)
{
    auto scheme = core::makeAuditedScheme("aegis-12x23", 256);
    auto *auditor = dynamic_cast<audit::SchemeAuditor *>(scheme.get());
    ASSERT_NE(auditor, nullptr);

    pcm::CellArray cells(256);
    Rng rng(31);
    // Two faults force a nonzero inversion vector so a slope change
    // alters the decode.
    cells.injectFault(5, true);
    cells.injectFault(40, true);
    BitVector data(256, false);
    ASSERT_TRUE(scheme->write(cells, data).ok);

    BitVector image = auditor->inner().exportMetadata();
    image.flip(0);    // highest bit of the slope counter
    try {
        auditor->inner().importMetadata(image);
    } catch (const ConfigError &) {
        // The corrupt counter can exceed B, which import itself
        // rejects — also an acceptable detection.
        return;
    }
    EXPECT_THROW(scheme->read(cells), InternalError);
}

TEST(SchemeAuditor, CatchesFailCacheLies)
{
    auto scheme = core::makeAuditedScheme("aegis-12x23", 256);
    pcm::OracleFaultDirectory dir;
    scheme->attachDirectory(&dir, 7);
    pcm::CellArray cells(256);
    // The directory claims cell 100 is stuck, but it is healthy.
    dir.record(7, {100, true});
    Rng rng(5);
    EXPECT_THROW(scheme->write(cells, BitVector::random(256, rng)),
                 InternalError);
}

// ---------------------------------------------------------------------
// Deliberately defective schemes: each violates exactly one audited
// invariant; the auditor must name and catch it.
// ---------------------------------------------------------------------

enum class Defect
{
    None,
    ReadBackLies,         ///< claims ok but stores one bit wrong
    RetiresHealthyBlock,  ///< reports failure within its hard FTC
    ImageWidthLies,       ///< exportMetadata() narrower than promised
};

class DefectiveScheme : public scheme::Scheme
{
  public:
    DefectiveScheme(std::size_t n, Defect defect)
        : bits(n), flaw(defect)
    {}

    const std::string &name() const override
    {
        static const std::string n = "defective";
        return n;
    }
    std::size_t blockBits() const override { return bits; }
    std::size_t overheadBits() const override { return 4; }
    std::size_t hardFtc() const override { return 4; }
    std::size_t metadataBits() const override { return 4; }

    scheme::WriteOutcome write(pcm::CellArray &cells,
                               const BitVector &data) override
    {
        scheme::WriteOutcome outcome;
        if (flaw == Defect::RetiresHealthyBlock) {
            outcome.ok = false;
            return outcome;
        }
        BitVector target = data;
        if (flaw == Defect::ReadBackLies)
            target.flip(0);
        cells.writeDifferential(target);
        outcome.ok = true;
        outcome.programPasses = 1;
        return outcome;
    }

    BitVector read(const pcm::CellArray &cells) const override
    {
        return cells.read();
    }

    void reset() override {}

    std::unique_ptr<scheme::Scheme> clone() const override
    {
        return std::make_unique<DefectiveScheme>(*this);
    }

    BitVector exportMetadata() const override
    {
        return BitVector(flaw == Defect::ImageWidthLies ? 2 : 4);
    }

    void importMetadata(const BitVector &) override {}

    std::unique_ptr<scheme::LifetimeTracker>
    makeTracker(const scheme::TrackerOptions &) const override
    {
        return nullptr;
    }

  private:
    std::size_t bits;
    Defect flaw;
};

TEST(SchemeAuditor, HonestDefectFreeSchemePassesAudit)
{
    auto audited = audit::wrapWithAuditor(
        std::make_unique<DefectiveScheme>(64, Defect::None));
    pcm::CellArray cells(64);
    Rng rng(1);
    const BitVector data = BitVector::random(64, rng);
    EXPECT_TRUE(audited->write(cells, data).ok);
    EXPECT_EQ(audited->read(cells), data);
}

TEST(SchemeAuditor, CatchesReadAfterWriteMismatch)
{
    auto audited = audit::wrapWithAuditor(
        std::make_unique<DefectiveScheme>(64, Defect::ReadBackLies));
    pcm::CellArray cells(64);
    Rng rng(2);
    try {
        audited->write(cells, BitVector::random(64, rng));
        FAIL() << "auditor missed the read-back mismatch";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("read-after-write"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SchemeAuditor, CatchesPrematureRetirement)
{
    auto audited = audit::wrapWithAuditor(
        std::make_unique<DefectiveScheme>(
            64, Defect::RetiresHealthyBlock));
    pcm::CellArray cells(64);    // zero faults, hard FTC is 4
    Rng rng(3);
    try {
        audited->write(cells, BitVector::random(64, rng));
        FAIL() << "auditor missed the premature retirement";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("retired"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SchemeAuditor, CatchesMetadataImageWidthLie)
{
    auto audited = audit::wrapWithAuditor(
        std::make_unique<DefectiveScheme>(64, Defect::ImageWidthLies));
    pcm::CellArray cells(64);
    Rng rng(4);
    try {
        audited->write(cells, BitVector::random(64, rng));
        FAIL() << "auditor missed the image width lie";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("metadataBits"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SchemeAuditor, ExperimentConfigSpellsAuditedSchemes)
{
    sim::ExperimentConfig cfg;
    cfg.scheme = "aegis-9x61";
    EXPECT_EQ(cfg.schemeSpec(),
              (core::SchemeSpec{"aegis-9x61", false}));
    EXPECT_EQ(cfg.schemeSpec().str(), "aegis-9x61");
    cfg.audit = true;
    EXPECT_EQ(cfg.schemeSpec().str(), "aegis-9x61+audit");
    EXPECT_EQ(cfg.schemeSpec("ecp6"),
              (core::SchemeSpec{"ecp6", true}));
    EXPECT_EQ(cfg.schemeSpec("ecp6").str(), "ecp6+audit");
    EXPECT_EQ(cfg.schemeSpec("ecp6+audit").str(), "ecp6+audit");
}

} // namespace
} // namespace aegis
