/**
 * @file
 * Tests for the functional PCM device and the scheme factory.
 */

#include <gtest/gtest.h>

#include "aegis/factory.h"
#include "sim/device.h"
#include "util/error.h"
#include "util/rng.h"

namespace aegis {
namespace {

using core::makeScheme;
using core::paperSchemeNames;
using sim::PcmDevice;

TEST(Factory, BuildsEveryPaperScheme)
{
    for (std::size_t bits : {256u, 512u}) {
        for (const std::string &name : paperSchemeNames(bits)) {
            auto scheme = makeScheme(name, bits);
            EXPECT_EQ(scheme->name(), name);
            EXPECT_EQ(scheme->blockBits(), bits);
            EXPECT_GT(scheme->overheadBits(), 0u);
            EXPECT_GE(scheme->hardFtc(), 1u);
        }
    }
}

TEST(Factory, ParsesVariantNames)
{
    EXPECT_EQ(makeScheme("aegis-rw-17x31", 512)->name(),
              "aegis-rw-17x31");
    EXPECT_EQ(makeScheme("aegis-rw-p5-17x31", 512)->name(),
              "aegis-rw-p5-17x31");
    EXPECT_EQ(makeScheme("safer64-cache", 512)->name(),
              "safer64-cache");
    EXPECT_EQ(makeScheme("none", 512)->name(), "none");
    EXPECT_EQ(makeScheme("rdis3", 512)->name(), "rdis3");
}

TEST(Factory, SchemeSpecParsesAndFormats)
{
    using core::SchemeSpec;
    EXPECT_EQ(SchemeSpec::parse("aegis-9x61"),
              (SchemeSpec{"aegis-9x61", false}));
    EXPECT_EQ(SchemeSpec::parse("aegis-9x61+audit"),
              (SchemeSpec{"aegis-9x61", true}));
    // Repeated suffixes collapse into the single flag.
    EXPECT_EQ(SchemeSpec::parse("ecp6+audit+audit"),
              (SchemeSpec{"ecp6", true}));
    EXPECT_EQ(SchemeSpec::parse("ecp6+audit").str(), "ecp6+audit");
    EXPECT_EQ((SchemeSpec{"safer64", false}).str(), "safer64");
    EXPECT_EQ((SchemeSpec{"safer64", false}).audited().str(),
              "safer64+audit");
    // The textual spelling stays the serialized form: scheme->name()
    // round-trips through parse()/str().
    for (const char *spelled : {"aegis-17x31", "aegis-17x31+audit"}) {
        auto scheme = makeScheme(SchemeSpec::parse(spelled), 512);
        EXPECT_EQ(scheme->name(), spelled);
        EXPECT_EQ(SchemeSpec::parse(scheme->name()).str(), spelled);
    }
}

TEST(Factory, SchemeSpecBuildsAuditedExactlyOnce)
{
    using core::SchemeSpec;
    auto once = makeScheme(SchemeSpec::parse("ecp6+audit"), 512);
    EXPECT_EQ(once->name(), "ecp6+audit");
    auto twice = makeScheme(SchemeSpec::parse("ecp6+audit+audit"), 512);
    EXPECT_EQ(twice->name(), "ecp6+audit");
    auto forced = core::makeAuditedScheme("ecp6+audit", 512);
    EXPECT_EQ(forced->name(), "ecp6+audit");
}

TEST(Factory, RejectsUnknownNames)
{
    EXPECT_THROW(makeScheme("sparkle", 512), ConfigError);
    EXPECT_THROW(makeScheme("ecp0", 512), ConfigError);
    EXPECT_THROW(makeScheme("aegis-9x60", 512), ConfigError);  // 60 ∤ prime
    EXPECT_THROW(makeScheme("aegis-", 512), ConfigError);
    EXPECT_THROW(makeScheme("aegis-rw-p0-23x23", 512), ConfigError);
}

TEST(Device, CleanPageRoundTrip)
{
    const pcm::Geometry geom{512, 4096, 2};
    auto proto = makeScheme("aegis-17x31", 512);
    PcmDevice device(geom, *proto);
    Rng rng(1);

    const BitVector page0 = BitVector::random(geom.pageBits(), rng);
    const BitVector page1 = BitVector::random(geom.pageBits(), rng);
    EXPECT_TRUE(device.writePage(0, page0));
    EXPECT_TRUE(device.writePage(1, page1));
    EXPECT_EQ(device.readPage(0), page0);
    EXPECT_EQ(device.readPage(1), page1);
    EXPECT_EQ(device.stats().blockWrites, 2u * geom.blocksPerPage());
    EXPECT_EQ(device.stats().failedWrites, 0u);
}

TEST(Device, SurvivesScatteredFaults)
{
    const pcm::Geometry geom{256, 1024, 4};
    auto proto = makeScheme("aegis-12x23", 256);
    PcmDevice device(geom, *proto);
    Rng rng(2);

    device.injectRandomFaults(32, rng);    // 1 fault/block on average
    for (int round = 0; round < 5; ++round) {
        for (std::uint32_t p = 0; p < geom.pages; ++p) {
            const BitVector data =
                BitVector::random(geom.pageBits(), rng);
            ASSERT_TRUE(device.writePage(p, data));
            ASSERT_EQ(device.readPage(p), data);
        }
    }
    EXPECT_EQ(device.stats().deadBlocks, 0u);
}

TEST(Device, DirectoryRequiredSchemesRejectConstructionWithoutOne)
{
    const pcm::Geometry geom{512, 4096, 1};
    auto rdis = makeScheme("rdis3", 512);
    EXPECT_THROW(PcmDevice(geom, *rdis), ConfigError);
}

TEST(Device, RwSchemeWithSharedOracleDirectory)
{
    const pcm::Geometry geom{512, 4096, 1};
    auto proto = makeScheme("aegis-rw-23x23", 512);
    auto dir = std::make_shared<pcm::OracleFaultDirectory>();
    PcmDevice device(geom, *proto, dir);
    Rng rng(3);

    device.injectRandomFaults(20, rng);
    for (int round = 0; round < 4; ++round) {
        const BitVector data = BitVector::random(geom.pageBits(), rng);
        ASSERT_TRUE(device.writePage(0, data));
        ASSERT_EQ(device.readPage(0), data);
    }
    // Verification reads populated the shared fail cache.
    EXPECT_GT(dir->totalFaults(), 0u);
}

TEST(Device, DeadBlockIsReported)
{
    const pcm::Geometry geom{512, 4096, 1};
    auto proto = makeScheme("ecp1", 512);
    PcmDevice device(geom, *proto);

    device.injectFault(0, 10, true);
    device.injectFault(0, 20, true);
    // All-zero data exposes both stuck-at-1 faults; ECP1 cannot cope.
    const BitVector zeros(512);
    EXPECT_FALSE(device.writeBlock(0, zeros).ok);
    EXPECT_TRUE(device.blockDead(0));
    EXPECT_EQ(device.stats().deadBlocks, 1u);
    EXPECT_EQ(device.stats().failedWrites, 1u);
}

TEST(Device, MismatchedSchemeRejected)
{
    const pcm::Geometry geom{512, 4096, 1};
    auto proto = makeScheme("aegis-12x23", 256);
    EXPECT_THROW(PcmDevice(geom, *proto), ConfigError);
}

TEST(Device, IntegrationWriteUntilFirstDeath)
{
    // End-to-end: keep flooding a small device with faults and
    // writes; data must decode correctly on every successful write,
    // and eventually a block must die.
    const pcm::Geometry geom{256, 1024, 2};
    auto proto = makeScheme("aegis-9x31", 256);
    PcmDevice device(geom, *proto);
    Rng rng(4);

    bool died = false;
    for (int round = 0; round < 300 && !died; ++round) {
        device.injectRandomFaults(2, rng);
        for (std::uint64_t blk = 0; blk < geom.totalBlocks(); ++blk) {
            if (device.blockDead(blk))
                continue;
            const BitVector data = BitVector::random(256, rng);
            const auto outcome = device.writeBlock(blk, data);
            if (!outcome.ok) {
                died = true;
            } else {
                ASSERT_EQ(device.readBlock(blk), data);
            }
        }
    }
    EXPECT_TRUE(died);
    EXPECT_GT(device.stats().repartitions, 0u);
}

} // namespace
} // namespace aegis
