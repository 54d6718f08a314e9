/**
 * @file
 * Metadata round-trip tests: the packed image must fit the advertised
 * bit budget and restore full scheme state — a fresh scheme instance
 * that imports the image must decode the block identically and keep
 * servicing writes.
 *
 * This is the proof that the Table-1 bit counts are *sufficient*, not
 * just an accounting convention.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "aegis/factory.h"
#include "pcm/fail_cache.h"
#include "util/bit_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace aegis {
namespace {

TEST(BitIo, RoundTripFields)
{
    BitWriter w(21);
    w.writeBits(0b10110, 5);
    w.writeBit(true);
    w.writeBits(1234, 11);
    w.writeBits(0xF, 4);
    const BitVector image = w.finish();
    ASSERT_EQ(image.size(), 21u);

    BitReader r(image);
    EXPECT_EQ(r.readBits(5), 0b10110u);
    EXPECT_TRUE(r.readBit());
    EXPECT_EQ(r.readBits(11), 1234u);
    EXPECT_EQ(r.readBits(4), 0xFu);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitIo, VectorFields)
{
    Rng rng(1);
    const BitVector payload = BitVector::random(37, rng);
    BitWriter w(40);
    w.writeBits(5, 3);
    w.writeVector(payload);
    const BitVector image = w.finish();

    BitReader r(image);
    EXPECT_EQ(r.readBits(3), 5u);
    EXPECT_EQ(r.readVector(37), payload);
}

TEST(BitIo, OverflowAndUnderflowAreCaught)
{
    BitWriter w(4);
    w.writeBits(3, 2);
    EXPECT_THROW(w.writeBits(0, 3), InternalError);
    EXPECT_THROW(w.finish(), InternalError);    // not full

    BitVector image(4);
    BitReader r(image);
    (void)r.readBits(3);
    EXPECT_THROW(r.readBits(2), ConfigError);
}

struct CodecCase
{
    const char *name;
    std::size_t blockBits;
};

/** Field-wise print, so the discovered ctest names are stable. */
void
PrintTo(const CodecCase &c, std::ostream *os)
{
    *os << "{name=" << c.name << ", blockBits=" << c.blockBits << "}";
}

class MetadataRoundTrip : public ::testing::TestWithParam<CodecCase>
{};

TEST_P(MetadataRoundTrip, ImageRestoresFullState)
{
    const auto &param = GetParam();
    Rng rng(std::string(param.name).size() * 31 + param.blockBits);

    auto dir = std::make_shared<pcm::OracleFaultDirectory>();
    auto original = core::makeScheme(param.name, param.blockBits);
    original->attachDirectory(dir.get(), 7);
    pcm::CellArray cells(param.blockBits);

    // Exercise the scheme: a few faults and writes so the metadata is
    // non-trivial (inversions, slope changes, pointers, entries).
    BitVector last(param.blockBits);
    for (int f = 0; f < 3; ++f) {
        // One fault per 64-bit word so the ECC baseline stays within
        // its per-word guarantee too.
        const auto pos = static_cast<std::uint32_t>(
            f * 64 + rng.nextBounded(64));
        const bool stuck = rng.nextBool();
        cells.injectFault(pos, stuck);
        dir->record(7, {pos, stuck});
        last = BitVector::random(param.blockBits, rng);
        ASSERT_TRUE(original->write(cells, last).ok);
    }
    ASSERT_EQ(original->read(cells), last);

    // Pack, then restore into a *fresh* instance.
    const BitVector image = original->exportMetadata();
    EXPECT_EQ(image.size(), original->metadataBits());

    auto restored = core::makeScheme(param.name, param.blockBits);
    restored->attachDirectory(dir.get(), 7);
    restored->importMetadata(image);

    // The restored scheme decodes the same data...
    EXPECT_EQ(restored->read(cells), last) << param.name;
    // ...exports an identical image...
    EXPECT_EQ(restored->exportMetadata(), image);
    // ...and keeps servicing writes.
    const BitVector next = BitVector::random(param.blockBits, rng);
    ASSERT_TRUE(restored->write(cells, next).ok);
    EXPECT_EQ(restored->read(cells), next);
}

TEST_P(MetadataRoundTrip, BudgetMatchesCostModel)
{
    const auto &param = GetParam();
    auto scheme = core::makeScheme(param.name, param.blockBits);
    const std::string name = scheme->name();
    if (name.rfind("ecp", 0) == 0 ||
        name.rfind("aegis-rw-p", 0) == 0) {
        // Documented exceptions: explicit entry counter / full-width
        // slope counter cost a few bits over the Table-1 accounting.
        EXPECT_LE(scheme->metadataBits(),
                  scheme->overheadBits() + 4) << name;
    } else {
        EXPECT_EQ(scheme->metadataBits(), scheme->overheadBits())
            << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MetadataRoundTrip,
    ::testing::Values(CodecCase{"ecp6", 512},
                      CodecCase{"safer32", 512},
                      CodecCase{"safer16-cache", 256},
                      CodecCase{"rdis3", 512},
                      CodecCase{"hamming", 256},
                      CodecCase{"aegis-23x23", 512},
                      CodecCase{"aegis-9x61", 512},
                      CodecCase{"aegis-12x23", 256},
                      CodecCase{"aegis-rw-23x23", 512},
                      CodecCase{"aegis-rw-p4-23x23", 512}),
    [](const ::testing::TestParamInfo<CodecCase> &info) {
        std::string n = info.param.name;
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n + "_" + std::to_string(info.param.blockBits);
    });

TEST(MetadataCodec, CorruptImagesAreRejected)
{
    auto aegis = core::makeScheme("aegis-23x23", 512);
    BitVector wrong_width(10);
    EXPECT_THROW(aegis->importMetadata(wrong_width), ConfigError);

    // A slope counter beyond B must be rejected.
    BitVector bad(aegis->metadataBits());
    for (std::size_t i = 0; i < 5; ++i)
        bad.set(i, true);    // counter = 31 >= B = 23
    EXPECT_THROW(aegis->importMetadata(bad), ConfigError);

    auto safer = core::makeScheme("safer32", 512);
    BitVector bad_safer(safer->metadataBits());
    bad_safer.set(0, true);
    bad_safer.set(1, true);
    bad_safer.set(2, true);    // used-field counter = 7 > k = 5
    EXPECT_THROW(safer->importMetadata(bad_safer), ConfigError);
}

TEST(MetadataCodec, NoneHasEmptyImage)
{
    auto none = core::makeScheme("none", 512);
    EXPECT_EQ(none->metadataBits(), 0u);
    EXPECT_TRUE(none->exportMetadata().empty());
    none->importMetadata(BitVector());
}

} // namespace
} // namespace aegis
