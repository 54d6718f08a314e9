/**
 * @file
 * Cross-validation of the Monte-Carlo lifetime trackers against the
 * functional schemes: for the same fault sequence, a tracker that
 * reports "alive with zero failure probability" must correspond to a
 * functional scheme that services random writes successfully, and a
 * functional failure must be foreshadowed by the tracker (Dead, or a
 * positive failure probability).
 */

#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "aegis/factory.h"
#include "pcm/fail_cache.h"
#include "util/error.h"
#include "util/rng.h"

namespace aegis {
namespace {

using core::makeScheme;
using scheme::FaultVerdict;

struct Case
{
    const char *name;
    std::size_t blockBits;
};

/** Field-wise print, so the discovered ctest names are stable (gtest
 *  would otherwise print the raw bytes, pointer included). */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << "{name=" << c.name << ", blockBits=" << c.blockBits << "}";
}

class TrackerCrossValidation : public ::testing::TestWithParam<Case>
{};

TEST_P(TrackerCrossValidation, TrackerAgreesWithFunctionalScheme)
{
    const auto &param = GetParam();
    Rng rng(std::string(param.name).size() * 1000 + param.blockBits);

    for (int trial = 0; trial < 6; ++trial) {
        auto dir = std::make_shared<pcm::OracleFaultDirectory>();
        auto scheme = makeScheme(param.name, param.blockBits);
        scheme->attachDirectory(dir.get(), 0);
        // Generous labeling-sample budget so a sampled p of exactly 0
        // reliably means "essentially safe" in the assertions below.
        auto tracker = scheme->makeTracker({4096});
        pcm::CellArray cells(param.blockBits);

        bool functional_alive = true;
        for (std::uint32_t f = 0; f < 64 && functional_alive; ++f) {
            std::uint32_t pos;
            do {
                pos = static_cast<std::uint32_t>(
                    rng.nextBounded(param.blockBits));
            } while (cells.isStuck(pos));
            const bool stuck = rng.nextBool();
            cells.injectFault(pos, stuck);
            dir->record(0, {pos, stuck});

            const FaultVerdict verdict = tracker->onFault({pos, stuck});
            const double p = tracker->writeFailureProbability(rng);

            int failures = 0;
            for (int w = 0; w < 12; ++w) {
                const BitVector data =
                    BitVector::random(param.blockBits, rng);
                const auto outcome = scheme->write(cells, data);
                if (!outcome.ok) {
                    ++failures;
                    break;
                }
                ASSERT_EQ(scheme->read(cells), data)
                    << param.name << " decoded garbage";
            }

            if (verdict == FaultVerdict::Dead) {
                // A deterministically dead block must fail fast.
                EXPECT_GT(failures, 0)
                    << param.name << ": tracker dead, writes fine"
                    << " (fault " << f << ")";
                functional_alive = false;
            } else if (failures > 0) {
                // Functional failure must be foreshadowed by p > 0.
                EXPECT_GT(p, 0.0)
                    << param.name
                    << ": functional write failed at p == 0 (fault "
                    << f << ")";
                functional_alive = false;
            }
            // verdict Alive && p == 0 && no failures: consistent.
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TrackerCrossValidation,
    ::testing::Values(Case{"none", 512}, Case{"ecp4", 512},
                      Case{"ecp6", 256}, Case{"safer32", 512},
                      Case{"safer16-cache", 256}, Case{"rdis3", 512},
                      Case{"aegis-23x23", 512}, Case{"aegis-9x61", 512},
                      Case{"aegis-12x23", 256},
                      Case{"aegis-rw-23x23", 512},
                      Case{"aegis-rw-p4-23x23", 512}),
    [](const ::testing::TestParamInfo<Case> &info) {
        std::string n = info.param.name;
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n + "_" + std::to_string(info.param.blockBits);
    });

TEST(Trackers, BasicAegisAmplifiedCellsAreFaultGroups)
{
    auto scheme = makeScheme("aegis-23x23", 512);
    auto tracker = scheme->makeTracker({});
    EXPECT_TRUE(tracker->amplifiedCells().empty());

    tracker->onFault({10, true});
    const auto hot = tracker->amplifiedCells();
    // One fault group of <= A = 23 members.
    EXPECT_GE(hot.size(), 1u);
    EXPECT_LE(hot.size(), 23u);
    // The fault's own position is a group member.
    EXPECT_NE(std::find(hot.begin(), hot.end(), 10u), hot.end());
}

TEST(Trackers, RwVariantsNeverAmplify)
{
    for (const char *name : {"aegis-rw-23x23", "aegis-rw-p4-23x23",
                             "rdis3", "safer32-cache"}) {
        auto scheme = makeScheme(name, 512);
        auto tracker = scheme->makeTracker({64});
        tracker->onFault({10, true});
        tracker->onFault({200, false});
        EXPECT_TRUE(tracker->amplifiedCells().empty()) << name;
    }
}

TEST(Trackers, BasicAegisSlopeSurvivesMoreFaultsThanGuarantee)
{
    auto scheme = makeScheme("aegis-9x61", 512);
    auto tracker = scheme->makeTracker({});
    Rng rng(13);
    std::uint32_t survived = 0;
    for (std::uint32_t f = 0; f < 512; ++f) {
        const auto pos = static_cast<std::uint32_t>(f * 97 % 512);
        if (tracker->onFault({pos, rng.nextBool()}) ==
            FaultVerdict::Dead) {
            break;
        }
        ++survived;
    }
    EXPECT_GT(survived, scheme->hardFtc());
    EXPECT_LT(survived, 128u);    // and it certainly cannot do 128
}

TEST(Trackers, RwFailureProbabilityGrowsWithFaults)
{
    auto scheme = makeScheme("aegis-rw-23x23", 512);
    auto tracker = scheme->makeTracker({512});
    Rng rng(17);
    double last_p = 0.0;
    std::uint32_t f = 0;
    while (f < 200 && last_p < 0.9) {
        std::uint32_t pos = (f * 131 + 7) % 512;
        tracker->onFault({pos, rng.nextBool()});
        last_p = tracker->writeFailureProbability(rng);
        ++f;
    }
    EXPECT_GE(last_p, 0.9) << "p never became critical";
    EXPECT_GT(f, scheme->hardFtc());
}

} // namespace
} // namespace aegis
