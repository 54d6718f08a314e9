/**
 * @file
 * Table 1 reproduction tests: hardware cost in bits per 512-bit block
 * for ECP, SAFER, Aegis, Aegis-rw and Aegis-rw-p at hard FTC 1..10.
 */

#include <gtest/gtest.h>

#include "aegis/cost.h"
#include "scheme/ecp.h"
#include "scheme/rdis.h"
#include "scheme/safer.h"

namespace aegis::core {
namespace {

TEST(Cost, SlopeCounts)
{
    EXPECT_EQ(slopesNeededBasic(1), 1u);
    EXPECT_EQ(slopesNeededBasic(7), 22u);
    EXPECT_EQ(slopesNeededBasic(8), 29u);
    EXPECT_EQ(slopesNeededBasic(10), 46u);
    EXPECT_EQ(slopesNeededRw(1), 1u);
    EXPECT_EQ(slopesNeededRw(8), 17u);
    EXPECT_EQ(slopesNeededRw(9), 21u);
    // §2.4: "for hard FTC of 10, Aegis needs 46 slopes while
    // Aegis-rw needs only 26 slopes".
    EXPECT_EQ(slopesNeededRw(10), 26u);
}

TEST(Cost, HardFtcPerHeight)
{
    EXPECT_EQ(hardFtcBasic(23), 7u);
    EXPECT_EQ(hardFtcBasic(29), 8u);
    EXPECT_EQ(hardFtcBasic(31), 8u);
    EXPECT_EQ(hardFtcBasic(37), 9u);
    EXPECT_EQ(hardFtcBasic(47), 10u);
    EXPECT_EQ(hardFtcBasic(61), 11u);
    EXPECT_EQ(hardFtcBasic(71), 12u);
    EXPECT_EQ(hardFtcRw(23), 9u);
    EXPECT_EQ(hardFtcRw(61), 15u);
    EXPECT_EQ(hardFtcRwP(23, 4), 9u);
    EXPECT_EQ(hardFtcRwP(23, 2), 5u);
    EXPECT_EQ(hardFtcRwP(61, 9), 15u);    // capped by rw FTC
}

TEST(Cost, MinimalHeightMatchesPaper)
{
    // "it provides minimally 23 groups for a 512-bit block" (§2.3).
    EXPECT_EQ(minimalHeight(512), 23u);
    EXPECT_EQ(minimalHeight(256), 17u);
    EXPECT_EQ(minimalHeight(32), 7u);    // Figure 2's 5x7
}

TEST(Cost, Table1EcpRow)
{
    const std::size_t expected[] = {11, 21, 31, 41, 51,
                                    61, 71, 81, 91, 101};
    for (std::size_t f = 1; f <= 10; ++f)
        EXPECT_EQ(scheme::EcpScheme::costBits(512, f), expected[f - 1]);
}

TEST(Cost, Table1SaferRow)
{
    // N = 2^(f-1) groups for hard FTC f (SAFER's FTC is fields + 1).
    const std::size_t expected[] = {1,  7,   14,  22,  35,
                                    55, 91,  159, 292, 552};
    for (std::size_t f = 1; f <= 10; ++f) {
        const std::size_t groups = 1ull << (f - 1);
        EXPECT_EQ(scheme::SaferScheme::costBits(512, groups),
                  expected[f - 1])
            << "SAFER" << groups;
    }
}

TEST(Cost, Table1AegisRow)
{
    const std::uint64_t expected[] = {23, 24, 25, 26, 27,
                                      27, 28, 34, 43, 53};
    const std::uint32_t expected_b[] = {23, 23, 23, 23, 23,
                                        23, 23, 29, 37, 47};
    for (std::uint32_t f = 1; f <= 10; ++f) {
        const CostPoint point = minimalCostBasic(512, f);
        EXPECT_EQ(point.bits, expected[f - 1]) << "FTC " << f;
        EXPECT_EQ(point.b, expected_b[f - 1]) << "FTC " << f;
    }
}

TEST(Cost, Table1AegisRwRow)
{
    // The paper lists 23,24,25,26,27,27,28,28,28,28. Our formula
    // agrees through FTC 9; at FTC 10 Aegis-rw needs 26 slopes, more
    // than B = 23 provides, so the formula-faithful answer uses
    // B = 29 and costs 34 (see DESIGN.md §4).
    const std::uint64_t expected[] = {23, 24, 25, 26, 27,
                                      27, 28, 28, 28, 34};
    for (std::uint32_t f = 1; f <= 10; ++f) {
        const CostPoint point = minimalCostRw(512, f);
        EXPECT_EQ(point.bits, expected[f - 1]) << "FTC " << f;
        if (f <= 9) {
            EXPECT_EQ(point.b, 23u);
        }
    }
}

TEST(Cost, Table1AegisRwPRow)
{
    const std::uint64_t expected[] = {1,  8,  9,  15, 15,
                                      21, 21, 27, 27, 32};
    for (std::uint32_t f = 1; f <= 10; ++f) {
        const CostPoint point = minimalCostRwP(512, f);
        EXPECT_EQ(point.bits, expected[f - 1]) << "FTC " << f;
    }
}

TEST(Cost, RdisOverheadsQuotedInPaper)
{
    // "With 256-bit data blocks, RDIS-3's space overhead is 25% of
    // data space. This overhead is reduced to 19% with 512-bit
    // blocks."
    const std::size_t c256 = scheme::RdisScheme::costBits(256, 16, 3);
    const std::size_t c512 = scheme::RdisScheme::costBits(512, 16, 3);
    EXPECT_EQ(c256, 65u);
    EXPECT_EQ(c512, 97u);
    EXPECT_NEAR(static_cast<double>(c256) / 256, 0.25, 0.01);
    EXPECT_NEAR(static_cast<double>(c512) / 512, 0.19, 0.01);
}

TEST(Cost, HammingYardstick)
{
    // (72,64) coding: 12.5% overhead, the paper's budget ceiling.
    EXPECT_EQ(costBitsSecDed(512), 64u);
    EXPECT_DOUBLE_EQ(static_cast<double>(costBitsSecDed(512)) / 512,
                     0.125);
    EXPECT_EQ(costBitsSecDed(256), 32u);
}

TEST(Cost, PaperAnecdotes)
{
    // §1.3 / §3.2 cross-checks: "with 31 groups Aegis can tolerate 8
    // faults ... using 32 groups SAFER can only tolerate 6".
    EXPECT_EQ(hardFtcBasic(31), 8u);
    scheme::SaferScheme safer32(512, 32, false);
    EXPECT_EQ(safer32.hardFtc(), 6u);
    // "Aegis 9x61 spends 67 bits ... SAFER64 spends 91 bits".
    EXPECT_EQ(costBitsBasic(61, hardFtcBasic(61)), 67u);
    EXPECT_EQ(scheme::SaferScheme::costBits(512, 64), 91u);
    // "Aegis 23x23 ... only 5.5% space overhead" (28/512).
    EXPECT_NEAR(static_cast<double>(costBitsBasic(23, 7)) / 512, 0.055,
                0.001);
    // "Aegis 17x31 uses only 7% of the memory as overhead" (36/512).
    EXPECT_NEAR(static_cast<double>(costBitsBasic(31, 8)) / 512, 0.07,
                0.003);
}

} // namespace
} // namespace aegis::core
