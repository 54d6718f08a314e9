/**
 * @file
 * Cross-scheme fuzzing: long random interleavings of writes, fault
 * injections, metadata export/import and cloning, with one global
 * invariant — every read after a successful write returns exactly the
 * data written, and a scheme that reports a failed write never
 * silently corrupts earlier state (the failure is the signal to
 * retire the block).
 *
 * Every fuzzed scheme runs wrapped in the runtime invariant auditor
 * (audit::SchemeAuditor), so each random step also exercises the
 * theorem, budget and directory cross-checks. The differential
 * harness at the bottom drives all schemes through one identical
 * scripted fault/write sequence and validates their recoverability
 * claims against brute-force oracles reimplemented here,
 * independently of both the schemes and the auditor.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "aegis/aegis_scheme.h"
#include "aegis/factory.h"
#include "aegis/partition.h"
#include "obs/metrics.h"
#include "pcm/cell_array.h"
#include "pcm/fail_cache.h"
#include "scheme/inversion_driver.h"
#include "scheme/safer.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/simd/simd.h"

namespace aegis {
namespace {

struct FuzzCase
{
    const char *name;
    std::size_t blockBits;
    int steps;
};

/** Field-wise print, so the discovered ctest names are stable (gtest
 *  would otherwise print the raw bytes, pointer included). */
void
PrintTo(const FuzzCase &c, std::ostream *os)
{
    *os << "{name=" << c.name << ", blockBits=" << c.blockBits
        << ", steps=" << c.steps << "}";
}

class SchemeFuzz : public ::testing::TestWithParam<FuzzCase>
{};

TEST_P(SchemeFuzz, LongRandomInterleaving)
{
    const auto &param = GetParam();
    Rng rng(std::string(param.name).size() * 7919 + param.blockBits);

    for (int trial = 0; trial < 4; ++trial) {
        auto dir = std::make_shared<pcm::OracleFaultDirectory>();
        auto scheme =
            core::makeAuditedScheme(param.name, param.blockBits);
        scheme->attachDirectory(dir.get(), trial);
        pcm::CellArray cells(param.blockBits);

        bool have_data = false;
        BitVector last(param.blockBits);
        bool retired = false;

        for (int step = 0; step < param.steps && !retired; ++step) {
            const auto dice = rng.nextBounded(10);
            if (dice < 6) {
                // Write random data.
                last = BitVector::random(param.blockBits, rng);
                const auto outcome = scheme->write(cells, last);
                if (!outcome.ok) {
                    retired = true;
                    break;
                }
                have_data = true;
                ASSERT_EQ(scheme->read(cells), last)
                    << param.name << " step " << step;
            } else if (dice < 8) {
                // Inject a fault at a random healthy cell; the next
                // writes must cope or report failure.
                std::uint32_t pos;
                int guard = 0;
                do {
                    pos = static_cast<std::uint32_t>(
                        rng.nextBounded(param.blockBits));
                } while (cells.isStuck(pos) && ++guard < 64);
                if (!cells.isStuck(pos)) {
                    // Cells stick at their current value (the
                    // physically accurate model), so stored data is
                    // intact until a later write wants the opposite.
                    const bool stuck = cells.readBit(pos);
                    cells.injectFaultAtCurrentValue(pos);
                    dir->record(trial, {pos, stuck});
                }
            } else if (dice == 8) {
                // Metadata round-trip through a fresh instance.
                const BitVector image = scheme->exportMetadata();
                auto fresh =
                    core::makeAuditedScheme(param.name, param.blockBits);
                fresh->attachDirectory(dir.get(), trial);
                fresh->importMetadata(image);
                if (have_data) {
                    ASSERT_EQ(fresh->read(cells), last)
                        << param.name << " metadata step " << step;
                }
                scheme = std::move(fresh);
            } else {
                // Clone and continue with the copy.
                auto copy = scheme->clone();
                copy->attachDirectory(dir.get(), trial);
                if (have_data) {
                    ASSERT_EQ(copy->read(cells), last)
                        << param.name << " clone step " << step;
                }
                scheme = std::move(copy);
            }
        }
        // If the block retired, that is legitimate — but it must have
        // happened with faults present, not on a healthy block.
        if (retired) {
            EXPECT_GT(cells.faultCount(), scheme->hardFtc())
                << param.name << " retired too early";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeFuzz,
    ::testing::Values(FuzzCase{"ecp6", 512, 120},
                      FuzzCase{"ecp4", 256, 120},
                      FuzzCase{"safer32", 512, 120},
                      FuzzCase{"safer64", 512, 120},
                      FuzzCase{"safer16-cache", 256, 120},
                      FuzzCase{"rdis3", 512, 120},
                      FuzzCase{"rdis3", 256, 120},
                      FuzzCase{"hamming", 512, 120},
                      FuzzCase{"aegis-23x23", 512, 150},
                      FuzzCase{"aegis-17x31", 512, 150},
                      FuzzCase{"aegis-9x61", 512, 150},
                      FuzzCase{"aegis-12x23", 256, 150},
                      FuzzCase{"aegis-cache-23x23", 512, 150},
                      FuzzCase{"aegis-rw-23x23", 512, 150},
                      FuzzCase{"aegis-rw-17x31", 512, 150},
                      FuzzCase{"aegis-rw-p4-23x23", 512, 150},
                      FuzzCase{"aegis-rw-p9-9x61", 512, 150}),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
        std::string n = info.param.name;
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n + "_" + std::to_string(info.param.blockBits);
    });

// ---------------------------------------------------------------------
// Differential harness: one scripted fault/write sequence, all schemes.
// ---------------------------------------------------------------------

/** One scripted step: optionally inject a fault, then write @ref data. */
struct ScriptStep
{
    bool inject = false;
    std::uint32_t pos = 0;
    bool stuck = false;
    BitVector data;
};

/** Pre-generate a script so every scheme sees the exact same events. */
std::vector<ScriptStep>
makeScript(std::size_t block_bits, int rounds, Rng &rng)
{
    std::vector<ScriptStep> script;
    std::vector<bool> used(block_bits, false);
    for (int round = 0; round < rounds; ++round) {
        ScriptStep step;
        if (round > 2 && round % 3 == 0) {
            std::uint32_t pos;
            do {
                pos = static_cast<std::uint32_t>(
                    rng.nextBounded(block_bits));
            } while (used[pos]);
            used[pos] = true;
            step.inject = true;
            step.pos = pos;
            step.stuck = rng.nextBool();
        }
        step.data = BitVector::random(block_bits, rng);
        script.push_back(std::move(step));
    }
    return script;
}

/** Parse "AxB" out of an Aegis factory name; false for non-Aegis. */
bool
parseFormation(const std::string &name, std::uint32_t &a_out,
               std::uint32_t &b_out)
{
    const auto x = name.rfind('x');
    if (name.rfind("aegis-", 0) != 0 || x == std::string::npos)
        return false;
    auto digits_start = x;
    while (digits_start > 0 &&
           std::isdigit(static_cast<unsigned char>(
               name[digits_start - 1])) != 0)
        --digits_start;
    a_out = static_cast<std::uint32_t>(
        std::stoul(name.substr(digits_start, x - digits_start)));
    b_out = static_cast<std::uint32_t>(std::stoul(name.substr(x + 1)));
    return true;
}

/** Group of bit @p pos in formation AxB under slope @p k (paper §2.2). */
std::uint32_t
groupOf(std::uint32_t pos, std::uint32_t b, std::uint32_t k)
{
    const std::uint32_t column = pos / b;
    const std::uint32_t y = pos % b;
    return (y + b - (column * k) % b) % b;
}

/** True when slope @p k puts every fault in its own group. */
bool
slopeSeparates(const pcm::FaultSet &faults, std::uint32_t b,
               std::uint32_t k)
{
    std::vector<int> count(b, 0);
    for (const auto &f : faults) {
        if (++count[groupOf(f.pos, b, k)] > 1)
            return false;
    }
    return true;
}

/**
 * True when slope @p k leaves some group with a stuck-at-Wrong /
 * stuck-at-Right mixture for @p data — the only unwritable pattern
 * for Aegis-rw (paper §2.4).
 */
bool
slopeMixed(const pcm::FaultSet &faults, const BitVector &data,
           std::uint32_t b, std::uint32_t k)
{
    std::vector<signed char> seen(b, 0);    // 0 none, +1 W, -1 R
    for (const auto &f : faults) {
        const signed char kind =
            pcm::classify(f, data.get(f.pos)) == pcm::FaultKind::Wrong
                ? static_cast<signed char>(1)
                : static_cast<signed char>(-1);
        auto &slot = seen[groupOf(f.pos, b, k)];
        if (slot == -kind)
            return true;
        slot = kind;
    }
    return false;
}

TEST(DifferentialFuzz, IdenticalSequencesAcrossAllSchemes)
{
    constexpr std::size_t kBits = 256;
    const std::vector<std::string> schemes = {
        "none",          "hamming",
        "ecp4",          "safer32",
        "safer16-cache", "rdis3",
        "aegis-12x23",   "aegis-9x31",
        "aegis-cache-12x23", "aegis-rw-12x23",
        "aegis-rw-p4-12x23",
    };

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 0x9e3779b9ull);
        const auto script = makeScript(kBits, 90, rng);

        for (const auto &name : schemes) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " " + name);
            auto scheme = core::makeAuditedScheme(name, kBits);
            pcm::OracleFaultDirectory dir;
            scheme->attachDirectory(&dir, seed);
            pcm::CellArray cells(kBits);

            std::uint32_t a = 0;
            std::uint32_t b = 0;
            const bool is_aegis = parseFormation(name, a, b);
            const bool is_rw_p = name.rfind("aegis-rw-p", 0) == 0;
            const bool is_rw = !is_rw_p &&
                               name.rfind("aegis-rw-", 0) == 0;

            for (const auto &step : script) {
                if (step.inject && !cells.isStuck(step.pos)) {
                    cells.injectFault(step.pos, step.stuck);
                    dir.record(seed, {step.pos, step.stuck});
                }
                const auto outcome = scheme->write(cells, step.data);
                if (outcome.ok) {
                    ASSERT_EQ(scheme->read(cells), step.data);
                    continue;
                }

                // The hard FTC is a guarantee over all placements and
                // data patterns: failing within it is a scheme bug.
                EXPECT_GT(cells.faultCount(), scheme->hardFtc())
                    << "retired with only " << cells.faultCount()
                    << " faults";

                // Brute-force recoverability oracles for the Aegis
                // family (rw-p may also die of pointer exhaustion, so
                // no slope-level claim applies to it).
                if (is_aegis && !is_rw && !is_rw_p) {
                    const auto faults = cells.faults();
                    for (std::uint32_t k = 0; k < b; ++k) {
                        EXPECT_FALSE(slopeSeparates(faults, b, k))
                            << "slope " << k
                            << " separates all faults, yet the "
                               "scheme reported failure";
                    }
                }
                if (is_rw) {
                    const auto faults = cells.faults();
                    for (std::uint32_t k = 0; k < b; ++k) {
                        EXPECT_TRUE(
                            slopeMixed(faults, step.data, b, k))
                            << "slope " << k
                            << " has no W/R mixture for this data, "
                               "yet the scheme reported failure";
                    }
                }
                break;    // block retired
            }
        }
    }
}

/**
 * The positive side of the oracle: as long as some slope separates
 * every injected fault, a basic Aegis write can never fail (Theorem 2
 * guarantees such a slope exists while faults are in distinct
 * columns, and the implementation searches all slopes).
 */
TEST(DifferentialFuzz, BasicAegisNeverFailsWhileASlopeSeparates)
{
    constexpr std::size_t kBits = 256;
    constexpr std::uint32_t kB = 23;
    Rng rng(99);
    auto scheme = core::makeAuditedScheme("aegis-12x23", kBits);
    pcm::CellArray cells(kBits);

    for (int round = 0; round < 200; ++round) {
        if (round % 4 == 1) {
            const auto pos = static_cast<std::uint32_t>(
                rng.nextBounded(kBits));
            if (!cells.isStuck(pos))
                cells.injectFault(pos, rng.nextBool());
        }
        bool separable = false;
        const auto faults = cells.faults();
        for (std::uint32_t k = 0; k < kB && !separable; ++k)
            separable = slopeSeparates(faults, kB, k);

        const auto outcome =
            scheme->write(cells, BitVector::random(kBits, rng));
        if (separable) {
            ASSERT_TRUE(outcome.ok)
                << "a separating slope exists but the write failed "
                   "with "
                << faults.size() << " faults";
            ASSERT_EQ(scheme->read(cells).size(), kBits);
        }
        if (!outcome.ok)
            break;
    }
}

// ---------------------------------------------------------------------
// Masked vs naive: the word-parallel data plane (group masks, XOR
// inversion, word-level differential writes) cross-checked against the
// retained per-bit reference paths over randomized fault sets, data
// patterns and block geometries.
// ---------------------------------------------------------------------

struct Formation
{
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t bits;
};

constexpr Formation kFormations[] = {{23, 23, 512}, {17, 31, 512},
                                     {9, 61, 512},  {12, 23, 256},
                                     {6, 43, 256},  {4, 67, 256}};

TEST(MaskedVsNaive, GroupMasksMatchGroupOfAndPartitionTheBlock)
{
    for (const Formation &f : kFormations) {
        SCOPED_TRACE(std::to_string(f.a) + "x" + std::to_string(f.b) +
                     "/" + std::to_string(f.bits));
        const core::Partition part(f.a, f.b, f.bits);
        core::GroupMaskCache cache;
        for (std::uint32_t k = 0; k < part.slopes(); ++k) {
            cache.rebuild(part, k);
            BitVector covered(f.bits);
            for (std::uint32_t g = 0; g < part.groups(); ++g) {
                const BitVector &mask = cache.mask(g);
                ASSERT_EQ(mask.size(), f.bits);
                for (std::uint32_t pos = 0; pos < f.bits; ++pos) {
                    ASSERT_EQ(mask.get(pos), part.groupOf(pos, k) == g)
                        << "slope " << k << " group " << g << " pos "
                        << pos;
                }
                // Masks of one slope must be pairwise disjoint...
                BitVector overlap = covered;
                overlap.andAssign(mask);
                ASSERT_TRUE(overlap.none())
                    << "slope " << k << " group " << g
                    << " overlaps an earlier group";
                covered.orAssign(mask);
            }
            // ...and together cover every bit (Theorem 1 again, this
            // time through the materialized masks).
            ASSERT_EQ(covered.popcount(), f.bits) << "slope " << k;
        }
    }
}

TEST(MaskedVsNaive, AegisMaskedInversionMatchesNaive)
{
    Rng rng(2026);
    for (const Formation &f : kFormations) {
        SCOPED_TRACE(std::to_string(f.a) + "x" + std::to_string(f.b) +
                     "/" + std::to_string(f.bits));
        core::AegisPartitionPolicy policy(
            core::Partition(f.a, f.b, f.bits));
        for (int trial = 0; trial < 16; ++trial) {
            policy.setSlope(
                static_cast<std::uint32_t>(rng.nextBounded(f.b)));
            const BitVector inv =
                BitVector::random(policy.groupCount(), rng);
            const BitVector data = BitVector::random(f.bits, rng);
            BitVector masked;
            scheme::applyGroupInversionInto(data, policy, inv, masked);
            ASSERT_EQ(masked,
                      scheme::applyGroupInversion(data, policy, inv))
                << "slope " << policy.currentSlope() << " trial "
                << trial;
        }
    }
}

TEST(MaskedVsNaive, SaferMaskedInversionMatchesNaive)
{
    Rng rng(77);
    for (const std::size_t bits : {std::size_t{256}, std::size_t{512}}) {
        SCOPED_TRACE(bits);
        scheme::SaferPartition part(bits, 5, true);
        for (int trial = 0; trial < 16; ++trial) {
            // Drive the field selection through random separations so
            // the masks are exercised across many configurations.
            pcm::FaultSet faults;
            std::vector<bool> used(bits, false);
            for (int i = 0; i < trial % 5; ++i) {
                std::uint32_t pos;
                do {
                    pos = static_cast<std::uint32_t>(
                        rng.nextBounded(bits));
                } while (used[pos]);
                used[pos] = true;
                faults.push_back({pos, rng.nextBool()});
            }
            std::uint32_t repartitions = 0;
            ASSERT_TRUE(part.separate(faults, repartitions));

            const BitVector inv =
                BitVector::random(part.groupCount(), rng);
            const BitVector data = BitVector::random(bits, rng);
            BitVector masked;
            scheme::applyGroupInversionInto(data, part, inv, masked);
            ASSERT_EQ(masked,
                      scheme::applyGroupInversion(data, part, inv))
                << "trial " << trial;
        }
    }
}

TEST(MaskedVsNaive, DifferentialWriteMatchesBitwiseReference)
{
    Rng rng(4242);
    for (const std::size_t bits :
         {std::size_t{1}, std::size_t{3}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{127},
          std::size_t{128}, std::size_t{256}, std::size_t{512}}) {
        SCOPED_TRACE(bits);
        pcm::CellArray cells(bits);

        // Independent bitwise reference model of the cell row.
        std::vector<bool> stored(bits, false);
        std::vector<bool> stuck(bits, false);
        std::vector<bool> stuck_val(bits, false);
        std::vector<std::uint64_t> writes(bits, 0);
        std::uint64_t total = 0;

        for (int round = 0; round < 24; ++round) {
            if (round % 3 == 1) {
                const auto pos = rng.nextBounded(bits);
                if (!stuck[pos]) {
                    const bool v = rng.nextBool();
                    cells.injectFault(pos, v);
                    stuck[pos] = true;
                    stuck_val[pos] = v;
                }
            }
            const BitVector target = BitVector::random(bits, rng);
            const bool blind = round % 5 == 4;
            const std::size_t programmed =
                blind ? cells.writeBlind(target)
                      : cells.writeDifferential(target);

            std::size_t expected = 0;
            for (std::size_t i = 0; i < bits; ++i) {
                const bool effective =
                    stuck[i] ? stuck_val[i] : stored[i];
                const bool pulse = blind || effective != target.get(i);
                if (pulse) {
                    ++expected;
                    ++writes[i];
                    if (!stuck[i])
                        stored[i] = target.get(i);
                }
            }
            total += expected;

            ASSERT_EQ(programmed, expected) << "round " << round;
            ASSERT_EQ(cells.totalCellWrites(), total)
                << "round " << round;
            for (std::size_t i = 0; i < bits; ++i) {
                ASSERT_EQ(cells.readBit(i),
                          stuck[i] ? stuck_val[i] : stored[i])
                    << "round " << round << " pos " << i;
                ASSERT_EQ(cells.cellWritesAt(i), writes[i])
                    << "round " << round << " pos " << i;
            }
        }
    }
}

TEST(MaskedVsNaive, ReadIntoMatchesPerBitReadBit)
{
    Rng rng(31337);
    for (const std::size_t bits :
         {std::size_t{1}, std::size_t{3}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{127},
          std::size_t{128}, std::size_t{256}, std::size_t{512}}) {
        SCOPED_TRACE(bits);
        pcm::CellArray cells(bits);
        BitVector out;
        for (int round = 0; round < 10; ++round) {
            if (round % 2 == 1) {
                const auto pos = rng.nextBounded(bits);
                if (!cells.isStuck(pos))
                    cells.injectFault(pos, rng.nextBool());
            }
            cells.writeDifferential(BitVector::random(bits, rng));
            cells.readInto(out);
            ASSERT_EQ(out.size(), bits);
            for (std::size_t i = 0; i < bits; ++i) {
                ASSERT_EQ(out.get(i), cells.readBit(i))
                    << "round " << round << " pos " << i;
            }
            ASSERT_EQ(out, cells.read());
        }
    }
}

// ---------------------------------------------------------------------
// Backend invariance through whole schemes: one scripted interleaving
// of fault injections, writes and reads on the per-block path, run
// under the forced scalar SIMD backend and under the dispatched one,
// must end in bit-identical state. test_simd compares the kernels one
// by one; this checks that nothing a scheme builds on them depends on
// the backend.
// ---------------------------------------------------------------------

struct BackendCase
{
    const char *name;
    std::size_t blockBits;
};

/**
 * Run the script for @p c on @p backend and fingerprint everything it
 * touched: write outcomes and decoded data after every write, then
 * exported metadata, cell writes, the fault list and the obs counter
 * deltas. Every block shares one fault directory that learns each
 * injected fault, so the schemes that consult one (the cache modes,
 * rdis and the rw family) see their faults.
 */
std::string
backendFingerprint(const BackendCase &c, const char *backend)
{
    constexpr std::size_t kBlocks = 6;
    constexpr int kRounds = 24;
    const std::string before = simd::backendName();
    EXPECT_TRUE(simd::selectBackend(backend));

    Rng rng(0xD15BA7C4ull);
    pcm::OracleFaultDirectory dir;
    std::vector<std::unique_ptr<scheme::Scheme>> schemes;
    std::vector<pcm::CellArray> cells;
    for (std::size_t b = 0; b < kBlocks; ++b) {
        schemes.push_back(core::makeScheme(c.name, c.blockBits));
        schemes.back()->attachDirectory(&dir, b);
        cells.emplace_back(c.blockBits);
    }
    BitVector data;
    BitVector decoded;
    std::string fp;

    const auto before_metrics = obs::mark();
    for (int round = 0; round < kRounds; ++round) {
        if (round > 1 && round % 3 == 0) {
            const auto b = rng.nextBounded(kBlocks);
            std::uint32_t pos = 0;
            do {
                pos = static_cast<std::uint32_t>(
                    rng.nextBounded(c.blockBits));
            } while (cells[b].isStuck(pos));
            const bool stuck = rng.nextBool();
            cells[b].injectFault(pos, stuck);
            dir.record(b, {pos, stuck});
        }
        for (std::size_t b = 0; b < kBlocks; ++b) {
            data = BitVector::random(c.blockBits, rng);
            const scheme::WriteOutcome o = schemes[b]->write(cells[b], data);
            fp += std::to_string(o.ok) + "," +
                  std::to_string(o.programPasses) + "," +
                  std::to_string(o.repartitions) + ";";
            schemes[b]->readInto(cells[b], decoded);
            fp += decoded.toString();
        }
    }
    for (std::size_t b = 0; b < kBlocks; ++b) {
        fp += schemes[b]->exportMetadata().toString();
        fp += std::to_string(cells[b].totalCellWrites()) + ";";
        for (const pcm::Fault &f : cells[b].faults())
            fp += std::to_string(f.pos) + (f.stuck ? "W" : "R");
        fp += "|";
    }
    const obs::Metrics delta = obs::deltaSince(before_metrics);
    for (std::size_t k = 0; k < obs::kCounterCount; ++k)
        fp += std::to_string(delta.counters[k]) + ",";
    EXPECT_TRUE(simd::selectBackend(before));
    return fp;
}

TEST(SchemeBackends, ScalarAndDispatchedBackendsBitIdentical)
{
    for (const BackendCase &c : {BackendCase{"none", 256},
                                 BackendCase{"ecp4", 256},
                                 BackendCase{"safer32", 256},
                                 BackendCase{"safer16-cache", 256},
                                 BackendCase{"rdis3", 256},
                                 BackendCase{"hamming", 256},
                                 BackendCase{"aegis-12x23", 256},
                                 BackendCase{"aegis-9x61", 512},
                                 BackendCase{"aegis-cache-12x23", 256},
                                 BackendCase{"aegis-rw-17x31", 512},
                                 BackendCase{"aegis-rw-p5-17x31", 512}}) {
        SCOPED_TRACE(c.name);
        EXPECT_EQ(backendFingerprint(c, "scalar"),
                  backendFingerprint(c, "auto"));
    }
}

} // namespace
} // namespace aegis
