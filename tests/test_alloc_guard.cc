/**
 * @file
 * Runtime teeth for the AEGIS_HOT allocation-freedom contract.
 *
 * This binary is built with -DAEGIS_ALLOC_GUARD and its own copy of
 * util/alloc_guard.cc, so the global operator new/delete count every
 * heap allocation. Each registered scheme is driven through warmed
 * write/read/recover cycles over a faulty block; once the reusable
 * workspaces are warm, the steady state must not touch the heap.
 *
 * RDIS is the one documented exception on the write side: its solver
 * rebuilds the mark levels per solve, so only its read path is held
 * to the allocation-free standard (the table below encodes this).
 */

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aegis/factory.h"
#include "obs/trace_sink.h"
#include "pcm/cell_array.h"
#include "pcm/fail_cache.h"
#include "util/alloc_guard.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace aegis {
namespace {

struct SchemeCase
{
    const char *name;
    std::size_t blockBits;
    /** Steady-state writes are allocation-free. */
    bool writeAllocFree;
    /** Faults to inject before warm-up (kept below hard FTC so the
     *  warmed loop keeps succeeding deterministically). */
    int faults;
};

/** Field-wise print, so the discovered ctest names are stable (gtest
 *  would otherwise print the raw bytes, pointer included). */
void
PrintTo(const SchemeCase &c, std::ostream *os)
{
    *os << "{name=" << c.name << ", blockBits=" << c.blockBits
        << ", writeAllocFree=" << (c.writeAllocFree ? "true" : "false")
        << ", faults=" << c.faults << "}";
}

const SchemeCase kCases[] = {
    {"none", 512, true, 0},
    {"ecp6", 512, true, 2},
    {"safer32", 512, true, 2},
    {"safer32-cache", 512, true, 2},
    {"rdis3", 512, false, 2},
    {"aegis-23x23", 512, true, 2},
    {"aegis-cache-23x23", 512, true, 2},
    {"aegis-rw-17x31", 512, true, 2},
    {"aegis-rw-p5-17x31", 512, true, 2},
};

class AllocGuardTest : public ::testing::TestWithParam<SchemeCase>
{};

/**
 * Drive the scheme through enough traffic that every lazily sized
 * workspace reaches steady state: the full pattern set is replayed so
 * the probed pass repeats warm-up behaviour exactly (same W/R
 * classifications, same partition configuration, no new faults).
 */
void
warmUp(scheme::Scheme &s, pcm::CellArray &cells,
       const std::vector<BitVector> &patterns, BitVector &out)
{
    for (int round = 0; round < 3; ++round) {
        for (const BitVector &data : patterns) {
            (void)s.write(cells, data);
            s.readInto(cells, out);
        }
    }
}

TEST_P(AllocGuardTest, SteadyStateIsAllocationFree)
{
    ASSERT_TRUE(allocGuardActive())
        << "binary must be built with AEGIS_ALLOC_GUARD";
    const SchemeCase &c = GetParam();

    auto scheme = core::makeScheme(c.name, c.blockBits);
    pcm::OracleFaultDirectory dir;
    if (scheme->requiresDirectory())
        scheme->attachDirectory(&dir, 0);

    pcm::CellArray cells(c.blockBits);
    Rng rng(42);
    for (int f = 0; f < c.faults; ++f) {
        std::uint32_t pos;
        do {
            pos = static_cast<std::uint32_t>(
                rng.nextBounded(c.blockBits));
        } while (cells.isStuck(pos));
        cells.injectFault(pos, rng.nextBool());
    }

    std::vector<BitVector> patterns;
    for (int i = 0; i < 4; ++i)
        patterns.push_back(BitVector::random(c.blockBits, rng));
    BitVector out;

    warmUp(*scheme, cells, patterns, out);

    // Probe the steady state: replay the same patterns. Assertions
    // run after the loop so a gtest failure can't allocate inside the
    // probed region.
    std::uint64_t write_allocs = 0;
    std::uint64_t read_allocs = 0;
    for (const BitVector &data : patterns) {
        AllocationProbe write_probe;
        (void)scheme->write(cells, data);
        write_allocs += write_probe.allocations();

        AllocationProbe read_probe;
        scheme->readInto(cells, out);
        read_allocs += read_probe.allocations();
    }

    EXPECT_EQ(read_allocs, 0u)
        << c.name << ": warmed readInto touched the heap";
    if (c.writeAllocFree) {
        EXPECT_EQ(write_allocs, 0u)
            << c.name << ": warmed write touched the heap";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, AllocGuardTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<SchemeCase> &info) {
        std::string n = info.param.name;
        for (char &ch : n) {
            if (ch == '-' || ch == '+')
                ch = '_';
        }
        return n;
    });

/** The recover path — a fault discovered mid-write forces a
 *  repartition — stays allocation-free once workspaces are warm. */
TEST(AllocGuard, RecoveryRepartitionIsAllocationFree)
{
    ASSERT_TRUE(allocGuardActive());
    auto scheme = core::makeScheme("aegis-23x23", 512);
    pcm::CellArray cells(512);
    Rng rng(7);

    std::vector<BitVector> patterns;
    for (int i = 0; i < 4; ++i)
        patterns.push_back(BitVector::random(512, rng));
    BitVector out;
    warmUp(*scheme, cells, patterns, out);

    // Two faults in the same column collide under slope 0; discovering
    // them forces the slope search (the recover path). 23x23 covers
    // 512 bits, so offsets 0 and 23 share a column.
    cells.injectFault(0, true);
    cells.injectFault(23, true);

    // Cold pass: first-ever fault discovery may grow the fault
    // scratch — that is the documented cold branch.
    for (const BitVector &data : patterns)
        (void)scheme->write(cells, data);

    // Forget the advanced slope so the probed writes must rediscover
    // the faults and redo the slope search with warm scratch.
    scheme->reset();

    std::uint64_t probe_allocs;
    {
        AllocationProbe probe;
        for (const BitVector &data : patterns)
            (void)scheme->write(cells, data);
        probe_allocs = probe.allocations();
    }
    EXPECT_EQ(probe_allocs, 0u)
        << "repartitioning write touched the heap";
}

/** Positive control: the guard must actually detect allocations —
 *  otherwise every zero above is vacuous. */
TEST(AllocGuard, DetectsInjectedAllocation)
{
    ASSERT_TRUE(allocGuardActive());
    AllocationProbe probe;
    std::vector<std::uint64_t> sink(257, 1);
    ASSERT_GT(sink.size(), 0u);    // keep the vector alive
    EXPECT_GT(probe.allocations(), 0u);
    EXPECT_GE(probe.bytes(), 257 * sizeof(std::uint64_t));
}

/** The trace sink's record path is an index-store into the buffer
 *  allocated at track-open time: once armed and bound, steady-state
 *  span/instant/counter emission must not touch the heap — including
 *  past capacity, where events are dropped and counted. */
TEST(AllocGuard, TraceSinkRecordingIsAllocationFree)
{
    ASSERT_TRUE(allocGuardActive());
    obs::armTraceSink(64);
    std::uint64_t ticks = 0;
    {
        obs::TraceTrackScope track(0, "guarded", &ticks);

        std::uint64_t record_allocs;
        {
            AllocationProbe probe;
            for (int i = 0; i < 200; ++i) {    // overflows capacity
                ticks = static_cast<std::uint64_t>(i);
                obs::traceSpan("span", 1, ticks, ticks + 2);
                obs::traceInstant("instant", 1, ticks);
                obs::traceCounter("counter", 2, ticks, i);
            }
            record_allocs = probe.allocations();
        }
        EXPECT_EQ(record_allocs, 0u)
            << "armed trace recording touched the heap";
    }
    EXPECT_GT(obs::traceSinkStats().dropped, 0u);
    obs::disarmTraceSink();
}

/** With the sink disarmed (the default for every bench run without
 *  --trace-out) the emit helpers are unbound no-ops. */
TEST(AllocGuard, DisarmedTraceEmitIsAllocationFree)
{
    ASSERT_TRUE(allocGuardActive());
    ASSERT_FALSE(obs::traceSinkArmed());
    std::uint64_t emit_allocs;
    {
        AllocationProbe probe;
        for (int i = 0; i < 100; ++i) {
            obs::traceSpan("span", 0, 0, 1);
            obs::traceCounter("counter", 0, 0, i);
        }
        emit_allocs = probe.allocations();
    }
    EXPECT_EQ(emit_allocs, 0u)
        << "disarmed trace emit touched the heap";
}

/** Deallocations are counted symmetrically. */
TEST(AllocGuard, CountsFrees)
{
    ASSERT_TRUE(allocGuardActive());
    const std::uint64_t frees_before = allocGuardDeallocations();
    {
        std::vector<int> sink(1024, 3);
        ASSERT_EQ(sink.back(), 3);
    }
    EXPECT_GT(allocGuardDeallocations(), frees_before);
}

} // namespace
} // namespace aegis
