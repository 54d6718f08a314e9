/**
 * @file
 * google-benchmark microbenchmarks: write- and read-path latency of
 * each recovery scheme on the functional layer, with and without
 * faults, plus masked-vs-naive micro-comparisons of the word-parallel
 * data plane (group-mask XOR inversion vs the per-bit groupOf scan).
 * These are software-model costs (useful for comparing the schemes'
 * algorithmic complexity), not PCM latencies.
 */

#include <benchmark/benchmark.h>

#include "bench/micro_common.h"

#include "aegis/aegis_scheme.h"
#include "aegis/factory.h"
#include "aegis/partition.h"
#include "pcm/fail_cache.h"
#include "scheme/inversion_driver.h"
#include "sim/device.h"
#include "util/rng.h"

namespace {

using namespace aegis;

void
writeLoop(benchmark::State &state, const std::string &name,
          std::size_t block_bits, std::size_t faults)
{
    auto dir = std::make_shared<pcm::OracleFaultDirectory>();
    auto scheme = core::makeScheme(name, block_bits);
    scheme->attachDirectory(dir.get(), 0);
    pcm::CellArray cells(block_bits);
    Rng rng(42);

    for (std::size_t f = 0; f < faults; ++f) {
        std::uint32_t pos;
        do {
            pos = static_cast<std::uint32_t>(
                rng.nextBounded(block_bits));
        } while (cells.isStuck(pos));
        const bool stuck = rng.nextBool();
        cells.injectFault(pos, stuck);
        dir->record(0, {pos, stuck});
    }

    std::vector<BitVector> patterns;
    for (int i = 0; i < 64; ++i)
        patterns.push_back(BitVector::random(block_bits, rng));

    std::size_t i = 0;
    for (auto _ : state) {
        const auto outcome =
            scheme->write(cells, patterns[i++ % patterns.size()]);
        benchmark::DoNotOptimize(outcome.ok);
        if (!outcome.ok)
            state.SkipWithError("block died during benchmark");
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void
BM_Write(benchmark::State &state, const std::string &name,
         std::size_t faults)
{
    writeLoop(state, name, 512, faults);
}

/** Decode latency through the allocation-free readInto hot path. */
void
BM_Read(benchmark::State &state, const std::string &name,
        std::size_t faults)
{
    constexpr std::size_t kBits = 512;
    auto dir = std::make_shared<pcm::OracleFaultDirectory>();
    auto scheme = core::makeScheme(name, kBits);
    scheme->attachDirectory(dir.get(), 0);
    pcm::CellArray cells(kBits);
    Rng rng(42);

    for (std::size_t f = 0; f < faults; ++f) {
        std::uint32_t pos;
        do {
            pos = static_cast<std::uint32_t>(rng.nextBounded(kBits));
        } while (cells.isStuck(pos));
        const bool stuck = rng.nextBool();
        cells.injectFault(pos, stuck);
        dir->record(0, {pos, stuck});
    }
    if (!scheme->write(cells, BitVector::random(kBits, rng)).ok) {
        state.SkipWithError("seed write failed");
        return;
    }

    BitVector out;
    for (auto _ : state) {
        scheme->readInto(cells, out);
        benchmark::DoNotOptimize(out.words().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/**
 * The group-inversion composition step in isolation: word-parallel
 * mask XOR (the production path) vs the retained per-bit groupOf
 * reference, on the 9x61 formation with half the groups inverted.
 */
void
groupInversionLoop(benchmark::State &state, bool masked)
{
    constexpr std::size_t kBits = 512;
    core::AegisPartitionPolicy policy(core::Partition(9, 61, kBits));
    Rng rng(42);
    const BitVector data = BitVector::random(kBits, rng);
    BitVector inv(policy.groupCount());
    for (std::size_t g = 0; g < inv.size(); g += 2)
        inv.set(g, true);

    BitVector out;
    for (auto _ : state) {
        if (masked) {
            scheme::applyGroupInversionInto(data, policy, inv, out);
            benchmark::DoNotOptimize(out.words().data());
        } else {
            BitVector naive =
                scheme::applyGroupInversion(data, policy, inv);
            benchmark::DoNotOptimize(naive.words().data());
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void
BM_GroupInversionMasked(benchmark::State &state)
{
    groupInversionLoop(state, true);
}

void
BM_GroupInversionNaive(benchmark::State &state)
{
    groupInversionLoop(state, false);
}

/** Raw cell-array paths: word-parallel differential write + readInto. */
void
BM_CellArrayDiffWrite(benchmark::State &state)
{
    constexpr std::size_t kBits = 512;
    pcm::CellArray cells(kBits);
    Rng rng(42);
    std::vector<BitVector> patterns;
    for (int i = 0; i < 64; ++i)
        patterns.push_back(BitVector::random(kBits, rng));

    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cells.writeDifferential(patterns[i++ % patterns.size()]));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void
BM_CellArrayReadInto(benchmark::State &state)
{
    constexpr std::size_t kBits = 512;
    pcm::CellArray cells(kBits);
    Rng rng(42);
    for (int f = 0; f < 8; ++f)
        cells.injectFault(rng.nextBounded(kBits), rng.nextBool());
    cells.writeDifferential(BitVector::random(kBits, rng));

    BitVector out;
    for (auto _ : state) {
        cells.readInto(out);
        benchmark::DoNotOptimize(out.words().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

} // namespace

BENCHMARK_CAPTURE(BM_Write, aegis_23x23_clean, "aegis-23x23", 0u);
BENCHMARK_CAPTURE(BM_Write, aegis_23x23_4faults, "aegis-23x23", 4u);
BENCHMARK_CAPTURE(BM_Write, aegis_9x61_clean, "aegis-9x61", 0u);
BENCHMARK_CAPTURE(BM_Write, aegis_9x61_8faults, "aegis-9x61", 8u);
// Auditor overhead: the same write path with every runtime invariant
// check enabled (read-back, metadata round-trip, budget accounting).
BENCHMARK_CAPTURE(BM_Write, aegis_9x61_audit_8faults,
                  "aegis-9x61+audit", 8u);
BENCHMARK_CAPTURE(BM_Write, aegis_rw_23x23_4faults, "aegis-rw-23x23",
                  4u);
BENCHMARK_CAPTURE(BM_Write, aegis_rw_p4_23x23_4faults,
                  "aegis-rw-p4-23x23", 4u);
BENCHMARK_CAPTURE(BM_Write, safer32_clean, "safer32", 0u);
BENCHMARK_CAPTURE(BM_Write, safer32_4faults, "safer32", 4u);
BENCHMARK_CAPTURE(BM_Write, ecp6_4faults, "ecp6", 4u);
BENCHMARK_CAPTURE(BM_Write, rdis3_2faults, "rdis3", 2u);

BENCHMARK_CAPTURE(BM_Read, aegis_9x61_8faults, "aegis-9x61", 8u);
BENCHMARK_CAPTURE(BM_Read, aegis_rw_23x23_4faults, "aegis-rw-23x23",
                  4u);
BENCHMARK_CAPTURE(BM_Read, aegis_rw_p4_23x23_4faults,
                  "aegis-rw-p4-23x23", 4u);
BENCHMARK_CAPTURE(BM_Read, safer32_4faults, "safer32", 4u);

BENCHMARK(BM_GroupInversionMasked);
BENCHMARK(BM_GroupInversionNaive);
BENCHMARK(BM_CellArrayDiffWrite);
BENCHMARK(BM_CellArrayReadInto);

int
main(int argc, char **argv)
{
    return aegis::bench::microMain(
        argc, argv, "micro_scheme_throughput",
        "Write-path latency of each recovery scheme (functional layer)");
}
