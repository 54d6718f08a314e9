#include "aegis/cost.h"

#include <algorithm>
#include <bit>

#include "util/error.h"
#include "util/primes.h"

namespace aegis::core {

namespace {

std::uint32_t
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0
                  : static_cast<std::uint32_t>(std::bit_width(v - 1));
}

} // namespace

std::uint64_t
slopesNeededBasic(std::uint64_t f)
{
    return f * (f - 1) / 2 + 1;
}

std::uint64_t
slopesNeededRw(std::uint64_t f)
{
    return (f / 2) * ((f + 1) / 2) + 1;
}

std::uint32_t
hardFtcBasic(std::uint32_t b)
{
    std::uint32_t f = 1;
    while (slopesNeededBasic(f + 1) <= b)
        ++f;
    return f;
}

std::uint32_t
hardFtcRw(std::uint32_t b)
{
    std::uint32_t f = 1;
    while (slopesNeededRw(f + 1) <= b)
        ++f;
    return f;
}

std::uint32_t
hardFtcRwP(std::uint32_t b, std::uint32_t p)
{
    return std::min(2 * p + 1, hardFtcRw(b));
}

std::uint32_t
minimalHeight(std::uint32_t block_bits)
{
    AEGIS_REQUIRE(block_bits > 0, "block size must be positive");
    std::uint32_t b = 2;
    for (;;) {
        b = static_cast<std::uint32_t>(nextPrime(b));
        const std::uint32_t a = (block_bits + b - 1) / b;
        if (a <= b)
            return b;
        ++b;
    }
}

std::uint32_t
slopeCounterBits(std::uint32_t b, std::uint32_t f)
{
    // When fewer than B configurations are ever needed the counter
    // can be narrower (paper §2.3).
    return ceilLog2(std::min<std::uint64_t>(slopesNeededBasic(f), b));
}

std::uint64_t
costBitsBasic(std::uint32_t b, std::uint32_t f)
{
    return slopeCounterBits(b, f) + b;
}

std::uint64_t
costBitsRw(std::uint32_t b, std::uint32_t f)
{
    // Table 1 sizes the Aegis-rw counter exactly like basic Aegis's
    // (the configuration index must still address up to B slopes).
    return slopeCounterBits(b, f) + b;
}

std::uint64_t
costBitsRwP(std::uint32_t b, std::uint32_t f, std::uint32_t p)
{
    if (p == 0)
        return 1;    // lone inversion bit (hard FTC 1 special case)
    const std::uint32_t counter =
        ceilLog2(std::min<std::uint64_t>(slopesNeededRw(f), b));
    return counter + static_cast<std::uint64_t>(p) * ceilLog2(b) + 2;
}

std::uint64_t
costBitsSecDed(std::uint32_t block_bits)
{
    return (block_bits / 64) * 8;
}

namespace {

template <typename CostFn>
CostPoint
minimalFor(std::uint32_t block_bits, std::uint64_t slopes_needed,
           CostFn cost)
{
    const std::uint32_t floor_b = minimalHeight(block_bits);
    const auto b = static_cast<std::uint32_t>(
        nextPrime(std::max<std::uint64_t>(slopes_needed, floor_b)));
    const Partition part = Partition::forHeight(b, block_bits);
    return CostPoint{part.a(), part.b(), cost(b)};
}

} // namespace

CostPoint
minimalCostBasic(std::uint32_t block_bits, std::uint32_t f)
{
    return minimalFor(block_bits, slopesNeededBasic(f),
                      [f](std::uint32_t b) { return costBitsBasic(b, f); });
}

CostPoint
minimalCostRw(std::uint32_t block_bits, std::uint32_t f)
{
    return minimalFor(block_bits, slopesNeededRw(f),
                      [f](std::uint32_t b) { return costBitsRw(b, f); });
}

CostPoint
minimalCostRwP(std::uint32_t block_bits, std::uint32_t f)
{
    AEGIS_REQUIRE(f >= 1, "hard FTC must be at least 1");
    if (f == 1) {
        // One inversion bit masks a single fault anywhere.
        const std::uint32_t b = minimalHeight(block_bits);
        const Partition part = Partition::forHeight(b, block_bits);
        return CostPoint{part.a(), part.b(), 1};
    }
    const std::uint32_t p = f / 2;
    return minimalFor(block_bits, slopesNeededRw(f),
                      [f, p](std::uint32_t b)
                      { return costBitsRwP(b, f, p); });
}

} // namespace aegis::core
