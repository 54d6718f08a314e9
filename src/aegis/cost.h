/**
 * @file
 * Analytic cost / fault-tolerance models for the Aegis family
 * (Table 1 of the paper), plus the (72,64) SEC-DED yardstick.
 *
 * Definitions (for an A x B scheme over an n-bit block):
 *  - basic Aegis needs C(f,2)+1 slopes to guarantee f faults;
 *  - Aegis-rw needs floor(f/2)*ceil(f/2)+1 slopes (only Wrong-Right
 *    mixtures collide);
 *  - Aegis-rw-p with p group pointers guarantees min(2p+1, rw-FTC)
 *    faults (pigeonhole: min(#W-groups, #R-groups) <= floor(f/2)).
 *
 * Costs per block:
 *  - Aegis / Aegis-rw: slope counter + B-bit inversion vector, where
 *    the counter needs ceil(log2(min(slopes needed, B))) bits;
 *  - Aegis-rw-p: counter + p pointers of ceil(log2 B) bits + 1 case
 *    bit + 1 whole-block-inversion bit (f = 1 degenerates to a single
 *    inversion bit);
 *  - (72,64) SEC-DED: 8 check bits per 64-bit data word, the 12.5%
 *    overhead budget of §3.2.
 */

#ifndef AEGIS_AEGIS_COST_H
#define AEGIS_AEGIS_COST_H

#include <cstdint>

#include "aegis/partition.h"

namespace aegis::core {

/** C(f,2) + 1: slopes basic Aegis needs to guarantee @p f faults. */
std::uint64_t slopesNeededBasic(std::uint64_t f);

/** floor(f/2)*ceil(f/2) + 1: slopes Aegis-rw needs for @p f faults. */
std::uint64_t slopesNeededRw(std::uint64_t f);

/** Largest f with slopesNeededBasic(f) <= B. */
std::uint32_t hardFtcBasic(std::uint32_t b);

/** Largest f with slopesNeededRw(f) <= B. */
std::uint32_t hardFtcRw(std::uint32_t b);

/** Hard FTC of Aegis-rw-p with @p p pointers: min(2p+1, rw FTC). */
std::uint32_t hardFtcRwP(std::uint32_t b, std::uint32_t p);

/**
 * Smallest legal B for an n-bit block: the least prime with
 * ceil(n/B) <= B (e.g. 23 for n = 512, as §2.3 notes).
 */
std::uint32_t minimalHeight(std::uint32_t block_bits);

/** Slope-counter width when targeting hard FTC @p f on height @p b. */
std::uint32_t slopeCounterBits(std::uint32_t b, std::uint32_t f);

/** Per-block metadata bits of basic Aegis at hard FTC @p f. */
std::uint64_t costBitsBasic(std::uint32_t b, std::uint32_t f);

/** Per-block metadata bits of Aegis-rw at hard FTC @p f. */
std::uint64_t costBitsRw(std::uint32_t b, std::uint32_t f);

/**
 * Per-block metadata bits of Aegis-rw-p targeting hard FTC @p f with
 * @p p pointers (the counter is sized for f, the pointer array for p;
 * Table 1 uses p = floor(f/2)).
 */
std::uint64_t costBitsRwP(std::uint32_t b, std::uint32_t f,
                          std::uint32_t p);

/** Check bits of (72,64) SEC-DED over an n-bit block, n a multiple
 *  of 64: one 8-bit check field per 64-bit data word. */
std::uint64_t costBitsSecDed(std::uint32_t block_bits);

/** A chosen formation plus its advertised cost. */
struct CostPoint
{
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint64_t bits = 0;
};

/**
 * Minimal-cost formation for basic Aegis to guarantee @p f faults in
 * an n-bit block: the least prime B >= max(slopesNeededBasic(f),
 * minimalHeight(n)).
 */
CostPoint minimalCostBasic(std::uint32_t block_bits, std::uint32_t f);

/** Same for Aegis-rw (uses slopesNeededRw). */
CostPoint minimalCostRw(std::uint32_t block_bits, std::uint32_t f);

/**
 * Same for Aegis-rw-p with p = floor(f/2) pointers (f = 1 is the
 * one-bit special case of the paper).
 */
CostPoint minimalCostRwP(std::uint32_t block_bits, std::uint32_t f);

} // namespace aegis::core

#endif // AEGIS_AEGIS_COST_H
