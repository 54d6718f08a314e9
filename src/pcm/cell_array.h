/**
 * @file
 * Functional model of a row of PCM cells (one protected data block).
 *
 * Each cell stores one bit and may carry a permanent stuck-at fault:
 * the stuck value is still readable but writes are silently ignored —
 * exactly the failure mode the paper targets. The array counts physical
 * cell programs so schemes' wear behaviour (extra inversion writes,
 * differential writes) can be measured.
 */

#ifndef AEGIS_PCM_CELL_ARRAY_H
#define AEGIS_PCM_CELL_ARRAY_H

#include <cstdint>
#include <vector>

#include "pcm/fault.h"
#include "util/bit_vector.h"
#include "util/hot.h"

namespace aegis::pcm {

/** A fixed-size array of PCM cells with stuck-at fault injection. */
class CellArray
{
  public:
    /** Create @p n healthy cells storing 0. */
    explicit CellArray(std::size_t n);

    std::size_t size() const { return stored.size(); }

    /**
     * Program cell @p i to @p value. Counts one cell write. A stuck
     * cell ignores the new value (this is the physical behaviour; use
     * verification reads to detect it).
     */
    AEGIS_HOT void programBit(std::size_t i, bool value);

    /** Effective value of cell @p i (stuck value if faulty). */
    AEGIS_HOT bool readBit(std::size_t i) const;

    /** Effective values of all cells. Allocates; hot paths should
     *  prefer readInto. */
    BitVector read() const;

    /**
     * Effective values of all cells into @p out, word-parallel:
     * effective = (stored & ~stuckMask) | (stuckValue & stuckMask).
     * Reuses @p out's allocation once its width matches.
     */
    AEGIS_HOT void readInto(BitVector &out) const;

    /**
     * Differential write: reads the current contents and programs only
     * cells whose effective value differs from @p target (the
     * read-before-write wear reduction of [8, 18] in the paper).
     * @return the number of cells actually programmed.
     */
    AEGIS_HOT std::size_t writeDifferential(const BitVector &target);

    /**
     * Blind write: program every cell regardless of current contents.
     * @return the number of cells programmed (== size()).
     */
    AEGIS_HOT std::size_t writeBlind(const BitVector &target);

    /** Make cell @p i permanently stuck at @p stuck_value. */
    void injectFault(std::size_t i, bool stuck_value);

    /** Make cell @p i permanently stuck at its current effective value. */
    void injectFaultAtCurrentValue(std::size_t i);

    /** Remove a fault (test helper; real PCM cannot heal). */
    void clearFault(std::size_t i);

    bool isStuck(std::size_t i) const;

    /** All current faults in position order. */
    FaultSet faults() const;

    std::size_t faultCount() const { return numFaults; }

    /** Total cell programs since construction (wear proxy). */
    std::uint64_t totalCellWrites() const { return cellWrites; }

    /** Cell programs of one cell. */
    std::uint64_t cellWritesAt(std::size_t i) const;

    /**
     * Return the array to its as-constructed state (all cells healthy
     * and storing 0, wear counters zeroed) without releasing any
     * allocation, so simulators can reuse one array across block
     * lives instead of constructing a fresh one.
     */
    void reset();

  private:
    BitVector stored;
    BitVector stuckMask;
    BitVector stuckValue;
    BitVector diffScratch;
    std::vector<std::uint64_t> writesPerCell;
    std::size_t numFaults = 0;
    std::uint64_t cellWrites = 0;
};

} // namespace aegis::pcm

#endif // AEGIS_PCM_CELL_ARRAY_H
