/**
 * @file
 * The error-recovery scheme interface.
 *
 * A Scheme instance protects exactly one PCM data block: it owns the
 * block's correction metadata (inversion vectors, slope counters,
 * pointers, ...) and knows how to service writes (with verification
 * reads, as required for resistive memories) and decode reads. The
 * functional layer is byte-accurate: it performs real programs against
 * a pcm::CellArray and observes faults only the way hardware could.
 */

#ifndef AEGIS_SCHEME_SCHEME_H
#define AEGIS_SCHEME_SCHEME_H

#include <cstdint>
#include <memory>
#include <string>

#include "pcm/cell_array.h"
#include "pcm/fail_cache.h"
#include "pcm/fault.h"
#include "scheme/tracker.h"
#include "util/bit_vector.h"

namespace aegis::scheme {

/**
 * Per-operation breakdown of a scheme's ancillary I/O: the array,
 * metadata-SRAM and directory operations a write actually issued,
 * reported as first-class events instead of opaque cell-program
 * counts. The timing model (sim/timing/) turns each field into bank
 * occupancy or metadata-bus events; the functional layer ignores it.
 */
struct SchemeIoCost
{
    /** Program pulses issued into the cell array. */
    std::uint32_t programPasses = 0;
    /** Verification reads issued after program pulses. */
    std::uint32_t verifyReads = 0;
    /** Fault-directory (fail-cache) probes before/during the write. */
    std::uint32_t metadataLookups = 0;
    /** Fault-directory insertions (newly discovered faults). */
    std::uint32_t metadataUpdates = 0;
    /** Re-partition passes: metadata recompute + rewrite stalls. */
    std::uint32_t repartitions = 0;

    void
    add(const SchemeIoCost &other)
    {
        programPasses += other.programPasses;
        verifyReads += other.verifyReads;
        metadataLookups += other.metadataLookups;
        metadataUpdates += other.metadataUpdates;
        repartitions += other.repartitions;
    }
};

/** What happened while servicing one write request. */
struct WriteOutcome
{
    /** Data is stored and reads back correctly. */
    bool ok = false;
    /** Physical program passes issued (1 = no correction rework). */
    std::uint32_t programPasses = 0;
    /** Re-partitions (configuration changes) performed. */
    std::uint32_t repartitions = 0;
    /** Faults newly discovered during this write. */
    std::uint32_t newFaults = 0;
    /** Ancillary-operation breakdown of this write (see SchemeIoCost). */
    SchemeIoCost io;
};

/**
 * Abstract error-recovery scheme protecting one data block.
 *
 * Lifecycle: construct for a block size, optionally attach a fault
 * directory (fail cache) and block id, then interleave write()/read()
 * against the same CellArray. reset() clears the metadata for reuse on
 * a fresh block.
 */
class Scheme
{
  public:
    virtual ~Scheme() = default;

    /** Human-readable identifier, e.g. "aegis-9x61" or "safer64".
     *  The name is fixed at construction and returned by reference to
     *  storage the scheme owns, so callers read it without a copy. */
    virtual const std::string &name() const = 0;

    /** Size of the protected data block in bits. */
    virtual std::size_t blockBits() const = 0;

    /** Metadata cost in bits per protected block. */
    virtual std::size_t overheadBits() const = 0;

    /**
     * Guaranteed number of tolerable faults regardless of fault
     * placement and data patterns (the paper's hard FTC).
     */
    virtual std::size_t hardFtc() const = 0;

    /**
     * Service a write of @p data into @p cells, updating metadata.
     * On failure (outcome.ok == false) the block is unrecoverable.
     */
    virtual WriteOutcome write(pcm::CellArray &cells,
                               const BitVector &data) = 0;

    /** Decode the logical data currently stored in @p cells. */
    virtual BitVector read(const pcm::CellArray &cells) const = 0;

    /**
     * Decode into @p out, reusing its allocation. The default wraps
     * read(); word-parallel schemes override it so steady-state reads
     * allocate nothing.
     */
    virtual void readInto(const pcm::CellArray &cells,
                          BitVector &out) const
    {
        out.assignFrom(read(cells));
    }

    /** Clear metadata for reuse on a fresh block. */
    virtual void reset() = 0;

    /** Deep copy (metadata included). */
    virtual std::unique_ptr<Scheme> clone() const = 0;

    /**
     * Create the fast lifetime tracker matching this scheme's
     * configuration, for use by the Monte-Carlo engine.
     */
    virtual std::unique_ptr<LifetimeTracker>
    makeTracker(const TrackerOptions &opts) const = 0;

    /**
     * Attach a fault directory (fail cache) and this block's global
     * id. Schemes that exploit fault knowledge (Aegis-rw, Aegis-rw-p,
     * SAFER-cache, RDIS) require this; others ignore it. The default
     * stores the pointers for subclasses.
     */
    virtual void
    attachDirectory(pcm::FaultDirectory *dir, std::uint64_t block_id)
    {
        directory = dir;
        blockId = block_id;
    }

    /** True when the scheme needs a fault directory to operate. */
    virtual bool requiresDirectory() const { return false; }

    /**
     * Width of the packed metadata image in bits. For most schemes
     * this equals overheadBits(); documented exceptions (ECP's entry
     * counter, Aegis-rw-p's full-width slope counter) may pack a few
     * bits more than the Table-1 minimum.
     */
    virtual std::size_t metadataBits() const { return overheadBits(); }

    /**
     * Pack the correction metadata into exactly metadataBits() bits —
     * the image the scheme's SRAM/spare cells would hold. Together
     * with importMetadata this proves the advertised bit budgets are
     * sufficient to persist the scheme state.
     */
    virtual BitVector exportMetadata() const = 0;

    /** Restore metadata from an image produced by exportMetadata. */
    virtual void importMetadata(const BitVector &image) = 0;

  protected:
    pcm::FaultDirectory *directory = nullptr;
    std::uint64_t blockId = 0;
};

} // namespace aegis::scheme

#endif // AEGIS_SCHEME_SCHEME_H
