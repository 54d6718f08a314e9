/**
 * @file
 * Versioned, checksummed checkpoint store for resumable Monte-Carlo
 * sweeps.
 *
 * The parallel reducer already lays every study out on a fixed chunk
 * grid whose decomposition never depends on the worker count (see
 * util/parallel.h). A checkpoint simply snapshots that grid: the
 * serialized accumulator of every finished chunk of the unit in
 * flight, plus the merged result blob of every finished unit. On
 * resume the finished state is restored byte-for-byte, only the
 * missing chunks are recomputed (each item draws from its own
 * seed-derived RNG stream, so recomputation is order-independent),
 * and the chunk results merge in chunk order — the resumed study is
 * bit-identical to an uninterrupted run, for any --jobs value on
 * either side of the interruption.
 *
 * File layout (little-endian):
 *   magic "AEGISCKP" | u32 version | u64 payloadSize | u64 fnv1a64
 *   checksum | payload
 * The payload records the program name, a fingerprint of the
 * result-affecting flags, the master seed, the finished units, and
 * the chunk grid of the unit in flight, if any. Stale checkpoints —
 * wrong program, flags, seed, or per-unit fingerprint — are rejected
 * with an actionable error instead of silently producing a chimera of
 * two different sweeps.
 *
 * Version 3 stores at most one in-flight unit, because a run opens one
 * unit at a time; files of any other version are rejected.
 */

#ifndef AEGIS_SIM_CHECKPOINT_H
#define AEGIS_SIM_CHECKPOINT_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/experiment.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/expected.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace aegis::sim {

/** Checkpoint file format version this build reads and writes. */
inline constexpr std::uint32_t kCheckpointVersion = 3;

/** Which study type a checkpointed unit aggregates. */
enum class StudyKind : std::uint8_t {
    Page = 1,
    Block = 2,
    Survival = 3,
};

/** One finished chunk of the unit in flight. */
struct CheckpointChunk
{
    std::uint32_t index = 0;
    std::string blob; ///< serialized chunk accumulator
};

/** One finished study unit (e.g. one table row's sweep). */
struct CheckpointUnit
{
    std::uint32_t index = 0;       ///< position in the bench's unit order
    std::uint64_t fingerprint = 0; ///< hash of the unit's configuration
    std::uint8_t kind = 0;         ///< StudyKind
    std::string blob;              ///< serialized merged study
};

/** The chunk grid of the unit in flight at snapshot time. */
struct CheckpointPartial
{
    std::uint32_t index = 0;
    std::uint64_t fingerprint = 0;
    std::uint8_t kind = 0;
    std::uint64_t items = 0;
    std::uint64_t grain = 0;
    std::vector<CheckpointChunk> chunks;
};

/** Everything a checkpoint file stores. */
struct CheckpointData
{
    std::string program;
    std::uint64_t flagsFingerprint = 0;
    std::uint64_t masterSeed = 0;
    std::vector<CheckpointUnit> completed;
    std::optional<CheckpointPartial> inFlight;
};

/** Encode @p data as a complete checkpoint file image. */
std::string encodeCheckpoint(const CheckpointData &data);

/**
 * Decode a checkpoint file image. Bad magic, unsupported version,
 * truncation, checksum mismatch and malformed payloads each fail with
 * a distinct actionable message naming @p path.
 */
Expected<CheckpointData> decodeCheckpoint(std::string_view bytes,
                                          const std::string &path);

/** Read and decode the checkpoint at @p path. */
Expected<CheckpointData> loadCheckpointFile(const std::string &path);

/** Serialize a study accumulator into a checkpoint blob. */
void serializeStudy(const PageStudy &s, BinaryWriter &w);
void serializeStudy(const BlockStudy &s, BinaryWriter &w);
void serializeStudy(const SurvivalStudy &s, BinaryWriter &w);

/** Restore a study accumulator; false on short/corrupt input. */
bool deserializeStudy(PageStudy &s, BinaryReader &r);
bool deserializeStudy(BlockStudy &s, BinaryReader &r);
bool deserializeStudy(SurvivalStudy &s, BinaryReader &r);

/**
 * One bench run's checkpoint state: prior progress restored from disk
 * plus the progress of the current process, snapshotted atomically
 * (write-temp + fsync + rename) every few chunks, at every unit
 * boundary, and on cancellation.
 *
 * Thread safety: beginUnit/unitDone/resume are called from the
 * driving thread between sweeps; chunkDone is called concurrently by
 * the reducer's workers and serializes internally.
 */
class CheckpointSession
{
  public:
    CheckpointSession(std::string path, std::string program,
                      std::uint64_t flagsFingerprint,
                      std::uint64_t masterSeed);

    /**
     * Load the checkpoint file and adopt its progress. Fails with an
     * actionable message when the file is unreadable, corrupt, or was
     * written by a different program / flag set / seed.
     */
    Status resume();

    /** Prior progress for the unit beginUnit just opened. */
    struct UnitResume
    {
        bool completed = false; ///< whole unit restored; skip the sweep
        std::string unitBlob;   ///< merged study blob when completed
        std::vector<CheckpointChunk> chunks; ///< finished chunks otherwise
    };

    /**
     * Open the next unit (units are numbered in call order) and
     * return any restored progress for it. Throws ConfigError when
     * the checkpoint's record of this unit has a different
     * fingerprint, kind, or chunk grid — the checkpoint belongs to a
     * different sweep.
     */
    UnitResume beginUnit(std::uint64_t fingerprint, StudyKind kind,
                         std::uint64_t items, std::uint64_t grain);

    /**
     * Record one finished chunk of the open unit. Safe to call from
     * worker threads. Every snapshotEvery-th recorded chunk triggers
     * a snapshot (failure warns and continues: losing a checkpoint
     * must not kill the sweep it exists to protect). The chaos
     * harness's injected kill-point sits after the snapshot decision.
     */
    void chunkDone(std::uint32_t chunk, std::string blob);

    /** Close the open unit with its merged study blob and snapshot. */
    void unitDone(std::string blob);

    /** Write a snapshot of all progress now (atomic replace). */
    Status writeSnapshot();

    /** Fold in the metrics of a study blob restored from disk. */
    void noteRestoredMetrics(const obs::Metrics &m);

    /**
     * Metrics carried by every blob restored from disk this process —
     * work accounted in the checkpoint but not re-executed here.
     * Adding these to obs::processTotals() makes a resumed run's
     * manifest counters byte-equal to an uninterrupted run's.
     */
    const obs::Metrics &restoredMetrics() const { return restored; }

    /** Snapshot cadence in chunks (0 = only at unit boundaries). */
    void setSnapshotEveryChunks(std::uint32_t every)
    {
        snapshotEvery = every;
    }

    const std::string &path() const { return filePath; }

  private:
    Status writeSnapshotLocked();
    void warnWriteFailure(const Status &s);

    std::mutex mu;
    std::string filePath;
    CheckpointData current;  ///< progress to persist (restored + new)
    CheckpointData restoredFile; ///< as loaded by resume()
    bool haveRestored = false;
    std::uint32_t nextUnit = 0;
    std::uint32_t snapshotEvery = 8;
    std::uint32_t sinceSnapshot = 0;
    bool warnedWriteFailure = false;
    obs::Metrics restored;
};

/**
 * Ambient per-run context the study runners consult: an optional
 * checkpoint session and an optional cancellation token. Installed by
 * the bench harness around the run body (ScopedRunContext); library
 * callers that use the runners directly get a plain uncheckpointed,
 * uncancellable sweep. Main-thread discipline: install before the
 * sweeps start, not from worker threads.
 */
struct RunContext
{
    CheckpointSession *session = nullptr;
    const CancelToken *cancel = nullptr;
};

/** The active ambient context (defaults: no session, no token). */
RunContext &activeRunContext();

/** RAII installer for the ambient RunContext. */
class ScopedRunContext
{
  public:
    explicit ScopedRunContext(RunContext ctx) : saved(activeRunContext())
    {
        activeRunContext() = ctx;
    }
    ~ScopedRunContext() { activeRunContext() = saved; }
    ScopedRunContext(const ScopedRunContext &) = delete;
    ScopedRunContext &operator=(const ScopedRunContext &) = delete;

  private:
    RunContext saved;
};

/**
 * Deterministic chunked reduction with resume, periodic snapshots and
 * cooperative cancellation — the checkpoint-aware superset of
 * parallelReduce() that the study runners build on.
 *
 * Without an active session this *is* parallelReduce (plus the
 * ambient cancel token). With one: previously finished chunks are
 * restored instead of recomputed, finished chunks are recorded as
 * they complete, and on cancellation the workers drain at the next
 * chunk boundary, a final snapshot is written, and CancelledError is
 * raised for the harness to turn into a "partial" manifest.
 *
 * body(acc, item) is invoked for every item of each computed chunk.
 */
template <typename Study, typename Body>
Study
runStudyUnit(std::size_t items, unsigned jobs, StudyKind kind,
             std::uint64_t fingerprint, const Body &body,
             std::size_t grain = kDefaultGrain)
{
    RunContext &ctx = activeRunContext();
    if (ctx.session == nullptr) {
        // Per-chunk telemetry hook: rows are indexed by chunk on the
        // fixed grid, so the recorded timeline (wall_ms aside) is as
        // jobs-invariant as the reduction itself.
        const std::function<void(std::size_t, Study &, std::size_t)>
            chunk_done = [](std::size_t c, Study &acc,
                            std::size_t n) {
                obs::timelineChunkDone(c, n, acc.metrics);
            };
        return parallelReduce<Study>(
            items, jobs, body, grain, ctx.cancel,
            obs::timelineEnabled() ? &chunk_done : nullptr);
    }

    if (grain == 0)
        grain = 1;
    const std::size_t chunks = (items + grain - 1) / grain;
    CheckpointSession &session = *ctx.session;
    CheckpointSession::UnitResume prior = session.beginUnit(
        fingerprint, kind, items, grain);

    if (prior.completed) {
        Study out;
        BinaryReader r(prior.unitBlob);
        AEGIS_REQUIRE(deserializeStudy(out, r) && r.atEnd(),
                      "checkpoint `" + session.path() +
                          "' holds a corrupt study record");
        session.noteRestoredMetrics(out.metrics);
        return out;
    }

    std::vector<Study> partial(chunks);
    std::vector<std::uint8_t> have(chunks, 0);
    for (const CheckpointChunk &c : prior.chunks) {
        AEGIS_REQUIRE(c.index < chunks,
                      "checkpoint `" + session.path() +
                          "' references a chunk outside this sweep");
        BinaryReader r(c.blob);
        AEGIS_REQUIRE(deserializeStudy(partial[c.index], r) && r.atEnd(),
                      "checkpoint `" + session.path() +
                          "' holds a corrupt chunk record");
        session.noteRestoredMetrics(partial[c.index].metrics);
        if (obs::timelineEnabled()) {
            const std::size_t begin = c.index * grain;
            const std::size_t end = std::min(items, begin + grain);
            obs::timelineChunkDone(c.index, end - begin,
                                   partial[c.index].metrics,
                                   /*restored=*/true);
        }
        have[c.index] = 1;
    }

    std::vector<std::size_t> pending;
    pending.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c)
        if (have[c] == 0)
            pending.push_back(c);

    parallelFor(
        pending.size(), jobs,
        [&](std::size_t pi) {
            const std::size_t c = pending[pi];
            const std::size_t begin = c * grain;
            const std::size_t end = std::min(items, begin + grain);
            for (std::size_t i = begin; i < end; ++i)
                body(partial[c], i);
            if (obs::timelineEnabled())
                obs::timelineChunkDone(c, end - begin,
                                       partial[c].metrics);
            BinaryWriter w;
            serializeStudy(partial[c], w);
            session.chunkDone(static_cast<std::uint32_t>(c), w.take());
        },
        ctx.cancel);

    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
        const Status s = session.writeSnapshot();
        if (!s.ok())
            std::fprintf(stderr,
                         "warning: final checkpoint write failed: %s\n",
                         s.error().c_str());
        throw CancelledError(ctx.cancel->reason());
    }

    // Restored and computed chunks fold in chunk order, exactly as
    // parallelReduce folds an uninterrupted run.
    Study out;
    for (Study &p : partial)
        out.merge(p);
    BinaryWriter w;
    serializeStudy(out, w);
    session.unitDone(w.take());
    return out;
}

} // namespace aegis::sim

#endif // AEGIS_SIM_CHECKPOINT_H
