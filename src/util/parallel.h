/**
 * @file
 * Chunked parallel-for and deterministic parallel reduction for the
 * Monte-Carlo engine.
 *
 * Design rule: the *work decomposition* must not depend on the worker
 * count. parallelReduce() always lays the item range out on a fixed
 * chunk grid (grain items per chunk), gives every chunk its own
 * accumulator, and folds the chunk accumulators together in chunk
 * order — threads only decide *who* computes a chunk, never *what* is
 * computed or in which order results combine. Together with per-item
 * RNG streams split from a master seed (Rng::split), this makes every
 * reduction bit-identical for every jobs value, including jobs=1.
 */

#ifndef AEGIS_UTIL_PARALLEL_H
#define AEGIS_UTIL_PARALLEL_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "util/cancel.h"

namespace aegis {

/** Worker count meaning "one per hardware thread" (always >= 1). */
unsigned hardwareJobs();

/** Resolve a jobs knob: 0 = hardwareJobs(), anything else as given. */
unsigned resolveJobs(unsigned jobs);

/**
 * Run body(chunk) for every chunk in [0, chunks) on up to @p jobs
 * threads (0 = hardware concurrency; the calling thread always
 * participates). Chunks are handed out dynamically, so bodies may
 * take unequal time. The first exception thrown by any body stops
 * the distribution of further chunks and is rethrown here.
 *
 * When @p cancel is given, workers poll it before claiming each
 * chunk: once cancelled no new chunks start, in-flight chunks run to
 * completion (cooperative draining at chunk boundaries), and the call
 * returns normally — the caller decides what a partial sweep means.
 */
void parallelFor(std::size_t chunks, unsigned jobs,
                 const std::function<void(std::size_t)> &body,
                 const CancelToken *cancel = nullptr);

/**
 * Default chunk grain for parallelReduce: small enough to load-balance
 * the default 64-page studies, large enough to amortize accumulator
 * merging at paper scale (2048 pages -> 128 chunks).
 */
inline constexpr std::size_t kDefaultGrain = 16;

/**
 * Deterministic chunked reduction: body(acc, item) is invoked for
 * every item, accumulating into the chunk-local @p Result
 * (default-constructed; must provide merge()). Chunk results merge in
 * chunk order. The chunk grid depends only on @p items and @p grain —
 * never on @p jobs — so the returned Result is bit-identical for every
 * jobs value.
 *
 * When @p cancel fires, the workers drain at the next chunk boundary
 * and CancelledError is thrown: a reduction cannot return a partial
 * result without silently changing its statistics. Callers that can
 * use partial chunk grids (the checkpointing study runner) build on
 * parallelFor directly.
 *
 * When @p chunk_done is given it is invoked on the worker thread
 * right after a chunk's items finish, with the chunk index, its
 * accumulator and its item count — the telemetry hook the study
 * runners use to record per-chunk timelines. It must be thread-safe;
 * chunks complete in an arbitrary order.
 */
template <typename Result, typename Body>
Result
parallelReduce(std::size_t items, unsigned jobs, Body body,
               std::size_t grain = kDefaultGrain,
               const CancelToken *cancel = nullptr,
               const std::function<void(std::size_t, Result &,
                                        std::size_t)> *chunk_done =
                   nullptr)
{
    if (grain == 0)
        grain = 1;
    const std::size_t chunks = (items + grain - 1) / grain;
    std::vector<Result> partial(chunks);
    parallelFor(
        chunks, jobs,
        [&](std::size_t c) {
            const std::size_t begin = c * grain;
            const std::size_t end = std::min(items, begin + grain);
            for (std::size_t i = begin; i < end; ++i)
                body(partial[c], i);
            if (chunk_done != nullptr)
                (*chunk_done)(c, partial[c], end - begin);
        },
        cancel);
    if (cancel != nullptr && cancel->cancelled())
        throw CancelledError(cancel->reason());
    Result out;
    for (Result &p : partial)
        out.merge(p);
    return out;
}

} // namespace aegis

#endif // AEGIS_UTIL_PARALLEL_H
