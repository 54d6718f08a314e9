/**
 * @file
 * Fault injection for the robustness layer, driven by the AEGIS_CHAOS
 * environment variable. Two faults are supported:
 *
 *  - `io-fail-rate=<p>` — each atomic file write independently fails
 *    with probability p (deterministically, from `io-fail-seed=<s>`),
 *    exercising the checkpoint/manifest error paths.
 *  - `kill-after-chunks=<n>` — the process dies with _Exit(137) (as
 *    if SIGKILLed) right after the n-th Monte-Carlo chunk completes,
 *    for kill-and-resume integration tests that must not rely on
 *    graceful shutdown.
 *
 * Example: AEGIS_CHAOS="kill-after-chunks=5,io-fail-rate=0.3"
 * Production runs leave AEGIS_CHAOS unset; every hook then reduces to
 * one branch on a cached config.
 */

#ifndef AEGIS_UTIL_CHAOS_H
#define AEGIS_UTIL_CHAOS_H

#include <cstdint>

namespace aegis {

/** Parsed AEGIS_CHAOS settings. */
struct ChaosConfig
{
    /** Kill the process after this many completed chunks (0 = off). */
    std::uint64_t killAfterChunks = 0;
    /** Probability each atomic file write fails (0 = off). */
    double ioFailRate = 0.0;
    /** Seed of the deterministic failure stream. */
    std::uint64_t ioFailSeed = 1;

    bool enabled() const
    {
        return killAfterChunks != 0 || ioFailRate > 0.0;
    }
};

/**
 * The active chaos configuration: parsed once from AEGIS_CHAOS on
 * first use (ConfigError on malformed input), or whatever the last
 * setChaosConfigForTest() installed.
 */
const ChaosConfig &chaosConfig();

/** Override the chaos config (tests); bypasses the environment. */
void setChaosConfigForTest(const ChaosConfig &config);

/** Parse an AEGIS_CHAOS value (exposed for tests). */
ChaosConfig parseChaosSpec(const char *spec);

/**
 * Draw from the injected-I/O-failure stream: true when the caller
 * should fail this write. Thread-safe; always false when io-fail-rate
 * is unset.
 */
bool chaosShouldFailIo();

/**
 * Note one completed Monte-Carlo chunk. When kill-after-chunks is
 * armed and the count is reached, the process exits immediately with
 * status 137 — simulating a crash, not a graceful shutdown.
 */
void chaosNoteChunkComplete();

} // namespace aegis

#endif // AEGIS_UTIL_CHAOS_H
