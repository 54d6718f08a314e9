#include "util/chaos.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "util/error.h"
#include "util/rng.h"

namespace aegis {

namespace {

std::mutex g_chaosMu;
bool g_parsed = false;
ChaosConfig g_config;
Rng g_ioRng;
std::atomic<std::uint64_t> g_chunksCompleted{0};

double
parseProbability(const std::string &key, const std::string &text)
{
    std::size_t used = 0;
    double v = 0;
    try {
        v = std::stod(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    AEGIS_REQUIRE(used == text.size() && v >= 0.0 && v <= 1.0,
                  "AEGIS_CHAOS " + key + " expects a probability in "
                  "[0,1], got `" + text + "'");
    return v;
}

std::uint64_t
parseCount(const std::string &key, const std::string &text)
{
    std::size_t used = 0;
    std::uint64_t v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    AEGIS_REQUIRE(used == text.size() && !text.empty() &&
                      text[0] != '-',
                  "AEGIS_CHAOS " + key + " expects a non-negative "
                  "integer, got `" + text + "'");
    return v;
}

} // namespace

ChaosConfig
parseChaosSpec(const char *spec)
{
    ChaosConfig config;
    if (spec == nullptr || *spec == '\0')
        return config;
    std::string text = spec;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string item = text.substr(start, end - start);
        start = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        AEGIS_REQUIRE(eq != std::string::npos,
                      "AEGIS_CHAOS expects key=value pairs, got `" +
                          item + "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "kill-after-chunks") {
            config.killAfterChunks = parseCount(key, value);
        } else if (key == "io-fail-rate") {
            config.ioFailRate = parseProbability(key, value);
        } else if (key == "io-fail-seed") {
            config.ioFailSeed = parseCount(key, value);
        } else {
            AEGIS_REQUIRE(false, "AEGIS_CHAOS unknown key `" + key +
                                     "' (expected kill-after-chunks, "
                                     "io-fail-rate or io-fail-seed)");
        }
    }
    return config;
}

const ChaosConfig &
chaosConfig()
{
    const std::lock_guard<std::mutex> lock(g_chaosMu);
    if (!g_parsed) {
        g_config = parseChaosSpec(std::getenv("AEGIS_CHAOS"));
        g_ioRng = Rng(g_config.ioFailSeed);
        g_parsed = true;
    }
    return g_config;
}

void
setChaosConfigForTest(const ChaosConfig &config)
{
    const std::lock_guard<std::mutex> lock(g_chaosMu);
    g_config = config;
    g_ioRng = Rng(config.ioFailSeed);
    g_parsed = true;
    g_chunksCompleted.store(0, std::memory_order_relaxed);
}

bool
chaosShouldFailIo()
{
    if (chaosConfig().ioFailRate <= 0.0)
        return false;
    const std::lock_guard<std::mutex> lock(g_chaosMu);
    return g_ioRng.nextBernoulli(g_config.ioFailRate);
}

void
chaosNoteChunkComplete()
{
    const ChaosConfig &config = chaosConfig();
    if (config.killAfterChunks == 0)
        return;
    const std::uint64_t n =
        g_chunksCompleted.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == config.killAfterChunks) {
        // Simulate a crash: no destructors, no atexit, no final
        // checkpoint — resume must work from the last periodic
        // snapshot alone.
        std::fprintf(stderr,
                     "chaos: injected kill after %llu chunks\n",
                     static_cast<unsigned long long>(n));
        std::_Exit(137);
    }
}

} // namespace aegis
