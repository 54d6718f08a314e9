/**
 * @file
 * Cooperative cancellation: the CancelToken latch (first reason wins,
 * deadline self-arming), exit-code and label conventions, and the
 * drain behaviour of parallelFor/parallelReduce once a token fires.
 * Also the AEGIS_CHAOS parser that arms the injected kill.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "util/cancel.h"
#include "util/chaos.h"
#include "util/error.h"
#include "util/parallel.h"

namespace aegis {
namespace {

TEST(CancelToken, StartsClear)
{
    CancelToken t;
    EXPECT_FALSE(t.cancelled());
    EXPECT_EQ(t.reason(), CancelReason::None);
}

TEST(CancelToken, FirstReasonWins)
{
    CancelToken t;
    t.requestCancel(CancelReason::Deadline);
    t.requestCancel(CancelReason::Signal);
    EXPECT_TRUE(t.cancelled());
    EXPECT_EQ(t.reason(), CancelReason::Deadline);
    t.reset();
    EXPECT_FALSE(t.cancelled());
    EXPECT_EQ(t.reason(), CancelReason::None);
}

TEST(CancelToken, DeadlineArmsTheLatch)
{
    CancelToken t;
    t.setDeadlineAfter(0.0);    // already expired
    EXPECT_TRUE(t.cancelled());
    EXPECT_EQ(t.reason(), CancelReason::Deadline);
}

TEST(CancelToken, FutureDeadlineDoesNotFireEarly)
{
    CancelToken t;
    t.setDeadlineAfter(3600.0);
    EXPECT_FALSE(t.cancelled());
}

TEST(CancelConventions, ExitCodesFollowShellAndTimeout)
{
    EXPECT_EQ(cancelExitCode(CancelReason::Signal), 130);
    EXPECT_EQ(cancelExitCode(CancelReason::Deadline), 124);
    EXPECT_EQ(cancelExitCode(CancelReason::Injected), 3);
}

TEST(CancelConventions, OutcomeLabels)
{
    EXPECT_STREQ(cancelOutcomeLabel(CancelReason::None), "completed");
    EXPECT_STREQ(cancelOutcomeLabel(CancelReason::Signal),
                 "cancelled (signal)");
    EXPECT_STREQ(cancelOutcomeLabel(CancelReason::Deadline),
                 "deadline exceeded");
    EXPECT_STREQ(cancelOutcomeLabel(CancelReason::Injected),
                 "cancelled (injected)");
    EXPECT_STREQ(cancelReasonName(CancelReason::Signal), "signal");
}

TEST(CancelParallel, ParallelForStopsHandingOutChunks)
{
    // Cancel from inside the third chunk body: already-started chunks
    // finish, no further chunk starts, and the call returns normally.
    CancelToken t;
    std::atomic<int> executed{0};
    parallelFor(
        1000, 2,
        [&](std::size_t) {
            if (executed.fetch_add(1) + 1 == 3)
                t.requestCancel(CancelReason::Injected);
        },
        &t);
    EXPECT_TRUE(t.cancelled());
    // With 2 workers at most a handful of chunks can be in flight
    // when the latch fires; far fewer than the full range ran.
    EXPECT_LT(executed.load(), 100);
    EXPECT_GE(executed.load(), 3);
}

TEST(CancelParallel, PreCancelledForRunsNothing)
{
    CancelToken t;
    t.requestCancel(CancelReason::Injected);
    std::atomic<int> executed{0};
    parallelFor(64, 4, [&](std::size_t) { executed.fetch_add(1); }, &t);
    EXPECT_EQ(executed.load(), 0);
}

TEST(CancelParallel, ReduceThrowsAfterDraining)
{
    struct Acc
    {
        int n = 0;
        void merge(const Acc &o) { n += o.n; }
    };
    CancelToken t;
    std::atomic<int> executed{0};
    try {
        (void)parallelReduce<Acc>(
            256, 2,
            [&](Acc &acc, std::size_t) {
                acc.n += 1;
                if (executed.fetch_add(1) + 1 == 5)
                    t.requestCancel(CancelReason::Deadline);
            },
            /*grain=*/8, &t);
        FAIL() << "parallelReduce returned a partial result";
    } catch (const CancelledError &e) {
        EXPECT_EQ(e.reason(), CancelReason::Deadline);
        EXPECT_NE(std::string(e.what()).find("deadline"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_LT(executed.load(), 256);
}

TEST(CancelParallel, NullTokenMeansUncancellable)
{
    std::atomic<int> executed{0};
    parallelFor(32, 4, [&](std::size_t) { executed.fetch_add(1); },
                nullptr);
    EXPECT_EQ(executed.load(), 32);
}

TEST(CancelParallel, DeadlineCancelsARunningSweep)
{
    CancelToken t;
    t.setDeadlineAfter(0.02);
    std::atomic<int> executed{0};
    parallelFor(
        100000, 2,
        [&](std::size_t) {
            executed.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        &t);
    EXPECT_TRUE(t.cancelled());
    EXPECT_EQ(t.reason(), CancelReason::Deadline);
    EXPECT_LT(executed.load(), 100000);
}

TEST(CancelProcess, ProcessTokenIsASingleton)
{
    EXPECT_EQ(&processCancelToken(), &processCancelToken());
    processCancelToken().reset();    // leave clean for other tests
}

TEST(ChaosSpec, ParsesEveryKeyAndRejectsBadInput)
{
    EXPECT_FALSE(parseChaosSpec(nullptr).enabled());
    EXPECT_FALSE(parseChaosSpec("").enabled());

    const ChaosConfig c = parseChaosSpec(
        "kill-after-chunks=5,io-fail-rate=0.3,io-fail-seed=9");
    EXPECT_EQ(c.killAfterChunks, 5u);
    EXPECT_DOUBLE_EQ(c.ioFailRate, 0.3);
    EXPECT_EQ(c.ioFailSeed, 9u);
    EXPECT_TRUE(c.enabled());

    EXPECT_THROW(parseChaosSpec("kill-after-chunks=x"), ConfigError);
    EXPECT_THROW(parseChaosSpec("hang-after-chunks=2"), ConfigError);
}

} // namespace
} // namespace aegis
