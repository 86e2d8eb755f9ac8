/**
 * @file
 * Fault-tolerance tests for SweepRunner: per-point deadlines (both
 * the event-loop backstop and the deadline sentinel), retry with
 * attempt records, checkpoint/resume from a ResultStore, graceful
 * shutdown drain and cancel escalation, and chaos-style accounting
 * (interrupt, resume, verify the merged store covers every point
 * exactly).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "drive/sweep_runner.hh"
#include "inject/progress_sentinel.hh"
#include "obs/json_reader.hh"
#include "obs/result_store.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"
#include "sim/simulation.hh"

using namespace salam;
using namespace salam::drive;
using salam::obs::parseJson;

namespace
{

/**
 * The worst hang mode: an event that reschedules itself at the same
 * tick. The simulated clock is frozen, so no sentinel event can ever
 * fire — only the event loop's host-limit backstop can catch it.
 */
class FrozenSpinner : public SimObject
{
  public:
    FrozenSpinner(Simulation &sim, std::string name)
        : SimObject(sim, std::move(name))
    {
    }

    std::string stuckReason() const override
    {
        return "spinning at a frozen tick";
    }

    void
    start()
    {
        eventQueue().schedule(curTick(), [this] { start(); },
                              name() + ".spin");
    }
};

/**
 * A hang whose clock still advances (the livelock shape): events fire
 * forever at increasing ticks, so the deadline sentinel's own check
 * event gets to run and produce the structured hang dump.
 */
class TickingSpinner : public SimObject
{
  public:
    TickingSpinner(Simulation &sim, std::string name)
        : SimObject(sim, std::move(name))
    {
    }

    std::string stuckReason() const override
    {
        return "ticking forever";
    }

    void
    start()
    {
        eventQueue().schedule(curTick() + 1000, [this] { start(); },
                              name() + ".tick");
    }
};

/** A point that can never finish; tick frozen. */
std::string
frozenPoint()
{
    Simulation sim;
    auto &spinner = sim.create<FrozenSpinner>("spinner");
    spinner.start();
    sim.run();
    return "{}"; // unreachable: the backstop fatal()s first
}

/** A point that can never finish but whose tick advances. */
std::string
tickingPoint(const std::string &dump_path)
{
    Simulation sim;
    auto &spinner = sim.create<TickingSpinner>("ticker");
    spinner.start();
    inject::armPointDeadline(sim, [] { return false; }, dump_path);
    sim.run();
    return "{}";
}

/** A fast, well-behaved point. */
std::string
quickPoint(std::size_t idx)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return "{\"idx\": " + std::to_string(idx) + "}";
}

/** Records appended by a store rooted at @p dir matching @p kind. */
std::vector<const obs::LoadedRecord *>
recordsOfKind(const obs::StoreReader &reader, const std::string &kind)
{
    obs::RecordFilter filter;
    filter.kind = kind;
    return reader.select(filter);
}

/**
 * Fresh per-test store directory under the harness temp dir. The
 * temp dir persists across test-binary invocations, so stale records
 * from a previous run must be cleared or resume would see them.
 */
std::string
storeDirFor(const std::string &test)
{
    std::string dir =
        ::testing::TempDir() + "ut_resilience_" + test + ".store";
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(Resilience, FrozenTickPointTimesOutWithoutStallingThePool)
{
    SweepRunner::Options opts;
    opts.threads = 2;
    opts.pointTimeoutSeconds = 0.25;
    SweepRunner runner(opts);
    auto results = runner.run(5, [](std::size_t idx) {
        if (idx == 1)
            return frozenPoint();
        return quickPoint(idx);
    });

    ASSERT_EQ(results.size(), 5u);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].outcome, "timeout");
    EXPECT_EQ(results[1].attempts, 1u);
    EXPECT_NE(results[1].error.find("deadline"), std::string::npos);
    // The other worker kept draining the queue while point 1 hung.
    for (std::size_t i : {0u, 2u, 3u, 4u}) {
        EXPECT_TRUE(results[i].ok) << i << ": " << results[i].error;
        EXPECT_EQ(results[i].outcome, "ok") << i;
    }
    EXPECT_FALSE(runner.interrupted());
}

TEST(Resilience, DeadlineSentinelClassifiesTimeoutAndWritesDump)
{
    const std::string dump_path =
        ::testing::TempDir() + "ut_resilience_deadline_dump.json";
    std::remove(dump_path.c_str());

    SweepRunner::Options opts;
    opts.threads = 1;
    opts.pointTimeoutSeconds = 0.25;
    SweepRunner runner(opts);
    auto results = runner.run(1, [&](std::size_t) {
        return tickingPoint(dump_path);
    });

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].outcome, "timeout");

    // The sentinel (not the dump-less backstop) caught this hang, so
    // the structured state dump exists and names the spinner.
    std::ifstream in(dump_path);
    ASSERT_TRUE(in.good()) << dump_path;
    std::stringstream ss;
    ss << in.rdbuf();
    auto doc = parseJson(ss.str());
    EXPECT_EQ(doc.at("kind").string, "salam_state_dump");
    EXPECT_NE(doc.at("reason").string.find("deadline"),
              std::string::npos);
    ASSERT_EQ(doc.at("suspects").array.size(), 1u);
    EXPECT_EQ(doc.at("suspects").array[0].at("object").string,
              "ticker");
    std::remove(dump_path.c_str());
}

TEST(Resilience, RetryRecoversFlakyPointAndRecordsAttempts)
{
    const std::string dir = storeDirFor("retry");
    std::string err;
    auto store = obs::ResultStore::open(dir, &err);
    ASSERT_NE(store, nullptr) << err;

    std::atomic<int> point2_failures{0};
    SweepRunner::Options opts;
    opts.threads = 2;
    opts.pointRetries = 2;
    opts.retryBackoffMs = 1;
    opts.store = store.get();
    opts.storeName = "retry_ut";
    opts.durable = true;
    SweepRunner runner(opts);
    auto results = runner.run(4, [&](std::size_t idx) {
        if (idx == 2 &&
            point2_failures.fetch_add(1,
                                      std::memory_order_relaxed) == 0)
            fatal("transient failure on first attempt");
        return quickPoint(idx);
    });

    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[2].ok) << results[2].error;
    EXPECT_EQ(results[2].outcome, "ok");
    EXPECT_EQ(results[2].attempts, 2u);
    for (std::size_t i : {0u, 1u, 3u})
        EXPECT_EQ(results[i].attempts, 1u) << i;

    store.reset(); // flush + close before reading
    obs::StoreReader reader = obs::StoreReader::load(dir);
    ASSERT_TRUE(reader.ok()) << reader.error();
    auto attempts = recordsOfKind(reader, "attempt");
    // One record per attempt actually executed: 3 + 2.
    ASSERT_EQ(attempts.size(), 5u);
    unsigned point2_attempts = 0;
    bool saw_failed_first = false;
    for (const obs::LoadedRecord *rec : attempts) {
        if (rec->point == 2) {
            ++point2_attempts;
            if (rec->record.numberOr("attempt", 0) == 1.0) {
                EXPECT_EQ(rec->outcome, "fault");
                saw_failed_first = true;
            } else {
                EXPECT_EQ(rec->outcome, "ok");
            }
        } else {
            EXPECT_EQ(rec->outcome, "ok");
        }
    }
    EXPECT_EQ(point2_attempts, 2u);
    EXPECT_TRUE(saw_failed_first);
}

TEST(Resilience, RetryExhaustionKeepsLastFailure)
{
    SweepRunner::Options opts;
    opts.threads = 1;
    opts.pointRetries = 1;
    opts.retryBackoffMs = 1;
    SweepRunner runner(opts);
    auto results = runner.run(1, [](std::size_t) -> std::string {
        fatal("permanently broken configuration");
    });
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].outcome, "fault");
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_NE(results[0].error.find("permanently broken"),
              std::string::npos);
}

TEST(Resilience, ResumeSkipsCompletedPointsByIndex)
{
    const std::string dir = storeDirFor("resume_index");
    std::atomic<bool> first_sweep{true};

    auto point_fn = [&](std::size_t idx) {
        if (idx == 3 && first_sweep.load(std::memory_order_relaxed))
            fatal("flaky only on the first sweep");
        return quickPoint(idx);
    };

    {
        std::string err;
        auto store = obs::ResultStore::open(dir, &err);
        ASSERT_NE(store, nullptr) << err;
        SweepRunner::Options opts;
        opts.threads = 2;
        opts.store = store.get();
        opts.storeName = "resume_ut";
        opts.durable = true;
        SweepRunner runner(opts);
        auto results = runner.run(6, point_fn);
        EXPECT_FALSE(results[3].ok);
        EXPECT_EQ(results[3].outcome, "fault");
    }

    // Second run, resuming from the same store: only the failed
    // point re-runs; the five ok points are cache hits.
    first_sweep.store(false, std::memory_order_relaxed);
    std::string err;
    auto store = obs::ResultStore::open(dir, &err);
    ASSERT_NE(store, nullptr) << err;
    SweepRunner::Options opts;
    opts.threads = 2;
    opts.store = store.get();
    opts.storeName = "resume_ut";
    opts.resumePath = dir;
    opts.durable = true;
    SweepRunner runner(opts);
    auto results = runner.run(6, point_fn);

    ASSERT_EQ(results.size(), 6u);
    EXPECT_TRUE(results[3].ok) << results[3].error;
    EXPECT_EQ(results[3].outcome, "ok");
    EXPECT_EQ(results[3].attempts, 1u);
    for (std::size_t i : {0u, 1u, 2u, 4u, 5u}) {
        EXPECT_TRUE(results[i].ok) << i;
        EXPECT_EQ(results[i].outcome, "cached") << i;
        EXPECT_EQ(results[i].attempts, 0u) << i;
    }

    // The aggregate dump separates the deferred classes.
    std::ostringstream os;
    SweepRunner::writeAggregateJson(os, "resume", results,
                                    runner.lastThreads(),
                                    runner.lastWallSeconds());
    auto doc = parseJson(os.str());
    EXPECT_EQ(doc.at("failed_points").number, 0.0);
    EXPECT_EQ(doc.at("cached_points").number, 5.0);
    EXPECT_EQ(doc.at("outcomes").at("cached").number, 5.0);
    EXPECT_EQ(doc.at("outcomes").at("ok").number, 1.0);
}

TEST(Resilience, ResumeMatchesByConfigHash)
{
    const std::string dir = storeDirFor("resume_hash");
    auto hash_of = [](std::size_t idx) {
        return std::uint64_t(0xabc000) + idx;
    };

    {
        // Seed the resume store with ok runs for the even points, as
        // a point function recording RunReports would have.
        std::string err;
        auto store = obs::ResultStore::open(dir, &err);
        ASSERT_NE(store, nullptr) << err;
        for (std::size_t idx : {0u, 2u}) {
            obs::StoreRecord rec;
            rec.kind = "run";
            rec.bench = "hash_ut";
            rec.outcome = "ok";
            rec.configHash = hash_of(idx);
            rec.point = static_cast<long>(idx);
            rec.json = "{}";
            store->append(std::move(rec));
        }
        ASSERT_TRUE(store->flush());
    }

    SweepRunner::Options opts;
    opts.threads = 2;
    opts.resumePath = dir;
    opts.pointHash = hash_of;
    SweepRunner runner(opts);
    auto results = runner.run(4, quickPoint);

    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].outcome, "cached");
    EXPECT_EQ(results[2].outcome, "cached");
    EXPECT_EQ(results[1].outcome, "ok");
    EXPECT_EQ(results[3].outcome, "ok");
}

TEST(Resilience, ResumeFromMissingStoreStartsFromScratch)
{
    SweepRunner::Options opts;
    opts.threads = 1;
    opts.resumePath =
        ::testing::TempDir() + "ut_resilience_no_such_store";
    SweepRunner runner(opts);
    auto results = runner.run(3, quickPoint);
    for (const auto &r : results) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.outcome, "ok");
    }
}

TEST(Resilience, ShutdownDrainsQueueAndResumeFinishesTheRest)
{
    const std::string dir = storeDirFor("shutdown");
    {
        std::string err;
        auto store = obs::ResultStore::open(dir, &err);
        ASSERT_NE(store, nullptr) << err;
        SweepRunner::Options opts;
        opts.threads = 1;
        opts.store = store.get();
        opts.storeName = "drain_ut";
        opts.durable = true;
        SweepRunner runner(opts);
        auto results = runner.run(6, [&](std::size_t idx) {
            if (idx == 1)
                SweepRunner::requestShutdown();
            return quickPoint(idx);
        });

        // The in-flight point finished; everything queued behind it
        // drained as "skipped".
        EXPECT_TRUE(runner.interrupted());
        EXPECT_TRUE(results[0].ok);
        EXPECT_TRUE(results[1].ok);
        for (std::size_t i : {2u, 3u, 4u, 5u}) {
            EXPECT_FALSE(results[i].ok) << i;
            EXPECT_EQ(results[i].outcome, "skipped") << i;
            EXPECT_EQ(results[i].attempts, 0u) << i;
        }
    }

    {
        // Every point of the grid is accounted for in the store, and
        // the sweep-level record says "interrupted".
        obs::StoreReader reader = obs::StoreReader::load(dir);
        ASSERT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(recordsOfKind(reader, "sweep_point").size(), 6u);
        auto sweeps = recordsOfKind(reader, "sweep");
        ASSERT_EQ(sweeps.size(), 1u);
        EXPECT_EQ(sweeps[0]->outcome, "interrupted");
        EXPECT_EQ(sweeps[0]->record.numberOr("skipped_points", -1),
                  4.0);
    }

    // A resume in the same process must not inherit the shutdown:
    // run() resets the flags, skips the two done points, and
    // completes the rest.
    std::string err;
    auto store = obs::ResultStore::open(dir, &err);
    ASSERT_NE(store, nullptr) << err;
    SweepRunner::Options opts;
    opts.threads = 2;
    opts.store = store.get();
    opts.storeName = "drain_ut";
    opts.resumePath = dir;
    opts.durable = true;
    SweepRunner runner(opts);
    auto results = runner.run(6, quickPoint);
    EXPECT_FALSE(runner.interrupted());
    EXPECT_EQ(results[0].outcome, "cached");
    EXPECT_EQ(results[1].outcome, "cached");
    for (std::size_t i : {2u, 3u, 4u, 5u}) {
        EXPECT_TRUE(results[i].ok) << i;
        EXPECT_EQ(results[i].outcome, "ok") << i;
    }
}

TEST(Resilience, CancelUnwindsInFlightSimulation)
{
    SweepRunner::Options opts;
    opts.threads = 1;
    SweepRunner runner(opts);
    auto results = runner.run(3, [](std::size_t) {
        // Escalated shutdown while this point's simulation is
        // mid-flight: the event loop's backstop sees the cancel flag
        // and unwinds the point as "skipped" (re-run on resume).
        SweepRunner::requestCancel();
        return frozenPoint();
    });

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(runner.interrupted());
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].outcome, "skipped");
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_NE(results[0].error.find("cancel"), std::string::npos);
    // Queued points never started.
    EXPECT_EQ(results[1].outcome, "skipped");
    EXPECT_EQ(results[1].attempts, 0u);
    EXPECT_EQ(results[2].outcome, "skipped");
}

TEST(Resilience, ChaosInterruptResumeCoversEveryPointExactly)
{
    // Chaos shape, in-process: a sweep with a flaky point gets
    // interrupted mid-run, then resumed (same store) until it
    // completes. The merged store must account for every point of
    // the grid with a terminal ok/cached record — the invariant the
    // scripts/chaos_sweep.sh harness checks across real processes
    // and SIGKILLs.
    constexpr std::size_t points = 10;
    const std::string dir = storeDirFor("chaos");
    std::atomic<int> flaky_failures{0};
    std::atomic<bool> interrupt_armed{true};

    auto point_fn = [&](std::size_t idx) {
        if (idx == 4 &&
            flaky_failures.fetch_add(1,
                                     std::memory_order_relaxed) == 0)
            fatal("chaos: flaky point, first attempt");
        if (idx == 6 &&
            interrupt_armed.exchange(false,
                                     std::memory_order_relaxed))
            SweepRunner::requestShutdown();
        return quickPoint(idx);
    };

    unsigned sweeps_run = 0;
    bool interrupted = true;
    std::vector<SweepPointResult> last;
    while (interrupted) {
        ASSERT_LT(sweeps_run, 5u) << "resume loop did not converge";
        std::string err;
        auto store = obs::ResultStore::open(dir, &err);
        ASSERT_NE(store, nullptr) << err;
        SweepRunner::Options opts;
        opts.threads = 2;
        opts.pointRetries = 1;
        opts.retryBackoffMs = 1;
        opts.store = store.get();
        opts.storeName = "chaos_ut";
        opts.resumePath = dir;
        opts.durable = true;
        SweepRunner runner(opts);
        last = runner.run(points, point_fn);
        interrupted = runner.interrupted();
        ++sweeps_run;
    }
    EXPECT_GE(sweeps_run, 2u) << "the interrupt never fired";

    // The final pass sees only successes: fresh runs or cache hits.
    ASSERT_EQ(last.size(), points);
    for (const auto &r : last) {
        EXPECT_TRUE(r.ok) << r.index << ": " << r.error;
        EXPECT_TRUE(r.outcome == "ok" || r.outcome == "cached")
            << r.index << ": " << r.outcome;
    }

    // Exact accounting across the merged store: every point has at
    // least one terminal ok/cached record, one sweep record exists
    // per pass, and only the final pass reports a clean finish.
    obs::StoreReader reader = obs::StoreReader::load(dir);
    ASSERT_TRUE(reader.ok()) << reader.error();
    std::vector<bool> done(points, false);
    for (const obs::LoadedRecord *rec :
         recordsOfKind(reader, "sweep_point")) {
        ASSERT_GE(rec->point, 0);
        ASSERT_LT(static_cast<std::size_t>(rec->point), points);
        if (rec->outcome == "ok" || rec->outcome == "cached")
            done[static_cast<std::size_t>(rec->point)] = true;
    }
    for (std::size_t i = 0; i < points; ++i)
        EXPECT_TRUE(done[i]) << "no terminal record for point " << i;
    auto sweeps = recordsOfKind(reader, "sweep");
    ASSERT_EQ(sweeps.size(), sweeps_run);
    EXPECT_EQ(sweeps.front()->outcome, "interrupted");
    EXPECT_EQ(sweeps.back()->outcome, "ok");
}
