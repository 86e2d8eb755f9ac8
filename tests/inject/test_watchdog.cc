/** @file Tests for the forward-progress watchdog and state dumps. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "inject/fault_injector.hh"
#include "inject/progress_sentinel.hh"
#include "obs/json_reader.hh"
#include "sim/simulation.hh"

using namespace salam;
using namespace salam::inject;
using salam::obs::parseJson;

namespace
{

/**
 * A component that fires a periodic event. Whether each beat counts
 * as retirement-level progress is the experiment variable: a
 * progressing pulser models a healthy pipeline, a non-progressing one
 * models a livelock (events firing, nothing retiring).
 */
class Pulser : public SimObject
{
  public:
    Pulser(Simulation &sim, std::string name, bool progresses,
           unsigned beats, std::string stuck = {})
        : SimObject(sim, std::move(name)), progresses(progresses),
          beatsLeft(beats), stuckMsg(std::move(stuck))
    {
    }

    void
    start()
    {
        eventQueue().schedule(curTick() + 100, [this] { beat(); },
                              name() + ".beat");
    }

    unsigned beatsDone = 0;

    void
    dumpDiagnostics(obs::JsonBuilder &json) const override
    {
        json.field("beats_done", std::uint64_t(beatsDone));
    }

    std::string stuckReason() const override { return stuckMsg; }

  private:
    void
    beat()
    {
        ++beatsDone;
        if (progresses)
            noteProgress();
        if (--beatsLeft > 0)
            start();
    }

    bool progresses;
    unsigned beatsLeft;
    std::string stuckMsg;
};

} // namespace

TEST(Watchdog, TripsOnLivelock)
{
    // Events keep firing but nothing retires: the queue never drains,
    // so only the sentinel can catch this.
    EXPECT_EXIT(
        {
            Simulation sim;
            auto &pulser = sim.create<Pulser>(
                "pulser", /*progresses=*/false, /*beats=*/1000,
                "spinning without retiring");
            auto &dog = sim.create<ProgressSentinel>(
                "watchdog",
                ProgressSentinel::Config{
                    1000, "", [] { return false; }});
            pulser.start();
            dog.start();
            sim.run();
        },
        ::testing::ExitedWithCode(1),
        "no forward progress.*watchdog.*pulser.*spinning without "
        "retiring");
}

TEST(Watchdog, StaysQuietWhileProgressing)
{
    Simulation sim;
    auto &pulser = sim.create<Pulser>("pulser", /*progresses=*/true,
                                      /*beats=*/50);
    auto &dog = sim.create<ProgressSentinel>(
        "watchdog",
        ProgressSentinel::Config{
            1000, "", [&] { return pulser.beatsDone >= 50; }});
    pulser.start();
    dog.start();
    sim.run();
    EXPECT_EQ(pulser.beatsDone, 50u);
    // The sentinel stopped rescheduling once done() held, so the run
    // actually terminated — reaching this line is the assertion.
}

TEST(Watchdog, RejectsZeroWindow)
{
    EXPECT_EXIT(
        {
            Simulation sim;
            sim.create<ProgressSentinel>(
                "watchdog",
                ProgressSentinel::Config{0, "",
                                         [] { return false; }});
        },
        ::testing::ExitedWithCode(1), "window must be non-zero");
}

TEST(Watchdog, StateDumpIsWellFormedAndNamesSuspects)
{
    Simulation sim;
    auto &stuck = sim.create<Pulser>("stuck_unit", false, 1,
                                     "waiting on a lost response");
    sim.create<Pulser>("healthy_unit", true, 1);
    stuck.beatsDone = 3;

    FaultPlan plan;
    ASSERT_EQ(plan.parse("drop_response@stuck_unit:nth=2"), "");
    FaultInjector injector(plan);
    injector.attach(sim);

    auto doc = parseJson(buildStateDump(sim, "test hang"));
    EXPECT_EQ(doc.at("kind").string, "salam_state_dump");
    EXPECT_EQ(doc.at("reason").string, "test hang");
    ASSERT_TRUE(doc.at("suspects").isArray());
    ASSERT_EQ(doc.at("suspects").array.size(), 1u);
    EXPECT_EQ(doc.at("suspects").array[0].at("object").string,
              "stuck_unit");
    EXPECT_EQ(doc.at("suspects").array[0].at("reason").string,
              "waiting on a lost response");

    // Every object appears with its diagnostics payload.
    bool saw_stuck = false, saw_healthy = false;
    for (const auto &obj : doc.at("objects").array) {
        if (obj.at("name").string == "stuck_unit") {
            saw_stuck = true;
            EXPECT_EQ(obj.at("stuck").string,
                      "waiting on a lost response");
            EXPECT_EQ(obj.at("state").at("beats_done").number, 3.0);
        }
        if (obj.at("name").string == "healthy_unit") {
            saw_healthy = true;
            EXPECT_FALSE(obj.has("stuck"));
        }
    }
    EXPECT_TRUE(saw_stuck);
    EXPECT_TRUE(saw_healthy);

    // The attached injector contributes its plan.
    EXPECT_TRUE(doc.has("injection"));
}

TEST(Watchdog, CollectSuspectsSkipsHealthyObjects)
{
    Simulation sim;
    sim.create<Pulser>("a", true, 1);
    sim.create<Pulser>("b", true, 1, "wedged");
    sim.create<Pulser>("c", true, 1);
    auto suspects = collectSuspects(sim);
    ASSERT_EQ(suspects.size(), 1u);
    EXPECT_EQ(suspects[0].first, "b");
    EXPECT_EQ(suspects[0].second, "wedged");
}

TEST(Watchdog, WriteStateDumpRoundTrips)
{
    Simulation sim;
    sim.create<Pulser>("unit", true, 1);
    // Under the test harness's temp dir, never the source tree.
    std::string path = ::testing::TempDir() +
        "watchdog_test_dump.json";
    ASSERT_TRUE(writeStateDump(path, buildStateDump(sim, "probe")));

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    auto doc = parseJson(ss.str());
    EXPECT_EQ(doc.at("reason").string, "probe");
    std::remove(path.c_str());
}
