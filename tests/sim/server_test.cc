#include "sim/server.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace sbft::sim {
namespace {

TEST(ServerResourceTest, SingleCoreSerializesJobs) {
  Simulator sim;
  ServerResource server(&sim, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    server.Submit(Millis(10), [&]() { completions.push_back(sim.now()); });
  }
  sim.RunToCompletion();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Millis(10));
  EXPECT_EQ(completions[1], Millis(20));
  EXPECT_EQ(completions[2], Millis(30));
}

TEST(ServerResourceTest, MultiCoreRunsInParallel) {
  Simulator sim;
  ServerResource server(&sim, 4);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    server.Submit(Millis(10), [&]() { completions.push_back(sim.now()); });
  }
  sim.RunToCompletion();
  ASSERT_EQ(completions.size(), 4u);
  for (SimTime t : completions) {
    EXPECT_EQ(t, Millis(10));  // All four finish together.
  }
}

TEST(ServerResourceTest, QueueDrainsFifo) {
  Simulator sim;
  ServerResource server(&sim, 2);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    server.Submit(Millis(5), [&order, i]() { order.push_back(i); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ServerResourceTest, SaturationDoublesLatency) {
  // 2 cores, 4 equal jobs: second wave completes at 2x the job cost.
  Simulator sim;
  ServerResource server(&sim, 2);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    server.Submit(Millis(10), [&]() { completions.push_back(sim.now()); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(completions[0], Millis(10));
  EXPECT_EQ(completions[1], Millis(10));
  EXPECT_EQ(completions[2], Millis(20));
  EXPECT_EQ(completions[3], Millis(20));
}

TEST(ServerResourceTest, ZeroCostJobsRunImmediately) {
  Simulator sim;
  ServerResource server(&sim, 1);
  bool done = false;
  server.Submit(0, [&]() { done = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0);
}

TEST(ServerResourceTest, BusyTimeAccumulates) {
  Simulator sim;
  ServerResource server(&sim, 2);
  server.Submit(Millis(10), []() {});
  server.Submit(Millis(15), []() {});
  sim.RunToCompletion();
  EXPECT_EQ(server.busy_time(), Millis(25));
  EXPECT_EQ(server.jobs_completed(), 2u);
}

TEST(ServerResourceTest, QueueDepthObservable) {
  Simulator sim;
  ServerResource server(&sim, 1);
  server.Submit(Millis(10), []() {});
  server.Submit(Millis(10), []() {});
  server.Submit(Millis(10), []() {});
  EXPECT_EQ(server.busy_cores(), 1);
  EXPECT_EQ(server.queue_depth(), 2u);
  sim.RunToCompletion();
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.busy_cores(), 0);
}

TEST(ServerResourceTest, JobsSubmittedFromCompletionRun) {
  Simulator sim;
  ServerResource server(&sim, 1);
  std::vector<SimTime> times;
  server.Submit(Millis(5), [&]() {
    times.push_back(sim.now());
    server.Submit(Millis(5), [&]() { times.push_back(sim.now()); });
  });
  sim.RunToCompletion();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Millis(5));
  EXPECT_EQ(times[1], Millis(10));
}

// --- job coalescing ---

constexpr uint32_t kClass = 7;
constexpr uint32_t kOtherClass = 9;

TEST(ServerResourceTest, QueuedJobsOfOneClassMergeIntoOne) {
  // One core: job A runs; then three class jobs queue. The first of them
  // takes the other two: it costs its own 10 ms plus 4 ms per extra.
  Simulator sim;
  ServerResource server(&sim, 1);
  std::vector<std::pair<int, SimTime>> done;
  server.Submit(Millis(5), [&] { done.emplace_back(0, sim.now()); });
  for (int i = 1; i <= 3; ++i) {
    server.Submit(JobCost(Millis(10), kClass, Millis(4)), [&, i] {
      done.emplace_back(i, sim.now());
      EXPECT_EQ(server.batch_remaining(), static_cast<size_t>(3 - i));
    });
  }
  EXPECT_EQ(server.queue_depth(), 1u);
  sim.RunToCompletion();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], std::make_pair(0, Millis(5)));
  // Callbacks in FIFO order, all at the merged job's completion.
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(done[i], std::make_pair(i, Millis(5 + 10 + 4 + 4)));
  }
  EXPECT_EQ(server.busy_time(), Millis(5 + 18));
  EXPECT_EQ(server.jobs_completed(), 4u);
  EXPECT_EQ(server.jobs_coalesced(), 2u);
}

TEST(ServerResourceTest, OtherClassesKeepFifoOrderAroundAMergedJob) {
  // Queue: C1, U, D1, C2, D2, U2 (C, D two classes, U unclassed). The
  // merged C job holds C1's place and D's holds D1's; the unclassed jobs
  // keep their places.
  Simulator sim;
  ServerResource server(&sim, 1);
  std::vector<std::string> order;
  auto job = [&](std::string name) {
    return [&order, name] { order.push_back(name); };
  };
  server.Submit(Millis(1), job("running"));
  server.Submit(JobCost(Millis(2), kClass, Millis(1)), job("C1"));
  server.Submit(Millis(2), job("U1"));
  server.Submit(JobCost(Millis(2), kOtherClass, Millis(1)), job("D1"));
  server.Submit(JobCost(Millis(2), kClass, Millis(1)), job("C2"));
  server.Submit(JobCost(Millis(2), kOtherClass, Millis(1)), job("D2"));
  server.Submit(Millis(2), job("U2"));
  EXPECT_EQ(server.queue_depth(), 4u);
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<std::string>{"running", "C1", "C2", "U1",
                                             "D1", "D2", "U2"}));
  EXPECT_EQ(sim.now(), Millis(1 + 3 + 2 + 3 + 2));
}

TEST(ServerResourceTest, StartedJobTakesNoNewMembers) {
  // A class job that found a free core runs alone; a class job arriving
  // while it runs queues as the next merged job's first member.
  Simulator sim;
  ServerResource server(&sim, 1);
  std::vector<SimTime> times;
  server.Submit(JobCost(Millis(10), kClass, Millis(1)),
                [&] { times.push_back(sim.now()); });
  sim.RunUntil(Millis(3));
  server.Submit(JobCost(Millis(10), kClass, Millis(1)),
                [&] { times.push_back(sim.now()); });
  sim.RunToCompletion();
  EXPECT_EQ(times, (std::vector<SimTime>{Millis(10), Millis(20)}));
  EXPECT_EQ(server.jobs_coalesced(), 0u);
}

TEST(ServerResourceTest, LoneClassJobMatchesAnUnclassedJob) {
  // The same submissions with and without a class on job 3: it waits in
  // a queue but never next to another job of its class, so every
  // completion time is identical.
  auto run = [](bool classed) {
    Simulator sim;
    ServerResource server(&sim, 1);
    std::vector<SimTime> times;
    for (int i = 0; i < 6; ++i) {
      JobCost cost = classed && i == 3
                         ? JobCost(Millis(3), kClass, Millis(1))
                         : JobCost(Millis(3));
      server.Submit(cost, [&] { times.push_back(sim.now()); });
      sim.RunUntil(sim.now() + Millis(2));
    }
    sim.RunToCompletion();
    EXPECT_EQ(server.jobs_coalesced(), 0u);
    return std::make_pair(times, server.busy_time());
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace sbft::sim
