// Coordinator failover timeline (beyond the paper): goodput and p99
// latency in 500 ms windows across an injected coordinator crash at
// t=2s (recovery at t=4s), a group of one (R=1) versus a three-member
// coordinator group (DESIGN.md §10). The group of one stalls every
// cross-shard transaction for the full outage — held prepare locks
// bleed into single-shard latency too — while the group's standby
// takes over within the failover timeout and post-crash goodput stays
// within a few percent of the undisturbed run.

#include "bench_util.h"
#include "faults/controller.h"
#include "faults/schedule.h"

namespace {

using namespace sbft;

core::SystemConfig FailoverConfig(uint32_t replicas) {
  core::SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.n_e = 3;
  config.f_e = 1;
  config.num_clients = 16;
  config.workload.record_count = 2000;
  config.workload.cross_shard_percentage = 10.0;
  config.coordinator_vote_timeout = Millis(600);
  config.coordinator_replicas = replicas;
  config.coordinator_heartbeat = Millis(100);
  config.coordinator_failover_timeout = Millis(400);
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 2023;
  return config;
}

struct TimelinePoint {
  double goodput_tps = 0;
  double p99_ms = 0;
};

constexpr double kWindowS = 0.5;
constexpr int kWindows = 12;  // [0, 6s).

/// Runs one configuration under `schedule_text` and samples goodput/p99
/// per 500 ms window. `total` receives the run's completed count.
std::vector<TimelinePoint> RunTimeline(const core::SystemConfig& config,
                                       const char* schedule_text,
                                       uint64_t* total) {
  core::Architecture arch(config);
  faults::FaultController controller(&arch);
  if (schedule_text != nullptr) {
    auto schedule = faults::FaultSchedule::Parse(schedule_text);
    if (!schedule.ok() || !controller.Install(*schedule).ok()) {
      std::fprintf(stderr, "bad fault schedule\n");
      std::exit(1);
    }
  }
  arch.Start();
  arch.SetRecording(true);
  std::vector<TimelinePoint> points;
  uint64_t completed_prev = 0;
  for (int w = 0; w < kWindows; ++w) {
    arch.ResetLatency();
    arch.simulator()->RunUntil(
        static_cast<SimTime>(Seconds(kWindowS) * (w + 1)));
    TimelinePoint p;
    uint64_t completed_now = arch.TotalCompleted();
    p.goodput_tps =
        static_cast<double>(completed_now - completed_prev) / kWindowS;
    completed_prev = completed_now;
    p.p99_ms = static_cast<double>(arch.MergedLatency().p99()) /
               static_cast<double>(kMillisecond);
    points.push_back(p);
  }
  if (total != nullptr) *total = completed_prev;
  return points;
}

}  // namespace

int main() {
  bench::Banner(
      "Coordinator failover timeline",
      "what does a coordinator crash cost, R=1 vs replicated?",
      "beyond the paper: a group of one is the last single point "
      "of failure in the sharded deployment; a 3-member CFT group over "
      "the decision log should make its crash a sub-second blip instead "
      "of a multi-second outage");

  const char* kCrashAlone =
      "at 2s crash coordinator\n"
      "at 4s recover coordinator\n";
  const char* kCrashLeader =
      "at 2s crash coordinator leader\n"
      "at 4s recover coordinator 0\n";

  uint64_t alone_total = 0;
  uint64_t group_total = 0;
  uint64_t nocrash_total = 0;
  std::vector<TimelinePoint> alone =
      RunTimeline(FailoverConfig(1), kCrashAlone, &alone_total);
  std::vector<TimelinePoint> group =
      RunTimeline(FailoverConfig(3), kCrashLeader, &group_total);
  std::vector<TimelinePoint> nocrash =
      RunTimeline(FailoverConfig(3), nullptr, &nocrash_total);

  std::printf("\ncrash at 2.0s, recovery at 4.0s; 500 ms windows\n");
  std::printf("%-12s %20s %12s %14s %12s %14s %12s\n", "window",
              "R=1 (group of one)", "p99(ms)", "group(t/s)", "p99(ms)",
              "no-crash(t/s)", "p99(ms)");
  for (int w = 0; w < kWindows; ++w) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f-%.1fs", w * kWindowS,
                  (w + 1) * kWindowS);
    std::printf("%-12s %20.0f %12.1f %14.0f %12.1f %14.0f %12.1f\n", label,
                alone[w].goodput_tps, alone[w].p99_ms,
                group[w].goodput_tps, group[w].p99_ms,
                nocrash[w].goodput_tps, nocrash[w].p99_ms);
  }

  // Post-crash steady state: windows [2.5s, 4.0s) — after the failover
  // timeout, before the group of one recovers.
  auto window_avg = [](const std::vector<TimelinePoint>& t, int lo, int hi) {
    double sum = 0;
    for (int w = lo; w < hi; ++w) sum += t[w].goodput_tps;
    return sum / (hi - lo);
  };
  double alone_post = window_avg(alone, 5, 8);
  double group_post = window_avg(group, 5, 8);
  double nocrash_post = window_avg(nocrash, 5, 8);
  std::printf("\npost-crash goodput [2.5s, 4.0s): R=1=%.0f t/s, "
              "replicated=%.0f t/s, no-crash=%.0f t/s\n",
              alone_post, group_post, nocrash_post);
  std::printf("replicated retains %.0f%% of no-crash goodput; R=1 "
              "retains %.0f%%\n",
              nocrash_post > 0 ? 100.0 * group_post / nocrash_post : 0.0,
              nocrash_post > 0 ? 100.0 * alone_post / nocrash_post : 0.0);
  std::printf("run totals over 6s: R=1=%llu, replicated=%llu, "
              "no-crash=%llu completed\n",
              static_cast<unsigned long long>(alone_total),
              static_cast<unsigned long long>(group_total),
              static_cast<unsigned long long>(nocrash_total));
  return 0;
}
