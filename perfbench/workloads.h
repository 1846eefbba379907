#ifndef SBFT_PERFBENCH_WORKLOADS_H_
#define SBFT_PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads (README.md gives the reasons). Every
// offered rate is a fixed number, so two commits get identical inputs
// for a seed.

#include <string>

#include "harness.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// The nominal point: goodput, latency, cost and engine speed.
  PointSpec (*nominal)(uint64_t seed, int sim_threads);
  /// The stress point past the knee (overload_goodput_tps / _p99_ms).
  PointSpec (*stress)(uint64_t seed);
  /// One open-loop knee probe at `rate` offered t/s.
  PointSpec (*knee_probe)(uint64_t seed, double rate);
  /// knee_tps is the highest offered rate whose probe meets both caps,
  /// found by bisection of [knee_lo, knee_hi] in knee_steps steps.
  double knee_p99_ms = 100;
  double knee_fail_frac = 0.01;
  double knee_lo = 0;
  double knee_hi = 0;
  int knee_steps = 0;
  /// Derived seeds per knee probe; a probe is judged on their medians.
  int knee_reps = 1;
  /// When the first fault strikes (0 = fault-free); the traced run's
  /// outage metrics count stalls from here on.
  SimTime first_fault = 0;
  /// Whether the traced run times the nominal point on the parallel
  /// engine too (sim.parallel_speedup). The plain runs are serial.
  bool parallel = false;
  /// Nominal runs with derived seeds; simulated metrics are their median.
  int sim_reps = 1;
  /// Stress runs with derived seeds (medians).
  int stress_reps = 1;
  /// Architectures built for setup_s (median).
  int setup_reps = 3;
};

/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// The `i`-th derived seed of `seed` (distinct across seeds and i).
uint64_t DerivedSeed(uint64_t seed, int i);

}  // namespace perfbench

#endif  // SBFT_PERFBENCH_WORKLOADS_H_
