#ifndef SBFT_PERFBENCH_HARNESS_H_
#define SBFT_PERFBENCH_HARNESS_H_

// Drives one simulated point of a workload from the outside: builds the
// architecture (plus a fault controller when the workload has faults),
// runs a warmup and a fixed measurement window, and reports the window's
// end-to-end numbers and the correctness checks. Only public entry points
// of the library are used; nothing here changes the event stream.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/serverless_bft.h"
#include "faults/controller.h"

namespace perfbench {

using sbft::SimDuration;
using sbft::SimTime;

/// One workload point: the system configuration, an optional fault
/// schedule, and the simulated warmup / measurement windows.
struct PointSpec {
  sbft::core::SystemConfig config;
  std::string faults;  ///< FaultSchedule text; empty = fault-free.
  SimDuration warmup = 0;
  SimDuration window = 0;
};

/// Wall-clock seconds from a monotonic clock.
double WallNow();

/// Exact end-to-end latency samples, in simulated nanoseconds.
///
/// The clients and sources record each committed transaction's latency
/// (arrival to answer) into the Histogram their resolver hands out. The
/// tap hands out one scratch histogram and reads the single value back
/// on the next call, so percentiles come from exact values instead of
/// the log buckets' 4.5% steps.
class LatencyTap {
 public:
  void Attach(sbft::core::Architecture* arch);
  /// The samples recorded so far (flushes the pending one).
  const std::vector<int64_t>& samples();

 private:
  sbft::Histogram* Take();
  void Flush();

  sbft::Histogram scratch_;
  std::vector<int64_t> samples_;
};

/// Value at quantile q in [0, 1] of `v` (nearest rank; reorders `v`).
double Quantile(std::vector<int64_t>* v, double q);

/// Cumulative counters the window deltas and the equality checks use.
struct Counters {
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t dropped = 0;
  uint64_t retransmissions = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t events = 0;
  uint64_t cross_loop = 0;
  uint64_t applied = 0;  ///< Txns applied, summed over the planes' verifiers.
  double lambda_cents = 0;

  static Counters Read(sbft::core::Architecture* arch);
  /// True when every simulated count matches (the determinism check).
  bool SameSimulation(const Counters& o) const;
};

/// Sum of the planes' and the global loop's executed events.
uint64_t EventsExecuted(sbft::core::Architecture* arch);

/// Decisions served by the whole coordinator tier (0 without one).
uint64_t CoordinatorDecided(sbft::core::Architecture* arch);

/// What one measured point produced.
struct PointResult {
  Counters start;  ///< At the start of the window.
  Counters end;    ///< At the end of the window.

  // Simulated, over the window.
  double goodput_tps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t latency_samples = 0;
  /// (aborted + dropped) / (completed + aborted + dropped).
  double fail_frac = 0;
  double cents_per_ktxn = 0;
  /// Longest stall, only when polled (see RunOptions::poll): of any
  /// plane's applied count, and of the coordinator tier's decisions.
  double plane_outage_ms = 0;
  double coord_outage_ms = 0;

  // Host.
  double setup_s = 0;
  double window_wall_s = 0;

  /// Failed correctness checks, one line each (empty = all passed).
  std::vector<std::string> failures;
};

/// How to drive the window.
struct RunOptions {
  /// Poll the applied / decided counters every 1 ms of simulated time
  /// from `outage_from` on, and report their longest stalls.
  bool poll = false;
  SimTime outage_from = 0;
  /// Called once before the window starts (the traced run installs its
  /// delivery observer here) and once after it ends.
  std::function<void(sbft::core::Architecture*)> on_window_start;
  std::function<void(sbft::core::Architecture*)> on_window_end;
};

/// A built, started architecture with its fault controller and tap.
class Session {
 public:
  /// Builds and starts the point's architecture; setup_s() is the wall
  /// time of construction, store load, fault installation and Start.
  explicit Session(const PointSpec& spec);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  double setup_s() const { return setup_s_; }
  sbft::core::Architecture* arch() { return arch_.get(); }

  /// Runs warmup and window and measures the window.
  PointResult Run(const RunOptions& options = {});

 private:
  PointSpec spec_;
  std::unique_ptr<sbft::core::Architecture> arch_;
  std::unique_ptr<sbft::faults::FaultController> faults_;
  LatencyTap tap_;
  double setup_s_ = 0;
  std::vector<std::string> setup_failures_;
};

/// Appends a line per failed end-of-run check: broken audit chains,
/// rejected vote certificates or decisions, and (open loop) offered !=
/// completed + aborted + dropped + in-flight.
void CheckInvariants(sbft::core::Architecture* arch,
                     std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // SBFT_PERFBENCH_HARNESS_H_
