#ifndef SBFT_SIM_SERVER_H_
#define SBFT_SIM_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "sim/simulator.h"

namespace sbft::sim {

/// CPU charge of one job and how it coalesces with queued jobs of the
/// same class. A bare duration converts to a job that never coalesces.
struct JobCost {
  JobCost(SimDuration cost = 0) : cost(cost) {}  // NOLINT(runtime/explicit)
  JobCost(SimDuration cost, uint32_t job_class, SimDuration extra_cost)
      : cost(cost), job_class(job_class), extra_cost(extra_cost) {}

  /// Charge of the job when it runs alone (or first in a merged job).
  SimDuration cost = 0;
  /// Coalescing class; 0 never coalesces.
  uint32_t job_class = 0;
  /// What the job adds to a merged job it joins after the first member.
  SimDuration extra_cost = 0;
};

/// \brief Multi-core CPU model for one machine.
///
/// Jobs (message handling, crypto, execution) occupy one core for their
/// cost and complete in FIFO order; when all cores are busy jobs queue.
/// This is what produces the saturation and latency-knee behaviour of the
/// paper's throughput curves, and what the "computing power" experiment
/// (Fig. 6(ix,x)) varies.
///
/// Jobs of a nonzero class coalesce: while one of them waits for a core,
/// every later job of its class joins it instead of queueing on its own.
/// The merged job starts at the first member's place in the queue, costs
/// the first member's `cost` plus each other member's `extra_cost`, and
/// runs the members' callbacks in FIFO order when it completes. A job
/// that finds a free core, or no queued job of its class, runs exactly as
/// an unclassed job would.
class ServerResource {
 public:
  using Done = std::function<void()>;

  /// `cores` parallel lanes on `sim`'s clock.
  ServerResource(Simulator* sim, int cores);

  /// Enqueues a job; `done` runs at completion.
  void Submit(JobCost cost, Done done);

  /// Inside a completion callback: how many callbacks of the same merged
  /// job still run after this one (0 for the last one and for a lone job).
  size_t batch_remaining() const { return batch_remaining_; }

  /// Jobs waiting for a core right now (a merged job counts once).
  size_t queue_depth() const { return pending_.size(); }

  /// Cores currently busy.
  int busy_cores() const { return busy_; }

  int cores() const { return cores_; }

  /// Total CPU time consumed (for utilization/cost accounting).
  SimDuration busy_time() const { return busy_time_; }

  /// Jobs completed (each member of a merged job counts).
  uint64_t jobs_completed() const { return completed_; }

  /// Jobs that ran as a non-first member of a merged job.
  uint64_t jobs_coalesced() const { return coalesced_; }

 private:
  struct Job {
    SimDuration cost = 0;
    uint32_t job_class = 0;
    Done done;
    /// Callbacks of the members that joined after the first.
    std::vector<Done> joined;
  };

  void StartJob(Job job);
  void FinishJob();

  Simulator* sim_;
  int cores_;
  int busy_ = 0;
  SimDuration busy_time_ = 0;
  uint64_t completed_ = 0;
  uint64_t coalesced_ = 0;
  size_t batch_remaining_ = 0;
  /// std::deque keeps references to queued jobs valid across push_back
  /// and pop_front, so open_ can point into it.
  std::deque<Job> pending_;
  /// The queued (not yet started) job of each class that later jobs of
  /// the class join; at most one per class.
  std::vector<std::pair<uint32_t, Job*>> open_;
};

}  // namespace sbft::sim

#endif  // SBFT_SIM_SERVER_H_
