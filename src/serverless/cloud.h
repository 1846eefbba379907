#ifndef SBFT_SERVERLESS_CLOUD_H_
#define SBFT_SERVERLESS_CLOUD_H_

#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serverless/billing.h"
#include "serverless/executor.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/region.h"
#include "sim/simulator.h"

namespace sbft::serverless {

/// Static parameters of the simulated serverless provider.
struct CloudConfig {
  /// Container cold-start latency (no warm instance available).
  SimDuration cold_start = Millis(120);
  /// Warm-start latency (reused container).
  SimDuration warm_start = Millis(12);
  /// Warm container pool per region; spawns beyond it cold-start.
  int warm_pool_per_region = 64;
  /// Account-level concurrent execution limit — the knob behind the
  /// paper's "could not scale further due to limits by cloud provider"
  /// remark (§I).
  int max_concurrent = 1000;
  /// Executor instance shape.
  int executor_cores = 2;
  double executor_memory_gb = 1.0;
  /// CPU cost model of the function body.
  ExecutorCostModel costs;
};

/// \brief Simulated multi-region serverless provider (AWS-Lambda stand-in,
/// DESIGN.md §1).
///
/// Spawning allocates a fresh ExecutorFunction actor in the requested
/// region after the cold/warm start latency, subject to the account
/// concurrency limit; every invocation is billed to the CostMeter.
/// Executors are single-use: they unregister and free their slot when the
/// function body finishes (stateless executors, §IV-C remark).
class CloudSimulator {
 public:
  CloudSimulator(sim::Simulator* sim, sim::Network* net,
                 crypto::KeyRegistry* keys, CloudConfig config,
                 ActorId first_executor_id);

  ~CloudSimulator();

  /// Spawns one executor in `region` to process `work`.
  ///
  /// Returns the new executor's id, or kInvalidActor when the account
  /// concurrency limit rejects the spawn (throttling). `behavior` injects
  /// byzantine executors; `shim_quorum` is the 2f_R+1 the executor
  /// demands of the certificate.
  ActorId Spawn(sim::RegionId region,
                std::shared_ptr<const shim::ExecuteMsg> work,
                ActorId verifier, ActorId storage, uint32_t shim_quorum,
                ExecutorBehavior behavior = ExecutorBehavior::kHonest);

  // --- fault-injection hooks (src/faults/) ---

  /// Crash-stops every live executor: the instances go silent (no VERIFY,
  /// no further work) and their concurrency slots are released. Returns
  /// the number of executors killed. Recovery happens through the
  /// verifier's ERROR(kmax)/respawn path, never through the dead set.
  size_t KillAllExecutors();

  /// While suspended every Spawn request is rejected as throttled — the
  /// fault engine's model of provider-side capacity exhaustion (executor
  /// starvation). The spawner's retry/backoff loop recovers on resume.
  void SetSpawnsSuspended(bool suspended) { spawns_suspended_ = suspended; }
  bool spawns_suspended() const { return spawns_suspended_; }

  /// Adds a fixed extra start latency to every subsequent spawn
  /// (straggler injection). Pass 0 to clear.
  void SetExtraStartLatency(SimDuration extra) {
    extra_start_latency_ = extra < 0 ? 0 : extra;
  }

  /// The plane verifier's k_max. A VERIFY for a sequence below it is
  /// dropped before its signature is checked, so an executor that has
  /// stopped signing (finished or killed) and whose sequence is below it
  /// gives its keys back to the registry. Unset, keys are kept.
  void SetSettledCursor(std::function<SeqNum()> kmax) {
    settled_cursor_ = std::move(kmax);
  }

  uint64_t executors_killed() const { return executors_killed_; }

  /// Total spawn API calls (accepted + throttled).
  uint64_t spawn_requests() const { return spawn_requests_; }
  uint64_t spawns_accepted() const { return spawns_accepted_; }
  uint64_t spawns_throttled() const { return spawns_throttled_; }
  uint64_t cold_starts() const { return cold_starts_; }
  int active_executors() const { return active_; }

  CostMeter* cost_meter() { return &costs_; }
  const CloudConfig& config() const { return config_; }

 private:
  struct Instance {
    std::unique_ptr<ExecutorFunction> function;
    std::unique_ptr<sim::ServerResource> cpu;
    sim::RegionId region;
    SeqNum seq = 0;
    SimTime started_at;
    bool killed = false;  // Crash-stopped by the fault engine.
  };

  void OnExecutorDone(ActorId id);
  /// Queues a silent executor's keys and unregisters every queued one
  /// whose sequence is below the settled cursor.
  void RetireKeys(SeqNum seq, ActorId id);

  sim::Simulator* sim_;
  sim::Network* net_;
  crypto::KeyRegistry* keys_;
  CloudConfig config_;
  CostMeter costs_;
  ActorId next_executor_id_;

  std::unordered_map<ActorId, Instance> instances_;
  std::unordered_map<sim::RegionId, int> warm_available_;
  std::function<SeqNum()> settled_cursor_;
  /// Silent executors whose sequence is not yet settled, lowest first.
  std::priority_queue<std::pair<SeqNum, ActorId>,
                      std::vector<std::pair<SeqNum, ActorId>>,
                      std::greater<>>
      unsettled_keys_;
  int active_ = 0;
  bool spawns_suspended_ = false;
  SimDuration extra_start_latency_ = 0;
  uint64_t spawn_requests_ = 0;
  uint64_t spawns_accepted_ = 0;
  uint64_t spawns_throttled_ = 0;
  uint64_t cold_starts_ = 0;
  uint64_t executors_killed_ = 0;
};

}  // namespace sbft::serverless

#endif  // SBFT_SERVERLESS_CLOUD_H_
