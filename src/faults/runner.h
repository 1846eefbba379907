#ifndef SBFT_FAULTS_RUNNER_H_
#define SBFT_FAULTS_RUNNER_H_

#include <string>

#include "common/result.h"
#include "faults/scenario.h"

namespace sbft::faults {

/// \brief Outcome of one scenario run.
///
/// `commit_digest` is the hex head of the verifier's hash-chained audit
/// log — it commits to every applied/aborted sequence in order, so two
/// runs with the same (scenario, seed) must produce byte-identical
/// digests. That is the replayability contract the chaos runner enforces.
struct ScenarioReport {
  std::string scenario;
  uint64_t seed = 0;
  std::string commit_digest;
  bool audit_chain_ok = false;

  uint64_t audit_entries = 0;
  uint64_t completed_txns = 0;
  uint64_t aborted_txns = 0;
  uint64_t view_changes = 0;
  uint64_t client_retransmissions = 0;
  uint64_t executors_spawned = 0;
  uint64_t executors_killed = 0;
  uint64_t messages_dropped = 0;
  uint64_t fault_events_applied = 0;
  /// Per-batch state held at the end of the run (DESIGN.md §14): EXECUTE
  /// payloads kept for respawns, summed over planes, and actors holding
  /// key material. Both are bounded by in-flight work, not run length.
  uint64_t retained_work = 0;
  uint64_t registry_keys = 0;

  double latency_p50_ms = 0;
  double latency_p99_ms = 0;

  /// One-line rendering for the scenario_runner table.
  std::string OneLine() const;
};

/// Builds the architecture, installs the scenario's fault schedule, runs
/// to the scenario duration, and reports. InvalidArgument on a malformed
/// schedule.
Result<ScenarioReport> RunScenario(const Scenario& scenario);

}  // namespace sbft::faults

#endif  // SBFT_FAULTS_RUNNER_H_
