// Per-batch state is reclaimed when the verifier settles it (DESIGN.md
// §14): the spawner's EXECUTE payloads and the executors' key material
// stay within an in-flight bound, so doubling the run length doubles the
// work done but not the state held.

#include <gtest/gtest.h>

#include "core/architecture.h"

namespace sbft::core {
namespace {

constexpr uint32_t kPlanes = 2;

SystemConfig TwoPlaneOpenLoop() {
  SystemConfig config;
  config.shard_count = kPlanes;
  config.shim.n = 4;
  config.shim.batch_size = 4;
  config.shim.checkpoint_interval = 8;
  config.shim.pipeline_width = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.workload.record_count = 2000;
  // Cross-shard fragments settle before their 2PC decision lands, the
  // case that keeps a sequence's payload alive past settlement.
  config.workload.cross_shard_percentage = 33;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 5;
  config.traffic.open_loop = true;
  config.traffic.sources = 2;
  config.traffic.offered_tps = 2000;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;
  config.traffic.max_inflight = 2000;
  return config;
}

struct HeldState {
  size_t retained_work = 0;
  size_t executor_keys = 0;
  uint64_t completed = 0;
  uint64_t batches = 0;
};

HeldState RunFor(SimDuration duration) {
  Architecture arch(TwoPlaneOpenLoop());
  // Everything registered before the run is a static actor; whatever the
  // registry holds beyond that afterwards belongs to executors.
  size_t static_keys = arch.keys()->size();
  arch.Start();
  arch.simulator()->RunUntil(duration);
  HeldState held;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    held.retained_work += arch.plane(s)->spawner()->retained_work();
    held.batches += arch.plane(s)->spawner()->batches_spawned();
  }
  held.executor_keys = arch.keys()->size() - static_keys;
  held.completed = arch.TotalCompleted();
  return held;
}

TEST(BoundedStateTest, SpawnerWorkAndExecutorKeysDoNotGrowWithRunLength) {
  const SystemConfig config = TwoPlaneOpenLoop();
  // Held per plane: the sequences between commit and their last answer
  // (executor start, verification, a 2PC decision for fragments) — about
  // 250 batches/s times ~100 ms here. The bound allows a few pipelines of
  // them, with n_E executors each; keeping every batch would hold about
  // ten times as many by 2 s.
  const size_t work_bound = 4 * config.shim.pipeline_width * kPlanes;
  const size_t key_bound = work_bound * config.n_e;

  HeldState t1 = RunFor(Seconds(1));
  HeldState t2 = RunFor(Seconds(2));

  // The longer run really did about twice the work...
  ASSERT_GT(t1.completed, 1000u);
  EXPECT_GT(t2.completed, t1.completed * 3 / 2);
  EXPECT_GT(t2.batches, work_bound * 4);
  // ...while the per-batch state stayed within the in-flight bound.
  EXPECT_LE(t1.retained_work, work_bound);
  EXPECT_LE(t2.retained_work, work_bound);
  EXPECT_LE(t1.executor_keys, key_bound);
  EXPECT_LE(t2.executor_keys, key_bound);
}

}  // namespace
}  // namespace sbft::core
