// Shard-count sweep (beyond the paper): throughput scaling of the
// sharded data plane at 1/2/4/8 planes — the multi-pipeline scaling the
// PR-4 refactor unlocked, finally measured. Every plane is a full shim
// cluster + verifier + executor pool, so with the offered load saturating
// a single plane, ideal scaling is linear in planes until the
// coordinator's 2PC round-trips start taxing the commit path.
//
// The cross-shard knob is kept *controlled* (> 0): at 0 the generator
// falls back to natural hash collisions, which at two uniform keys over
// k shards puts ~(1-1/k) of all transactions through the coordinator —
// a coordinator-saturation test, not a scaling sweep.

#include "bench_util.h"

int main() {
  using namespace sbft;
  bench::Banner(
      "Shard-count sweep", "does the sharded data plane scale?",
      "beyond the paper's single-plane setup: near-linear throughput in "
      "plane count at 1% cross-shard; a 10% 2PC fraction pays the "
      "coordinator round-trips but keeps scaling");

  const uint32_t shard_counts[] = {1, 2, 4, 8};

  for (double cross_pct : {1.0, 10.0}) {
    std::printf("\n--- %.0f%% cross-shard transactions ---\n", cross_pct);
    bench::PrintHeader("shards");
    for (uint32_t shards : shard_counts) {
      core::SystemConfig config = bench::BaseConfig();
      // Deliberately small planes (4-node shims, lean cores) so the
      // fixed client pool saturates every plane count and the sweep
      // measures plane parallelism instead of offered load.
      config.shim.n = 4;
      config.shim.batch_size = 50;
      config.shim_cores = 4;
      config.verifier_cores = 1;
      config.coordinator_cores = 1;
      config.num_clients = 8000;
      config.shard_count = shards;
      config.workload.cross_shard_percentage = cross_pct;
      core::RunReport report = bench::Run(config, 0.5, 1.5);
      char label[32];
      std::snprintf(label, sizeof(label), "%u", shards);
      bench::PrintRow(label, report);
    }
  }
  return 0;
}
