// Client-request coalescing (DESIGN.md §13): client requests that queue
// behind a busy CPU — at the 2PC coordinator or at a BFT shim replica —
// merge into one job that batch-verifies their signatures. A forged
// request inside a batch must reject only itself, a crashed replica must
// ignore its merged jobs, overload runs must stay atomic and conserve
// every offered transaction, and the merged jobs must not depend on the
// parallel engine's thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/serverless_bft.h"
#include "shim/linear_replica.h"
#include "shim/pbft_replica.h"
#include "storage/shard_router.h"

namespace sbft::core {
namespace {

struct SinkActor : sim::Actor {
  explicit SinkActor(ActorId id) : Actor(id, "sink") {}
  void OnMessage(const sim::Envelope& env) override {
    const auto* req = shim::MessageAs<shim::ClientRequestMsg>(
        env, shim::MsgKind::kClientRequest);
    if (req != nullptr) fragments_of.insert(req->txn.global_id);
  }
  std::set<TxnId> fragments_of;
};

/// One coordinator on a 1-core CPU whose client requests cost 1 ms (plus
/// 0.5 ms per extra member of a merged job), in front of two sink
/// "shard primaries". Five cross-shard requests arrive together: the
/// first runs alone, the other four merge; request `forged` carries a
/// signature made with the wrong key.
void RunForgedRequestInBatch(crypto::CryptoMode mode) {
  constexpr ActorId kCoordinator = 900;
  constexpr ActorId kClient = 5000;
  constexpr ActorId kPrimary[2] = {1, 2};
  constexpr size_t kRequests = 5;
  constexpr size_t kForged = 3;

  sim::Simulator sim(3);
  sim::NetworkConfig net_config;
  net_config.jitter_max = 0;  // All five requests arrive together.
  sim::Network net(&sim, sim::RegionTable::Aws11(), net_config);
  crypto::KeyRegistry keys(mode, 11);
  for (ActorId id : {kCoordinator, kClient, kPrimary[0], kPrimary[1]}) {
    keys.RegisterNode(id);
  }
  storage::ShardRouter router(2);
  TxnCoordinator coordinator(
      kCoordinator, &router, {11, 12},
      [&](uint32_t shard) { return kPrimary[shard]; }, &keys, &sim, &net,
      CoordinatorOptions{});
  SinkActor client(kClient);
  SinkActor primary0(kPrimary[0]);
  SinkActor primary1(kPrimary[1]);
  for (sim::Actor* actor :
       std::vector<sim::Actor*>{&coordinator, &client, &primary0, &primary1}) {
    net.Register(actor, sim::RegionTable::kHomeRegion);
  }
  sim::ServerResource cpu(&sim, 1);
  net.AttachServer(kCoordinator, &cpu, [](const sim::Envelope& env) {
    const auto* msg = static_cast<const shim::Message*>(env.message.get());
    if (msg->kind != shim::MsgKind::kClientRequest) {
      return sim::JobCost(Micros(10));
    }
    return sim::JobCost(Millis(1), shim::kClientRequestJobClass,
                        Micros(500));
  });

  // One key on each shard makes every request cross-shard.
  std::string key_on[2];
  for (int i = 0; key_on[0].empty() || key_on[1].empty(); ++i) {
    std::string key = "user" + std::to_string(i);
    key_on[router.ShardOf(key)] = key;
  }
  for (size_t i = 0; i < kRequests; ++i) {
    auto request = std::make_shared<shim::ClientRequestMsg>(kClient);
    request->txn.id = 100 + i;
    request->txn.client = kClient;
    for (const std::string& key : key_on) {
      workload::Operation op;
      op.type = workload::OpType::kWrite;
      op.key = key;
      op.value = ToBytes("v");
      request->txn.ops.push_back(op);
    }
    // The forgery is a well-formed signature by another key holder.
    ActorId signer = i == kForged ? kCoordinator : kClient;
    request->client_sig = keys.Sign(
        signer, shim::ClientRequestMsg::SigningBytes(request->txn));
    net.Send(kClient, kCoordinator, request, request->WireSize());
  }
  sim.RunUntil(Seconds(0.5));

  EXPECT_EQ(cpu.jobs_coalesced(), kRequests - 2);
  EXPECT_EQ(coordinator.txns_coordinated(), kRequests - 1);
  std::set<TxnId> launched;
  for (size_t i = 0; i < kRequests; ++i) {
    if (i != kForged) launched.insert(100 + i);
  }
  EXPECT_EQ(primary0.fragments_of, launched);
  EXPECT_EQ(primary1.fragments_of, launched);
}

TEST(RequestCoalescingTest, ForgedSignatureRejectsOnlyItselfFast) {
  RunForgedRequestInBatch(crypto::CryptoMode::kFast);
}

TEST(RequestCoalescingTest, ForgedSignatureRejectsOnlyItselfReal) {
  RunForgedRequestInBatch(crypto::CryptoMode::kReal);
}

/// Four shim replicas of type `Replica` (PbftReplica or
/// LinearBftReplica), each on a 1-core CPU whose client requests cost
/// 1 ms (plus 0.5 ms per extra member of a merged job). Node 0 is the
/// primary of view 0 and, for the linear shim, the vote collector.
template <typename Replica>
class ShimRig {
 public:
  static constexpr ActorId kClient = 500;
  static constexpr uint32_t kNodes = 4;

  explicit ShimRig(crypto::CryptoMode mode) : keys_(mode, 21) {
    sim::NetworkConfig net_config;
    net_config.jitter_max = 0;  // Requests sent together arrive together.
    net_ = std::make_unique<sim::Network>(&sim_, sim::RegionTable::Aws11(),
                                          net_config);
    shim::ShimConfig config;
    config.n = kNodes;
    config.batch_size = 4;
    config.batch_timeout = Millis(20);
    config.checkpoint_interval = 8;
    std::vector<ActorId> ids;
    for (uint32_t i = 0; i < kNodes; ++i) {
      ids.push_back(i + 1);
      keys_.RegisterNode(i + 1);
    }
    keys_.RegisterNode(kClient);
    committed_.resize(kNodes);
    for (uint32_t i = 0; i < kNodes; ++i) {
      replicas_.push_back(std::make_unique<Replica>(
          ids[i], i, config, ids, &keys_, &sim_, net_.get()));
      replicas_[i]->SetCommitCallback(
          [this, i](SeqNum, ViewNum, const workload::BatchPtr& batch,
                    const crypto::CommitCertificate&) {
            for (const auto& txn : batch->txns) committed_[i].insert(txn.id);
          });
      net_->Register(replicas_[i].get(), sim::RegionTable::kHomeRegion);
      cpus_.push_back(std::make_unique<sim::ServerResource>(&sim_, 1));
      net_->AttachServer(ids[i], cpus_[i].get(), [](const sim::Envelope& env) {
        const auto* msg =
            static_cast<const shim::Message*>(env.message.get());
        if (msg->kind != shim::MsgKind::kClientRequest) {
          return sim::JobCost(Micros(10));
        }
        return sim::JobCost(Millis(1), shim::kClientRequestJobClass,
                            Micros(500));
      });
    }
    net_->Register(&client_sink_, sim::RegionTable::kHomeRegion);
  }

  /// Sends transaction `id` to the primary, signed by `signer` (the
  /// client itself unless forged).
  void Send(TxnId id, ActorId signer = kClient) {
    auto request = std::make_shared<shim::ClientRequestMsg>(kClient);
    request->txn.id = id;
    request->txn.client = kClient;
    workload::Operation op;
    op.type = workload::OpType::kWrite;
    op.key = "user" + std::to_string(id);
    op.value = ToBytes("v");
    request->txn.ops.push_back(op);
    request->client_sig = keys_.Sign(
        signer, shim::ClientRequestMsg::SigningBytes(request->txn));
    net_->Send(kClient, 1, request, request->WireSize());
  }

  sim::Simulator sim_{7};
  std::unique_ptr<sim::Network> net_;
  crypto::KeyRegistry keys_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<sim::ServerResource>> cpus_;
  std::vector<std::set<TxnId>> committed_;
  SinkActor client_sink_{kClient};
};

/// Five requests reach the primary together: the first runs alone, the
/// other four merge, and request 3 carries a signature made with another
/// node's key. The four genuine ones fill one batch that every node
/// commits; the forgery is never proposed.
template <typename Replica>
void RunForgedRequestAtShim(crypto::CryptoMode mode) {
  ShimRig<Replica> rig(mode);
  for (TxnId id = 0; id < 5; ++id) rig.Send(id, id == 3 ? 2 : rig.kClient);
  rig.sim_.RunUntil(Seconds(0.5));

  EXPECT_EQ(rig.cpus_[0]->jobs_coalesced(), 3u);
  const std::set<TxnId> genuine = {0, 1, 2, 4};
  for (uint32_t i = 0; i < rig.kNodes; ++i) {
    EXPECT_EQ(rig.committed_[i], genuine) << "node " << i;
  }
}

TEST(RequestCoalescingTest, ForgedRequestAtPbftPrimaryFast) {
  RunForgedRequestAtShim<shim::PbftReplica>(crypto::CryptoMode::kFast);
}

TEST(RequestCoalescingTest, ForgedRequestAtPbftPrimaryReal) {
  RunForgedRequestAtShim<shim::PbftReplica>(crypto::CryptoMode::kReal);
}

TEST(RequestCoalescingTest, ForgedRequestAtLinearCollectorFast) {
  RunForgedRequestAtShim<shim::LinearBftReplica>(crypto::CryptoMode::kFast);
}

TEST(RequestCoalescingTest, ForgedRequestAtLinearCollectorReal) {
  RunForgedRequestAtShim<shim::LinearBftReplica>(crypto::CryptoMode::kReal);
}

/// The primary crashes after handling the first of five requests and
/// before the merged job of the other four completes, then recovers. The
/// merged job must have been ignored: after recovery one more request
/// flushes a batch of just the first and the last.
template <typename Replica>
void RunCrashedPrimaryIgnoresMergedJob() {
  ShimRig<Replica> rig(crypto::CryptoMode::kFast);
  for (TxnId id = 0; id < 5; ++id) rig.Send(id);
  while (rig.cpus_[0]->jobs_completed() == 0) {
    ASSERT_TRUE(rig.sim_.Step());
  }
  ASSERT_EQ(rig.cpus_[0]->busy_cores(), 1);  // The merged job runs.
  rig.replicas_[0]->SetCrashed(true);
  rig.sim_.RunUntil(Seconds(0.2));
  EXPECT_EQ(rig.cpus_[0]->jobs_coalesced(), 3u);
  for (uint32_t i = 0; i < rig.kNodes; ++i) {
    EXPECT_TRUE(rig.committed_[i].empty()) << "node " << i;
  }

  rig.replicas_[0]->SetCrashed(false);
  rig.Send(5);
  rig.sim_.RunUntil(Seconds(0.5));
  const std::set<TxnId> expected = {0, 5};
  for (uint32_t i = 0; i < rig.kNodes; ++i) {
    EXPECT_EQ(rig.committed_[i], expected) << "node " << i;
  }
}

TEST(RequestCoalescingTest, CrashedPbftPrimaryIgnoresMergedJob) {
  RunCrashedPrimaryIgnoresMergedJob<shim::PbftReplica>();
}

TEST(RequestCoalescingTest, CrashedLinearCollectorIgnoresMergedJob) {
  RunCrashedPrimaryIgnoresMergedJob<shim::LinearBftReplica>();
}

TEST(RequestCoalescingTest, PaperDeploymentCoalescesAtShimPrimary) {
  // The §IX deployment (PBFT n=8, batch 100, 16-core shim) at 150k
  // offered t/s, past the ~126k ceiling of one full verification per
  // request; a smaller keyspace keeps the run short.
  SystemConfig config;
  config.shim.n = 8;
  config.shim.batch_size = 100;
  config.shim.pipeline_width = 96;
  config.n_e = 3;
  config.f_e = 1;
  config.executor_regions = 3;
  config.shim_cores = 16;
  config.verifier_cores = 8;
  config.workload.record_count = 60000;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 3;
  config.traffic.open_loop = true;
  config.traffic.sources = 4;
  config.traffic.offered_tps = 150000;
  Architecture arch(config);
  arch.Start();
  arch.RunUntil(Seconds(0.3));

  const ShardPlane* plane = arch.plane(0);
  ActorId primary = plane->CurrentPrimary();
  const auto& ids = plane->shim_ids();
  uint32_t index = static_cast<uint32_t>(
      std::find(ids.begin(), ids.end(), primary) - ids.begin());
  ASSERT_NE(plane->shim_cpu(index), nullptr);
  EXPECT_GT(plane->shim_cpu(index)->jobs_coalesced(), 0u);
  EXPECT_GT(arch.TotalCompleted(), 0u);
}

/// The fig13 deployment (8 planes, 33% cross-shard, one coordinator on a
/// 2-core machine) under open-loop Poisson load.
SystemConfig Fig13Config(double offered_tps, int sim_threads) {
  SystemConfig config;
  config.shard_count = 8;
  config.shim.n = 4;
  config.shim.batch_size = 4;
  config.shim.checkpoint_interval = 8;
  config.n_e = 3;
  config.f_e = 1;
  config.workload.record_count = 8000;
  config.workload.cross_shard_percentage = 33;
  config.coordinator_cores = 2;
  config.crypto_mode = crypto::CryptoMode::kFast;
  config.seed = 5;
  config.sim_threads = sim_threads;
  config.traffic.open_loop = true;
  config.traffic.sources = 4;
  config.traffic.offered_tps = offered_tps;
  config.traffic.retry_timeout = Millis(400);
  config.traffic.retry_inflight_cap = 32;
  config.traffic.max_inflight = 4000;
  return config;
}

TEST(RequestCoalescingTest, OverloadRunStaysAtomicAndConservesTraffic) {
  // 48k t/s is past the per-request knee (~33k) and inside the batched
  // capacity.
  Architecture arch(Fig13Config(48000, 0));
  arch.Start();
  arch.RunUntil(Seconds(0.5));

  ASSERT_NE(arch.coordinator_cpu(0), nullptr);
  EXPECT_GT(arch.coordinator_cpu(0)->jobs_coalesced(), 0u);
  EXPECT_GT(arch.TotalCompleted(), 0u);

  // Atomicity: no gid applied on one shard and aborted on another, and
  // every applied gid is a logged COMMIT.
  std::set<TxnId> applied;
  std::set<TxnId> aborted;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    const verifier::Verifier* v = arch.plane(s)->verifier();
    EXPECT_TRUE(v->audit_log().VerifyChain());
    for (const auto& [gid, cseq] : v->applied_global()) applied.insert(gid);
    for (const auto& [gid, cseq] : v->aborted_global()) aborted.insert(gid);
  }
  EXPECT_FALSE(applied.empty());
  const auto& decisions = arch.coordinator()->decisions();
  for (TxnId gid : applied) {
    EXPECT_FALSE(aborted.contains(gid)) << "gid " << gid;
    auto it = decisions.find(gid);
    if (it != decisions.end()) EXPECT_TRUE(it->second.commit);
  }

  // Open-loop conservation: every offered transaction is answered,
  // dropped or still in flight.
  uint64_t offered = 0;
  uint64_t accounted = 0;
  for (const auto& source : arch.sources()) {
    offered += source->offered();
    accounted += source->completed() + source->aborted() + source->dropped() +
                 source->inflight();
  }
  EXPECT_GT(offered, 0u);
  EXPECT_EQ(offered, accounted);
}

struct CoalescedRun {
  std::vector<Bytes> audit_heads;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t coalesced = 0;
  uint64_t shim_coalesced = 0;
  uint64_t coordinated = 0;
};

CoalescedRun RunFig13(int sim_threads) {
  SystemConfig config = Fig13Config(48000, sim_threads);
  // Two-core shim nodes queue client requests at each plane's primary
  // too, so both coalescing sites run on the parallel engine.
  config.shim_cores = 2;
  Architecture arch(config);
  arch.Start();
  arch.RunUntil(Seconds(0.3));
  CoalescedRun run;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    run.audit_heads.push_back(
        arch.plane(s)->verifier()->audit_log().head().ToBytes());
  }
  run.completed = arch.TotalCompleted();
  run.aborted = arch.TotalAborted();
  run.coalesced = arch.coordinator_cpu(0)->jobs_coalesced();
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    for (uint32_t i = 0; i < arch.plane(s)->shim_ids().size(); ++i) {
      run.shim_coalesced += arch.plane(s)->shim_cpu(i)->jobs_coalesced();
    }
  }
  run.coordinated = arch.coordinator()->txns_coordinated();
  return run;
}

TEST(RequestCoalescingTest, DeterministicAcrossThreadCounts) {
  CoalescedRun one = RunFig13(1);
  EXPECT_GT(one.coalesced, 0u);
  EXPECT_GT(one.shim_coalesced, 0u);
  for (int threads : {2, 4}) {
    CoalescedRun other = RunFig13(threads);
    EXPECT_EQ(one.audit_heads, other.audit_heads) << threads << " threads";
    EXPECT_EQ(one.completed, other.completed) << threads << " threads";
    EXPECT_EQ(one.aborted, other.aborted) << threads << " threads";
    EXPECT_EQ(one.coalesced, other.coalesced) << threads << " threads";
    EXPECT_EQ(one.shim_coalesced, other.shim_coalesced)
        << threads << " threads";
    EXPECT_EQ(one.coordinated, other.coordinated) << threads << " threads";
  }
}

}  // namespace
}  // namespace sbft::core
