// The traced run. A delivery observer on the serial engine records, per
// delivered message, its kind, the receiving layer (from the actor-id
// blocks), its wire size, its network delay and how long the receiver
// took to handle it (CPU queue + service). The host time between two
// consecutive deliveries is charged to the later delivery's receiving
// layer, so the layers' host shares add up to the traced window. Timer
// events fall into the next delivery's share, so the split is
// approximate.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "crypto/keys.h"
#include "modes.h"
#include "shim/message.h"
#include "sim/network.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "workload/ycsb.h"

namespace perfbench {

namespace {

using sbft::ActorId;
using sbft::core::Architecture;
using sbft::shim::MsgKind;

enum Layer { kShim, kExecutor, kVerifier, kStorage, kCoord, kClient, kOther };
constexpr int kLayers = kOther + 1;
const char* const kLayerNames[kLayers] = {
    "shim", "executor", "verifier", "storage", "coord", "client", "other"};

enum Stage {
  kRequest,
  kOrder,
  kExecute,
  kVerify,
  kTwoPc,
  kCoordLog,
  kReply,
  kViewChange,
};
constexpr int kStages = kViewChange + 1;
const char* const kStageNames[kStages] = {
    "request", "order",    "execute", "verify",
    "twopc",   "coord_log", "reply",  "view_change"};

/// Receiving layer of an actor id (core/shard_plane.h, core/config.h and
/// core/architecture.h define the id blocks).
Layer LayerOf(ActorId id) {
  if (id >= Architecture::kFirstExecutorId) return kExecutor;
  if (id >= Architecture::kFirstClientId) return kClient;
  if (id >= Architecture::kVerifierId) {
    switch ((id - Architecture::kVerifierId) % 1000) {
      case 0:
        return kVerifier;
      case 1:
        return kStorage;
      default:
        return kOther;
    }
  }
  if (id >= Architecture::kCoordinatorId) return kCoord;
  return kShim;
}

Stage StageOf(MsgKind kind) {
  switch (kind) {
    case MsgKind::kClientRequest:
      return kRequest;
    case MsgKind::kExecute:
    case MsgKind::kStorageRead:
    case MsgKind::kStorageReadReply:
      return kExecute;
    case MsgKind::kVerify:
      return kVerify;
    case MsgKind::kShardPrepareVote:
    case MsgKind::kShardCommitDecision:
    case MsgKind::kShardVoteCert:
      return kTwoPc;
    case MsgKind::kCoordAppend:
    case MsgKind::kCoordAck:
    case MsgKind::kCoordSyncRequest:
    case MsgKind::kCoordSyncReply:
    case MsgKind::kCoordRedirect:
      return kCoordLog;
    case MsgKind::kResponse:
      return kReply;
    case MsgKind::kError:
    case MsgKind::kReplace:
    case MsgKind::kAck:
    case MsgKind::kViewChange:
    case MsgKind::kNewView:
      return kViewChange;
    default:
      return kOrder;  // PBFT / linear / Paxos ordering and checkpoints.
  }
}

class Tracer {
 public:
  void Install(Architecture* arch) {
    arch_ = arch;
    last_ = begin_ = WallNow();
    arch->network()->SetDeliveryObserver(
        [this](const sbft::sim::Envelope& env) { OnDelivery(env); });
  }

  void Remove() {
    double now = WallNow();
    host[last_layer_] += now - last_;
    window = now - begin_;
    arch_->network()->SetDeliveryObserver(nullptr);
  }

  void OnDelivery(const sbft::sim::Envelope& env) {
    double now = WallNow();
    Layer layer = LayerOf(env.to);
    host[layer] += now - last_;
    last_ = now;
    last_layer_ = layer;
    wait[layer].push_back(arch_->simulator()->now() - env.delivered_at);
    const auto* msg =
        static_cast<const sbft::shim::Message*>(env.message.get());
    Stage stage = StageOf(msg->kind);
    ++msgs[stage];
    bytes[stage] += env.wire_bytes;
    net_delay_ns[stage] += static_cast<double>(env.delivered_at - env.sent_at);
    if (msg->kind == MsgKind::kClientRequest) request_bytes += env.wire_bytes;
  }

  std::array<std::vector<int64_t>, kLayers> wait;
  std::array<double, kLayers> host{};
  std::array<uint64_t, kStages> msgs{};
  std::array<uint64_t, kStages> bytes{};
  std::array<double, kStages> net_delay_ns{};
  uint64_t request_bytes = 0;
  double window = 0;

 private:
  Architecture* arch_ = nullptr;
  double begin_ = 0;
  double last_ = 0;
  Layer last_layer_ = kOther;
};

/// Per-layer counters, summed over planes / members / actors.
struct LayerCounters {
  uint64_t batches_spawned = 0, executors_spawned = 0, held_batches = 0;
  uint64_t cold_starts = 0, spawns_throttled = 0;
  uint64_t applied_txns = 0, applied_batches = 0, aborted_txns = 0;
  uint64_t lock_waits_queued = 0, lock_waits_aborted = 0, floods = 0;
  uint64_t coord_txns = 0, coord_commits = 0, coord_aborts = 0;
  uint64_t presumed_aborts = 0, votes = 0, vote_certs = 0, expired = 0;
  uint64_t coord_view_changes = 0, shim_view_changes = 0;
  uint64_t src_offered = 0, src_retrans = 0, src_dropped = 0;
  uint64_t client_settled = 0, client_retrans = 0;
  uint64_t store_ops = 0;

  static LayerCounters Read(Architecture* arch) {
    LayerCounters c;
    for (uint32_t s = 0; s < arch->shard_count(); ++s) {
      auto* plane = arch->plane(s);
      c.batches_spawned += plane->spawner()->batches_spawned();
      c.executors_spawned += plane->spawner()->executors_spawned();
      c.held_batches += plane->spawner()->batches_held_on_prepare_locks();
      c.cold_starts += plane->cloud()->cold_starts();
      c.spawns_throttled += plane->cloud()->spawns_throttled();
      auto* v = plane->verifier();
      c.applied_txns += v->applied_txns();
      c.applied_batches += v->applied_batches();
      c.aborted_txns += v->aborted_txns();
      c.lock_waits_queued += v->lock_waits_queued();
      c.lock_waits_aborted += v->lock_waits_aborted();
      c.floods += v->flooding_ignored();
      c.store_ops += plane->store()->reads() + plane->store()->writes();
    }
    for (uint32_t r = 0; r < arch->coordinator_replicas(); ++r) {
      auto* coord = arch->coordinator(r);
      c.coord_txns += coord->txns_coordinated();
      c.coord_commits += coord->commits_decided();
      c.coord_aborts += coord->aborts_decided();
      c.presumed_aborts += coord->presumed_aborts_logged();
      c.votes += coord->votes_received();
      c.vote_certs += coord->vote_cert_msgs();
      c.expired += coord->outstanding_expired();
    }
    c.coord_view_changes = arch->CoordinatorViewChanges();
    c.shim_view_changes = arch->TotalViewChanges();
    for (const auto& src : arch->sources()) {
      c.src_offered += src->offered();
      c.src_retrans += src->retransmissions();
      c.src_dropped += src->dropped();
    }
    for (const auto& client : arch->clients()) {
      c.client_settled += client->completed() + client->aborted();
      c.client_retrans += client->retransmissions();
    }
    return c;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- timings of public calls, median of five repeats ---

template <typename Fn>
double MedianNs(int ops, Fn&& fn) {
  std::vector<double> reps;
  for (int i = 0; i < 5; ++i) {
    double t0 = WallNow();
    fn();
    reps.push_back((WallNow() - t0) * 1e9 / ops);
  }
  return Median(reps);
}

/// Schedule + dispatch of one simulator event.
double ScheduleNs() {
  constexpr int kOps = 200000;
  return MedianNs(kOps, [] {
    sbft::sim::Simulator sim(1);
    uint64_t fired = 0;
    for (int i = 0; i < kOps; ++i) {
      sim.Schedule((i * 7919) % 100000, [&fired] { ++fired; });
    }
    sim.RunToCompletion();
  });
}

/// Submit + completion of one CPU job on an 8-core server.
double ServerJobNs() {
  constexpr int kOps = 100000;
  return MedianNs(kOps, [] {
    sbft::sim::Simulator sim(1);
    sbft::sim::ServerResource server(&sim, 8);
    uint64_t done = 0;
    for (int i = 0; i < kOps; ++i) {
      server.Submit(sbft::Micros(1), [&done] { ++done; });
    }
    sim.RunToCompletion();
  });
}

struct Ping : sbft::sim::MessageBase {};

class Sink : public sbft::sim::Actor {
 public:
  explicit Sink(ActorId id) : Actor(id, "sink") {}
  void OnMessage(const sbft::sim::Envelope&) override { ++received; }
  uint64_t received = 0;
};

/// Send + delivery of one message of `bytes` between two home-region
/// actors.
double SendNs(size_t bytes) {
  constexpr int kOps = 100000;
  return MedianNs(kOps, [bytes] {
    sbft::sim::Simulator sim(1);
    sbft::sim::Network net(&sim, sbft::sim::RegionTable::Aws11(),
                           sbft::sim::NetworkConfig{});
    Sink a(1), b(2);
    net.Register(&a, sbft::sim::RegionTable::kHomeRegion);
    net.Register(&b, sbft::sim::RegionTable::kHomeRegion);
    auto msg = std::make_shared<const Ping>();
    for (int i = 0; i < kOps; ++i) net.Send(1, 2, msg, bytes);
    sim.RunToCompletion();
  });
}

}  // namespace

Report RunTraced(const Workload& w, uint64_t seed, double seconds,
                 int threads) {
  Report report;
  const uint64_t s = DerivedSeed(seed, 0);
  const PointSpec spec = w.nominal(s, 0);
  const std::string label = "seed " + std::to_string(s);

  // Plain serial run, with the layer counters read around the window.
  LayerCounters c0, c1;
  RunOptions plain_options;
  plain_options.on_window_start = [&](Architecture* a) {
    c0 = LayerCounters::Read(a);
  };
  plain_options.on_window_end = [&](Architecture* a) {
    c1 = LayerCounters::Read(a);
  };
  Session plain_session(spec);
  PointResult plain = plain_session.Run(plain_options);
  report.Checked("plain serial " + label, plain.failures);

  // Traced (and 1 ms-polled) serial run of the same seed.
  Tracer tracer;
  RunOptions traced_options;
  traced_options.poll = true;
  traced_options.outage_from = w.first_fault;
  traced_options.on_window_start = [&](Architecture* a) {
    tracer.Install(a);
  };
  traced_options.on_window_end = [&](Architecture*) { tracer.Remove(); };
  Session traced_session(spec);
  PointResult traced = traced_session.Run(traced_options);
  if (!traced.end.SameSimulation(plain.end) ||
      traced.p50_ms != plain.p50_ms || traced.p99_ms != plain.p99_ms) {
    traced.failures.push_back(
        "traced run's simulated metrics differ from the plain serial run");
  }
  double host_sum = 0;
  for (int l = 0; l < kOther; ++l) host_sum += tracer.host[l];
  if (tracer.window <= 0 || std::abs(host_sum / tracer.window - 1) > 0.01) {
    traced.failures.push_back("layer host shares do not sum to the window");
  }
  report.Checked("traced serial " + label, traced.failures);

  // The first architecture of a process pays for growing the heap, so the
  // host-time figures come from a second plain run made after the traced
  // one.
  PointResult warm = Session(spec).Run();
  if (!warm.end.SameSimulation(plain.end)) {
    warm.failures.push_back("repeat of the same seed diverged");
  }
  report.Checked("plain serial " + label, warm.failures);

  // Serial vs parallel wall time at the nominal point, alternated until
  // the wall budget is spent.
  double speedup = 1.0;
  double cross_frac = 0.0;
  if (w.parallel) {
    std::vector<double> serial_wall = {warm.window_wall_s};
    std::vector<double> parallel_wall;
    const double deadline = WallNow() + seconds;
    do {
      Session par(w.nominal(s, threads));
      PointResult p = par.Run();
      report.Checked("parallel " + label, p.failures);
      parallel_wall.push_back(p.window_wall_s);
      cross_frac = Ratio(static_cast<double>(p.end.cross_loop -
                                             p.start.cross_loop),
                         static_cast<double>(p.end.messages -
                                             p.start.messages));
      if (WallNow() >= deadline) break;
      Session ser(spec);
      PointResult q = ser.Run();
      report.Checked("plain serial " + label, q.failures);
      serial_wall.push_back(q.window_wall_s);
    } while (WallNow() < deadline);
    speedup = Median(serial_wall) / Median(parallel_wall);
  }

  const double txns =
      static_cast<double>(plain.end.completed - plain.start.completed);
  const double events =
      static_cast<double>(plain.end.events - plain.start.events);
  const double messages =
      static_cast<double>(plain.end.messages - plain.start.messages);
  const double bytes = static_cast<double>(plain.end.bytes - plain.start.bytes);
  const double mean_msg = Ratio(bytes, messages);
  const double request_bytes = Ratio(
      static_cast<double>(tracer.request_bytes), tracer.msgs[kRequest]);

  report.Add("sim.events_per_txn", Ratio(events, txns), "count");
  report.Add("sim.ns_per_event", Ratio(warm.window_wall_s * 1e9, events),
             "ns");
  report.Add("sim.schedule_ns", ScheduleNs(), "ns");
  report.Add("sim.server_job_ns", ServerJobNs(), "ns");
  report.Add("sim.parallel_speedup", speedup, "x",
             w.parallel ? "serial / parallel window wall"
                        : "serial-only workload");
  report.Add("net.cross_loop_frac", cross_frac, "frac");
  report.Add("net.msgs_per_txn", Ratio(messages, txns), "count");
  report.Add("net.bytes_per_txn", Ratio(bytes, txns), "B");
  report.Add("net.send_ns", SendNs(static_cast<size_t>(mean_msg)), "ns",
             "at the mean message size " +
                 std::to_string(static_cast<int>(mean_msg)) + " B");

  // Crypto calls on the workload's client request size.
  {
    sbft::crypto::KeyRegistry keys(sbft::crypto::CryptoMode::kFast, s);
    keys.RegisterNode(1);
    keys.RegisterNode(2);
    sbft::Bytes msg(static_cast<size_t>(std::max(1.0, request_bytes)), 0x5a);
    constexpr int kOps = 20000;
    sbft::Bytes sig = keys.Sign(1, msg);
    uint64_t sink = 0;
    const double mac_ns = MedianNs(kOps, [&] {
      for (int i = 0; i < kOps; ++i) sink += keys.Mac(1, 2, msg).data()[0];
    });
    const double sign_ns = MedianNs(kOps, [&] {
      for (int i = 0; i < kOps; ++i) sink += keys.Sign(1, msg)[0];
    });
    const double verify_ns = MedianNs(kOps, [&] {
      for (int i = 0; i < kOps; ++i) sink += keys.Verify(1, msg, sig);
    });
    report.Add("crypto.mac_ns", mac_ns, "ns",
               "on " + std::to_string(msg.size()) + " B");
    report.Add("crypto.sign_ns", sign_ns, "ns");
    report.Add("crypto.verify_ns", verify_ns, "ns");
    if (sink == 42) std::printf("\n");  // Keeps the loops observable.

    sbft::workload::YcsbConfig ycsb = spec.config.workload;
    ycsb.shard_count = spec.config.shard_count;
    sbft::workload::YcsbGenerator generator(ycsb, sbft::Rng(s));
    sbft::workload::TransactionBatch batch;
    for (int i = 0; i < 100; ++i) {
      batch.txns.push_back(generator.Next(Architecture::kFirstSourceId));
    }
    // Hash() is memoized and a copy resets the memo, so each repeat
    // hashes fresh copies made outside the timed loop.
    constexpr int kBatches = 400;
    std::vector<double> hash_us;
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<sbft::workload::TransactionBatch> copies(kBatches, batch);
      double t0 = WallNow();
      for (const auto& b : copies) sink += b.Hash().data()[0];
      hash_us.push_back((WallNow() - t0) * 1e6 / kBatches);
    }
    report.Add("crypto.batch_hash_us", Median(hash_us), "us",
               "100-txn TransactionBatch::Hash");
  }

  for (int l = 0; l < kOther; ++l) {
    std::vector<int64_t>& wait = tracer.wait[l];
    std::string name = kLayerNames[l];
    std::string note = "deliveries " + std::to_string(wait.size());
    report.Add(name + ".wait_ms.p50", Quantile(&wait, 0.50) / 1e6, "ms",
               note);
    report.Add(name + ".wait_ms.p99", Quantile(&wait, 0.99) / 1e6, "ms");
    report.Add(name + ".host_frac", Ratio(tracer.host[l], tracer.window),
               "frac");
  }
  const double traced_txns =
      static_cast<double>(traced.end.completed - traced.start.completed);
  for (int st = 0; st < kStages; ++st) {
    std::string name = kStageNames[st];
    char note[64];
    std::snprintf(note, sizeof(note), "mean network delay %.3f ms",
                  Ratio(tracer.net_delay_ns[st], tracer.msgs[st]) / 1e6);
    report.Add(name + ".msgs_per_txn", Ratio(tracer.msgs[st], traced_txns),
               "count", note);
    report.Add(name + ".bytes_per_txn", Ratio(tracer.bytes[st], traced_txns),
               "B");
  }

  auto d = [&](uint64_t LayerCounters::*field) {
    return static_cast<double>(c1.*field - c0.*field);
  };
  using LC = LayerCounters;
  report.Add("serverless.executors_per_batch",
             Ratio(d(&LC::executors_spawned), d(&LC::batches_spawned)),
             "count");
  report.Add("serverless.cold_start_frac",
             Ratio(d(&LC::cold_starts), d(&LC::executors_spawned)), "frac");
  report.Add("serverless.spawns_throttled", d(&LC::spawns_throttled),
             "count");
  report.Add("spawner.held_batches", d(&LC::held_batches), "count");
  report.Add("verifier.txns_per_batch",
             Ratio(d(&LC::applied_txns), d(&LC::applied_batches)), "count");
  report.Add("verifier.abort_frac",
             Ratio(d(&LC::aborted_txns),
                   d(&LC::applied_txns) + d(&LC::aborted_txns)),
             "frac");
  report.Add("verifier.lock_waits_queued", d(&LC::lock_waits_queued),
             "count");
  report.Add("verifier.lock_waits_aborted", d(&LC::lock_waits_aborted),
             "count");
  report.Add("verifier.floods_ignored", d(&LC::floods), "count");
  report.Add("coord.txns", d(&LC::coord_txns), "count");
  report.Add("coord.abort_frac",
             Ratio(d(&LC::coord_aborts),
                   d(&LC::coord_commits) + d(&LC::coord_aborts)),
             "frac");
  report.Add("coord.presumed_aborts", d(&LC::presumed_aborts), "count");
  report.Add("coord.votes_per_cert",
             Ratio(d(&LC::votes), d(&LC::vote_certs)), "count");
  report.Add("coord.outstanding_expired", d(&LC::expired), "count");
  report.Add("coord.view_changes", d(&LC::coord_view_changes), "count");
  report.Add("shim.view_changes", d(&LC::shim_view_changes), "count");
  const std::string from = w.first_fault > 0 ? "from the first fault"
                                             : "whole window";
  report.Add("verifier.outage_ms", traced.plane_outage_ms, "ms",
             "longest stall of a plane's applies, " + from);
  report.Add("coord.outage_ms", traced.coord_outage_ms, "ms",
             "longest stall of coordinator decisions, " + from);
  report.Add("traffic.retransmit_frac",
             Ratio(d(&LC::src_retrans), d(&LC::src_offered)), "frac");
  report.Add("traffic.drop_frac",
             Ratio(d(&LC::src_dropped), d(&LC::src_offered)), "frac");
  report.Add("traffic.peak_inflight",
             static_cast<double>(plain_session.arch()->PeakInflight()),
             "count");
  report.Add("client.retransmit_frac",
             Ratio(d(&LC::client_retrans), d(&LC::client_settled)), "frac");
  report.Add("storage.ops_per_txn", Ratio(d(&LC::store_ops), txns), "count");
  report.Add("trace.overhead_frac",
             traced.window_wall_s / warm.window_wall_s - 1.0, "frac",
             "traced / later plain serial window wall - 1");
  return report;
}

}  // namespace perfbench
