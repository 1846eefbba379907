#ifndef SBFT_SIM_NETWORK_H_
#define SBFT_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/actor.h"
#include "sim/region.h"
#include "sim/server.h"
#include "sim/simulator.h"

namespace sbft::sim {

class ParallelSimulator;

/// Knobs for the message-level asynchrony the protocol must tolerate
/// (paper §IV-E: "messages can get lost, delayed, or duplicated").
struct NetworkConfig {
  /// Probability an individual message is silently dropped.
  double drop_probability = 0.0;
  /// Probability a message is delivered twice.
  double duplicate_probability = 0.0;
  /// Uniform extra delay in [0, jitter_max) added per message.
  SimDuration jitter_max = Micros(200);
  /// NIC line rate used for transmission delay (paper setup: 10 GiB NICs).
  double bandwidth_gbps = 10.0;
};

/// Per-link fault-injection rule layered on top of the global
/// NetworkConfig knobs (fault engine, src/faults/). Both the global knobs
/// and the link rule are consulted by the same delivery decision, so the
/// two sources cannot diverge.
struct LinkRule {
  /// Extra probability a message on this link is dropped.
  double drop_probability = 0.0;
  /// Extra probability a message on this link is duplicated.
  double duplicate_probability = 0.0;
  /// Deterministic extra one-way delay on this link.
  SimDuration extra_delay = 0;
};

/// \brief Message transport between actors, with WAN latency, bandwidth,
/// fault injection, and per-receiver CPU accounting.
///
/// Delivery pipeline: transmission (bytes / bandwidth) -> propagation
/// (region one-way delay) -> jitter -> optional receiver CPU queueing via
/// an attached ServerResource -> Actor::OnMessage.
class Network {
 public:
  /// Per-envelope CPU charge on the receiving node. A charge with a job
  /// class coalesces with the endpoint's queued jobs of that class; the
  /// messages of a merged job reach the actor in one OnMessageBatch call.
  using CostFn = std::function<JobCost(const Envelope&)>;
  /// Observer invoked on every successful delivery (after CPU).
  using DeliveryObserver = std::function<void(const Envelope&)>;

  Network(Simulator* sim, RegionTable regions, NetworkConfig config);

  /// Registers an actor in a region. The actor must outlive the network
  /// or call Unregister first.
  void Register(Actor* actor, RegionId region);

  /// Removes an actor; in-flight messages to it are dropped on arrival.
  void Unregister(ActorId id);

  /// Attaches a CPU model to an actor: deliveries queue on `server` and
  /// charge `cost_fn(envelope)` before OnMessage runs.
  void AttachServer(ActorId id, ServerResource* server, CostFn cost_fn);

  /// Sends a message; `wire_bytes` is its serialized size.
  void Send(ActorId from, ActorId to, MessagePtr message, size_t wire_bytes);

  /// Sends to every id in `targets` (excluding kInvalidActor entries).
  void Broadcast(ActorId from, const std::vector<ActorId>& targets,
                 MessagePtr message, size_t wire_bytes) {
    Broadcast(from, targets, kInvalidActor, std::move(message), wire_bytes);
  }

  /// Broadcast that additionally skips `skip` — lets a replica fan out to
  /// its full peer list minus itself without building a filtered copy.
  void Broadcast(ActorId from, const std::vector<ActorId>& targets,
                 ActorId skip, MessagePtr message, size_t wire_bytes);

  /// Cuts or restores the link between two actors (both directions).
  void SetLinkEnabled(ActorId a, ActorId b, bool enabled);

  /// Isolates an actor entirely (drops everything to and from it).
  void SetIsolated(ActorId id, bool isolated);

  /// Installs a per-link drop/duplicate/delay rule (both directions),
  /// layered on top of the global NetworkConfig knobs.
  void SetLinkRule(ActorId a, ActorId b, const LinkRule& rule);

  /// Removes the per-link rule between two actors.
  void ClearLinkRule(ActorId a, ActorId b);

  /// Partitions (or heals) a pair of regions: messages between actors in
  /// the two regions are dropped while partitioned.
  void SetRegionPartition(RegionId a, RegionId b, bool partitioned);

  /// Adds a fixed delay to every message to and from an actor — the fault
  /// engine's first-order model of clock skew on that node (its view of
  /// the world lags by `delay`). Pass 0 to clear.
  void SetActorDelay(ActorId id, SimDuration delay);

  /// Test/trace hook; pass nullptr to clear.
  void SetDeliveryObserver(DeliveryObserver observer);

  RegionId RegionOf(ActorId id) const;
  const RegionTable& regions() const { return regions_; }

  // --- parallel-mode wiring (conservative-PDES engine, DESIGN.md §11) ---

  /// Switches the network onto per-loop state: endpoint maps, rng jitter
  /// streams, and traffic counters are sharded by event loop, same-loop
  /// sends schedule on the sender's Simulator, and cross-loop sends go
  /// through the ParallelSimulator's mailboxes. Call once, after every
  /// static actor is registered and before the first run. `loop_of` maps
  /// any actor id to its loop index (a pure function of the id blocks);
  /// `loop_sims[i]` is loop i's Simulator. Fault injection is not
  /// supported in parallel mode (asserted).
  void EnableParallel(ParallelSimulator* psim,
                      std::function<int(ActorId)> loop_of,
                      std::vector<Simulator*> loop_sims);

  /// The minimum possible cross-loop delivery latency, derived from the
  /// region table: every statically-placed actor lives in the home
  /// region, so no cross-loop message can arrive sooner than the
  /// intra-home one-way propagation time (transmission delay, jitter,
  /// and rule delays only add). This is the conservative engine's
  /// lookahead floor.
  SimDuration CrossLoopFloor() const {
    SimDuration floor =
        regions_.OneWay(RegionTable::kHomeRegion, RegionTable::kHomeRegion);
    return floor > 0 ? floor : 1;
  }

  bool parallel() const { return psim_ != nullptr; }
  /// Messages that crossed loops through the mailbox mesh.
  uint64_t cross_loop_messages() const;

  uint64_t messages_sent() const;
  uint64_t messages_delivered() const;
  uint64_t messages_dropped() const;
  uint64_t bytes_sent() const;

 private:
  struct Endpoint {
    Actor* actor = nullptr;
    RegionId region = 0;
    ServerResource* server = nullptr;
    CostFn cost_fn;
    /// Messages of the merged job now completing, gathered until its last
    /// callback hands them to the actor together.
    std::vector<Envelope> batch;
  };

  /// One delivery decision for a message: whether it gets through, how
  /// many copies arrive, and any deterministic extra delay. This is the
  /// single place where the global NetworkConfig knobs, per-link rules,
  /// partitions, and per-actor skew combine.
  struct Verdict {
    bool deliver = true;
    int copies = 1;
    SimDuration extra_delay = 0;
  };
  Verdict DecideDelivery(ActorId from, ActorId to, RegionId from_region,
                         RegionId to_region, Rng* rng);

  static uint64_t LinkKey(ActorId a, ActorId b);
  static uint64_t RegionKey(RegionId a, RegionId b);
  /// Send with the sender endpoint already resolved — lets Broadcast look
  /// the sender up once per fan-out instead of once per target.
  void SendFrom(ActorId from, RegionId from_region, ActorId to,
                const MessagePtr& message, size_t wire_bytes);
  void Deliver(Envelope env);
  /// Hands a delivered envelope to `ep`'s actor, through its CPU model
  /// when one is attached. `loop` is the delivering loop in parallel mode
  /// and -1 on the serial engine.
  void Dispatch(Endpoint& ep, Envelope env, int loop);
  /// Endpoint of `id` in `loop`'s map (-1: the serial map), or null.
  Endpoint* FindEndpoint(int loop, ActorId id);

  /// Per-loop network state for parallel mode: one jitter/drop rng stream
  /// and one set of traffic counters per loop, each touched only by the
  /// loop's own worker thread (padded so the counters never false-share).
  struct alignas(64) LoopNet {
    explicit LoopNet(Rng r) : rng(r) {}
    Rng rng;
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped = 0;
    uint64_t bytes = 0;
    uint64_t cross = 0;
  };

  void SendFromParallel(ActorId from, RegionId from_region, ActorId to,
                        const MessagePtr& message, size_t wire_bytes);
  void DeliverParallel(Envelope env);

  Simulator* sim_;
  RegionTable regions_;
  NetworkConfig config_;
  Rng rng_;
  std::unordered_map<ActorId, Endpoint> endpoints_;
  std::unordered_set<uint64_t> disabled_links_;
  std::unordered_set<ActorId> isolated_;
  std::unordered_map<uint64_t, LinkRule> link_rules_;
  std::unordered_set<uint64_t> partitioned_regions_;
  std::unordered_map<ActorId, SimDuration> actor_delays_;
  DeliveryObserver observer_;

  // --- parallel-mode state (untouched, empty, when psim_ == nullptr) ---
  ParallelSimulator* psim_ = nullptr;
  std::function<int(ActorId)> loop_of_fn_;
  std::vector<Simulator*> loop_sims_;
  /// Endpoint maps sharded by loop: loop_endpoints_[i] is written only at
  /// build time and by loop i's own thread (executor churn), and read
  /// only by that thread — cross-loop sends resolve the destination
  /// through static_regions_ instead.
  std::vector<std::unordered_map<ActorId, Endpoint>> loop_endpoints_;
  /// Read-only snapshot of every statically-placed actor's region, taken
  /// at EnableParallel. Runtime-registered actors (executors) never
  /// receive cross-loop traffic, so the static directory suffices for
  /// remote region resolution.
  std::unordered_map<ActorId, RegionId> static_regions_;
  std::vector<LoopNet> loop_net_;

  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace sbft::sim

#endif  // SBFT_SIM_NETWORK_H_
