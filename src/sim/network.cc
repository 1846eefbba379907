#include "sim/network.h"

#include <cassert>

#include "sim/parallel.h"

namespace sbft::sim {

Network::Network(Simulator* sim, RegionTable regions, NetworkConfig config)
    : sim_(sim),
      regions_(std::move(regions)),
      config_(config),
      rng_(sim->rng()->Fork(0x4e42)) {}

void Network::Register(Actor* actor, RegionId region) {
  assert(region < regions_.size());
  Endpoint ep;
  ep.actor = actor;
  ep.region = region;
  if (psim_ != nullptr) {
    // Runtime registration (executor spawn) happens on the owning loop's
    // own thread and lands in that loop's private map.
    loop_endpoints_[loop_of_fn_(actor->id())][actor->id()] = std::move(ep);
    return;
  }
  endpoints_[actor->id()] = std::move(ep);
}

void Network::Unregister(ActorId id) {
  if (psim_ != nullptr) {
    loop_endpoints_[loop_of_fn_(id)].erase(id);
    return;
  }
  endpoints_.erase(id);
}

void Network::AttachServer(ActorId id, ServerResource* server,
                           CostFn cost_fn) {
  auto& eps =
      psim_ != nullptr ? loop_endpoints_[loop_of_fn_(id)] : endpoints_;
  auto it = eps.find(id);
  assert(it != eps.end() && "attach server to unregistered actor");
  it->second.server = server;
  it->second.cost_fn = std::move(cost_fn);
}

void Network::EnableParallel(ParallelSimulator* psim,
                             std::function<int(ActorId)> loop_of,
                             std::vector<Simulator*> loop_sims) {
  assert(psim != nullptr && psim_ == nullptr);
  // Fault injection mutates shared maps and is excluded from parallel
  // runs (the chaos engine pins its scenarios on the serial engine).
  assert(disabled_links_.empty() && isolated_.empty() &&
         link_rules_.empty() && partitioned_regions_.empty() &&
         actor_delays_.empty() && "fault injection requires sim_threads=0");
  psim_ = psim;
  loop_of_fn_ = std::move(loop_of);
  loop_sims_ = std::move(loop_sims);
  const int n = psim_->num_loops();
  assert(static_cast<int>(loop_sims_.size()) == n);
  loop_endpoints_.resize(n);
  loop_net_.reserve(n);
  // Per-loop rng streams forked in loop order from the (so far unused)
  // serial network rng — deterministic for a fixed seed and loop count.
  for (int i = 0; i < n; ++i) {
    loop_net_.emplace_back(rng_.Fork(0x9a90 + static_cast<uint64_t>(i)));
  }
  // Shard the statically-registered endpoints by loop and snapshot their
  // regions for cross-loop destination resolution.
  for (auto& [id, ep] : endpoints_) {
    static_regions_.emplace(id, ep.region);
    loop_endpoints_[loop_of_fn_(id)][id] = std::move(ep);
  }
  endpoints_.clear();
}

uint64_t Network::LinkKey(ActorId a, ActorId b) {
  ActorId lo = std::min(a, b);
  ActorId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

uint64_t Network::RegionKey(RegionId a, RegionId b) {
  RegionId lo = std::min(a, b);
  RegionId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void Network::SetLinkEnabled(ActorId a, ActorId b, bool enabled) {
  assert(psim_ == nullptr && "fault injection requires sim_threads=0");
  if (enabled) {
    disabled_links_.erase(LinkKey(a, b));
  } else {
    disabled_links_.insert(LinkKey(a, b));
  }
}

void Network::SetIsolated(ActorId id, bool isolated) {
  assert(psim_ == nullptr && "fault injection requires sim_threads=0");
  if (isolated) {
    isolated_.insert(id);
  } else {
    isolated_.erase(id);
  }
}

void Network::SetLinkRule(ActorId a, ActorId b, const LinkRule& rule) {
  link_rules_[LinkKey(a, b)] = rule;
}

void Network::ClearLinkRule(ActorId a, ActorId b) {
  link_rules_.erase(LinkKey(a, b));
}

void Network::SetRegionPartition(RegionId a, RegionId b, bool partitioned) {
  if (partitioned) {
    partitioned_regions_.insert(RegionKey(a, b));
  } else {
    partitioned_regions_.erase(RegionKey(a, b));
  }
}

void Network::SetActorDelay(ActorId id, SimDuration delay) {
  if (delay <= 0) {
    actor_delays_.erase(id);
  } else {
    actor_delays_[id] = delay;
  }
}

void Network::SetDeliveryObserver(DeliveryObserver observer) {
  observer_ = std::move(observer);
}

RegionId Network::RegionOf(ActorId id) const {
  if (psim_ != nullptr) {
    const auto& eps = loop_endpoints_[loop_of_fn_(id)];
    auto it = eps.find(id);
    assert(it != eps.end());
    return it->second.region;
  }
  auto it = endpoints_.find(id);
  assert(it != endpoints_.end());
  return it->second.region;
}

Network::Verdict Network::DecideDelivery(ActorId from, ActorId to,
                                         RegionId from_region,
                                         RegionId to_region, Rng* rng) {
  // Each pair key is built and hashed at most once per send, and the
  // fault-state maps — empty in every fault-free run — are only probed
  // when they hold entries. The rng draw order is unchanged, so verdicts
  // (and therefore every scenario digest) are identical to the
  // double-lookup version.
  Verdict verdict;
  const uint64_t link = LinkKey(from, to);
  if (!isolated_.empty() &&
      (isolated_.contains(from) || isolated_.contains(to))) {
    verdict.deliver = false;
    return verdict;
  }
  if (!disabled_links_.empty() && disabled_links_.contains(link)) {
    verdict.deliver = false;
    return verdict;
  }
  if (!partitioned_regions_.empty() &&
      partitioned_regions_.contains(RegionKey(from_region, to_region))) {
    verdict.deliver = false;
    return verdict;
  }
  double drop_p = config_.drop_probability;
  double dup_p = config_.duplicate_probability;
  if (!link_rules_.empty()) {
    auto rule_it = link_rules_.find(link);
    if (rule_it != link_rules_.end()) {
      // Independent loss sources compose: the message survives only if it
      // dodges both the global and the per-link drop coin.
      drop_p = 1.0 - (1.0 - drop_p) * (1.0 - rule_it->second.drop_probability);
      dup_p =
          1.0 - (1.0 - dup_p) * (1.0 - rule_it->second.duplicate_probability);
      verdict.extra_delay += rule_it->second.extra_delay;
    }
  }
  if (drop_p > 0 && rng->Bernoulli(drop_p)) {
    verdict.deliver = false;
    return verdict;
  }
  if (dup_p > 0 && rng->Bernoulli(dup_p)) {
    verdict.copies = 2;
  }
  if (!actor_delays_.empty()) {
    auto skew_from = actor_delays_.find(from);
    if (skew_from != actor_delays_.end()) {
      verdict.extra_delay += skew_from->second;
    }
    auto skew_to = actor_delays_.find(to);
    if (skew_to != actor_delays_.end()) {
      verdict.extra_delay += skew_to->second;
    }
  }
  return verdict;
}

void Network::Send(ActorId from, ActorId to, MessagePtr message,
                   size_t wire_bytes) {
  if (psim_ != nullptr) {
    // An actor always sends from its own loop's execution context.
    const int cur = psim_->CurrentLoop();
    assert(loop_of_fn_(from) == cur && "sender executing on a foreign loop");
    auto& eps = loop_endpoints_[cur];
    auto from_it = eps.find(from);
    if (from_it == eps.end()) {
      LoopNet& ln = loop_net_[cur];
      ++ln.sent;
      ln.bytes += wire_bytes;
      ++ln.dropped;
      return;
    }
    SendFromParallel(from, from_it->second.region, to, message, wire_bytes);
    return;
  }
  auto from_it = endpoints_.find(from);
  if (from_it == endpoints_.end()) {
    ++messages_sent_;
    bytes_sent_ += wire_bytes;
    ++messages_dropped_;
    return;
  }
  SendFrom(from, from_it->second.region, to, message, wire_bytes);
}

void Network::SendFromParallel(ActorId from, RegionId from_region, ActorId to,
                               const MessagePtr& message, size_t wire_bytes) {
  const int cur = psim_->CurrentLoop();
  LoopNet& ln = loop_net_[cur];
  ++ln.sent;
  ln.bytes += wire_bytes;

  const int dst = loop_of_fn_(to);
  RegionId to_region;
  if (dst == cur) {
    auto it = loop_endpoints_[cur].find(to);
    if (it == loop_endpoints_[cur].end()) {
      ++ln.dropped;
      return;
    }
    to_region = it->second.region;
  } else {
    // Cross-loop destinations are always statically placed (clients,
    // sources, coordinator group, shim, verifier, storage); executors
    // only ever talk within their own plane.
    auto it = static_regions_.find(to);
    if (it == static_regions_.end()) {
      ++ln.dropped;
      return;
    }
    to_region = it->second;
  }

  Verdict verdict = DecideDelivery(from, to, from_region, to_region, &ln.rng);
  if (!verdict.deliver) {
    ++ln.dropped;
    return;
  }

  double tx_seconds = static_cast<double>(wire_bytes) * 8.0 /
                      (config_.bandwidth_gbps * 1e9);
  SimDuration delay = Seconds(tx_seconds) +
                      regions_.OneWay(from_region, to_region) +
                      verdict.extra_delay;
  if (config_.jitter_max > 0) {
    delay += static_cast<SimDuration>(
        ln.rng.Uniform(static_cast<uint64_t>(config_.jitter_max)));
  }

  Simulator* src_sim = loop_sims_[cur];
  Envelope env;
  env.from = from;
  env.to = to;
  env.sent_at = src_sim->now();
  env.wire_bytes = wire_bytes;
  env.message = message;

  for (int c = 0; c < verdict.copies; ++c) {
    SimDuration copy_delay = delay;
    if (c > 0 && config_.jitter_max > 0) {
      copy_delay += static_cast<SimDuration>(
          ln.rng.Uniform(static_cast<uint64_t>(config_.jitter_max)));
    }
    Envelope copy_env = c + 1 == verdict.copies ? std::move(env) : env;
    if (dst == cur) {
      src_sim->Schedule(
          copy_delay, [this, src_sim, env = std::move(copy_env)]() mutable {
            env.delivered_at = src_sim->now();
            Deliver(std::move(env));
          });
    } else {
      ++ln.cross;
      // The natural delay already clears the floor (propagation alone is
      // >= CrossLoopFloor for home-region pairs); the max() makes the
      // engine's safety contract explicit rather than inferred.
      if (copy_delay < psim_->lookahead()) copy_delay = psim_->lookahead();
      Simulator* dst_sim = loop_sims_[dst];
      psim_->Post(dst, src_sim->now() + copy_delay,
                  [this, dst_sim, env = std::move(copy_env)]() mutable {
                    env.delivered_at = dst_sim->now();
                    Deliver(std::move(env));
                  });
    }
  }
}

void Network::SendFrom(ActorId from, RegionId from_region, ActorId to,
                       const MessagePtr& message, size_t wire_bytes) {
  if (psim_ != nullptr) {
    SendFromParallel(from, from_region, to, message, wire_bytes);
    return;
  }
  ++messages_sent_;
  bytes_sent_ += wire_bytes;

  // The receiving region is resolved at send time; if the receiver
  // vanishes before arrival the message is dropped at delivery.
  auto to_it = endpoints_.find(to);
  if (to_it == endpoints_.end()) {
    ++messages_dropped_;
    return;
  }
  Verdict verdict = DecideDelivery(from, to, from_region,
                                   to_it->second.region, &rng_);
  if (!verdict.deliver) {
    ++messages_dropped_;
    return;
  }

  double tx_seconds = static_cast<double>(wire_bytes) * 8.0 /
                      (config_.bandwidth_gbps * 1e9);
  SimDuration delay = Seconds(tx_seconds) +
                      regions_.OneWay(from_region, to_it->second.region) +
                      verdict.extra_delay;
  if (config_.jitter_max > 0) {
    delay += static_cast<SimDuration>(
        rng_.Uniform(static_cast<uint64_t>(config_.jitter_max)));
  }

  Envelope env;
  env.from = from;
  env.to = to;
  env.sent_at = sim_->now();
  env.wire_bytes = wire_bytes;
  env.message = message;

  for (int c = 0; c < verdict.copies; ++c) {
    SimDuration copy_delay = delay;
    if (c > 0 && config_.jitter_max > 0) {
      copy_delay += static_cast<SimDuration>(
          rng_.Uniform(static_cast<uint64_t>(config_.jitter_max)));
    }
    // The last (usually only) copy moves the envelope into the event,
    // saving a shared_ptr refcount round-trip per delivery.
    Envelope copy_env =
        c + 1 == verdict.copies ? std::move(env) : env;
    sim_->Schedule(copy_delay, [this, env = std::move(copy_env)]() mutable {
      env.delivered_at = sim_->now();
      Deliver(std::move(env));
    });
  }
}

void Network::Broadcast(ActorId from, const std::vector<ActorId>& targets,
                        ActorId skip, MessagePtr message, size_t wire_bytes) {
  // The sender endpoint (and with it the sending region) is resolved once
  // for the whole fan-out; `wire_bytes` is likewise computed once by the
  // caller (typically from the message's memoized serialization) instead
  // of per target.
  if (psim_ != nullptr) {
    const int cur = psim_->CurrentLoop();
    assert(loop_of_fn_(from) == cur && "sender executing on a foreign loop");
    auto& eps = loop_endpoints_[cur];
    auto it = eps.find(from);
    if (it == eps.end()) {
      LoopNet& ln = loop_net_[cur];
      for (ActorId to : targets) {
        if (to == kInvalidActor || to == skip) continue;
        ++ln.sent;
        ln.bytes += wire_bytes;
        ++ln.dropped;
      }
      return;
    }
    for (ActorId to : targets) {
      if (to == kInvalidActor || to == skip) continue;
      SendFromParallel(from, it->second.region, to, message, wire_bytes);
    }
    return;
  }
  auto from_it = endpoints_.find(from);
  if (from_it == endpoints_.end()) {
    // Unregistered sender: every copy still counts as sent-and-dropped,
    // matching Send()'s accounting.
    for (ActorId to : targets) {
      if (to == kInvalidActor || to == skip) continue;
      ++messages_sent_;
      bytes_sent_ += wire_bytes;
      ++messages_dropped_;
    }
    return;
  }
  for (ActorId to : targets) {
    if (to == kInvalidActor || to == skip) continue;
    SendFrom(from, from_it->second.region, to, message, wire_bytes);
  }
}

void Network::DeliverParallel(Envelope env) {
  // Delivery executes on the destination loop's thread (same-loop
  // Schedule or cross-loop mailbox), so the loop-local endpoint map and
  // counters are safe to touch without synchronization.
  const int cur = psim_->CurrentLoop();
  LoopNet& ln = loop_net_[cur];
  auto& eps = loop_endpoints_[cur];
  auto it = eps.find(env.to);
  if (it == eps.end()) {
    ++ln.dropped;
    return;
  }
  ++ln.delivered;
  Dispatch(it->second, std::move(env), cur);
}

uint64_t Network::messages_sent() const {
  uint64_t total = messages_sent_;
  for (const LoopNet& ln : loop_net_) total += ln.sent;
  return total;
}

uint64_t Network::messages_delivered() const {
  uint64_t total = messages_delivered_;
  for (const LoopNet& ln : loop_net_) total += ln.delivered;
  return total;
}

uint64_t Network::messages_dropped() const {
  uint64_t total = messages_dropped_;
  for (const LoopNet& ln : loop_net_) total += ln.dropped;
  return total;
}

uint64_t Network::bytes_sent() const {
  uint64_t total = bytes_sent_;
  for (const LoopNet& ln : loop_net_) total += ln.bytes;
  return total;
}

uint64_t Network::cross_loop_messages() const {
  uint64_t total = 0;
  for (const LoopNet& ln : loop_net_) total += ln.cross;
  return total;
}

void Network::Deliver(Envelope env) {
  if (psim_ != nullptr) {
    DeliverParallel(std::move(env));
    return;
  }
  auto it = endpoints_.find(env.to);
  if (it == endpoints_.end() ||
      (!isolated_.empty() && isolated_.contains(env.to))) {
    ++messages_dropped_;
    return;
  }
  ++messages_delivered_;
  Dispatch(it->second, std::move(env), -1);
}

Network::Endpoint* Network::FindEndpoint(int loop, ActorId id) {
  auto& eps = loop >= 0 ? loop_endpoints_[loop] : endpoints_;
  auto it = eps.find(id);
  return it == eps.end() ? nullptr : &it->second;
}

void Network::Dispatch(Endpoint& ep, Envelope env, int loop) {
  // The observer is a serial-engine hook (loop < 0): parallel loops
  // would call it from several threads.
  if (ep.server == nullptr) {
    ep.actor->OnMessage(env);
    if (loop < 0 && observer_) observer_(env);
    return;
  }
  JobCost cost = ep.cost_fn ? ep.cost_fn(env) : JobCost{};
  ActorId to = env.to;
  const bool coalesces = cost.job_class != 0;
  ep.server->Submit(cost, [this, loop, to, coalesces, env = std::move(env)]() {
    // Re-resolve: the actor may have unregistered while queued.
    Endpoint* target = FindEndpoint(loop, to);
    if (target == nullptr) return;
    if (!coalesces) {
      target->actor->OnMessage(env);
      if (loop < 0 && observer_) observer_(env);
      return;
    }
    // A merged job's callbacks gather their envelopes; the last one
    // delivers them together, in arrival order.
    target->batch.push_back(env);
    if (target->server->batch_remaining() > 0) return;
    std::vector<Envelope> batch;
    batch.swap(target->batch);
    target->actor->OnMessageBatch(batch);
    if (loop < 0 && observer_) {
      for (const Envelope& delivered : batch) observer_(delivered);
    }
  });
}

}  // namespace sbft::sim
