#ifndef SBFT_SIM_ACTOR_H_
#define SBFT_SIM_ACTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace sbft::sim {

/// Base class for typed protocol messages carried by Envelope. Concrete
/// message types (shim/message.h) derive from this; actors downcast based
/// on the message's own kind tag.
struct MessageBase {
  virtual ~MessageBase() = default;
};

/// Shared, immutable message payload.
using MessagePtr = std::shared_ptr<const MessageBase>;

/// \brief A message in flight or being delivered.
///
/// The structured payload is shared by pointer (the simulation is one
/// process); `wire_bytes` carries the size the message would occupy on the
/// wire so the network can model transmission delay and byte counters
/// honestly.
struct Envelope {
  ActorId from = kInvalidActor;
  ActorId to = kInvalidActor;
  SimTime sent_at = 0;
  SimTime delivered_at = 0;
  size_t wire_bytes = 0;
  MessagePtr message;
};

/// \brief A simulation participant (client, shim node, executor, verifier).
///
/// Actors receive messages via OnMessage after the network delay and —
/// when the actor is attached to a ServerResource — after queueing for and
/// consuming CPU on the receiving node.
class Actor {
 public:
  Actor(ActorId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  ActorId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Handles a delivered message.
  virtual void OnMessage(const Envelope& env) = 0;

  /// Handles the messages of one merged CPU job (ServerResource job
  /// coalescing), in arrival order. The default handles them one by one.
  virtual void OnMessageBatch(const std::vector<Envelope>& batch) {
    for (const Envelope& env : batch) OnMessage(env);
  }

 private:
  ActorId id_;
  std::string name_;
};

}  // namespace sbft::sim

#endif  // SBFT_SIM_ACTOR_H_
