// Node-local communication facade used by the protocol layers (dsm
// coherence, TFA runtime). runtime::Node implements it by combining the
// Network, the node's PendingCalls registry, and its TFA logical clock
// (stamped on every outgoing envelope for Lamport synchronisation).
//
// RequestCall is the RAII handle for an outstanding request: it keeps the
// request's destination and payload, so await() can re-send it on each
// timeout until a reply lands; the destructor deregisters the call, after
// which late replies become orphans.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "net/message.hpp"
#include "net/rpc.hpp"

namespace hyflow::net {

// Retry schedule for idempotent requests: capped exponential timeouts with
// deterministic per-attempt jitter. Every resend reuses the original msg_id,
// so the pending call keeps matching whichever attempt's reply lands first
// and the receiver can deduplicate by id.
inline constexpr SimDuration kRetryBaseTimeout = sim_ms(8);
inline constexpr SimDuration kRetryMaxTimeout = sim_ms(50);
inline constexpr int kMaxResends = 6;  // per await() budget unit

// Timeout for `attempt` (0-based), jittered +-25% by the request id so
// simultaneous retry storms de-synchronise deterministically.
SimDuration retry_timeout(int attempt, std::uint64_t msg_id);

class Comm;

class RequestCall {
 public:
  RequestCall(Comm& comm, PendingCalls& registry, PendingCalls::CallPtr call,
              std::uint64_t msg_id, NodeId to, Payload payload)
      : comm_(&comm),
        registry_(&registry),
        call_(std::move(call)),
        msg_id_(msg_id),
        to_(to),
        payload_(std::move(payload)) {}

  RequestCall(const RequestCall&) = delete;
  RequestCall& operator=(const RequestCall&) = delete;
  RequestCall(RequestCall&& other) noexcept
      : comm_(other.comm_),
        registry_(std::exchange(other.registry_, nullptr)),
        call_(std::move(other.call_)),
        msg_id_(other.msg_id_),
        to_(other.to_),
        payload_(std::move(other.payload_)) {}

  ~RequestCall() {
    if (registry_) registry_->done(msg_id_);
  }

  std::uint64_t id() const { return msg_id_; }

  // Waits for the next reply, re-sending the request under its id after
  // each retry_timeout(), for up to `budget` * kMaxResends resends (phases
  // that must not give up early pass a larger budget). Returns nullopt once
  // the budget is spent or the registry was closed — closed() tells which.
  // Only valid for idempotent requests: the receiver may execute the request
  // more than once if its reply cache has aged the entry out.
  std::optional<Message> await(int budget = 1);

  // Waits up to `timeout` for the next reply without re-sending; the call
  // stays registered either way.
  std::optional<Message> poll_for(SimDuration timeout) {
    return registry_->wait(call_, timeout);
  }

  // True once close_all() hit this call — distinguishes "cluster shutting
  // down" from "reply genuinely lost" when a wait returns nothing.
  bool closed() const {
    MutexLock lk(call_->mu);
    return call_->closed;
  }

 private:
  Comm* comm_;
  PendingCalls* registry_;
  PendingCalls::CallPtr call_;
  std::uint64_t msg_id_;
  NodeId to_;
  Payload payload_;
};

class Comm {
 public:
  virtual ~Comm() = default;

  virtual NodeId self() const = 0;
  virtual std::uint32_t cluster_size() const = 0;

  // Sends a request and returns the handle for its reply/replies.
  virtual RequestCall request(NodeId to, Payload payload) = 0;

  // One-way message (no reply expected).
  virtual void post(NodeId to, Payload payload) = 0;

  // Replies to a received request.
  virtual void reply(const Message& request, Payload payload) = 0;

  // Replies to a request that was *not* received by this node: the queued
  // object hand-off, where the committer answers an ObjectRequest that was
  // parked at the previous owner.
  virtual void reply_routed(NodeId to, std::uint64_t reply_to, Payload payload) = 0;

  // Re-sends a request under its ORIGINAL msg_id (the pending call stays
  // registered; the receiver's reply cache deduplicates re-execution).
  // `attempt` is the retransmission ordinal (1 = first resend); the fault
  // injector keys on it so retries of a dropped message roll new dice.
  virtual void resend(NodeId to, std::uint64_t msg_id, std::uint32_t attempt,
                      Payload payload) = 0;
};

}  // namespace hyflow::net
