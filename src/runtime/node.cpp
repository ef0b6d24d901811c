#include "runtime/node.hpp"

namespace hyflow::runtime {

Node::Node(NodeId id, net::Network& network, const core::SchedulerConfig& scheduler)
    : id_(id),
      network_(network),
      contention_(scheduler.contention_window),
      scheduler_(core::make_scheduler(scheduler)),
      resolver_(*this, store_, directory_) {
  runtime_ = std::make_unique<tfa::TfaRuntime>(*this, store_, directory_, resolver_,
                                               *scheduler_, contention_, stats_, clock_,
                                               metrics_);
}

net::Message Node::envelope(NodeId to, net::Payload payload) const {
  net::Message m;
  m.from = id_;
  m.to = to;
  m.sender_clock = clock_.read();
  m.payload = std::move(payload);
  return m;
}

net::RequestCall Node::request(NodeId to, net::Payload payload) {
  const std::uint64_t id = network_.allocate_msg_id();
  auto call = pending_.open(id);
  net::Message m = envelope(to, payload);
  m.msg_id = id;
  network_.send(std::move(m));
  return net::RequestCall(*this, pending_, std::move(call), id, to, std::move(payload));
}

void Node::post(NodeId to, net::Payload payload) {
  network_.send(envelope(to, std::move(payload)));
}

void Node::reply(const net::Message& request, net::Payload payload) {
  // Remember the reply so a retried/duplicated request replays it instead
  // of re-executing the handler (a replayed CommitRequest must hand back
  // the queue captured at the real hand-over, not current state).
  reply_cache_.record_reply(request.msg_id, payload);
  net::Message m = envelope(request.from, std::move(payload));
  m.reply_to = request.msg_id;
  network_.send(std::move(m));
}

void Node::reply_routed(NodeId to, std::uint64_t reply_to, net::Payload payload) {
  net::Message m = envelope(to, std::move(payload));
  m.reply_to = reply_to;
  network_.send(std::move(m));
}

void Node::resend(NodeId to, std::uint64_t msg_id, std::uint32_t attempt,
                  net::Payload payload) {
  metrics_.add_rpc_retry();
  net::Message m = envelope(to, std::move(payload));
  m.msg_id = msg_id;    // same id: replies of any attempt match the call
  m.attempt = attempt;  // new ordinal: the fault injector re-rolls its dice
  network_.send(std::move(m));
}

void Node::handle_message(net::Message msg) {
  clock_.advance_to(msg.sender_clock);  // Lamport receive rule
  if (msg.reply_to != 0) {
    if (!pending_.deliver(msg)) runtime_->handle_orphan_reply(msg);
    return;
  }
  const auto seen = reply_cache_.admit(msg.msg_id);
  if (seen.duplicate) {
    // Retry or network duplicate of a request already executed: never run
    // the handler twice — replay the recorded reply, or swallow a one-way.
    metrics_.add_dedup_hit();
    if (seen.reply) {
      net::Message m = envelope(msg.from, *seen.reply);
      m.reply_to = msg.msg_id;
      network_.send(std::move(m));
    }
    return;
  }
  runtime_->handle_request(msg);
}

void Node::close_pending() { pending_.close_all(); }

}  // namespace hyflow::runtime
