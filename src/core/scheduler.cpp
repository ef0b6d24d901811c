// The scheduler core and its policy registry. The core runs the queue
// protocol once for every policy; a policy is one row of `kPolicies`: its
// names, an admission rule, a queue order and a release order. One table
// feeds `make_scheduler`, `scheduler_names()` and the bench policy sweeps,
// so they can never drift apart; the conformance suite
// (tests/scheduler_conformance_test.cpp) parameterizes over
// `scheduler_names()`, so a new row inherits the full queue-protocol
// invariant coverage for free.
#include "core/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/log.hpp"

namespace hyflow::core {

namespace {

// An admission rule's verdict on a conflicting requester: abort, abort with
// a stall, or park at `rank` (read only by kByRank queues).
struct Admission {
  ConflictAction action = ConflictAction::kAbort;
  SimDuration stall = 0;
  std::uint64_t rank = 0;
};

constexpr Admission kDeny{};

Admission park(std::uint64_t rank = 0) { return {ConflictAction::kEnqueue, 0, rank}; }

// The requester's expected remaining execution, ETS.c - ETS.r, clamped.
SimDuration expected_rest(const SchedulerConfig& cfg, const ConflictContext& ctx) {
  return std::clamp<SimDuration>(ctx.request.ets.expected_commit - ctx.request.ets.request,
                                 cfg.min_backoff, cfg.max_backoff);
}

// Rules see the conflict and the object's queue after the requester's stale
// entry is gone; only Karma reads or writes its ledger.
using AdmitFn = Admission (*)(const SchedulerConfig& cfg, KarmaLedger& karma,
                              const ConflictContext& ctx, const RequesterList& list);

// rts — the paper's Reactive Transactional Scheduler (Alg. 3). A losing
// parent is aborted when it has run for less time than it would wait (a
// short transaction loses less by restarting), or when the contention level
// has reached the threshold (enqueuing then only lengthens the convoy).
// Otherwise it parks and keeps every object it fetched and the commits of
// its closed-nested children. Contention is `reqlist.getContention() +
// myCL`, the requester's summed local CLs piggy-backed on fetch responses.
Admission admit_rts(const SchedulerConfig& cfg, KarmaLedger&, const ConflictContext& ctx,
                    const RequesterList& list) {
  // Alg. 3 line 11 / Fig. 3: wait ahead = validator remaining + bk.
  const SimDuration exec_so_far = ctx.request.ets.request - ctx.request.ets.start;
  if (ctx.validator_remaining + list.bk() >= exec_so_far) return kDeny;
  // Alg. 3 lines 12-13.
  if (list.contention() + ctx.request.requester_cl >= cfg.cl_threshold) return kDeny;
  return park();
}

// tfa — plain TFA: the requester aborts and retries at once, re-fetching
// every object of the parent and of its nested transactions (§IV-C).
Admission admit_never(const SchedulerConfig&, KarmaLedger&, const ConflictContext&,
                      const RequesterList&) {
  return kDeny;
}

// backoff — TFA+Backoff (§IV-C): the requester aborts and stalls for its
// expected remaining execution before it restarts and re-fetches.
Admission admit_backoff(const SchedulerConfig& cfg, KarmaLedger&, const ConflictContext& ctx,
                        const RequesterList&) {
  return {ConflictAction::kAbortWithStall, expected_rest(cfg, ctx)};
}

// bi-interval — the authors' prior scheduler (ref [17], after BIMODAL):
// every conflicting requester parks, bounded only by a cap that reuses
// `cl_threshold`; no execution-time or CL rule, which is RTS's contribution.
Admission admit_bi_interval(const SchedulerConfig& cfg, KarmaLedger&, const ConflictContext&,
                            const RequesterList& list) {
  return list.size() >= cfg.cl_threshold ? kDeny : park();
}

// greedy — Guerraoui, Herlihy & Pochon (PODC 2005): the oldest first
// attempt (ETS.s survives aborts) is served first. The validator cannot be
// aborted, so age decides where the requester waits; past the cap it aborts
// and retries with its timestamp intact. This is the baseline of Sharma &
// Busch's competitive analysis.
Admission admit_greedy(const SchedulerConfig& cfg, KarmaLedger&, const ConflictContext& ctx,
                       const RequesterList& list) {
  if (list.size() >= cfg.max_queue) return kDeny;
  return park(static_cast<std::uint64_t>(ctx.request.ets.start));
}

// Polka's stall: a uniform draw from a window doubling per consecutive loss.
SimDuration polka_stall(const SchedulerConfig& cfg, Xoshiro256& rng, std::uint32_t losses) {
  const std::uint32_t exponent = std::min<std::uint32_t>(losses, 10);
  const SimDuration window = std::min<SimDuration>(cfg.min_backoff << exponent, cfg.max_backoff);
  const auto lo = static_cast<std::uint64_t>(cfg.min_backoff);
  const auto hi = static_cast<std::uint64_t>(std::max<SimDuration>(window, cfg.min_backoff));
  return static_cast<SimDuration>(lo + rng.below(hi - lo + 1));
}

// karma — Karma/Polka (Scherer & Scott, PODC 2005). Priority is the work
// invested since the first attempt (ETS.r - ETS.s), plus one handoff_slack
// of karma per consecutive loss. A requester parks, biggest investment
// first, if it clears the smallest investment queued (the tail of the
// sorted queue); otherwise it aborts with Polka's randomized stall and
// gains karma. The streak is forgotten on a win.
Admission admit_karma(const SchedulerConfig& cfg, KarmaLedger& karma, const ConflictContext& ctx,
                      const RequesterList& list) {
  const KarmaLedger::Key key{ctx.requester_node, ctx.request.ets.start};
  const auto streak = karma.losses.find(key);
  const std::uint32_t losses = streak == karma.losses.end() ? 0 : streak->second;
  const SimDuration invested = ctx.request.ets.request - ctx.request.ets.start +
                               static_cast<SimDuration>(losses) * cfg.handoff_slack;
  // Lower rank is served first, so the rank is the inverted investment.
  const std::uint64_t rank = ~static_cast<std::uint64_t>(std::max<SimDuration>(invested, 0));
  if (list.size() >= cfg.max_queue || (!list.empty() && rank > list.tail_priority())) {
    if (karma.losses.size() > 4096) karma.losses.clear();  // crude bound; streaks re-learn
    karma.losses[key] = losses + 1;
    return {ConflictAction::kAbortWithStall, polka_stall(cfg, karma.rng, losses + 1)};
  }
  karma.losses.erase(key);
  return park(rank);
}

// steal-on-abort — Ansari et al. (HiPEAC 2009): every conflicting requester
// parks FIFO up to the cap, with no heuristics. When the winner commits, the
// queue travels with the object and lands behind whatever the winner's node
// parked meanwhile: the stolen requesters wait for the winner instead of
// retrying blind.
Admission admit_steal_on_abort(const SchedulerConfig& cfg, KarmaLedger&, const ConflictContext&,
                               const RequesterList& list) {
  return list.size() >= cfg.max_queue ? kDeny : park();
}

}  // namespace

struct SchedulerPolicy {
  const char* name;   // canonical: scheduler_names(), --scheduler
  const char* alias;  // nullptr = none
  const char* label;  // what name() reports, when not `name`
  AdmitFn admit;
  QueueOrder queue;
  ReleaseOrder release;
};

namespace {

// Bench-sweep order: the paper's three, then the extension baselines and
// the classic contention-manager challengers.
constexpr SchedulerPolicy kPolicies[] = {
    {"rts", nullptr, nullptr, admit_rts, QueueOrder::kFifo, ReleaseOrder::kHeadGroup},
    {"tfa", nullptr, nullptr, admit_never, QueueOrder::kFifo, ReleaseOrder::kHeadGroup},
    {"backoff", "tfa+backoff", "tfa+backoff", admit_backoff, QueueOrder::kFifo,
     ReleaseOrder::kHeadGroup},
    {"bi-interval", "bi", nullptr, admit_bi_interval, QueueOrder::kFifo,
     ReleaseOrder::kReadersFirst},
    {"greedy", nullptr, nullptr, admit_greedy, QueueOrder::kByRank, ReleaseOrder::kHeadGroup},
    {"karma", "polka", nullptr, admit_karma, QueueOrder::kByRank, ReleaseOrder::kHeadGroup},
    {"steal-on-abort", "steal", nullptr, admit_steal_on_abort, QueueOrder::kFifo,
     ReleaseOrder::kHeadGroup},
};

const SchedulerPolicy* find_policy(const std::string& kind) {
  for (const auto& p : kPolicies) {
    if (kind == p.name || (p.alias && kind == p.alias)) return &p;
  }
  return nullptr;
}

}  // namespace

Scheduler::Scheduler(const SchedulerConfig& cfg, const SchedulerPolicy& policy)
    : cfg_(cfg), policy_(policy) {}

const char* Scheduler::name() const { return policy_.label ? policy_.label : policy_.name; }

ConflictDecision Scheduler::on_conflict(const ConflictContext& ctx) {
  return table_.with_list(ctx.oid, [&](RequesterList& list) -> ConflictDecision {
    // Alg. 3 line 10: a requester whose backoff expired re-requests as a
    // new transaction attempt; purge its stale queue entry first.
    list.remove_duplicate(ctx.request.txid);
    const Admission admission = policy_.admit(cfg_, karma_, ctx, list);
    if (admission.action != ConflictAction::kEnqueue) return {admission.action, admission.stall};

    // Alg. 3 lines 14-16: the parked requester waits out the validator's
    // remaining validation (|t7 - t4| in Fig. 3), the expected execution of
    // everything queued (`bk`) and the hand-off hops; its own expected
    // remainder joins `bk`, so the next arrival waits behind it too (Fig. 3:
    // T5's backoff = |t7 - t5| + expected execution of T4).
    const SimDuration backoff = ctx.validator_remaining + list.bk() + cfg_.handoff_slack;
    list.add_bk(expected_rest(cfg_, ctx));
    const std::uint32_t contention = list.contention() + ctx.request.requester_cl;
    list.insert(policy_.queue, contention,
                net::QueuedRequester{ctx.requester_node, ctx.request.txid, ctx.request_msg_id,
                                     ctx.request.mode, contention, admission.rank});
    HYFLOW_DEBUG(name(), ": enqueue txn ", ctx.request.txid.value, " on object ", ctx.oid.value,
                 " backoff_ns=", backoff, " contention=", contention);
    return {ConflictAction::kEnqueue, backoff};
  });
}

std::vector<net::QueuedRequester> Scheduler::on_object_available(ObjectId oid) {
  return table_.release(oid, policy_.release);
}

std::vector<net::QueuedRequester> Scheduler::extract_queue(ObjectId oid) {
  return table_.drain(oid);
}

void Scheduler::absorb_queue(ObjectId oid, std::vector<net::QueuedRequester> queue) {
  if (queue.empty()) return;
  // FIFO queues append the inherited requesters behind the ones parked
  // here (steal-on-abort's "behind the winners"); ranked queues merge them.
  table_.with_list(oid, [&](RequesterList& list) {
    for (auto& r : queue) {
      list.remove_duplicate(r.txid);
      list.insert(policy_.queue, std::max(list.contention(), r.contention), std::move(r));
    }
    return 0;
  });
}

void Scheduler::remove_requester(ObjectId oid, TxnId txid) { table_.remove(oid, txid); }

std::size_t Scheduler::queue_depth(ObjectId oid) const { return table_.depth(oid); }

std::size_t Scheduler::total_queued() const { return table_.total_queued(); }

std::uint32_t Scheduler::loss_streak(NodeId node, SimTime ets_start) const {
  return table_.locked([&] {
    const auto it = karma_.losses.find(KarmaLedger::Key{node, ets_start});
    return it == karma_.losses.end() ? 0u : it->second;
  });
}

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& cfg) {
  if (const SchedulerPolicy* policy = find_policy(cfg.kind)) {
    return std::make_unique<Scheduler>(cfg, *policy);
  }
  // A misspelled policy silently falling back to some default would corrupt
  // every result labelled with the requested name — die loudly instead,
  // with the menu.
  std::fprintf(stderr, "unknown scheduler kind '%s'; valid kinds:", cfg.kind.c_str());
  for (const auto& p : kPolicies) {
    std::fprintf(stderr, " %s", p.name);
    if (p.alias) std::fprintf(stderr, " (alias: %s)", p.alias);
  }
  std::fprintf(stderr, "\n");
  std::fflush(stderr);
  std::abort();
}

std::vector<std::string> scheduler_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kPolicies));
  for (const auto& p : kPolicies) names.emplace_back(p.name);
  return names;
}

std::string canonical_scheduler_name(const std::string& kind) {
  const SchedulerPolicy* p = find_policy(kind);
  return p ? p->name : "";
}

}  // namespace hyflow::core
