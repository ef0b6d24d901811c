#include "core/requester_list.hpp"

#include <algorithm>

namespace hyflow::core {

void RequesterList::add(std::uint32_t contention, net::QueuedRequester requester) {
  contention_level_ = contention;
  queue_.push_back(std::move(requester));
}

void RequesterList::add_sorted(std::uint32_t contention, net::QueuedRequester requester) {
  contention_level_ = contention;
  const auto pos = std::find_if(queue_.begin(), queue_.end(),
                                [&](const net::QueuedRequester& r) {
                                  return r.priority > requester.priority;
                                });
  queue_.insert(pos, std::move(requester));
}

void RequesterList::insert(QueueOrder order, std::uint32_t contention,
                           net::QueuedRequester requester) {
  if (order == QueueOrder::kByRank) {
    add_sorted(contention, std::move(requester));
  } else {
    add(contention, std::move(requester));
  }
}

bool RequesterList::remove_duplicate(TxnId txid) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const net::QueuedRequester& r) { return r.txid == txid; });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  maybe_reset();
  return true;
}

std::vector<net::QueuedRequester> RequesterList::pop_head_group() {
  std::vector<net::QueuedRequester> group;
  if (queue_.empty()) return group;
  if (queue_.front().mode == net::AccessMode::kWrite) {
    group.push_back(std::move(queue_.front()));
    queue_.pop_front();
  } else {
    while (!queue_.empty() && queue_.front().mode == net::AccessMode::kRead) {
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  maybe_reset();
  return group;
}

std::vector<net::QueuedRequester> RequesterList::pop_readers_first() {
  std::stable_partition(queue_.begin(), queue_.end(), [](const net::QueuedRequester& r) {
    return r.mode == net::AccessMode::kRead;
  });
  return pop_head_group();
}

std::vector<net::QueuedRequester> RequesterList::drain() {
  std::vector<net::QueuedRequester> all(queue_.begin(), queue_.end());
  queue_.clear();
  maybe_reset();
  return all;
}

void RequesterList::maybe_reset() {
  if (queue_.empty()) {
    contention_level_ = 0;
    bk_ = 0;
  }
}

std::vector<net::QueuedRequester> SchedulingTable::release(ObjectId oid, ReleaseOrder order) {
  MutexLock lk(mu_);
  auto it = lists_.find(oid);
  if (it == lists_.end()) return {};
  auto group = order == ReleaseOrder::kReadersFirst ? it->second.pop_readers_first()
                                                    : it->second.pop_head_group();
  if (it->second.empty()) lists_.erase(it);
  return group;
}

std::vector<net::QueuedRequester> SchedulingTable::drain(ObjectId oid) {
  MutexLock lk(mu_);
  auto it = lists_.find(oid);
  if (it == lists_.end()) return {};
  auto all = it->second.drain();
  lists_.erase(it);
  return all;
}

bool SchedulingTable::remove(ObjectId oid, TxnId txid) {
  MutexLock lk(mu_);
  auto it = lists_.find(oid);
  if (it == lists_.end()) return false;
  const bool removed = it->second.remove_duplicate(txid);
  if (it->second.empty()) lists_.erase(it);
  return removed;
}

std::size_t SchedulingTable::depth(ObjectId oid) const {
  MutexLock lk(mu_);
  auto it = lists_.find(oid);
  return it == lists_.end() ? 0 : it->second.size();
}

std::size_t SchedulingTable::total_queued() const {
  MutexLock lk(mu_);
  std::size_t total = 0;
  for (const auto& [oid, list] : lists_) total += list.size();
  return total;
}

}  // namespace hyflow::core
