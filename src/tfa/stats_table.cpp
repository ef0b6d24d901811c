#include "tfa/stats_table.hpp"

#include "util/assert.hpp"

namespace hyflow::tfa {

StatsTable::StatsTable(SimDuration default_duration) : default_duration_(default_duration) {
  HYFLOW_ASSERT(default_duration > 0);
}

SimDuration StatsTable::expected_duration(std::uint32_t profile) const {
  MutexLock lk(mu_);
  auto it = entries_.find(profile);
  if (it == entries_.end() || !it->second.seeded()) return default_duration_;
  return static_cast<SimDuration>(it->second.value());
}

void StatsTable::record_commit(std::uint32_t profile, SimDuration duration) {
  if (duration <= 0) return;
  MutexLock lk(mu_);
  entries_[profile].add(static_cast<double>(duration));
}

std::size_t StatsTable::profile_count() const {
  MutexLock lk(mu_);
  return entries_.size();
}

}  // namespace hyflow::tfa
