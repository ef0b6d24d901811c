#include "net/comm.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace hyflow::net {

SimDuration retry_timeout(int attempt, std::uint64_t msg_id) {
  SimDuration t = kRetryBaseTimeout;
  for (int i = 0; i < attempt && t < kRetryMaxTimeout; ++i) t *= 2;
  t = std::min(t, kRetryMaxTimeout);
  // +-25% deterministic jitter keyed by (msg_id, attempt).
  const std::uint64_t bits = mix64(msg_id * 31 + static_cast<std::uint64_t>(attempt));
  const double u = static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
  const double factor = 0.75 + 0.5 * u;
  return std::max<SimDuration>(1, static_cast<SimDuration>(static_cast<double>(t) * factor));
}

std::optional<Message> RequestCall::await(int budget) {
  const int max_resends = kMaxResends * budget;
  for (int attempt = 0;; ++attempt) {
    auto reply = poll_for(retry_timeout(attempt, msg_id_));
    if (reply || closed() || attempt == max_resends) return reply;
    comm_->resend(to_, msg_id_, static_cast<std::uint32_t>(attempt + 1), payload_);
  }
}

}  // namespace hyflow::net
