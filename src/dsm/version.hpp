// Object versions under TFA.
//
// A version is the (logical) commit timestamp of the write that produced the
// copy, paired with the committing node for tie-breaking and debugging.
// Logical clocks are per-node Lamport-style counters advanced by TFA's
// forwarding rule, so version comparison is a plain integer comparison on
// `clock` — two distinct committed versions of the same object always differ
// because commit increments the committer's clock past every clock value it
// observed while validating.
#pragma once

#include <cstdint>

#include "dsm/object_id.hpp"

namespace hyflow {

struct Version {
  std::uint64_t clock = 0;   // committer's logical clock at commit
  NodeId writer = kInvalidNode;

  constexpr bool operator==(const Version&) const = default;
};

constexpr Version kInitialVersion{0, kInvalidNode};

// Outcome of checking a read version at the node it was fetched from: still
// current, stale (overwritten, or locked by a commit in progress), or no
// longer held there (moved away by a write commit, so stale as well).
enum class ValidateResult : std::uint8_t { kValid, kInvalid, kNotOwner };

}  // namespace hyflow
