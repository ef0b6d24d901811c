#include "net/payloads.hpp"

namespace hyflow::net {

namespace {
struct NameVisitor {
  const char* operator()(const FindOwnerRequest&) const { return "FindOwnerRequest"; }
  const char* operator()(const FindOwnerResponse&) const { return "FindOwnerResponse"; }
  const char* operator()(const RegisterOwnerRequest&) const { return "RegisterOwnerRequest"; }
  const char* operator()(const RegisterOwnerResponse&) const { return "RegisterOwnerResponse"; }
  const char* operator()(const ObjectRequest&) const { return "ObjectRequest"; }
  const char* operator()(const ObjectResponse&) const { return "ObjectResponse"; }
  const char* operator()(const NotInterested&) const { return "NotInterested"; }
  const char* operator()(const LockRequest&) const { return "LockRequest"; }
  const char* operator()(const LockResponse&) const { return "LockResponse"; }
  const char* operator()(const ValidateRequest&) const { return "ValidateRequest"; }
  const char* operator()(const ValidateResponse&) const { return "ValidateResponse"; }
  const char* operator()(const CommitRequest&) const { return "CommitRequest"; }
  const char* operator()(const CommitResponse&) const { return "CommitResponse"; }
  const char* operator()(const AbortUnlock&) const { return "AbortUnlock"; }
  const char* operator()(const GrantAck&) const { return "GrantAck"; }
  const char* operator()(const Ack&) const { return "Ack"; }
};

struct SizeVisitor {
  static std::size_t beyond_first(std::size_t n) { return n > 1 ? n - 1 : 0; }

  // Control messages cost a fixed small frame; object-bearing messages add
  // the object's wire size. Only transport statistics consume this.
  std::size_t operator()(const ObjectResponse& r) const {
    return 48 + (r.object ? r.object->wire_size() : 0);
  }
  std::size_t operator()(const CommitResponse& r) const {
    return 32 + r.queue.size() * 32;
  }
  // A one-item validation batch costs a plain frame; each further item adds
  // its oid and clock to the request and its status byte to the response.
  std::size_t operator()(const ValidateRequest& r) const {
    return 32 + beyond_first(r.items.size()) * 16;
  }
  std::size_t operator()(const ValidateResponse& r) const {
    return 32 + beyond_first(r.results.size());
  }
  template <typename T>
  std::size_t operator()(const T&) const {
    return 32;
  }
};
}  // namespace

const char* payload_name(const Payload& p) { return std::visit(NameVisitor{}, p); }

std::size_t payload_wire_size(const Payload& p) { return std::visit(SizeVisitor{}, p); }

}  // namespace hyflow::net
