// The transactional object model for the dataflow D-STM.
//
// Objects migrate between nodes by *copy*: a message carries an immutable
// snapshot (`ObjectSnapshot` = shared_ptr<const AbstractObject>), and a
// transaction that wants to mutate one clones it into a private working copy
// in its write set. Nothing is ever shared writable across nodes — the
// in-process cluster honours message-passing semantics (CP.mess).
//
// Workloads subclass `TxObject<Derived>` (CRTP supplies clone()) and keep
// their state in plain members; copying the object must be equivalent to
// serialising it across a link.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dsm/object_id.hpp"

namespace hyflow {

class AbstractObject {
 public:
  explicit AbstractObject(ObjectId id) : id_(id) {}
  virtual ~AbstractObject() = default;

  ObjectId id() const { return id_; }

  // Deep copy — stands in for serialise+deserialise across a link.
  virtual std::unique_ptr<AbstractObject> clone() const = 0;

  // Approximate wire size in bytes; only used for transport statistics.
  virtual std::size_t wire_size() const { return 64; }

 protected:
  AbstractObject(const AbstractObject&) = default;
  AbstractObject& operator=(const AbstractObject&) = delete;

 private:
  ObjectId id_;
};

// Immutable snapshot as it travels through the network and sits in an
// owner's store. Mutation always goes through clone().
using ObjectSnapshot = std::shared_ptr<const AbstractObject>;

// CRTP helper: `class Account : public TxObject<Account> { ... };`
template <typename Derived>
class TxObject : public AbstractObject {
 public:
  using AbstractObject::AbstractObject;

  std::unique_ptr<AbstractObject> clone() const override {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
};

// Checked downcast for snapshots and working copies.
template <typename T>
const T& object_cast(const AbstractObject& obj) {
  return dynamic_cast<const T&>(obj);
}

template <typename T>
T& object_cast(AbstractObject& obj) {
  return dynamic_cast<T&>(obj);
}

}  // namespace hyflow
