// Application object model.
//
// A persistent object is an instance of some class (sec 2.2); operations
// mutate its instance variables. For replication the object must behave
// as a deterministic state machine [16]: apply() given the same state and
// the same operation stream produces the same result at every replica —
// this is what makes active replication sound when combined with
// reliable, totally-ordered group communication.
//
// The ClassRegistry plays the role of "the executable binary of the code
// for the object's methods" being available at a server node (sec 3.1):
// a node can only activate objects whose class is registered with it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "util/buffer.h"
#include "util/result.h"

namespace gv::replication {

class ReplicatedObject {
 public:
  virtual ~ReplicatedObject() = default;

  // Serialise the full object state (for object-store checkpoints).
  virtual Buffer snapshot() const = 0;
  // Rebuild the object from a snapshot.
  virtual Status restore(Buffer state) = 0;

  // Apply one operation. Must be deterministic. `modified` reports
  // whether the state changed (drives the read-only commit optimisation
  // of sec 4.2.1: unmodified objects skip the copy-back to stores).
  // Its errors are its own (BadRequest, Conflict, NotFound), never one
  // of the codes an activation refuses with (ObjectServerHost::activate).
  virtual Result<Buffer> apply(const std::string& op, Buffer args, bool& modified) = 0;
};

using ObjectFactory = std::function<std::unique_ptr<ReplicatedObject>()>;

class ClassRegistry {
 public:
  void register_class(const std::string& class_name, ObjectFactory factory) {
    factories_[class_name] = std::move(factory);
  }

  bool knows(const std::string& class_name) const { return factories_.count(class_name) > 0; }

  std::unique_ptr<ReplicatedObject> make(const std::string& class_name) const {
    auto it = factories_.find(class_name);
    return it == factories_.end() ? nullptr : it->second();
  }

 private:
  std::unordered_map<std::string, ObjectFactory> factories_;
};

// ----------------------------------------------------------------------
// Stock object classes used by examples, tests and benchmarks.

// A bank account: deposit / withdraw / balance.
class BankAccount final : public ReplicatedObject {
 public:
  Buffer snapshot() const override;
  Status restore(Buffer state) override;
  Result<Buffer> apply(const std::string& op, Buffer args, bool& modified) override;

  std::int64_t balance() const noexcept { return balance_; }

 private:
  std::int64_t balance_ = 0;
};

// A counter with increment / read; the workhorse of the benchmarks.
class Counter final : public ReplicatedObject {
 public:
  Buffer snapshot() const override;
  Status restore(Buffer state) override;
  Result<Buffer> apply(const std::string& op, Buffer args, bool& modified) override;

  std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
};

// An append-only log: append / size / checksum. Order-sensitive, so any
// divergence between replicas shows up in the checksum — used by the
// Fig-1 experiment to detect replica divergence.
class EventLog final : public ReplicatedObject {
 public:
  Buffer snapshot() const override;
  Status restore(Buffer state) override;
  Result<Buffer> apply(const std::string& op, Buffer args, bool& modified) override;

  std::uint64_t checksum() const noexcept;
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::vector<std::string> entries_;
};

// A string key-value table: put / get / erase / size. The workhorse for
// directory-style applications (read-mostly lookups, occasional updates)
// and for tests needing multi-key state under one object.
class KvTable final : public ReplicatedObject {
 public:
  Buffer snapshot() const override;
  Status restore(Buffer state) override;
  Result<Buffer> apply(const std::string& op, Buffer args, bool& modified) override;

  std::size_t size() const noexcept { return table_.size(); }

 private:
  std::map<std::string, std::string> table_;
};

// Registers the stock classes under "bank", "counter", "log", "kv".
void register_stock_classes(ClassRegistry& registry);

}  // namespace gv::replication
