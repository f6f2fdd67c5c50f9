// Exception hierarchy for the framework.
//
// Each subsystem throws a subsystem-specific subclass of `HercError`;
// callers that care only that *something* in the framework failed can catch
// the base class.
#pragma once

#include <stdexcept>
#include <string>

namespace herc::support {

/// Root of all framework errors.
class HercError : public std::runtime_error {
 public:
  explicit HercError(const std::string& what) : std::runtime_error(what) {}
};

/// Violation of task-schema construction rules (bad subtype, duplicate
/// functional dependency, unbreakable cycle, ...).
class SchemaError : public HercError {
 public:
  using HercError::HercError;
};

/// Illegal operation on a task graph / dynamically defined flow.
class FlowError : public HercError {
 public:
  using HercError::HercError;
};

/// Failure inside the execution engine or a tool encapsulation.
class ExecError : public HercError {
 public:
  using HercError::HercError;
};

/// Design-history database failure (unknown instance, malformed record, ...).
class HistoryError : public HercError {
 public:
  using HercError::HercError;
};

/// The durable store could not make its bytes stable: a write, flush or
/// fsync failed.  The journal that saw it refuses every later write until
/// the store is reopened, because a failed fsync is never retried — the
/// kernel may already have dropped the dirty pages it reported on.
class StorageError : public HistoryError {
 public:
  using HistoryError::HistoryError;
};

/// Malformed textual input (schema DSL, flow files, session files).
class ParseError : public HercError {
 public:
  using HercError::HercError;
};

/// Network-layer failure (socket setup, framed wire protocol, a peer that
/// vanished mid-frame).
class NetError : public HercError {
 public:
  using HercError::HercError;
};

}  // namespace herc::support
