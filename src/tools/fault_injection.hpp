// Deterministic fault injection for tool encapsulations.
//
// Real CAD tools fail constantly — they crash, hang, and emit garbage —
// and the execution engine's failure semantics need a reproducible way to
// be tested.  `FaultInjectingRegistry` decorates any `ToolRegistry`:
// resolution is delegated to the wrapped registry, but every returned
// encapsulation's function is wrapped so that chosen (encapsulation,
// invocation-count) pairs misbehave.
//
// Faults are addressed by the *per-encapsulation invocation index* (0-based,
// counted across the whole registry lifetime, retries included), which makes
// schedules reproducible: the same flow with the same fault plan fails the
// same task attempts on every run, serial or parallel — provided each
// faulted encapsulation's invocation order is itself deterministic (e.g. it
// is invoked once, or only from one task).
//
// Besides explicit schedules there is a seeded pseudo-random plan: the
// fault decision for invocation `n` of encapsulation `e` is a pure hash of
// (seed, e, n), so it never depends on thread interleaving.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "tools/registry.hpp"

namespace herc::tools {

/// The ways a wrapped tool can misbehave.
enum class FaultKind : std::uint8_t {
  kThrow,    ///< throws `ExecError` instead of running
  kHang,     ///< sleeps `hang` (past any executor timeout), then runs
  kCorrupt,  ///< runs nothing and returns an output naming a bogus entity
};

/// One scheduled fault: the `invocation`-th call (0-based) of the named
/// encapsulation misbehaves.
struct FaultSpec {
  std::string encapsulation;   ///< encapsulation name, e.g. "Simulator.default"
  std::size_t invocation = 0;  ///< 0-based per-encapsulation call index
  FaultKind kind = FaultKind::kThrow;
  /// How long a `kHang` fault stalls before running the real tool.
  std::chrono::milliseconds hang{50};
};

/// A read-only decorator over a `ToolRegistry` that injects faults.
/// Registration methods of the base class must not be called on the
/// decorator; register tools on the wrapped registry instead.
class FaultInjectingRegistry final : public ToolRegistry {
 public:
  /// `inner` must outlive the decorator.  `seed` drives `inject_random`.
  explicit FaultInjectingRegistry(const ToolRegistry& inner,
                                  std::uint64_t seed = 0);

  /// Schedules one fault.  May be called between runs; thread-safe.
  void inject(FaultSpec spec);

  /// Arms a pseudo-random plan: every invocation of every encapsulation
  /// faults with probability `probability`, decided by a pure hash of
  /// (seed, encapsulation name, invocation index).
  void inject_random(double probability, FaultKind kind,
                     std::chrono::milliseconds hang = std::chrono::milliseconds{50});

  // Delegating lookups; resolved encapsulations come back fault-wrapped.
  [[nodiscard]] const Encapsulation& resolve(
      schema::EntityTypeId tool_type) const override;
  [[nodiscard]] bool has(schema::EntityTypeId tool_type) const override;
  [[nodiscard]] const Encapsulation* find(
      std::string_view name) const override;
  [[nodiscard]] std::vector<const Encapsulation*> variants(
      schema::EntityTypeId tool_type) const override;
  [[nodiscard]] std::vector<std::string> names() const override;

  /// How many times `encapsulation` has been invoked through the decorator.
  [[nodiscard]] std::size_t invocations(std::string_view encapsulation) const;
  /// Total faults fired so far.
  [[nodiscard]] std::size_t faults_fired() const;

 private:
  struct State;  // shared with wrapped functions (they may outlive a run)

  const Encapsulation& wrap(const Encapsulation& enc) const;

  const ToolRegistry* inner_;
  std::shared_ptr<State> state_;
  mutable std::mutex wrap_mutex_;
  mutable std::unordered_map<std::string, Encapsulation> wrapped_;
};

}  // namespace herc::tools
