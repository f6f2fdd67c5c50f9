// Flow traces, version trees, and task-graph template queries (§4.2).
//
// A *flow trace* is the historical record of tool invocations and data
// transformations rendered in the same form as a task graph, with every
// node bound to a unique instance (Fig. 10, Fig. 11b).  It is a
// semantically richer superset of a version tree: it shows not only the
// relationship between data versions but also the tools used to create
// each one.
#pragma once

#include <vector>

#include "graph/task_graph.hpp"
#include "history/history_db.hpp"

namespace herc::history {

/// Backward-chaining trace: the derivation ancestry of `id` (what Fig. 10's
/// History pop-up reveals, applied transitively).
[[nodiscard]] graph::TaskGraph backward_trace(const HistoryDb& db,
                                              data::InstanceId id);

/// Forward-chaining trace: everything derived from `id`, together with the
/// complete derivations of those dependents (so every task in the trace is
/// shown with all of its inputs).
[[nodiscard]] graph::TaskGraph forward_trace(const HistoryDb& db,
                                             data::InstanceId id);

/// A traditional version tree (Fig. 11a): the edit lineage that contains
/// `member`, without tool information.
struct VersionTree {
  struct Entry {
    data::InstanceId instance;
    /// Edit predecessor; invalid for the lineage root.
    data::InstanceId parent;
    std::uint32_t version = 1;
  };
  std::vector<Entry> entries;

  [[nodiscard]] std::vector<data::InstanceId> roots() const;
  [[nodiscard]] std::vector<data::InstanceId> children(
      data::InstanceId id) const;
  /// Instances with no edit successor — the "current" versions.
  [[nodiscard]] std::vector<data::InstanceId> leaves() const;
  [[nodiscard]] bool contains(data::InstanceId id) const;

  /// Graphviz rendering in the style of Fig. 11a.
  [[nodiscard]] std::string to_dot(const HistoryDb& db) const;
};

/// Extracts the version tree containing `member` by walking edit-parent
/// links to the root and fanning out over edit children.
[[nodiscard]] VersionTree version_tree(const HistoryDb& db,
                                       data::InstanceId member);

/// The flow-trace form of a version tree (Fig. 11b): the same lineage, but
/// including the tool instance used for each edit — demonstrating that a
/// flow trace is a superset of a version tree.
[[nodiscard]] graph::TaskGraph lineage_trace(const HistoryDb& db,
                                             data::InstanceId member);

/// Template query (§4.2): uses a task graph as the query form.  Returns all
/// instances that could stand at `target` such that the pattern's structure
/// matches their derivation history: fd edges match the recorded tool
/// instance, dd edges match distinct recorded inputs, and nodes bound in
/// the pattern must match those exact instances.  This answers queries such
/// as "find the simulations that were performed on this netlist".
[[nodiscard]] std::vector<data::InstanceId> query_template(
    const HistoryDb& db, const graph::TaskGraph& pattern,
    graph::NodeId target);

}  // namespace herc::history
