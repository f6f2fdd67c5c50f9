#include "history/flow_trace.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "support/dot.hpp"
#include "support/error.hpp"

namespace herc::history {

using data::InstanceId;
using graph::NodeId;
using graph::TaskGraph;

namespace {

/// Builds a trace graph over an instance set.  When `close_backward` is
/// set, the set is first closed under derivation membership so every task
/// appears with its complete inputs.
TaskGraph make_trace(const HistoryDb& db, std::vector<InstanceId> members,
                     bool close_backward, const std::string& name) {
  std::unordered_set<std::uint32_t> in_set;
  std::deque<InstanceId> queue;
  for (const InstanceId id : members) {
    if (in_set.insert(id.value()).second) queue.push_back(id);
  }
  if (close_backward) {
    while (!queue.empty()) {
      const InstanceId cur = queue.front();
      queue.pop_front();
      for (const InstanceId next : db.derived_from(cur)) {
        if (in_set.insert(next.value()).second) {
          members.push_back(next);
          queue.push_back(next);
        }
      }
    }
  }
  std::sort(members.begin(), members.end());

  TaskGraph trace(db.schema(), name);
  std::unordered_map<std::uint32_t, NodeId> node_of;
  for (const InstanceId id : members) {
    const Instance& inst = db.instance(id);
    const NodeId n = trace.add_node(inst.type);
    trace.bind(n, id);
    std::string label = inst.name.empty() ? "i" + std::to_string(id.value())
                                          : inst.name;
    if (inst.version > 1) label += " v" + std::to_string(inst.version);
    trace.set_label(n, label);
    node_of.emplace(id.value(), n);
  }
  for (const InstanceId id : members) {
    const Instance& inst = db.instance(id);
    const NodeId from = node_of.at(id.value());
    if (inst.derivation.tool.valid() &&
        in_set.contains(inst.derivation.tool.value())) {
      trace.add_trace_edge(from,
                           node_of.at(inst.derivation.tool.value()),
                           schema::DepKind::kFunctional, "");
    }
    for (std::size_t i = 0; i < inst.derivation.inputs.size(); ++i) {
      const InstanceId in = inst.derivation.inputs[i];
      if (in_set.contains(in.value())) {
        trace.add_trace_edge(from, node_of.at(in.value()),
                             schema::DepKind::kData,
                             inst.derivation.input_roles[i]);
      }
    }
  }
  return trace;
}

}  // namespace

TaskGraph backward_trace(const HistoryDb& db, InstanceId id) {
  return make_trace(db, {id}, /*close_backward=*/true, "backward-trace");
}

TaskGraph forward_trace(const HistoryDb& db, InstanceId id) {
  std::vector<InstanceId> members{id};
  for (const InstanceId dep : db.dependent_closure(id)) {
    members.push_back(dep);
  }
  // Close backward so each dependent task is shown with all its inputs.
  return make_trace(db, std::move(members), /*close_backward=*/true,
                    "forward-trace");
}

std::vector<InstanceId> VersionTree::roots() const {
  std::vector<InstanceId> out;
  for (const Entry& e : entries) {
    if (!e.parent.valid()) out.push_back(e.instance);
  }
  return out;
}

std::vector<InstanceId> VersionTree::children(InstanceId id) const {
  std::vector<InstanceId> out;
  for (const Entry& e : entries) {
    if (e.parent == id) out.push_back(e.instance);
  }
  return out;
}

std::vector<InstanceId> VersionTree::leaves() const {
  std::vector<InstanceId> out;
  for (const Entry& e : entries) {
    if (children(e.instance).empty()) out.push_back(e.instance);
  }
  return out;
}

bool VersionTree::contains(InstanceId id) const {
  for (const Entry& e : entries) {
    if (e.instance == id) return true;
  }
  return false;
}

std::string VersionTree::to_dot(const HistoryDb& db) const {
  support::DotBuilder dot("version_tree");
  dot.graph_attr("rankdir", "TB");
  for (const Entry& e : entries) {
    const Instance& inst = db.instance(e.instance);
    std::string label = inst.name.empty()
                            ? "i" + std::to_string(e.instance.value())
                            : inst.name;
    label += "\nv" + std::to_string(e.version);
    dot.node("v" + std::to_string(e.instance.value()), label,
             {"shape=\"box\""});
  }
  for (const Entry& e : entries) {
    if (e.parent.valid()) {
      dot.edge("v" + std::to_string(e.parent.value()),
               "v" + std::to_string(e.instance.value()));
    }
  }
  return dot.str();
}

VersionTree version_tree(const HistoryDb& db, InstanceId member) {
  // Walk up to the lineage root...
  InstanceId root = member;
  while (true) {
    const auto parent = db.edit_parent(root);
    if (!parent) break;
    root = *parent;
  }
  // ...then fan out over edit children.
  VersionTree tree;
  std::deque<std::pair<InstanceId, InstanceId>> queue{{root, InstanceId()}};
  while (!queue.empty()) {
    const auto [cur, parent] = queue.front();
    queue.pop_front();
    tree.entries.push_back(
        VersionTree::Entry{cur, parent, db.instance(cur).version});
    for (const InstanceId child : db.edit_children(cur)) {
      queue.emplace_back(child, cur);
    }
  }
  return tree;
}

TaskGraph lineage_trace(const HistoryDb& db, InstanceId member) {
  const VersionTree tree = version_tree(db, member);
  std::vector<InstanceId> members;
  for (const VersionTree::Entry& e : tree.entries) {
    members.push_back(e.instance);
    const Instance& inst = db.instance(e.instance);
    if (inst.derivation.tool.valid()) {
      members.push_back(inst.derivation.tool);
    }
  }
  // No backward closure: the point of Fig. 11b is the lineage plus the
  // tools, not the whole ancestry.
  return make_trace(db, std::move(members), /*close_backward=*/false,
                    "lineage-trace");
}

namespace {

/// Recursive structural match of `inst` against pattern node `pnode`.
bool match_node(const HistoryDb& db, const TaskGraph& pattern, NodeId pnode,
                InstanceId inst);

/// A pattern dd edge awaiting assignment to a derivation input.
struct PendingEdge {
  NodeId target;
  const std::string* role;
};

/// Backtracking assignment of pattern dd edges to distinct derivation
/// inputs; an edge only matches inputs recorded under the same role.
bool assign_inputs(const HistoryDb& db, const TaskGraph& pattern,
                   const std::vector<PendingEdge>& edges, std::size_t next,
                   const Derivation& derivation, std::vector<char>& used) {
  if (next == edges.size()) return true;
  for (std::size_t j = 0; j < derivation.inputs.size(); ++j) {
    if (used[j]) continue;
    if (derivation.input_roles[j] != *edges[next].role) continue;
    if (match_node(db, pattern, edges[next].target, derivation.inputs[j])) {
      used[j] = 1;
      if (assign_inputs(db, pattern, edges, next + 1, derivation, used)) {
        return true;
      }
      used[j] = 0;
    }
  }
  return false;
}

bool match_node(const HistoryDb& db, const TaskGraph& pattern, NodeId pnode,
                InstanceId inst) {
  const graph::Node& node = pattern.node(pnode);
  const Instance& record = db.instance(inst);
  if (!db.schema().is_ancestor_or_self(node.type, record.type)) return false;
  if (!node.bound.empty() &&
      std::find(node.bound.begin(), node.bound.end(), inst) ==
          node.bound.end()) {
    return false;
  }
  std::vector<PendingEdge> dd_edges;
  for (const graph::DepEdge& e : pattern.deps(pnode)) {
    if (e.kind == schema::DepKind::kFunctional) {
      if (!record.derivation.tool.valid() ||
          !match_node(db, pattern, e.target, record.derivation.tool)) {
        return false;
      }
    } else {
      dd_edges.push_back(PendingEdge{e.target, &e.role});
    }
  }
  if (dd_edges.empty()) return true;
  std::vector<char> used(record.derivation.inputs.size(), 0);
  return assign_inputs(db, pattern, dd_edges, 0, record.derivation, used);
}

}  // namespace

std::vector<InstanceId> query_template(const HistoryDb& db,
                                       const TaskGraph& pattern,
                                       NodeId target) {
  std::vector<InstanceId> out;
  for (const InstanceId cand :
       db.instances_of(pattern.node(target).type, /*include_subtypes=*/true)) {
    if (match_node(db, pattern, target, cand)) out.push_back(cand);
  }
  return out;
}

}  // namespace herc::history
