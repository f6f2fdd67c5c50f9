// Cost-based query planning over the history database (Fig. 9, §4.2).
//
// A `QueryFilter` bundles the instance browser's predicates — entity type,
// keyword, creation-date limits, user, use-dependency — into one queryable
// value.  `plan_query` picks the cheapest access path: a secondary index
// (src/index) when one is attached and its candidate estimate beats a table
// scan, the database's own forward-derivation index for `uses` chaining, or
// the scan itself.  `run_page` executes the plan one cursor page at a time:
// candidates stream newest-first from the chosen path, *every* predicate is
// re-verified against the database proper, and verified rows fill the page.
//
// Indexes are candidate generators, never oracles: a path must yield a
// superset of the matching instances and the executor re-checks each one,
// so a planner answer is exactly the scan answer whatever state the index
// is in (mid-rebuild, carrying stale annotation postings, or absent).
//
// Listing order is (created desc, id desc).  Instance ids are assigned in
// creation order and the clock is monotone, so this equals plain id-desc
// order — which is what lets id-sorted posting lists serve date-ordered
// pages without a sort.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/instance_id.hpp"
#include "schema/entity.hpp"
#include "support/clock.hpp"

namespace herc::history {

class HistoryDb;

/// The browser's filter predicates as one bundle.  Every field is optional;
/// an instance matches when it passes all of the set ones.
struct QueryFilter {
  /// Root entity type; subtypes match too.  Invalid = any type.
  schema::EntityTypeId type;
  /// Failure/quarantine records are design data only when asked for.
  bool include_failures = false;
  /// Case-insensitive substring over instance name and comment.
  std::string keyword;
  /// Exact creating-user match.
  std::string user;
  /// Creation-date limits, inclusive.
  std::optional<support::Timestamp> from;
  std::optional<support::Timestamp> to;
  /// Only instances whose derivation used this instance directly
  /// (one-hop forward chaining, the "Use dependencies" option of Fig. 9).
  std::optional<data::InstanceId> uses;
};

/// A position in the listing order — (created, id) descending — encoded as
/// a "micros:id" cursor over the wire.  A page starts strictly *after* the
/// cursor, so a 10M-instance listing streams page by page and the server
/// never materializes it whole.
struct PageCursor {
  std::int64_t created = 0;
  std::uint32_t id = 0;

  /// The position before the first row: every instance is after it.
  [[nodiscard]] static PageCursor top();

  [[nodiscard]] std::string encode() const;
  /// Parses an `encode()` string; nullopt on malformed input.
  [[nodiscard]] static std::optional<PageCursor> decode(std::string_view s);
};

/// The access paths the planner chooses among.
enum class AccessPath : std::uint8_t {
  kScan = 0,     ///< walk the instance table newest-first
  kType = 1,     ///< per-entity-type creation lists
  kKeyword = 2,  ///< token postings (trigram-assisted substring)
  kUser = 3,     ///< per-user posting lists
  kDate = 4,     ///< global creation-date list
  kUses = 5,     ///< the database's forward-derivation index
};
[[nodiscard]] std::string_view to_string(AccessPath path);

/// Candidate-generator contract a secondary index implements (src/index's
/// `HistoryIndexes` is the one implementation; tests stub it).
class SecondaryIndex {
 public:
  virtual ~SecondaryIndex() = default;

  /// Estimated candidate count for serving `filter` through `path`, or
  /// nullopt when this index cannot serve that predicate (unindexable
  /// keyword, path it does not maintain).  Zero is a hard answer: the
  /// predicate provably matches nothing.
  [[nodiscard]] virtual std::optional<std::size_t> estimate(
      const QueryFilter& filter, AccessPath path) const = 0;

  /// Up to `limit` candidate ids strictly after `cursor` in listing order
  /// (newest first, no duplicates).  Returning fewer than `limit` means
  /// the path is exhausted.  Completeness duty: every instance matching
  /// the `path` predicate of `filter` past the cursor must appear —
  /// over-approximation is fine, omission is not.
  [[nodiscard]] virtual std::vector<data::InstanceId> candidates(
      const QueryFilter& filter, AccessPath path, const PageCursor& cursor,
      std::size_t limit) const = 0;

  /// Candidate ids whose *current* name may equal `name` (a superset), or
  /// nullopt when the lookup cannot be bounded — the query language's
  /// quoted-name resolution hook.
  [[nodiscard]] virtual std::optional<std::vector<data::InstanceId>>
  name_candidates(std::string_view name) const = 0;
};

/// What the planner chose, for EXPLAIN-style rendering.
struct QueryPlan {
  AccessPath path = AccessPath::kScan;
  /// Candidates the path expects to stream (db size for a scan).
  std::size_t estimate = 0;
  [[nodiscard]] std::string describe() const;
};

/// One executed page of a listing.
struct QueryPage {
  /// Verified matches, newest first.
  std::vector<data::InstanceId> ids;
  /// Resume cursor for the next page; nullopt when the listing is done.
  std::optional<PageCursor> next;
  QueryPlan plan;
  /// Candidates the executor examined (verification work), for tests and
  /// planner diagnostics.
  std::size_t candidates_examined = 0;
};

/// Picks the cheapest access path for `filter`.  `index` may be null.
[[nodiscard]] QueryPlan plan_query(const HistoryDb& db,
                                   const QueryFilter& filter,
                                   const SecondaryIndex* index);

/// Full predicate check of one instance against `filter` — the executor's
/// verification step, shared with tests asserting index/scan parity.
[[nodiscard]] bool matches(const HistoryDb& db, const QueryFilter& filter,
                           data::InstanceId id);

/// Executes one page: plans, streams candidates after `after` (or from the
/// top), verifies, and stops at `limit` verified rows.
[[nodiscard]] QueryPage run_page(
    const HistoryDb& db, const QueryFilter& filter,
    const SecondaryIndex* index, std::size_t limit,
    const std::optional<PageCursor>& after = std::nullopt);

}  // namespace herc::history
