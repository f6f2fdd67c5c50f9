// The entity-instance browser (Fig. 9, right panel).
//
// Each leaf entity of a flow gets a browser listing its instances; the
// designer filters by keyword, date limits and user limits, optionally
// restricted to instances that *use* a given instance (the "Use
// Dependencies" toggle — a one-step forward-chaining query), then selects
// one or more instances to bind.
//
// Listings execute through the query planner (history/query_planner.hpp):
// when the session has secondary indexes attached the browser picks the
// cheapest access path per filter, and `page` streams a listing cursor by
// cursor so a 10M-instance history never materializes in one reply.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "history/history_db.hpp"
#include "history/query_planner.hpp"

namespace herc::core {

/// Fig. 9's filter controls.
struct BrowserFilter {
  /// Case-insensitive substring over instance name and comment.
  std::string keyword;
  /// Date limits (inclusive).
  std::optional<support::Timestamp> from;
  std::optional<support::Timestamp> to;
  /// Exact creating-user match; empty = everyone.
  std::string user;
  /// Only instances whose derivation used this one ("Use Dependencies").
  std::optional<data::InstanceId> uses;
};

/// One listing row.
struct BrowserRow {
  data::InstanceId id;
  std::string type_name;
  std::string name;
  std::string user;
  support::Timestamp created;
  std::string comment;
  std::uint32_t version = 1;
  bool superseded = false;
};

/// One cursor page of a listing.
struct BrowserPage {
  std::vector<BrowserRow> rows;
  /// Cursor resuming after the last examined row; nullopt = listing done.
  std::optional<history::PageCursor> next;
  /// The access path the planner chose, rendered for EXPLAIN output.
  std::string plan;
};

/// A browser over one entity type (subtypes included).
class InstanceBrowser {
 public:
  /// `index` (the session's secondary indexes) may be null: every listing
  /// then runs as a verified table scan, same answers, scan speed.
  InstanceBrowser(const history::HistoryDb& db, schema::EntityTypeId type,
                  const history::SecondaryIndex* index = nullptr);

  [[nodiscard]] schema::EntityTypeId type() const { return type_; }

  /// Matching rows, newest first.
  [[nodiscard]] std::vector<BrowserRow> rows(
      const BrowserFilter& filter = {}) const;

  /// One page of at most `limit` rows starting after `after` (or at the
  /// newest row).
  [[nodiscard]] BrowserPage page(
      const BrowserFilter& filter, std::size_t limit,
      const std::optional<history::PageCursor>& after = std::nullopt) const;

  /// ASCII rendering of the browser pane.
  [[nodiscard]] std::string render(const BrowserFilter& filter = {}) const;

  /// ASCII rendering of one page, with the plan in the header and a
  /// trailing "next" cursor line when more rows remain.
  [[nodiscard]] std::string render_page(const BrowserPage& page) const;

 private:
  [[nodiscard]] history::QueryFilter to_query(
      const BrowserFilter& filter) const;
  [[nodiscard]] BrowserRow make_row(data::InstanceId id) const;
  [[nodiscard]] std::string render_rows(
      const std::vector<BrowserRow>& rows) const;

  const history::HistoryDb* db_;
  schema::EntityTypeId type_;
  const history::SecondaryIndex* index_;
};

}  // namespace herc::core
