// Durable design history: the write-ahead journal in action.
//
// A design session's history normally lives in memory.  Attaching a
// durable store gives every mutation — imports, task-produced records,
// failure records, annotations — an immediate journaled commit, so a
// crash loses nothing that was recorded.  This example:
//
//   1. opens a store and records some history (each record is one
//      journal append, O(delta));
//   2. "crashes" without checkpointing, then recovers from the journal;
//   3. tears the journal's final record mid-frame, the way a power cut
//      would, and shows recovery truncating to the last valid prefix;
//   4. checkpoints, compacting the journal into a snapshot.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/session.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/journal.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"

using namespace herc;
namespace fs = std::filesystem;

namespace {

std::unique_ptr<core::DesignSession> fresh_session() {
  return std::make_unique<core::DesignSession>(
      schema::make_fig1_schema(), "sutton",
      std::make_unique<support::ManualClock>(718000000000000, 60000000));
}

void report(const char* what, const storage::RecoveryReport& r,
            const core::DesignSession& session) {
  std::printf("%s: %s, epoch %llu, %zu from snapshot + %zu from journal"
              "%s -> %zu instances\n",
              what, r.created ? "created" : "recovered",
              static_cast<unsigned long long>(r.epoch),
              r.snapshot_instances, r.journal_records_applied,
              r.torn_tail ? " (torn tail truncated)" : "",
              session.db().size());
}

}  // namespace

int main() {
  const std::string dir =
      (fs::temp_directory_path() / "herc_durable_session").string();
  fs::remove_all(dir);
  const std::string wal = storage::journal_path(dir);

  // 1. Open a store and record some history.
  {
    auto session = fresh_session();
    const auto r = session->open_storage(dir);
    report("open", r, *session);

    session->import_data("EditedNetlist", "adder", "netlist-v1");
    const auto models =
        session->import_data("DeviceModels", "models", "level-1");
    session->annotate(models, "", "checked against foundry data");
    std::printf("recorded 3 mutations, %llu bytes journaled\n",
                static_cast<unsigned long long>(
                    session->storage()->bytes_journaled()));
    // The session is dropped here without a checkpoint: every record is
    // already durable in the journal.
  }

  // 2. "Crash" recovery: a fresh session replays the journal.
  {
    auto session = fresh_session();
    const auto r = session->open_storage(dir);
    report("reopen", r, *session);
    session->import_data("Stimuli", "counter", "0101");
  }

  // 3. Power-cut simulation: chop the final journal record in half.
  {
    const auto size = fs::file_size(wal);
    fs::resize_file(wal, size - 10);
    std::printf("tore the journal: %llu -> %llu bytes\n",
                static_cast<unsigned long long>(size),
                static_cast<unsigned long long>(size - 10));

    auto session = fresh_session();
    const auto r = session->open_storage(dir);
    report("reopen", r, *session);  // the half-written record is gone

    // 4. Checkpoint: snapshot the database, reset the journal.
    session->checkpoint_storage();
    std::printf("checkpoint: epoch %llu, journal back to %llu bytes\n",
                static_cast<unsigned long long>(session->storage()->epoch()),
                static_cast<unsigned long long>(fs::file_size(wal)));
  }

  // The compacted store recovers from the snapshot alone.
  {
    auto session = fresh_session();
    const auto r = session->open_storage(dir);
    report("reopen", r, *session);
  }

  fs::remove_all(dir);
  return 0;
}
