#include "storage/store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "schema/schema_io.hpp"
#include "support/error.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define HERC_HAVE_FSYNC 1
#endif

namespace herc::storage {

namespace fs = std::filesystem;
using support::HistoryError;

namespace {

void fsync_path(const std::string& path) {
#ifdef HERC_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw support::StorageError("storage: cannot open '" + path +
                                "' to fsync it: " + std::strerror(errno));
  }
  try {
    detail::sync_fd(fd, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
#else
  detail::sync_fd(-1, path);
#endif
}

/// `write_file_atomic` over the concatenation of `parts`.
void write_parts_atomic(const std::string& path,
                        std::initializer_list<std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw HistoryError("store: cannot write '" + tmp + "'");
    }
    for (const std::string_view part : parts) {
      out.write(part.data(), static_cast<std::streamsize>(part.size()));
    }
    out.flush();
    if (!out) {
      throw HistoryError("store: short write to '" + tmp + "'");
    }
  }
  fsync_path(tmp);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw HistoryError("store: cannot rename '" + tmp + "' over '" + path +
                       "': " + ec.message());
  }
  const fs::path parent = fs::path(path).parent_path();
  fsync_path(parent.empty() ? "." : parent.string());
}

}  // namespace

std::string schema_path(const std::string& dir) {
  return (fs::path(dir) / "schema.herc").string();
}

std::string snapshot_path(const std::string& dir) {
  return (fs::path(dir) / "snapshot.herc").string();
}

std::string journal_path(const std::string& dir) {
  return (fs::path(dir) / "journal.wal").string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw HistoryError("store: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file_atomic(const std::string& path, std::string_view content) {
  write_parts_atomic(path, {content});
}

// Snapshot: a "snap" meta line (epoch, instance count) followed by a full
// `HistoryDb::save` image.
void write_snapshot(const std::string& dir, std::uint64_t epoch,
                    std::size_t instances, std::string_view image) {
  support::RecordWriter meta("snap");
  meta.field(static_cast<std::int64_t>(epoch));
  meta.field(static_cast<std::uint32_t>(instances));
  write_parts_atomic(snapshot_path(dir), {meta.str(), "\n", image});
}

std::optional<std::uint64_t> load_snapshot(const std::string& dir,
                                           history::HistoryDb& db) {
  const std::string path = snapshot_path(dir);
  if (!fs::exists(path)) return std::nullopt;
  std::optional<std::uint64_t> epoch;
  for (const std::string& line : support::split(read_file(path), '\n')) {
    if (support::trim(line).empty()) continue;
    if (epoch.has_value()) {
      db.apply_saved_line(line);
      continue;
    }
    support::RecordReader rec(line);
    if (rec.kind() != "snap") {
      throw HistoryError("store '" + dir +
                         "': snapshot does not start with a snap record");
    }
    epoch = static_cast<std::uint64_t>(rec.next_int64());
  }
  return epoch;
}

JournalReplay replay_journal(const std::string& dir, std::uint64_t epoch,
                             history::HistoryDb& db, JournalOptions options) {
  const std::string path = journal_path(dir);
  if (!fs::exists(path)) {
    return {Journal::create(path, epoch, options), 0, 0, false, std::nullopt};
  }
  const ScanResult scan = scan_journal(read_file(path));
  if (scan.header_valid && scan.epoch > epoch) {
    // A journal *ahead* of its snapshot cannot happen from a crash (the
    // checkpoint orders snapshot-then-journal); the snapshot was replaced
    // or rolled back out from under it.  Discarding would silently lose
    // committed records, so refuse — naming both epochs.
    throw HistoryError("store '" + dir + "': journal is at future epoch " +
                       std::to_string(scan.epoch) +
                       " but the snapshot is at epoch " +
                       std::to_string(epoch) +
                       "; refusing to discard committed records");
  }
  if (!scan.header_valid || scan.epoch != epoch) {
    // Wrong magic, or an epoch the snapshot has already absorbed.
    return {Journal::create(path, epoch, options), 0, scan.records.size(),
            false, std::nullopt};
  }
  for (const std::string& record : scan.records) {
    for (const std::string& line : support::split(record, '\n')) {
      db.apply_saved_line(line);
    }
  }
  if (scan.torn) {
    std::error_code ec;
    fs::resize_file(path, scan.valid_bytes, ec);
    if (ec) {
      throw HistoryError("store '" + dir +
                         "': cannot truncate torn journal tail: " +
                         ec.message());
    }
  }
  std::optional<std::uint32_t> tail;
  if (!scan.records.empty()) tail = frame_checksum(scan.records.back());
  return {Journal::open(path, epoch, scan.valid_bytes, options),
          scan.records.size(), 0, scan.torn, tail};
}

std::optional<std::vector<std::string>> journal_records(
    const std::string& dir, std::uint64_t epoch) {
  const std::string path = journal_path(dir);
  if (!fs::exists(path)) return std::nullopt;
  ScanResult scan = scan_journal(read_file(path));
  if (!scan.header_valid || scan.epoch != epoch) return std::nullopt;
  return std::move(scan.records);
}

bool DurableHistory::exists(const std::string& dir) {
  return fs::exists(schema_path(dir));
}

DurableHistory::DurableHistory(const schema::TaskSchema& schema,
                               support::Clock& clock, std::string dir,
                               StoreOptions options)
    : schema_(&schema), dir_(std::move(dir)), options_(options) {
  fs::create_directories(dir_);
  const std::string schema_text = schema::write_schema(schema);
  if (fs::exists(schema_path(dir_))) {
    if (read_file(schema_path(dir_)) != schema_text) {
      throw HistoryError("store '" + dir_ +
                         "': recorded schema differs from the session's; "
                         "open it from a session over the same schema");
    }
  } else {
    write_file_atomic(schema_path(dir_), schema_text);
    report_.created = true;
  }

  db_ = std::make_unique<history::HistoryDb>(schema, clock);
  epoch_ = load_snapshot(dir_, *db_).value_or(0);
  report_.snapshot_instances = db_->size();

  // Journal: replay the tail on top of the snapshot.
  JournalReplay replay = replay_journal(dir_, epoch_, *db_, options_.journal);
  journal_ = std::move(replay.journal);
  journal_seq_ = replay.applied;
  report_.journal_records_applied = replay.applied;
  report_.journal_records_discarded = replay.discarded;
  report_.torn_tail = replay.torn;
  report_.epoch = epoch_;
  db_->attach_listener(this);

  // Crash-resumable runs: a run-begin frame without a matching run-end
  // means the process died mid-flow.  Products of tasks that started but
  // never completed a combination are quarantined (journaled through the
  // listener, so the sweep itself is durable); the run stays open for
  // `Executor::resume`.
  // The sweep seals each interrupted run's window at the recovered table
  // size: work recorded from here on (new runs, imports, decompose) is not
  // the crashed run's doing, so a later reopen must not sweep it.
  const history::HistoryDb::SealSweep sweep = db_->seal_open_runs(
      "crash recovery: the producing task never finished");
  report_.interrupted_runs = sweep.open;
  report_.quarantined = sweep.quarantined;
}

DurableHistory::~DurableHistory() {
  if (db_ != nullptr) db_->attach_listener(nullptr);
  // `journal_`'s destructor flushes (and fsyncs unless kNone).
}

Journal& DurableHistory::journal() {
  if (!journal_) {
    throw support::StorageError("store '" + dir_ +
                                "': no journal after a failed checkpoint; "
                                "reopen the store to recover");
  }
  return *journal_;
}

void DurableHistory::on_mutation(std::string_view lines) {
  journal().append(lines);
  const std::uint64_t seq = journal_seq_++;
  ++records_;
  bytes_ += lines.size();
  ++since_checkpoint_;
  if (tap_ != nullptr) tap_->on_frame(epoch_, seq, lines);
  if (options_.checkpoint_every > 0 &&
      since_checkpoint_ >= options_.checkpoint_every) {
    checkpoint();
  }
}

void DurableHistory::checkpoint() {
  const std::uint64_t next = epoch_ + 1;
  try {
    write_snapshot(dir_, next, db_->size(), db_->save());
  } catch (const support::StorageError& e) {
    // The rename may or may not have reached the disk: appending to the
    // old-epoch journal could then lose records behind a newer snapshot.
    journal().poison(e.what());
    throw;
  }
  // A crash here leaves a journal whose epoch predates the new snapshot;
  // recovery discards it, and every record it held is inside the snapshot.
  // Close the old handle first: a buffered flush after the truncation
  // below would resurrect stale frames.
  journal_.reset();
  journal_ = Journal::create(journal_path(dir_), next, options_.journal);
  epoch_ = next;
  since_checkpoint_ = 0;
  journal_seq_ = 0;
  if (tap_ != nullptr) tap_->on_checkpoint(next);
}

void DurableHistory::sync() { journal().sync(); }

void DurableHistory::adopt(history::HistoryDb&& seed) {
  if (db_->size() != 0) {
    throw HistoryError("store '" + dir_ +
                       "': refusing to adopt over a non-empty store");
  }
  seed.attach_listener(nullptr);
  db_ = std::make_unique<history::HistoryDb>(std::move(seed));
  db_->attach_listener(this);
  checkpoint();
}

std::unique_ptr<history::HistoryDb> DurableHistory::release() {
  // A poisoned journal has nothing left to make durable: detaching still
  // works, and reopening the store recovers what reached the disk.
  if (journal_ && !journal_->poisoned()) journal_->sync();
  db_->attach_listener(nullptr);
  return std::move(db_);
}

}  // namespace herc::storage
