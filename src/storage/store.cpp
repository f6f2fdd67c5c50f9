#include "storage/store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw HistoryError("store: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

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

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw HistoryError("store: cannot write '" + tmp + "'");
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
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

std::string DurableHistory::schema_path() const {
  return (fs::path(dir_) / "schema.herc").string();
}

std::string DurableHistory::snapshot_path() const {
  return (fs::path(dir_) / "snapshot.herc").string();
}

std::string DurableHistory::journal_path() const {
  return (fs::path(dir_) / "journal.wal").string();
}

bool DurableHistory::exists(const std::string& dir) {
  return fs::exists(fs::path(dir) / "schema.herc");
}

DurableHistory::DurableHistory(const schema::TaskSchema& schema,
                               support::Clock& clock, std::string dir,
                               StoreOptions options)
    : schema_(&schema), dir_(std::move(dir)), options_(options) {
  fs::create_directories(dir_);
  const std::string schema_text = schema::write_schema(schema);
  if (fs::exists(schema_path())) {
    if (read_file(schema_path()) != schema_text) {
      throw HistoryError("store '" + dir_ +
                         "': recorded schema differs from the session's; "
                         "open it from a session over the same schema");
    }
  } else {
    write_file_atomic(schema_path(), schema_text);
    report_.created = true;
  }

  db_ = std::make_unique<history::HistoryDb>(schema, clock);

  // Snapshot: a "snap" meta line (epoch, instance count) followed by a
  // full `HistoryDb::save` image.
  if (fs::exists(snapshot_path())) {
    const std::string text = read_file(snapshot_path());
    bool seen_meta = false;
    for (const std::string& line : support::split(text, '\n')) {
      if (support::trim(line).empty()) continue;
      if (!seen_meta) {
        support::RecordReader rec(line);
        if (rec.kind() != "snap") {
          throw HistoryError("store '" + dir_ +
                             "': snapshot does not start with a snap record");
        }
        epoch_ = static_cast<std::uint64_t>(rec.next_int64());
        seen_meta = true;
        continue;
      }
      db_->apply_saved_line(line);
    }
    report_.snapshot_instances = db_->size();
  }

  // Journal: replay the tail on top of the snapshot.
  bool need_fresh_journal = true;
  if (fs::exists(journal_path())) {
    const ScanResult scan = scan_journal(read_file(journal_path()));
    if (scan.header_valid && scan.epoch == epoch_) {
      for (const std::string& record : scan.records) {
        for (const std::string& line : support::split(record, '\n')) {
          db_->apply_saved_line(line);
        }
      }
      report_.journal_records_applied = scan.records.size();
      report_.torn_tail = scan.torn;
      if (scan.torn) {
        std::error_code ec;
        fs::resize_file(journal_path(), scan.valid_bytes, ec);
        if (ec) {
          throw HistoryError("store '" + dir_ +
                             "': cannot truncate torn journal tail: " +
                             ec.message());
        }
      }
      journal_ = Journal::open(journal_path(), epoch_, scan.valid_bytes,
                               options_.journal);
      journal_seq_ = scan.records.size();
      need_fresh_journal = false;
    } else if (scan.header_valid && scan.epoch > epoch_) {
      // A journal *ahead* of its snapshot cannot happen from a crash (the
      // checkpoint orders snapshot-then-journal); the snapshot was replaced
      // or rolled back out from under it.  Discarding would silently lose
      // committed records, so refuse — naming both epochs.
      throw HistoryError("store '" + dir_ + "': journal is at future epoch " +
                         std::to_string(scan.epoch) +
                         " but the snapshot is at epoch " +
                         std::to_string(epoch_) +
                         "; refusing to discard committed records");
    } else {
      // Wrong magic, or an epoch the snapshot has already absorbed.
      report_.journal_records_discarded = scan.records.size();
    }
  }
  if (need_fresh_journal) {
    journal_ = Journal::create(journal_path(), epoch_, options_.journal);
  }
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
  support::RecordWriter meta("snap");
  meta.field(static_cast<std::int64_t>(next));
  meta.field(static_cast<std::uint32_t>(db_->size()));
  try {
    write_file_atomic(snapshot_path(), meta.str() + "\n" + db_->save());
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
  journal_ = Journal::create(journal_path(), next, options_.journal);
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
