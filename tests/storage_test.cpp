// Durable design-history storage: journal framing, snapshot compaction,
// crash recovery, and the session/CLI wiring.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/interpreter.hpp"
#include "core/session.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/journal.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"

namespace herc::storage {
namespace {

namespace fs = std::filesystem;
using data::InstanceId;
using history::HistoryDb;
using history::InstanceStatus;
using history::RecordRequest;
using support::HistoryError;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : schema_(schema::make_fig1_schema()), clock_(100, 10) {
    dir_ = (fs::temp_directory_path() /
            ("herc_storage_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }

  ~StorageTest() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string journal_path() const {
    return (fs::path(dir_) / "journal.wal").string();
  }
  [[nodiscard]] std::string snapshot_path() const {
    return (fs::path(dir_) / "snapshot.herc").string();
  }

  /// Records a few representative mutations: imports (one empty payload,
  /// one shared payload), a derived edit, a failure record, an annotation.
  std::vector<InstanceId> populate(HistoryDb& db) {
    std::vector<InstanceId> ids;
    ids.push_back(db.import_instance(schema_.require("CircuitEditor"), "ed",
                                     "", "u"));
    ids.push_back(db.import_instance(schema_.require("EditedNetlist"), "n1",
                                     "netlist-v1", "u", "first cut"));
    RecordRequest edit;
    edit.type = schema_.require("EditedNetlist");
    edit.name = "n2";
    edit.user = "u";
    edit.payload = "netlist-v2";
    edit.derivation.tool = ids[0];
    edit.derivation.inputs = {ids[1]};
    edit.derivation.input_roles = {""};
    edit.derivation.task = "edit";
    ids.push_back(db.record(edit));
    RecordRequest failed;
    failed.type = schema_.require("Stimuli");
    failed.name = "bad";
    failed.user = "u";
    failed.comment = "tool exploded";
    failed.status = InstanceStatus::kFailed;
    failed.derivation.tool = ids[0];
    failed.derivation.inputs = {ids[2]};
    failed.derivation.input_roles = {""};
    failed.derivation.task = "simulate";
    ids.push_back(db.record(failed));
    db.annotate(ids[1], "n1-renamed", "kept for posterity");
    return ids;
  }

  schema::TaskSchema schema_;
  support::ManualClock clock_;
  std::string dir_;
};

/// Fails every flush or fsync whose name matches `g_failing_call` with EIO
/// while installed (see `FailingIo`).
std::string g_failing_call;  // NOLINT(cert-err58-cpp)

int fail_matching_call(std::string_view call) {
  return call == g_failing_call ? EIO : 0;
}

/// Installs the storage I/O fault seam for one scope.
struct FailingIo {
  explicit FailingIo(std::string call) {
    g_failing_call = std::move(call);
    detail::set_io_fault_hook(&fail_matching_call);
  }
  ~FailingIo() { detail::set_io_fault_hook(nullptr); }
  FailingIo(const FailingIo&) = delete;
  FailingIo& operator=(const FailingIo&) = delete;
};

// ---- journal framing ---------------------------------------------------------

TEST_F(StorageTest, JournalRoundTrip) {
  fs::create_directories(dir_);
  const std::string path = journal_path();
  {
    Journal journal = Journal::create(path, 7, {});
    journal.append("first record");
    journal.append("");
    journal.append(std::string(3000, 'x') + "\nwith|separators");
    EXPECT_EQ(journal.records_appended(), 3u);
  }
  const ScanResult scan = scan_journal(slurp(path));
  EXPECT_TRUE(scan.header_valid);
  EXPECT_EQ(scan.epoch, 7u);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0], "first record");
  EXPECT_EQ(scan.records[1], "");
  EXPECT_EQ(scan.records[2], std::string(3000, 'x') + "\nwith|separators");
  EXPECT_EQ(scan.valid_bytes, fs::file_size(path));
  EXPECT_FALSE(scan.torn);
}

TEST_F(StorageTest, ScanStopsAtTornTail) {
  fs::create_directories(dir_);
  {
    Journal journal = Journal::create(journal_path(), 0, {});
    journal.append("aaaa");
    journal.append("bbbb");
  }
  const std::string bytes = slurp(journal_path());
  // Truncating anywhere inside the final frame keeps only the first.
  for (std::size_t cut = 1; cut < kFrameHeaderBytes + 4; ++cut) {
    const ScanResult scan =
        scan_journal(std::string_view(bytes).substr(0, bytes.size() - cut));
    EXPECT_EQ(scan.records.size(), 1u) << "cut " << cut;
    EXPECT_TRUE(scan.torn);
    EXPECT_EQ(scan.valid_bytes,
              kJournalHeaderBytes + kFrameHeaderBytes + 4);
  }
  // Truncating inside the header invalidates the journal without throwing.
  const ScanResult headerless =
      scan_journal(std::string_view(bytes).substr(0, 5));
  EXPECT_FALSE(headerless.header_valid);
  EXPECT_TRUE(headerless.records.empty());
}

TEST_F(StorageTest, ScanStopsAtCorruptFrame) {
  fs::create_directories(dir_);
  {
    Journal journal = Journal::create(journal_path(), 0, {});
    journal.append("aaaa");
    journal.append("bbbb");
    journal.append("cccc");
  }
  std::string bytes = slurp(journal_path());
  // Flip one payload byte in the middle frame.
  bytes[kJournalHeaderBytes + (kFrameHeaderBytes + 4) + kFrameHeaderBytes] ^=
      0x40;
  const ScanResult scan = scan_journal(bytes);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "aaaa");
  EXPECT_TRUE(scan.torn);
}

// ---- store recovery ----------------------------------------------------------

TEST_F(StorageTest, JournalOnlyRecoveryRoundTrips) {
  std::string image;
  std::vector<InstanceId> ids;
  {
    DurableHistory store(schema_, clock_, dir_);
    EXPECT_TRUE(store.recovery().created);
    ids = populate(store.db());
    EXPECT_EQ(store.records_journaled(), 5u);  // 4 records + 1 annotate
    image = store.db().save();
  }
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  const RecoveryReport& report = store.recovery();
  EXPECT_FALSE(report.created);
  EXPECT_EQ(report.snapshot_instances, 0u);
  EXPECT_EQ(report.journal_records_applied, 5u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(store.db().save(), image);
  EXPECT_EQ(store.db().payload(ids[2]), "netlist-v2");
  EXPECT_EQ(store.db().instance(ids[1]).name, "n1-renamed");
  ASSERT_EQ(store.db().failures().size(), 1u);
  EXPECT_EQ(store.db().instance(store.db().failures()[0]).comment,
            "tool exploded");
}

TEST_F(StorageTest, CheckpointCompactsJournal) {
  std::string image;
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.checkpoint();
    image = store.db().save();
    EXPECT_EQ(store.epoch(), 1u);
  }
  EXPECT_EQ(fs::file_size(journal_path()), kJournalHeaderBytes);
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().snapshot_instances, 4u);
  EXPECT_EQ(store.recovery().journal_records_applied, 0u);
  EXPECT_EQ(store.recovery().epoch, 1u);
  EXPECT_EQ(store.db().save(), image);
}

TEST_F(StorageTest, MutationsAfterCheckpointLandInNewJournal) {
  std::string image;
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.checkpoint();
    store.db().import_instance(schema_.require("Stimuli"), "late", "wave",
                               "u");
    image = store.db().save();
  }
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().snapshot_instances, 4u);
  EXPECT_EQ(store.recovery().journal_records_applied, 1u);
  EXPECT_EQ(store.db().size(), 5u);
  EXPECT_EQ(store.db().save(), image);
}

TEST_F(StorageTest, TornTailTruncatedOnReopen) {
  std::string image;
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    image = store.db().save();
  }
  // A crash mid-append: garbage trailing bytes that parse as no frame.
  {
    std::ofstream out(journal_path(),
                      std::ios::binary | std::ios::app);
    out << "\x13\x00\x00\x00torn";
  }
  {
    support::ManualClock clock2(0, 1);
    DurableHistory store(schema_, clock2, dir_);
    EXPECT_TRUE(store.recovery().torn_tail);
    EXPECT_EQ(store.recovery().journal_records_applied, 5u);
    EXPECT_EQ(store.db().save(), image);
    // The tail was physically truncated; appending continues cleanly.
    store.db().import_instance(schema_.require("Stimuli"), "post", "w", "u");
  }
  support::ManualClock clock3(0, 1);
  DurableHistory store(schema_, clock3, dir_);
  EXPECT_FALSE(store.recovery().torn_tail);
  EXPECT_EQ(store.recovery().journal_records_applied, 6u);
  EXPECT_EQ(store.db().size(), 5u);
}

TEST_F(StorageTest, StaleEpochJournalDiscardedAfterCheckpointCrash) {
  std::string pre_checkpoint_journal;
  std::string image;
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.sync();
    pre_checkpoint_journal = slurp(journal_path());
    store.checkpoint();
    image = store.db().save();
  }
  // Simulate a crash between the snapshot rename and the journal reset:
  // the old journal (epoch 0) is still on disk next to the epoch-1
  // snapshot.  Its records are inside the snapshot already and must not
  // be replayed a second time.
  spill(journal_path(), pre_checkpoint_journal);
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.recovery().journal_records_discarded, 5u);
  EXPECT_EQ(store.recovery().journal_records_applied, 0u);
  EXPECT_EQ(store.recovery().snapshot_instances, 4u);
  EXPECT_EQ(store.db().save(), image);
}

TEST_F(StorageTest, SchemaMismatchRejected) {
  { DurableHistory store(schema_, clock_, dir_); }
  schema::TaskSchema other = schema::make_fig2_schema();
  support::ManualClock clock2(0, 1);
  EXPECT_THROW(DurableHistory(other, clock2, dir_), HistoryError);
}

TEST_F(StorageTest, CorruptSnapshotBlobRejected) {
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    store.checkpoint();
  }
  std::string snapshot = slurp(snapshot_path());
  const std::size_t at = snapshot.find("netlist-v1");
  ASSERT_NE(at, std::string::npos);
  snapshot.replace(at, 10, "netlist-vX");
  spill(snapshot_path(), snapshot);
  support::ManualClock clock2(0, 1);
  EXPECT_THROW(DurableHistory(schema_, clock2, dir_), HistoryError);
}

TEST_F(StorageTest, AutoCheckpointCompacts) {
  StoreOptions options;
  options.checkpoint_every = 3;
  {
    DurableHistory store(schema_, clock_, dir_, options);
    for (int i = 0; i < 7; ++i) {
      store.db().import_instance(schema_.require("Stimuli"),
                                 "s" + std::to_string(i), "w", "u");
    }
    EXPECT_EQ(store.epoch(), 2u);
  }
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_, options);
  EXPECT_EQ(store.recovery().snapshot_instances, 6u);
  EXPECT_EQ(store.recovery().journal_records_applied, 1u);
  EXPECT_EQ(store.db().size(), 7u);
}

TEST_F(StorageTest, SyncPoliciesRoundTrip) {
  for (const SyncPolicy sync :
       {SyncPolicy::kNone, SyncPolicy::kInterval, SyncPolicy::kCommit}) {
    fs::remove_all(dir_);
    StoreOptions options;
    options.journal.sync = sync;
    options.journal.sync_interval = 2;
    {
      support::ManualClock clock(100, 10);
      DurableHistory store(schema_, clock, dir_, options);
      populate(store.db());
    }
    support::ManualClock clock2(0, 1);
    DurableHistory store(schema_, clock2, dir_, options);
    EXPECT_EQ(store.db().size(), 4u)
        << "sync policy " << static_cast<int>(sync);
  }
}

// ---- session and CLI wiring --------------------------------------------------

TEST_F(StorageTest, SessionAdoptsExistingHistoryAndRecovers) {
  {
    core::DesignSession session(schema::make_fig1_schema(), "ada");
    session.import_data("EditedNetlist", "n1", "payload");
    session.import_data("Stimuli", "s1", "wave");
    const auto report = session.open_storage(dir_);
    EXPECT_TRUE(report.created);
    // Pre-existing instances were checkpointed into the fresh store.
    EXPECT_EQ(session.storage()->epoch(), 1u);
    session.import_data("Stimuli", "s2", "wave2");
  }
  core::DesignSession session(schema::make_fig1_schema(), "ada");
  const auto report = session.open_storage(dir_);
  EXPECT_FALSE(report.created);
  EXPECT_EQ(report.snapshot_instances, 2u);
  EXPECT_EQ(report.journal_records_applied, 1u);
  EXPECT_EQ(session.db().size(), 3u);
  // Both sides non-empty is ambiguous and refused.
  core::DesignSession other(schema::make_fig1_schema(), "ada");
  other.import_data("Stimuli", "clash", "w");
  EXPECT_THROW(other.open_storage(dir_), HistoryError);
}

TEST_F(StorageTest, SessionCloseStorageKeepsHistoryInMemory) {
  core::DesignSession session(schema::make_fig1_schema(), "ada");
  session.open_storage(dir_);
  session.import_data("Stimuli", "s1", "wave");
  session.close_storage();
  EXPECT_EQ(session.storage(), nullptr);
  EXPECT_EQ(session.db().size(), 1u);
  // Mutations after closing are not journaled.
  session.import_data("Stimuli", "s2", "wave2");
  core::DesignSession fresh(schema::make_fig1_schema(), "ada");
  fresh.open_storage(dir_);
  EXPECT_EQ(fresh.db().size(), 1u);
}

TEST_F(StorageTest, ExecutorFailureRecordsPersist) {
  // The executor writes failure records through HistoryDb::record (PR 1);
  // the same write path must reach the journal.
  {
    core::DesignSession session(schema::make_fig1_schema(), "ada");
    session.open_storage(dir_);
    RecordRequest failed;
    failed.type = session.schema().require("Performance");
    failed.name = "";
    failed.user = "ada";
    failed.comment = "simulator timed out";
    failed.status = InstanceStatus::kFailed;
    failed.derivation.task = "Simulator";
    session.db().record(failed);
  }
  core::DesignSession session(schema::make_fig1_schema(), "ada");
  session.open_storage(dir_);
  ASSERT_EQ(session.db().failures().size(), 1u);
  const history::Instance& failure =
      session.db().instance(session.db().failures()[0]);
  EXPECT_EQ(failure.status, InstanceStatus::kFailed);
  EXPECT_EQ(failure.comment, "simulator timed out");
  // Failure records stay invisible to normal listings after recovery.
  EXPECT_TRUE(session.db()
                  .instances_of(session.schema().require("Performance"))
                  .empty());
}

TEST_F(StorageTest, InterpreterOpenCheckpointStore) {
  {
    std::ostringstream out;
    cli::Interpreter interp(out);
    EXPECT_EQ(interp.execute("session new fig1 ada"), cli::CommandStatus::kOk);
    EXPECT_EQ(interp.execute("open " + dir_), cli::CommandStatus::kOk)
        << interp.last_error();
    EXPECT_EQ(interp.execute("import Stimuli wave \"\""),
              cli::CommandStatus::kOk);
    EXPECT_EQ(interp.execute("checkpoint"), cli::CommandStatus::kOk)
        << interp.last_error();
    EXPECT_EQ(interp.execute("store"), cli::CommandStatus::kOk);
    EXPECT_NE(out.str().find("store created at"), std::string::npos);
    EXPECT_NE(out.str().find("epoch 1"), std::string::npos);
  }
  std::ostringstream out;
  cli::Interpreter interp(out);
  EXPECT_EQ(interp.execute("session new fig1 ada"), cli::CommandStatus::kOk);
  EXPECT_EQ(interp.execute("open " + dir_ + " sync=commit"),
            cli::CommandStatus::kOk)
      << interp.last_error();
  EXPECT_EQ(interp.session().db().size(), 1u);
  EXPECT_NE(out.str().find("store opened at"), std::string::npos);
  // `checkpoint` without a store is a reported error, not a crash.
  EXPECT_EQ(interp.execute("store close"), cli::CommandStatus::kOk);
  EXPECT_EQ(interp.execute("checkpoint"), cli::CommandStatus::kError);
}

// ---- I/O failure is fail-stop -------------------------------------------------

TEST_F(StorageTest, FailedFsyncPoisonsTheJournalUntilReopen) {
  StoreOptions options;
  options.journal.sync = SyncPolicy::kCommit;
  {
    DurableHistory store(schema_, clock_, dir_, options);
    store.db().import_instance(schema_.require("Stimuli"), "kept", "w", "u");
    {
      const FailingIo failing("fsync");
      EXPECT_THROW(store.db().import_instance(schema_.require("Stimuli"),
                                              "unsynced", "w", "u"),
                   support::StorageError);
    }
    // The disk works again, but a failed fsync is never retried: every
    // later write is refused until the store is reopened.
    try {
      store.db().import_instance(schema_.require("Stimuli"), "refused", "w",
                                 "u");
      ADD_FAILURE() << "a poisoned journal accepted a write";
    } catch (const support::StorageError& e) {
      EXPECT_NE(std::string(e.what()).find("reopen"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(store.sync(), support::StorageError);
  }
  // Recovery re-reads what reached the disk: the acknowledged import, and
  // the unsynced frame whose bytes the page cache still held.
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_, options);
  EXPECT_EQ(store.db().size(), 2u);
  store.db().import_instance(schema_.require("Stimuli"), "after", "w", "u");
  EXPECT_EQ(store.db().size(), 3u);
}

TEST_F(StorageTest, FailedFlushPoisonsTheJournal) {
  StoreOptions options;
  options.journal.sync = SyncPolicy::kNone;
  DurableHistory store(schema_, clock_, dir_, options);
  store.db().import_instance(schema_.require("Stimuli"), "a", "w", "u");
  {
    const FailingIo failing("fflush");
    EXPECT_THROW(store.sync(), support::StorageError);
  }
  EXPECT_THROW(store.db().import_instance(schema_.require("Stimuli"), "b",
                                          "w", "u"),
               support::StorageError);
}

TEST_F(StorageTest, FailedSnapshotFsyncFailsTheCheckpointAndPoisons) {
  {
    DurableHistory store(schema_, clock_, dir_);
    populate(store.db());
    {
      const FailingIo failing("fsync");
      EXPECT_THROW(store.checkpoint(), support::StorageError);
    }
    EXPECT_EQ(store.epoch(), 0u);
    EXPECT_THROW(store.db().import_instance(schema_.require("Stimuli"),
                                            "late", "w", "u"),
                 support::StorageError);
  }
  support::ManualClock clock2(0, 1);
  DurableHistory store(schema_, clock2, dir_);
  EXPECT_EQ(store.db().size(), 4u);
}

}  // namespace
}  // namespace herc::storage
