// Crash-resume property: killing a journaled 20-task run at EVERY byte
// offset of the journal leaves a store that (a) recovers without error,
// (b) resumes (or re-runs) to a complete flow, and (c) ends with exactly
// the uninterrupted run's active history — no task record lost, none
// duplicated.
//
// Structure (mirrors storage_property_test):
//   1. A random 20-task DAG is run once against a fresh store; the journal
//      bytes and the reference active-history signature are captured (the
//      imports live in the snapshot, so the journal holds only run-era
//      frames: run intents and products).
//   2. For every byte offset t, a trial store is built from the snapshot
//      plus the t-byte journal prefix and recovered — partial products are
//      quarantined.  If the run-begin frame survived, the run is resumed;
//      otherwise the flow is re-run with memoization.  Either way the
//      final active signature must equal the reference exactly (equality
//      of the sorted multiset rules out both duplicates and losses).
//   3. Sampled offsets additionally fsck the finished store: clean.
//
// A second property does the same for two runs that interleave, as runs
// from two server connections do: run B begins while run A's first task
// executes and ends before A's last task, so a crash can tear A's products
// after B's begin.  Every crash point must still quarantine every partial,
// audit clean or resumable, and resume both runs to completion.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "fault_test_util.hpp"
#include "property_seed.hpp"
#include "storage/fsck.hpp"
#include "storage/store.hpp"
#include "support/text.hpp"

namespace herc::exec {
namespace {

namespace fs = std::filesystem;
using faulttest::World;
using graph::TaskGraph;
using storage::DurableHistory;
using storage::StoreOptions;
using storage::SyncPolicy;

constexpr std::size_t kTasks = 20;
const std::uint64_t kSeed = testprop::base_seed(0xD1CEu);

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> active_signature(const history::HistoryDb& db) {
  std::vector<std::string> sig;
  for (const std::string& line : faulttest::history_signature(db)) {
    if (line.find("|status=0|") != std::string::npos) sig.push_back(line);
  }
  return sig;
}

TEST(ResumePropertyTest, EveryByteCrashPointResumesToTheSameHistory) {
  SCOPED_TRACE(testprop::seed_note(kSeed));
  World w;
  const TaskGraph flow = faulttest::make_random_dag(w, kTasks, kSeed);
  const std::string dir =
      (fs::temp_directory_path() / "herc_resume_property").string();
  fs::remove_all(dir);

  StoreOptions options;
  options.journal.sync = SyncPolicy::kNone;

  std::vector<std::string> reference;
  {
    DurableHistory store(w.schema, w.clock, dir, options);
    store.adopt(std::move(w.db));  // imports -> snapshot; journal = run era
    Executor exec(store.db(), w.tools);
    const ExecResult result = exec.run(flow);
    ASSERT_EQ(result.tasks_run, kTasks);
    ASSERT_EQ(result.tasks_failed, 0u);
    reference = active_signature(store.db());
  }
  const std::string journal = slurp((fs::path(dir) / "journal.wal").string());
  ASSERT_GT(journal.size(), storage::kJournalHeaderBytes);

  const std::string trial = dir + "_trial";
  for (std::size_t t = 0; t <= journal.size(); ++t) {
    fs::remove_all(trial);
    fs::create_directories(trial);
    fs::copy_file(fs::path(dir) / "schema.herc",
                  fs::path(trial) / "schema.herc");
    fs::copy_file(fs::path(dir) / "snapshot.herc",
                  fs::path(trial) / "snapshot.herc");
    {
      std::ofstream out((fs::path(trial) / "journal.wal").string(),
                        std::ios::binary);
      out.write(journal.data(), static_cast<std::streamsize>(t));
    }

    support::ManualClock clock(1u << 20, 1);
    DurableHistory store(w.schema, clock, trial, options);
    Executor exec(store.db(), w.tools);
    ExecResult result;
    const auto open = store.db().open_runs();
    if (!open.empty()) {
      ASSERT_EQ(open.size(), 1u) << "offset " << t;
      result = exec.resume(open.front()->id);
    } else {
      // The crash predates the run-begin frame (or ate the journal header
      // entirely): nothing to resume, so the flow runs afresh — with
      // memoization, so any surviving products are still not duplicated.
      ExecOptions redo;
      redo.reuse_existing = true;
      result = exec.run(flow, redo);
    }
    ASSERT_EQ(result.tasks_failed, 0u) << "offset " << t;
    ASSERT_EQ(result.tasks_skipped, 0u) << "offset " << t;
    ASSERT_EQ(result.tasks_run + result.tasks_reused, kTasks)
        << "offset " << t;
    ASSERT_EQ(active_signature(store.db()), reference) << "offset " << t;
    ASSERT_TRUE(store.db().open_runs().empty()) << "offset " << t;

    // Sampled offsets: the healed store must audit clean on disk.
    if (t % 509 == 0 || t == journal.size()) {
      store.sync();
      const storage::FsckReport report = storage::fsck_store(trial);
      ASSERT_EQ(report.exit_code(), 0)
          << "offset " << t << "\n" << report.render();
    }
  }
  fs::remove_all(trial);
  fs::remove_all(dir);
}

/// Polls `done` every millisecond for up to ten seconds.
template <typename Pred>
bool wait_until(Pred done) {
  for (int i = 0; i < 10'000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// A chain `<prefix>Src -> <prefix>D1 -> ... -> <prefix>D<depth>` whose
/// encapsulation for task `i` first runs `gate(i)`; returns the bound flow.
template <typename Gate>
TaskGraph gated_chain(World& w, const std::string& prefix, std::size_t depth,
                      Gate gate) {
  schema::EntityTypeId prev = w.schema.add_data(prefix + "Src");
  for (std::size_t i = 1; i <= depth; ++i) {
    const std::string tool_name = prefix + "T" + std::to_string(i);
    const std::string data_name = prefix + "D" + std::to_string(i);
    const schema::EntityTypeId tool = w.schema.add_tool(tool_name);
    const schema::EntityTypeId d = w.schema.add_data(data_name);
    w.schema.set_functional_dependency(d, tool);
    w.schema.add_data_dependency(d, prev);
    tools::Encapsulation enc;
    enc.name = tool_name + ".enc";
    enc.tool_type = tool;
    enc.fn = [gate, i, data_name](const tools::ToolContext& ctx) {
      gate(i);
      tools::ToolOutput out;
      out.set(data_name, ctx.inputs.front().payloads.front() + ">" +
                             data_name);
      return out;
    };
    w.tools.register_encapsulation(std::move(enc));
    prev = d;
  }
  TaskGraph flow(w.schema, prefix);
  flow.add_node(w.schema.require(prefix + "D" + std::to_string(depth)));
  faulttest::expand_all(flow);
  faulttest::bind_leaves(w, flow);
  return flow;
}

TEST(ResumePropertyTest, InterleavedRunsResumeFromEveryCrashPoint) {
  World w;
  std::shared_mutex commit;  // what the server's session lock is to a run
  // The gates order the reference run only; trial resumes pass straight
  // through.
  std::atomic<bool> gated{true};
  std::atomic<bool> b_started{false};
  const history::HistoryDb* live = nullptr;
  const auto b_closed = [&] {
    const std::shared_lock lock(commit);
    for (const history::RunRecord& run : live->runs()) {
      if (run.flow_name == "B" && !run.open()) return true;
    }
    return false;
  };
  // A's first task waits until B's tool is executing; A's second waits
  // until B's run has ended — so B begins and ends inside A's run.
  const TaskGraph flow_a = gated_chain(w, "A", 3, [&](std::size_t task) {
    if (!gated.load()) return;
    if (task == 1) {
      EXPECT_TRUE(wait_until([&] { return b_started.load(); }));
    } else if (task == 2) {
      EXPECT_TRUE(wait_until(b_closed));
    }
  });
  const TaskGraph flow_b = gated_chain(w, "B", 2, [&](std::size_t task) {
    if (task == 1) b_started.store(true);
  });
  const std::string dir =
      (fs::temp_directory_path() / "herc_resume_interleaved").string();
  fs::remove_all(dir);
  StoreOptions options;
  options.journal.sync = SyncPolicy::kNone;

  std::vector<std::string> reference;
  {
    DurableHistory store(w.schema, w.clock, dir, options);
    store.adopt(std::move(w.db));
    live = &store.db();
    Executor exec(store.db(), w.tools);
    ExecOptions shared;
    shared.commit_lock = &commit;
    std::atomic<bool> a_ok{false};
    std::thread a([&] { a_ok = exec.run(flow_a, shared).complete(); });
    // Let A begin first, so the journal holds runb A before runb B.
    const bool a_began = wait_until([&] {
      const std::shared_lock lock(commit);
      return !store.db().runs().empty();
    });
    const ExecResult b = exec.run(flow_b, shared);
    a.join();
    gated.store(false);
    ASSERT_TRUE(a_began);
    ASSERT_TRUE(b.complete());
    ASSERT_TRUE(a_ok.load());
    reference = active_signature(store.db());
  }
  const std::string journal = slurp((fs::path(dir) / "journal.wal").string());
  // The journal really interleaves: B's begin and end frames both land
  // between A's begin and A's end.
  const auto at = [&](std::string_view needle) {
    const std::size_t pos = journal.find(needle);
    EXPECT_NE(pos, std::string::npos) << needle;
    return pos;
  };
  ASSERT_LT(at("runb|0|A"), at("runb|1|B"));
  ASSERT_LT(at("rune|1|complete"), at("rune|0|complete"));

  const std::string trial = dir + "_trial";
  for (std::size_t t = 0; t <= journal.size(); ++t) {
    fs::remove_all(trial);
    fs::create_directories(trial);
    fs::copy_file(fs::path(dir) / "schema.herc",
                  fs::path(trial) / "schema.herc");
    fs::copy_file(fs::path(dir) / "snapshot.herc",
                  fs::path(trial) / "snapshot.herc");
    {
      std::ofstream out((fs::path(trial) / "journal.wal").string(),
                        std::ios::binary);
      out.write(journal.data(), static_cast<std::streamsize>(t));
    }

    support::ManualClock clock(1u << 20, 1);
    DurableHistory store(w.schema, clock, trial, options);
    ASSERT_TRUE(store.db().partial_products().empty()) << "offset " << t;
    store.sync();
    const storage::FsckReport audit = storage::fsck_store(trial);
    ASSERT_EQ(audit.exit_code(), 0) << "offset " << t << "\n"
                                    << audit.render();

    // Resume what was interrupted; run afresh (memoized) what never began.
    Executor exec(store.db(), w.tools);
    for (const TaskGraph* flow : {&flow_a, &flow_b}) {
      const history::RunRecord* begun = nullptr;
      for (const history::RunRecord& run : store.db().runs()) {
        if (run.flow_name == flow->name()) begun = &run;
      }
      ExecResult result;
      if (begun == nullptr) {
        ExecOptions redo;
        redo.reuse_existing = true;
        result = exec.run(*flow, redo);
      } else if (begun->open()) {
        result = exec.resume(begun->id);
      } else {
        continue;
      }
      ASSERT_TRUE(result.complete()) << "offset " << t << " flow "
                                     << flow->name();
    }
    ASSERT_TRUE(store.db().open_runs().empty()) << "offset " << t;
    ASSERT_EQ(active_signature(store.db()), reference) << "offset " << t;
  }
  fs::remove_all(trial);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace herc::exec
