// Crash-resume benchmark: after a crash halfway through a 1000-task flow,
// resuming (memoized re-run of the journaled intents) must be roughly
// twice as cheap as re-running the whole flow — the win the run-intent
// frames pay for.  Also measures `fsck_store` scan throughput on a
// 12k-instance store.  Emits BENCH_resume.json in the working directory.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "graph/task_graph.hpp"
#include "history/history_db.hpp"
#include "schema/task_schema.hpp"
#include "storage/fsck.hpp"
#include "storage/journal.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"
#include "tools/registry.hpp"

namespace {

namespace fs = std::filesystem;
using namespace herc;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr std::size_t kTasks = 1000;
constexpr std::size_t kFsckInstances = 12000;
/// Fixed per-task cost modeling a real tool invocation.  With free tasks
/// the run is pure framework overhead and memoized reuse cannot win; a
/// half-millisecond floor is still far below any real CAD tool.
constexpr std::chrono::microseconds kTaskCost{500};

/// A linear chain of `kTasks` tasks: Src -> D1 -> ... -> D<n>, each with
/// its own tool.  Every encapsulation passes a short constant payload on,
/// so task cost is dominated by the framework, not by string growth.
schema::TaskSchema make_chain_schema() {
  schema::TaskSchema s("resume-bench");
  schema::EntityTypeId prev = s.add_data("Src");
  for (std::size_t i = 1; i <= kTasks; ++i) {
    const schema::EntityTypeId tool = s.add_tool("T" + std::to_string(i));
    const schema::EntityTypeId d = s.add_data("D" + std::to_string(i));
    s.set_functional_dependency(d, tool);
    s.add_data_dependency(d, prev);
    prev = d;
  }
  s.validate();
  return s;
}

void register_tools(tools::ToolRegistry& registry,
                    const schema::TaskSchema& schema) {
  for (std::size_t i = 1; i <= kTasks; ++i) {
    tools::Encapsulation enc;
    enc.name = "T" + std::to_string(i) + ".enc";
    enc.tool_type = schema.require("T" + std::to_string(i));
    const std::string out_entity = "D" + std::to_string(i);
    enc.fn = [out_entity](const tools::ToolContext&) {
      std::this_thread::sleep_for(kTaskCost);
      tools::ToolOutput out;
      out.set(out_entity, "p:" + out_entity);
      return out;
    };
    registry.register_encapsulation(std::move(enc));
  }
}

graph::TaskGraph make_chain_flow(const schema::TaskSchema& schema,
                                 history::HistoryDb& db) {
  graph::TaskGraph flow(schema, "chain");
  flow.add_node(schema.require("D" + std::to_string(kTasks)));
  bool again = true;
  while (again) {
    again = false;
    for (const graph::NodeId n : flow.nodes()) {
      const graph::Node& node = flow.node(n);
      if (node.expanded || schema.is_tool(node.type) ||
          schema.is_source(node.type)) {
        continue;
      }
      flow.expand(n);
      again = true;
    }
  }
  for (const graph::NodeId n : flow.unbound_leaves()) {
    const schema::EntityTypeId type = flow.node(n).type;
    const std::string& name = schema.entity_name(type);
    flow.bind(n, db.import_instance(type, name + "#leaf", "seed:" + name,
                                    "bench"));
  }
  return flow;
}

}  // namespace

int main() {
  const schema::TaskSchema schema = make_chain_schema();
  tools::ToolRegistry registry(schema);
  register_tools(registry, schema);

  const std::string dir =
      (fs::temp_directory_path() / "herc_bench_resume").string();
  fs::remove_all(dir);
  storage::StoreOptions options;
  options.journal.sync = storage::SyncPolicy::kNone;

  // Uninterrupted 1000-task run against a fresh store.
  double full_run_ms = 0;
  std::uint64_t run_epoch = 0;
  {
    support::ManualClock clock(718000000000000LL, 1000);
    storage::DurableHistory store(schema, clock, dir, options);
    graph::TaskGraph flow = make_chain_flow(schema, store.db());
    store.checkpoint();  // imports -> snapshot; journal = run era only
    run_epoch = store.epoch();
    exec::Executor exec(store.db(), registry);
    const auto start = Clock::now();
    const exec::ExecResult result = exec.run(flow);
    full_run_ms = ms_since(start);
    if (result.tasks_run != kTasks) {
      std::fprintf(stderr, "full run executed %zu tasks\n", result.tasks_run);
      return 1;
    }
  }

  // Simulate a crash halfway: keep the journal prefix up to the 500th
  // task-finished frame, exactly what a kill at that instant leaves.
  const std::string journal = storage::read_file(storage::journal_path(dir));
  const std::vector<std::string> records =
      storage::journal_records(dir, run_epoch).value_or(
          std::vector<std::string>{});
  std::size_t cut = 0;
  std::size_t fins = 0;
  std::size_t at = storage::kJournalHeaderBytes;
  for (const std::string& record : records) {
    at += storage::kFrameHeaderBytes + record.size();
    if (record.rfind("tfin|", 0) == 0 && ++fins == kTasks / 2) {
      cut = at;
      break;
    }
  }
  if (cut == 0) {
    std::fprintf(stderr, "no mid-run frame boundary found\n");
    return 1;
  }

  const auto crash_at = [&](const std::string& trial) {
    fs::remove_all(trial);
    fs::create_directories(trial);
    fs::copy_file(storage::schema_path(dir), storage::schema_path(trial));
    fs::copy_file(storage::snapshot_path(dir), storage::snapshot_path(trial));
    std::ofstream out(storage::journal_path(trial), std::ios::binary);
    out.write(journal.data(), static_cast<std::streamsize>(cut));
  };

  // Resume: recovery + memoized re-run of the unfinished half.
  double recovery_ms = 0;
  double resume_ms = 0;
  std::size_t resume_ran = 0;
  std::size_t resume_reused = 0;
  {
    const std::string trial = dir + "_resume";
    crash_at(trial);
    support::ManualClock clock(719000000000000LL, 1000);
    auto start = Clock::now();
    storage::DurableHistory store(schema, clock, trial, options);
    recovery_ms = ms_since(start);
    exec::Executor exec(store.db(), registry);
    start = Clock::now();
    const exec::ExecResult result =
        exec.resume(store.db().open_runs().front()->id);
    resume_ms = ms_since(start);
    resume_ran = result.tasks_run;
    resume_reused = result.tasks_reused;
    if (resume_ran + resume_reused != kTasks || !store.db().open_runs().empty()) {
      std::fprintf(stderr, "resume did not complete the flow\n");
      return 1;
    }
    fs::remove_all(trial);
  }

  // The alternative without run intents: re-run the whole flow from the
  // same crashed store (no memoization — the pre-crash products would not
  // be trusted without the coverage frames).
  double rerun_ms = 0;
  {
    const std::string trial = dir + "_rerun";
    crash_at(trial);
    support::ManualClock clock(719000000000000LL, 1000);
    storage::DurableHistory store(schema, clock, trial, options);
    graph::TaskGraph flow = make_chain_flow(schema, store.db());
    exec::Executor exec(store.db(), registry);
    const auto start = Clock::now();
    const exec::ExecResult result = exec.run(flow);
    rerun_ms = ms_since(start);
    if (result.tasks_run != kTasks) {
      std::fprintf(stderr, "re-run executed %zu tasks\n", result.tasks_run);
      return 1;
    }
    fs::remove_all(trial);
  }

  // fsck scan throughput on a 12k-instance store.
  double fsck_ms = 0;
  std::size_t fsck_instances = 0;
  {
    const std::string audit_dir = dir + "_audit";
    fs::remove_all(audit_dir);
    support::ManualClock clock(720000000000000LL, 1000);
    storage::DurableHistory store(schema, clock, audit_dir, options);
    const schema::EntityTypeId src = schema.require("Src");
    for (std::size_t i = 0; i < kFsckInstances; ++i) {
      store.db().import_instance(src, "s" + std::to_string(i),
                                 "payload" + std::to_string(i % 257),
                                 "bench");
    }
    store.sync();
    const auto start = Clock::now();
    const storage::FsckReport report = storage::fsck_store(audit_dir);
    fsck_ms = ms_since(start);
    fsck_instances = report.stats.instances;
    if (report.exit_code() != 0) {
      std::fprintf(stderr, "audit store not clean:\n%s",
                   report.render().c_str());
      return 1;
    }
    fs::remove_all(audit_dir);
  }
  fs::remove_all(dir);

  const double speedup = rerun_ms / resume_ms;
  const double fsck_per_sec = fsck_instances / (fsck_ms / 1000.0);

  std::ofstream json("BENCH_resume.json", std::ios::trunc);
  json << "{\n"
       << "  \"tasks\": " << kTasks << ",\n"
       << "  \"full_run_ms\": " << full_run_ms << ",\n"
       << "  \"crash_recovery_ms\": " << recovery_ms << ",\n"
       << "  \"resume_ms\": " << resume_ms << ",\n"
       << "  \"resume_tasks_run\": " << resume_ran << ",\n"
       << "  \"resume_tasks_reused\": " << resume_reused << ",\n"
       << "  \"full_rerun_ms\": " << rerun_ms << ",\n"
       << "  \"resume_vs_rerun_speedup\": " << speedup << ",\n"
       << "  \"fsck_instances\": " << fsck_instances << ",\n"
       << "  \"fsck_scan_ms\": " << fsck_ms << ",\n"
       << "  \"fsck_instances_per_sec\": " << fsck_per_sec << "\n"
       << "}\n";
  json.close();

  std::printf("bench_resume: %zu-task flow, crash at 50%%\n", kTasks);
  std::printf("  full run            %.2f ms\n", full_run_ms);
  std::printf("  crash recovery      %.2f ms\n", recovery_ms);
  std::printf("  resume              %.2f ms (%zu run, %zu reused)\n",
              resume_ms, resume_ran, resume_reused);
  std::printf("  full re-run         %.2f ms\n", rerun_ms);
  std::printf("  resume speedup      %.2fx\n", speedup);
  std::printf("  fsck scan           %.2f ms for %zu instances (%.0f/s)\n",
              fsck_ms, fsck_instances, fsck_per_sec);
  std::printf("  -> BENCH_resume.json\n");

  // The structural claim, robust to machine noise: resume re-executed
  // only the unfinished half.
  if (resume_ran > kTasks / 2 + 1 || resume_reused < kTasks / 2 - 1) {
    std::fprintf(stderr,
                 "FAIL: resume re-ran %zu tasks (expected ~%zu)\n",
                 resume_ran, kTasks / 2);
    return 1;
  }
  if (speedup < 1.2) {
    std::fprintf(stderr,
                 "FAIL: resume speedup %.2fx < 1.2x over full re-run\n",
                 speedup);
    return 1;
  }
  return 0;
}
