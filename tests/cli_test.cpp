// The command interpreter: scripts, heredocs, every command family,
// error reporting.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "cli/interpreter.hpp"
#include "data/blob_store.hpp"
#include "support/record.hpp"

namespace herc::cli {
namespace {

/// Runs a script and returns (failures, captured output).
std::pair<std::size_t, std::string> run(const std::string& script) {
  std::ostringstream out;
  Interpreter interpreter(out);
  const std::size_t failures = interpreter.run_script(script);
  return {failures, out.str()};
}

std::string inverter_heredoc() {
  return "import EditedNetlist inv <<END\n" +
         circuit::inverter_netlist().to_text() + "END\n";
}

TEST(Cli, EmptyLinesAndCommentsAreIgnored) {
  const auto [failures, out] = run("\n# just a comment\n   \necho hi\n");
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(out, "hi\n");
}

TEST(Cli, UnknownCommandsFailWithHelpPointer) {
  std::ostringstream out;
  Interpreter interpreter(out);
  EXPECT_EQ(interpreter.execute("teleport now"), CommandStatus::kError);
  EXPECT_NE(interpreter.last_error().find("help"), std::string::npos);
  EXPECT_NE(out.str().find("error:"), std::string::npos);
}

TEST(Cli, QuitStopsScripts) {
  const auto [failures, out] = run("echo one\nquit\necho two\n");
  EXPECT_EQ(failures, 0u);
  EXPECT_NE(out.find("one"), std::string::npos);
  EXPECT_EQ(out.find("two"), std::string::npos);
}

TEST(Cli, ImportWithHeredocAndEmptyPayload) {
  const auto [failures, out] = run(inverter_heredoc() +
                                   "import Simulator sim \"\"\n");
  EXPECT_EQ(failures, 0u);
  EXPECT_NE(out.find("imported i0"), std::string::npos);
  EXPECT_NE(out.find("imported i1"), std::string::npos);
  EXPECT_NE(out.find("0 bytes"), std::string::npos);
}

TEST(Cli, UnterminatedHeredocIsAnError) {
  const auto [failures, out] = run("import Stimuli s <<END\nwave x 0:1\n");
  EXPECT_EQ(failures, 1u);
  EXPECT_NE(out.find("unterminated"), std::string::npos);
}

TEST(Cli, FullSimulationSession) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n";
  script += circuit::DeviceModelLibrary::standard().to_text();
  script += "END\n";
  script += "import Stimuli walk <<END\n";
  script += "stimuli walk\nwave in 0:0 1000:1 2000:0\n";
  script += "END\n";
  script += "import Simulator sim \"\"\n";
  script +=
      "flow new f goal Performance\n"
      "flow expand f 0\n"
      "flow expand f 2\n"
      "flow bind f 1 i3\n"
      "flow bind f 3 i2\n"
      "flow bind f 4 i1\n"
      "flow bind f 5 i0\n"
      "flow show f\n"
      "flow lisp f\n"
      "run f\n"
      "history i5\n"
      "uses i0\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("status: runnable"), std::string::npos);
  EXPECT_NE(out.find("Performance(Simulator, Circuit(compose, "
                     "DeviceModels, Netlist), Stimuli)"),
            std::string::npos);
  EXPECT_NE(out.find("ran 2 tasks"), std::string::npos);
  // The history listing reaches the imported netlist.
  EXPECT_NE(out.find("'inv'"), std::string::npos);
}

TEST(Cli, AutoFlowCommand) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script += "auto Performance run\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("ran 2 tasks"), std::string::npos);
  EXPECT_NE(out.find("produced i"), std::string::npos);
}

TEST(Cli, BrowseWithFilters) {
  std::string script = inverter_heredoc();
  script += "session user director\n";
  script += "import EditedNetlist adder <<END\n" +
            circuit::full_adder_netlist().to_text() + "END\n";
  script += "browse Netlist\n";
  script += "browse Netlist user=director\n";
  script += "browse Netlist keyword=inv\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  // The unfiltered listing shows both; the user filter only the adder.
  EXPECT_NE(out.find("adder"), std::string::npos);
  EXPECT_NE(out.find("inv"), std::string::npos);
}

TEST(Cli, PlanLifecycleThroughCommands) {
  std::string script;
  script +=
      "flow new f goal Performance\n"
      "flow expand f 0\n"
      "flow save-plan f\n"
      "plans\n"
      "flow new g plan goal:Performance\n"
      "flow show g\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("goal:Performance"), std::string::npos);
  EXPECT_NE(out.find("unbound leaves"), std::string::npos);
}

TEST(Cli, SchemaSwitchClearsFlows) {
  std::ostringstream out;
  Interpreter interpreter(out);
  EXPECT_EQ(interpreter.execute("flow new f goal Performance"),
            CommandStatus::kOk);
  EXPECT_EQ(interpreter.execute("session new fig2 bryant"),
            CommandStatus::kOk);
  // Old flows are gone; fig2 lacks the Fig. 1 entities.
  EXPECT_EQ(interpreter.execute("flow show f"), CommandStatus::kError);
  EXPECT_EQ(interpreter.execute("flow new c goal Verification"),
            CommandStatus::kError);
  EXPECT_EQ(interpreter.execute("flow new c goal Performance"),
            CommandStatus::kOk);
  EXPECT_EQ(interpreter.session().user(), "bryant");
}

TEST(Cli, VersionAndConsistencyCommands) {
  std::string script = inverter_heredoc();
  script += "import CircuitEditor ed <<END\nset mn value=2\nEND\n";
  script +=
      "flow new e goal EditedNetlist\n"
      "flow expand e 0 optional\n"
      "flow bind e 1 i1\n"
      "flow bind e 2 i0\n"
      "run e\n"
      "versions i0\n"
      "stale i0\n"
      "annotate i2 v2 widened\n"
      "payload i2\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("i2 v2 (edited from i0)"), std::string::npos);
  EXPECT_NE(out.find("is up to date"), std::string::npos);
  EXPECT_NE(out.find("value=2"), std::string::npos);
}

TEST(Cli, SessionSaveLoadThroughFiles) {
  const std::string path =
      ::testing::TempDir() + "herc_cli_session.txt";
  {
    std::ostringstream out;
    Interpreter interpreter(out);
    EXPECT_EQ(interpreter.run_script(inverter_heredoc() +
                                     "session user archivist\n"
                                     "session save " + path + "\n"),
              0u)
        << out.str();
    EXPECT_NE(out.str().find("session saved"), std::string::npos);
  }
  {
    std::ostringstream out;
    Interpreter interpreter(out);
    EXPECT_EQ(interpreter.run_script("session load " + path + "\n"
                                     "browse Netlist\n"),
              0u)
        << out.str();
    EXPECT_NE(out.str().find("session loaded: 1 instances"),
              std::string::npos);
    EXPECT_NE(out.str().find("inv"), std::string::npos);
    EXPECT_EQ(interpreter.session().user(), "archivist");
  }
  // Missing files are reported, not fatal.
  std::ostringstream out;
  Interpreter interpreter(out);
  EXPECT_EQ(interpreter.execute("session load /nonexistent/nowhere.txt"),
            CommandStatus::kError);
}

TEST(Cli, BadReferencesAreReported) {
  std::ostringstream out;
  Interpreter interpreter(out);
  EXPECT_EQ(interpreter.execute("history i99"), CommandStatus::kError);
  EXPECT_EQ(interpreter.execute("history 5"), CommandStatus::kError);
  EXPECT_EQ(interpreter.execute("flow new f goal Performance"),
            CommandStatus::kOk);
  EXPECT_EQ(interpreter.execute("flow expand f banana"),
            CommandStatus::kError);
  EXPECT_NE(interpreter.last_error().find("node id"), std::string::npos);
  EXPECT_EQ(interpreter.execute("flow expand f 7"), CommandStatus::kError);
}

TEST(Cli, FindCommandRunsQueries) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script += "auto Performance run\n";
  script += "find Performance where circuit.netlist = i0\n";
  script += "find Performance where circuit.netlist = \"inv\"\n";
  script += "find Performance where stimuli = i99\n";  // bad ref
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 1u) << out;
  // Both good queries list the produced performance.
  const std::string needle = "Performance  'Performance#";
  const std::size_t first = out.find(needle);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(out.find(needle, first + 1), std::string::npos);
}

TEST(Cli, TraceRetraceAndDecomposeCommands) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script += "import CircuitEditor ed <<END\nset mn value=2\nEND\n";
  script += "auto Performance run\n";       // produces circuit i5? + perf
  script += "trace i6 backward\n";          // the performance instance
  script += "trace i6 forward\n";
  script += "decompose i5\n";               // the composed circuit
  // Edit the netlist -> performance stale -> retrace.
  script +=
      "flow new e goal EditedNetlist\n"
      "flow expand e 0 optional\n"
      "flow bind e 1 i4\n"
      "flow bind e 2 i0\n"
      "run e\n"
      "stale i6\n"
      "retrace i6\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("digraph \"backward-trace\""), std::string::npos);
  EXPECT_NE(out.find("digraph \"forward-trace\""), std::string::npos);
  EXPECT_NE(out.find("component i"), std::string::npos);
  EXPECT_NE(out.find("is STALE"), std::string::npos);
  EXPECT_NE(out.find("retraced ->"), std::string::npos);
}

TEST(Cli, FlowRenderingCommands) {
  const auto [failures, out] = run(
      "flow new f goal Performance\n"
      "flow expand f 0\n"
      "flow dot f\n"
      "flow bipartite f\n"
      "flow expandup f 0 PerformancePlot\n"
      "flow show f\n");
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("digraph"), std::string::npos);
  EXPECT_NE(out.find("--Simulator--> [Performance]"), std::string::npos);
  EXPECT_NE(out.find("consumer node"), std::string::npos);
}

TEST(Cli, SchemaShowAndExtend) {
  std::string script =
      "schema extend <<END\n"
      "tool TimingAnalyzer\n"
      "data TimingReport\n"
      "fd TimingReport -> TimingAnalyzer\n"
      "dd TimingReport -> Netlist\n"
      "END\n"
      "schema show\n"
      "flow new t goal TimingReport\n"
      "flow expand t 0\n"
      "flow show t\n";
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("schema extended"), std::string::npos);
  EXPECT_NE(out.find("fd TimingReport -> TimingAnalyzer"),
            std::string::npos);
  EXPECT_NE(out.find("TimingAnalyzer"), std::string::npos);
}

TEST(Cli, RetraceOnUpToDateInstanceIsFriendly) {
  // An up-to-date instance is not an error: the command reports it and
  // the script keeps going (the library-level retrace throws here).
  const auto [failures, out] = run(inverter_heredoc() +
                                   "retrace i0\n"
                                   "echo still-alive\n");
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("i0 is up to date; nothing to retrace"),
            std::string::npos);
  EXPECT_NE(out.find("still-alive"), std::string::npos);
}

TEST(Cli, RunsAndResumeCommands) {
  std::string script = inverter_heredoc();
  script += "import DeviceModels std <<END\n" +
            circuit::DeviceModelLibrary::standard().to_text() + "END\n";
  script += "import Stimuli walk <<END\nstimuli w\nwave in 0:1\nEND\n";
  script += "import Simulator sim \"\"\n";
  script += "runs\n";         // nothing yet
  script += "auto Performance run\n";
  script += "runs\n";         // one closed run
  script += "resume\n";       // nothing open
  const auto [failures, out] = run(script);
  EXPECT_EQ(failures, 0u) << out;
  EXPECT_NE(out.find("no runs recorded"), std::string::npos);
  EXPECT_NE(out.find("run #0"), std::string::npos);
  EXPECT_NE(out.find("complete (2/2 tasks finished)"), std::string::npos);
  EXPECT_NE(out.find("no interrupted runs; nothing to resume"),
            std::string::npos);

  // Resuming a closed run by id is an error, reported not fatal.
  std::ostringstream err_out;
  Interpreter interpreter(err_out);
  interpreter.run_script(script);
  EXPECT_EQ(interpreter.execute("resume 0"), CommandStatus::kError);
  EXPECT_NE(interpreter.last_error().find("nothing to resume"),
            std::string::npos);
  EXPECT_EQ(interpreter.execute("resume banana"), CommandStatus::kError);
}

TEST(Cli, FsckExitCodesThroughTheCommand) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "herc_cli_fsck";
  fs::remove_all(dir);
  std::ostringstream out;
  Interpreter interpreter(out);
  ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("import Stimuli s \"\""), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("checkpoint"), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("store close"), CommandStatus::kOk);

  // Exit 0: a healthy store.
  ASSERT_EQ(interpreter.execute("fsck " + dir), CommandStatus::kOk);
  EXPECT_NE(out.str().find("clean (exit 0)"), std::string::npos);

  // Exit 1: an orphaned blob is survivable — the command still succeeds.
  {
    std::ofstream app((fs::path(dir) / "snapshot.herc").string(),
                      std::ios::binary | std::ios::app);
    app << support::RecordWriter("blob")
               .field(data::BlobStore::key_for("orphan"))
               .field(std::string_view("orphan"))
               .str()
        << "\n";
  }
  ASSERT_EQ(interpreter.execute("fsck " + dir), CommandStatus::kOk);
  EXPECT_NE(out.str().find("orphan-blob"), std::string::npos);
  EXPECT_NE(out.str().find("warnings (exit 1)"), std::string::npos);

  // Exit 2: corruption fails the command so scripts stop at it.
  {
    std::ofstream bad((fs::path(dir) / "snapshot.herc").string(),
                      std::ios::binary | std::ios::trunc);
    bad << "not a snapshot at all\n";
  }
  EXPECT_EQ(interpreter.execute("fsck " + dir), CommandStatus::kError);
  EXPECT_NE(out.str().find("CORRUPTION (exit 2)"), std::string::npos);
  EXPECT_NE(interpreter.last_error().find("corruption"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Cli, LintVerbsReportTheirSeverity) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "herc_cli_lint";
  fs::remove_all(dir);
  std::ostringstream out;
  Interpreter interpreter(out);
  const auto lint = [&](const std::string& line) {
    out.str("");
    return interpreter.execute(line);
  };

  // The default schema is clean.
  ASSERT_EQ(lint("lint schema"), CommandStatus::kOk);
  EXPECT_NE(out.str().find("verdict: CLEAN"), std::string::npos) << out.str();
  EXPECT_EQ(interpreter.last_severity(), support::Severity::kClean);

  // A flow whose tool discards a co-output warns; a mistyped binding is
  // an error that fails the command.
  ASSERT_EQ(interpreter.execute("import Stimuli walk \"\""), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("import Simulator sim \"\""), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("flow new f goal Performance"),
            CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("flow expand f 0"), CommandStatus::kOk);
  ASSERT_EQ(lint("lint flow f"), CommandStatus::kOk);
  EXPECT_NE(out.str().find("HL106"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("verdict: WARNINGS"), std::string::npos);
  EXPECT_EQ(interpreter.last_severity(), support::Severity::kWarning);
  ASSERT_EQ(interpreter.execute("flow bind f 3 i1"), CommandStatus::kOk);
  EXPECT_EQ(lint("lint flow f"), CommandStatus::kError);
  EXPECT_NE(out.str().find("error HL101"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("verdict: ERRORS"), std::string::npos);

  // A healthy store lints clean; a corrupt snapshot is an error.
  ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("checkpoint"), CommandStatus::kOk);
  ASSERT_EQ(lint("lint store " + dir), CommandStatus::kOk);
  EXPECT_NE(out.str().find("verdict: CLEAN"), std::string::npos) << out.str();
  EXPECT_EQ(interpreter.last_severity(), support::Severity::kClean);
  ASSERT_EQ(interpreter.execute("store close"), CommandStatus::kOk);
  {
    std::ofstream bad((fs::path(dir) / "snapshot.herc").string(),
                      std::ios::binary | std::ios::trunc);
    bad << "not a snapshot at all\n";
  }
  EXPECT_EQ(lint("lint store " + dir), CommandStatus::kError);
  EXPECT_NE(out.str().find("error HL302"), std::string::npos) << out.str();
  fs::remove_all(dir);
}

TEST(Cli, FsckRepairIsRefusedOnTheOpenStore) {
  // Repair rewrites snapshot + journal under the live session's handle,
  // which would desync its in-memory image — the command must refuse
  // until the store is closed.  A plain audit stays allowed.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "herc_cli_fsck_repair";
  fs::remove_all(dir);
  std::ostringstream out;
  Interpreter interpreter(out);
  ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
  ASSERT_EQ(interpreter.execute("import Stimuli s \"\""), CommandStatus::kOk);

  EXPECT_EQ(interpreter.execute("fsck " + dir + " --repair"),
            CommandStatus::kError);
  EXPECT_NE(interpreter.last_error().find("store close"), std::string::npos)
      << interpreter.last_error();
  ASSERT_EQ(interpreter.execute("fsck " + dir), CommandStatus::kOk)
      << "a read-only audit of the open store must still work";

  ASSERT_EQ(interpreter.execute("store close"), CommandStatus::kOk);
  EXPECT_EQ(interpreter.execute("fsck " + dir + " --repair"),
            CommandStatus::kOk);
  fs::remove_all(dir);
}

TEST(Cli, OpenReportsInterruptedRuns) {
  // `open` surfaces crash recovery: build a store with an open run by
  // journaling a run-begin frame without an end, then reopen it.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "herc_cli_interrupted";
  fs::remove_all(dir);
  {
    std::ostringstream out;
    Interpreter interpreter(out);
    ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
    ASSERT_EQ(interpreter.execute("import Stimuli s \"\""),
              CommandStatus::kOk);
    // Forge an open run directly in the session's history; the mutation
    // listener journals it like any executor-written frame.
    history::RunRecord run;
    run.flow_name = "forged";
    run.user = "tester";
    run.flow_text = "flow|forged|full|0";
    interpreter.session().db().begin_run(std::move(run));
    interpreter.session().storage()->sync();
  }
  std::ostringstream out;
  Interpreter interpreter(out);
  ASSERT_EQ(interpreter.execute("open " + dir), CommandStatus::kOk);
  EXPECT_NE(out.str().find("1 interrupted run(s)"), std::string::npos)
      << out.str();
  ASSERT_EQ(interpreter.execute("runs"), CommandStatus::kOk);
  EXPECT_NE(out.str().find("OPEN"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Cli, HelpAndCatalogs) {
  const auto [failures, out] = run("help\nentities\ntools\n");
  EXPECT_EQ(failures, 0u);
  EXPECT_NE(out.find("flow bind"), std::string::npos);
  EXPECT_NE(out.find("Netlist [abstract]"), std::string::npos);
  EXPECT_NE(out.find("Placer: Placer.default Placer.fast Placer.quality"),
            std::string::npos);
}

}  // namespace
}  // namespace herc::cli
