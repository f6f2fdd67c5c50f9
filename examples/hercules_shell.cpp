// The Hercules shell: an interactive / scriptable front end to the whole
// framework (the reproduction's stand-in for the Fig. 9 task window).
//
//   ./hercules_shell                        # interactive REPL
//   ./hercules_shell script.hcl             # run a script, exit non-zero on errors
//   ./hercules_shell --lint schema <fig1|fig2|full|file> [--json]
//   ./hercules_shell --lint flow <fig1|fig2|full|file> <file.flow> [--json]
//   ./hercules_shell --lint script <file.hcl> [--json]
//   ./hercules_shell --lint store <dir> [--json]
//                    (targets chain: --lint schema fig1 schema fig2 ...)
//                                           # static analysis; the exit code
//                                           # is the worst severity found
//                                           # (0 clean, 1 warnings, 2 errors)
//
// A store is audited and repaired with `herc fsck <dir> [--repair] [--json]`.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/flow_lint.hpp"
#include "analyze/plan_check.hpp"
#include "analyze/schema_lint.hpp"
#include "cli/interpreter.hpp"
#include "schema/schema_io.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/fsck.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A builtin schema by name, or a schema document from a file.
herc::schema::TaskSchema load_schema(const std::string& ref) {
  if (ref == "fig1") return herc::schema::make_fig1_schema();
  if (ref == "fig2") return herc::schema::make_fig2_schema();
  if (ref == "full") return herc::schema::make_full_schema();
  return herc::schema::parse_schema(slurp(ref));
}

int run_lint(std::vector<std::string> args) {
  bool json = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--json") {
      json = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  // Targets may be chained in one invocation:
  //   --lint schema fig1 schema fig2 flow fig1 sim.flow
  std::vector<herc::analyze::LintReport> reports;
  std::size_t i = 0;
  while (i < args.size()) {
    const std::string& kind = args[i];
    if (kind == "schema" && i + 1 < args.size()) {
      reports.push_back(herc::analyze::lint_schema(load_schema(args[i + 1])));
      i += 2;
    } else if (kind == "flow" && i + 2 < args.size()) {
      // A bare flow file has no design history or tool registry to lint
      // against: the structural checks run, the binding checks are skipped.
      // The plan pass assumes the widest schedule (parallel, continue) so
      // every hazard the flow *could* exhibit is reported.
      const herc::schema::TaskSchema schema = load_schema(args[i + 1]);
      const herc::graph::TaskGraph flow =
          herc::graph::TaskGraph::load(schema, slurp(args[i + 2]));
      herc::analyze::LintReport r = herc::analyze::lint_flow(flow);
      r.merge(herc::analyze::lint_plan(
          flow, {.parallel = true, .continue_on_failure = true}));
      reports.push_back(std::move(r));
      i += 3;
    } else if (kind == "script" && i + 1 < args.size()) {
      // Replay the script on a muted interpreter, then lint the session
      // schema and every flow the script built, with the session's history
      // and tools as context.
      std::ostringstream muted;
      herc::cli::Interpreter interpreter(muted);
      if (interpreter.run_script(slurp(args[i + 1])) > 0) {
        std::cerr << "lint: script failed to replay: "
                  << interpreter.last_error() << "\n";
        return 2;
      }
      reports.push_back(
          herc::analyze::lint_schema(interpreter.session().schema()));
      for (const auto& [name, flow] : interpreter.named_flows()) {
        herc::analyze::FlowLintOptions options;
        options.db = &interpreter.session().db();
        options.tools = &interpreter.session().tools();
        herc::analyze::LintReport r = herc::analyze::lint_flow(flow, options);
        r.merge(herc::analyze::lint_plan(
            flow, {.parallel = true, .continue_on_failure = true}));
        reports.push_back(std::move(r));
      }
      i += 2;
    } else if (kind == "store" && i + 1 < args.size()) {
      const herc::storage::FsckReport fsck =
          herc::storage::fsck_store(args[i + 1]);
      herc::analyze::LintReport r("store '" + args[i + 1] + "'");
      for (const herc::storage::FsckFinding& f : fsck.findings) {
        r.add(f.severity == herc::support::Severity::kError ? "HL302"
                                                            : "HL301",
              f.severity, "store '" + args[i + 1] + "'",
              f.code + ": " + f.detail,
              "run herc fsck " + args[i + 1] +
                  " --repair to fix what is repairable");
      }
      reports.push_back(std::move(r));
      i += 2;
    } else {
      std::cerr << "usage: hercules_shell --lint"
                   " [schema <fig1|fig2|full|file>]"
                   " [flow <schema> <file.flow>] [script <file.hcl>]"
                   " [store <dir>]...   [--json]\n";
      return 2;
    }
  }
  if (reports.empty()) {
    std::cerr << "lint: no targets given\n";
    return 2;
  }
  int exit = 0;
  for (const herc::analyze::LintReport& r : reports) {
    std::cout << (json ? r.render_json() : r.render());
    exit = std::max(exit, r.exit_code());
  }
  return exit;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--lint") {
    try {
      return run_lint(std::vector<std::string>(argv + 2, argv + argc));
    } catch (const std::exception& e) {
      std::cerr << "lint: " << e.what() << "\n";
      return 2;
    }
  }

  herc::cli::Interpreter interpreter(std::cout);
  if (argc > 1) {
    std::ifstream in(argv[1], std::ios::binary);
    if (!in) {
      std::cerr << "cannot open script '" << argv[1] << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::size_t failures = interpreter.run_script(buffer.str());
    return failures == 0 ? 0 : 1;
  }

  std::cout << "Hercules shell — 'help' lists commands, 'quit' exits.\n";
  std::string line;
  while (true) {
    std::cout << "herc> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    // Interactive heredocs: read until the terminator line.
    std::string payload;
    const std::size_t marker = line.rfind("<<");
    if (marker != std::string::npos) {
      const std::string token = line.substr(marker + 2);
      line = line.substr(0, marker);
      std::string body_line;
      while (std::getline(std::cin, body_line) && body_line != token) {
        payload += body_line;
        payload += '\n';
      }
    }
    if (interpreter.execute(line, std::move(payload)) ==
        herc::cli::CommandStatus::kQuit) {
      break;
    }
  }
  return 0;
}
