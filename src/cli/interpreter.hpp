// A scriptable command interpreter over a DesignSession.
//
// The 1993 system drove everything from an X11 task window (Fig. 9); this
// reproduction's equivalent is a line-oriented command language covering
// the same operations: starting tasks from any of the four approaches,
// expand/specialize/bind on flows, execution, history browsing and
// queries, consistency maintenance, and session persistence.  The
// `hercules_shell` example wraps it as an interactive REPL / script
// runner; tests drive it directly.
//
// Command summary (the `help` command prints the same):
//   session new <fig1|fig2|full> [user]     session user <name>
//   session save <file>                     session load <file>
//   open <dir> [sync=..] [every=N]          checkpoint
//   store [close|sync]                      runs
//   resume [<run#>]                         fsck <dir> [--repair] [--json]
//   lint schema | flow <f> [goal <node>] [parallel] [continue] | store <dir>
//   import <Entity> <name> <<END ... END    import <Entity> <name> ""
//   flow new <f> goal <Entity> | plan <name>
//   flow expand <f> <node> [optional]       flow expandup <f> <node> <Entity>
//   flow specialize <f> <node> <Subtype>    flow connect <f> <node> <node>
//   flow cooutput <f> <node> <Entity>       flow unexpand <f> <node>
//   flow bind <f> <node> <iN...>            flow unbind <f> <node>
//   flow show <f> | lisp <f> | dot <f> | bipartite <f>
//   flow save-plan <f>                      plans
//   run <f> [parallel] [reuse]              auto <Entity> [run]
//   browse <Entity> [keyword=..] [user=..] [uses=iN]
//   history <iN>   uses <iN>   trace <iN> backward|forward
//   versions <iN>  payload <iN>  annotate <iN> <name> [comment...]
//   stale <iN>     retrace <iN>  decompose <iN>
//   entities   tools   echo <text>   help   quit
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.hpp"
#include "graph/task_graph.hpp"
#include "support/severity.hpp"

namespace herc::cli {

/// Result of executing one command.
enum class CommandStatus {
  kOk,
  kError,  ///< the command failed; the message was printed and recorded
  kQuit,   ///< a `quit` command was issued
};

/// How a command may share the session with others — the three lock
/// classes the server's access layer schedules with.  The classification
/// is by command name, and anything unrecognized is conservatively a write.
enum class CommandAccess {
  /// Only reads the session: runs under a shared lock, many at once.
  kRead,
  /// May mutate it: runs under the exclusive lock.
  kWrite,
  /// `run`: a write everywhere except locking.  No lock is held around
  /// the command; the run takes the exclusive lock only for its short
  /// commit sections (see `Interpreter::serve_runs`), so tools execute
  /// while other clients read, import and run.
  kRun,
};

/// Classifies one command line.  Flow-building commands are reads: each
/// interpreter keeps its own flow workspace, so `flow expand`/`bind` touch
/// only connection-local state (they read the shared schema and history).
/// `flow save-plan` publishes into the shared catalog and is a write, as
/// is anything that records, recovers or reconfigures.
[[nodiscard]] CommandAccess command_access(std::string_view line);

/// True when `write_line` (a `CommandAccess::kWrite` line) must not
/// overlap an in-flight `run`: every write except `import` and `annotate`,
/// which only append records.  The others swap schema or store state tools
/// are using, record uncovered products (`decompose`, `retrace`) that would
/// land in a live run's sweep window, or resume runs.
[[nodiscard]] bool waits_for_runs(std::string_view write_line);

class Interpreter {
 public:
  /// Output (listings, renderings) goes to `out`.  A default session over
  /// the full schema with user "designer" is created; `session new`
  /// replaces it.
  explicit Interpreter(std::ostream& out);

  /// Shares an externally owned session (the server's): this interpreter
  /// keeps its own flow workspace but runs every command against
  /// `session`.  Commands that would swap or detach state other clients
  /// are using — `session new`, `session load`, `open`, `store close` —
  /// are refused.  `session` must outlive the interpreter.
  Interpreter(std::ostream& out, core::DesignSession& session);

  /// Executes one command.  `payload` supplies the body for commands that
  /// take one (`import`); scripts provide it via heredocs.
  CommandStatus execute(std::string_view line, std::string payload = "");

  /// Serves this interpreter's `run` commands beside other clients of a
  /// shared session (the server's connections): a run takes
  /// `session_lock` exclusively only around its commit sections and
  /// shared while it reports, never around tool bodies, and stamps `user`
  /// on its products.  The caller then executes `run` without holding
  /// `session_lock`; every other command keeps the caller's locking.
  void serve_runs(std::shared_mutex* session_lock, std::string user) {
    run_lock_ = session_lock;
    run_user_ = std::move(user);
  }

  /// Executes a script: one command per line, `#` comments, and
  /// `<<TOKEN ... TOKEN` heredoc payloads.  Stops at `quit` or, when
  /// `stop_on_error` is set, at the first failure.  Returns the number of
  /// failed commands.
  std::size_t run_script(std::string_view text, bool stop_on_error = false);

  [[nodiscard]] core::DesignSession& session() { return *session_; }
  /// The flows built so far in this session, by name (the shell's --lint
  /// mode replays a script and then lints every flow it created).
  [[nodiscard]] const std::map<std::string, graph::TaskGraph>& named_flows()
      const {
    return flows_;
  }
  /// The message of the most recent failed command ("" when none).
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  /// Severity of the most recent command, in the shared fsck/lint exit
  /// convention: kClean on success, kWarning when the command succeeded
  /// but its report carried warnings (fsck, lint), kError on failure —
  /// including a `run`/`resume` that finished with failed or skipped
  /// tasks.  Shells and the server map this straight onto exit codes and
  /// the wire's result frame.
  [[nodiscard]] support::Severity last_severity() const {
    return last_severity_;
  }

 private:
  using Args = std::vector<std::string>;

  void dispatch(const Args& args, const std::string& payload);

  // Command families.
  void cmd_session(const Args& args);
  void cmd_open(const Args& args);
  void cmd_store(const Args& args);
  void cmd_import(const Args& args, const std::string& payload);
  void cmd_flow(const Args& args);
  void cmd_run(const Args& args);
  void cmd_runs(const Args& args);
  void cmd_resume(const Args& args);
  void cmd_fsck(const Args& args);
  void cmd_lint(const Args& args);
  void cmd_auto(const Args& args);
  void cmd_browse(const Args& args);
  void cmd_history_query(const Args& args);
  void cmd_help();

  // Argument resolution.
  [[nodiscard]] graph::TaskGraph& flow_ref(const std::string& name);
  [[nodiscard]] graph::NodeId node_ref(const graph::TaskGraph& flow,
                                       const std::string& token) const;
  [[nodiscard]] data::InstanceId instance_ref(const std::string& token) const;

  void print_instance_line(data::InstanceId id);

  /// Throws when this interpreter shares its session (see the two-arg
  /// constructor) and `what` names a command that must not run there.
  void refuse_when_shared(const std::string& what) const;

  std::ostream* out_;
  std::unique_ptr<core::DesignSession> owned_;
  /// `owned_.get()`, or the externally owned shared session.
  core::DesignSession* session_;
  bool shared_session_ = false;
  /// Set by `serve_runs`; null runs under the caller's locking.
  std::shared_mutex* run_lock_ = nullptr;
  std::string run_user_;
  std::map<std::string, graph::TaskGraph> flows_;
  std::string last_error_;
  support::Severity last_severity_ = support::Severity::kClean;
};

}  // namespace herc::cli
