// herc-bench: drives an in-process `herc` server (the `herc serve` wiring:
// durable store, journal shipper, reader-writer session lock) from one
// load-generator process, on one of three named workloads.
//
//   herc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced runs measure the end-to-end metrics over one window of
// `--seconds`.  Traced runs split the window: an untraced half, then a
// traced half whose spans (name, start, end, parent, request id) are
// recorded around every call the benchmark makes into a module's public
// functions, followed by single-threaded in-process probes of the layers.
// The last stdout line is the one-object JSON result; everything before it
// is the human report.  Every run ends with the correctness gate and exits
// 1 when it fails.  See perfbench/README.md for the workloads, the metric
// definitions and the layer predictions.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cli/interpreter.hpp"
#include "core/session.hpp"
#include "history/query_planner.hpp"
#include "index/indexes.hpp"
#include "measure.hpp"
#include "replica/applier.hpp"
#include "replica/shipper.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/latency.hpp"
#include "server/server.hpp"
#include "storage/fsck.hpp"
#include "storage/journal.hpp"
#include "stream.hpp"
#include "support/clock.hpp"
#include "support/text.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace herc;

// Set-up runs at least kMinSetups times and until kSetupBudgetS is spent
// (small stores set up in milliseconds); setup_s is the median.
constexpr int kMinSetups = 5;
constexpr double kSetupBudgetS = 3.0;
// The measured window is cut into this many equal slices (see WindowFigures).
constexpr int kSlices = 20;
constexpr std::size_t kStreamDigestOps = 4096;
constexpr std::size_t kMaxSampledBrowses = 400;
constexpr std::size_t kMaxLoggedOps = 400'000;
constexpr std::size_t kMaxCapturedMutations = 400'000;
constexpr double kProbeBudgetS = 1.5;       // per in-process probe
// Clients run this long before the measured window, untimed, so first-touch
// page faults and allocator growth of the fresh store are not measured.
constexpr double kWarmupS = 1.0;

// Relative to the working directory (the root of the checkout).
const fs::path kOutDir = ".bench_out";    // results JSON, span dumps
const fs::path kWorkDir = ".bench_work";  // stores, removed after each run

// ---- arguments ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (!has_value) {
      return false;
    } else if (k == "--workload") {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      a.seed = std::stoull(argv[++i]);
    } else if (k == "--seconds") {
      a.seconds = std::stod(argv[++i]);
    } else if (k == "--trace") {
      a.trace = std::string(argv[++i]) != "0";
    } else if (k == "--commit") {
      a.commit = argv[++i];
    } else {
      return false;
    }
  }
  return find_workload(a.workload) != nullptr && a.seconds > 0;
}

// ---- small utilities ----------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::uint64_t file_bytes(const fs::path& p) {
  std::error_code ec;
  const auto n = fs::file_size(p, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Parses the number following `key` in `text` ("imported i12" with key
/// "imported i" gives 12); nullopt when absent.
std::optional<std::uint64_t> number_after(std::string_view text,
                                          std::string_view key) {
  const std::size_t pos = text.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + key.size();
  if (i >= text.size() || text[i] < '0' || text[i] > '9') return std::nullopt;
  std::uint64_t v = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(text[i] - '0');
  }
  return v;
}

// ---- server-side latency histogram, read back exactly -----------------------------

/// (bucket upper edge, count) pairs of a histogram.  The histogram exposes
/// only `percentile`, which answers with a bucket's upper edge; probing it
/// at every rank boundary recovers each bucket's count exactly.  Only call
/// while nothing records into it.
using Buckets = std::map<std::uint64_t, std::uint64_t>;

Buckets histogram_buckets(const server::LatencyHistogram& h) {
  Buckets out;
  const std::uint64_t total = h.count();
  const auto at = [&](std::uint64_t t) {
    const double q = t >= total ? 1.0
                                : (static_cast<double>(t) + 0.5) /
                                      static_cast<double>(total);
    return h.percentile(q);
  };
  for (std::uint64_t t = 1; t <= total;) {
    const std::uint64_t edge = at(t);
    std::uint64_t lo = t;
    std::uint64_t hi = total;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (at(mid) == edge) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    out[edge] = lo - t + 1;
    t = lo + 1;
  }
  return out;
}

/// Lower edge of the histogram bucket whose upper edge is `upper`.
std::uint64_t bucket_lower(std::uint64_t upper) {
  if (upper < server::LatencyHistogram::kExact) return upper;
  const std::uint64_t u = upper + 1;  // (sub + 5) << shift, sub in 0..3
  for (unsigned shift = 0; shift < 62; ++shift) {
    const std::uint64_t m = u >> shift;
    if (m >= 5 && m <= 8 && (m << shift) == u) return (m - 1) << shift;
  }
  return upper;
}

/// The q-quantile of `after - before`, interpolated linearly inside its
/// bucket (the histogram's buckets are ~25% wide).  Falls back to the
/// largest bucket's edge when fewer than ten samples lie beyond it.
double histogram_delta_percentile(const Buckets& before, const Buckets& after,
                                  double q, std::uint64_t* count) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> delta;
  std::uint64_t n = 0;
  for (const auto& [edge, c] : after) {
    const auto it = before.find(edge);
    const std::uint64_t d = c - (it == before.end() ? 0 : it->second);
    if (d > 0) delta.emplace_back(edge, d);
    n += d;
  }
  if (count != nullptr) *count = n;
  if (n == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (n - rank < 10) return static_cast<double>(delta.back().first);
  std::uint64_t seen = 0;
  for (const auto& [edge, c] : delta) {
    if (seen + c >= rank) {
      // Bucket [lower, edge] holds whole microseconds: spread its samples
      // evenly over [lower, edge + 1).
      const double lower = static_cast<double>(bucket_lower(edge));
      const double frac = static_cast<double>(rank - seen) / static_cast<double>(c);
      return lower + frac * (static_cast<double>(edge) + 1 - lower);
    }
    seen += c;
  }
  return static_cast<double>(delta.back().first);
}

// ---- the served environment ---------------------------------------------------------

/// Records every mutation's save()-format lines (the index probe's input).
class MutationCapture final : public history::HistoryObserver {
 public:
  void on_lines(std::string_view lines) override {
    if (mutations.size() < kMaxCapturedMutations) mutations.emplace_back(lines);
  }
  void on_reset() override {}
  std::vector<std::string> mutations;
};

/// Keeps every mutation's save()-format lines for the whole run, for the
/// index audit of the correctness gate (see audit_index_postings).  Lines
/// go into chunks reserved up front, so an append made while a writer
/// holds the session lock never copies the earlier ones.
class HistoryLog final : public history::HistoryObserver {
 public:
  void on_lines(std::string_view lines) override {
    if (chunks_.empty() ||
        chunks_.back().capacity() - chunks_.back().size() < lines.size()) {
      chunks_.emplace_back();
      chunks_.back().reserve(std::max(kChunkBytes, lines.size()));
    }
    chunks_.back().append(lines);
  }
  void on_reset() override { reset_ = true; }

  /// Calls `fn` on each logged line, in the order they were recorded.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (const std::string& chunk : chunks_) {
      std::size_t at = 0;
      while (at < chunk.size()) {
        std::size_t end = chunk.find('\n', at);
        if (end == std::string::npos) end = chunk.size();
        if (end > at) fn(std::string_view(chunk).substr(at, end - at));
        at = end + 1;
      }
    }
  }
  /// True when the database was replaced wholesale, which the log cannot
  /// follow.
  bool reset() const { return reset_; }

 private:
  static constexpr std::size_t kChunkBytes = 4u << 20;
  std::vector<std::string> chunks_;
  bool reset_ = false;
};

struct Env {
  fs::path root;
  fs::path leader_dir;
  BaseCatalog catalog;
  std::unique_ptr<core::DesignSession> session;
  std::unique_ptr<replica::JournalShipper> shipper;
  std::unique_ptr<server::Server> server;
  server::Endpoint endpoint;
  std::unique_ptr<replica::ReplicaApplier> follower;
  std::vector<server::Client> clients;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    try {
      shut_down();
      fs::remove_all(root);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "herc-bench: teardown: %s\n", e.what());
    }
  }

  /// Stops serving and closes the store (flushing the journal and saving
  /// the indexes); the leader directory is then ready for fsck.
  void shut_down() {
    for (server::Client& c : clients) c.close();
    clients.clear();
    if (follower) follower->stop();
    if (server) server->stop();
    server.reset();
    shipper.reset();  // its journal tap points into the store
    if (session) session->close_storage();
  }

  void locked(const std::function<void()>& fn) {
    server->with_exclusive_session(fn);
  }
};

std::string compose_payload(const history::HistoryDb& db,
                            const std::vector<std::uint32_t>& parts) {
  std::string out = "@composite " + std::to_string(parts.size()) + "\n";
  for (const std::uint32_t p : parts) {
    const std::string& body = db.payload(data::InstanceId(p));
    out += "@part " + std::to_string(body.size()) + "\n" + body + "\n";
  }
  return out;
}

/// The journal options of the leader and the follower.  `herc serve`
/// defaults to sync=interval every=64, but on a shared 4-vCPU VM those
/// fsyncs tied commit_write's figures to the host's disk: ten seeds in one
/// set read 6k to 24k ops/s, while browse_read, run right after, held
/// within 8% of its median.  So the stores journal without fsync, and
/// storage.sync_p50_us times the flush on its own.
storage::JournalOptions journal_options() {
  storage::JournalOptions j;
  j.sync = storage::SyncPolicy::kNone;
  return j;
}

/// Populates `db` with the seeded base store.
BaseCatalog populate(history::HistoryDb& db, const Workload& w,
                     std::uint64_t seed) {
  const schema::TaskSchema& schema = db.schema();
  return generate_base(seed, w.base_instances, [&](const BaseRecord& r) {
    if (r.kind == BaseRecord::Kind::kImport) {
      (void)db.import_instance(schema.require(r.type), r.name,
                               import_body(r.type, r.variant), r.user,
                               r.comment);
      return;
    }
    history::RecordRequest req;
    req.type = schema.require(r.type);
    req.name = r.name;
    req.user = r.user;
    if (r.kind == BaseRecord::Kind::kCompose) {
      req.payload = compose_payload(db, r.inputs);
      req.derivation.task = "compose";
      for (const std::uint32_t in : r.inputs) {
        req.derivation.inputs.emplace_back(in);
        req.derivation.input_roles.emplace_back();
      }
    } else {
      req.payload = "performance\nmetric max_delay_ps=" +
                    std::to_string(100 + r.inputs[1] % 400) + "\n";
      req.derivation.task = "Simulator.default";
      req.derivation.tool = data::InstanceId(r.inputs[0]);
      for (std::size_t i = 1; i < r.inputs.size(); ++i) {
        req.derivation.inputs.emplace_back(r.inputs[i]);
        req.derivation.input_roles.emplace_back();
      }
    }
    (void)db.record(req);
  });
}

/// One complete set-up: base store populated and opened (indexes built),
/// the server started the way `herc serve` starts it (journal shipper
/// attached, default flush policy), the follower bootstrapped when the
/// workload has one, and every client connection opened and warmed.
std::unique_ptr<Env> set_up(const Workload& w, std::uint64_t seed,
                            const fs::path& root) {
  auto env = std::make_unique<Env>();
  env->root = root;
  fs::remove_all(root);
  fs::create_directories(root);
  env->leader_dir = root / "leader";
  env->session = std::make_unique<core::DesignSession>(
      schema::make_full_schema(), "base",
      std::make_unique<support::ManualClock>(kBaseStartMicros, kBaseTickMicros));
  env->catalog = populate(env->session->db(), w, seed);
  storage::StoreOptions store;
  store.journal = journal_options();
  (void)env->session->open_storage(env->leader_dir.string(), store);
  env->shipper = std::make_unique<replica::JournalShipper>(*env->session);
  env->server = std::make_unique<server::Server>(*env->session);
  env->server->set_replication_hub(env->shipper.get());
  env->endpoint =
      env->server->add_listener(server::Endpoint::parse("127.0.0.1:0"));
  env->server->start();
  if (w.follower) {
    replica::ApplierOptions follower;
    follower.journal = journal_options();
    env->follower = std::make_unique<replica::ReplicaApplier>(
        env->endpoint, (root / "follower").string(), follower);
    if (!env->follower->bootstrap(50)) {
      throw std::runtime_error("follower bootstrap failed: " +
                               env->follower->last_error());
    }
    env->follower->start();
  }
  for (const ClientSpec& spec : w.clients) {
    server::Client c = server::Client::connect(env->endpoint, 5'000);
    const server::CallResult user = c.call("session user " + spec.user);
    if (!user.ok()) throw std::runtime_error("session user: " + user.error);
    for (int i = 0; i < 3; ++i) {
      if (!c.call("echo warm").ok()) throw std::runtime_error("warm-up failed");
    }
    env->clients.push_back(std::move(c));
  }
  return env;
}

/// The orphan-index audit fsck makes, over the whole history rather than
/// the part since the last checkpoint.  The index keeps the postings of
/// names and comments an annotation replaced (supersets by contract), and a
/// checkpoint compacts away the records that justify them, so fsck reports
/// such postings as "orphan-index" once a checkpoint follows an annotation.
/// Here every posting in the leader's saved index must be justified by the
/// database as it stood after set-up (`base_image`, a save() image) or by a
/// record made since (`log`).  Returns the failures, empty when it passes.
std::vector<std::string> audit_index_postings(const fs::path& leader_dir,
                                              const std::string& base_image,
                                              const HistoryLog& log) {
  if (log.reset()) return {"the database was reset during the run; the audit cannot follow"};
  std::ifstream in(index::HistoryIndexes::file_path(leader_dir.string()),
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  index::IndexImage file;
  std::string error;
  if (!in || !index::IndexImage::parse(text.str(), file, error)) {
    return {"the leader's saved index does not parse: " + error};
  }
  index::IndexImage all;
  std::vector<std::string> failures;
  const auto fold = [&](std::string_view line) {
    try {
      all.apply_line(line);
    } catch (const std::exception& e) {
      if (failures.size() < 5) {
        failures.push_back("record does not fold into an index: " + std::string(line) +
                           ": " + e.what());
      }
    }
  };
  for (const std::string& line : support::split(base_image, '\n')) {
    if (!support::trim(line).empty()) fold(line);
  }
  log.for_each_line(fold);
  if (!failures.empty()) return failures;

  std::unordered_map<std::string, std::vector<std::uint32_t>> all_tokens;
  for (std::size_t tid = 0; tid < all.tokens.size(); ++tid) {
    all_tokens.emplace(all.tokens[tid], std::move(all.postings[tid]));
  }
  for (auto& [token, ids] : all_tokens) std::sort(ids.begin(), ids.end());
  for (auto& [user, ids] : all.users) std::sort(ids.begin(), ids.end());
  for (auto& [type, entries] : all.by_type) std::sort(entries.begin(), entries.end());
  const auto justified = [](const auto& lists, const auto& key, const auto& entry) {
    const auto it = lists.find(key);
    return it != lists.end() &&
           std::binary_search(it->second.begin(), it->second.end(), entry);
  };
  std::size_t stray = 0;
  const auto unjustified = [&](const std::string& what) {
    if (stray++ < 5) failures.push_back("index posting no record justifies: " + what);
  };
  for (std::size_t tid = 0; tid < file.tokens.size(); ++tid) {
    const std::string& token = file.tokens[tid];
    for (const std::uint32_t id : file.postings[tid]) {
      if (!justified(all_tokens, token, id)) {
        unjustified("keyword token '" + token + "' posts i" + std::to_string(id));
      }
    }
  }
  for (const auto& [user, ids] : file.users) {
    for (const std::uint32_t id : ids) {
      if (!justified(all.users, user, id)) {
        unjustified("user '" + user + "' posts i" + std::to_string(id));
      }
    }
  }
  for (const auto& [type, entries] : file.by_type) {
    for (const auto& entry : entries) {
      if (!justified(all.by_type, type, entry)) {
        unjustified("type '" + type + "' lists i" + std::to_string(entry.second));
      }
    }
  }
  if (stray > 5) failures.push_back(std::to_string(stray) + " unjustified postings in total");
  return failures;
}

// ---- clients and phases --------------------------------------------------------------

enum class OpClass { kRead, kWrite, kRun };

struct PhaseStats {
  Samples all_us, read_us, write_us, run_ms, late_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t acked_in_window = 0;
  std::uint64_t writes_acked = 0;  // write-classified, runs excluded
  std::uint64_t runs = 0;
  std::uint64_t run_failures = 0;
  std::uint64_t tasks_run = 0;
  std::uint64_t tasks_reused = 0;
  std::uint64_t planner_ops = 0;  // browse / find
  std::uint64_t checkpoints = 0;
  Samples checkpoint_ms;
  std::string first_error;
  /// (completion time, latency) of every op, for the window figures.
  std::vector<std::pair<std::int64_t, double>> timeline;

  void merge(const PhaseStats& o) {
    timeline.insert(timeline.end(), o.timeline.begin(), o.timeline.end());
    all_us.append(o.all_us);
    read_us.append(o.read_us);
    write_us.append(o.write_us);
    run_ms.append(o.run_ms);
    late_us.append(o.late_us);
    checkpoint_ms.append(o.checkpoint_ms);
    attempted += o.attempted;
    failed += o.failed;
    acked_in_window += o.acked_in_window;
    writes_acked += o.writes_acked;
    runs += o.runs;
    run_failures += o.run_failures;
    tasks_run += o.tasks_run;
    tasks_reused += o.tasks_reused;
    planner_ops += o.planner_ops;
    checkpoints += o.checkpoints;
    if (first_error.empty()) first_error = o.first_error;
  }
};

struct Shared {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::atomic<std::uint32_t> latest{kNone};
  std::uint32_t fallback = 0;
  std::atomic<std::uint64_t> next_request{1};
};

struct SentOp {
  std::string line;
  std::string body;
};

struct ClientState {
  const ClientSpec* spec = nullptr;
  std::unique_ptr<OpSource> source;
  server::Client* conn = nullptr;
  Tracer tracer;
  std::map<std::string, std::uint32_t> tagged;  ///< {tag} placeholder ids
  bool broken = false;
  std::uint64_t browses = 0;
  PhaseStats stats;
  std::vector<SentOp> log;  ///< the traced phase's resolved ops (cli replay)
  std::vector<std::pair<std::string, std::string>> sampled;  ///< browse gate
};

/// Replaces each `{tag}` in `line` with `i<id>` for the id `ids` gives; an
/// unknown tag becomes an unresolvable reference, so the command fails
/// visibly instead of silently naming another instance.
std::string resolve(
    const std::string& line,
    const std::function<std::optional<std::uint32_t>(const std::string&)>& ids) {
  std::string out;
  std::size_t pos = 0;
  for (std::size_t open; (open = line.find('{', pos)) != std::string::npos;) {
    const std::size_t close = line.find('}', open);
    out.append(line, pos, open - pos);
    const auto id = ids(line.substr(open + 1, close - open - 1));
    out += id ? "i" + std::to_string(*id) : std::string("i-unresolved");
    pos = close + 1;
  }
  out.append(line, pos, std::string::npos);
  return out;
}

/// Records the id an acked, tagged import created.
void remember_import(const Op& op, const std::string& output,
                     std::map<std::string, std::uint32_t>& tagged) {
  if (op.tag.empty()) return;
  if (const auto id = number_after(output, "imported i")) {
    tagged[op.tag] = static_cast<std::uint32_t>(*id);
  }
}

struct PhaseFlags {
  bool log_ops = false;
  bool sample_browses = false;
};

/// Sends one op and records it.  `due_ns` is the open-loop schedule slot
/// (0 for closed loops): open-loop latency counts from when the op was due.
void do_op(ClientState& c, Shared& sh, std::int64_t due_ns,
           std::int64_t deadline_ns, const PhaseFlags& flags) {
  const Op op = c.source->next();
  const std::string line =
      resolve(op.line, [&](const std::string& tag) -> std::optional<std::uint32_t> {
        if (tag == "latest") {
          const std::uint32_t id = sh.latest.load(std::memory_order_relaxed);
          return id == Shared::kNone ? sh.fallback : id;
        }
        const auto it = c.tagged.find(tag);
        if (it == c.tagged.end()) return std::nullopt;
        return it->second;
      });
  const bool is_run = line.rfind("run ", 0) == 0;
  const OpClass cls = is_run ? OpClass::kRun
                      : cli::command_access(line) == cli::CommandAccess::kRead
                          ? OpClass::kRead
                          : OpClass::kWrite;
  const std::uint64_t request = sh.next_request.fetch_add(1);
  PhaseStats& st = c.stats;
  ++st.attempted;
  const std::int64_t sent = now_ns();
  server::CallResult r;
  bool ok = false;
  {
    const Scope op_span(c.tracer, "bench.op", request);
    try {
      const Scope call_span(c.tracer, "server.Client.call", request);
      r = c.conn->call(line, op.body);
      ok = r.ok();
    } catch (const std::exception& e) {
      c.broken = true;
      r.error = e.what();
    }
  }
  const std::int64_t done = now_ns();
  const std::int64_t start = due_ns > 0 ? due_ns : sent;
  const double us = ok ? static_cast<double>(done - start) / 1e3 : kFailedLatency;
  if (due_ns > 0) st.late_us.add(static_cast<double>(sent - due_ns) / 1e3);
  st.all_us.add(us);
  st.timeline.emplace_back(done, us);
  switch (cls) {
    case OpClass::kRead: st.read_us.add(us); break;
    case OpClass::kWrite: st.write_us.add(us); break;
    case OpClass::kRun: st.run_ms.add(us / 1e3); break;
  }
  if (!ok) {
    ++st.failed;
    if (st.first_error.empty()) st.first_error = line + ": " + r.error;
  } else if (done <= deadline_ns) {
    ++st.acked_in_window;
  }
  if (ok && cls == OpClass::kWrite) ++st.writes_acked;
  if (ok) remember_import(op, r.output, c.tagged);
  if (is_run) {
    ++st.runs;
    // An incomplete run ("N failed, M skipped") answers with an error.
    if (!ok) ++st.run_failures;
    st.tasks_run += number_after(r.output, "ran ").value_or(0);
    st.tasks_reused += number_after(r.output, "tasks (").value_or(0);
    if (const auto id = number_after(r.output, "produced i")) {
      sh.latest.store(static_cast<std::uint32_t>(*id), std::memory_order_relaxed);
    }
  }
  if (line.rfind("browse ", 0) == 0 || line.rfind("find ", 0) == 0) {
    ++st.planner_ops;
  }
  if (line == "checkpoint" && ok) {
    ++st.checkpoints;
    st.checkpoint_ms.add(us / 1e3);
  }
  if (flags.log_ops && c.log.size() < kMaxLoggedOps) c.log.push_back({line, op.body});
  if (flags.sample_browses && ok && line.rfind("browse ", 0) == 0 &&
      c.browses++ % 16 == 0 && c.sampled.size() < kMaxSampledBrowses) {
    c.sampled.emplace_back(line, r.output);
  }
}

/// Quiescent counters read between phases.
struct Snapshot {
  std::uint64_t commands = 0;
  std::uint64_t bytes = 0;  ///< in + out
  Buckets exec_us;
  std::uint64_t records_journaled = 0;
  std::uint64_t bytes_journaled = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t follower_frames = 0;
  std::uint64_t follower_resyncs = 0;
};

Snapshot snapshot(Env& env) {
  Snapshot s;
  const server::ServerStats& st = env.server->stats();
  s.commands = st.commands_executed.load();
  s.bytes = st.bytes_in.load() + st.bytes_out.load();
  s.exec_us = histogram_buckets(st.command_latency);
  env.locked([&] {
    const storage::DurableHistory& store = *env.session->storage();
    s.records_journaled = store.records_journaled();
    s.bytes_journaled = store.bytes_journaled();
  });
  s.store_bytes = dir_bytes(env.leader_dir);
  if (env.follower) {
    s.follower_frames = env.follower->frames_applied();
    s.follower_resyncs = env.follower->resyncs();
  }
  return s;
}

struct PhaseResult {
  double seconds = 0;
  std::int64_t start_ns = 0;
  PhaseStats stats;
  Samples lag_us;
  std::uint64_t follower_journal_growth = 0;
  Snapshot before, after;
  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(stats.acked_in_window) / seconds;
  }
};

/// Replication lag sampler: the leader's journal position is read under the
/// exclusive session lock (so every acked write is included), then the
/// follower's applied position is polled until it reaches it.
void sample_lag(Env& env, std::int64_t deadline_ns, PhaseResult& out) {
  std::uint64_t last_journal = env.follower->journal_bytes();
  while (now_ns() < deadline_ns) {
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    std::int64_t t0 = 0;
    env.locked([&] {
      epoch = env.session->storage()->epoch();
      seq = env.session->storage()->journal_seq();
      t0 = now_ns();
    });
    std::int64_t t1 = t0;
    for (int spins = 0;; ++spins) {
      const replica::StreamPosition pos = env.follower->position();
      t1 = now_ns();
      if (pos.epoch > epoch || (pos.epoch == epoch && pos.seq >= seq)) break;
      if (t1 - t0 > 10'000'000'000) break;  // runaway guard; shows in p99
      if (spins < 200) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    out.lag_us.add(static_cast<double>(t1 - t0) / 1e3);
    const std::uint64_t jb = env.follower->journal_bytes();
    out.follower_journal_growth += jb >= last_journal ? jb - last_journal : jb;
    last_journal = jb;
    std::this_thread::sleep_until(
        SteadyClock::time_point(std::chrono::nanoseconds(t0 + 1'000'000)));
  }
}

PhaseResult run_phase(Env& env, std::vector<ClientState>& clients, Shared& sh,
                      double seconds, const PhaseFlags& flags) {
  PhaseResult res;
  res.before = snapshot(env);
  for (ClientState& c : clients) c.stats = PhaseStats{};
  const auto period = [](double rate) {
    return static_cast<std::int64_t>(1e9 / rate);
  };
  const std::int64_t start = now_ns() + 20'000'000;
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t deadline = start + length;
  const auto wait_until = [](std::int64_t t) {
    std::this_thread::sleep_until(
        SteadyClock::time_point(std::chrono::nanoseconds(t)));
  };
  std::vector<std::jthread> threads;  // joined on every path out
  for (ClientState& c : clients) {
    threads.emplace_back([&, deadline, start] {
      wait_until(start);
      if (c.spec->loop == LoopKind::kOpen) {
        for (std::int64_t k = 0; !c.broken; ++k) {
          const std::int64_t due = start + k * period(c.spec->rate);
          if (due >= deadline) break;
          wait_until(due);
          do_op(c, sh, due, deadline, flags);
        }
      } else {
        while (!c.broken && now_ns() < deadline) do_op(c, sh, 0, deadline, flags);
      }
    });
  }
  if (env.follower) {
    threads.emplace_back([&, deadline, start] {
      wait_until(start);
      sample_lag(env, deadline, res);
    });
  }
  threads.clear();
  res.seconds = seconds;
  res.start_ns = start;
  for (const ClientState& c : clients) res.stats.merge(c.stats);
  res.after = snapshot(env);
  return res;
}

/// The end-to-end figures of one measured window, cut into equal slices:
/// each figure is the median of its per-slice values, so a slice the shared
/// host slowed down moves it little.  A `checkpoint` stalls every writer;
/// commit_write checkpoints rarely enough that most slices hold no stall,
/// and the stalls show in write_p99_us and storage.checkpoint_*.
struct WindowFigures {
  double ops_per_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  std::string how;
  std::vector<double> rate, p50, p90;  ///< per-slice values, in time order
};

WindowFigures window_figures(const PhaseResult& phase, int slices) {
  WindowFigures f;
  const std::int64_t length = static_cast<std::int64_t>(phase.seconds * 1e9);
  std::vector<Samples> lat(static_cast<std::size_t>(slices));
  std::vector<std::uint64_t> acked(lat.size(), 0);
  for (const auto& [done, us] : phase.stats.timeline) {
    const std::int64_t at = done - phase.start_ns;
    if (at < 0 || at >= length) continue;
    const auto k = static_cast<std::size_t>(at * slices / length);
    lat[k].add(us);
    if (us != kFailedLatency) ++acked[k];
  }
  std::size_t unsupported = 0;
  for (std::size_t k = 0; k < lat.size(); ++k) {
    f.rate.push_back(static_cast<double>(acked[k]) / (phase.seconds / slices));
    f.p50.push_back(lat[k].median());
    const auto v = lat[k].percentile(0.90);
    if (!v) ++unsupported;
    f.p90.push_back(v ? *v : lat[k].max());
  }
  f.ops_per_s = median(f.rate);
  f.p50_us = median(f.p50);
  f.p90_us = median(f.p90);
  f.how = "over " + std::to_string(slices) + " slices of " + num(phase.seconds / slices) + " s";
  if (unsupported > 0) {
    f.how += "; " + std::to_string(unsupported) + " slice(s) too small for p90: max";
  }
  return f;
}

// ---- in-process layer probes (traced runs) -------------------------------------------

struct Probes {
  Samples cli_us;
  Samples page_us, plan_us;
  std::uint64_t examined = 0, rows = 0;
  std::string page_input;
  double index_apply_us_total = 0;
  std::uint64_t index_writes = 0;
  std::string index_input;
  Samples run_ms, tool_us;
  std::string exec_input;
  Samples sync_us;
  Samples checkpoint_ms;
  std::uint64_t checkpoint_bytes = 0;
  // Set where the workload bypasses the layer and its probe ran on stand-in
  // inputs (see README.md, "Per-layer metrics").
  bool page_stand_in = false;
  bool index_stand_in = false;
  bool exec_stand_in = false;
  bool sync_stand_in = false;
  bool checkpoint_stand_in = false;
};

bool budget_left(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9 < kProbeBudgetS;
}

/// Replays the traced phase's ops through `cli::Interpreter::execute` on
/// the served session, single-threaded, one interpreter per client (each
/// keeps its own flow workspace, as on the wire).  Returns the replay
/// interpreters (their flows feed the exec probe).
std::vector<std::unique_ptr<cli::Interpreter>> probe_cli(
    Env& env, const std::vector<ClientState>& clients, Tracer& tr,
    std::ostringstream& sink, Probes& p) {
  std::vector<std::unique_ptr<cli::Interpreter>> interps;
  for (const ClientState& c : clients) {
    interps.push_back(std::make_unique<cli::Interpreter>(sink, *env.session));
    (void)interps.back()->execute("session user " + c.spec->user);
  }
  const std::int64_t t0 = now_ns();
  std::vector<std::size_t> next(clients.size(), 0);
  for (bool more = true; more && budget_left(t0);) {
    more = false;
    for (std::size_t i = 0; i < clients.size() && budget_left(t0); ++i) {
      if (next[i] >= clients[i].log.size()) continue;
      more = true;
      const SentOp& op = clients[i].log[next[i]++];
      env.locked([&] {
        const std::int64_t a = now_ns();
        {
          const Scope s(tr, "cli.Interpreter.execute");
          (void)interps[i]->execute(op.line, op.body);
        }
        p.cli_us.add(static_cast<double>(now_ns() - a) / 1e3);
      });
      sink.str("");
    }
  }
  return interps;
}

std::optional<history::QueryFilter> browse_filter(
    const schema::TaskSchema& schema, const std::string& line,
    std::size_t& limit, std::optional<history::PageCursor>& after) {
  const std::vector<std::string> args = support::split_ws(line);
  if (args.size() < 2 || args[0] != "browse") return std::nullopt;
  history::QueryFilter f;
  f.type = schema.require(args[1]);
  limit = 50;
  after.reset();
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::size_t eq = args[i].find('=');
    const std::string key = args[i].substr(0, eq);
    const std::string value = args[i].substr(eq + 1);
    if (key == "keyword") f.keyword = value;
    else if (key == "user") f.user = value;
    else if (key == "uses")
      f.uses = data::InstanceId(static_cast<std::uint32_t>(std::stoul(value.substr(1))));
    else if (key == "from") f.from = support::Timestamp(std::stoll(value));
    else if (key == "to") f.to = support::Timestamp(std::stoll(value));
    else if (key == "limit") limit = std::stoul(value);
    else if (key == "after") after = history::PageCursor::decode(value);
  }
  return f;
}

void probe_history(Env& env, const std::vector<std::string>& lines,
                   Tracer& tr, Probes& p) {
  const history::HistoryDb& db = env.session->db();
  const history::SecondaryIndex* index = env.session->indexes();
  const std::int64_t t0 = now_ns();
  for (const std::string& line : lines) {
    if (!budget_left(t0)) break;
    std::size_t limit = 0;
    std::optional<history::PageCursor> after;
    const auto filter = browse_filter(db.schema(), line, limit, after);
    if (!filter) continue;
    env.locked([&] {
      const Scope page(tr, "history.page");
      std::int64_t a = now_ns();
      {
        const Scope s(tr, "history.plan_query");
        (void)history::plan_query(db, *filter, index);
      }
      p.plan_us.add(static_cast<double>(now_ns() - a) / 1e3);
      a = now_ns();
      history::QueryPage result;
      {
        const Scope s(tr, "history.run_page");
        result = history::run_page(db, *filter, index, limit, after);
      }
      p.page_us.add(static_cast<double>(now_ns() - a) / 1e3);
      p.examined += result.candidates_examined;
      p.rows += result.ids.size();
    });
  }
}

/// Applies captured mutation lines to a copy of the index as it stood when
/// the traced phase began (saved to and reloaded from `probe_dir`).
void probe_index(index::HistoryIndexes& probe,
                 const std::vector<std::string>& mutations, Tracer& tr,
                 Probes& p) {
  for (const std::string& lines : mutations) {
    const std::int64_t a = now_ns();
    {
      const Scope s(tr, "index.HistoryIndexes.on_lines");
      probe.on_lines(lines);
    }
    p.index_apply_us_total += static_cast<double>(now_ns() - a) / 1e3;
  }
}

/// Runs fully bound flows directly through `DesignSession::run` (no emulated
/// tool latency: the probe times the executor and the tools themselves), and
/// invokes the Simulator encapsulation once per produced Performance.
void probe_exec(core::DesignSession& session,
                const std::map<std::string, graph::TaskGraph>& flows,
                const std::function<void(const std::function<void()>&)>& lock,
                Tracer& tr, Probes& p) {
  const std::int64_t t0 = now_ns();
  for (const auto& [name, flow] : flows) {
    if (!budget_left(t0)) break;
    lock([&] {
      exec::ExecOptions options;
      options.parallel = true;
      options.user = session.user();
      const std::int64_t a = now_ns();
      exec::ExecResult result;
      try {
        const Scope s(tr, "core.DesignSession.run");
        result = session.run(flow, options);
      } catch (const std::exception&) {
        // A flow the replay left half-built (its round began before the
        // traced window, or the replay budget ran out mid-round).
        return;
      }
      p.run_ms.add(static_cast<double>(now_ns() - a) / 1e6);
      for (const graph::NodeId goal : flow.goals()) {
        for (const data::InstanceId id : result.of(goal)) {
          const history::HistoryDb& db = session.db();
          const history::Instance& perf = db.instance(id);
          if (!perf.derivation.tool.valid()) continue;
          tools::ToolContext ctx;
          ctx.schema = &session.schema();
          ctx.tool_instance = perf.derivation.tool;
          ctx.tool_type = db.instance(perf.derivation.tool).type;
          ctx.tool_type_name = session.schema().entity_name(ctx.tool_type);
          ctx.tool_payload = db.payload(perf.derivation.tool);
          const tools::Encapsulation& enc = session.tools().resolve(ctx.tool_type);
          ctx.args = enc.args;
          for (std::size_t i = 0; i < perf.derivation.inputs.size(); ++i) {
            const data::InstanceId in = perf.derivation.inputs[i];
            tools::ToolInput ti;
            ti.type = db.instance(in).type;
            ti.type_name = session.schema().entity_name(ti.type);
            ti.role = perf.derivation.input_roles[i];
            ti.instances.push_back(in);
            ti.payloads.push_back(db.payload(in));
            ctx.inputs.push_back(std::move(ti));
          }
          const std::int64_t b = now_ns();
          {
            const Scope s(tr, "tools.Encapsulation.fn");
            (void)enc.fn(ctx);
          }
          p.tool_us.add(static_cast<double>(now_ns() - b) / 1e3);
        }
      }
    });
  }
}

/// Drives design rounds through an interpreter, resolving the {tag}
/// placeholders from its own import replies.  Runs drop their emulated
/// tool latency: the probes time the executor, not sleeps.
void drive_rounds(cli::Interpreter& interp, std::ostringstream& sink,
                  OpSource& source, std::size_t ops) {
  std::map<std::string, std::uint32_t> tagged;
  for (std::size_t i = 0; i < ops; ++i) {
    const Op op = source.next();
    std::string line =
        resolve(op.line, [&](const std::string& tag) -> std::optional<std::uint32_t> {
          const auto it = tagged.find(tag);
          if (it == tagged.end()) return std::nullopt;
          return it->second;
        });
    const std::size_t latency = line.find(" latency=");
    if (latency != std::string::npos) line.erase(latency);
    sink.str("");
    (void)interp.execute(line, op.body);
    remember_import(op, sink.str(), tagged);
  }
}

/// A small in-memory design session: the probe input for layers the
/// workload's own stream bypasses (exec and tools on browse_read and
/// commit_write; the index on browse_read, which writes nothing).
void probe_scratch(std::uint64_t seed, Tracer& tr, Probes& p, bool exec,
                   bool index) {
  const Workload& design = *find_workload("design_runs");
  core::DesignSession session(
      schema::make_full_schema(), "d0",
      std::make_unique<support::ManualClock>(kBaseStartMicros, kBaseTickMicros));
  const BaseCatalog catalog = populate(session.db(), design, seed);
  index::HistoryIndexes idx(session.db());
  idx.rebuild();
  MutationCapture capture;
  session.db().add_observer(&capture);
  std::ostringstream sink;
  cli::Interpreter interp(sink, session);
  const std::unique_ptr<OpSource> source = make_source(design, 0, seed, catalog);
  drive_rounds(interp, sink, *source, 240);
  session.db().remove_observer(&capture);
  if (index) {
    probe_index(idx, capture.mutations, tr, p);
    p.index_writes = 240;
    p.index_input = "scratch design rounds (240 ops, 2k-instance base)";
    p.index_stand_in = true;
  }
  if (exec) {
    probe_exec(session, interp.named_flows(),
               [](const std::function<void()>& fn) { fn(); }, tr, p);
    p.exec_input = "scratch design rounds (the workload runs no flows)";
    p.exec_stand_in = true;
  }
}

void probe_storage(Env& env, const PhaseStats& traced, Tracer& tr, Probes& p) {
  // sync: one journal frame pending (an annotation that rewrites a base
  // instance's own name and comment), then `DurableHistory::sync`.
  for (std::uint32_t i = 0; i < 32; ++i) {
    env.locked([&] {
      const data::InstanceId id(env.catalog.imports[i % env.catalog.imports.size()]);
      const history::Instance& inst = env.session->db().instance(id);
      env.session->annotate(id, std::string(inst.name), std::string(inst.comment));
      const std::int64_t a = now_ns();
      {
        const Scope s(tr, "storage.DurableHistory.sync");
        env.session->storage()->sync();
      }
      p.sync_us.add(static_cast<double>(now_ns() - a) / 1e3);
    });
  }
  p.sync_stand_in = traced.writes_acked == 0 && traced.runs == 0;
  if (traced.checkpoints > 0) {
    p.checkpoint_ms = traced.checkpoint_ms;
  } else {
    p.checkpoint_stand_in = true;
    env.locked([&] {
      const std::int64_t a = now_ns();
      {
        const Scope s(tr, "core.DesignSession.checkpoint_storage");
        env.session->checkpoint_storage();
      }
      p.checkpoint_ms.add(static_cast<double>(now_ns() - a) / 1e6);
    });
  }
  p.checkpoint_bytes = file_bytes(env.leader_dir / "snapshot.herc") +
                       file_bytes(env.leader_dir / index::kIndexFileName);
}

// ---- self times from spans ----------------------------------------------------------

struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

std::map<std::string, SpanTotals> span_totals(const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotals> out;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<double> child_us(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      SpanTotals& tot = out[spans[i].name];
      ++tot.count;
      tot.total_us += d;
      tot.self_us += d - child_us[i];
    }
  }
  return out;
}

void write_spans(const fs::path& path, const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path, std::ios::trunc);
  std::uint64_t base = 0;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"id\":" << base + i << ",\"thread\":" << t << ",\"name\":\""
          << s.name << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":"
          << s.end_ns << ",\"parent\":"
          << (s.parent < 0 ? std::string("null")
                           : std::to_string(base + static_cast<std::uint64_t>(s.parent)))
          << ",\"request\":" << s.request << "}\n";
    }
    base += spans.size();
  }
}

// ---- reporting ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count / provenance, report only
  /// A probe of a layer the workload bypasses, run on stand-in inputs.
  bool stand_in = false;
};

double pct_or_max(Samples& s, double q) {
  const auto v = s.percentile(q);
  return v ? *v : s.max();
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-32s %14s %-6s %s%s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str(), m.stand_in ? "[stand-in] " : "", m.note.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " +
           num(ms[i].value) + ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

/// Report-only percentile line: printed when the sample set supports it.
void add_pct(std::vector<Metric>& out, const std::string& name, Samples& s,
             double q, const std::string& unit) {
  const auto v = s.percentile(q);
  if (v) {
    out.push_back({name, *v, unit, "n=" + std::to_string(s.size())});
  } else if (s.size() > 0) {
    std::printf("  (%s not reported: n=%zu leaves fewer than 10 samples beyond it)\n",
                name.c_str(), s.size());
  }
}

/// Run metadata: printed first and stored with the results.
std::string describe_run(const Workload& w, const Args& args) {
  const storage::JournalOptions journal = journal_options();
  const std::string flush =
      journal.sync == storage::SyncPolicy::kInterval
          ? "sync=interval every=" + std::to_string(journal.sync_interval)
          : journal.sync == storage::SyncPolicy::kCommit ? "sync=commit" : "sync=none";
  std::string clients = "[";
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    const ClientSpec& c = w.clients[i];
    clients += std::string(i ? ", " : "") + "{\"role\": " + json_str(c.role) +
               ", \"user\": " + json_str(c.user) + ", \"loop\": " +
               (c.loop == LoopKind::kOpen ? "\"open\"" : "\"closed\"") +
               ", \"rate_per_s\": " + num(c.rate) + "}";
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    stream_digest(w, args.seed, kStreamDigestOps)));
  return "{\"workload\": " + json_str(w.name) + ", \"why\": " + json_str(w.why) +
         ", \"seed\": " + std::to_string(args.seed) + ", \"seconds\": " +
         num(args.seconds) + ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + json_str(args.commit) + ", \"flush_policy\": " +
         json_str(flush) + ", \"base_instances\": " + std::to_string(w.base_instances) +
         ", \"connections\": " + std::to_string(w.clients.size()) +
         ", \"clients\": " + clients + "], \"stream_digest\": " + json_str(digest) + "}";
}

std::vector<Metric> end_to_end_metrics(PhaseResult& phase, const WindowFigures& fig,
                                       const std::vector<double>& setup_s,
                                       double first_setup_rss_mb,
                                       double run_peak_rss_mb) {
  PhaseStats& s = phase.stats;
  const std::string whole = "; whole window: ";
  return {
      {"setup_s", median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"ops_per_s", fig.ops_per_s, "1/s",
       "median of per-slice rates " + fig.how + whole + num(phase.ops_per_s()) + " (" +
           std::to_string(s.acked_in_window) + " acked in " + num(phase.seconds) + " s)"},
      {"op_p90_us", fig.p90_us, "us",
       "median of per-slice p90s" + whole + num(pct_or_max(s.all_us, 0.90)) +
           ", p99 " + num(pct_or_max(s.all_us, 0.99)) + " (n=" +
           std::to_string(s.all_us.size()) + ")"},
      {"peak_rss_mb", first_setup_rss_mb, "MB",
       "benchmark process through its first set-up; peak of the whole run: " +
           num(run_peak_rss_mb)},
  };
}

/// The metrics reported but not gated: the median of every op, and the
/// per-class metrics where the workload has the class.  op_p50_us is not
/// gated: on a shared host it spread by more than 25% between runs of the
/// same code (README.md, "Steadiness").
std::vector<Metric> class_metrics(PhaseResult& phase, const WindowFigures& fig) {
  PhaseStats& s = phase.stats;
  std::vector<Metric> out;
  out.push_back({"op_p50_us", fig.p50_us, "us",
                 "median of per-slice p50s; whole window: " +
                     num(pct_or_max(s.all_us, 0.50)) + " (n=" +
                     std::to_string(s.all_us.size()) + ")"});
  add_pct(out, "read_p50_us", s.read_us, 0.50, "us");
  add_pct(out, "read_p99_us", s.read_us, 0.99, "us");
  add_pct(out, "write_p50_us", s.write_us, 0.50, "us");
  add_pct(out, "write_p99_us", s.write_us, 0.99, "us");
  add_pct(out, "run_p50_ms", s.run_ms, 0.50, "ms");
  add_pct(out, "run_p95_ms", s.run_ms, 0.95, "ms");
  add_pct(out, "repl_lag_p50_us", phase.lag_us, 0.50, "us");
  add_pct(out, "repl_lag_p99_us", phase.lag_us, 0.99, "us");
  add_pct(out, "gen_late_p99_us", s.late_us, 0.99, "us");
  if (s.writes_acked > 0) {
    const double growth = static_cast<double>(phase.after.store_bytes) -
                          static_cast<double>(phase.before.store_bytes);
    out.push_back({"store_bytes_per_write", growth / static_cast<double>(s.writes_acked),
                   "bytes", "leader dir growth / " + std::to_string(s.writes_acked) +
                                " acked writes"});
  }
  return out;
}

/// Per-layer metrics of a traced run: the traced window's wire spans and
/// counters, and the in-process probes.  Also evaluates the predictions a
/// single run can check (README.md has the cross-workload ones).
std::vector<Metric> layer_metrics(const Workload& w, const PhaseResult& untraced,
                                  PhaseResult& t, Probes& probes,
                                  const std::vector<const Tracer*>& client_tracers,
                                  std::vector<std::string>& predictions) {
  PhaseStats& ts = t.stats;
  Samples rtt_us;
  for (const Tracer* tracer : client_tracers) {
    for (const Span& sp : tracer->spans()) {
      if (std::strcmp(sp.name, "server.Client.call") == 0) {
        rtt_us.add(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
      }
    }
  }
  std::uint64_t exec_n = 0;
  const double exec_p50 =
      histogram_delta_percentile(t.before.exec_us, t.after.exec_us, 0.50, &exec_n);
  const double exec_p99 =
      histogram_delta_percentile(t.before.exec_us, t.after.exec_us, 0.99, nullptr);
  const double rtt_p50 = rtt_us.median();
  const double rtt_p99 = pct_or_max(rtt_us, 0.99);
  const double cli_p50 = probes.cli_us.median();
  const double cli_p99 = pct_or_max(probes.cli_us, 0.99);
  const double commands = static_cast<double>(t.after.commands - t.before.commands);
  const double writes = static_cast<double>(ts.writes_acked);
  const double frames =
      static_cast<double>(t.after.records_journaled - t.before.records_journaled);
  const double follower_frames =
      static_cast<double>(t.after.follower_frames - t.before.follower_frames);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::string n_rtt = "n=" + std::to_string(rtt_us.size());
  const std::string n_exec =
      "n=" + std::to_string(exec_n) + ", histogram delta, bucket-interpolated";
  const std::string n_cli =
      "n=" + std::to_string(probes.cli_us.size()) + ", in-process replay";
  const double tasks = static_cast<double>(ts.tasks_run + ts.tasks_reused);

  const auto check = [&](bool held, const std::string& what) {
    predictions.push_back(std::string(held ? "held" : "NOT HELD") + ": " + what);
  };
  if (w.name == "browse_read") {
    check(frames == 0, "browse_read journals nothing (storage.journal_frames == 0)");
    check(ts.runs == 0, "browse_read runs nothing (exec.runs == 0)");
  } else if (w.name == "commit_write") {
    check(ts.runs == 0, "commit_write runs nothing (exec.runs == 0)");
    check(ts.planner_ops == 0,
          "commit_write does no planner work (history.planner_ops == 0)");
    check(follower_frames > 0, "commit_write streams frames to its follower");
  } else {
    check(ts.runs > 0, "design_runs runs flows (exec.runs > 0)");
    check(exec_p99 > 10 * cli_p50,
          "design_runs commands wait behind runs (server.exec_p99_us > 10x cli.execute_p50_us)");
  }

  return {
      {"server.rtt_p50_us", rtt_p50, "us", n_rtt},
      {"server.rtt_p99_us", rtt_p99, "us", n_rtt},
      {"server.exec_p50_us", exec_p50, "us", n_exec},
      {"server.exec_p99_us", exec_p99, "us", n_exec},
      {"server.transport_p50_us", rtt_p50 - exec_p50, "us", "rtt - exec"},
      {"server.wait_p50_us", exec_p50 - cli_p50, "us", "exec - cli.execute"},
      {"server.wait_p99_us", exec_p99 - cli_p99, "us", "exec - cli.execute"},
      {"server.bytes_per_op", ratio(static_cast<double>(t.after.bytes - t.before.bytes), commands),
       "bytes", "bytes_in+bytes_out / commands"},
      {"cli.execute_p50_us", cli_p50, "us", n_cli},
      {"cli.execute_p99_us", cli_p99, "us", n_cli},
      {"history.page_p50_us", probes.page_us.median(), "us",
       "n=" + std::to_string(probes.page_us.size()) + ", " + probes.page_input,
       probes.page_stand_in},
      {"history.plan_p50_us", probes.plan_us.median(), "us",
       "n=" + std::to_string(probes.plan_us.size()), probes.page_stand_in},
      {"history.examined_per_row",
       ratio(static_cast<double>(probes.examined), static_cast<double>(probes.rows)), "ratio",
       std::to_string(probes.examined) + " examined / " + std::to_string(probes.rows) + " rows",
       probes.page_stand_in},
      {"history.planner_ops", static_cast<double>(ts.planner_ops), "count",
       "browse/find ops on the wire"},
      {"index.apply_us_per_write",
       ratio(probes.index_apply_us_total, static_cast<double>(probes.index_writes)), "us",
       probes.index_input, probes.index_stand_in},
      {"exec.run_p50_ms", probes.run_ms.median(), "ms",
       "n=" + std::to_string(probes.run_ms.size()) + ", " + probes.exec_input,
       probes.exec_stand_in},
      {"exec.reuse_frac", ratio(static_cast<double>(ts.tasks_reused), tasks), "ratio",
       std::to_string(ts.tasks_reused) + " reused of " + num(tasks) + " tasks on the wire"},
      {"exec.runs", static_cast<double>(ts.runs), "count", "run ops on the wire"},
      {"tools.call_p50_us", probes.tool_us.median(), "us",
       "n=" + std::to_string(probes.tool_us.size()) + ", Simulator encapsulation",
       probes.exec_stand_in},
      {"storage.sync_p50_us", probes.sync_us.median(), "us",
       "n=" + std::to_string(probes.sync_us.size()) + ", one frame pending",
       probes.sync_stand_in},
      {"storage.journal_frames", frames, "count", "journal records appended"},
      {"storage.journal_bytes_per_write",
       ratio(static_cast<double>(t.after.bytes_journaled - t.before.bytes_journaled), writes),
       "bytes", "journal payload bytes / acked writes"},
      {"storage.checkpoint_p50_ms", probes.checkpoint_ms.median(), "ms",
       "n=" + std::to_string(probes.checkpoint_ms.size()) +
           (ts.checkpoints > 0 ? ", checkpoint ops on the wire" : ", one probe checkpoint"),
       probes.checkpoint_stand_in},
      {"storage.checkpoint_max_ms", probes.checkpoint_ms.max(), "ms", "",
       probes.checkpoint_stand_in},
      {"storage.checkpoint_bytes", static_cast<double>(probes.checkpoint_bytes), "bytes",
       "snapshot.herc + indexes.herc", probes.checkpoint_stand_in},
      {"storage.checkpoints", static_cast<double>(ts.checkpoints), "count",
       "checkpoint ops on the wire"},
      {"replica.frames_per_write", ratio(follower_frames, writes), "ratio",
       "frames applied / acked writes"},
      {"replica.bytes_per_write", ratio(static_cast<double>(t.follower_journal_growth), writes),
       "bytes", "follower journal growth / acked writes"},
      {"replica.resyncs",
       static_cast<double>(t.after.follower_resyncs - t.before.follower_resyncs), "count", ""},
      {"trace.untraced_ops_per_s", untraced.ops_per_s(), "1/s", "first half of the window"},
      {"trace.traced_ops_per_s", t.ops_per_s(), "1/s", "second half of the window"},
      {"trace.overhead_frac", 1.0 - ratio(t.ops_per_s(), untraced.ops_per_s()), "ratio",
       "1 - traced/untraced ops_per_s"},
  };
}

void print_span_totals(const std::vector<const Tracer*>& tracers) {
  std::printf("\nspan self times\n  %-40s %10s %14s %14s\n", "span", "count", "total_us",
              "self_us");
  for (const auto& [name, tot] : span_totals(tracers)) {
    std::printf("  %-40s %10llu %14.1f %14.1f\n", name.c_str(),
                static_cast<unsigned long long>(tot.count), tot.total_us, tot.self_us);
  }
}

int run(const Args& args) {
  const Workload& w = *find_workload(args.workload);
  const std::string meta = describe_run(w, args);
  std::printf("herc-bench %s  seed=%llu  seconds=%s  trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), num(args.seconds).c_str(),
              args.trace ? 1 : 0);
  std::printf("meta %s\n", meta.c_str());
  std::fflush(stdout);

  const fs::path work = kWorkDir / (w.name + "-" + std::to_string(::getpid()));
  fs::create_directories(kOutDir);
  const std::string stem = w.name + "-seed" + std::to_string(args.seed);

  // ---- set-up, repeated; the last one serves the measured window ----------
  std::vector<double> setup_s;
  HistoryLog history_log;  // declared first: it outlives the database it observes
  std::unique_ptr<Env> env;
  double setup_total = 0;
  double first_setup_rss_mb = 0;
  for (int k = 0; k < kMinSetups || setup_total < kSetupBudgetS; ++k) {
    env.reset();
    ::malloc_trim(0);  // start every set-up from the same heap footprint
    const std::int64_t a = now_ns();
    env = set_up(w, args.seed, work / ("setup" + std::to_string(k)));
    setup_s.push_back(static_cast<double>(now_ns() - a) / 1e9);
    setup_total += setup_s.back();
    // The first set-up starts from a fresh process.  Later ones land on a
    // heap the earlier ones fragmented, and the window adds as much as the
    // host lets it write, so the run's whole peak is only noted.
    if (k == 0) first_setup_rss_mb = peak_rss_mb();
  }
  // The gate's index audit needs the whole history: the database as set up,
  // then every record made from the warm-up on.
  std::string base_image;
  env->locked([&] {
    base_image = env->session->db().save();
    env->session->db().add_observer(&history_log);
  });

  Shared shared;
  shared.fallback = env->catalog.performances.empty() ? 0 : env->catalog.performances.front();
  std::vector<ClientState> clients(w.clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].spec = &w.clients[i];
    clients[i].source = make_source(w, i, args.seed, env->catalog);
    clients[i].conn = &env->clients[i];
  }
  const bool browse_gate = w.name == "browse_read";

  // ---- measured window(s) ------------------------------------------------
  (void)run_phase(*env, clients, shared, kWarmupS, {});
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  PhaseResult main_phase = run_phase(*env, clients, shared, untraced_s,
                                     {false, browse_gate});
  PhaseResult traced_phase;
  Tracer probe_tracer;
  Probes probes;
  MutationCapture capture;
  // The index probe replays the traced window's mutations onto a copy of
  // the index as it stood when the window began (saved, then reloaded
  // while the database still matches it).
  std::unique_ptr<index::HistoryIndexes> index_copy;
  if (args.trace) {
    const fs::path probe_dir = work / "index-probe";
    fs::create_directories(probe_dir);
    env->locked([&] {
      const std::uint64_t epoch = env->session->storage()->epoch();
      env->session->indexes()->save(probe_dir.string(), epoch, 0);
      index_copy = std::make_unique<index::HistoryIndexes>(env->session->db());
      const auto rep = index_copy->open(probe_dir.string(), epoch, {});
      if (!rep.loaded) throw std::runtime_error("index probe: " + rep.reason);
      env->session->db().add_observer(&capture);
    });
    for (ClientState& c : clients) c.tracer.enable(true);
    traced_phase = run_phase(*env, clients, shared, args.seconds / 2, {true, false});
    for (ClientState& c : clients) c.tracer.enable(false);
    env->locked([&] { env->session->db().remove_observer(&capture); });
  }

  // ---- correctness gate, part 1: wire answers vs in-process replay ---------
  std::vector<std::string> gate_failures;
  std::size_t browse_compared = 0;
  if (browse_gate) {
    std::ostringstream sink;
    cli::Interpreter replay(sink, *env->session);
    for (ClientState& c : clients) {
      for (const auto& [line, wire] : c.sampled) {
        sink.str("");
        env->locked([&] { (void)replay.execute(line); });
        ++browse_compared;
        if (sink.str() != wire) {
          gate_failures.push_back("browse replay differs from the wire: " + line);
        }
      }
    }
    if (browse_compared == 0) gate_failures.push_back("no browse op was sampled");
  }
  PhaseStats all_stats = main_phase.stats;
  all_stats.merge(traced_phase.stats);
  if (w.max_task_latency_ms > 0) {
    if (all_stats.runs == 0) gate_failures.push_back("no run completed");
    if (all_stats.run_failures > 0) {
      gate_failures.push_back(std::to_string(all_stats.run_failures) +
                              " run(s) ended with failed tasks");
    }
  }

  // ---- probes (traced) ---------------------------------------------------
  if (args.trace) {
    probe_tracer.enable(true);
    std::ostringstream sink;
    const auto interps = probe_cli(*env, clients, probe_tracer, sink, probes);
    std::vector<std::string> browse_lines;
    for (const ClientState& c : clients) {
      for (const SentOp& op : c.log) {
        if (op.line.rfind("browse ", 0) == 0) browse_lines.push_back(op.line);
      }
    }
    if (browse_lines.empty()) {
      browse_lines = browse_probe_lines(args.seed, env->catalog, 400);
      probes.page_input = "browse_read predicates (the workload browses nothing)";
      probes.page_stand_in = true;
    } else {
      probes.page_input = "the workload's own browse ops";
    }
    probe_history(*env, browse_lines, probe_tracer, probes);
    if (!capture.mutations.empty()) {
      probe_index(*index_copy, capture.mutations, probe_tracer, probes);
      probes.index_writes = traced_phase.stats.writes_acked + traced_phase.stats.runs;
      probes.index_input = "the workload's own mutations (" +
                           std::to_string(capture.mutations.size()) + ")";
    }
    index_copy.reset();
    const bool own_flows = w.max_task_latency_ms > 0;
    if (own_flows) {
      std::map<std::string, graph::TaskGraph> flows;
      for (std::size_t i = 0; i < interps.size(); ++i) {
        for (const auto& [name, flow] : interps[i]->named_flows()) {
          flows.emplace(clients[i].spec->user + "." + name, flow);
        }
      }
      probe_exec(*env->session, flows,
                 [&](const std::function<void()>& fn) { env->locked(fn); },
                 probe_tracer, probes);
      probes.exec_input = "the workload's own flows";
    }
    probe_scratch(args.seed, probe_tracer, probes, !own_flows,
                  capture.mutations.empty());
    probe_storage(*env, traced_phase.stats, probe_tracer, probes);
    probe_tracer.enable(false);
  }

  // ---- correctness gate, part 2: follower, fsck ----------------------------
  if (env->follower) {
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    env->locked([&] {
      epoch = env->session->storage()->epoch();
      seq = env->session->storage()->journal_seq();
    });
    const std::int64_t a = now_ns();
    replica::StreamPosition pos = env->follower->position();
    while (!(pos.epoch == epoch && pos.seq == seq) && now_ns() - a < 60'000'000'000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      pos = env->follower->position();
    }
    env->follower->stop();
    std::string leader_image;
    env->locked([&] { leader_image = env->session->db().save(); });
    if (!(pos.epoch == epoch && pos.seq == seq)) {
      gate_failures.push_back("follower did not catch up with the leader");
    } else if (env->follower->db().save() != leader_image) {
      gate_failures.push_back("follower history differs from the leader's");
    }
  }
  const fs::path leader_dir = env->leader_dir;
  env->shut_down();
  env->session->db().remove_observer(&history_log);
  const storage::FsckReport fsck = storage::fsck_store(leader_dir.string());
  // fsck audits the index against the history since the last checkpoint, so
  // postings an annotation replaced before one read as "orphan-index".  Those
  // findings alone are audited again over the whole history; any other
  // finding fails the gate.
  const bool orphans_only = std::all_of(
      fsck.findings.begin(), fsck.findings.end(), [](const storage::FsckFinding& f) {
        return f.severity == storage::FsckSeverity::kClean || f.code == "orphan-index";
      });
  std::string fsck_note;
  if (fsck.exit_code() != 0 && !orphans_only) {
    gate_failures.push_back("fsck of the leader store is not clean:\n" + fsck.render());
  } else if (fsck.exit_code() != 0) {
    const std::vector<std::string> audit =
        audit_index_postings(leader_dir, base_image, history_log);
    if (!audit.empty()) {
      gate_failures.push_back("fsck of the leader store is not clean:\n" + fsck.render());
      gate_failures.insert(gate_failures.end(), audit.begin(), audit.end());
    } else {
      fsck_note = "fsck reports orphan-index warnings only (a known fsck defect); every "
                  "posting of the saved index is justified by the whole history, whose "
                  "records behind the flagged ones a checkpoint compacted:\n" +
                  fsck.render();
    }
  }
  if (all_stats.failed > 0) {
    gate_failures.push_back(std::to_string(all_stats.failed) +
                            " op(s) failed; first: " + all_stats.first_error);
  }

  // ---- report ------------------------------------------------------------
  const WindowFigures fig = window_figures(main_phase, kSlices);
  const std::vector<Metric> e2e =
      end_to_end_metrics(main_phase, fig, setup_s, first_setup_rss_mb, peak_rss_mb());
  const std::vector<Metric> by_class = class_metrics(main_phase, fig);
  std::printf("\nset-up times (s):");
  for (const double t : setup_s) std::printf(" %s", num(t).c_str());
  std::printf("\nops: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(all_stats.attempted),
              static_cast<unsigned long long>(all_stats.failed));
  print_metrics("end-to-end (untraced window)", e2e);
  print_metrics("end-to-end, report only (by op class where the workload has the class)",
                by_class);

  std::vector<Metric> layer;
  std::vector<std::string> predictions;
  if (args.trace) {
    std::vector<const Tracer*> tracers;
    for (const ClientState& c : clients) tracers.push_back(&c.tracer);
    layer = layer_metrics(w, main_phase, traced_phase, probes, tracers, predictions);
    print_metrics("per-layer (traced window and in-process probes)", layer);
    tracers.push_back(&probe_tracer);
    print_span_totals(tracers);
    const fs::path span_path = kOutDir / (stem + "-spans.jsonl");
    write_spans(span_path, tracers);
    std::uint64_t dropped = 0;
    for (const Tracer* t : tracers) dropped += t->dropped();
    std::printf("span dump: %s (%llu spans dropped past the per-thread cap)\n",
                span_path.string().c_str(), static_cast<unsigned long long>(dropped));
    std::printf("\npredictions\n");
    for (const std::string& p : predictions) std::printf("  %s\n", p.c_str());
  }

  const bool correct = gate_failures.empty();
  std::printf("\ncorrectness gate: %s\n", correct ? "pass" : "FAIL");
  if (browse_gate) {
    std::printf("  browse ops compared with in-process replay: %zu\n", browse_compared);
  }
  if (!fsck_note.empty()) std::printf("  %s\n", fsck_note.c_str());
  for (const std::string& f : gate_failures) std::printf("  %s\n", f.c_str());

  const fs::path result_path =
      kOutDir / (stem + "-trace" + (args.trace ? "1" : "0") + ".json");
  {
    std::string pred = "[";
    for (std::size_t i = 0; i < predictions.size(); ++i) {
      pred += (i ? ", " : "") + json_str(predictions[i]);
    }
    std::string stand_ins = "[";
    for (const Metric& m : layer) {
      if (m.stand_in) stand_ins += (stand_ins.size() > 1 ? ", " : "") + json_str(m.name);
    }
    std::ofstream out(result_path, std::ios::trunc);
    const auto list = [&out](const std::vector<double>& v) {
      out << "[";
      for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << num(v[i]);
      out << "]";
    };
    out << "{\"meta\": " << meta << ", \"setup_s\": ";
    list(setup_s);
    out << ", \"slices\": {\"ops_per_s\": ";
    list(fig.rate);
    out << ", \"op_p50_us\": ";
    list(fig.p50);
    out << ", \"op_p90_us\": ";
    list(fig.p90);
    out << "}, \"attempted\": " << all_stats.attempted << ", \"failed\": " << all_stats.failed
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"fsck_note\": " << json_str(fsck_note)
        << ",\n \"end_to_end\": " << metrics_json(e2e)
        << ",\n \"by_class\": " << metrics_json(by_class)
        << ",\n \"per_layer\": " << metrics_json(layer)
        << ",\n \"stand_ins\": " << stand_ins << "]"
        << ",\n \"predictions\": " << pred << "]}\n";
  }
  std::printf("results: %s\n", result_path.string().c_str());

  fs::remove_all(work);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(all_stats.attempted),
              static_cast<unsigned long long>(all_stats.failed),
              metrics_json(args.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool parsed = false;
  try {
    parsed = perfbench::parse_args(argc, argv, args);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: herc_perfbench --workload <browse_read|design_runs|"
                 "commit_write> --seed <n> --seconds <s> --trace <0|1>\n"
                 "                      [--commit <id>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "herc-bench: %s\n", e.what());
    return 1;
  }
}
