// Seeded workload definitions and op-stream generation for herc-bench.
//
// Everything a run sends to the server is generated here from the
// `--seed` argument alone: the base-store population, and one lazily
// generated command stream per client.  The server only ever sees the
// resulting command lines; nothing here reads server state.  Placeholders
// are resolved by the load generator at send time, because their values are
// instance ids the server assigns while the run is going:
//
//   {<tag>}   the instance the client's latest import tagged <tag> created
//   {latest}  the newest Performance any designer's run has produced
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Derives an independent sub-seed (per client, per purpose).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt);

enum class LoopKind { kClosed, kOpen };

struct ClientSpec {
  std::string role;  ///< "reader", "designer", "query", "writer"
  std::string user;  ///< `session user` of the connection
  LoopKind loop = LoopKind::kClosed;
  /// Ops per second for an open-loop client (0 for closed loops).
  double rate = 0;
};

struct Workload {
  std::string name;
  std::string why;
  /// Instances in the base store every run starts from.
  std::size_t base_instances = 0;
  std::vector<ClientSpec> clients;
  /// A follower replica and a lag-sampling thread (commit_write).
  bool follower = false;
  /// Upper bound of the `latency=` of a `run` (emulated external tool time
  /// per task, drawn per round from 1..this); 0 = the workload runs nothing.
  int max_task_latency_ms = 0;
  /// Writer 0 sends `checkpoint` every this many of its ops (0 = never).
  std::size_t checkpoint_every = 0;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(std::string_view name);

// ---- the base store ---------------------------------------------------------

/// One record of the base population.  Ids are assigned in creation order
/// from 0, so record k becomes instance `ik`.
struct BaseRecord {
  enum class Kind { kImport, kCompose, kSimulate };
  Kind kind = Kind::kImport;
  std::string type;
  std::string name;
  std::string user;
  std::string comment;
  /// Import payload variant (see `import_body`).
  std::uint32_t variant = 0;
  /// kCompose: {DeviceModels, EditedNetlist};
  /// kSimulate: {Simulator tool, Circuit, Stimuli}.
  std::vector<std::uint32_t> inputs;
};

/// Creation stamps of the base store: the load generator populates it
/// through a manual clock starting at `kBaseStartMicros` and advancing
/// `kBaseTickMicros` per record, so the stream generator knows every base
/// instance's date.
inline constexpr std::int64_t kBaseStartMicros = 1'704'067'200'000'000;  // 2024-01-01
inline constexpr std::int64_t kBaseTickMicros = 60'000'000;              // 1 minute
[[nodiscard]] inline std::int64_t base_created(std::uint64_t id) {
  return kBaseStartMicros + static_cast<std::int64_t>(id) * kBaseTickMicros;
}

/// The four Fig. 1 input types every base store and writer imports.
[[nodiscard]] const std::vector<std::string>& input_types();

/// Payload of an imported instance of `type` (small, deduplicated pool).
[[nodiscard]] std::string import_body(std::string_view type,
                                      std::uint32_t variant);

/// Ids of the base store by role, for generators that name base instances.
struct BaseCatalog {
  std::size_t size = 0;
  std::vector<std::uint32_t> imports;  ///< every imported instance
  std::vector<std::uint32_t> circuits;
  std::vector<std::uint32_t> performances;
  std::vector<std::uint32_t> stimuli;
  std::vector<std::uint32_t> netlists;
};

/// Generates the base population of `n` records, calling `fn` for each in
/// id order, and returns its catalog.
BaseCatalog generate_base(std::uint64_t seed, std::size_t n,
                          const std::function<void(const BaseRecord&)>& fn);

// ---- op streams ---------------------------------------------------------------

struct Op {
  std::string line;  ///< may hold the placeholders described above
  std::string body;  ///< heredoc payload (imports)
  std::string tag;   ///< an import's placeholder name (may be empty)
};

/// One client's endless command stream.
class OpSource {
 public:
  virtual ~OpSource() = default;
  virtual Op next() = 0;
};

/// The stream of client `client` of `workload`.  `catalog` must outlive it.
[[nodiscard]] std::unique_ptr<OpSource> make_source(const Workload& workload,
                                                    std::size_t client,
                                                    std::uint64_t seed,
                                                    const BaseCatalog& catalog);

/// FNV-1a over the base population and the first `ops_per_client` ops of
/// every client: equal seeds give equal digests.
[[nodiscard]] std::uint64_t stream_digest(const Workload& workload,
                                          std::uint64_t seed,
                                          std::size_t ops_per_client);

/// The browse predicates of a browse_read client stream (used to probe the
/// planner on workloads whose own stream browses nothing).
[[nodiscard]] std::vector<std::string> browse_probe_lines(
    std::uint64_t seed, const BaseCatalog& catalog, std::size_t count);

}  // namespace perfbench
