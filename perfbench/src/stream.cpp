#include "stream.hpp"

#include <array>
#include <deque>

namespace perfbench {
namespace {

// Design-block vocabulary: every base name is "<word>-<id>", which the
// keyword index splits into two tokens, so a `keyword=` browse selects
// about 1/48 of the store through the word's posting list.
constexpr std::array<const char*, 48> kWords = {
    "alu",     "adder",    "mux",      "latch",    "flop",     "buffer",
    "inverter", "nand",    "nor",      "xor",      "decoder",  "encoder",
    "counter", "shifter",  "regfile",  "cache",    "fifo",     "arbiter",
    "pll",     "dac",      "adc",      "lna",      "mixer",    "filter",
    "opamp",   "comparator", "bandgap", "ldo",     "repeater", "sram",
    "rom",     "clkgen",   "divider",  "phy",      "serdes",   "uart",
    "spi",     "iic",      "dma",      "timer",    "crc",      "parity",
    "booth",   "wallace",  "carry",    "lookahead", "barrel",  "pipeline"};

// Eight designers with a mild skew: `user=` selectivity ranges 4%..27%.
constexpr std::array<unsigned, 8> kUserWeights = {8, 6, 5, 4, 3, 2, 1, 1};

std::string pick_user(Rng& rng) {
  unsigned roll = static_cast<unsigned>(rng.below(30));
  for (std::size_t u = 0; u < kUserWeights.size(); ++u) {
    if (roll < kUserWeights[u]) return "u" + std::to_string(u);
    roll -= kUserWeights[u];
  }
  return "u0";
}

const char* pick_word(Rng& rng) { return kWords[rng.below(kWords.size())]; }

std::uint32_t pick(Rng& rng, const std::vector<std::uint32_t>& ids) {
  return ids[rng.below(ids.size())];
}

/// Keeps the newest `cap` ids of one kind: derived records use recent
/// inputs, as a designer's next step uses their latest data.
void remember(std::vector<std::uint32_t>& recent, std::uint32_t id,
              std::size_t cap = 256) {
  if (recent.size() < cap) {
    recent.push_back(id);
  } else {
    recent[id % cap] = id;
  }
}

/// An import command; an empty payload is passed as `""`, a non-empty one
/// as the op's heredoc body.
std::string import_line(const std::string& type, const std::string& name,
                        bool has_body) {
  return "import " + type + " " + name + (has_body ? "" : " \"\"");
}

std::string cursor_after(std::uint64_t id) {
  return std::to_string(base_created(id)) + ":" + std::to_string(id);
}

// ---- browse_read: the Fig. 9 read mix ------------------------------------------

class BrowseSource final : public OpSource {
 public:
  BrowseSource(std::uint64_t seed, const BaseCatalog& catalog)
      : rng_(seed), cat_(&catalog) {}

  Op next() override {
    static const std::array<const char*, 5> kTypes = {
        "Stimuli", "DeviceModels", "EditedNetlist", "Simulator",
        "Performance"};
    const std::string type = kTypes[rng_.below(kTypes.size())];
    // Relative weights: the read-op shares of the swarm trace's "browse"
    // profile (src/sim/trace.cpp: its browse and queries rounds), restricted
    // to the Fig. 9 ops below.  There `find` is 2%; here it is 5 in 9805,
    // cut for steadiness: one `find` scans every instance of its type
    // (~13 ms on this store, hundreds of browses), and at 2% it would
    // dominate the server's time and the top percent of latencies.
    const std::uint64_t roll = rng_.below(9805);
    std::string line;
    if (roll < 1760) {
      line = "browse " + type + " keyword=" + pick_word(rng_) + " limit=20";
      if (rng_.below(10) < 4) line += " after=" + random_cursor();
    } else if (roll < 3720) {
      line = "browse " + type + " user=" + pick_user(rng_) + " limit=20";
      if (rng_.below(10) < 4) line += " after=" + random_cursor();
    } else if (roll < 5480) {
      line = "browse " + type + " from=" +
             std::to_string(base_created(rng_.below(cat_->size))) +
             " limit=20";
    } else if (roll < 6360) {
      line = "browse " + type + " limit=20";
      if (rng_.below(10) < 4) line += " after=" + random_cursor();
    } else if (roll < 7240) {
      line = rng_.below(2) == 0
                 ? "browse Performance uses=i" +
                       std::to_string(pick(rng_, cat_->circuits)) + " limit=20"
                 : "browse Circuit uses=i" +
                       std::to_string(pick(rng_, cat_->netlists)) + " limit=20";
    } else if (roll < 8320) {
      line = "history i" + std::to_string(pick(rng_, cat_->performances));
    } else if (roll < 9400) {
      line = "uses i" + std::to_string(pick(rng_, rng_.below(2) == 0
                                                      ? cat_->netlists
                                                      : cat_->stimuli));
    } else if (roll < 9600) {
      line = "versions i" + std::to_string(pick(rng_, cat_->imports));
    } else if (roll < 9800) {
      line = "entities";
    } else if (roll < 9803) {
      line = "find Performance where stimuli = i" +
             std::to_string(pick(rng_, cat_->stimuli));
    } else {
      line = "find Circuit where netlist = i" +
             std::to_string(pick(rng_, cat_->netlists));
    }
    return {line, "", ""};
  }

 private:
  std::string random_cursor() {
    return cursor_after(cat_->size / 4 + rng_.below(cat_->size - cat_->size / 4));
  }

  Rng rng_;
  const BaseCatalog* cat_;
};

// ---- design_runs: Fig. 1 simulate rounds and open-loop product queries ---------

std::string waves_body(Rng& rng) {
  const std::uint64_t half = 500 + rng.below(2000);
  return "stimuli sw\nwave in 0:0 " + std::to_string(half) + ":1 " +
         std::to_string(2 * half) + ":0\n";
}

class DesignerSource final : public OpSource {
 public:
  DesignerSource(std::uint64_t seed, std::string user, int max_latency_ms)
      : rng_(seed), user_(std::move(user)), max_latency_ms_(max_latency_ms) {}

  Op next() override {
    if (pending_.empty()) emit_round();
    Op op = std::move(pending_.front());
    pending_.pop_front();
    return op;
  }

 private:
  void add(std::string line, std::string body = "", std::string tag = "") {
    pending_.push_back({std::move(line), std::move(body), std::move(tag)});
  }

  // One Fig. 1 simulate round, shaped like the design round of the swarm
  // trace (src/sim/trace.cpp, emit_simulate_flow): four fresh imports, the
  // flow built and bound over them, then the run.  Node numbering (0 goal,
  // 1 Simulator, 3 Stimuli, 4 DeviceModels, 5 EditedNetlist) is fixed by the
  // full schema's expansion of Performance.
  void emit_round() {
    const std::string stem = user_ + "_r" + std::to_string(round_);
    const std::string flow = "f" + std::to_string(round_);
    const auto variant = static_cast<std::uint32_t>(rng_.below(64));
    add(import_line("EditedNetlist", stem + "_net", true),
        import_body("EditedNetlist", variant), "net");
    add(import_line("DeviceModels", stem + "_mod", true),
        import_body("DeviceModels", variant), "mod");
    add(import_line("Stimuli", stem + "_stim", true), waves_body(rng_), "stim");
    add(import_line("Simulator", stem + "_sim", false), "", "sim");
    add("flow new " + flow + " goal Performance");
    add("flow expand " + flow + " 0");
    add("flow expand " + flow + " 2");
    add("flow bind " + flow + " 1 {sim}");
    add("flow bind " + flow + " 3 {stim}");
    add("flow bind " + flow + " 4 {mod}");
    add("flow bind " + flow + " 5 {net}");
    // Tool time varies per round, so run latencies (and the lock waits they
    // impose) form a spread rather than two spikes.
    const std::string latency =
        " latency=" + std::to_string(1 + rng_.below(static_cast<std::uint64_t>(max_latency_ms_)));
    add("run " + flow + " parallel" + latency);
    // Re-running the previous round's flow with `reuse` memoizes every
    // task: the executor's reuse path, measured by exec.reuse_frac.
    if (round_ > 0 && rng_.below(4) == 0) {
      add("run f" + std::to_string(round_ - 1) + " parallel reuse" + latency);
    }
    ++round_;
  }

  Rng rng_;
  std::string user_;
  int max_latency_ms_;
  std::uint64_t round_ = 0;
  std::deque<Op> pending_;
};

class ProductQuerySource final : public OpSource {
 public:
  ProductQuerySource(std::uint64_t seed, const BaseCatalog& catalog)
      : rng_(seed), cat_(&catalog) {}

  Op next() override {
    const std::string designer = "d" + std::to_string(rng_.below(2));
    const std::uint64_t roll = rng_.below(100);
    if (roll < 35) return {"browse Performance user=" + designer + " limit=10", "", ""};
    if (roll < 60) return {"history {latest}", "", ""};
    if (roll < 75) return {"versions {latest}", "", ""};
    if (roll < 90) {
      return {"browse Stimuli keyword=" + designer + "_r limit=10", "", ""};
    }
    return {"uses i" + std::to_string(pick(rng_, cat_->imports)), "", ""};
  }

 private:
  Rng rng_;
  const BaseCatalog* cat_;
};

// ---- commit_write: imports, version re-imports, annotations, checkpoints ------

class WriterSource final : public OpSource {
 public:
  WriterSource(std::uint64_t seed, std::string user, std::size_t checkpoint_every,
               const BaseCatalog& catalog)
      : rng_(seed),
        user_(std::move(user)),
        checkpoint_every_(checkpoint_every),
        cat_(&catalog) {}

  Op next() override {
    ++ops_;
    if (checkpoint_every_ > 0 && ops_ % checkpoint_every_ == 0) {
      return {"checkpoint", "", ""};
    }
    // The write-op shares of the swarm trace's "versions" profile
    // (src/sim/trace.cpp): 45% new imports, 37% version re-imports, 18%
    // annotations.
    const std::uint64_t roll = rng_.below(100);
    if (roll < 45 || names_.empty()) {
      const std::string& type = input_types()[rng_.below(4)];
      names_.push_back({user_ + "_" + std::to_string(ops_), type});
      return import_op(names_.back());
    }
    if (roll < 82) return import_op(names_[rng_.below(names_.size())]);
    const std::uint32_t target = pick(rng_, cat_->imports);
    return {"annotate i" + std::to_string(target) + " " + pick_word(rng_) + "_" +
                std::to_string(target) + " reviewed by " + user_,
            "", ""};
  }

 private:
  struct Named {
    std::string name;
    std::string type;
  };

  Op import_op(const Named& named) {
    const std::string body =
        import_body(named.type, static_cast<std::uint32_t>(rng_.below(64)));
    return {import_line(named.type, named.name, !body.empty()), body, ""};
  }

  Rng rng_;
  std::string user_;
  std::size_t checkpoint_every_;
  const BaseCatalog* cat_;
  std::uint64_t ops_ = 0;
  std::vector<Named> names_;
};

void fnv(std::uint64_t& h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= 0xff;  // field separator
  h *= 1099511628211ull;
}

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed ^ (salt * 0xd1b54a32d192ed03ull));
  return rng.next();
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> w(3);
    w[0].name = "browse_read";
    w[0].why =
        "read path: 4 closed-loop readers run a Fig. 9 browse/history mix on a "
        "200k store; per-layer exec, tools, index, sync and checkpoint values "
        "are stand-in probes";
    w[0].base_instances = 200'000;
    for (int c = 0; c < 4; ++c) {
      w[0].clients.push_back({"reader", "r" + std::to_string(c),
                              LoopKind::kClosed, 0});
    }

    w[1].name = "design_runs";
    w[1].why =
        "run path: 2 designers' Fig. 1 simulate rounds hold the exclusive "
        "lock while 2 open-loop readers query their products; per-layer "
        "checkpoint values are stand-in probes";
    w[1].base_instances = 2'000;
    w[1].max_task_latency_ms = 4;
    w[1].clients.push_back({"designer", "d0", LoopKind::kClosed, 0});
    w[1].clients.push_back({"designer", "d1", LoopKind::kClosed, 0});
    w[1].clients.push_back({"query", "q0", LoopKind::kOpen, 100});
    w[1].clients.push_back({"query", "q1", LoopKind::kOpen, 100});

    w[2].name = "commit_write";
    w[2].why =
        "write path: 3 writers import, re-import and annotate on a 200k store "
        "with checkpoints and a follower; per-layer exec, tools and history "
        "values are stand-in probes";
    w[2].base_instances = 200'000;
    w[2].follower = true;
    w[2].checkpoint_every = 60'000;
    for (int c = 0; c < 3; ++c) {
      w[2].clients.push_back({"writer", "w" + std::to_string(c),
                              LoopKind::kClosed, 0});
    }
    return w;
  }();
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<std::string>& input_types() {
  static const std::vector<std::string> kTypes = {"Stimuli", "DeviceModels",
                                                  "EditedNetlist", "Simulator"};
  return kTypes;
}

std::string import_body(std::string_view type, std::uint32_t variant) {
  const std::string v = std::to_string(variant % 64);
  if (type == "Stimuli") {
    return "stimuli sw\nwave in 0:0 " + std::to_string(500 + 25 * (variant % 64)) +
           ":1\n";
  }
  if (type == "DeviceModels") {
    return "models standard\nmodel nch type=nmos resistance=" + v +
           " threshold=0.6\nmodel pch type=pmos resistance=20 threshold=0.6\n";
  }
  if (type == "EditedNetlist") {
    return "netlist inverter\ninput in\noutput out\n"
           "nmos mn g=in d=out s=GND model=nch value=" + std::to_string(1 + variant % 4) +
           "\npmos mp g=in d=out s=VDD model=pch value=1\n";
  }
  return "";  // tool instances (Simulator) carry no payload
}

BaseCatalog generate_base(std::uint64_t seed, std::size_t n,
                          const std::function<void(const BaseRecord&)>& fn) {
  Rng rng(derive_seed(seed, 0xba5e));
  BaseCatalog cat;
  cat.size = n;
  std::vector<std::uint32_t> models, netlists, stimuli, simulators, circuits;
  std::vector<std::vector<std::string>> names(input_types().size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    BaseRecord r;
    r.user = pick_user(rng);
    const std::uint64_t roll = rng.below(100);
    const std::string word = pick_word(rng);
    if (roll < 6 && !models.empty() && !netlists.empty()) {
      r.kind = BaseRecord::Kind::kCompose;
      r.type = "Circuit";
      r.name = word + "-" + std::to_string(i) + "-ckt";
      r.inputs = {pick(rng, models), pick(rng, netlists)};
      remember(circuits, id);
      cat.circuits.push_back(id);
    } else if (roll < 12 && !simulators.empty() && !circuits.empty() &&
               !stimuli.empty()) {
      r.kind = BaseRecord::Kind::kSimulate;
      r.type = "Performance";
      r.name = word + "-" + std::to_string(i) + "-perf";
      r.inputs = {pick(rng, simulators), pick(rng, circuits), pick(rng, stimuli)};
      cat.performances.push_back(id);
    } else {
      const std::size_t t = rng.below(input_types().size());
      r.type = input_types()[t];
      std::vector<std::string>& recent = names[t];
      // One import in five re-imports a recent name: a new version.
      if (!recent.empty() && rng.below(5) == 0) {
        r.name = recent[rng.below(recent.size())];
      } else {
        r.name = word + "-" + std::to_string(i);
        if (recent.size() < 64) {
          recent.push_back(r.name);
        } else {
          recent[i % 64] = r.name;
        }
      }
      if (rng.below(10) == 0) r.comment = std::string("rev ") + pick_word(rng);
      r.variant = static_cast<std::uint32_t>(rng.below(64));
      cat.imports.push_back(id);
      if (r.type == "Stimuli") {
        remember(stimuli, id);
        cat.stimuli.push_back(id);
      } else if (r.type == "DeviceModels") {
        remember(models, id);
      } else if (r.type == "EditedNetlist") {
        remember(netlists, id);
        cat.netlists.push_back(id);
      } else {
        remember(simulators, id);
      }
    }
    fn(r);
  }
  return cat;
}

std::unique_ptr<OpSource> make_source(const Workload& workload,
                                      std::size_t client, std::uint64_t seed,
                                      const BaseCatalog& catalog) {
  const ClientSpec& spec = workload.clients.at(client);
  const std::uint64_t s = derive_seed(seed, 0x100 + client);
  if (spec.role == "reader") return std::make_unique<BrowseSource>(s, catalog);
  if (spec.role == "designer") {
    return std::make_unique<DesignerSource>(s, spec.user,
                                            workload.max_task_latency_ms);
  }
  if (spec.role == "query") {
    return std::make_unique<ProductQuerySource>(s, catalog);
  }
  return std::make_unique<WriterSource>(
      s, spec.user, client == 0 ? workload.checkpoint_every : 0, catalog);
}

std::uint64_t stream_digest(const Workload& workload, std::uint64_t seed,
                            std::size_t ops_per_client) {
  std::uint64_t h = 14695981039346656037ull;
  const BaseCatalog catalog =
      generate_base(seed, workload.base_instances, [&h](const BaseRecord& r) {
        fnv(h, r.type);
        fnv(h, r.name);
        fnv(h, r.user);
        fnv(h, r.comment);
        fnv(h, std::to_string(r.variant));
        for (const std::uint32_t in : r.inputs) fnv(h, std::to_string(in));
      });
  for (std::size_t c = 0; c < workload.clients.size(); ++c) {
    const std::unique_ptr<OpSource> source =
        make_source(workload, c, seed, catalog);
    for (std::size_t i = 0; i < ops_per_client; ++i) {
      const Op op = source->next();
      fnv(h, op.line);
      fnv(h, op.body);
      fnv(h, op.tag);
    }
  }
  return h;
}

std::vector<std::string> browse_probe_lines(std::uint64_t seed,
                                            const BaseCatalog& catalog,
                                            std::size_t count) {
  BrowseSource source(derive_seed(seed, 0x9b0e), catalog);
  std::vector<std::string> lines;
  while (lines.size() < count) {
    Op op = source.next();
    if (op.line.rfind("browse ", 0) == 0) lines.push_back(std::move(op.line));
  }
  return lines;
}

}  // namespace perfbench
