// The server under concurrent load: many clients mixing queries and
// mutations, pipelined replies in order, shared-session refusals, and
// graceful shutdown mid-run leaving a resumable, fsck-clean store.
//
// Runs under the thread-sanitizer CI job: the reader-writer lock around
// the shared DesignSession is the contract being checked.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "circuit/library.hpp"
#include "circuit/models.hpp"
#include "core/session.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "storage/fsck.hpp"
#include "support/error.hpp"

namespace herc::server {
namespace {

namespace fs = std::filesystem;

/// A served in-memory session bound to an ephemeral localhost port.
struct ServedSession {
  core::DesignSession session{schema::make_full_schema()};
  Server server{session};
  Endpoint bound;

  ServedSession() {
    bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();
  }
};

/// Imports the four Fig. 1 inputs and builds the simulate flow `f` in the
/// client's workspace; returns the number of failed commands.  `first` is
/// the instance id the first import gets (the session's size before).
int build_simulate_flow(Client& client, unsigned first = 0) {
  int failures = 0;
  const auto run = [&](std::string_view line, std::string_view body = "") {
    if (!client.call(line, body).ok()) ++failures;
  };
  const auto inst = [&](unsigned k) { return " i" + std::to_string(first + k); };
  run("import EditedNetlist inv", circuit::inverter_netlist().to_text());
  run("import DeviceModels std",
      circuit::DeviceModelLibrary::standard().to_text());
  run("import Stimuli walk", "stimuli walk\nwave in 0:0 1000:1 2000:0\n");
  run("import Simulator sim \"\"");
  run("flow new f goal Performance");
  run("flow expand f 0");
  run("flow expand f 2");
  run("flow bind f 1" + inst(3));
  run("flow bind f 3" + inst(2));
  run("flow bind f 4" + inst(1));
  run("flow bind f 5" + inst(0));
  return failures;
}

using Clock = std::chrono::steady_clock;

long long millis_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

TEST(ServerStressTest, ManyClientsMixQueriesAndMutations) {
  ServedSession served;
  constexpr int kClients = 8;
  constexpr int kRounds = 24;
  std::atomic<int> errors{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = Client::connect(served.bound);
      if (!client.call("session user user" + std::to_string(c)).ok()) {
        ++errors;
      }
      for (int i = 0; i < kRounds; ++i) {
        CallResult result;
        if (i % 3 == 0) {
          // A mutation: imports serialize through the exclusive lock and
          // the shared history db.
          result = client.call(
              "import Stimuli s" + std::to_string(c) + "_" +
                  std::to_string(i),
              "stimuli s\nwave in 0:0 100:1\n");
        } else if (i % 3 == 1) {
          // A query under the shared lock.
          result = client.call("entities");
        } else {
          // Flow building stays in this connection's private workspace.
          result = client.call(i == 2 ? "flow new w" + std::to_string(c) +
                                            " goal Performance"
                                      : "plans");
        }
        if (!result.ok()) ++errors;
      }
      client.close();
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(errors.load(), 0);
  const ServerStats& stats = served.server.stats();
  EXPECT_EQ(stats.connections_accepted.load(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.command_errors.load(), 0u);
  // Every import from every client landed: one instance per mutation round.
  int imports = 0;
  for (int i = 0; i < kRounds; ++i) {
    if (i % 3 == 0) imports += kClients;
  }
  Client checker = Client::connect(served.bound);
  const CallResult browse = checker.call("browse Stimuli");
  EXPECT_TRUE(browse.ok());
  // One browser row per import, plus the banner and column-header lines.
  const long rows =
      std::count(browse.output.begin(), browse.output.end(), '\n') - 2;
  EXPECT_EQ(rows, imports);
  checker.close();
  served.server.stop();
}

TEST(ServerStressTest, PipelinedRepliesArriveStrictlyInOrder) {
  ServedSession served;
  Client client = Client::connect(served.bound);
  constexpr int kDepth = 64;  // all in flight before the first reply is read
  for (int i = 0; i < kDepth; ++i) {
    client.send("echo msg-" + std::to_string(i));
  }
  for (int i = 0; i < kDepth; ++i) {
    const CallResult result = client.receive();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.output, "msg-" + std::to_string(i) + "\n");
  }
  client.close();
  served.server.stop();
}

/// Threads in this process (entries of /proc/self/task).
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ServerStressTest, CommandConnectionCostsOneThread) {
  ServedSession served;
  // Warm the accept path once so lazily started threads are counted in
  // the baseline, not against the connections.
  {
    Client warm = Client::connect(served.bound);
    ASSERT_TRUE(warm.call("entities").ok());
    warm.close();
  }
  const auto settle = Clock::now();
  while (served.server.stats().connections_active.load() != 0 &&
         millis_since(settle) < 5'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::size_t before = process_threads();

  constexpr std::size_t kClients = 8;
  std::vector<Client> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(Client::connect(served.bound));
    ASSERT_TRUE(clients.back().call("entities").ok());
  }
  // Warmed and idle: each connection holds exactly its one thread.
  EXPECT_LE(process_threads(), before + kClients);
  for (Client& c : clients) c.close();
  served.server.stop();
}

TEST(ServerStressTest, StatsReportLockWaitAndSendStages) {
  ServedSession served;
  Client client = Client::connect(served.bound);
  ASSERT_TRUE(client.call("entities").ok());
  ASSERT_TRUE(client.call("import Stimuli s", "stimuli s\nwave in 0:0\n").ok());
  const CallResult json = client.call("stats --json");
  ASSERT_TRUE(json.ok());
  // Both commands waited for their lock and had their replies sent before
  // `stats` ran on the same connection.
  const auto count_of = [&](const std::string& key) {
    const std::size_t at = json.output.find("\"" + key + "\":{\"p50\":");
    if (at == std::string::npos) return std::string("missing");
    const std::size_t count = json.output.find("\"count\":", at) + 8;
    return json.output.substr(count, json.output.find('}', count) - count);
  };
  EXPECT_EQ(count_of("lock_wait_us"), "2") << json.output;
  EXPECT_EQ(count_of("send_us"), "2") << json.output;
  const CallResult text = client.call("stats");
  EXPECT_NE(text.output.find("lock wait: p50 "), std::string::npos)
      << text.output;
  EXPECT_NE(text.output.find("send: p50 "), std::string::npos) << text.output;
  client.close();
  served.server.stop();
}

TEST(ServerStressTest, SessionScopedCommandsAreRefusedOnTheSharedSession) {
  ServedSession served;
  Client client = Client::connect(served.bound);
  for (const char* line :
       {"session new full", "session load x", "open /tmp/elsewhere",
        "store close"}) {
    const CallResult result = client.call(line);
    EXPECT_FALSE(result.ok()) << line;
    EXPECT_NE(result.error.find("shared session"), std::string::npos)
        << line << " -> " << result.error;
  }
  // The connection survives a refusal and keeps serving.
  EXPECT_TRUE(client.call("entities").ok());
  client.close();
  served.server.stop();
}

TEST(ServerStressTest, PerConnectionUserIsStampedOnProducts) {
  ServedSession served;
  Client alice = Client::connect(served.bound);
  ASSERT_TRUE(alice.call("session user alice").ok());
  ASSERT_EQ(build_simulate_flow(alice), 0);
  ASSERT_TRUE(alice.call("run f").ok());
  const CallResult browse = alice.call("browse Performance");
  EXPECT_TRUE(browse.ok());
  EXPECT_NE(browse.output.find("alice"), std::string::npos) << browse.output;

  // A second connection has its own identity and its own workspace.
  Client bob = Client::connect(served.bound);
  ASSERT_TRUE(bob.call("session user bob").ok());
  const CallResult result = bob.call("run f");
  EXPECT_FALSE(result.ok());  // alice's flow workspace is not bob's
  bob.close();

  const CallResult stats = alice.call("stats");
  EXPECT_TRUE(stats.ok());
  EXPECT_NE(stats.output.find("user 'alice'"), std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("connection"), std::string::npos);
  alice.close();
  served.server.stop();
}

TEST(ServerStressTest, StopMidRunLeavesAResumableFsckCleanStore) {
  const std::string dir =
      (fs::temp_directory_path() / "herc_server_stress_store").string();
  fs::remove_all(dir);
  {
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    Server server(session);
    const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();

    Client client = Client::connect(bound);
    ASSERT_EQ(build_simulate_flow(client), 0);
    // Pipelined: don't wait for the reply — the run must still be in
    // flight when stop() lands.  Two chained task groups at 500ms each
    // leave a wide window.
    client.send("run f parallel latency=500");
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.stop();
    client.close();
    session.close_storage();
  }

  const storage::FsckReport report = storage::fsck_store(dir);
  EXPECT_EQ(report.exit_code(), 0) << report.render();
  EXPECT_TRUE(report.has("resumable-run")) << report.render();

  // A fresh session picks the sealed run back up and finishes it.
  core::DesignSession session(schema::make_full_schema());
  const storage::RecoveryReport recovery = session.open_storage(dir);
  EXPECT_EQ(recovery.interrupted_runs, 1u);
  const auto open = session.db().open_runs();
  ASSERT_EQ(open.size(), 1u);
  const exec::ExecResult result = session.resume_run(open.front()->id);
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(session.db().open_runs().empty());
  session.close_storage();

  const storage::FsckReport after = storage::fsck_store(dir);
  EXPECT_EQ(after.exit_code(), 0) << after.render();
  fs::remove_all(dir);
}

// ---- stop() edge cases ------------------------------------------------------
//
// The two nastiest shutdown windows: a client mid-pipeline (replies and
// refusals must stay strictly ordered, with no ok after the first
// refusal), and a client whose pipelined commands back up in the kernel
// socket buffer behind a slow run (its send is blocked on backpressure
// when the stop lands).  Both run under the TSan CI job, so a leaked
// connection thread or a lock order mistake in `stop()` fails the suite,
// not just this process's exit code.

TEST(ServerStressTest, StopMidPipelineDrainsOrRefusesInOrder) {
  core::DesignSession session(schema::make_full_schema());
  ServeOptions options;
  Server server(session, options);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();

  constexpr int kCommands = 200;
  Client client = Client::connect(bound);
  // Sends run in a second thread: once the socket buffers fill, the
  // client's send blocks and must not deadlock the test.
  std::thread sender([&] {
    try {
      for (int i = 0; i < kCommands; ++i) {
        client.send("echo " + std::to_string(i));
      }
    } catch (const support::NetError&) {
      // Connection torn by stop() mid-send: expected.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread stopper([&] { server.stop(); });

  int acked = 0;
  int refused = 0;
  bool out_of_order = false;
  try {
    for (int i = 0; i < kCommands; ++i) {
      const CallResult result = client.receive();
      if (result.ok()) {
        // Replies must arrive strictly in order, and an ok after the
        // first refusal would mean a command overtook the shutdown.
        if (refused > 0 || result.output != std::to_string(acked) + "\n") {
          out_of_order = true;
        }
        ++acked;
      } else {
        EXPECT_NE(result.error.find("shutting down"), std::string::npos)
            << result.error;
        ++refused;
      }
    }
  } catch (const support::NetError&) {
    // Remaining commands never reached the server: the torn connection
    // accounts for them.
  }
  stopper.join();
  sender.join();
  client.close();

  EXPECT_FALSE(out_of_order);
  EXPECT_LE(acked + refused, kCommands);
  EXPECT_FALSE(server.running());
  // The session survives the shutdown intact and is servable again.
  Server second(session);
  const Endpoint again = second.add_listener(Endpoint::parse("127.0.0.1:0"));
  second.start();
  Client probe = Client::connect(again);
  EXPECT_TRUE(probe.call("entities").ok());
  probe.close();
  second.stop();
}

TEST(ServerStressTest, StopWithFullQueueSealsAResumableStore) {
  const std::string dir =
      (fs::temp_directory_path() / "herc_server_stop_full_queue").string();
  fs::remove_all(dir);
  bool resumable = false;
  {
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    ServeOptions options;
    Server server(session, options);
    const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();

    Client client = Client::connect(bound);
    ASSERT_EQ(build_simulate_flow(client), 0);
    // A slow run plus a flood behind it: the connection thread is busy in
    // the run, the flood waits unread in the kernel socket buffer —
    // exactly the state stop() must unwind without losing the store.
    std::thread sender([&] {
      try {
        client.send("run f latency=400");
        for (int i = 0; i < 64; ++i) client.send("entities");
      } catch (const support::NetError&) {
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    server.stop();
    sender.join();

    // Whatever drained must still be well-formed: the run either finished
    // or was cancelled; everything refused says so cleanly.
    try {
      const CallResult run_result = client.receive();
      if (!run_result.ok()) {
        EXPECT_TRUE(
            run_result.error.find("cancelled") != std::string::npos ||
            run_result.error.find("shutting down") != std::string::npos)
            << run_result.error;
      }
      for (int i = 0; i < 64; ++i) {
        const CallResult result = client.receive();
        if (!result.ok()) {
          EXPECT_NE(result.error.find("shutting down"), std::string::npos)
              << result.error;
        }
      }
    } catch (const support::NetError&) {
      // Torn before every reply: fine, the store checks below are the
      // real contract.
    }
    client.close();
    resumable = !session.db().open_runs().empty();
    session.close_storage();
  }

  // The store is fsck-clean; if the run was cut mid-flight it is sealed
  // resumable and a fresh session finishes it.
  const storage::FsckReport report = storage::fsck_store(dir);
  EXPECT_EQ(report.exit_code(), 0) << report.render();
  if (resumable) {
    EXPECT_TRUE(report.has("resumable-run")) << report.render();
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    const auto open = session.db().open_runs();
    ASSERT_EQ(open.size(), 1u);
    const exec::ExecResult result = session.resume_run(open.front()->id);
    EXPECT_TRUE(result.complete());
    EXPECT_TRUE(session.db().open_runs().empty());
    session.close_storage();
    const storage::FsckReport after = storage::fsck_store(dir);
    EXPECT_EQ(after.exit_code(), 0) << after.render();
  }
  fs::remove_all(dir);
}

// ---- half-open and dying clients --------------------------------------------
//
// A client that dies mid-frame (or goes silent holding a connection)
// must cost the server one reaped connection, not a wedged worker: the
// deadline reads in the reader loop are the contract.

TEST(ServerStressTest, MidFrameClientDeathDoesNotWedgeTheServer) {
  ServedSession served;
  // A frame header promising 4096 bytes, followed by a fraction of them
  // and an abrupt close: the reader is mid-frame when the peer vanishes.
  std::string torn;
  torn.push_back(static_cast<char>(0x00));
  torn.push_back(static_cast<char>(0x10));
  torn.push_back(static_cast<char>(0x00));
  torn.push_back(static_cast<char>(0x00));
  torn.push_back(static_cast<char>(FrameType::kCommand));
  torn += std::string(64, 'x');
  {
    Socket dying = connect_to(served.bound, 2'000);
    Frame hello;
    ASSERT_TRUE(read_frame(dying.fd(), hello));
    ASSERT_EQ(::send(dying.fd(), torn.data(), torn.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(torn.size()));
    dying.close();
  }
  // The server sheds the torn connection and keeps serving new ones with
  // replies intact and in order.
  Client survivor = Client::connect(served.bound);
  for (int i = 0; i < 8; ++i) {
    const CallResult result = survivor.call("echo after-" + std::to_string(i));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output, "after-" + std::to_string(i) + "\n");
  }
  survivor.close();
  served.server.stop();
}

TEST(ServerStressTest, MidFrameStallIsReapedByTheFrameDeadline) {
  core::DesignSession session(schema::make_full_schema());
  ServeOptions options;
  options.frame_timeout_ms = 150;
  Server server(session, options);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();

  // Half-open: the frame starts, then the peer goes silent WITHOUT
  // closing — only the frame deadline can unpin the reader.
  Socket stalled = connect_to(bound, 2'000);
  Frame hello;
  ASSERT_TRUE(read_frame(stalled.fd(), hello));
  const char header[5] = {0x00, 0x04, 0x00, 0x00,
                          static_cast<char>(FrameType::kCommand)};
  ASSERT_EQ(::send(stalled.fd(), header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server.stats().connections_reaped.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().connections_reaped.load(), 1u);
  stalled.close();

  Client survivor = Client::connect(bound);
  EXPECT_TRUE(survivor.call("entities").ok());
  survivor.close();
  server.stop();
}

TEST(ServerStressTest, IdleConnectionsAreReapedAndNewOnesStillServed) {
  core::DesignSession session(schema::make_full_schema());
  ServeOptions options;
  options.idle_timeout_ms = 120;
  Server server(session, options);
  const Endpoint bound = server.add_listener(Endpoint::parse("127.0.0.1:0"));
  server.start();

  Client idler = Client::connect(bound);
  ASSERT_TRUE(idler.call("entities").ok());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server.stats().connections_reaped.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().connections_reaped.load(), 1u);
  // The reaped socket is dead from the client's side...
  EXPECT_THROW((void)idler.call("entities"), support::NetError);
  idler.close();
  // ...and an active client is never reaped while it keeps talking.
  Client active = Client::connect(bound);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(active.call("entities").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  active.close();
  server.stop();
}

// ---- runs outside the session lock ------------------------------------------
//
// A `run` holds no session lock while its tools execute: reads, imports and
// other connections' runs proceed beside it, while the writes that must not
// overlap a run wait at the run gate without being starved.

TEST(ServerStressTest, ReadsAndImportsCompleteWhileARunExecutes) {
  ServedSession served;
  Client designer = Client::connect(served.bound);
  ASSERT_EQ(build_simulate_flow(designer), 0);
  Client other = Client::connect(served.bound);

  const Clock::time_point sent = Clock::now();
  designer.send("run f latency=300");  // two serial tasks: ~600 ms of tools
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (const std::string line :
       {"browse Stimuli", "entities", "import Stimuli beside \"\""}) {
    const Clock::time_point start = Clock::now();
    const CallResult result = other.call(line);
    EXPECT_TRUE(result.ok()) << line << ": " << result.error;
    EXPECT_LT(millis_since(start), 100) << line << " waited behind the run";
  }
  const long long others_done = millis_since(sent);
  const CallResult run = designer.receive();
  EXPECT_TRUE(run.ok()) << run.error;
  EXPECT_LT(others_done, millis_since(sent))
      << "the run replied before the commands issued beside it";
  EXPECT_GE(millis_since(sent), 600);
  other.close();
  designer.close();
  served.server.stop();
}

TEST(ServerStressTest, RunsFromTwoConnectionsOverlap) {
  ServedSession served;
  Client a = Client::connect(served.bound);
  ASSERT_EQ(build_simulate_flow(a, 0), 0);
  Client b = Client::connect(served.bound);
  ASSERT_TRUE(b.call("session user bob").ok());
  ASSERT_EQ(build_simulate_flow(b, 4), 0);

  const Clock::time_point start = Clock::now();
  a.send("run f latency=200");  // ~400 ms each; 800 ms if serialized
  b.send("run f latency=200");
  const CallResult ra = a.receive();
  const CallResult rb = b.receive();
  const long long wall = millis_since(start);
  EXPECT_TRUE(ra.ok()) << ra.error;
  EXPECT_TRUE(rb.ok()) << rb.error;
  EXPECT_GE(wall, 400);
  EXPECT_LT(wall, 650) << "the two runs did not overlap";

  // Each run stamped its own connection's user, and fsck-level state is
  // whole: two closed runs, two Performances.
  const CallResult runs = a.call("runs");
  EXPECT_NE(runs.output.find("by designer: complete"), std::string::npos)
      << runs.output;
  EXPECT_NE(runs.output.find("by bob: complete"), std::string::npos)
      << runs.output;
  const CallResult perf = a.call("browse Performance");
  EXPECT_NE(perf.output.find("bob"), std::string::npos) << perf.output;
  a.close();
  b.close();
  served.server.stop();
}

TEST(ServerStressTest, CheckpointWaitsForInFlightRunsWithoutStarving) {
  const std::string dir =
      (fs::temp_directory_path() / "herc_server_checkpoint_gate").string();
  fs::remove_all(dir);
  {
    core::DesignSession session(schema::make_full_schema());
    session.open_storage(dir);
    Server server(session);
    const Endpoint bound =
        server.add_listener(Endpoint::parse("127.0.0.1:0"));
    server.start();

    // Three designers loop staggered, overlapping runs, so some run is
    // always in flight: a reader-preferring gate would never let the
    // checkpoint in while they loop (they give up after three seconds).
    constexpr int kDesigners = 3;
    std::atomic<bool> stop{false};
    std::atomic<int> runs_done{0};
    std::atomic<int> errors{0};
    std::vector<Client> clients;
    for (int d = 0; d < kDesigners; ++d) {
      clients.push_back(Client::connect(bound));
      ASSERT_EQ(build_simulate_flow(clients.back(), 4 * d), 0);
    }
    const Clock::time_point loop_start = Clock::now();
    std::vector<std::thread> designers;
    for (int d = 0; d < kDesigners; ++d) {
      designers.emplace_back([&, d] {
        std::this_thread::sleep_for(std::chrono::milliseconds(25 * d));
        while (!stop.load() && millis_since(loop_start) < 3000) {
          if (clients[d].call("run f latency=40").ok()) {
            ++runs_done;
          } else {
            ++errors;
          }
        }
      });
    }
    while (runs_done.load() < kDesigners) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Client admin = Client::connect(bound);
    const Clock::time_point start = Clock::now();
    const CallResult checkpoint = admin.call("checkpoint");
    const long long waited = millis_since(start);
    const bool designers_still_running = millis_since(loop_start) < 3000;
    stop.store(true);
    for (std::thread& t : designers) t.join();

    EXPECT_TRUE(checkpoint.ok()) << checkpoint.error;
    EXPECT_TRUE(designers_still_running);
    // It waits for the runs in flight (~80 ms each), never for the stream.
    EXPECT_LT(waited, 1000) << "the checkpoint starved behind the runs";
    EXPECT_EQ(errors.load(), 0);
    for (Client& c : clients) c.close();
    admin.close();
    server.stop();
    session.close_storage();
  }
  const storage::FsckReport report = storage::fsck_store(dir);
  EXPECT_EQ(report.exit_code(), 0) << report.render();
  fs::remove_all(dir);
}

TEST(ServerStressTest, RunStaysAWriteForRefusalAndDedup) {
  {
    core::DesignSession session(schema::make_full_schema());
    ServeOptions options;
    options.read_only = true;
    Server replica(session, options);
    const Endpoint bound =
        replica.add_listener(Endpoint::parse("127.0.0.1:0"));
    replica.start();
    Client client = Client::connect(bound);
    const CallResult result = client.call("run f");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("read-only replica"), std::string::npos)
        << result.error;
    client.close();
    replica.stop();
  }

  // A tokened run retried while the original is still executing, and once
  // more after it replied, applies exactly once.
  ServedSession served;
  Client client = Client::connect(served.bound);
  ASSERT_EQ(build_simulate_flow(client), 0);
  client.send_token("designer-1", 1, "run f latency=100");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Client retry = Client::connect(served.bound);
  retry.send_token("designer-1", 1, "run f latency=100");
  const CallResult original = client.receive();
  const CallResult raced = retry.receive();
  ASSERT_TRUE(original.ok()) << original.error;
  EXPECT_TRUE(raced.ok()) << raced.error;
  EXPECT_EQ(raced.output, original.output);
  retry.send_token("designer-1", 1, "run f latency=100");
  const CallResult late = retry.receive();
  EXPECT_EQ(late.output, original.output);

  const CallResult runs = client.call("runs");
  EXPECT_EQ(std::count(runs.output.begin(), runs.output.end(), '\n'), 1)
      << runs.output;
  EXPECT_GE(served.server.stats().replays_served.load(), 2u);
  retry.close();
  client.close();
  served.server.stop();
}

}  // namespace
}  // namespace herc::server
