// Server benchmark: wire round-trip latency, query throughput as clients
// scale, pipelining gain, and mixed read/write throughput under the
// reader-writer lock.  Emits machine-readable results to
// BENCH_server.json in the working directory (EXPERIMENTS S10).
//
// The headline claims: pipelining amortizes the round trip, and queries
// take the session lock shared, so the lock never serializes them.  Each
// command is read, executed and answered (one send) on its connection's
// one thread, so the per-command cost is the socket round trip plus the
// command itself.  Medians of 8 runs on a 4-vCPU shared VM
// (RelWithDebInfo): round trip 28 us, pipelined 7.5 us/command, and
// queries/s 30k at 1 client, 50k at 2, 126k at 4 and 120k at 8 — more
// clients help until the cores are busy.  Single runs spread widely
// (1-client 25k-52k), so compare medians of several runs, never one.
//
// Methodology: every timed section runs over connections that were
// established and warmed (one round-trip) *before* the clock starts —
// connect cost and first-command cold paths are setup, not service time —
// and multi-client sections release all clients through a barrier so the
// measured window is pure steady state.  Latency is reported as p50/p95/
// p99 from a `LatencyHistogram`, not just the mean: tail latency is what
// a designer at a busy server actually feels.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/latency.hpp"
#include "server/resilient.hpp"
#include "server/server.hpp"

namespace {

using namespace herc;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Releases all worker threads at once so the timed window starts with
/// every connection warm and every thread running.
class StartGate {
 public:
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }
  void open() {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  bool open_ = false;
};

/// `ops` synchronous `entities` round-trips per client, `clients` clients,
/// connections warmed before the clock starts; returns aggregate queries
/// per second and records per-op latency into `latency`.
double query_throughput(const server::Endpoint& endpoint, int clients,
                        int ops, std::atomic<int>& errors,
                        server::LatencyHistogram& latency) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  StartGate gate;
  Clock::time_point start{};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      server::Client client = server::Client::connect(endpoint);
      if (!client.call("entities").ok()) ++errors;  // warm, untimed
      gate.arrive_and_wait();
      for (int i = 0; i < ops; ++i) {
        const auto t0 = Clock::now();
        if (!client.call("entities").ok()) ++errors;
        latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count()));
      }
      client.close();
    });
  }
  gate.wait_for(static_cast<std::size_t>(clients));
  start = Clock::now();
  gate.open();
  for (std::thread& t : threads) t.join();
  const double elapsed = ms_since(start);
  return clients * ops / elapsed * 1000.0;
}

}  // namespace

int main() {
  core::DesignSession session(schema::make_full_schema());
  server::Server server(session);
  const server::Endpoint endpoint =
      server.add_listener(server::Endpoint::parse("127.0.0.1:0"));
  server.start();

  constexpr int kOps = 400;
  constexpr int kPipelined = 2000;
  std::atomic<int> errors{0};

  // Round-trip latency, one quiet warmed client.
  double round_trip_us = 0;
  server::LatencyHistogram round_trip_hist;
  {
    server::Client client = server::Client::connect(endpoint);
    for (int i = 0; i < 50; ++i) (void)client.call("echo warm");
    const auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      const auto t0 = Clock::now();
      if (!client.call("echo x").ok()) ++errors;
      round_trip_hist.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count()));
    }
    round_trip_us = ms_since(start) * 1000.0 / kOps;
    client.close();
  }

  // Same command stream, pipelined: send everything, then drain.  The
  // connection is already warm from a throwaway round-trip.
  double pipelined_us = 0;
  {
    server::Client client = server::Client::connect(endpoint);
    if (!client.call("echo warm").ok()) ++errors;
    const auto start = Clock::now();
    for (int i = 0; i < kPipelined; ++i) client.send("echo x");
    for (int i = 0; i < kPipelined; ++i) {
      if (!client.receive().ok()) ++errors;
    }
    pipelined_us = ms_since(start) * 1000.0 / kPipelined;
    client.close();
  }

  // Query throughput as clients scale (shared lock: should not collapse).
  const std::vector<int> kClientCounts = {1, 2, 4, 8};
  std::vector<double> qps;
  qps.reserve(kClientCounts.size());
  server::LatencyHistogram query_hist;  // the 8-client run's tails
  for (const int clients : kClientCounts) {
    server::LatencyHistogram scratch;
    server::LatencyHistogram& hist = clients == 8 ? query_hist : scratch;
    qps.push_back(query_throughput(endpoint, clients, kOps, errors, hist));
  }

  // Mixed load: 8 clients, one import (exclusive lock) per 4 queries,
  // connections warmed and gate-released like the query runs.
  double mixed_ops_per_s = 0;
  server::LatencyHistogram mixed_hist;
  {
    constexpr int kClients = 8;
    constexpr int kMixedOps = 200;
    std::vector<std::thread> threads;
    StartGate gate;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        server::Client client = server::Client::connect(endpoint);
        if (!client.call("entities").ok()) ++errors;  // warm, untimed
        gate.arrive_and_wait();
        for (int i = 0; i < kMixedOps; ++i) {
          const bool write = i % 4 == 0;
          const auto t0 = Clock::now();
          const server::CallResult result =
              write ? client.call("import Stimuli m" + std::to_string(c) +
                                      "_" + std::to_string(i),
                                  "stimuli m\nwave in 0:0 100:1\n")
                    : client.call("entities");
          mixed_hist.record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - t0)
                  .count()));
          if (!result.ok()) ++errors;
        }
        client.close();
      });
    }
    gate.wait_for(kClients);
    const auto start = Clock::now();
    gate.open();
    for (std::thread& t : threads) t.join();
    mixed_ops_per_s = kClients * kMixedOps / ms_since(start) * 1000.0;
  }

  // Idempotency-token overhead: the same warmed synchronous stream as the
  // round-trip section, but through a ResilientClient so every command
  // wears a token the server must parse and (for writes) dedup-track.
  // The delta against `round_trip_us` is the price of exactly-once.
  double tokened_us = 0;
  {
    server::ResilientClient client(endpoint);
    for (int i = 0; i < 50; ++i) (void)client.call("echo warm");
    const auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      if (!client.call("echo x").ok()) ++errors;
    }
    tokened_us = ms_since(start) * 1000.0 / kOps;
    client.close();
  }

  // The cached-reply path: one applied mutation, then the same token
  // replayed over and over — every reply comes from the dedup window,
  // not the interpreter.  This is what a retry after a torn connection
  // costs the server.
  double replay_us = 0;
  {
    server::Client client = server::Client::connect(endpoint);
    client.send_token("bench-replayer", 1, "import Stimuli replay_probe",
                      "stimuli r\nwave in 0:0 100:1\n");
    if (!client.receive().ok()) ++errors;
    const auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      client.send_token("bench-replayer", 1, "import Stimuli replay_probe",
                        "stimuli r\nwave in 0:0 100:1\n");
      if (!client.receive().ok()) ++errors;
    }
    replay_us = ms_since(start) * 1000.0 / kOps;
    client.close();
  }

  // Reconnect storm: every operation pays a full connect + hello + token
  // on a fresh connection — the worst case of a flapping network where
  // clients reconnect for every command.  Throughput here bounds how
  // fast a resilient fleet can recover after a partition heals.
  double storm_conn_per_s = 0;
  server::LatencyHistogram storm_hist;
  {
    constexpr int kStormClients = 8;
    constexpr int kCycles = 50;
    std::vector<std::thread> threads;
    StartGate gate;
    for (int c = 0; c < kStormClients; ++c) {
      threads.emplace_back([&, c] {
        gate.arrive_and_wait();
        for (int i = 0; i < kCycles; ++i) {
          const auto t0 = Clock::now();
          server::ResilientOptions options;
          options.client_id =
              "storm" + std::to_string(c) + "_" + std::to_string(i);
          server::ResilientClient client(endpoint, options);
          if (!client.call("echo x").ok()) ++errors;
          client.close();
          storm_hist.record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - t0)
                  .count()));
        }
      });
    }
    gate.wait_for(kStormClients);
    const auto start = Clock::now();
    gate.open();
    for (std::thread& t : threads) t.join();
    storm_conn_per_s = kStormClients * kCycles / ms_since(start) * 1000.0;
  }

  server.stop();
  if (errors.load() != 0) {
    std::fprintf(stderr, "bench_server: %d command(s) failed\n",
                 errors.load());
    return 1;
  }

  std::ofstream json("BENCH_server.json", std::ios::trunc);
  json << "{\n"
       << "  \"round_trip_us\": " << round_trip_us << ",\n"
       << "  \"round_trip_p50_us\": " << round_trip_hist.percentile(0.50)
       << ",\n"
       << "  \"round_trip_p95_us\": " << round_trip_hist.percentile(0.95)
       << ",\n"
       << "  \"round_trip_p99_us\": " << round_trip_hist.percentile(0.99)
       << ",\n"
       << "  \"pipelined_us_per_cmd\": " << pipelined_us << ",\n"
       << "  \"pipelining_speedup\": " << round_trip_us / pipelined_us
       << ",\n";
  for (std::size_t i = 0; i < kClientCounts.size(); ++i) {
    json << "  \"query_qps_" << kClientCounts[i] << "_clients\": " << qps[i]
         << ",\n";
  }
  json << "  \"query_p50_us_8_clients\": " << query_hist.percentile(0.50)
       << ",\n"
       << "  \"query_p95_us_8_clients\": " << query_hist.percentile(0.95)
       << ",\n"
       << "  \"query_p99_us_8_clients\": " << query_hist.percentile(0.99)
       << ",\n"
       << "  \"mixed_rw_ops_per_s_8_clients\": " << mixed_ops_per_s << ",\n"
       << "  \"mixed_p95_us_8_clients\": " << mixed_hist.percentile(0.95)
       << ",\n"
       << "  \"tokened_round_trip_us\": " << tokened_us << ",\n"
       << "  \"token_overhead_us\": " << tokened_us - round_trip_us << ",\n"
       << "  \"dedup_replay_us\": " << replay_us << ",\n"
       << "  \"reconnect_storm_conn_per_s\": " << storm_conn_per_s << ",\n"
       << "  \"reconnect_storm_p95_us\": " << storm_hist.percentile(0.95)
       << "\n"
       << "}\n";
  json.close();

  std::printf(
      "bench_server: round-trip %.1fus (p95 %lluus, p99 %lluus), "
      "pipelined %.1fus/cmd\n",
      round_trip_us,
      static_cast<unsigned long long>(round_trip_hist.percentile(0.95)),
      static_cast<unsigned long long>(round_trip_hist.percentile(0.99)),
      pipelined_us);
  for (std::size_t i = 0; i < kClientCounts.size(); ++i) {
    std::printf("  %d client(s): %.0f queries/s\n", kClientCounts[i], qps[i]);
  }
  std::printf("  8-client query p50/p95/p99: %llu/%llu/%lluus\n",
              static_cast<unsigned long long>(query_hist.percentile(0.50)),
              static_cast<unsigned long long>(query_hist.percentile(0.95)),
              static_cast<unsigned long long>(query_hist.percentile(0.99)));
  std::printf("  mixed 8 clients: %.0f ops/s (p95 %lluus)\n", mixed_ops_per_s,
              static_cast<unsigned long long>(mixed_hist.percentile(0.95)));
  std::printf(
      "  tokened %.1fus/cmd (+%.1fus), dedup replay %.1fus, "
      "reconnect storm %.0f conn/s (p95 %lluus)\n",
      tokened_us, tokened_us - round_trip_us, replay_us, storm_conn_per_s,
      static_cast<unsigned long long>(storm_hist.percentile(0.95)));
  return 0;
}
