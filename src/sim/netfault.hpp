// `herc::sim::FaultProxy`: a misbehaving network in a box.
//
// A TCP forwarding proxy that sits between swarm clients (and follower
// appliers) and the server under test, injecting the failures a real
// network delivers but a loopback socket never does:
//
//   - delay:      every forwarded chunk waits a fixed latency first
//   - drop_after: each *new* connection is cut after forwarding N bytes
//                 toward the server — mid-frame, if N lands there
//   - half_close: shutdown(SHUT_WR) toward the client while still
//                 draining its requests (the asymmetric-death case)
//   - partition:  black-hole mode — established connections stall
//                 silently (nothing forwarded, no FIN, the failure
//                 detectable only by deadline), new connections are
//                 accepted and then stalled the same way; heal() closes
//                 every stalled connection so both sides finally learn
//
// Faults are set by the chaos driver between rounds and apply to traffic
// from then on; `heal()` clears them all.  `set_target` repoints the
// proxy after a leader restart picks a new port — established
// connections keep their old target (they are already dead), new ones go
// to the new.
//
// The proxy is deliberately protocol-blind: it forwards bytes, not
// frames, so a fault can land anywhere — including inside a length
// prefix — which is exactly what the server's deadline reads and the
// client's token replay are supposed to survive.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "server/socket.hpp"

namespace herc::sim {

class FaultProxy {
 public:
  /// Binds a listener on 127.0.0.1:<ephemeral> forwarding to `target`.
  /// Starts the accept thread immediately.
  explicit FaultProxy(server::Endpoint target);
  ~FaultProxy();

  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  /// Where clients connect instead of the real server.
  [[nodiscard]] const server::Endpoint& endpoint() const { return front_; }
  [[nodiscard]] server::Endpoint target() const;

  /// Repoints new connections (after a server restart rebinds).
  void set_target(server::Endpoint target);

  // ---- fault controls (each applies until heal) ------------------------------

  /// Adds `ms` of latency before each forwarded chunk (both directions).
  void set_delay_ms(int ms) { delay_ms_.store(ms); }
  /// Cuts every connection — live ones after `bytes` *further* bytes
  /// toward the server, new ones after `bytes` total (0 disables).  The
  /// cut is byte-positioned, not frame-positioned: it can land inside a
  /// length prefix.
  void set_drop_after(std::uint64_t bytes);
  /// Half-closes the server→client direction of every *live* connection:
  /// replies stop mid-stream, requests still flow.
  void half_close_live();
  /// Black-holes everything: live and new connections stall silently.
  void partition() { partitioned_.store(true); }

  /// Clears every fault and closes connections stalled by the partition
  /// or orphaned by half-close (their peers finally see EOF).
  void heal();

  // ---- observers -------------------------------------------------------------

  [[nodiscard]] std::uint64_t connections_proxied() const {
    return accepted_.load();
  }
  [[nodiscard]] std::uint64_t connections_cut() const { return cut_.load(); }

 private:
  struct Link;

  void accept_loop();
  void pump(Link& link, bool toward_server);
  void reap_finished();
  void close_all_links();

  server::Socket listener_;
  server::Endpoint front_;
  mutable std::mutex target_mutex_;
  server::Endpoint target_;

  std::atomic<int> delay_ms_{0};
  std::atomic<std::uint64_t> drop_after_{0};
  std::atomic<bool> partitioned_{false};

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> cut_{0};

  std::thread accept_thread_;
  mutable std::mutex links_mutex_;
  std::list<std::unique_ptr<Link>> links_;
};

}  // namespace herc::sim
