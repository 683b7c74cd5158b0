// The serve daemon: one poll reactor per core, and the directory
// watch — hardened against hostile clients and overload.
//
// ServeDaemon binds one listening socket — TCP loopback or a Unix
// domain socket — and answers the line protocol (serve/protocol.h) on
// every connection. It runs R + 1 threads until Stop(), where R is
// std::thread::hardware_concurrency() (at least 1):
//
//   * R reactor threads each poll the shared, nonblocking listening
//     socket. The reactor whose accept succeeds owns that connection
//     until it closes, and drives it as a nonblocking state machine:
//     it reads from a peer only while it owes that peer no reply,
//     answers each complete request line on its own thread, and flushes
//     the reply before taking the next line. A peer that stops reading
//     therefore also stops being read. Handlers run on every core, and
//     an idle connection holds an fd and a small record, not a thread.
//     A `reload` request rescans on its reactor, so it pauses only the
//     peers that reactor owns, for one rescan;
//   * the watch loop calls SummaryRegistry::Rescan() every
//     `rescan_interval_ms`, which is the hot-reload path: drop a new
//     summary into the directory (WriteSummaryFile renames it into
//     place atomically) and it goes live within one interval, while
//     requests already running keep their shared_ptr snapshots.
//
// The daemon never trusts a peer to behave:
//
//   * at most `max_connections` connections are served concurrently; a
//     connection past the cap is answered "err busy" and closed (and
//     counted as shed) instead of queueing unboundedly or silently
//     vanishing, so a well-behaved client can tell overload from
//     outage and retry with backoff;
//   * every connection carries two deadlines, checked on every reactor
//     turn: a slow-loris peer (connects, never sends a newline) is cut
//     `idle_timeout_ms` after its last byte, and a stalled reader is
//     cut once a reply owed to it makes no progress for
//     `write_timeout_ms`. Stalled peers cannot pin fds, and they never
//     delay other peers: the reactor polls them instead of waiting;
//   * one connection may issue at most `max_requests_per_connection`
//     requests before it is closed, bounding the work a single peer
//     can claim without reconnecting (and re-passing the cap check).
//
// Stop() (and the destructor) tells the reactors to drain: each stops
// polling the listening socket, reads its peers once more without
// blocking, answers the complete request lines, and flushes replies up
// to `drain_timeout_ms`; peers still owed bytes then are closed hard.
// All threads are joined — no detached threads anywhere, so the daemon
// is clean under TSan and safe to start/stop repeatedly in one
// process. Every decision above is observable through counters() and
// the protocol's `stats` verb.
#ifndef LOGR_SERVE_SERVER_H_
#define LOGR_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/stats.h"
#include "serve/summary_registry.h"

namespace logr {

struct ServeOptions {
  /// Listen endpoint: "unix:PATH" for a Unix domain socket, or
  /// "tcp:HOST:PORT" / "HOST:PORT" / "PORT" for TCP (serve/endpoint.h;
  /// PORT 0 binds an ephemeral port, see ServeDaemon::endpoint()).
  std::string listen = "tcp:127.0.0.1:0";
  /// Directory watch cadence. 0 disables the watch thread entirely —
  /// reloads then only happen through the protocol's "reload" request.
  int rescan_interval_ms = 500;
  /// Concurrent-connection cap. A connection arriving with every slot
  /// taken is answered "err busy" and closed — counted as shed, never
  /// silently dropped. The cap bounds open fds and per-connection
  /// buffers; the thread count does not depend on it. Must be at least
  /// 1: Start() refuses 0.
  std::size_t max_connections = 64;
  /// Idle/read deadline: a connection that delivers no request byte
  /// for this long is answered "err idle timeout" and closed. This is
  /// the slow-loris defense. 0 disables.
  int idle_timeout_ms = 30000;
  /// Write deadline: a peer that stops reading while a reply is in
  /// flight is cut once a send makes no progress for this long. 0
  /// disables.
  int write_timeout_ms = 10000;
  /// Requests one connection may issue before it is told
  /// "err request budget exhausted" and closed. 0 means unlimited.
  std::uint64_t max_requests_per_connection = 1 << 20;
  /// Stop()/SIGTERM drain budget: request lines already received when
  /// the stop begins get this long to finish and flush their replies
  /// before remaining connections are shut down hard.
  int drain_timeout_ms = 2000;
};

class ServeDaemon {
 public:
  /// `registry` must outlive the daemon. An initial Rescan() is issued
  /// by Start(), so the daemon comes up already serving the directory.
  explicit ServeDaemon(SummaryRegistry* registry);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds, listens, and starts the reactor + watch threads. Returns
  /// false (and fills `error`) on a bad endpoint, a max_connections of
  /// 0, or a bind failure.
  bool Start(const ServeOptions& opts, std::string* error);

  /// The bound endpoint in ServeOptions::listen syntax — for TCP with
  /// port 0, the resolved ephemeral port (e.g. "tcp:127.0.0.1:41523").
  std::string endpoint() const { return endpoint_; }

  /// Stops accepting, drains in-flight requests up to the drain
  /// deadline, then joins every thread. Idempotent.
  void Stop();

  /// Live counters (accepted/active/shed/timed-out/requests) — the
  /// same ledger the protocol's `stats` verb reports.
  const ServeCounters& counters() const { return counters_; }

  /// Connections accepted so far (for tests and the daemon's shutdown
  /// log line). Shed connections are not accepted.
  std::uint64_t ConnectionsAccepted() const {
    return counters_.accepted.load();
  }

 private:
  /// One connection, owned by the reactor that accepted it.
  struct Peer;

  void ReactorLoop();
  void WatchLoop(int interval_ms);
  /// Accepts one pending connection into `peers`, or sheds it past the
  /// cap.
  void Accept(std::vector<Peer>* peers);
  /// Moves `peer` as far as it goes without blocking: flush the owed
  /// reply, answer the next complete line, read once if `readable`.
  /// While `draining`, reads until the socket is empty and closes a
  /// peer that has nothing left to answer. Returns false when the peer
  /// should be closed.
  bool Advance(Peer* peer, bool readable, bool draining);
  void Close(Peer* peer);

  SummaryRegistry* registry_;
  ProtocolHandler handler_;
  ServeOptions limits_;  ///< the options Start() ran with
  std::string endpoint_;
  std::string unix_path_;  ///< non-empty when listening on AF_UNIX
  int listen_fd_ = -1;
  std::atomic<bool> draining_{false};
  ServeCounters counters_;

  std::vector<std::thread> reactors_;
  std::thread watch_thread_;
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  std::mutex stop_mu_;  ///< serializes concurrent Stop() calls
};

}  // namespace logr

#endif  // LOGR_SERVE_SERVER_H_
