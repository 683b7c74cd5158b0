// Load generation against a ServeDaemon for the end-to-end benchmark.
//
// Two shapes, both over a few persistent connections:
//
//   * open loop: request i is due at t0 + i / rate whatever the daemon
//     is doing, the way independent users arrive. A sender thread that
//     is free claims the next request, sleeps until ~60 us before it is
//     due and then spins, so timer slack is not charged to the daemon.
//     Every request is timed from its due time: when both connections
//     are busy past a due time, the wait counts as latency. Each sender
//     replaces its connection every 500 ms, as clients that connect for
//     a batch of requests do.
//   * closed loop: each client sends its next request as soon as the
//     previous reply arrives — the daemon's capacity.
//
// Every connection opened and every request line delivered is counted
// in a Tally, so the daemon's `stats` counters can be reconciled exactly.
#ifndef LOGR_BENCH_E2E_LOAD_H_
#define LOGR_BENCH_E2E_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/client.h"

namespace e2e {

struct Tally {
  std::atomic<std::uint64_t> connects{0};
  std::atomic<std::uint64_t> lines{0};
  std::atomic<std::uint64_t> reconnects{0};
};

/// One persistent protocol connection. The daemon answers "err request
/// budget exhausted" (and closes) once a connection has used its
/// request budget, without doing the work: the connection then
/// reconnects and resends, and counts a reconnect instead of a failure.
class Connection {
 public:
  Connection(std::string endpoint, Tally* tally)
      : endpoint_(std::move(endpoint)), tally_(tally) {}

  /// Sends `line` and reads its reply; `send_ns` receives the send
  /// time (after any reconnect). Returns false on a transport failure.
  bool Call(const std::string& line, std::string* reply,
            std::int64_t* send_ns, std::string* error);

  /// Closes the connection; the next Call opens a fresh one.
  void Renew() { client_.Close(); }

 private:
  std::string endpoint_;
  Tally* tally_;
  logr::ServeClient client_;
};

/// Judges the reply to request line `index`.
using ReplyCheck =
    std::function<bool(std::size_t index, const std::string& reply)>;

struct LoadResult {
  /// Due-to-reply latency of request i, in due order, NaN where the
  /// reply failed (open loop only; a closed loop keeps none, so its
  /// memory does not grow with the rate).
  std::vector<float> latency_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< transport failures and wrong replies
  std::string first_failure;
  /// Closed loop: correct replies per second, from the first due time
  /// to the last reply. Open loop: requests sent per second, from the
  /// first due time to the last send.
  double achieved_rate = 0.0;
};

/// Open loop at `rate` requests/s for `seconds` over `connections`
/// sender threads, cycling through `lines`. In trace mode every request
/// records bench.request (due to reply) with children bench.queue_wait
/// (due to send) and serve.request (send to reply), tagged with request
/// id `first_request_id + i`.
LoadResult RunOpenLoop(const std::string& endpoint,
                       const std::vector<std::string>& lines,
                       const ReplyCheck& check, double rate, double seconds,
                       int connections, Tally* tally,
                       std::uint64_t first_request_id);

/// Closed loop: `clients` threads, each sending back to back, until
/// `seconds` pass or `max_requests` were sent. A request is "due" when
/// its client became free. Records the same spans as RunOpenLoop when
/// `record_spans` is set.
LoadResult RunClosedLoop(const std::string& endpoint,
                         const std::vector<std::string>& lines,
                         const ReplyCheck& check, double seconds,
                         std::size_t max_requests, int clients, Tally* tally,
                         bool record_spans, std::uint64_t first_request_id);

}  // namespace e2e

#endif  // LOGR_BENCH_E2E_LOAD_H_
