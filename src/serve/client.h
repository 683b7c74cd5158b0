// Client for the serve protocol: one connection, one request line in,
// one response line out — with deadlines and a retry policy.
//
// The exact shape `logr_cli query`, the tests, and the serve benchmark
// all need. Connect reads the endpoint grammar ServeDaemon binds
// (serve/endpoint.h: "unix:PATH", "tcp:HOST:PORT", "HOST:PORT",
// "PORT") through the same parser, so both reject a malformed one with
// the same message. Every socket wait is poll-based, so both Connect
// and Request take an optional deadline: a daemon that hangs (or an
// endpoint that routes nowhere) costs the caller a bounded wait, never
// a wedged process.
//
// QueryWithRetry layers the client policy a hardened daemon expects
// from its peers: bounded retries with exponential backoff + jitter,
// applied ONLY to attempts where the daemon provably did no work —
// connect failures/timeouts and "err busy" shed replies (the daemon
// sheds at accept, before reading any request). Once the request line
// has been delivered, a failure is never retried: the daemon may have
// executed the request, and replaying it would double-count.
#ifndef LOGR_SERVE_CLIENT_H_
#define LOGR_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace logr {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { Close(); }

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ServeClient(ServeClient&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  ServeClient& operator=(ServeClient&&) = delete;

  /// Connects to a ServeDaemon endpoint, waiting at most `timeout_ms`
  /// (0 = wait as long as the OS does). Returns false (and fills
  /// `error`) on a bad endpoint, refusal, or deadline.
  bool Connect(const std::string& endpoint, int timeout_ms,
               std::string* error);
  bool Connect(const std::string& endpoint, std::string* error) {
    return Connect(endpoint, 0, error);
  }

  /// Sends one request line (newline appended) and reads the single
  /// response line into `response` (newline stripped), all within
  /// `timeout_ms` (0 = no deadline). Returns false on a transport
  /// failure or deadline — a protocol-level failure is an "err ..."
  /// response, which still returns true.
  bool Request(const std::string& line, int timeout_ms,
               std::string* response, std::string* error);
  bool Request(const std::string& line, std::string* response,
               std::string* error) {
    return Request(line, 0, response, error);
  }

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// True when the last Request() wrote the complete request line to
  /// the socket. Past that point the daemon may have executed the
  /// request, so a failed or timed-out read must NOT be retried.
  bool last_request_delivered() const { return delivered_; }
  /// True when the last Connect()/Request() failed on its deadline
  /// (as opposed to a refusal or a closed connection).
  bool last_timed_out() const { return timed_out_; }

 private:
  int fd_ = -1;
  std::string pending_;  ///< bytes read past the last response line
  bool delivered_ = false;
  bool timed_out_ = false;
};

/// Retry policy for QueryWithRetry.
struct RetryOptions {
  /// Additional attempts after the first (0 = single attempt).
  int max_retries = 0;
  /// Per-attempt connect deadline, ms (0 = OS default blocking wait).
  int connect_timeout_ms = 0;
  /// Per-attempt request deadline, ms (0 = wait forever).
  int request_timeout_ms = 0;
  /// Backoff before retry k (0-based) is drawn uniformly from
  /// [b/2, b] where b = min(backoff_base_ms << k, backoff_max_ms) —
  /// exponential growth, capped, with enough jitter that a thundering
  /// herd of shed clients decorrelates.
  int backoff_base_ms = 50;
  int backoff_max_ms = 2000;
  /// Jitter seed; 0 derives one from the clock and pid. Tests pin it.
  std::uint64_t jitter_seed = 0;
};

/// Outcome of a QueryWithRetry call, with enough detail for callers
/// (and tests) to audit the retry behavior.
struct QueryOutcome {
  bool ok = false;        ///< a response line was received
  std::string response;   ///< valid when ok (may still be "err ...")
  std::string error;      ///< transport diagnosis when !ok
  int attempts = 1;       ///< connection attempts made
  bool timed_out = false; ///< final failure was a deadline
  /// The actual backoff sleeps taken, in order (for bound assertions).
  std::vector<int> backoff_ms;
};

/// Connects, sends `line`, reads the response — retrying per `opts` on
/// connect failures and "err busy" shed replies only. A request whose
/// line was fully delivered is never re-sent, whatever happens to the
/// response. `ok` is true whenever a response line came back; callers
/// distinguish protocol errors by its "err " prefix as usual.
QueryOutcome QueryWithRetry(const std::string& endpoint,
                            const std::string& line,
                            const RetryOptions& opts);

}  // namespace logr

#endif  // LOGR_SERVE_CLIENT_H_
