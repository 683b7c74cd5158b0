#include "serve/client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "serve/endpoint.h"
#include "util/prng.h"

namespace logr {

namespace {

using Clock = std::chrono::steady_clock;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Remaining wait for one poll call: -1 (infinite) when unbounded,
/// otherwise the clamped time to the deadline (0 = already expired).
int PollWait(bool bounded, Clock::time_point deadline) {
  if (!bounded) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return static_cast<int>(std::max<long long>(left, 0));
}

}  // namespace

bool ServeClient::Connect(const std::string& endpoint, int timeout_ms,
                          std::string* error) {
  Close();
  timed_out_ = false;
  Endpoint ep;
  if (!ParseEndpoint(endpoint, &ep, error)) return false;

  const int fd = ::socket(ep.family, SOCK_STREAM, 0);
  if (fd < 0) return Fail(error, "cannot create socket");
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return Fail(error, "cannot make socket nonblocking");
  }
  if (::connect(fd, ep.addr(), ep.length) != 0) {
    if (ep.family == AF_UNIX || errno != EINPROGRESS) {
      // A Unix-socket connect never goes "in progress": EAGAIN there
      // means the listener's backlog is full — a transient refusal the
      // retry layer handles like any other connect failure.
      ::close(fd);
      return Fail(error, "cannot connect to " + endpoint);
    }
    // TCP three-way handshake in flight: wait for writability, bounded
    // by the connect deadline, then read the outcome from SO_ERROR.
    const bool bounded = timeout_ms > 0;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);
    for (;;) {
      pollfd pfd{fd, POLLOUT, 0};
      const int wait = PollWait(bounded, deadline);
      if (bounded && wait == 0) {
        ::close(fd);
        timed_out_ = true;
        return Fail(error, "connect timeout after " +
                               std::to_string(timeout_ms) + "ms to " +
                               endpoint);
      }
      const int ready = ::poll(&pfd, 1, wait);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) {
        ::close(fd);
        return Fail(error, "cannot connect to " + endpoint);
      }
      if (ready > 0) break;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      ::close(fd);
      return Fail(error, "cannot connect to " + endpoint);
    }
  }
  fd_ = fd;
  return true;
}

bool ServeClient::Request(const std::string& line, int timeout_ms,
                          std::string* response, std::string* error) {
  if (fd_ < 0) return Fail(error, "not connected");
  delivered_ = false;
  timed_out_ = false;
  const bool bounded = timeout_ms > 0;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(bounded ? timeout_ms : 0);

  // Deliver the request line, waiting on POLLOUT under the deadline.
  const std::string data = line + "\n";
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      return Fail(error, "send failed (daemon gone?)");
    }
    const int wait = PollWait(bounded, deadline);
    if (bounded && wait == 0) {
      timed_out_ = true;
      return Fail(error, "request timeout (sending)");
    }
    pollfd pfd{fd_, POLLOUT, 0};
    ::poll(&pfd, 1, wait);
  }
  delivered_ = true;

  // Read the response line under the same deadline.
  char buf[4096];
  for (;;) {
    const std::size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      *response = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      if (!response->empty() && response->back() == '\r') {
        response->pop_back();
      }
      return true;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      pending_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return Fail(error, "connection closed mid-response");
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return Fail(error, "read failed (daemon gone?)");
    }
    const int wait = PollWait(bounded, deadline);
    if (bounded && wait == 0) {
      timed_out_ = true;
      return Fail(error, "request timeout (waiting for response)");
    }
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, wait);
  }
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  pending_.clear();
  delivered_ = false;
}

QueryOutcome QueryWithRetry(const std::string& endpoint,
                            const std::string& line,
                            const RetryOptions& opts) {
  QueryOutcome out;
  std::uint64_t seed = opts.jitter_seed;
  if (seed == 0) {
    // Decorrelate concurrent clients; determinism here would make a
    // shed thundering herd retry in lockstep. Tests pin jitter_seed.
    seed = static_cast<std::uint64_t>(
               Clock::now().time_since_epoch().count()) ^
           (static_cast<std::uint64_t>(::getpid()) << 32);
  }
  Pcg32 rng(seed);

  for (int attempt = 0;; ++attempt) {
    out.attempts = attempt + 1;
    ServeClient client;
    std::string error;
    bool transient = false;
    if (!client.Connect(endpoint, opts.connect_timeout_ms, &error)) {
      // Nothing was delivered: always safe to retry.
      out.ok = false;
      out.error = error;
      out.timed_out = client.last_timed_out();
      transient = true;
    } else {
      std::string response;
      if (client.Request(line, opts.request_timeout_ms, &response, &error)) {
        out.ok = true;
        out.response = response;
        out.error.clear();
        out.timed_out = false;
        // "err busy" is the daemon's shed reply, sent at accept before
        // any request line is read — the request was NOT executed, so
        // retrying cannot double-count even though it was delivered.
        if (response.rfind("err busy", 0) != 0) return out;
        out.error = "daemon busy";
        transient = true;
      } else {
        out.ok = false;
        out.error = error;
        out.timed_out = client.last_timed_out();
        // Once the line is fully sent the daemon may have executed it;
        // a lost or timed-out response must surface as a failure, not
        // a silent replay.
        transient = !client.last_request_delivered();
      }
    }
    if (!transient || attempt >= opts.max_retries) return out;

    // Exponential backoff, capped, with jitter in [b/2, b].
    long long cap = std::max(opts.backoff_base_ms, 0);
    for (int k = 0; k < attempt && cap < opts.backoff_max_ms; ++k) cap *= 2;
    cap = std::min<long long>(cap, std::max(opts.backoff_max_ms, 0));
    const int b = static_cast<int>(cap);
    const int sleep_ms =
        b <= 1 ? b
               : b / 2 + static_cast<int>(rng.NextBounded(
                             static_cast<std::uint32_t>(b - b / 2 + 1)));
    out.backoff_ms.push_back(sleep_ms);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
}

}  // namespace logr
