#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "serve/endpoint.h"

namespace logr {

namespace {

using Clock = std::chrono::steady_clock;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Longest request line a client may send before the connection is
/// dropped — generous for any real predicate, small enough that a
/// hostile client cannot balloon the daemon's memory.
constexpr std::size_t kMaxRequestBytes = 1 << 20;

/// Longest a reactor sleeps in poll, so a Stop() is seen within one
/// tick even when no peer deadline is near. Bounds how stale a stop
/// request can go unnoticed, not any protocol deadline.
constexpr int kPollTickMs = 100;

/// Milliseconds until `t`, rounded up so a poll that times out finds
/// the deadline passed; 0 when it already has.
int MsUntil(Clock::time_point t) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(t - Clock::now()).count();
  return static_cast<int>(std::max<long long>(left, 0));
}

}  // namespace

struct ServeDaemon::Peer {
  int fd = -1;
  std::string in;   ///< bytes read and not yet answered
  std::string out;  ///< reply bytes owed and not yet sent
  std::uint64_t served = 0;
  Clock::time_point last_read;
  Clock::time_point last_send;  ///< reply queued or last send progress
  bool close_after_flush = false;

  /// Queues the reply to one request line; nothing more is read from
  /// the peer until it is flushed.
  void Owe(std::string reply, bool then_close) {
    out = std::move(reply);
    out += '\n';
    last_send = Clock::now();
    close_after_flush = then_close;
  }

  /// When the peer blows a deadline: the write deadline while a reply
  /// is owed, the idle deadline otherwise.
  Clock::time_point Deadline(const ServeOptions& limits) const {
    const int ms =
        out.empty() ? limits.idle_timeout_ms : limits.write_timeout_ms;
    if (ms <= 0) return Clock::time_point::max();
    return (out.empty() ? last_read : last_send) +
           std::chrono::milliseconds(ms);
  }
};

ServeDaemon::ServeDaemon(SummaryRegistry* registry)
    : registry_(registry), handler_(registry, &counters_) {}

ServeDaemon::~ServeDaemon() { Stop(); }

bool ServeDaemon::Start(const ServeOptions& opts, std::string* error) {
  if (listen_fd_ >= 0) return Fail(error, "daemon already started");
  if (opts.max_connections == 0) {
    return Fail(error, "max_connections must be at least 1");
  }

  Endpoint ep;
  if (!ParseEndpoint(opts.listen, &ep, error)) return false;

  // Come up already serving the directory's current contents.
  registry_->Rescan();

  const int fd = ::socket(ep.family, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Fail(error, "cannot create socket");
  if (ep.family == AF_UNIX) {
    ::unlink(ep.path.c_str());  // a stale socket from a dead daemon
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, ep.addr(), ep.length) != 0 || ::listen(fd, 64) != 0) {
    ::close(fd);
    return Fail(error, "cannot bind " + opts.listen);
  }
  if (ep.family == AF_UNIX) {
    unix_path_ = ep.path;
    endpoint_ = "unix:" + ep.path;
  } else {
    // Resolve the ephemeral port so callers can connect to port 0 binds.
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      return Fail(error, "cannot resolve bound port");
    }
    endpoint_ = "tcp:" + ep.host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  listen_fd_ = fd;

  limits_ = opts;
  draining_.store(false);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned r = 0; r < cores; ++r) {
    reactors_.emplace_back([this] { ReactorLoop(); });
  }
  if (opts.rescan_interval_ms > 0) {
    const int interval = opts.rescan_interval_ms;
    watch_thread_ = std::thread([this, interval] { WatchLoop(interval); });
  }
  return true;
}

void ServeDaemon::ReactorLoop() {
  std::vector<Peer> peers;
  std::vector<pollfd> fds;
  const auto erase_closed = [&peers] {
    peers.erase(std::remove_if(peers.begin(), peers.end(),
                               [](const Peer& p) { return p.fd < 0; }),
                peers.end());
  };
  while (!draining_.load()) {
    // Slot 0 is the listening socket and slot i + 1 is peers[i], polled
    // for the one thing it waits on: POLLOUT while a reply is owed,
    // POLLIN otherwise. Sleep until the nearest deadline, at most a tick.
    fds.assign(1, pollfd{listen_fd_, POLLIN, 0});
    auto wake = Clock::now() + std::chrono::milliseconds(kPollTickMs);
    for (const Peer& peer : peers) {
      const short events = peer.out.empty() ? POLLIN : POLLOUT;
      fds.push_back(pollfd{peer.fd, events, 0});
      wake = std::min(wake, peer.Deadline(limits_));
    }
    ::poll(fds.data(), fds.size(), MsUntil(wake));
    const auto now = Clock::now();
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const short revents = fds[i + 1].revents;
      if (revents == 0 && now < peers[i].Deadline(limits_)) continue;
      const bool readable = (revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      if (!Advance(&peers[i], readable, false)) Close(&peers[i]);
    }
    erase_closed();
    if (fds[0].revents != 0) Accept(&peers);
  }
  // Drain: read what each peer has already sent, without blocking,
  // answer the complete lines and flush the replies until the drain
  // deadline; then close whoever is still owed bytes.
  const auto deadline =
      Clock::now() +
      std::chrono::milliseconds(std::max(limits_.drain_timeout_ms, 0));
  for (;;) {
    for (Peer& peer : peers) {
      if (!Advance(&peer, true, true)) Close(&peer);
    }
    erase_closed();
    if (peers.empty() || Clock::now() >= deadline) break;
    fds.clear();
    for (const Peer& peer : peers) fds.push_back(pollfd{peer.fd, POLLOUT, 0});
    ::poll(fds.data(), fds.size(), MsUntil(deadline));
  }
  for (Peer& peer : peers) Close(&peer);
}

void ServeDaemon::Accept(std::vector<Peer>* peers) {
  // The listening socket is nonblocking, so a reactor that loses the
  // race for a connection gets EAGAIN here instead of blocking.
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
  if (fd < 0) return;
  // The increment itself claims a slot, so the cap holds across
  // reactors; a claim past the cap is undone and the peer is shed.
  const std::uint64_t claimed = counters_.active.fetch_add(1);
  if (claimed >= limits_.max_connections) {
    counters_.active.fetch_sub(1);
    // Count first, so a peer that reads the reply is guaranteed to
    // find itself in `stats shed`. One nonblocking send is enough: the
    // connection is brand new, so its send buffer is empty, and a peer
    // that already vanished needs no reply.
    counters_.shed.fetch_add(1);
    const char kBusy[] = "err busy\n";
    (void)::send(fd, kBusy, sizeof(kBusy) - 1, MSG_NOSIGNAL);
    ::close(fd);
    return;
  }
  counters_.accepted.fetch_add(1);
  Peer peer;
  peer.fd = fd;
  peer.last_read = Clock::now();
  peers->push_back(std::move(peer));
}

bool ServeDaemon::Advance(Peer* peer, bool readable, bool draining) {
  Peer& p = *peer;
  for (;;) {
    if (!p.out.empty()) {
      const ssize_t n =
          ::send(p.fd, p.out.data(), p.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        p.out.erase(0, static_cast<std::size_t>(n));
        p.last_send = Clock::now();
        if (p.out.empty() && p.close_after_flush) return false;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
      if (Clock::now() < p.Deadline(limits_)) return true;
      // The stalled-reader cut: the owed reply made no progress.
      counters_.timed_out.fetch_add(1);
      return false;
    }
    const std::size_t nl = p.in.find('\n');
    if (nl != std::string::npos) {
      std::string line = p.in.substr(0, nl);
      p.in.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      counters_.requests.fetch_add(1);
      if (limits_.max_requests_per_connection > 0 &&
          p.served >= limits_.max_requests_per_connection) {
        p.Owe("err request budget exhausted", true);
      } else {
        ++p.served;
        const bool quit = line == "quit";
        p.Owe(quit ? "ok bye" : handler_.HandleRequestLine(line), quit);
      }
      continue;
    }
    if (p.in.size() > kMaxRequestBytes) {
      p.Owe("err request line too long", true);
      continue;
    }
    if (!readable && !draining) {
      if (Clock::now() < p.Deadline(limits_)) return true;
      // The slow-loris cut: no request byte within the idle deadline.
      counters_.timed_out.fetch_add(1);
      p.Owe("err idle timeout", true);
      continue;
    }
    readable = false;
    char buf[4096];
    const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      p.in.append(buf, static_cast<std::size_t>(n));
      p.last_read = Clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // An empty socket means wait for more, unless draining. EOF or a
    // hard error closes: every complete line was answered before this
    // read, so a half-closed peer already has its replies.
    return !draining && n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

void ServeDaemon::Close(Peer* peer) {
  ::shutdown(peer->fd, SHUT_RDWR);
  ::close(peer->fd);
  peer->fd = -1;
  counters_.active.fetch_sub(1);
}

void ServeDaemon::WatchLoop(int interval_ms) {
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!draining_.load()) {
    watch_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                       [this] { return draining_.load(); });
    if (draining_.load()) break;
    registry_->Rescan();
  }
}

void ServeDaemon::Stop() {
  // Serialized so a destructor racing an explicit Stop() (or a signal
  // handler's) waits for the full drain instead of tearing state.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  draining_.store(true);
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_cv_.notify_all();
  }
  // Each reactor sees draining_ within one poll tick, drains its own
  // peers up to the drain deadline, and closes the rest before exiting.
  for (std::thread& reactor : reactors_) reactor.join();
  reactors_.clear();
  if (watch_thread_.joinable()) watch_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

}  // namespace logr
