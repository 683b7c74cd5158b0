// Tests for the serve subsystem: the canonical predicate parser shared
// by the CLI and the protocol, SummaryRegistry hot-reload semantics
// (snapshot swap, failed-parse keeps serving, removal), the live
// daemon's protocol round trip over TCP and Unix sockets, concurrent
// estimate load across a hot-reload swap (the TSan target), and the
// chaos and retry harnesses. Bit-consistency of served estimates with
// the in-memory model, per encoder, is equivalence_test's served path.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/summary_registry.h"
#include "util/prng.h"
#include "workload/predicate.h"

namespace logr {
namespace {

QueryLog GroupedLog(std::size_t groups, std::size_t per_group,
                    std::uint64_t seed) {
  Pcg32 rng(seed);
  QueryLog log;
  for (std::size_t f = 0; f < groups * 8; ++f) {
    log.mutable_vocabulary()->Intern(
        {FeatureClause::kSelect, "col" + std::to_string(f)});
  }
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < per_group; ++i) {
      std::vector<FeatureId> ids = {static_cast<FeatureId>(g * 8)};
      for (std::size_t f = 1; f < 8; ++f) {
        if (rng.NextBernoulli(0.5)) {
          ids.push_back(static_cast<FeatureId>(g * 8 + f));
        }
      }
      log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(30));
    }
  }
  return log;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "logr_serve_" + tag + "_" +
                          std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void WriteSummaryOrDie(const std::string& path, const QueryLog& log,
                       const std::string& encoder, std::size_t clusters) {
  LogROptions opts;
  opts.num_clusters = clusters;
  opts.encoder = encoder;
  LogRSummary s = Compress(log, opts);
  std::string error;
  ASSERT_TRUE(WriteSummaryFile(path, log.vocabulary(), s.Model(), &error))
      << error;
}

// ------------------------------------------------ predicate parser

TEST(PredicateTest, CanonicalizesSortedAndDeduped) {
  QueryLog log = GroupedLog(1, 4, 5);
  ParsedPredicate pred;
  std::string error;
  ASSERT_TRUE(ParsePredicate({"7", "3", "#7", "3"}, log.vocabulary(), &pred,
                             &error))
      << error;
  EXPECT_EQ(pred.features.ids, (std::vector<FeatureId>{3, 7}));
  EXPECT_TRUE(pred.missing.empty());
}

TEST(PredicateTest, StructuralTermsResolveThroughTheCodebook) {
  QueryLog log = GroupedLog(1, 4, 5);
  ParsedPredicate pred;
  std::string error;
  ASSERT_TRUE(ParsePredicate({"SELECT:col2", "select:col1"},
                             log.vocabulary(), &pred, &error))
      << error;
  EXPECT_EQ(pred.features.ids, (std::vector<FeatureId>{1, 2}));
  // A feature absent from the codebook is reported, not an error: its
  // marginal is exactly 0.
  ASSERT_TRUE(ParsePredicate({"WHERE:nope = ?"}, log.vocabulary(), &pred,
                             &error))
      << error;
  EXPECT_TRUE(pred.features.empty());
  ASSERT_EQ(pred.missing.size(), 1u);
}

TEST(PredicateTest, RejectsMalformedTermsLoudly) {
  QueryLog log = GroupedLog(1, 4, 5);
  ParsedPredicate pred;
  std::string error;
  // Non-numeric id: the old CLI silently mis-parsed these as clauses.
  EXPECT_FALSE(ParsePredicate({"7x"}, log.vocabulary(), &pred, &error));
  EXPECT_NE(error.find("numeric"), std::string::npos) << error;
  // Id past the codebook.
  EXPECT_FALSE(ParsePredicate({"999"}, log.vocabulary(), &pred, &error));
  EXPECT_NE(error.find("codebook"), std::string::npos) << error;
  // Unknown clause, empty text, empty term, empty predicate.
  EXPECT_FALSE(ParsePredicate({"HAVING:x"}, log.vocabulary(), &pred,
                              &error));
  EXPECT_FALSE(ParsePredicate({"WHERE:"}, log.vocabulary(), &pred, &error));
  EXPECT_FALSE(ParsePredicate({""}, log.vocabulary(), &pred, &error));
  EXPECT_FALSE(ParsePredicate({}, log.vocabulary(), &pred, &error));
}

TEST(PredicateTest, SplitsCommaListsAndTrims) {
  const std::vector<std::string> terms =
      SplitPredicateList("FROM:orders, WHERE:status = ? ,3");
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], "FROM:orders");
  EXPECT_EQ(terms[1], "WHERE:status = ?");
  EXPECT_EQ(terms[2], "3");
  // Empty terms survive the split so the parser rejects them loudly.
  EXPECT_EQ(SplitPredicateList("a,,b").size(), 3u);
}

// ------------------------------------------------ summary registry

TEST(SummaryRegistryTest, LoadsReloadsAndRemoves) {
  const std::string dir = FreshDir("registry");
  QueryLog log = GroupedLog(2, 8, 11);
  WriteSummaryOrDie(dir + "/a.logr", log, "naive", 2);

  SummaryRegistry registry(dir);
  SummaryRegistry::ScanResult r = registry.Rescan();
  EXPECT_EQ(r.loaded, 1u);
  EXPECT_EQ(r.failed, 0u);
  auto a1 = registry.Find("a");
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a1->generation, 1u);
  EXPECT_EQ(registry.Find("missing"), nullptr);

  // Unchanged file: no reload.
  r = registry.Rescan();
  EXPECT_EQ(r.loaded + r.reloaded + r.removed + r.failed, 0u);
  EXPECT_EQ(registry.Find("a"), a1);

  // Re-publish a different summary under the same name: swapped in,
  // while the old snapshot stays valid for holders.
  WriteSummaryOrDie(dir + "/a.logr", GroupedLog(3, 8, 12), "naive", 3);
  r = registry.Rescan();
  EXPECT_EQ(r.reloaded, 1u);
  auto a2 = registry.Find("a");
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->generation, 2u);
  EXPECT_EQ(a2->summary.model->NumComponents(), 3u);
  EXPECT_EQ(a1->summary.model->NumComponents(), 2u);  // old snapshot alive

  // A second name comes and goes.
  WriteSummaryOrDie(dir + "/b.logr", log, "refined", 2);
  EXPECT_EQ(registry.Rescan().loaded, 1u);
  EXPECT_EQ(registry.List().size(), 2u);
  ::unlink((dir + "/b.logr").c_str());
  EXPECT_EQ(registry.Rescan().removed, 1u);
  EXPECT_EQ(registry.Find("b"), nullptr);
}

TEST(SummaryRegistryTest, FailedParseKeepsServingTheOldSnapshot) {
  const std::string dir = FreshDir("badfile");
  QueryLog log = GroupedLog(2, 8, 21);
  WriteSummaryOrDie(dir + "/a.logr", log, "naive", 2);
  SummaryRegistry registry(dir);
  ASSERT_EQ(registry.Rescan().loaded, 1u);
  auto good = registry.Find("a");
  ASSERT_NE(good, nullptr);

  // Clobber the file with garbage (bypassing the atomic writer — a
  // correct publisher can never do this). The registry must keep the
  // old snapshot and report the failure.
  {
    std::ofstream out(dir + "/a.logr", std::ios::trunc);
    out << "this is not a summary\n";
  }
  SummaryRegistry::ScanResult r = registry.Rescan();
  EXPECT_EQ(r.failed, 1u);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("a.logr: not a summary v4 file"),
            std::string::npos)
      << r.errors[0];
  EXPECT_NE(r.errors[0].find("re-run `logr_cli compress`"), std::string::npos)
      << r.errors[0];
  EXPECT_EQ(registry.Find("a"), good);
}

// ------------------------------------------------ live daemon

TEST(ServeDaemonTest, ProtocolRoundTripOverTcp) {
  const std::string dir = FreshDir("tcp");
  QueryLog log = GroupedLog(2, 10, 31);
  WriteSummaryOrDie(dir + "/prod.logr", log, "refined", 2);

  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "tcp:127.0.0.1:0";
  opts.rescan_interval_ms = 0;  // reloads only via the protocol
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.endpoint(), &error)) << error;
  std::string response;
  ASSERT_TRUE(client.Request("ping", &response, &error)) << error;
  EXPECT_EQ(response, "ok pong");
  ASSERT_TRUE(client.Request("list", &response, &error)) << error;
  EXPECT_EQ(response, "ok 1 prod");
  ASSERT_TRUE(client.Request("info prod", &response, &error)) << error;
  EXPECT_NE(response.find("ok encoder=refined"), std::string::npos)
      << response;
  ASSERT_TRUE(client.Request("estimate prod SELECT:col0", &response,
                             &error))
      << error;
  EXPECT_EQ(response.rfind("ok count=", 0), 0u) << response;
  ASSERT_TRUE(client.Request("marginal prod 0", &response, &error)) << error;
  EXPECT_EQ(response.rfind("ok marginal=", 0), 0u) << response;
  ASSERT_TRUE(client.Request("drift prod prod", &response, &error)) << error;
  EXPECT_EQ(response.rfind("ok l1=0 ", 0), 0u) << response;
  // Error paths keep the connection usable.
  ASSERT_TRUE(client.Request("estimate nope 0", &response, &error)) << error;
  EXPECT_EQ(response.rfind("err no summary named", 0), 0u) << response;
  ASSERT_TRUE(client.Request("estimate prod 7x", &response, &error))
      << error;
  EXPECT_EQ(response.rfind("err ", 0), 0u) << response;
  ASSERT_TRUE(client.Request("bogus", &response, &error)) << error;
  EXPECT_EQ(response.rfind("err unknown command", 0), 0u) << response;
  ASSERT_TRUE(client.Request("ping", &response, &error)) << error;
  EXPECT_EQ(response, "ok pong");

  daemon.Stop();
  EXPECT_GE(daemon.ConnectionsAccepted(), 1u);
}

TEST(ServeDaemonTest, HotReloadSwapsUnderConcurrentEstimateLoad) {
  // The TSan target: client threads hammer estimates while the main
  // thread keeps publishing new summaries into the watched directory.
  // Every response must be a complete "ok ..." line — a request either
  // sees the old snapshot or the new one, never a torn summary — and
  // the daemon must end up serving the last published generation.
  const std::string dir = FreshDir("hotreload");
  QueryLog log_a = GroupedLog(2, 10, 51);
  WriteSummaryOrDie(dir + "/live.logr", log_a, "naive", 2);

  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 5;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 150;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      ServeClient client;
      std::string cerror;
      if (!client.Connect(daemon.endpoint(), &cerror)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        std::string response;
        const std::string predicate = std::to_string((t + i) % 16);
        if (!client.Request("estimate live " + predicate, &response,
                            &cerror) ||
            response.rfind("ok count=", 0) != 0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Keep republishing while the clients run: alternate two different
  // workloads so the served model visibly changes shape.
  for (int round = 0; round < 10; ++round) {
    QueryLog log = GroupedLog(2 + round % 2, 10, 60 + round);
    LogROptions copts;
    copts.num_clusters = 2 + round % 2;
    copts.encoder = round % 2 == 0 ? "naive" : "refined";
    LogRSummary s = Compress(log, copts);
    ASSERT_TRUE(WriteSummaryFile(dir + "/live.logr", log.vocabulary(),
                                 s.Model(), &error))
        << error;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The watcher must converge on the final file without a restart.
  ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.endpoint(), &error)) << error;
  std::string response;
  for (int tries = 0; tries < 100; ++tries) {
    ASSERT_TRUE(client.Request("info live", &response, &error)) << error;
    if (response.find("encoder=refined") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(response.find("encoder=refined"), std::string::npos) << response;

  daemon.Stop();
}

TEST(ServeDaemonTest, ProtocolReloadRequestPicksUpNewSummaries) {
  const std::string dir = FreshDir("reloadcmd");
  SummaryRegistry registry(dir);
  ProtocolHandler handler(&registry);
  // Pure handler, no sockets: the protocol is a function of the
  // registry.
  EXPECT_EQ(handler.HandleRequestLine("list"), "ok 0");
  QueryLog log = GroupedLog(2, 8, 71);
  WriteSummaryOrDie(dir + "/fresh.logr", log, "naive", 2);
  const std::string reload = handler.HandleRequestLine("reload");
  EXPECT_EQ(reload.rfind("ok loaded=1 ", 0), 0u) << reload;
  EXPECT_EQ(handler.HandleRequestLine("list"), "ok 1 fresh");
  EXPECT_EQ(handler.HandleRequestLine("ping"), "ok pong");
  EXPECT_EQ(handler.HandleRequestLine("").rfind("err ", 0), 0u);
}

// ------------------------------------------------ chaos harness
//
// Raw-socket helpers: the hostile behaviors below (connect and never
// speak, flood past the cap, pipeline and never read, half-close)
// cannot be expressed through ServeClient, whose whole point is to
// behave.

int RawConnectUnix(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool RawSendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Reads one newline-terminated line (stripped) within `timeout_ms`.
/// `pending` carries bytes past the line between calls, so pipelined
/// replies that arrive in one packet are not lost.
bool RawReadLine(int fd, int timeout_ms, std::string* pending,
                 std::string* line) {
  char buf[4096];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = pending->find('\n');
    if (nl != std::string::npos) {
      *line = pending->substr(0, nl);
      pending->erase(0, nl + 1);
      return true;
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      pending->append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                  errno == EWOULDBLOCK)) {
      continue;
    }
    return false;  // EOF or hard error without a complete line
  }
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(ServeChaosTest, SlowLorisIsCutAtTheIdleDeadline) {
  const std::string dir = FreshDir("loris");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.idle_timeout_ms = 150;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  // Connect and never send a byte. The daemon must cut the connection
  // at the idle deadline, say why, and reclaim the thread — a loris
  // that pinned its thread forever would exhaust the cap for free.
  const int fd = RawConnectUnix(dir + "/sock");
  ASSERT_GE(fd, 0);
  std::string pending, line;
  ASSERT_TRUE(RawReadLine(fd, 2000, &pending, &line));
  EXPECT_EQ(line, "err idle timeout");
  EXPECT_TRUE(WaitFor(
      [&] {
        return daemon.counters().timed_out.load() >= 1 &&
               daemon.counters().active.load() == 0;
      },
      2000));
  ::close(fd);
  daemon.Stop();
}

TEST(ServeChaosTest, FloodPastTheCapShedsLoudlyAndServesInCapClients) {
  const std::string dir = FreshDir("flood");
  QueryLog log = GroupedLog(2, 10, 81);
  WriteSummaryOrDie(dir + "/prod.logr", log, "refined", 2);
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.max_connections = 2;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  // Two in-cap clients take every slot (a served request proves the
  // accept happened, so the cap is really taken)...
  ServeClient a, b;
  std::string response;
  ASSERT_TRUE(a.Connect(daemon.endpoint(), &error)) << error;
  ASSERT_TRUE(a.Request("ping", &response, &error)) << error;
  ASSERT_TRUE(b.Connect(daemon.endpoint(), &error)) << error;
  ASSERT_TRUE(b.Request("ping", &response, &error)) << error;

  // ...then a flood of three more arrives. Each must get an explicit
  // "err busy" — overload distinguishable from outage — never a silent
  // drop.
  for (int i = 0; i < 3; ++i) {
    const int fd = RawConnectUnix(dir + "/sock");
    ASSERT_GE(fd, 0) << i;
    std::string pending, line;
    ASSERT_TRUE(RawReadLine(fd, 2000, &pending, &line)) << i;
    EXPECT_EQ(line, "err busy") << i;
    ::close(fd);
  }
  EXPECT_EQ(daemon.counters().shed.load(), 3u);
  EXPECT_EQ(daemon.counters().accepted.load(), 2u);

  // The flood must not perturb in-cap service: the served estimate is
  // bit-identical to the protocol evaluated directly on the registry.
  ProtocolHandler direct(&registry);
  const std::string request = "estimate prod SELECT:col0";
  std::string ra, rb;
  ASSERT_TRUE(a.Request(request, &ra, &error)) << error;
  ASSERT_TRUE(b.Request(request, &rb, &error)) << error;
  EXPECT_EQ(ra.rfind("ok count=", 0), 0u) << ra;
  EXPECT_EQ(ra, direct.HandleRequestLine(request));
  EXPECT_EQ(ra, rb);
  daemon.Stop();
}

TEST(ServeChaosTest, StalledReaderIsCutAtTheWriteDeadline) {
  const std::string dir = FreshDir("stalled");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.write_timeout_ms = 150;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  // Pipeline thousands of requests and never read a reply: the
  // replies fill the socket buffers until a daemon send stalls, and
  // the write deadline must cut the connection instead of letting the
  // stalled reader pin the thread on a full buffer forever.
  const int fd = RawConnectUnix(dir + "/sock");
  ASSERT_GE(fd, 0);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
  std::string burst;
  for (int i = 0; i < 5000; ++i) burst += "stats\n";
  std::size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t n = ::send(fd, burst.data() + sent, burst.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN (our own buffer is full) or the daemon cut us
  }
  EXPECT_TRUE(
      WaitFor([&] { return daemon.counters().timed_out.load() >= 1; }, 5000));
  EXPECT_TRUE(
      WaitFor([&] { return daemon.counters().active.load() == 0; }, 2000));
  ::close(fd);
  daemon.Stop();
}

TEST(ServeChaosTest, StopDrainsTheInFlightRequest) {
  const std::string dir = FreshDir("drain");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.drain_timeout_ms = 2000;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  // A unix-socket send lands synchronously in the daemon's buffer, so
  // once the accept is confirmed this request is in flight when Stop()
  // begins — and the drain contract says in-flight requests still get
  // their replies before the daemon exits.
  const int fd = RawConnectUnix(dir + "/sock");
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      WaitFor([&] { return daemon.counters().accepted.load() >= 1; }, 2000));
  ASSERT_TRUE(RawSendAll(fd, "ping\n"));
  daemon.Stop();
  std::string pending, line;
  EXPECT_TRUE(RawReadLine(fd, 2000, &pending, &line));
  EXPECT_EQ(line, "ok pong");
  ::close(fd);
}

TEST(ServeChaosTest, HalfClosedPeerStillGetsItsReplies) {
  const std::string dir = FreshDir("halfclose");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  // Send two pipelined requests, then close our write side. The
  // daemon sees the EOF only after answering every complete line it
  // already holds, so both replies must come back before our EOF.
  const int fd = RawConnectUnix(dir + "/sock");
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(RawSendAll(fd, "ping\nlist\n"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string pending, line;
  ASSERT_TRUE(RawReadLine(fd, 2000, &pending, &line));
  EXPECT_EQ(line, "ok pong");
  ASSERT_TRUE(RawReadLine(fd, 2000, &pending, &line));
  EXPECT_EQ(line, "ok 0");
  EXPECT_FALSE(RawReadLine(fd, 500, &pending, &line));  // clean EOF
  ::close(fd);
  daemon.Stop();
}

TEST(ServeChaosTest, RequestBudgetBoundsOneConnection) {
  const std::string dir = FreshDir("budget");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.max_requests_per_connection = 3;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  ServeClient c;
  ASSERT_TRUE(c.Connect(daemon.endpoint(), &error)) << error;
  std::string response;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(c.Request("ping", &response, &error)) << error;
    EXPECT_EQ(response, "ok pong") << i;
  }
  ASSERT_TRUE(c.Request("ping", &response, &error)) << error;
  EXPECT_EQ(response, "err request budget exhausted");
  // Reconnecting re-passes the cap check and earns a fresh budget.
  ServeClient fresh;
  ASSERT_TRUE(fresh.Connect(daemon.endpoint(), &error)) << error;
  ASSERT_TRUE(fresh.Request("ping", &response, &error)) << error;
  EXPECT_EQ(response, "ok pong");
  daemon.Stop();
}

TEST(ServeChaosTest, StatsReconcileWithTheTrafficServed) {
  // Every counter exercised once, then reconciled exactly: a loris
  // (timed out), two served clients (accepted, active, requests), one
  // shed flood connection, and the Start() rescan.
  const std::string dir = FreshDir("stats");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.idle_timeout_ms = 300;
  opts.max_connections = 2;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  const int loris = RawConnectUnix(dir + "/sock");
  ASSERT_GE(loris, 0);
  ASSERT_TRUE(WaitFor(
      [&] {
        return daemon.counters().timed_out.load() >= 1 &&
               daemon.counters().active.load() == 0;
      },
      5000));
  ::close(loris);

  ServeClient a, b;
  std::string response;
  ASSERT_TRUE(a.Connect(daemon.endpoint(), &error)) << error;
  ASSERT_TRUE(a.Request("ping", &response, &error)) << error;
  ASSERT_TRUE(b.Connect(daemon.endpoint(), &error)) << error;
  ASSERT_TRUE(b.Request("ping", &response, &error)) << error;
  const int shed = RawConnectUnix(dir + "/sock");
  ASSERT_GE(shed, 0);
  {
    std::string pending, line;
    ASSERT_TRUE(RawReadLine(shed, 2000, &pending, &line));
    EXPECT_EQ(line, "err busy");
  }
  ::close(shed);

  // The stats request counts itself: the daemon counts a line before
  // handling it, so `requests` here is ping + ping + stats = 3.
  ASSERT_TRUE(a.Request("stats", &response, &error)) << error;
  EXPECT_EQ(response,
            "ok accepted=3 active=2 shed=1 timed_out=1 requests=3 "
            "rescans=1");
  daemon.Stop();
}

/// Threads in this process, counted from /proc/self/task.
std::size_t ThreadCount() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

TEST(ServeChaosTest, IdleConnectionsHoldNoThreads) {
  const std::string dir = FreshDir("idlethreads");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;
  const std::size_t threads_before = ThreadCount();
  ASSERT_GT(threads_before, 0u);

  // Each peer is served once (so its accept surely happened) and then
  // sits idle: it must cost the daemon an fd, not a thread.
  std::vector<ServeClient> peers(32);
  for (ServeClient& peer : peers) {
    std::string response;
    ASSERT_TRUE(peer.Connect(daemon.endpoint(), 2000, &error)) << error;
    ASSERT_TRUE(peer.Request("ping", 2000, &response, &error)) << error;
    EXPECT_EQ(response, "ok pong");
  }
  EXPECT_EQ(daemon.counters().active.load(), 32u);
  EXPECT_LE(ThreadCount(), threads_before);
  daemon.Stop();
}

TEST(ServeChaosTest, StalledReaderDoesNotDelayOtherPeers) {
  const std::string dir = FreshDir("stallfair");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.write_timeout_ms = 3000;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  // Sixteen peers connect first, each served once, so they are spread
  // over the reactors before the stall begins...
  std::vector<ServeClient> clients(16);
  for (ServeClient& client : clients) {
    std::string response;
    ASSERT_TRUE(client.Connect(daemon.endpoint(), 1000, &error)) << error;
    ASSERT_TRUE(client.Request("ping", 1000, &response, &error)) << error;
  }
  // ...then a stalled reader pipelines thousands of requests and never
  // reads, so the daemon owes it replies for the rest of the test.
  const int stalled = RawConnectUnix(dir + "/sock");
  ASSERT_GE(stalled, 0);
  const int flags = ::fcntl(stalled, F_GETFL, 0);
  ASSERT_EQ(::fcntl(stalled, F_SETFL, flags | O_NONBLOCK), 0);
  std::string burst;
  for (int i = 0; i < 5000; ++i) burst += "stats\n";
  std::size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t n = ::send(stalled, burst.data() + sent,
                             burst.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN: our own buffer is full
  }
  ASSERT_TRUE(WaitFor(
      [&] { return daemon.counters().requests.load() >= 16 + 1; }, 2000));

  // With one reactor per core, some of the sixteen very likely share
  // the stalled peer's reactor. Each must still be answered promptly.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    std::string response;
    ASSERT_TRUE(clients[i].Request("ping", 1000, &response, &error))
        << i << ": " << error;
    EXPECT_EQ(response, "ok pong") << i;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(1000))
        << i;
  }
  // The stall was live throughout: nothing hit the write deadline yet.
  EXPECT_EQ(daemon.counters().timed_out.load(), 0u);
  ::close(stalled);
  daemon.Stop();
}

TEST(ServeChaosTest, StopDrainsEveryPeer) {
  const std::string dir = FreshDir("drainall");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.drain_timeout_ms = 2000;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  // Eight peers, spread over whichever reactors accepted them, each
  // with a request in flight when Stop() begins: every one of them is
  // answered before the daemon exits.
  std::vector<int> fds;
  for (int i = 0; i < 8; ++i) {
    const int fd = RawConnectUnix(dir + "/sock");
    ASSERT_GE(fd, 0) << i;
    fds.push_back(fd);
  }
  ASSERT_TRUE(
      WaitFor([&] { return daemon.counters().accepted.load() >= 8; }, 2000));
  for (int fd : fds) ASSERT_TRUE(RawSendAll(fd, "ping\n"));
  daemon.Stop();
  for (std::size_t i = 0; i < fds.size(); ++i) {
    std::string pending, line;
    EXPECT_TRUE(RawReadLine(fds[i], 2000, &pending, &line)) << i;
    EXPECT_EQ(line, "ok pong") << i;
    ::close(fds[i]);
  }
}

// ------------------------------------------------ client retry policy

TEST(ServeClientRetryTest, ConnectTimeoutIsBoundedAndRetried) {
  // A listener that never accepts, with the smallest backlog the OS
  // allows: once the accept queue is full, further connects hang in
  // SYN retransmission — exactly the hung-daemon case the connect
  // deadline exists for.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 0), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::string endpoint =
      "tcp:127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  // Fill the accept queue with nonblocking fillers until one fails to
  // complete its handshake within 100 ms — proof the queue is full.
  std::vector<int> fillers;
  bool saturated = false;
  for (int i = 0; i < 64 && !saturated; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
    if (rc == 0) continue;
    if (errno != EINPROGRESS) break;
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 100) == 0) saturated = true;
  }
  if (!saturated) {
    for (int fd : fillers) ::close(fd);
    ::close(lfd);
    GTEST_SKIP() << "could not saturate the accept queue on this kernel";
  }

  RetryOptions ropts;
  ropts.max_retries = 2;
  ropts.connect_timeout_ms = 100;
  ropts.backoff_base_ms = 10;
  ropts.backoff_max_ms = 40;
  ropts.jitter_seed = 7;
  const QueryOutcome out = QueryWithRetry(endpoint, "ping", ropts);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.timed_out) << out.error;
  EXPECT_EQ(out.attempts, 3);
  // Backoff before retry k is drawn from [b/2, b], b = base << k capped.
  ASSERT_EQ(out.backoff_ms.size(), 2u);
  EXPECT_GE(out.backoff_ms[0], 5);
  EXPECT_LE(out.backoff_ms[0], 10);
  EXPECT_GE(out.backoff_ms[1], 10);
  EXPECT_LE(out.backoff_ms[1], 20);
  for (int fd : fillers) ::close(fd);
  ::close(lfd);
}

TEST(ServeClientRetryTest, BusyShedRetriesUntilASlotFrees) {
  const std::string dir = FreshDir("busyretry");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.max_connections = 1;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  // One holder takes the only slot; it releases after ~150 ms. The
  // retrying client must absorb the "err busy" sheds in between and
  // land its request once the slot frees.
  ServeClient holder;
  std::string response;
  ASSERT_TRUE(holder.Connect(daemon.endpoint(), &error)) << error;
  ASSERT_TRUE(holder.Request("ping", &response, &error)) << error;
  std::thread releaser([&holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::string r, e;
    holder.Request("quit", &r, &e);
  });

  RetryOptions ropts;
  ropts.max_retries = 10;
  ropts.connect_timeout_ms = 2000;
  ropts.request_timeout_ms = 2000;
  ropts.backoff_base_ms = 25;
  ropts.backoff_max_ms = 100;
  ropts.jitter_seed = 42;
  const QueryOutcome out = QueryWithRetry(daemon.endpoint(), "ping", ropts);
  releaser.join();
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.response, "ok pong");
  EXPECT_GE(out.attempts, 2);  // at least one shed before the slot freed
  long long bound = 25;
  for (std::size_t k = 0; k < out.backoff_ms.size(); ++k) {
    EXPECT_GE(out.backoff_ms[k], bound / 2) << k;
    EXPECT_LE(out.backoff_ms[k], bound) << k;
    bound = std::min<long long>(bound * 2, 100);
  }
  daemon.Stop();
}

TEST(ServeClientRetryTest, RetryBudgetExhaustsAgainstAStuckDaemon) {
  const std::string dir = FreshDir("busystuck");
  SummaryRegistry registry(dir);
  ServeDaemon daemon(&registry);
  ServeOptions opts;
  opts.listen = "unix:" + dir + "/sock";
  opts.rescan_interval_ms = 0;
  opts.max_connections = 1;
  std::string error;
  ASSERT_TRUE(daemon.Start(opts, &error)) << error;

  ServeClient holder;  // never releases
  std::string response;
  ASSERT_TRUE(holder.Connect(daemon.endpoint(), &error)) << error;
  ASSERT_TRUE(holder.Request("ping", &response, &error)) << error;

  RetryOptions ropts;
  ropts.max_retries = 2;
  ropts.connect_timeout_ms = 1000;
  ropts.request_timeout_ms = 1000;
  ropts.backoff_base_ms = 10;
  ropts.backoff_max_ms = 20;
  ropts.jitter_seed = 9;
  const QueryOutcome out = QueryWithRetry(daemon.endpoint(), "ping", ropts);
  // Every attempt was shed: the budget is spent, and the outcome
  // surfaces the busy state — never a fabricated success.
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.backoff_ms.size(), 2u);
  EXPECT_NE(out.response, "ok pong");
  if (out.ok) {
    EXPECT_EQ(out.response.rfind("err busy", 0), 0u) << out.response;
    EXPECT_EQ(out.error, "daemon busy");
  } else {
    EXPECT_FALSE(out.error.empty());
  }
  daemon.Stop();
}

TEST(ServeClientRetryTest, DeliveredRequestIsNeverReplayed) {
  // A fake daemon that reads the request line and closes without
  // replying. The client cannot know whether the request executed, so
  // retrying could double-count: the policy must fail after ONE
  // attempt, with zero backoff sleeps, despite a generous retry budget.
  const std::string dir = FreshDir("noreplay");
  const std::string path = dir + "/sock";
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  std::thread server([lfd] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) return;
    char buf[256];
    std::string got;
    while (got.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(cfd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.append(buf, static_cast<std::size_t>(n));
    }
    ::close(cfd);
  });

  RetryOptions ropts;
  ropts.max_retries = 5;
  ropts.connect_timeout_ms = 1000;
  ropts.request_timeout_ms = 500;
  ropts.backoff_base_ms = 10;
  ropts.jitter_seed = 3;
  const QueryOutcome out =
      QueryWithRetry("unix:" + path, "estimate prod 1", ropts);
  server.join();
  ::close(lfd);
  ::unlink(path.c_str());
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 1);  // delivered once, never replayed
  EXPECT_TRUE(out.backoff_ms.empty());
  EXPECT_FALSE(out.error.empty());
}

}  // namespace
}  // namespace logr
