// logr_serve — workload-analytics daemon over a directory of summaries.
//
//   logr_serve --dir DIR [--listen ENDPOINT] [--rescan-ms N]
//              [--max-conns N] [--idle-ms N] [--drain-ms N]
//
// Loads every *.logr summary in DIR and serves the line protocol
// (serve/protocol.h) on ENDPOINT — "unix:PATH" for a Unix domain
// socket, "tcp:HOST:PORT" / "PORT" for TCP; port 0 picks an ephemeral
// port, printed on startup. The directory is rescanned every
// --rescan-ms milliseconds (default 500): drop a new summary in (the
// compressor's WriteSummaryFile renames it into place atomically) and
// it goes live without a restart, while in-flight requests drain on
// the snapshot they started with.
//
// The daemon runs one poll reactor thread per core plus the directory
// watch, however many peers connect: an idle connection costs an fd,
// not a thread. It is hardened for hostile and overload traffic:
// --max-conns caps concurrent connections, and so open fds (extras get
// an explicit "err busy" and should retry with backoff — `logr_cli
// query --retries`), --idle-ms cuts slow-loris peers that never send a
// request line, and SIGINT/SIGTERM drain gracefully: requests already
// received finish and flush their replies, bounded by --drain-ms. The
// `stats` protocol verb reports accepted/active/shed/timed-out/
// requests/rescans. Every numeric flag takes decimal digits only, up
// to INT_MAX; anything else exits 2 with the usage text.
//
// Try it:
//   logr_cli compress --out summaries/prod.logr prod.sql
//   logr_serve --dir summaries --listen tcp:127.0.0.1:7979 &
//   logr_cli query tcp:127.0.0.1:7979 estimate prod "FROM:orders"
//   printf 'list\nquit\n' | nc 127.0.0.1 7979
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdio>
#include <string>

#include "serve/server.h"
#include "serve/summary_registry.h"
#include "util/flags.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: logr_serve --dir DIR [--listen ENDPOINT] "
               "[--rescan-ms N]\n"
               "                  [--max-conns N] [--idle-ms N] "
               "[--drain-ms N]\n"
               "  ENDPOINT: unix:PATH | tcp:HOST:PORT | PORT "
               "(default tcp:127.0.0.1:0 = ephemeral)\n"
               "  --max-conns: concurrent-connection cap; extras get "
               "'err busy' (default 64, 0 = off)\n"
               "  --idle-ms:   per-connection idle/read deadline "
               "(default 30000, 0 = off)\n"
               "  --drain-ms:  shutdown drain budget for in-flight "
               "requests (default 2000)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  logr::ServeOptions opts;
  std::string error;
  if (!logr::ParseFlags(
          {argv + 1, argv + argc},
          {{"--dir", &dir},
           {"--listen", &opts.listen},
           {"--rescan-ms", &opts.rescan_interval_ms},
           {"--max-conns", &opts.max_connections, 0, INT_MAX},
           {"--idle-ms", &opts.idle_timeout_ms},
           {"--drain-ms", &opts.drain_timeout_ms}},
          {}, &error)) {
    std::fprintf(stderr, "logr_serve: %s\n", error.c_str());
    return Usage();
  }
  if (dir.empty()) return Usage();

  logr::SummaryRegistry registry(dir);
  logr::ServeDaemon daemon(&registry);
  if (!daemon.Start(opts, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  // One line, flushed, so wrapper scripts can scrape the endpoint (the
  // ephemeral-port case) before the first client connects.
  std::printf("serving %s at %s (%zu summaries)\n", dir.c_str(),
              daemon.endpoint().c_str(), registry.List().size());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) ::pause();

  daemon.Stop();
  std::printf("stopped after %llu connections\n",
              static_cast<unsigned long long>(daemon.ConnectionsAccepted()));
  return 0;
}
