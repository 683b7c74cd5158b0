#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "trace.h"

namespace e2e {

namespace {

// Deadlines that only bound a hung daemon; a healthy one answers in
// microseconds to milliseconds.
constexpr int kConnectTimeoutMs = 5000;
constexpr int kRequestTimeoutMs = 10000;

// Sleep until this long before a request is due, then spin: sleeping
// the whole way would add the kernel's timer slack to every request.
constexpr std::int64_t kSpinNs = 60000;

// Open-loop senders replace their connection this often. The daemon
// serves each connection on a thread of its own, and a thread tends to
// stay on one vCPU; on a shared host one vCPU can run slow for seconds.
// Fresh connections spread the requests over threads placed anew, so no
// one vCPU's slow stretch sets the run's latency. The first request of
// each connection also pays for the connect.
constexpr std::int64_t kRenewNs = 500000000;

constexpr char kBudgetExhausted[] = "err request budget exhausted";

void WaitUntil(std::int64_t due_ns) {
  const std::int64_t ahead = due_ns - NowNs();
  if (ahead > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

/// Per-thread slice of a LoadResult, merged after the join.
struct Partial {
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::int64_t last_send_ns = 0;
  std::int64_t last_reply_ns = 0;
};

/// Sends one request on `conn` and files the outcome in `out`, and its
/// latency in `(*latency_us)[i]` when `latency_us` is set.
void SendOne(Connection* conn, const std::vector<std::string>& lines,
             const ReplyCheck& check, std::size_t i, std::int64_t due_ns,
             bool record_spans, std::uint64_t request, Partial* out,
             std::vector<float>* latency_us) {
  const std::size_t index = i % lines.size();
  std::string reply, error;
  std::int64_t send_ns = 0;
  ++out->attempted;
  const bool sent = conn->Call(lines[index], &reply, &send_ns, &error);
  const std::int64_t reply_ns = NowNs();
  out->last_send_ns = std::max(out->last_send_ns, send_ns);
  out->last_reply_ns = reply_ns;
  if (!sent || !check(index, reply)) {
    ++out->failed;
    if (out->first_failure.empty()) {
      out->first_failure = lines[index] + " -> " + (sent ? reply : error);
    }
    return;
  }
  ++out->completed;
  if (latency_us != nullptr) {
    (*latency_us)[i] = static_cast<float>(reply_ns - due_ns) / 1e3f;
  }
  if (record_spans) {
    const SpanHandle root =
        Tracer::Add("bench.request", due_ns, reply_ns, request, kNoSpan);
    Tracer::Add("bench.queue_wait", due_ns, send_ns, request, root);
    Tracer::Add("serve.request", send_ns, reply_ns, request, root);
  }
}

LoadResult Merge(const std::vector<Partial>& parts, std::int64_t t0_ns) {
  LoadResult result;
  std::uint64_t completed = 0;
  std::int64_t last_reply = t0_ns;
  for (const Partial& p : parts) {
    completed += p.completed;
    result.attempted += p.attempted;
    result.failed += p.failed;
    if (result.first_failure.empty()) result.first_failure = p.first_failure;
    last_reply = std::max(last_reply, p.last_reply_ns);
  }
  if (last_reply > t0_ns) {
    result.achieved_rate = static_cast<double>(completed) * 1e9 /
                           static_cast<double>(last_reply - t0_ns);
  }
  return result;
}

}  // namespace

bool Connection::Call(const std::string& line, std::string* reply,
                      std::int64_t* send_ns, std::string* error) {
  // At most one resend: a fresh connection has a whole request budget.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!client_.connected()) {
      if (!client_.Connect(endpoint_, kConnectTimeoutMs, error)) return false;
      tally_->connects.fetch_add(1);
    }
    *send_ns = NowNs();
    const bool ok = client_.Request(line, kRequestTimeoutMs, reply, error);
    if (client_.last_request_delivered()) tally_->lines.fetch_add(1);
    if (!ok) {
      client_.Close();
      return false;
    }
    if (*reply != kBudgetExhausted) return true;
    client_.Close();
    tally_->reconnects.fetch_add(1);
  }
  *error = "request budget exhausted twice in a row";
  return false;
}

LoadResult RunOpenLoop(const std::string& endpoint,
                       const std::vector<std::string>& lines,
                       const ReplyCheck& check, double rate, double seconds,
                       int connections, Tally* tally,
                       std::uint64_t first_request_id) {
  const std::size_t total = static_cast<std::size_t>(rate * seconds);
  const double period_ns = 1e9 / rate;
  std::vector<Connection> conns;
  conns.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) conns.emplace_back(endpoint, tally);

  std::atomic<std::size_t> next{0};
  std::vector<Partial> parts(static_cast<std::size_t>(connections));
  // Each request index is claimed by one thread, so the writes are disjoint.
  std::vector<float> latency_us(total, std::nanf(""));
  const bool trace = Tracer::On();
  // Leave the threads a moment to start before the first request is due.
  const std::int64_t t0 = NowNs() + 5000000;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Partial& out = parts[static_cast<std::size_t>(c)];
      Connection& conn = conns[static_cast<std::size_t>(c)];
      std::int64_t renew_at = t0 + kRenewNs;
      for (std::size_t i; (i = next.fetch_add(1)) < total;) {
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
        WaitUntil(due);
        if (due >= renew_at) {
          conn.Renew();
          renew_at = due + kRenewNs;
        }
        SendOne(&conn, lines, check, i, due, trace, first_request_id + i, &out,
                &latency_us);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult result = Merge(parts, t0);
  result.latency_us = std::move(latency_us);
  // The rate the generator delivered: sends from the first due time to
  // the last send, so the last reply's latency is not charged to it.
  std::int64_t last_send = t0;
  for (const Partial& p : parts) {
    last_send = std::max(last_send, p.last_send_ns);
  }
  if (result.attempted > 1 && last_send > t0) {
    result.achieved_rate = static_cast<double>(result.attempted - 1) * 1e9 /
                           static_cast<double>(last_send - t0);
  }
  return result;
}

LoadResult RunClosedLoop(const std::string& endpoint,
                         const std::vector<std::string>& lines,
                         const ReplyCheck& check, double seconds,
                         std::size_t max_requests, int clients, Tally* tally,
                         bool record_spans, std::uint64_t first_request_id) {
  std::vector<Connection> conns;
  conns.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) conns.emplace_back(endpoint, tally);

  std::atomic<std::size_t> next{0};
  std::vector<Partial> parts(static_cast<std::size_t>(clients));
  const bool trace = record_spans && Tracer::On();
  const std::int64_t t0 = NowNs();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Partial& out = parts[static_cast<std::size_t>(c)];
      std::int64_t free_at = NowNs();
      for (std::size_t i;
           free_at < stop && (i = next.fetch_add(1)) < max_requests;) {
        SendOne(&conns[static_cast<std::size_t>(c)], lines, check, i, free_at,
                trace, first_request_id + i, &out, nullptr);
        free_at = NowNs();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Merge(parts, t0);
}

}  // namespace e2e
