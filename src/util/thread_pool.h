// Fixed-size worker pool for data-parallel hot paths (distance matrices,
// k-means assignment).
//
// Every parallel loop goes through one entry point, the free ParallelFor
// below, chosen so that callers stay bit-deterministic: iterations write
// to disjoint, index-addressed slots and any order-sensitive reduction is
// done serially by the caller afterwards. Scheduling (inline or pooled,
// dynamic block claiming) therefore never changes results, only
// wall-clock time.
#ifndef LOGR_UTIL_THREAD_POOL_H_
#define LOGR_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/flags.h"

namespace logr {

class ThreadPool {
 public:
  /// Starts `num_threads` workers. 0 or 1 creates a degenerate pool on
  /// which ParallelFor runs inline on the calling thread.
  explicit ThreadPool(std::size_t num_threads) {
    if (num_threads <= 1) return;
    workers_.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (1 for a degenerate/inline pool).
  std::size_t NumThreads() const {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// Process-wide pool sized from the LOGR_THREADS environment variable,
  /// defaulting to the hardware concurrency. Intentionally leaked so it
  /// outlives static destructors.
  static ThreadPool* Shared() {
    static ThreadPool* pool = new ThreadPool(SharedSize());
    return pool;
  }

  /// Queues [begin, end) in blocks of `block` and blocks until every
  /// iteration completed. The calling thread participates, so the pool
  /// makes progress even while its workers are busy elsewhere. `fn` must
  /// tolerate concurrent calls on distinct indices. If `fn` throws,
  /// remaining iterations are abandoned and the first exception is
  /// rethrown on the calling thread after every in-flight worker has
  /// stopped touching the job. Not reentrant: `fn` must not dispatch to
  /// this pool. Loops call ParallelFor, which picks `block`.
  void Dispatch(std::size_t begin, std::size_t end, std::size_t block,
                const std::function<void(std::size_t)>& fn) {
    const std::size_t n = end - begin;
    auto job = std::make_shared<ForJob>();
    job->next.store(begin);
    job->begin = begin;
    job->end = end;
    job->block = block;
    job->fn = &fn;

    const std::size_t helpers =
        std::min(workers_.size(), (n + block - 1) / block);
    job->pending.store(static_cast<long>(helpers));
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t t = 0; t < helpers; ++t) jobs_.push(job);
    }
    wake_.notify_all();

    RunJob(*job);  // caller helps

    {
      std::unique_lock<std::mutex> lock(job->done_mu);
      job->done_cv.wait(lock, [&] { return job->pending.load() == 0; });
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  struct ForJob {
    std::atomic<std::size_t> next{0};
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t block = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<long> pending{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::exception_ptr error;  // first exception thrown by `fn`
  };

  /// LOGR_THREADS (decimal digits in [1, 1024]) if set and nonempty,
  /// else the hardware concurrency.
  static std::size_t SharedSize() {
    const char* env = std::getenv("LOGR_THREADS");
    if (env == nullptr || *env == '\0') {
      return std::max(1u, std::thread::hardware_concurrency());
    }
    std::uint64_t threads = 0;
    LOGR_CHECK_MSG(ParseUint64(env, 1, 1024, &threads),
                   ("LOGR_THREADS=" + std::string(env) + " is not in [1, 1024]")
                       .c_str());
    return threads;
  }

  static void RunJob(ForJob& job) {
    try {
      for (;;) {
        std::size_t lo = job.next.fetch_add(job.block);
        if (lo >= job.end) break;
        std::size_t hi = std::min(job.end, lo + job.block);
        for (std::size_t i = lo; i < hi; ++i) (*job.fn)(i);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job.done_mu);
        if (!job.error) job.error = std::current_exception();
      }
      // Park the cursor past the end so no thread claims further blocks.
      job.next.store(job.end);
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<ForJob> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
        if (stopping_ && jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop();
      }
      RunJob(*job);
      bool last;
      {
        std::lock_guard<std::mutex> lock(job->done_mu);
        last = job->pending.fetch_sub(1) == 1;
      }
      if (last) job->done_cv.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::queue<std::shared_ptr<ForJob>> jobs_;
  bool stopping_ = false;
};

/// Grain of a loop whose every iteration is a whole task (one shard's
/// pipeline, one component's fit): the loop goes to the workers whenever
/// the pool has more than one, one index per block.
inline constexpr std::size_t kCoarseGrain = 1;

/// Grain of a hot loop with a short body: up to 64 iterations run inline,
/// since the job-queue round trip (lock, wakeup, completion wait) costs
/// more than such a loop and the adaptive strategy issues many tiny k=2
/// bisections. Longer ranges go out in blocks of n / (8 * workers), so
/// skewed iterations (e.g. triangular distance loops) balance
/// dynamically.
inline constexpr std::size_t kFineGrain = 65;

/// Runs `fn(i)` for every i in [begin, end) and returns once all
/// iterations completed. The loop runs inline, calling `fn` directly
/// with no std::function in between, when `pool` is null or has one
/// thread or when the range holds fewer than `grain` iterations.
/// Otherwise it is dispatched to `pool` (see ThreadPool::Dispatch for the
/// concurrency, exception and reentrancy contract) in one-index blocks
/// for a grain of kCoarseGrain or less, else in blocks of
/// max(1, n / (8 * workers)).
template <typename Fn>
void ParallelFor(ThreadPool* pool, std::size_t begin, std::size_t end,
                 std::size_t grain, Fn&& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (pool == nullptr || pool->NumThreads() <= 1 || n < grain) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t block =
      grain <= kCoarseGrain
          ? 1
          : std::max<std::size_t>(1, n / (pool->NumThreads() * 8));
  pool->Dispatch(begin, end, block, fn);
}

}  // namespace logr

#endif  // LOGR_UTIL_THREAD_POOL_H_
