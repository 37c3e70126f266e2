// Fixed-size worker pool for the parallel execution engine.
//
// Design constraints, in order:
//   1. Determinism. Parallel callers must produce bit-identical results to
//      the serial engine, so the pool only provides *scheduling*, never
//      ordering: ParallelFor hands out index chunks through a shared
//      cursor, and callers own the deterministic merge of per-chunk
//      results.
//   2. Cooperative cancellation. Every dispatch loop polls the optional
//      ResourceGovernor; once a deadline/budget/cancel trip is observed no
//      further chunk is claimed, so a tripped query unwinds quickly on all
//      workers instead of racing to finish.
//   3. Nested use without deadlock. A ParallelFor caller always executes
//      chunks itself (it is one of the lanes), so progress never depends on
//      a pool worker being free — operators may run ParallelFor from inside
//      a tree-wave task that itself runs on the pool.
//
// The process-wide Shared() pool is grown on demand and reused across
// queries; per-call concurrency is bounded by the `lanes` argument (the
// query's num_threads knob), not by the pool size.

#ifndef HTQO_UTIL_THREAD_POOL_H_
#define HTQO_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/governor.h"

namespace htqo {

class ThreadPool {
 public:
  // Spawns `workers` threads (0 is allowed: every ParallelFor then runs
  // entirely on the calling thread).
  explicit ThreadPool(std::size_t workers);
  // Drains the queue and joins. Outstanding tasks run to completion.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Shared() clamps every request to this. Thread counts come from outside
  // input (--threads, \threads); the cap keeps a bad value from stalling
  // the host under hundreds of workers.
  static constexpr std::size_t kMaxThreads = 64;

  std::size_t workers() const { return threads_.size(); }

  // Enqueues a task; the future resolves when it has run. Tasks must not
  // throw (the engine is exception-free by design).
  std::future<void> Submit(std::function<void()> task);

  // Runs body(chunk_begin, chunk_end) over [begin, end) split into chunks
  // of at least `grain` indices, using at most `lanes` concurrent lanes
  // (the calling thread is always one of them). Blocks until every claimed
  // chunk has finished. When `governor` is non-null and trips, no further
  // chunk is claimed; chunks already running finish normally. The body is
  // responsible for its own error capture (e.g. a per-chunk Status array).
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   std::size_t lanes, ResourceGovernor* governor,
                   const std::function<void(std::size_t, std::size_t)>& body);

  // Process-wide pool for `num_threads`-way execution: returns nullptr when
  // num_threads <= 1 (serial), otherwise a pool with at least
  // min(num_threads, kMaxThreads) - 1 workers. The pool is created lazily,
  // grown when a larger request arrives, and intentionally leaked at exit.
  // Growth joins the previous pool, so it must not race with in-flight
  // queries; the engine runs one query at a time per process, which the
  // callers (HybridOptimizer, benches, tests) respect.
  static ThreadPool* Shared(std::size_t num_threads);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutdown_ = false;
};

}  // namespace htqo

#endif  // HTQO_UTIL_THREAD_POOL_H_
