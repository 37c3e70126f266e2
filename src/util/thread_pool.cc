#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace htqo {

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain, std::size_t lanes,
    ResourceGovernor* governor,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t total = end - begin;
  const std::size_t num_chunks = (total + grain - 1) / grain;
  lanes = std::max<std::size_t>(lanes, 1);
  const std::size_t helpers =
      std::min({lanes - 1, num_chunks - 1, threads_.size()});

  // Shared dispatch state. Helpers submitted to the queue may start late —
  // or, under a tripped governor, effectively never claim work — so the
  // join condition is "no chunk in flight and none claimable", tracked
  // here, not task completion. shared_ptr keeps the state alive for
  // stragglers that wake after the caller has returned.
  struct Loop {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> active{0};
    std::mutex m;
    std::condition_variable done;
  };
  auto loop = std::make_shared<Loop>();

  // Decrement-and-maybe-notify. Taking the mutex before notifying closes
  // the classic lost-wakeup window against a caller that has evaluated the
  // wait predicate but not yet blocked.
  auto leave = [loop] {
    if (loop->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> g(loop->m);
      loop->done.notify_all();
    }
  };
  // Claim order matters for lifetime safety: a runner must CLAIM before it
  // touches `governor` or `body`, both of which may dangle once the caller
  // has returned. The caller drains the cursor before its join below, so a
  // straggler task that dequeues late fails its claim and exits without
  // dereferencing anything caller-owned (beyond the shared Loop).
  auto runner = [loop, leave, begin, end, grain, num_chunks, governor, body] {
    for (;;) {
      loop->active.fetch_add(1, std::memory_order_acq_rel);
      std::size_t chunk = loop->next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) {
        leave();
        return;
      }
      if (governor != nullptr && governor->exhausted()) {
        // Cooperative cancellation: drain the cursor so no lane (including
        // one yet to start) claims the remaining chunks, then bow out. The
        // claimed-but-unrun chunk is fine — after a trip the whole result
        // is discarded.
        loop->next.store(num_chunks, std::memory_order_relaxed);
        leave();
        return;
      }
      std::size_t lo = begin + chunk * grain;
      std::size_t hi = std::min(end, lo + grain);
      body(lo, hi);
      leave();
    }
  };

  for (std::size_t i = 0; i < helpers; ++i) Submit(runner);
  runner();  // the caller is always a lane: progress without free workers

  // Drain before joining: the caller's runner stopped because the cursor
  // ran dry or the governor tripped; either way no further chunk may run.
  // After this store, any late helper's claim fails, so it can no longer
  // reach `body` or `governor` once we return.
  loop->next.store(num_chunks, std::memory_order_release);

  // Wait out helpers' in-flight chunks. Helpers that wake later leave the
  // state untouched beyond a transient active bump with no body run.
  std::unique_lock<std::mutex> lock(loop->m);
  loop->done.wait(lock, [&] {
    return loop->active.load(std::memory_order_acquire) == 0;
  });
}

ThreadPool* ThreadPool::Shared(std::size_t num_threads) {
  if (num_threads <= 1) return nullptr;
  num_threads = std::min(num_threads, kMaxThreads);
  static std::mutex mu;
  static ThreadPool* shared = nullptr;
  std::lock_guard<std::mutex> lock(mu);
  if (shared == nullptr || shared->workers() < num_threads - 1) {
    delete shared;  // joins the old workers; see header contract
    shared = new ThreadPool(num_threads - 1);
  }
  return shared;
}

}  // namespace htqo
