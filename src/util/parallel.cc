#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/guard.h"

namespace feio::util {
namespace {

std::atomic<int> g_default_threads{1};

thread_local bool tl_on_worker = false;

std::int64_t chunk_begin(std::int64_t n, int chunks, int c) {
  return n * static_cast<std::int64_t>(c) / chunks;
}

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool parse_thread_count(std::string_view text, int& out) {
  if (text == "all") {
    out = 0;
    return true;
  }
  if (text.empty() || text.size() > 9) return false;  // 9 digits can't overflow
  long value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  if (value < 1) return false;
  out = static_cast<int>(value);
  return true;
}

void set_default_threads(int n) {
  g_default_threads.store(n <= 0 ? hardware_threads() : n,
                          std::memory_order_relaxed);
}

int default_threads() {
  return g_default_threads.load(std::memory_order_relaxed);
}

int resolve_threads(int threads) {
  if (threads == 0) return default_threads();
  if (threads < 0) return hardware_threads();
  return threads;
}

int chunk_count(std::int64_t n, int threads) {
  const std::int64_t t = resolve_threads(threads);
  return static_cast<int>(std::max<std::int64_t>(1, std::min(t, n)));
}

ScopedThreads::ScopedThreads(int n) {
  if (n == 0) return;
  saved_ = default_threads();
  active_ = true;
  set_default_threads(n);
}

ScopedThreads::~ScopedThreads() {
  if (active_) set_default_threads(saved_);
}

ThreadPool::ThreadPool(int workers) {
  const int n = std::max(0, workers);
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  tl_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) lock.wait(cv_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() { return tl_on_worker; }

void ThreadPool::post(std::function<void()> task) {
  FEIO_ASSERT(!threads_.empty());
  {
    MutexLock lock(mu_);
    queue_.emplace_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::run_chunks(std::int64_t n, int chunks,
                            const ChunkBody& body) {
  if (n <= 0) return;
  const int c_total =
      static_cast<int>(std::min<std::int64_t>(std::max(chunks, 1), n));

  // The submitting thread's robustness context, captured once here and
  // re-installed on whichever thread executes each chunk. Chunks inherit
  // the job's cancel token, guard limits and armed faults exactly as if
  // they ran inline on the submitter.
  const CancelToken* cancel = CancelToken::current();
  const GuardLimits* guard = current_guard();
  detail::FaultSet* faults = FaultScope::current();

  const ChunkBody inherit_body = [&body, cancel, guard, faults](
                                     int c, std::int64_t begin,
                                     std::int64_t end) {
    ScopedCancel inherit_cancel(cancel);
    ScopedGuard inherit_guard(guard);
    ScopedFaultInherit inherit_faults(faults);
    if (cancel != nullptr) cancel->check("parallel.chunk");
    body(c, begin, end);
  };

  // Serial path: one chunk, no workers, or a nested call from a worker
  // thread. Runs the *same* chunk partition in ascending order, so results
  // and exception choice match the parallel path exactly.
  if (c_total == 1 || threads_.empty() || tl_on_worker) {
    std::exception_ptr first;
    for (int c = 0; c < c_total; ++c) {
      try {
        inherit_body(c, chunk_begin(n, c_total, c),
                     chunk_begin(n, c_total, c + 1));
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }

  // Shared state outlives run_chunks: a queued helper that only wakes after
  // every chunk is claimed must find valid memory, so everything it touches
  // lives in the shared_ptr. The body pointer is only dereferenced for a
  // successfully claimed chunk, all of which finish before we return.
  struct Batch {
    std::int64_t n = 0;
    int chunks = 0;
    const ChunkBody* body = nullptr;
    std::atomic<int> next{0};
    std::atomic<int> remaining{0};
    // errors is deliberately NOT guarded_by(mu): each slot c is written by
    // exactly the thread that claimed chunk c (claims are unique via the
    // `next` fetch_add), and all writes are published to the waiting reader
    // by the acq_rel fetch_sub on `remaining` before `done` is signalled.
    std::vector<std::exception_ptr> errors;
    Mutex mu;
    std::condition_variable done_cv;
    bool done FEIO_GUARDED_BY(mu) = false;
  };
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->chunks = c_total;
  batch->body = &inherit_body;
  batch->remaining.store(c_total, std::memory_order_relaxed);
  batch->errors.resize(static_cast<size_t>(c_total));

  auto claim_loop = [batch] {
    for (;;) {
      const int c = batch->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= batch->chunks) return;
      try {
        (*batch->body)(c, chunk_begin(batch->n, batch->chunks, c),
                       chunk_begin(batch->n, batch->chunks, c + 1));
      } catch (...) {
        batch->errors[static_cast<size_t>(c)] = std::current_exception();
      }
      if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(batch->mu);
        batch->done = true;
        batch->done_cv.notify_all();
      }
    }
  };

  {
    MutexLock lock(mu_);
    const int helpers = std::min(c_total - 1, workers());
    for (int i = 0; i < helpers; ++i) queue_.emplace_back(claim_loop);
  }
  cv_.notify_all();

  claim_loop();  // the submitting thread is a full participant

  {
    MutexLock lock(batch->mu);
    while (!batch->done) lock.wait(batch->done_cv);
  }
  // Lowest-indexed failure wins — the one a serial sweep would throw first.
  for (const std::exception_ptr& e : batch->errors) {
    if (e) std::rethrow_exception(e);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(hardware_threads() - 1);
  return pool;
}

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                  int threads) {
  ThreadPool::shared().run_chunks(
      n, chunk_count(n, threads),
      [&fn](int, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) fn(i);
      });
}

}  // namespace feio::util
