// Threads start in exactly two places, each given an explicit count: the
// CLI's deck batches (parallel_for) and feio serve's job pool (ThreadPool).
// Every library stage runs serially inside one deck or job.
//
// parallel_for's contract:
//   1. Every index runs exactly once; callers merge per-index results in
//      ascending order, so output is byte-identical at any thread count.
//   2. Every index runs, then the lowest failing index's exception is
//      rethrown — the one a serial left-to-right sweep would throw first.
//   3. The caller's cancel token, guard limits and armed faults are
//      re-installed on every lane, and the token is checked before each
//      index (site "parallel.chunk"): a cancelled batch skips its remaining
//      indices and rethrows util::Cancelled through rule 2.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace feio::util {

// Number of hardware execution contexts, always >= 1.
int hardware_threads();

// Parses a --threads value: a positive integer of at most 9 digits, or "all"
// (returned as 0, every hardware thread). Anything else returns false and
// leaves `out` untouched.
bool parse_thread_count(std::string_view text, int& out);

// n >= 1 is n threads; n <= 0 is hardware_threads().
int resolve_threads(int threads);

// Runs fn(i) for every i in [0, n) on the caller plus helper threads started
// for this call and joined before it returns: min(resolve_threads(threads),
// n) lanes at most, each claiming the next unclaimed index. A helper the OS
// refuses to start leaves its indices to the lanes that did start. fn must
// tolerate concurrent invocation for distinct i.
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                  int threads);

// feio serve's job pool: a fixed set of workers running posted tasks.
class ThreadPool {
 public:
  // Starts `workers` threads. If the OS refuses one, the ones already
  // started are joined and feio::Error is thrown.
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task for some worker and returns at once; serve's
  // admission queue tracks completion. Requires a worker. A task must catch
  // everything it can raise: an escaping exception terminates the process.
  void post(std::function<void()> task);

 private:
  void worker_loop();
  void stop_and_join();  // workers drain the queue, then exit

  Mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ FEIO_GUARDED_BY(mu_);
  bool stop_ FEIO_GUARDED_BY(mu_) = false;
  // Written only by the constructor, so unguarded; CI's clang build proves
  // the members above are only touched under mu_.
  std::vector<std::thread> threads_;
};

}  // namespace feio::util
