#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <exception>
#include <string>

#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/guard.h"

namespace feio::util {

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool parse_thread_count(std::string_view text, int& out) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  const bool number =
      text.size() <= 9 && ec == std::errc() && stop == end && value >= 1;
  if (!number && text != "all") return false;
  out = number ? value : 0;
  return true;
}

int resolve_threads(int threads) {
  return threads <= 0 ? hardware_threads() : threads;
}

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                  int threads) {
  if (n <= 0) return;
  const CancelToken* cancel = CancelToken::current();
  const GuardLimits* guard = current_guard();
  detail::FaultSet* faults = FaultScope::current();
  // errors[i] is written only by the lane that claimed i, and read only
  // after every helper is joined.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::atomic<std::int64_t> next{0};
  const auto lane = [&]() noexcept {
    ScopedCancel inherit_cancel(cancel);
    ScopedGuard inherit_guard(guard);
    ScopedFaultInherit inherit_faults(faults);
    for (std::int64_t i = next++; i < n; i = next++) {
      try {
        if (cancel != nullptr) cancel->check("parallel.chunk");
        fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> helpers;
  const std::int64_t lanes =
      std::min<std::int64_t>(resolve_threads(threads), n);
  for (std::int64_t h = 1; h < lanes; ++h) {
    try {
      helpers.emplace_back(lane);
    } catch (const std::exception&) {
      break;  // the lanes already running claim this helper's indices
    }
  }
  lane();  // the caller is a full participant
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

ThreadPool::ThreadPool(int workers) {
  try {
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (const std::exception& e) {
    stop_and_join();
    throw Error("cannot start worker thread " +
                std::to_string(threads_.size() + 1) + " of " +
                std::to_string(workers) + ": " + e.what());
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
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

void ThreadPool::post(std::function<void()> task) {
  FEIO_ASSERT(!threads_.empty());
  {
    MutexLock lock(mu_);
    queue_.emplace_back(std::move(task));
  }
  cv_.notify_one();
}

}  // namespace feio::util
