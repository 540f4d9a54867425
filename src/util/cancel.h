// Deadlines and cooperative cancellation for pipeline runs.
//
// The 1970 pitch is that the analyst always gets an answer back — a listing,
// a diagnostic, or a plot — never a hang. A service front end (feio serve)
// needs the machine-checkable form of that promise: every pipeline stage
// must be interruptible, so a job that exceeds its time budget terminates
// with a structured E-RES-005 diagnostic instead of occupying a worker lane
// forever.
//
// Model:
//   - A CancelToken carries a manual cancel flag and an optional wall-clock
//     deadline (steady_clock). Both are observed cooperatively: long-running
//     loops call FEIO_CHECK_CANCEL(site), which throws util::Cancelled when
//     the token is cancelled or past its deadline.
//   - The token reaches deep loops the same way the tracer does: a
//     thread-local "current" pointer installed by ScopedCancel (plumbed from
//     feio::RunOptions by the pipeline entry points). util::parallel_for
//     re-installs the calling thread's token on every lane of a batch and
//     checks it before each item, so cancellation works identically at any
//     thread count.
//   - Determinism: checks only ever *abort* a run (by throwing); they never
//     steer it. A run that finishes under its deadline is byte-identical to
//     an undeadlined run; a run that does not finish produces no partial
//     output — the exception unwinds through run_checked into a diagnostic.
//
// Cost when off: FEIO_CHECK_CANCEL is one thread-local pointer load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/error.h"

namespace feio::util {

// Thrown by CancelToken::check() when the token is cancelled or past its
// deadline. Carries the E-RES-005 code so run_checked maps it onto the
// documented diagnostic (docs/ROBUSTNESS.md).
class Cancelled : public ResourceError {
 public:
  // `site` names the check point that observed the cancellation
  // ("fem.factorize.panel", "parallel.chunk", ...); `deadline` tells a
  // timeout apart from a manual cancel in the message.
  Cancelled(const char* site, bool deadline);
};

class CancelToken {
 public:
  // A token that never fires until cancel() is called.
  CancelToken() = default;
  // A token that additionally fires once `budget` elapses (measured from
  // now on the steady clock). A zero or negative budget is already expired.
  explicit CancelToken(std::chrono::nanoseconds budget);
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Requests cancellation. Thread-safe; may be called from any thread while
  // workers are mid-run — they observe it at their next check point.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  // True when cancel() was called or the deadline has passed.
  bool expired() const;

  // Throws Cancelled when expired. `site` labels the observing check point.
  void check(const char* site) const;

  // The calling thread's installed token, or nullptr (no cancellation).
  static const CancelToken* current();

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

// Installs `t` as the calling thread's current token for the scope; restores
// the previous token on destruction. A null `t` is a no-op (the surrounding
// token, if any, stays current) — this lets RunOptions plumbing install
// unconditionally. util::parallel_for uses the same scope to carry the
// calling thread's token onto every lane of a batch.
class ScopedCancel {
 public:
  explicit ScopedCancel(const CancelToken* t);
  ~ScopedCancel();
  ScopedCancel(const ScopedCancel&) = delete;
  ScopedCancel& operator=(const ScopedCancel&) = delete;

 private:
  const CancelToken* previous_ = nullptr;
  bool installed_ = false;
};

}  // namespace feio::util

// Cooperative cancellation check point: throws feio::util::Cancelled when
// the calling thread's current token is cancelled or past its deadline.
// One thread-local load when no token is installed. Call at loop granularity
// coarse enough to stay off profiles (batch items, solver panels,
// pipeline stages) — never per element of a hot inner loop.
#define FEIO_CHECK_CANCEL(site)                                        \
  do {                                                                 \
    if (const ::feio::util::CancelToken* feio_cancel_tok =             \
            ::feio::util::CancelToken::current()) {                    \
      feio_cancel_tok->check(site);                                    \
    }                                                                  \
  } while (0)
