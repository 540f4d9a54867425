// Span-based tracing for the IDLZ/OSPL pipeline.
//
// The 1970 programs printed stage-by-stage accounting because the analyst
// needed to see where an idealization run spent its effort; this is the
// modern equivalent: RAII spans (FEIO_TRACE_SPAN) recorded into per-thread
// buffers and rendered as Chrome trace-event JSON that loads directly in
// chrome://tracing or Perfetto (see docs/OBSERVABILITY.md).
//
// Design rules:
//   1. Zero cost when off. No tracer installed => a span is one relaxed
//      atomic load; no allocation, no lock, no clock read. Traced runs
//      produce byte-identical pipeline output to untraced runs — the
//      tracer only *observes*.
//   2. Thread-safe via per-thread buffers. Each thread appends to its own
//      buffer (registered under a mutex on first use); render_json() merges
//      the buffers in registration order, so a span that begins and ends on
//      a parallel_for lane or serve worker lands in that thread's lane
//      with balanced begin/end events.
//   3. Spans may be opened anywhere, including inside parallel_for items
//      and serve jobs; a span must begin and end on the same thread (RAII
//      guarantees this).
//
// Install a tracer for the process with Tracer::install()/uninstall() (the
// CLI does this for --trace FILE), or scope one with ScopedTracerInstall
// (feio::RunOptions plumbs it per run).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace feio::util {

// One trace event: a span begin ("B") or end ("E") in the Chrome
// trace-event sense. Timestamps are microseconds since the tracer was
// constructed, monotonic (steady_clock).
struct TraceEvent {
  enum class Phase : std::uint8_t { kBegin, kEnd };
  Phase phase = Phase::kBegin;
  std::string name;
  double ts_us = 0.0;
  std::string args_json;  // pre-rendered object body ("\"k\": 1"), or empty
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The process-wide tracer, or nullptr when tracing is off.
  static Tracer* current();

  // Makes this tracer current / removes it. Install is idempotent;
  // uninstall only clears the pointer if this tracer is current. The caller
  // must keep the tracer alive until every thread that might still be
  // inside a span has finished (the CLI uninstalls after all work is done).
  void install();
  void uninstall();

  // Appends an event to the calling thread's buffer. No-op requirement is
  // enforced by callers (TraceSpan checks current() first).
  void record(TraceEvent e);

  // Microseconds since this tracer was constructed.
  double now_us() const;

  // Number of per-thread buffers registered so far.
  int thread_count() const;

  // Chrome trace-event JSON (object form: {"traceEvents": [...]}), one
  // event per line, buffers merged in registration order so the rendering
  // is stable for a given execution. Loadable in chrome://tracing and
  // Perfetto.
  std::string render_json() const;

 private:
  struct ThreadBuf {
    // The owner thread appends (record()) and render_json()/thread_count()
    // read; the per-buffer mutex is the capability for both sides, so the
    // "owner writes, snapshot reads" aliasing is proven rather than assumed.
    Mutex mu;
    std::vector<TraceEvent> events FEIO_GUARDED_BY(mu);
  };

  ThreadBuf* buffer_for_this_thread();

  std::int64_t epoch_;                        // distinguishes tracer instances
  std::int64_t t0_ns_;                        // steady_clock at construction
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> buffers_ FEIO_GUARDED_BY(mu_);
};

// RAII span. Records a begin event at construction and an end event at
// destruction on whatever tracer was current at construction; both land on
// the constructing thread's buffer. When no tracer is installed the span is
// inert (a single atomic load).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);  // no work at all when inert
  explicit TraceSpan(std::string name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Attaches a key/value argument, emitted with the span's end event (the
  // trace viewers merge begin/end args). No-op when the span is inert.
  void arg(const char* key, std::int64_t value);
  void arg(const char* key, const std::string& value);

 private:
  Tracer* tracer_ = nullptr;  // captured at construction
  std::string name_;
  std::string args_json_;
};

// Scoped install/uninstall used by feio::RunOptions: installs `t` if it is
// non-null and not already current, restores the previous tracer on
// destruction. Nested scoped installs of the already-current tracer are
// no-ops, so concurrent pipeline runs sharing one tracer are safe.
class ScopedTracerInstall {
 public:
  explicit ScopedTracerInstall(Tracer* t);
  ~ScopedTracerInstall();
  ScopedTracerInstall(const ScopedTracerInstall&) = delete;
  ScopedTracerInstall& operator=(const ScopedTracerInstall&) = delete;

 private:
  Tracer* previous_ = nullptr;
  bool installed_ = false;
};

}  // namespace feio::util

#define FEIO_TRACE_CONCAT_IMPL(a, b) a##b
#define FEIO_TRACE_CONCAT(a, b) FEIO_TRACE_CONCAT_IMPL(a, b)

// Opens a span covering the rest of the enclosing scope:
//   FEIO_TRACE_SPAN(span, "idlz.assemble");
//   span.arg("subdivisions", n);
#define FEIO_TRACE_SPAN(var, name) ::feio::util::TraceSpan var{name}

// Anonymous variant when no args are attached.
#define FEIO_TRACE_SCOPE(name) \
  ::feio::util::TraceSpan FEIO_TRACE_CONCAT(feio_trace_span_, __LINE__){name}
