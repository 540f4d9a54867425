#include "util/trace.h"

#include <atomic>
#include <chrono>

#include "util/text.h"

namespace feio::util {
namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::int64_t> g_epoch{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The calling thread's buffer registration, keyed by tracer epoch so a
// thread outliving one tracer re-registers with the next.
struct ThreadSlot {
  std::int64_t epoch = -1;
  void* buf = nullptr;
};
thread_local ThreadSlot tl_slot;

}  // namespace

Tracer::Tracer()
    : epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1),
      t0_ns_(steady_ns()) {}

Tracer::~Tracer() { uninstall(); }

Tracer* Tracer::current() { return g_tracer.load(std::memory_order_acquire); }

void Tracer::install() { g_tracer.store(this, std::memory_order_release); }

void Tracer::uninstall() {
  Tracer* expected = this;
  g_tracer.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - t0_ns_) / 1000.0;
}

Tracer::ThreadBuf* Tracer::buffer_for_this_thread() {
  if (tl_slot.epoch == epoch_) {
    return static_cast<ThreadBuf*>(tl_slot.buf);
  }
  MutexLock lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuf>());
  ThreadBuf* buf = buffers_.back().get();
  tl_slot.epoch = epoch_;
  tl_slot.buf = buf;
  return buf;
}

void Tracer::record(TraceEvent e) {
  ThreadBuf* buf = buffer_for_this_thread();
  MutexLock lock(buf->mu);
  buf->events.push_back(std::move(e));
}

int Tracer::thread_count() const {
  MutexLock lock(mu_);
  return static_cast<int>(buffers_.size());
}

std::string Tracer::render_json() const {
  MutexLock lock(mu_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (size_t tid = 0; tid < buffers_.size(); ++tid) {
    ThreadBuf* buf = buffers_[tid].get();
    MutexLock buf_lock(buf->mu);
    for (const TraceEvent& e : buf->events) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\": \"";
      append_json_escaped(out, e.name);
      out += "\", \"cat\": \"feio\", \"ph\": \"";
      out += e.phase == TraceEvent::Phase::kBegin ? 'B' : 'E';
      out += "\", \"pid\": 1, \"tid\": ";
      append_int(out, static_cast<long long>(tid + 1));
      // Sub-microsecond timestamps; fixed 3 decimals keeps the rendering
      // stable and parseable.
      out += ", \"ts\": ";
      append_fixed(out, e.ts_us, 3);
      if (!e.args_json.empty()) {
        out += ", \"args\": {";
        out += e.args_json;
        out += '}';
      }
      out += "}";
    }
  }
  out += first ? "]" : "\n]";
  out += ", \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

TraceSpan::TraceSpan(const char* name) : tracer_(Tracer::current()) {
  if (tracer_ == nullptr) return;
  name_ = name;
  tracer_->record({TraceEvent::Phase::kBegin, name_, tracer_->now_us(), {}});
}

TraceSpan::TraceSpan(std::string name) : tracer_(Tracer::current()) {
  if (tracer_ == nullptr) return;
  name_ = std::move(name);
  tracer_->record({TraceEvent::Phase::kBegin, name_, tracer_->now_us(), {}});
}

TraceSpan::~TraceSpan() {
  if (tracer_ == nullptr) return;
  tracer_->record({TraceEvent::Phase::kEnd, std::move(name_),
                   tracer_->now_us(), std::move(args_json_)});
}

void TraceSpan::arg(const char* key, std::int64_t value) {
  if (tracer_ == nullptr) return;
  if (!args_json_.empty()) args_json_ += ", ";
  args_json_ += '"';
  args_json_ += key;
  args_json_ += "\": ";
  append_int(args_json_, value);
}

void TraceSpan::arg(const char* key, const std::string& value) {
  if (tracer_ == nullptr) return;
  if (!args_json_.empty()) args_json_ += ", ";
  args_json_ += '"';
  args_json_ += key;
  args_json_ += "\": \"";
  append_json_escaped(args_json_, value);
  args_json_ += '"';
}

ScopedTracerInstall::ScopedTracerInstall(Tracer* t) {
  if (t == nullptr || t == Tracer::current()) return;
  previous_ = Tracer::current();
  t->install();
  installed_ = true;
}

ScopedTracerInstall::~ScopedTracerInstall() {
  if (!installed_) return;
  if (previous_ != nullptr) {
    previous_->install();
  } else {
    g_tracer.store(nullptr, std::memory_order_release);
  }
}

}  // namespace feio::util
