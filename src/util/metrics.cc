#include "util/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

#include "util/report.h"
#include "util/text.h"

namespace feio::util {
namespace {

std::atomic<MetricsRegistry*> g_registry{nullptr};
std::atomic<std::int64_t> g_epoch{0};

struct ThreadSlot {
  std::int64_t epoch = -1;
  void* shard = nullptr;
};
thread_local ThreadSlot tl_slot;

}  // namespace

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
}

struct MetricsRegistry::Shard {
  // Owner thread writes (add/record); snapshot() reads. Both sides take the
  // per-shard mutex, so the aliasing is a proven capability, not a comment.
  Mutex mu;
  std::unordered_map<std::string, std::int64_t> counters FEIO_GUARDED_BY(mu);
  std::unordered_map<std::string, HistogramSnapshot> histograms
      FEIO_GUARDED_BY(mu);
};

MetricsRegistry::MetricsRegistry()
    : epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {}

MetricsRegistry::~MetricsRegistry() { uninstall(); }

MetricsRegistry* MetricsRegistry::current() {
  return g_registry.load(std::memory_order_acquire);
}

void MetricsRegistry::install() {
  g_registry.store(this, std::memory_order_release);
}

void MetricsRegistry::uninstall() {
  MetricsRegistry* expected = this;
  g_registry.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel);
}

MetricsRegistry::Shard* MetricsRegistry::shard_for_this_thread() {
  if (tl_slot.epoch == epoch_) {
    return static_cast<Shard*>(tl_slot.shard);
  }
  MutexLock lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  tl_slot.epoch = epoch_;
  tl_slot.shard = shard;
  return shard;
}

void MetricsRegistry::add(const char* name, std::int64_t delta) {
  Shard* shard = shard_for_this_thread();
  MutexLock lock(shard->mu);
  shard->counters[name] += delta;
}

int MetricsRegistry::bucket_of(double value) {
  const double mag = std::fabs(value);
  if (!(mag >= 1.0)) return 0;  // |v| < 1 and NaN
  const int b = 1 + std::min(kHistogramBuckets - 2,
                             static_cast<int>(std::floor(std::log2(mag))));
  return b;
}

void MetricsRegistry::record(const char* name, double value) {
  Shard* shard = shard_for_this_thread();
  MutexLock lock(shard->mu);
  HistogramSnapshot& h = shard->histograms[name];
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  ++h.buckets[bucket_of(value)];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  for (const auto& shard : shards_) {
    MutexLock shard_lock(shard->mu);
    for (const auto& [name, v] : shard->counters) snap.counters[name] += v;
    for (const auto& [name, h] : shard->histograms) {
      snap.histograms[name].merge(h);
    }
  }
  return snap;
}

std::string MetricsRegistry::render_body_json(int indent) const {
  const MetricsSnapshot snap = snapshot();
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out;
  out += pad + "\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "  \"" + name + "\": ";
    append_int(out, v);
  }
  out += first ? "},\n" : "\n" + pad + "},\n";
  out += pad + "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    // Up to 6 significant digits for min/max, trailing zeros trimmed:
    // enough for the coarse quantities recorded, and stable.
    out += pad + "  \"" + name + "\": {\"count\": ";
    append_int(out, h.count);
    out += ", \"min\": ";
    append_general(out, h.min, 6);
    out += ", \"max\": ";
    append_general(out, h.max, 6);
    out += ", \"buckets\": [";
    // Trailing empty buckets are elided; bucket i counts 2^(i-1) <= |v| < 2^i.
    int last = kHistogramBuckets - 1;
    while (last > 0 && h.buckets[last] == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i > 0) out += ", ";
      append_int(out, h.buckets[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n" + pad + "}\n";
  return out;
}

std::string MetricsRegistry::render_report_json() const {
  std::string out = "{\n";
  out += report_header_json("metrics");
  out += render_body_json(2);
  out += "}\n";
  return out;
}

ScopedMetricsInstall::ScopedMetricsInstall(MetricsRegistry* m) {
  if (m == nullptr || m == MetricsRegistry::current()) return;
  previous_ = MetricsRegistry::current();
  m->install();
  installed_ = true;
}

ScopedMetricsInstall::~ScopedMetricsInstall() {
  if (!installed_) return;
  if (previous_ != nullptr) {
    previous_->install();
  } else {
    g_registry.store(nullptr, std::memory_order_release);
  }
}

}  // namespace feio::util
