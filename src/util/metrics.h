// Metrics registry: named monotonic counters and histograms for the
// pipeline ("idlz.nodes_numbered", "ospl.segments_emitted", ...; catalog in
// docs/OBSERVABILITY.md).
//
// Design rules (mirroring util/trace.h):
//   1. Zero cost when off. No registry installed => FEIO_METRIC_ADD is one
//      relaxed atomic load. Instrumented code never changes its output.
//   2. Thread-safe via per-thread shards. Each thread accumulates into its
//      own shard (registered under the registry mutex on first use);
//      snapshot() merges the shards. Counter increments and histogram
//      updates are integer/min/max operations, all commutative, so merged
//      totals are identical for any thread count and merge order — the
//      property the determinism tests pin down.
//   3. Deterministic rendering: snapshots are sorted by metric name.
//
// Histograms record count/min/max plus power-of-two magnitude buckets
// (bucket i counts values v with 2^(i-1) <= |v| < 2^i; bucket 0 takes
// |v| < 1). No floating-point sums are kept: sums would make totals depend
// on accumulation order across threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace feio::util {

inline constexpr int kHistogramBuckets = 40;

struct HistogramSnapshot {
  std::int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  std::int64_t buckets[kHistogramBuckets] = {};

  void merge(const HistogramSnapshot& other);
};

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry, or nullptr when metrics are off.
  static MetricsRegistry* current();
  void install();
  void uninstall();

  // Adds `delta` to the named monotonic counter (calling-thread shard).
  void add(const char* name, std::int64_t delta);
  // Records one observation into the named histogram.
  void record(const char* name, double value);

  // Merged view of all shards, metric names sorted.
  MetricsSnapshot snapshot() const;

  // The histogram bucket index a value falls into (exposed for tests).
  static int bucket_of(double value);

  // The snapshot as a feio.report/1 document with kind "metrics":
  //   {"schema": "feio.report/1", "kind": "metrics", ...,
  //    "counters": {...}, "histograms": {...}}
  std::string render_report_json() const;

  // Only the kind-specific fields ("counters"/"histograms"), for embedding
  // in another report (BENCH_solver.json carries one per run). `indent`
  // spaces prefix each line.
  std::string render_body_json(int indent) const;

 private:
  struct Shard;

  Shard* shard_for_this_thread();

  std::int64_t epoch_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_ FEIO_GUARDED_BY(mu_);
};

// Scoped install/uninstall used by feio::RunOptions; same contract as
// ScopedTracerInstall.
class ScopedMetricsInstall {
 public:
  explicit ScopedMetricsInstall(MetricsRegistry* m);
  ~ScopedMetricsInstall();
  ScopedMetricsInstall(const ScopedMetricsInstall&) = delete;
  ScopedMetricsInstall& operator=(const ScopedMetricsInstall&) = delete;

 private:
  MetricsRegistry* previous_ = nullptr;
  bool installed_ = false;
};

}  // namespace feio::util

// Counter increment / histogram observation; single atomic load when no
// registry is installed.
#define FEIO_METRIC_ADD(name, delta)                                       \
  do {                                                                     \
    if (::feio::util::MetricsRegistry* feio_metric_reg =                   \
            ::feio::util::MetricsRegistry::current()) {                    \
      feio_metric_reg->add(name, delta);                                   \
    }                                                                      \
  } while (0)

#define FEIO_METRIC_RECORD(name, value)                                    \
  do {                                                                     \
    if (::feio::util::MetricsRegistry* feio_metric_reg =                   \
            ::feio::util::MetricsRegistry::current()) {                    \
      feio_metric_reg->record(name, value);                                \
    }                                                                      \
  } while (0)

// Counter increment for a per-entity family ("serve.tenant." + name +
// ".admitted"). The prefix must be a string literal: it is what
// tools/check_invariants.py scans and matches against the wildcard rows
// ("serve.tenant.*") of the OBSERVABILITY.md catalog; the suffix is
// runtime data (tenant names) the catalog cannot enumerate. The string
// concatenation only happens when a registry is installed.
#define FEIO_METRIC_ADD_DYN(prefix, suffix, delta)                         \
  do {                                                                     \
    if (::feio::util::MetricsRegistry* feio_metric_reg =                   \
            ::feio::util::MetricsRegistry::current()) {                    \
      feio_metric_reg->add((std::string(prefix) + (suffix)).c_str(),       \
                           delta);                                         \
    }                                                                      \
  } while (0)
