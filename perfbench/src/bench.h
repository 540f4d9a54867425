// Shared pieces of the feio end-to-end benchmark: output digests, the
// workload interface the timed loop drives, and the per-layer trace
// aggregation. The workloads themselves live in chain.cc (the CLI chain:
// gallery, strip_large, plate_holes) and serve_mix.cc (the serve job loop).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geom/vec2.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// FNV-1a 64 over exact bytes: SVG text, punched cards, and the bit
// patterns of displacements and nodal fields.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  void doubles(const std::vector<double>& v) {
    bytes(v.data(), v.size() * sizeof(double));
  }
  void vec2s(const std::vector<feio::geom::Vec2>& v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

bool all_finite(const std::vector<double>& v);
bool all_finite(const std::vector<feio::geom::Vec2>& v);

// Result of checking one op's outputs, made outside its timed region.
struct Check {
  std::uint64_t digest = 0;
  std::int64_t svg_bytes = 0;
  std::string failure;  // empty when every check passed
};

// What one op computed: the idealization it built and the equations it
// solved (0 dofs for an idealization-only op).
struct OpShape {
  std::int64_t elements = 0;
  std::int64_t dofs = 0;
};

// A CLI-chain workload: a fixed list of ops the timed loop runs back to
// back on the calling thread, cycling in `order`.
class Chain {
 public:
  virtual ~Chain() = default;
  virtual std::size_t size() const = 0;
  // Runs op i (the timed region) and keeps its outputs for check().
  virtual void run(std::size_t i) = 0;
  // Checks the outputs the last run(i) kept (exact counts, finite values)
  // and digests them; the caller compares the digest with the warm-up's.
  virtual Check check(std::size_t i) = 0;
  virtual OpShape shape(std::size_t i) const = 0;
  // Computed factorization flops of op i's solve (0 when not known).
  virtual double factor_flops(std::size_t) const { return 0.0; }
  // Workload properties printed with every result.
  virtual std::map<std::string, double> properties() const { return {}; }

  void set_threads(int threads) { threads_ = threads; }
  std::vector<std::size_t> order;  // seeded op order, one cycle

 protected:
  int threads_ = 1;
};

std::unique_ptr<Chain> make_gallery(std::uint64_t seed);
std::unique_ptr<Chain> make_strip_large(std::uint64_t seed);
std::unique_ptr<Chain> make_plate_holes(std::uint64_t seed);

// Per-span-name totals over a traced interval, in microseconds.
struct SpanTotals {
  std::int64_t count = 0;
  double total_us = 0.0;  // inclusive
  double self_us = 0.0;   // minus the part child spans cover
};

// Self time per span name, from a util::Tracer's rendered events. Spans
// nest per thread; a span's self time is its duration minus the time its
// direct children cover, except parallel.* chunk spans, which count as
// their parent's own work.
class TraceAgg {
 public:
  // Adds the spans of one rendered trace; spans that begin before
  // `min_begin_us` (tracer clock) only count as the parent of later ones.
  void add_trace_json(const std::string& json, double min_begin_us = 0.0);
  const SpanTotals& operator[](const std::string& name) const;
  const std::map<std::string, SpanTotals>& spans() const { return spans_; }

 private:
  std::map<std::string, SpanTotals> spans_;
};

// The value of `"key": ` in one line of flat JSON (a rendered trace event
// or a serve envelope), unquoted; empty when the key is absent.
std::string json_value(const std::string& line, const char* key);

// The layer a span belongs to ("cards", "idlz", "fem", "ospl", "plot",
// "scenarios", "parallel" or "bench").
std::string layer_of(const std::string& span);

// Percentile by linear interpolation between order statistics.
double percentile(std::vector<double> v, double p);

}  // namespace perfbench
