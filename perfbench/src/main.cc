// The feio end-to-end benchmark. One run measures one workload:
//
//   feio_perfbench --workload gallery|strip_large|plate_holes|serve_mix
//                  --seed N --seconds S --trace 0|1 [--work-dir DIR]
//   feio_perfbench --self-test [--work-dir DIR]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer table. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. perfbench/README.md
// defines every metric.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cards/format_cache.h"
#include "serve_mix.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using feio::util::MetricsRegistry;
using feio::util::Tracer;

// Fresh set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 10;
// A traced run drains its tracer this often, bounding trace memory.
constexpr double kTraceChunkS = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  // 0 = not a sampled statistic
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;
  std::vector<Metric> metrics;
  std::map<std::string, double> properties;

  void fail(const std::string& why) {
    if (failed++ == 0) first_failure = why;
  }
  void add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
};

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::int64_t counter(const feio::util::MetricsSnapshot& s,
                     const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- CLI chain ---------------------------------------------------------------

std::unique_ptr<Chain> make_chain(const Args& a) {
  if (a.workload == "gallery") return make_gallery(a.seed);
  if (a.workload == "strip_large") return make_strip_large(a.seed);
  return make_plate_holes(a.seed);
}

// The loop's samples. Output checks run between ops, outside the timed
// regions; cpu_s and busy_s cover the timed regions only.
struct ChainLoop {
  std::vector<double> op_ms;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t elements = 0;
  std::int64_t dofs = 0;
  std::int64_t svg_bytes = 0;
  double flops = 0.0;
  void append(const ChainLoop& o);
};

struct ChainState {
  std::unique_ptr<Chain> chain;
  std::vector<std::uint64_t> reference;  // warm-up digest per op
};

// The end-to-end metrics of an untraced run, from the fresh set-ups'
// times, every timed op of the run, and the median op time of each window
// (the stretch of timed loop after one set-up). `busy_s` is the time the
// ops took (the chain's timed regions; serve's closed-loop wall time).
// op_ms_p50 averages the window medians: when the host slows down for part
// of a run it moves in proportion, where the median of the whole run jumps
// between the fast and the slow mode.
void report_end_to_end(Result& r, const std::vector<double>& setup_s,
                       const std::vector<double>& window_p50,
                       const std::vector<double>& op_ms, double busy_s,
                       double cpu_s) {
  const double ops = static_cast<double>(op_ms.size());
  const auto n = static_cast<std::int64_t>(op_ms.size());
  double p50_sum = 0.0;
  for (double p50 : window_p50) p50_sum += p50;
  r.add("setup_s", median(setup_s), "s",
        static_cast<std::int64_t>(setup_s.size()));
  r.add("ops_per_s", ratio(ops, busy_s), "1/s", n);
  r.add("op_ms_p50", ratio(p50_sum, static_cast<double>(window_p50.size())),
        "ms", n);
  r.add("op_ms_p90", percentile(op_ms, 0.9), "ms", n);
  r.add("cpu_ms_per_op", ratio(cpu_s * 1000.0, ops), "ms", n);
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

// A fresh set-up: empty FORMAT cache, inputs built from the seed, one
// warm-up cycle whose digests become the references.
ChainState chain_setup(const Args& a, int threads, Result& r) {
  feio::cards::reset_format_cache();
  ChainState s;
  s.chain = make_chain(a);
  s.chain->set_threads(threads);
  s.reference.assign(s.chain->size(), 0);
  for (std::size_t i : s.chain->order) {
    s.chain->run(i);
    const Check c = s.chain->check(i);
    ++r.attempted;
    if (!c.failure.empty()) r.fail("warm-up op " + std::to_string(i) + ": " + c.failure);
    s.reference[i] = c.digest;
  }
  return s;
}

// Runs ops back to back until `seconds` pass (or `max_ops` ran), each
// timed on its own, each checked after its timed region.
ChainLoop chain_loop(ChainState& s, double seconds, Result& r,
                     std::size_t max_ops = 0) {
  ChainLoop out;
  Chain& w = *s.chain;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t k = 0;; ++k) {
    if (max_ops > 0 ? k >= max_ops : Clock::now() >= deadline) break;
    const std::size_t i = w.order[k % w.order.size()];
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    {
      FEIO_TRACE_SCOPE("bench.op");
      w.run(i);
    }
    const Clock::time_point t1 = Clock::now();
    out.cpu_s += cpu_seconds() - cpu0;
    const double ms = ms_between(t0, t1);
    out.op_ms.push_back(ms);
    out.busy_s += ms / 1000.0;
    const Check c = w.check(i);
    ++r.attempted;
    if (!c.failure.empty()) {
      r.fail("op " + std::to_string(i) + ": " + c.failure);
    } else if (c.digest != s.reference[i]) {
      r.fail("op " + std::to_string(i) + ": output differs from warm-up");
    }
    const OpShape shape = w.shape(i);
    out.elements += shape.elements;
    out.dofs += shape.dofs;
    out.svg_bytes += c.svg_bytes;
    out.flops += w.factor_flops(i);
  }
  return out;
}

// A traced loop: tracer and metrics registry installed, drained every
// kTraceChunkS so the span buffers stay small.
ChainLoop traced_chain_loop(ChainState& s, double seconds, Result& r,
                            TraceAgg& agg, MetricsRegistry& reg) {
  feio::util::ScopedMetricsInstall metrics(&reg);
  ChainLoop all;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    Tracer tracer;
    ChainLoop part;
    {
      feio::util::ScopedTracerInstall install(&tracer);
      part = chain_loop(s, std::min(kTraceChunkS,
                                    std::chrono::duration<double>(
                                        end - Clock::now()).count()),
                        r);
    }
    agg.add_trace_json(tracer.render_json());
    all.append(part);
  }
  return all;
}

const char* const kLayers[] = {"cards", "idlz", "fem", "ospl", "plot",
                               "scenarios"};

// Self time of every span of `layer`, microseconds.
double layer_self_us(const TraceAgg& agg, const std::string& layer) {
  double us = 0.0;
  for (const auto& [name, t] : agg.spans()) {
    if (layer_of(name) == layer) us += t.self_us;
  }
  return us;
}

// The per-layer metrics every traced run reports, from one traced loop.
// `ops` is the op (or job) count the per-op means divide by, `op_us` the
// time the layer shares divide by.
void add_layer_metrics(Result& r, const TraceAgg& agg,
                       const feio::util::MetricsSnapshot& c, double ops,
                       double op_us, std::int64_t elements, double flops,
                       std::int64_t svg_bytes,
                       std::int64_t format_hits, std::int64_t format_misses) {
  const auto n = static_cast<std::int64_t>(ops);
  auto per_op_ms = [&](double us) { return ratio(us, ops) / 1000.0; };
  r.add("cards.read_ms", per_op_ms(layer_self_us(agg, "cards")), "ms", n);
  r.add("cards.format_hit_ratio",
        ratio(static_cast<double>(format_hits),
              static_cast<double>(format_hits + format_misses)),
        "ratio", format_hits + format_misses);

  const SpanTotals& idlz_run = agg["idlz.run"];
  r.add("idlz.run_ms", per_op_ms(idlz_run.total_us), "ms", n);
  r.add("idlz.ns_per_element",
        ratio(idlz_run.total_us * 1000.0, static_cast<double>(elements)),
        "ns", elements);
  for (const char* stage :
       {"assemble", "shape", "reform", "renumber", "plots", "punch"}) {
    r.add(std::string("idlz.") + stage + "_ms",
          per_op_ms(agg[std::string("idlz.") + stage].self_us), "ms", n);
  }

  r.add("fem.static_ms",
        per_op_ms(layer_self_us(agg, "fem") - agg["bench.fem.stress"].self_us),
        "ms", n);
  r.add("fem.assemble_ms", per_op_ms(agg["fem.assemble"].self_us), "ms", n);
  r.add("fem.factorize_ms", per_op_ms(agg["fem.factorize"].self_us), "ms", n);
  r.add("fem.backsolve_ms", per_op_ms(agg["fem.solve"].self_us), "ms", n);
  r.add("fem.factorize_gflops",
        ratio(flops, agg["fem.factorize"].self_us * 1000.0), "GFlop/s",
        agg["fem.factorize"].count);
  r.add("fem.stress_ms", per_op_ms(agg["bench.fem.stress"].total_us), "ms", n);
  const std::int64_t banded = counter(c, "fem.solver.storage.banded");
  const std::int64_t skyline = counter(c, "fem.solver.storage.skyline");
  r.add("fem.skyline_share",
        ratio(static_cast<double>(skyline), static_cast<double>(banded + skyline)),
        "ratio", banded + skyline);
  const std::int64_t hits = counter(c, "cache.factor.hits");
  const std::int64_t misses = counter(c, "cache.factor.misses");
  r.add("fem.factor_hit_ratio",
        ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio", hits + misses);
  r.add("fem.factor_load_reuses",
        static_cast<double>(counter(c, "cache.factor.load_reuse")), "count");

  r.add("ospl.run_ms", per_op_ms(agg["ospl.run"].total_us), "ms", n);
  for (const char* stage : {"contours", "boundary", "labels"}) {
    r.add(std::string("ospl.") + stage + "_ms",
          per_op_ms(agg[std::string("ospl.") + stage].self_us), "ms", n);
  }
  r.add("ospl.segments",
        ratio(static_cast<double>(counter(c, "ospl.segments_emitted")), ops),
        "count", n);
  r.add("plot.svg_ms", per_op_ms(agg["bench.plot.svg"].total_us), "ms", n);
  r.add("plot.svg_bytes", ratio(static_cast<double>(svg_bytes), ops), "B", n);

  for (const char* layer : kLayers) {
    r.add(std::string("share.") + layer + "_pct",
          100.0 * ratio(layer_self_us(agg, layer), op_us), "%", n);
  }
}

const char* const kParallelStages[] = {"idlz.assemble", "idlz.shape",
                                       "fem.assemble", "fem.factorize",
                                       "ospl.contours"};

// Every per-layer metric a traced run reports, in table order. A workload
// whose path does not reach a layer reports 0 for it.
const char* const kPerLayer[][2] = {
    {"cards.read_ms", "ms"},
    {"cards.format_hit_ratio", "ratio"},
    {"idlz.run_ms", "ms"},
    {"idlz.ns_per_element", "ns"},
    {"idlz.assemble_ms", "ms"},
    {"idlz.shape_ms", "ms"},
    {"idlz.reform_ms", "ms"},
    {"idlz.renumber_ms", "ms"},
    {"idlz.plots_ms", "ms"},
    {"idlz.punch_ms", "ms"},
    {"fem.static_ms", "ms"},
    {"fem.assemble_ms", "ms"},
    {"fem.factorize_ms", "ms"},
    {"fem.backsolve_ms", "ms"},
    {"fem.factorize_gflops", "GFlop/s"},
    {"fem.stress_ms", "ms"},
    {"fem.dofs", "count"},
    {"fem.envelope_ratio", "ratio"},
    {"fem.skyline_share", "ratio"},
    {"fem.factor_hit_ratio", "ratio"},
    {"fem.factor_load_reuses", "count"},
    {"ospl.run_ms", "ms"},
    {"ospl.contours_ms", "ms"},
    {"ospl.boundary_ms", "ms"},
    {"ospl.labels_ms", "ms"},
    {"ospl.segments", "count"},
    {"plot.svg_ms", "ms"},
    {"plot.svg_bytes", "B"},
    {"share.cards_pct", "%"},
    {"share.idlz_pct", "%"},
    {"share.fem_pct", "%"},
    {"share.ospl_pct", "%"},
    {"share.plot_pct", "%"},
    {"share.scenarios_pct", "%"},
    {"serve.job_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.wait_ms_p90", "ms"},
    {"serve.latency_ms_p99", "ms"},
    {"serve.rejected", "count"},
    {"serve.singular_solve_decks", "count"},
    {"serve.mix_idlz_pct", "%"},
    {"serve.mix_solve_pct", "%"},
    {"serve.mix_ospl_pct", "%"},
    {"parallel.speedup.idlz.assemble", "x"},
    {"parallel.speedup.idlz.shape", "x"},
    {"parallel.speedup.fem.assemble", "x"},
    {"parallel.speedup.fem.factorize", "x"},
    {"parallel.speedup.ospl.contours", "x"},
    {"trace.overhead_pct", "%"},
    {"op.elements", "count"},
    {"op.dofs", "count"},
};

// Orders the per-layer metrics as kPerLayer and fills the ones this
// workload does not reach with 0.
void finish_per_layer(Result& r) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kPerLayer) {
    Metric m{name, 0.0, unit, 0};
    for (const Metric& got : r.metrics) {
      if (got.name != name) continue;
      m.value = got.value;
      m.samples = got.samples;
    }
    ordered.push_back(m);
  }
  r.metrics = std::move(ordered);
}

void ChainLoop::append(const ChainLoop& o) {
  op_ms.insert(op_ms.end(), o.op_ms.begin(), o.op_ms.end());
  busy_s += o.busy_s;
  cpu_s += o.cpu_s;
  elements += o.elements;
  dofs += o.dofs;
  svg_bytes += o.svg_bytes;
  flops += o.flops;
}

// Untraced run: kSetups fresh set-ups, each followed by an equal share of
// the timed loop, so set-up samples and op samples see the same host.
Result run_chain(const Args& a) {
  Result r;
  // Every chain op runs on 1 thread: at nproc threads the large decks were
  // no faster and their run-to-run spread was several times larger
  // (README.md, "Threads"). The traced run repeats them at nproc threads.
  const int threads = 1;
  const int nproc = feio::util::hardware_threads();

  ChainState s;
  if (!a.trace) {
    std::vector<double> setup_s;
    std::vector<double> window_p50;
    ChainLoop l;
    for (int k = 0; k < kSetups; ++k) {
      const Clock::time_point t0 = Clock::now();
      ChainState fresh = chain_setup(a, threads, r);
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
      if (k > 0 && fresh.reference != s.reference) {
        r.fail("warm-up outputs differ between fresh set-ups");
      }
      s = std::move(fresh);
      const ChainLoop part = chain_loop(s, a.seconds / kSetups, r);
      window_p50.push_back(percentile(part.op_ms, 0.5));
      l.append(part);
    }
    report_end_to_end(r, setup_s, window_p50, l.op_ms, l.busy_s, l.cpu_s);
    const double ops = static_cast<double>(l.op_ms.size());
    r.properties = s.chain->properties();
    r.properties["op.elements"] = ratio(static_cast<double>(l.elements), ops);
    r.properties["op.dofs"] = ratio(static_cast<double>(l.dofs), ops);
    r.properties["threads"] = threads;
    return r;
  }

  // Traced run: one set-up, an untraced phase for the overhead baseline,
  // the traced phase, and for the large decks a traced repeat at nproc
  // threads for the parallel speedups.
  s = chain_setup(a, threads, r);
  r.properties = s.chain->properties();
  r.properties["threads"] = threads;
  const bool repeat = a.workload != "gallery" && nproc > 1;
  const double phase_s = a.seconds / (repeat ? 3.0 : 2.0);
  const ChainLoop base = chain_loop(s, phase_s, r);

  TraceAgg agg;
  MetricsRegistry reg;
  const feio::cards::FormatCacheStats f0 = feio::cards::format_cache_stats();
  const ChainLoop l = traced_chain_loop(s, phase_s, r, agg, reg);
  const feio::cards::FormatCacheStats f1 = feio::cards::format_cache_stats();
  const double ops = static_cast<double>(l.op_ms.size());
  const auto n = static_cast<std::int64_t>(l.op_ms.size());
  add_layer_metrics(r, agg, reg.snapshot(), ops, agg["bench.op"].total_us,
                    l.elements, l.flops, l.svg_bytes, f1.hits - f0.hits,
                    f1.misses - f0.misses);

  if (repeat) {
    TraceAgg agg_n;
    MetricsRegistry reg_n;
    s.chain->set_threads(nproc);
    const ChainLoop ln = traced_chain_loop(s, phase_s, r, agg_n, reg_n);
    const double ops_n = static_cast<double>(ln.op_ms.size());
    for (const char* stage : kParallelStages) {
      r.add(std::string("parallel.speedup.") + stage,
            ratio(ratio(agg[stage].self_us, ops),
                  ratio(agg_n[stage].self_us, ops_n)),
            "x", static_cast<std::int64_t>(ops_n));
    }
  }
  r.add("trace.overhead_pct",
        100.0 * (ratio(percentile(l.op_ms, 0.5), percentile(base.op_ms, 0.5)) -
                 1.0),
        "%", n);
  r.add("op.elements", ratio(static_cast<double>(l.elements), ops), "count", n);
  r.add("op.dofs", ratio(static_cast<double>(l.dofs), ops), "count", n);
  for (const char* name : {"fem.dofs", "fem.envelope_ratio"}) {
    const auto it = r.properties.find(name);
    if (it != r.properties.end()) r.add(name, it->second, "count");
  }
  finish_per_layer(r);
  return r;
}

// ---- serve_mix -----------------------------------------------------------------

Result run_serve(const Args& a) {
  Result r;
  ServeMix mix(a.seed, a.work_dir + "/perfbench-" +
                           std::to_string(::getpid()) + ".sock");
  auto count = [&](std::int64_t attempted, std::int64_t failed,
                   const std::string& first) {
    r.attempted += attempted;
    if (failed > 0) {
      r.failed += failed - 1;
      r.fail(first);
    }
  };
  auto fresh_setup = [&](feio::util::Tracer* tracer,
                         MetricsRegistry* metrics) {
    const Clock::time_point t0 = Clock::now();
    mix.start(tracer, metrics);
    const double s = ms_between(t0, Clock::now()) / 1000.0;
    count(mix.warmup_attempted, mix.warmup_failed,
          "warm-up: " + mix.warmup_failure);
    return s;
  };

  // Untraced: kSetups fresh sessions, each serving an equal share of the
  // timed loop (see run_chain). The traced run uses the first half of its
  // time untraced, for the serve.* metrics and the overhead baseline.
  const int sessions = a.trace ? 1 : kSetups;
  const double session_s = a.trace ? a.seconds / 2.0 : a.seconds / kSetups;
  std::vector<double> setup_s;
  std::vector<double> window_p50;
  ServeLoop l;
  double cpu_s = 0.0;
  std::int64_t factor_hits = 0;
  std::int64_t factor_lookups = 0;
  std::int64_t rejected = 0;
  for (int k = 0; k < sessions; ++k) {
    setup_s.push_back(fresh_setup(nullptr, nullptr));
    const double cpu0 = cpu_seconds();
    const ServeLoop part = mix.loop(session_s);
    cpu_s += cpu_seconds() - cpu0;
    window_p50.push_back(percentile(part.latency_ms, 0.5));
    const feio::serve::ServeSummary summary = mix.stop();
    count(part.attempted, part.failed, part.first_failure);
    l.append(part);
    factor_hits += summary.factor_hits;
    factor_lookups += summary.factor_hits + summary.factor_misses;
    rejected += summary.rejected;
  }
  const double jobs = static_cast<double>(l.attempted);
  r.properties["serve.workers"] = ServeMix::kWorkers;
  r.properties["serve.clients"] = ServeMix::kClients;
  r.properties["serve.mix_idlz_pct"] = 100.0 * ratio(l.kinds[kIdlzJob], jobs);
  r.properties["serve.mix_solve_pct"] = 100.0 * ratio(l.kinds[kSolveJob], jobs);
  r.properties["serve.mix_ospl_pct"] = 100.0 * ratio(l.kinds[kOsplJob], jobs);
  r.properties["serve.singular_solve_decks"] = mix.singular_failures;
  r.properties["serve.rejected"] = static_cast<double>(rejected);
  r.properties["fem.factor_hit_ratio"] =
      ratio(static_cast<double>(factor_hits),
            static_cast<double>(factor_lookups));

  if (!a.trace) {
    report_end_to_end(r, setup_s, window_p50, l.latency_ms, l.wall_s, cpu_s);
    return r;
  }

  // Traced phase: a fresh session with the tracer and registry installed
  // through ServeOptions; spans that began before the timed loop (the
  // warm-up) are left out.
  Tracer tracer;
  MetricsRegistry reg;
  fresh_setup(&tracer, &reg);
  const feio::util::MetricsSnapshot c0 = reg.snapshot();
  const double loop_start_us = tracer.now_us();
  const ServeLoop t = mix.loop(session_s);
  const feio::util::MetricsSnapshot c1 = reg.snapshot();
  mix.stop();
  count(t.attempted, t.failed, t.first_failure);
  TraceAgg agg;
  agg.add_trace_json(tracer.render_json(), loop_start_us);
  feio::util::MetricsSnapshot delta = c1;
  for (auto& [name, v] : delta.counters) v -= counter(c0, name);
  double job_us = 0.0;
  for (double ms : t.job_ms) job_us += ms * 1000.0;
  const double tjobs = static_cast<double>(t.attempted);
  const std::int64_t elements = counter(delta, "idlz.elements_created");
  add_layer_metrics(r, agg, delta, tjobs, job_us, elements, 0.0, 0,
                    counter(delta, "cache.format.hits"),
                    counter(delta, "cache.format.misses"));

  std::vector<double> wait_ms;
  for (std::size_t j = 0; j < l.latency_ms.size(); ++j) {
    wait_ms.push_back(l.latency_ms[j] - l.job_ms[j]);
  }
  r.add("serve.job_ms_p50", percentile(l.job_ms, 0.5), "ms", l.attempted);
  r.add("serve.wait_ms_p50", percentile(wait_ms, 0.5), "ms", l.attempted);
  r.add("serve.wait_ms_p90", percentile(wait_ms, 0.9), "ms", l.attempted);
  r.add("serve.latency_ms_p99", percentile(l.latency_ms, 0.99), "ms",
        l.attempted);
  r.add("serve.rejected", static_cast<double>(rejected), "count");
  r.add("serve.singular_solve_decks", mix.singular_failures, "count");
  for (const char* kind : {"idlz", "solve", "ospl"}) {
    const std::string name = std::string("serve.mix_") + kind + "_pct";
    r.add(name, r.properties[name], "%", l.attempted);
  }
  r.add("trace.overhead_pct",
        100.0 * (ratio(percentile(t.latency_ms, 0.5),
                       percentile(l.latency_ms, 0.5)) -
                 1.0),
        "%", t.attempted);
  r.add("op.elements", ratio(static_cast<double>(elements), tjobs), "count",
        t.attempted);
  finish_per_layer(r);
  return r;
}

// ---- output ----------------------------------------------------------------------

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const Args& a, const Result& r) {
  std::printf("workload %s seed %llu: %lld ops attempted, %lld failed%s%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              r.failed > 0 ? "; first failure: " : "",
              r.first_failure.c_str());
  std::printf("properties:");
  for (const auto& [name, v] : r.properties) {
    std::printf(" %s=%.6g", name.c_str(), v);
  }
  std::printf("\n%-32s %16s  %-8s %s\n", a.trace ? "layer metric" : "metric",
              "value", "unit", "samples");
  for (const Metric& m : r.metrics) {
    std::printf("%-32s %16.6g  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.samples > 0 ? std::to_string(m.samples).c_str() : "-");
  }
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Shows that both failure paths are counted: one op checked against a
// corrupted reference, and one serve job that fails.
int self_test(const Args& a) {
  Args g = a;
  g.workload = "gallery";
  Result r;
  ChainState s = chain_setup(g, 1, r);
  s.reference[s.chain->order.front()] ^= 1;
  const std::int64_t before = r.failed;
  chain_loop(s, 0.0, r, s.chain->size());
  const bool corrupt_counted = r.failed - before == 1;
  std::printf("corrupted reference: %lld of %zu ops failed (%s)\n",
              static_cast<long long>(r.failed - before), s.chain->size(),
              r.first_failure.c_str());

  ServeMix mix(a.seed, a.work_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock");
  mix.start(nullptr, nullptr);
  const ServeLoop l = mix.loop(0.2, /*poison=*/true);
  mix.stop();
  const bool job_counted = l.failed == 1;
  std::printf("forced job failure: %lld of %lld jobs failed (%s)\n",
              static_cast<long long>(l.failed),
              static_cast<long long>(l.attempted), l.first_failure.c_str());
  const bool ok = corrupt_counted && job_counted;
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      return false;
    }
  }
  if (a.self_test) return true;
  return (a.workload == "gallery" || a.workload == "strip_large" ||
          a.workload == "plate_holes" || a.workload == "serve_mix") &&
         a.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: feio_perfbench --workload "
                 "gallery|strip_large|plate_holes|serve_mix --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n"
                 "       feio_perfbench --self-test [--work-dir DIR]\n");
    return 2;
  }
  try {
    if (a.self_test) return perfbench::self_test(a);
    const perfbench::Result r = a.workload == "serve_mix"
                                    ? perfbench::run_serve(a)
                                    : perfbench::run_chain(a);
    perfbench::print_result(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "feio_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
