// Observability determinism: tracing and metrics must never change what
// the pipeline produces, trace JSON must parse with balanced begin/end
// events, and counter totals must be invariant under the thread count
// (the parallel.* scheduling family excepted — chunk counts legitimately
// depend on the thread count; see docs/OBSERVABILITY.md).
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "feio/api.h"
#include "idlz/deck.h"
#include "idlz/listing.h"
#include "json_check.h"
#include "scenarios/pipeline_bench.h"
#include "util/parallel.h"

namespace feio {
namespace {

// The Figure 2 deck (examples/decks/fig02.b), embedded so the test has no
// working-directory dependency, with the type-3 card flipped to enable
// plots + renumbering + punching so those pipeline stages are exercised.
constexpr const char* kFig02Deck =
    "    1\n"
    "RECTANGULAR SUBDIVISION\n"
    "    1    1    1    1\n"
    "    1    1    1    6    9         0    0\n"
    "    1    2\n"
    "    1    1    6    1  0.0000  0.0000  5.0000  0.0000  0.0000\n"
    "    6    9    1    9  5.0000  8.0000  0.0000  8.0000  8.0000\n"
    "(2F9.5,51X,I3,5X,I3)\n"
    "(3I5,62X,I3)\n";

// Everything user-visible an IDLZ run produces, as one string.
std::string idlz_fingerprint(const idlz::IdlzCase& c,
                             const RunOptions& opts) {
  DiagSink sink;
  const auto r = run_idlz(c, sink, opts);
  std::string out = sink.render_text();
  if (!r) return out;
  out += idlz::summarize(*r);
  out += idlz::print_listing(*r);
  out += r->nodal_cards;
  out += r->element_cards;
  out += "plots:" + std::to_string(r->plots.size()) + "\n";
  return out;
}

std::string ospl_fingerprint(const ospl::OsplCase& c,
                             const RunOptions& opts) {
  DiagSink sink;
  const auto r = run_ospl(c, sink, opts);
  std::string out = sink.render_text();
  if (!r) return out;
  std::ostringstream seg;
  seg.precision(17);
  for (const auto& s : r->segments) {
    seg << s.level << ':' << s.element << ':' << s.a.x << ',' << s.a.y << ','
        << s.b.x << ',' << s.b.y << ';';
  }
  seg << "labels:" << r->labels.accepted.size();
  return out + seg.str();
}

idlz::IdlzCase fig02_case() {
  DiagSink sink;
  const auto cases = idlz::read_deck_string(kFig02Deck, sink, "fig02.b");
  EXPECT_TRUE(sink.ok()) << sink.render_text();
  EXPECT_EQ(cases.size(), 1u);
  return cases.front();
}

// A multi-subdivision case large enough that 8 threads get real chunks.
idlz::IdlzCase big_case() { return scenarios::strip_case(16, 24, 6); }

ospl::OsplCase ospl_case() {
  DiagSink sink;
  const auto r = idlz::run(big_case());
  ospl::OsplCase c;
  c.mesh = r.mesh;
  for (int i = 0; i < r.mesh.num_nodes(); ++i) {
    const geom::Vec2 p = r.mesh.pos(i);
    c.values.push_back(p.x * p.x - 0.5 * p.y * p.y);
  }
  c.title1 = "TRACE DETERMINISM";
  return c;
}

TEST(TraceDeterminismTest, TracedIdlzRunsAreByteIdenticalToUntracedSerial) {
  for (const idlz::IdlzCase& c : {fig02_case(), big_case()}) {
    const std::string untraced = idlz_fingerprint(c, RunOptions{});
    ASSERT_FALSE(untraced.empty());
    for (int threads : {1, 2, 8}) {
      util::Tracer tracer;
      util::MetricsRegistry metrics;
      RunOptions opts;
      opts.threads = threads;
      opts.tracer = &tracer;
      opts.metrics = &metrics;
      EXPECT_EQ(idlz_fingerprint(c, opts), untraced)
          << "threads=" << threads;
    }
  }
}

TEST(TraceDeterminismTest, TracedOsplRunsAreByteIdenticalToUntracedSerial) {
  const ospl::OsplCase c = ospl_case();
  const std::string untraced = ospl_fingerprint(c, RunOptions{});
  ASSERT_FALSE(untraced.empty());
  for (int threads : {1, 2, 8}) {
    util::Tracer tracer;
    util::MetricsRegistry metrics;
    RunOptions opts;
    opts.threads = threads;
    opts.tracer = &tracer;
    opts.metrics = &metrics;
    EXPECT_EQ(ospl_fingerprint(c, opts), untraced) << "threads=" << threads;
  }
}

// Scans rendered trace JSON: every "B" must be closed by a matching "E" on
// the same tid, innermost-first. The renderer emits one event per line.
void check_balanced(const std::string& json) {
  std::map<int, std::vector<std::string>> stacks;
  std::istringstream in(json);
  std::string line;
  int events = 0;
  while (std::getline(in, line)) {
    const size_t name_at = line.find("{\"name\": \"");
    if (name_at == std::string::npos) continue;
    ++events;
    const size_t name_begin = name_at + 10;
    const std::string name =
        line.substr(name_begin, line.find('"', name_begin) - name_begin);
    const size_t ph_at = line.find("\"ph\": \"");
    ASSERT_NE(ph_at, std::string::npos) << line;
    const char ph = line[ph_at + 7];
    const size_t tid_at = line.find("\"tid\": ");
    ASSERT_NE(tid_at, std::string::npos) << line;
    const int tid = std::atoi(line.c_str() + tid_at + 7);
    if (ph == 'B') {
      stacks[tid].push_back(name);
    } else {
      ASSERT_EQ(ph, 'E') << line;
      ASSERT_FALSE(stacks[tid].empty()) << line;
      EXPECT_EQ(stacks[tid].back(), name) << line;
      stacks[tid].pop_back();
    }
  }
  EXPECT_GT(events, 0);
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  }
}

TEST(TraceDeterminismTest, TraceJsonIsValidAndBalancedPerThread) {
  util::Tracer tracer;
  RunOptions opts;
  opts.threads = 8;
  opts.tracer = &tracer;
  idlz_fingerprint(big_case(), opts);
  // IDLZ runs serially; OSPL's contour stage supplies the worker spans.
  ospl_fingerprint(ospl_case(), opts);
  const std::string json = tracer.render_json();
  EXPECT_TRUE(json_check::valid(json)) << json;
  check_balanced(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"idlz.run\""), std::string::npos);
  EXPECT_NE(json.find("\"idlz.assemble\""), std::string::npos);
  EXPECT_NE(json.find("\"parallel.chunk\""), std::string::npos);
}

TEST(TraceDeterminismTest, CounterTotalsAreThreadCountInvariant) {
  std::map<std::string, std::int64_t> reference;
  for (int threads : {1, 2, 8}) {
    util::MetricsRegistry metrics;
    RunOptions opts;
    opts.threads = threads;
    opts.metrics = &metrics;
    idlz_fingerprint(big_case(), opts);
    ospl_fingerprint(ospl_case(), opts);
    std::map<std::string, std::int64_t> counters;
    for (const auto& [name, v] : metrics.snapshot().counters) {
      // parallel.* counts scheduling chunks, which legitimately scale
      // with the thread count; every pipeline counter must not.
      if (name.rfind("parallel.", 0) == 0) continue;
      counters[name] = v;
    }
    EXPECT_FALSE(counters.empty());
    if (threads == 1) {
      reference = counters;
    } else {
      EXPECT_EQ(counters, reference) << "threads=" << threads;
    }
  }
}

TEST(TraceDeterminismTest, SpansNestAndCarryArgs) {
  util::Tracer tracer;
  {
    util::ScopedTracerInstall install(&tracer);
    FEIO_TRACE_SPAN(outer, "outer");
    outer.arg("answer", 42);
    outer.arg("label", std::string("a\"b"));
    outer.arg("title", std::string("deck\ttitle"));  // a tab from a card
    { FEIO_TRACE_SCOPE("inner"); }
  }
  const std::string json = tracer.render_json();
  EXPECT_TRUE(json_check::valid(json)) << json;
  check_balanced(json);
  EXPECT_NE(json.find("\"answer\": 42"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("deck\\ttitle"), std::string::npos);
  // inner's End precedes outer's End.
  const size_t inner_end = json.find("\"inner\", \"cat\": \"feio\", \"ph\": \"E\"");
  const size_t outer_end = json.find("\"outer\", \"cat\": \"feio\", \"ph\": \"E\"");
  ASSERT_NE(inner_end, std::string::npos);
  ASSERT_NE(outer_end, std::string::npos);
  EXPECT_LT(inner_end, outer_end);
}

TEST(TraceDeterminismTest, UninstalledTracerRecordsNothing) {
  util::Tracer tracer;
  { FEIO_TRACE_SCOPE("never"); }
  EXPECT_EQ(tracer.render_json().find("never"), std::string::npos);
  idlz_fingerprint(fig02_case(), RunOptions{});  // no tracer installed
  EXPECT_EQ(tracer.thread_count(), 0);
}

TEST(MetricsTest, HistogramBucketsFollowPowersOfTwo) {
  EXPECT_EQ(util::MetricsRegistry::bucket_of(0.0), 0);
  EXPECT_EQ(util::MetricsRegistry::bucket_of(0.99), 0);
  EXPECT_EQ(util::MetricsRegistry::bucket_of(1.0), 1);
  EXPECT_EQ(util::MetricsRegistry::bucket_of(1.99), 1);
  EXPECT_EQ(util::MetricsRegistry::bucket_of(2.0), 2);
  EXPECT_EQ(util::MetricsRegistry::bucket_of(1024.0), 11);
  EXPECT_EQ(util::MetricsRegistry::bucket_of(-4.0), 3);
  EXPECT_EQ(util::MetricsRegistry::bucket_of(1e300), 39);
}

TEST(MetricsTest, RenderReportJsonIsAValidMetricsReport) {
  util::MetricsRegistry metrics;
  {
    util::ScopedMetricsInstall install(&metrics);
    FEIO_METRIC_ADD("test.counter", 3);
    FEIO_METRIC_RECORD("test.histogram", 7.0);
  }
  const std::string json = metrics.render_report_json();
  EXPECT_TRUE(json_check::valid(json)) << json;
  const ReportInfo info = classify_report(json);
  EXPECT_EQ(info.schema, kReportSchema);
  EXPECT_EQ(info.kind, "metrics");
  EXPECT_FALSE(info.legacy);
  EXPECT_NE(json.find("\"test.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.histogram\""), std::string::npos);
}

TEST(MetricsTest, MergeAcrossSinksDoesNotDoubleCountDiagMetrics) {
  util::MetricsRegistry metrics;
  util::ScopedMetricsInstall install(&metrics);
  DiagSink a;
  a.error("E-TEST-001", "one");
  DiagSink merged;
  merged.merge(a);
  merged.merge(a);  // merging twice must still count the error once
  EXPECT_EQ(metrics.snapshot().counters.at("diag.errors"), 1);
}

}  // namespace
}  // namespace feio
