// Tests for util::parallel_for and util::ThreadPool, and for the
// determinism contract at the API level: pipeline output must be
// byte-identical for any thread count.
#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "idlz/deck.h"
#include "idlz/idlz.h"
#include "idlz/listing.h"
#include "json_check.h"
#include "ospl/contour.h"
#include "ospl/interval.h"
#include "scenarios/pipeline_bench.h"
#include "scenarios/solver_bench.h"
#include "util/diag.h"

using namespace feio;

namespace {

TEST(ParallelTest, ParseThreadCountSharedFlagParser) {
  int out = -1;
  EXPECT_TRUE(util::parse_thread_count("1", out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(util::parse_thread_count("16", out));
  EXPECT_EQ(out, 16);
  EXPECT_TRUE(util::parse_thread_count("all", out));
  EXPECT_EQ(out, 0);  // resolve_threads() reads 0 as every hardware thread
  out = 99;
  EXPECT_FALSE(util::parse_thread_count("0", out));
  EXPECT_FALSE(util::parse_thread_count("-2", out));
  EXPECT_FALSE(util::parse_thread_count("", out));
  EXPECT_FALSE(util::parse_thread_count("4x", out));
  EXPECT_FALSE(util::parse_thread_count("ALL", out));
  EXPECT_FALSE(util::parse_thread_count("1234567890", out));  // > 9 digits
  EXPECT_EQ(out, 99);  // rejected values leave `out` untouched
}

TEST(ParallelTest, ParallelForVisitsEveryIndexExactlyOnce) {
  const int n = 1000;
  std::vector<std::atomic<int>> hits(n);
  util::parallel_for(
      n, [&](std::int64_t i) { hits[static_cast<size_t>(i)]++; }, 8);
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
}

TEST(ParallelTest, ZeroSizedRangeNeverCallsBody) {
  std::atomic<int> calls{0};
  util::parallel_for(0, [&](std::int64_t) { calls++; }, 8);
  util::parallel_for(-3, [&](std::int64_t) { calls++; }, 8);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelTest, LowestIndexedExceptionWinsAndAllChunksComplete) {
  std::atomic<int> completed{0};
  try {
    util::parallel_for(
        4,
        [&](std::int64_t i) {
          if (i == 1 || i == 3) {
            throw std::runtime_error("item " + std::to_string(i));
          }
          completed++;
        },
        4);
    FAIL() << "expected the item-1 exception to propagate";
  } catch (const std::runtime_error& e) {
    // Item 1's error is what a serial left-to-right sweep would hit first.
    EXPECT_STREQ(e.what(), "item 1");
  }
  EXPECT_EQ(completed, 2);  // items 0 and 2 still ran to completion
}

// Every item throws, at several thread counts: the winner must always be
// item 0 (what a serial sweep would hit first), every item must run rather
// than be skipped, and the next batch must run normally — repeatedly.
TEST(ParallelTest, AllChunksThrowingIsDeterministicAcrossPoolSizes) {
  for (int threads : {1, 2, 3, 8}) {
    for (int round = 0; round < 5; ++round) {
      std::atomic<int> attempted{0};
      try {
        util::parallel_for(
            32,
            [&](std::int64_t i) {
              attempted++;
              throw std::runtime_error("item " + std::to_string(i));
            },
            threads);
        FAIL() << "expected an exception (" << threads << " threads)";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "item 0") << threads << " threads";
      }
      // parallel_for returns only after every item ran and every helper
      // joined: a skipped or straggling item would surface as
      // attempted != 32 here or corrupt the next round's count.
      EXPECT_EQ(attempted, 32) << threads << " threads, round " << round;
      std::atomic<std::int64_t> sum{0};
      util::parallel_for(10, [&](std::int64_t i) { sum += i; }, threads);
      EXPECT_EQ(sum, 45) << threads << " threads, round " << round;
    }
  }
}

TEST(ParallelTest, PostRunsDetachedTasks) {
  util::ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    pool.post([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == 100; });
  EXPECT_EQ(done, 100);
}

TEST(ParallelTest, NestedCallFromWorkerRunsSerialInlineWithoutDeadlock) {
  // A parallel_for inside an item starts its own helpers, whichever lane
  // the item runs on; every nested batch must complete and visit every
  // index. Nested lanes run concurrently, so the sums are atomic.
  std::atomic<std::int64_t> total{0};
  util::parallel_for(
      4,
      [&](std::int64_t) {
        std::atomic<std::int64_t> local{0};
        util::parallel_for(
            100, [&](std::int64_t i) { local += i; }, 4);
        total += local;
      },
      4);
  EXPECT_EQ(total, 4 * 4950);
}

// The lane count is min(threads, n): a batch of 3 items asked for 64
// threads runs on at most 3 distinct threads, the caller among them.
TEST(ParallelTest, LanesAreCappedAtTheItemCount) {
  std::mutex mu;
  std::set<std::thread::id> lanes;
  util::parallel_for(
      3,
      [&](std::int64_t) {
        std::lock_guard<std::mutex> lock(mu);
        lanes.insert(std::this_thread::get_id());
      },
      64);
  EXPECT_GE(lanes.size(), 1u);
  EXPECT_LE(lanes.size(), 3u);
}

TEST(ParallelTest, ShutdownWhilePostingDrainsEveryTask) {
  // Destruction contract under load: the destructor sets stop_ and joins,
  // but a worker only exits when the queue is *empty*, so tasks posted
  // before — and tasks posted *by running tasks during* — the shutdown all
  // drain. Root tasks here keep posting children while the destructor is
  // joining; the total is deterministic. (Runs under the TSan CI job, which
  // would flag any unsynchronized queue access this shutdown path hid.)
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.post([&pool, &ran] {
        ran.fetch_add(1);
        for (int child = 0; child < 3; ++child) {
          pool.post([&ran] { ran.fetch_add(1); });
        }
      });
    }
    // ~ThreadPool runs here, racing the posts above on purpose.
  }
  EXPECT_EQ(ran.load(), 8 + 8 * 3);
}

// --- Determinism at any thread count ---------------------------------------
//
// Every stage is serial, and threads run whole decks side by side. So each
// threaded arm below runs copies of one stage as the items of a single
// parallel_for batch, and every item must match a run on the caller alone.

std::vector<double> synthetic_field(const mesh::TriMesh& m) {
  std::vector<double> values;
  for (int i = 0; i < m.num_nodes(); ++i) {
    const geom::Vec2 p = m.pos(i);
    values.push_back(p.x * p.x + p.y * p.y +
                     25.0 * std::sin(0.21 * p.x) * std::cos(0.17 * p.y));
  }
  return values;
}

void expect_segments_identical(const std::vector<ospl::ContourSegment>& a,
                               const std::vector<ospl::ContourSegment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Exact comparison on purpose: the contract is byte-identical output,
    // not merely close output.
    EXPECT_EQ(a[i].level, b[i].level) << "segment " << i;
    EXPECT_EQ(a[i].element, b[i].element) << "segment " << i;
    EXPECT_TRUE(a[i].a == b[i].a && a[i].b == b[i].b) << "segment " << i;
  }
}

TEST(ParallelDeterminismTest, ContoursIdenticalAtOneTwoAndEightThreads) {
  const idlz::IdlzCase c = scenarios::strip_case(12, 18, 3);
  const idlz::IdlzResult r = idlz::run(c);
  const std::vector<double> values = synthetic_field(r.mesh);
  const double vmin = *std::min_element(values.begin(), values.end());
  const double vmax = *std::max_element(values.begin(), values.end());
  const std::vector<double> levels =
      ospl::contour_levels(vmin, vmax, ospl::auto_interval(vmin, vmax));
  const std::vector<ospl::ContourSegment> serial =
      ospl::extract_contours(r.mesh, values, levels);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 8}) {
    std::vector<std::vector<ospl::ContourSegment>> items(
        static_cast<size_t>(threads));
    util::parallel_for(
        threads,
        [&](std::int64_t i) {
          items[static_cast<size_t>(i)] =
              ospl::extract_contours(r.mesh, values, levels);
        },
        threads);
    for (const auto& item : items) expect_segments_identical(serial, item);
  }
}

TEST(ParallelDeterminismTest, IdlzRunIdenticalSerialVsThreaded) {
  const idlz::IdlzCase c = scenarios::strip_case(10, 12, 2);
  const idlz::IdlzResult serial = idlz::run(c);
  const std::string serial_listing = idlz::print_listing(serial);
  for (int threads : {2, 8}) {
    std::vector<std::string> listings(static_cast<size_t>(threads));
    std::vector<std::string> nodal(listings.size());
    std::vector<std::string> element(listings.size());
    util::parallel_for(
        threads,
        [&](std::int64_t li) {
          const size_t i = static_cast<size_t>(li);
          const idlz::IdlzResult r = idlz::run(c);
          listings[i] = idlz::print_listing(r);
          nodal[i] = r.nodal_cards;
          element[i] = r.element_cards;
        },
        threads);
    for (size_t i = 0; i < listings.size(); ++i) {
      EXPECT_EQ(listings[i], serial_listing) << threads << " threads";
      EXPECT_EQ(nodal[i], serial.nodal_cards) << threads << " threads";
      EXPECT_EQ(element[i], serial.element_cards) << threads << " threads";
    }
  }
}

// Mirrors the CLI batch loop: per-deck sinks and captured output merged in
// input order.
std::string run_batch(const std::vector<std::string>& decks, int threads) {
  std::vector<std::string> outputs(decks.size());
  util::parallel_for(
      static_cast<std::int64_t>(decks.size()),
      [&](std::int64_t i) {
        DiagSink sink;
        const auto cases = idlz::read_deck_string(
            decks[static_cast<size_t>(i)], sink,
            "deck" + std::to_string(i) + ".b");
        std::string out;
        for (const idlz::IdlzCase& c : cases) {
          const auto r = idlz::run_checked(c, sink);
          if (r) out += idlz::print_listing(*r);
        }
        out += sink.render_json();
        outputs[static_cast<size_t>(i)] = out;
      },
      threads);
  std::string merged;
  for (const std::string& o : outputs) merged += o;
  return merged;
}

TEST(ParallelDeterminismTest, DeckBatchIdenticalSerialVsThreaded) {
  const std::vector<std::string> decks = {
      idlz::write_deck({scenarios::strip_case(8, 10, 2)}),
      idlz::write_deck({scenarios::strip_case(6, 12, 3)}),
      idlz::write_deck({scenarios::strip_case(9, 9, 1)}),
  };
  const std::string serial = run_batch(decks, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(run_batch(decks, 4), serial);
  EXPECT_EQ(run_batch(decks, 8), serial);
}

TEST(ParallelDeterminismTest, QuickBenchReportIsIdenticalAndValidJson) {
  const scenarios::SolverBenchReport report =
      scenarios::run_solver_bench(/*quick=*/true);
  ASSERT_FALSE(report.cases.empty());
  EXPECT_TRUE(report.all_identical());
  const std::string json = report.render_json();
  EXPECT_TRUE(json_check::valid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"feio.report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"bench\""), std::string::npos);
  EXPECT_NE(json.find("\"payload_schema\": \"feio.bench.solver/4\""),
            std::string::npos);
  // The embedded metrics snapshot from the metered solve.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"fem.static_solves\""), std::string::npos);

  // Claim C6 on the 3,510-dof plate with holes. Paper: renumbering is
  // offered because solver cost depends directly on the bandwidth (no
  // numbers given). Here RCM cuts the dof half-bandwidth from 133 to 45,
  // the nodal bandwidth from 66 to 22, the factor's envelope from
  // 1,316,488 to 772,744 bytes (1.70x less storage to factor), and the
  // exact LDL^T work (sum of squared column heights) from 12,741,255 to
  // 2,816,839 (4.52x less). CI's timed gate asks RCM for 1.5x.
  struct Pin {
    const char* name;
    int half_bandwidth;
    int node_bw;
    std::int64_t skyline_bytes;
    std::int64_t work;
  };
  std::vector<std::int64_t> work;
  for (const Pin& pin : {Pin{"factor_solve/plate_holes96/none", 133, 66,
                             1316488, 12741255},
                         Pin{"factor_solve/plate_holes96/rcm", 45, 22,
                             772744, 2816839}}) {
    const auto it = std::find_if(
        report.cases.begin(), report.cases.end(),
        [&](const scenarios::SolverBenchCase& c) {
          return c.name == pin.name;
        });
    ASSERT_NE(it, report.cases.end()) << pin.name;
    EXPECT_FALSE(it->skipped) << pin.name;
    EXPECT_EQ(it->half_bandwidth, pin.half_bandwidth) << pin.name;
    EXPECT_EQ(it->node_bw, pin.node_bw) << pin.name;
    EXPECT_EQ(it->skyline_bytes, pin.skyline_bytes) << pin.name;
    EXPECT_EQ(it->work, pin.work) << pin.name;
    work.push_back(it->work);
  }
  EXPECT_NEAR(static_cast<double>(work[0]) / static_cast<double>(work[1]),
              4.5232, 1e-4);
}

}  // namespace
