// Tests for util::ThreadPool / parallel_chunks / parallel_for, and for the
// determinism contract of the parallelized pipeline stages: output must be
// byte-identical for any thread count.
#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
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

// Restores the process default thread count on scope exit so tests cannot
// leak a threaded default into each other.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(int n) : saved_(util::default_threads()) {
    util::set_default_threads(n);
  }
  ~ThreadsGuard() { util::set_default_threads(saved_); }

 private:
  int saved_;
};

TEST(ParallelTest, ParseThreadCountSharedFlagParser) {
  int out = -1;
  EXPECT_TRUE(util::parse_thread_count("1", out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(util::parse_thread_count("16", out));
  EXPECT_EQ(out, 16);
  EXPECT_TRUE(util::parse_thread_count("all", out));
  EXPECT_EQ(out, 0);  // set_default_threads() convention for "all hardware"
  out = 99;
  EXPECT_FALSE(util::parse_thread_count("0", out));
  EXPECT_FALSE(util::parse_thread_count("-2", out));
  EXPECT_FALSE(util::parse_thread_count("", out));
  EXPECT_FALSE(util::parse_thread_count("4x", out));
  EXPECT_FALSE(util::parse_thread_count("ALL", out));
  EXPECT_FALSE(util::parse_thread_count("1234567890", out));  // > 9 digits
  EXPECT_EQ(out, 99);  // rejected values leave `out` untouched
}

TEST(ParallelTest, ScopedThreadsOverridesAndRestoresDefault) {
  ThreadsGuard outer(1);
  {
    util::ScopedThreads scoped(3);
    EXPECT_EQ(util::default_threads(), 3);
    {
      util::ScopedThreads noop(0);  // 0 = leave the default untouched
      EXPECT_EQ(util::default_threads(), 3);
    }
    EXPECT_EQ(util::default_threads(), 3);
  }
  EXPECT_EQ(util::default_threads(), 1);
}

TEST(ParallelTest, ChunkCountClampsToRangeAndThreads) {
  EXPECT_EQ(util::chunk_count(0, 8), 1);
  EXPECT_EQ(util::chunk_count(3, 8), 3);
  EXPECT_EQ(util::chunk_count(100, 4), 4);
  EXPECT_EQ(util::chunk_count(100, 1), 1);
  ThreadsGuard guard(1);
  EXPECT_EQ(util::chunk_count(100, 0), 1);  // threads=0 -> serial default
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
  util::ThreadPool pool(2);
  pool.run_chunks(0, 4, [&](int, std::int64_t, std::int64_t) { calls++; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelTest, ChunksAreContiguousOrderedAndTimingIndependent) {
  util::ThreadPool pool(3);
  const std::int64_t n = 103;
  const int chunks = 7;
  std::mutex mu;
  std::vector<std::array<std::int64_t, 3>> seen;
  pool.run_chunks(n, chunks, [&](int c, std::int64_t begin, std::int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back({c, begin, end});
  });
  ASSERT_EQ(seen.size(), static_cast<size_t>(chunks));
  std::sort(seen.begin(), seen.end());
  for (int c = 0; c < chunks; ++c) {
    // The partition depends only on (n, chunks): chunk c is
    // [n*c/chunks, n*(c+1)/chunks).
    EXPECT_EQ(seen[static_cast<size_t>(c)][0], c);
    EXPECT_EQ(seen[static_cast<size_t>(c)][1], n * c / chunks);
    EXPECT_EQ(seen[static_cast<size_t>(c)][2], n * (c + 1) / chunks);
  }
}

TEST(ParallelTest, LowestIndexedExceptionWinsAndAllChunksComplete) {
  util::ThreadPool pool(3);
  std::atomic<int> completed{0};
  try {
    pool.run_chunks(100, 4, [&](int c, std::int64_t, std::int64_t) {
      if (c == 1 || c == 3) throw std::runtime_error("chunk " + std::to_string(c));
      completed++;
    });
    FAIL() << "expected the chunk-1 exception to propagate";
  } catch (const std::runtime_error& e) {
    // Chunk 1's error is what a serial left-to-right sweep would hit first.
    EXPECT_STREQ(e.what(), "chunk 1");
  }
  EXPECT_EQ(completed, 2);  // chunks 0 and 2 still ran to completion
}

// Every chunk throws, across several pool shapes: the winner must always be
// chunk 0 (what a serial sweep would hit first), every queued chunk must be
// drained rather than leaked, and the pool must stay usable — repeatedly.
TEST(ParallelTest, AllChunksThrowingIsDeterministicAcrossPoolSizes) {
  for (int threads : {1, 2, 3, 8}) {
    util::ThreadPool pool(threads);
    for (int round = 0; round < 5; ++round) {
      std::atomic<int> attempted{0};
      try {
        pool.run_chunks(1000, 32, [&](int c, std::int64_t, std::int64_t) {
          attempted++;
          throw std::runtime_error("chunk " + std::to_string(c));
        });
        FAIL() << "expected an exception (" << threads << " threads)";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk 0") << threads << " threads";
      }
      // run_chunks returns only after every chunk ran (drained, not
      // leaked): a leaked chunk would surface as attempted < 32 here or as
      // a stray execution corrupting the next round's count.
      EXPECT_EQ(attempted, 32) << threads << " threads, round " << round;
      std::atomic<std::int64_t> sum{0};
      pool.run_chunks(10, 2, [&](int, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) sum += i;
      });
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
  // post() shares the queue with run_chunks; both must keep working.
  std::atomic<std::int64_t> sum{0};
  pool.run_chunks(10, 4, [&](int, std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelTest, PoolIsReusableAfterAnException) {
  util::ThreadPool pool(2);
  EXPECT_THROW(pool.run_chunks(10, 2,
                               [](int, std::int64_t, std::int64_t) {
                                 throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  std::atomic<std::int64_t> sum{0};
  pool.run_chunks(10, 2, [&](int, std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelTest, NestedCallFromWorkerRunsSerialInlineWithoutDeadlock) {
  std::atomic<std::int64_t> total{0};
  std::atomic<int> nested_on_worker{0};
  std::atomic<bool> worker_started{false};
  util::parallel_for(
      4,
      [&](std::int64_t) {
        if (util::ThreadPool::on_worker_thread()) {
          worker_started = true;
          nested_on_worker++;
        } else if (util::hardware_threads() > 1) {
          // The caller lane could otherwise finish every chunk before a
          // pool worker wakes; hold it (bounded) until a worker has
          // started one, so a nested call on a worker always happens.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!worker_started &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        }
        // A nested parallel_for must fall back to inline-serial on worker
        // threads; either way it must complete and visit every index.
        std::int64_t local = 0;
        util::parallel_for(
            100, [&](std::int64_t i) { local += i; }, 4);
        total += local;
      },
      4);
  EXPECT_EQ(total, 4 * 4950);
  if (util::hardware_threads() > 1) {
    EXPECT_GT(nested_on_worker, 0);
  }
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

TEST(ParallelTest, RunChunksReentryFromWorkerRunsInlineInAscendingOrder) {
  // run_chunks re-entered from one of the pool's own workers (a posted task
  // rather than a nested chunk body) must take the serial inline path: the
  // same chunk partition in ascending order, executed entirely on the
  // calling worker — never handed back to the pool, which could deadlock a
  // fully busy queue. (Runs under the TSan CI job.)
  util::ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool on_worker = false;
  std::vector<int> order;
  pool.post([&] {
    const bool worker = util::ThreadPool::on_worker_thread();
    std::vector<int> chunks;
    pool.run_chunks(8, 4, [&](int c, std::int64_t begin, std::int64_t end) {
      EXPECT_EQ(begin, 2 * c);
      EXPECT_EQ(end, 2 * (c + 1));
      chunks.push_back(c);  // inline-serial: no other thread touches this
    });
    std::lock_guard<std::mutex> lock(mu);
    on_worker = worker;
    order = std::move(chunks);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_TRUE(on_worker);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- Determinism of the parallelized pipeline stages ----------------------

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
  ThreadsGuard guard(1);
  const idlz::IdlzCase c = scenarios::strip_case(12, 18, 3);
  const idlz::IdlzResult r = idlz::run(c);
  const std::vector<double> values = synthetic_field(r.mesh);
  const double vmin = *std::min_element(values.begin(), values.end());
  const double vmax = *std::max_element(values.begin(), values.end());
  const std::vector<double> levels =
      ospl::contour_levels(vmin, vmax, ospl::auto_interval(vmin, vmax));
  const auto serial = ospl::extract_contours(r.mesh, values, levels, 1);
  ASSERT_FALSE(serial.empty());
  expect_segments_identical(
      serial, ospl::extract_contours(r.mesh, values, levels, 2));
  expect_segments_identical(
      serial, ospl::extract_contours(r.mesh, values, levels, 8));
}

TEST(ParallelDeterminismTest, IdlzRunIdenticalSerialVsThreaded) {
  const idlz::IdlzCase c = scenarios::strip_case(10, 12, 2);
  std::string serial_listing, serial_nodal, serial_element;
  {
    ThreadsGuard guard(1);
    const idlz::IdlzResult r = idlz::run(c);
    serial_listing = idlz::print_listing(r);
    serial_nodal = r.nodal_cards;
    serial_element = r.element_cards;
  }
  for (int threads : {2, 8}) {
    ThreadsGuard guard(threads);
    const idlz::IdlzResult r = idlz::run(c);
    EXPECT_EQ(idlz::print_listing(r), serial_listing) << threads << " threads";
    EXPECT_EQ(r.nodal_cards, serial_nodal) << threads << " threads";
    EXPECT_EQ(r.element_cards, serial_element) << threads << " threads";
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
      scenarios::run_solver_bench(/*threads=*/2, /*quick=*/true);
  ASSERT_FALSE(report.cases.empty());
  EXPECT_TRUE(report.all_identical());
  const std::string json = report.render_json();
  EXPECT_TRUE(json_check::valid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"feio.report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"bench\""), std::string::npos);
  EXPECT_NE(json.find("\"payload_schema\": \"feio.bench.solver/3\""),
            std::string::npos);
  // The embedded metrics snapshot from the metered solve.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"fem.static_solves\""), std::string::npos);

  // Claim C6 on the 3,510-dof plate with holes. Paper: renumbering is
  // offered because solver cost depends directly on the bandwidth (no
  // numbers given). Here RCM cuts the dof half-bandwidth from 133 to 45,
  // the nodal bandwidth from 66 to 22, and the factor's envelope from
  // 1,316,488 to 772,744 bytes (1.70x less storage to factor).
  struct Pin {
    const char* name;
    int half_bandwidth;
    int node_bw;
    std::int64_t skyline_bytes;
  };
  for (const Pin& pin : {Pin{"factor_solve/plate_holes96/none", 133, 66,
                             1316488},
                         Pin{"factor_solve/plate_holes96/rcm", 45, 22,
                             772744}}) {
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
  }
}

}  // namespace
