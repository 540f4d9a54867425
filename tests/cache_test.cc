// Serve-path caching (PR 8): the bounded LRU primitive (util/lru.h), the
// interned FORMAT-parse cache (cards/format_cache.h), the factorized
// stiffness LRU (fem/factor_cache.h) with its bit-identity contract, and
// the overflow-safe factor-byte estimate that guards huge bands
// (util::checked_factor_bytes, E-RES-003).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cards/format_cache.h"
#include "fem/assembly.h"
#include "fem/factor_cache.h"
#include "fem/material.h"
#include "fem/skyline.h"
#include "fem/solver.h"
#include "fem/stress.h"
#include "feio/run_options.h"
#include "mesh/tri_mesh.h"
#include "util/error.h"
#include "util/guard.h"
#include "util/lru.h"

namespace feio {
namespace {

// ---- util/lru.h -----------------------------------------------------------

TEST(LruCacheTest, PutGetAndCapacity) {
  util::LruCache<int, std::string> c(2);
  EXPECT_EQ(c.capacity(), 2u);
  EXPECT_TRUE(c.empty());
  c.put(1, "one");
  c.put(2, "two");
  EXPECT_EQ(c.size(), 2u);
  ASSERT_NE(c.get(1), nullptr);
  EXPECT_EQ(*c.get(1), "one");
  EXPECT_EQ(c.get(3), nullptr);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  util::LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  c.put(3, 30);  // capacity 2: evicts 1, the least recently used
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.size(), 2u);
}

TEST(LruCacheTest, GetPromotesEntry) {
  util::LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  ASSERT_NE(c.get(1), nullptr);  // 1 becomes most recent
  c.put(3, 30);                  // now 2 is the eviction victim
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(LruCacheTest, PutExistingKeyReplacesAndPromotes) {
  util::LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  c.put(1, 11);  // replace + promote; no growth
  EXPECT_EQ(c.size(), 2u);
  ASSERT_NE(c.get(1), nullptr);
  EXPECT_EQ(*c.get(1), 11);
  c.put(3, 30);  // 2 is now least recent
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(1));
}

TEST(LruCacheTest, ZeroCapacityStoresNothing) {
  util::LruCache<int, int> c(0);
  c.put(1, 10);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.get(1), nullptr);
}

TEST(LruCacheTest, SetCapacityEvictsDownAndZeroClears) {
  util::LruCache<int, int> c(4);
  for (int k = 1; k <= 4; ++k) c.put(k, k * 10);
  c.set_capacity(2);  // keeps the two most recent: 3 and 4
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_TRUE(c.contains(4));
  c.set_capacity(0);
  EXPECT_TRUE(c.empty());
  c.put(5, 50);  // disabled: still stores nothing
  EXPECT_TRUE(c.empty());
}

TEST(LruCacheTest, ClearEmptiesButKeepsCapacity) {
  util::LruCache<int, int> c(3);
  c.put(1, 10);
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.capacity(), 3u);
  c.put(2, 20);
  EXPECT_TRUE(c.contains(2));
}

// ---- cards/format_cache.h -------------------------------------------------

class FormatCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { cards::reset_format_cache(); }
  void TearDown() override { cards::reset_format_cache(); }
};

TEST_F(FormatCacheTest, RepeatSpecHitsCache) {
  const auto a = cards::parse_format_cached("(3I5,F10.2)");
  const auto b = cards::parse_format_cached("(3I5,F10.2)");
  EXPECT_EQ(a.get(), b.get());  // interned: same object
  const cards::FormatCacheStats s = cards::format_cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
}

TEST_F(FormatCacheTest, PolicyIsPartOfTheKey) {
  const auto a = cards::parse_format_cached("(I5)", cards::BlankPolicy::kBlankAsZero);
  const auto b = cards::parse_format_cached("(I5)", cards::BlankPolicy::kIgnore);
  EXPECT_NE(a.get(), b.get());
  const cards::FormatCacheStats s = cards::format_cache_stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 0);
}

TEST_F(FormatCacheTest, ParseFailuresAreNotCachedOrCounted) {
  EXPECT_THROW(cards::parse_format_cached("(Q9)"), Error);
  EXPECT_THROW(cards::parse_format_cached("(Q9)"), Error);
  const cards::FormatCacheStats s = cards::format_cache_stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);
}

TEST_F(FormatCacheTest, DisabledCacheStillParses) {
  cards::set_format_cache_capacity(0);
  const auto a = cards::parse_format_cached("(2F8.3)");
  const auto b = cards::parse_format_cached("(2F8.3)");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());  // no interning when disabled
  const cards::FormatCacheStats s = cards::format_cache_stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);
  cards::set_format_cache_capacity(256);
}

// ---- util::checked_factor_bytes (satellite 1) -----------------------------

TEST(CheckedFactorBytesTest, SmallCaseIsExact) {
  // 100 rows, hbw 9: 100 * 10 * 8 bytes.
  EXPECT_EQ(util::checked_factor_bytes(100, 9), 8000);
}

TEST(CheckedFactorBytesTest, NonPositiveRowsGiveZero) {
  EXPECT_EQ(util::checked_factor_bytes(0, 5), 0);
  EXPECT_EQ(util::checked_factor_bytes(-3, 5), 0);
}

TEST(CheckedFactorBytesTest, SaturatesInsteadOfWrapping) {
  constexpr std::int64_t kSat = std::numeric_limits<std::int64_t>::max();
  // n * (hbw+1) * 8 overflows int64 -> saturate, never wrap negative.
  EXPECT_EQ(util::checked_factor_bytes(kSat / 2, kSat / 2), kSat);
  EXPECT_EQ(util::checked_factor_bytes(1'000'000'000'000, 3'000'000'000), kSat);
  // hbw+1 itself overflowing must also saturate.
  EXPECT_EQ(util::checked_factor_bytes(10, kSat), kSat);
}

TEST(CheckedFactorBytesTest, GuardTripsOnBandPastInt32Bytes) {
  // A band-shaped envelope of 300000 dofs at half-bandwidth 999 needs
  // ~300000 * 1000 * 8 = 2.4e9 bytes — past 2^31, where a 32-bit byte
  // estimate would have wrapped and sailed under the limit. The guard must
  // trip (E-RES-003), not allocate.
  util::GuardLimits limits;
  limits.max_factor_bytes = std::int64_t{1} << 30;  // 1 GiB
  util::ScopedGuard guard(&limits);
  std::vector<int> lows(300000);
  for (int i = 0; i < 300000; ++i) {
    lows[static_cast<std::size_t>(i)] = std::max(0, i - 999);
  }
  try {
    fem::SkylineMatrix k(std::move(lows));
    FAIL() << "guard did not trip on a 2.4 GB band";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), "E-RES-003");
  }
}

// ---- fem/factor_cache.h ---------------------------------------------------

// A small rectangular strip mesh: (nx+1) x 2 nodes, 2*nx CST elements.
mesh::TriMesh strip_mesh(int nx) {
  mesh::TriMesh m;
  for (int i = 0; i <= nx; ++i) {
    m.add_node({static_cast<double>(i), 0.0});
    m.add_node({static_cast<double>(i), 1.0});
  }
  for (int i = 0; i < nx; ++i) {
    const int a = 2 * i, b = 2 * i + 1, c = 2 * i + 2, d = 2 * i + 3;
    m.add_element(a, c, b);
    m.add_element(b, c, d);
  }
  m.orient_ccw();
  return m;
}

fem::StaticProblem cantilever(const mesh::TriMesh& m) {
  fem::StaticProblem p(m, fem::Analysis::kPlaneStress);
  p.set_material(fem::Material::isotropic(1000.0, 0.3));
  p.fix(0, true, true);
  p.fix(1, true, true);
  p.point_load(m.num_nodes() - 1, {0.0, -1.0});
  return p;
}

std::vector<std::uint64_t> solution_bits(const mesh::TriMesh& m,
                                         const fem::StaticProblem& p,
                                         const fem::StaticSolution& u) {
  std::vector<std::uint64_t> bits;
  for (const geom::Vec2& d : u.displacement) {
    bits.push_back(std::bit_cast<std::uint64_t>(d.x));
    bits.push_back(std::bit_cast<std::uint64_t>(d.y));
  }
  const std::vector<fem::Stress> es = fem::element_stresses(p, u);
  const std::vector<fem::Stress> ns = fem::nodal_stresses(m, es);
  for (const auto& list : {es, ns}) {
    for (const fem::Stress& s : list) {
      bits.push_back(std::bit_cast<std::uint64_t>(s.s11));
      bits.push_back(std::bit_cast<std::uint64_t>(s.s22));
      bits.push_back(std::bit_cast<std::uint64_t>(s.s33));
      bits.push_back(std::bit_cast<std::uint64_t>(s.s12));
    }
  }
  return bits;
}

TEST(FactorCacheTest, CachedSolveIsBitIdenticalToCold) {
  const mesh::TriMesh m = strip_mesh(8);
  const fem::StaticProblem p = cantilever(m);

  fem::FactorCache cache(4);
  const fem::StaticSolution u_cold = fem::solve(p, RunOptions{});

  RunOptions warm;
  warm.factor_cache = &cache;
  const fem::StaticSolution u_fill = fem::solve(p, warm);   // miss + fill
  const fem::StaticSolution u_hit = fem::solve(p, warm);    // hit
  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.entries, 1);

  const auto cold_bits = solution_bits(m, p, u_cold);
  EXPECT_EQ(cold_bits, solution_bits(m, p, u_fill)) << "cold-fill mismatch";
  EXPECT_EQ(cold_bits, solution_bits(m, p, u_hit)) << "cache-hit mismatch";
}

TEST(FactorCacheTest, RepeatSolvesHitAfterFirstMiss) {
  const mesh::TriMesh m = strip_mesh(6);
  const fem::StaticProblem p = cantilever(m);
  fem::FactorCache cache(4);
  RunOptions opts;
  opts.factor_cache = &cache;
  for (int k = 0; k < 5; ++k) fem::solve(p, opts);
  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 4);
}

TEST(FactorCacheTest, OperatorKeyIgnoresLoadsButSeesMaterialAndConstraints) {
  const mesh::TriMesh m = strip_mesh(4);
  const fem::StaticProblem base = cantilever(m);

  fem::StaticProblem stiffer = cantilever(m);
  stiffer.set_material(fem::Material::isotropic(2000.0, 0.3));

  fem::StaticProblem pinned = cantilever(m);
  pinned.fix(3, false, true);

  fem::StaticProblem pushed = cantilever(m);
  pushed.point_load(2, {1.0, 0.0});

  const fem::FactorKey k0 = fem::factor_key(base);
  EXPECT_FALSE(k0 == fem::factor_key(stiffer));
  EXPECT_FALSE(k0 == fem::factor_key(pinned));
  // The split: a load change keeps the operator key but moves loads_key.
  EXPECT_TRUE(k0 == fem::factor_key(pushed));
  EXPECT_NE(fem::loads_key(base), fem::loads_key(pushed));
  EXPECT_TRUE(k0 == fem::factor_key(cantilever(m)));
  EXPECT_EQ(fem::loads_key(base), fem::loads_key(cantilever(m)));

  // base and pushed share an operator: one cold solve, one load-reuse hit.
  fem::FactorCache cache(8);
  RunOptions opts;
  opts.factor_cache = &cache;
  fem::solve(base, opts);
  fem::solve(stiffer, opts);
  fem::solve(pushed, opts);
  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.load_reuses, 1);
  EXPECT_EQ(s.entries, 2);
}

TEST(FactorCacheTest, LoadReuseIsBitIdenticalToColdAtAnyThreadCount) {
  // The acceptance contract for the key split: warm-solving a *different*
  // load case against a cached factorization must be bit-identical to
  // cold-solving that load case. The solve is serial, so the same holds
  // on any thread a deck batch or serve worker runs it on.
  const mesh::TriMesh m = strip_mesh(8);

  auto loaded = [&](double fx, double fy) {
    fem::StaticProblem p(m, fem::Analysis::kPlaneStress);
    p.set_material(fem::Material::isotropic(1000.0, 0.3));
    p.fix(0, true, true);
    p.fix(1, true, true);
    p.point_load(m.num_nodes() - 1, {fx, fy});
    return p;
  };

  const fem::StaticProblem first = loaded(0.0, -1.0);
  const fem::StaticProblem second = loaded(2.5, 0.75);
  const fem::StaticSolution u_cold = fem::solve(second, RunOptions{});

  fem::FactorCache cache(4);
  RunOptions warm;
  warm.factor_cache = &cache;
  fem::solve(first, warm);  // miss: fills the operator entry
  const fem::StaticSolution u_warm = fem::solve(second, warm);

  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.load_reuses, 1);
  EXPECT_EQ(s.entries, 1);

  EXPECT_EQ(solution_bits(m, second, u_cold), solution_bits(m, second, u_warm))
      << "load-reuse mismatch";
}

TEST(FactorCacheTest, ThermalFieldStaysInTheOperatorKey) {
  // Temperatures feed equivalent loads AND stress recovery; a thermal
  // change must never reuse a factor entry filled without it.
  const mesh::TriMesh m = strip_mesh(4);
  fem::StaticProblem heated = cantilever(m);
  std::vector<double> temps(static_cast<size_t>(m.num_nodes()), 10.0);
  heated.set_temperature_load(std::move(temps), 1e-5, 0.0);
  EXPECT_FALSE(fem::factor_key(cantilever(m)) == fem::factor_key(heated));
}

TEST(FactorCacheTest, DisabledCacheNeverCounts) {
  const mesh::TriMesh m = strip_mesh(4);
  const fem::StaticProblem p = cantilever(m);
  fem::FactorCache cache(0);
  RunOptions opts;
  opts.factor_cache = &cache;
  fem::solve(p, opts);
  fem::solve(p, opts);
  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.entries, 0);
}

TEST(FactorCacheTest, FailedSolveDoesNotPoisonCache) {
  // A singular system (no constraints at all) must throw and leave the
  // cache empty: put() only happens after a successful factor+solve.
  mesh::TriMesh m = strip_mesh(2);
  fem::StaticProblem p(m, fem::Analysis::kPlaneStress);
  p.set_material(fem::Material::isotropic(1000.0, 0.3));
  p.point_load(m.num_nodes() - 1, {0.0, -1.0});

  fem::FactorCache cache(4);
  RunOptions opts;
  opts.factor_cache = &cache;
  EXPECT_THROW(fem::solve(p, opts), Error);
  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.misses, 1);  // the lookup happened; the fill did not
}

// ---- factor-cache idle TTL -------------------------------------------------

// A minimal live entry: a factorized 1x1 identity. The TTL tests only
// exercise slot lifetimes, not the solve contract.
std::shared_ptr<const fem::FactorEntry> tiny_entry() {
  fem::SkylineMatrix k({0});
  k.set(0, 0, 1.0);
  k.factorize();
  fem::FactorEntry e{std::move(k), {}, 0};
  return std::make_shared<const fem::FactorEntry>(std::move(e));
}

fem::FactorKey key_of(std::uint64_t tag) { return fem::FactorKey{tag, 0, 0}; }

TEST(FactorCacheTtlTest, IdleEntryExpiresAndIsCounted) {
  std::int64_t now = 0;
  fem::FactorCache cache(4, /*ttl_ms=*/100, [&now] { return now; });
  cache.put(key_of(1), tiny_entry());

  now = 99;  // still inside the window
  EXPECT_NE(cache.get(key_of(1), 0), nullptr);

  now = 300;  // idle since 99: expired
  EXPECT_EQ(cache.get(key_of(1), 0), nullptr);
  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.ttl_evictions, 1);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
}

TEST(FactorCacheTtlTest, HitsRefreshTheIdleClock) {
  // Three consecutive 80 ms gaps, each under the 100 ms TTL: the entry
  // must survive 240 ms of wall time because every get() re-touches it.
  std::int64_t now = 0;
  fem::FactorCache cache(4, /*ttl_ms=*/100, [&now] { return now; });
  cache.put(key_of(1), tiny_entry());
  for (now = 80; now <= 240; now += 80) {
    EXPECT_NE(cache.get(key_of(1), 0), nullptr) << "at t=" << now;
  }
  EXPECT_EQ(cache.stats().ttl_evictions, 0);
}

TEST(FactorCacheTtlTest, SweepOnlyExpiresIdleEntries) {
  std::int64_t now = 0;
  fem::FactorCache cache(4, /*ttl_ms=*/100, [&now] { return now; });
  cache.put(key_of(1), tiny_entry());  // idle since t=0
  now = 90;
  cache.put(key_of(2), tiny_entry());  // idle since t=90
  now = 150;                           // 1 is 150 ms idle, 2 only 60 ms
  EXPECT_EQ(cache.get(key_of(1), 0), nullptr);
  EXPECT_NE(cache.get(key_of(2), 0), nullptr);
  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.ttl_evictions, 1);
  EXPECT_EQ(s.entries, 1);
}

TEST(FactorCacheTtlTest, PutAlsoSweeps) {
  std::int64_t now = 0;
  fem::FactorCache cache(4, /*ttl_ms=*/100, [&now] { return now; });
  cache.put(key_of(1), tiny_entry());
  now = 500;
  cache.put(key_of(2), tiny_entry());  // the insert sweeps the stale slot
  const fem::FactorCacheStats s = cache.stats();
  EXPECT_EQ(s.ttl_evictions, 1);
  EXPECT_EQ(s.entries, 1);
}

TEST(FactorCacheTtlTest, ZeroTtlNeverExpires) {
  std::int64_t now = 0;
  fem::FactorCache cache(4, /*ttl_ms=*/0, [&now] { return now; });
  cache.put(key_of(1), tiny_entry());
  now = std::numeric_limits<std::int64_t>::max() / 2;
  EXPECT_NE(cache.get(key_of(1), 0), nullptr);
  EXPECT_EQ(cache.stats().ttl_evictions, 0);
}

}  // namespace
}  // namespace feio
