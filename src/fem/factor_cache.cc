#include "fem/factor_cache.h"

#include <bit>
#include <chrono>
#include <utility>

#include "fem/assembly.h"
#include "fem/material.h"
#include "mesh/tri_mesh.h"
#include "util/metrics.h"

namespace feio::fem {
namespace {

// FNV-1a 64. Doubles hash by bit pattern (std::bit_cast), never by value:
// -0.0 vs +0.0 or denormal differences must produce different keys, because
// the cache's contract is bit-identical replay, not numerical equivalence.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ull;

  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t hash_mesh(const mesh::TriMesh& m) {
  Fnv64 f;
  f.i64(m.num_nodes());
  f.i64(m.num_elements());
  for (const auto& node : m.nodes()) {
    f.f64(node.pos.x);
    f.f64(node.pos.y);
    f.i64(static_cast<std::int64_t>(node.boundary));
  }
  for (const auto& e : m.elements()) {
    f.i64(e.n[0]);
    f.i64(e.n[1]);
    f.i64(e.n[2]);
  }
  return f.h;
}

std::uint64_t hash_material(const StaticProblem& p) {
  Fnv64 f;
  f.i64(static_cast<std::int64_t>(p.analysis()));
  f.f64(p.thickness());
  for (int e = 0; e < p.mesh().num_elements(); ++e) {
    const Material& m = p.material_of(e);
    f.f64(m.e1);
    f.f64(m.e2);
    f.f64(m.e3);
    f.f64(m.nu12);
    f.f64(m.nu13);
    f.f64(m.nu23);
    f.f64(m.g12);
  }
  return f.h;
}

std::uint64_t hash_operator(const StaticProblem& p) {
  Fnv64 f;
  f.i64(static_cast<std::int64_t>(p.constraints().size()));
  for (const Constraint& c : p.constraints()) {
    f.i64(c.node);
    f.i64(c.fix_x ? 1 : 0);
    f.i64(c.fix_y ? 1 : 0);
    f.f64(c.value_x);
    f.f64(c.value_y);
  }
  f.i64(static_cast<std::int64_t>(p.nodal_temperatures().size()));
  for (double t : p.nodal_temperatures()) f.f64(t);
  f.f64(p.expansion_coefficient());
  f.f64(p.reference_temperature());
  return f.h;
}

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FactorCache::FactorCache(std::size_t capacity, std::int64_t ttl_ms,
                         Clock clock)
    : ttl_ms_(ttl_ms), clock_(std::move(clock)), cache_(capacity) {}

std::int64_t FactorCache::now_ms() const {
  return clock_ ? clock_() : steady_now_ms();
}

void FactorCache::sweep_expired_locked(std::int64_t now) {
  if (ttl_ms_ <= 0) return;
  // Recency order == last-touch order (get() refreshes touched_ms as it
  // promotes), so the expired entries are exactly a suffix of the list.
  while (const auto* cold = cache_.oldest()) {
    if (now - cold->second.touched_ms < ttl_ms_) break;
    cache_.pop_oldest();
    ++ttl_evictions_;
    FEIO_METRIC_ADD("cache.factor.ttl_evictions", 1);
  }
}

std::shared_ptr<const FactorEntry> FactorCache::get(const FactorKey& key,
                                                    std::uint64_t loads_hash) {
  util::MutexLock lock(mu_);
  if (cache_.capacity() == 0) return nullptr;
  const std::int64_t now = now_ms();
  sweep_expired_locked(now);
  if (auto* hit = cache_.get(key)) {
    hit->touched_ms = now;
    ++hits_;
    FEIO_METRIC_ADD("cache.factor.hits", 1);
    if (hit->entry->loads_hash != loads_hash) {
      ++load_reuses_;
      FEIO_METRIC_ADD("cache.factor.load_reuse", 1);
    }
    return hit->entry;
  }
  ++misses_;
  FEIO_METRIC_ADD("cache.factor.misses", 1);
  return nullptr;
}

void FactorCache::put(const FactorKey& key,
                      std::shared_ptr<const FactorEntry> entry) {
  util::MutexLock lock(mu_);
  const std::int64_t now = now_ms();
  sweep_expired_locked(now);
  cache_.put(key, Slot{std::move(entry), now});
}

FactorCacheStats FactorCache::stats() const {
  util::MutexLock lock(mu_);
  return {hits_, misses_, load_reuses_, ttl_evictions_,
          static_cast<std::int64_t>(cache_.size())};
}

FactorKey factor_key(const StaticProblem& problem) {
  return {hash_mesh(problem.mesh()), hash_material(problem),
          hash_operator(problem)};
}

std::uint64_t loads_key(const StaticProblem& problem) {
  Fnv64 f;
  f.i64(static_cast<std::int64_t>(problem.point_loads().size()));
  for (const PointLoad& l : problem.point_loads()) {
    f.i64(l.node);
    f.f64(l.force.x);
    f.f64(l.force.y);
  }
  f.i64(static_cast<std::int64_t>(problem.edge_pressures().size()));
  for (const EdgePressure& e : problem.edge_pressures()) {
    f.i64(e.n1);
    f.i64(e.n2);
    f.f64(e.p);
  }
  return f.h;
}

}  // namespace feio::fem
