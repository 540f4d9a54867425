// Bounded LRU of factorized stiffness systems for the serve path.
//
// A repeat job re-assembles and re-factorizes an identical stiffness matrix
// — the step that dominates every static solve. The cache keys the
// *operator* of a StaticProblem by three 64-bit content hashes (mesh
// geometry/topology, material field, constraints + thermal field); a
// renumbered mesh hashes differently, so one ordering's factor never
// aliases another's. The load vector (point loads + edge pressures) is
// hashed separately via loads_key() and is NOT part of the key. One cached
// factorization therefore serves any number of load cases: a hit
// re-assembles only the unconstrained rhs, replays the recorded Dirichlet
// rhs transformation (whose coefficients are load-independent
// pre-elimination K entries), and runs the const solve() against the
// cached factor bytes — bit-identical to a cold solve at any thread count.
//
// Entries are immutable shared_ptr<const FactorEntry>; concurrent workers
// can solve against the same cached factor (solve() only reads the
// factor). Insertion happens ONLY after a fully successful cold solve — a
// job that faults, times out, or hits a singular pivot throws past the
// put(), so a failed job can never poison the cache (docs/ROBUSTNESS.md).
//
// Idle-entry TTL: a non-zero ttl_ms evicts entries that have not been hit
// within the window. Expired entries are swept from the cold end of the
// recency list on every get/put (cache.factor.ttl_evictions counts them),
// so a burst of one-off operators cannot pin stale factor bytes for the
// life of the session. The clock is injectable for deterministic tests;
// the default reads the steady clock.
//
// Thread-safe: all state sits behind an annotated util::Mutex. Capacity 0
// disables storage (every get misses; put is a no-op).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fem/skyline.h"
#include "util/lru.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace feio::fem {

class StaticProblem;

// Operator identity: everything that determines the factorized matrix.
// Loads are deliberately absent — see loads_key().
struct FactorKey {
  std::uint64_t mesh_hash = 0;
  std::uint64_t material_hash = 0;
  std::uint64_t operator_hash = 0;  // constraints + thermal field
};

inline bool operator<(const FactorKey& a, const FactorKey& b) {
  if (a.mesh_hash != b.mesh_hash) return a.mesh_hash < b.mesh_hash;
  if (a.material_hash != b.material_hash) {
    return a.material_hash < b.material_hash;
  }
  return a.operator_hash < b.operator_hash;
}

inline bool operator==(const FactorKey& a, const FactorKey& b) {
  return a.mesh_hash == b.mesh_hash && a.material_hash == b.material_hash &&
         a.operator_hash == b.operator_hash;
}

// The reusable result of assemble + factorize: the factorized matrix, the
// recorded Dirichlet rhs op sequence (so a new load vector can be
// constrained identically), and the hash of the loads the entry was filled
// with (only used to count load_reuses — hits that solve a different load
// case than the one that populated the entry).
struct FactorEntry {
  SkylineMatrix matrix;
  std::vector<DirichletRhsOp> rhs_ops;
  std::uint64_t loads_hash = 0;
};

struct FactorCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t load_reuses = 0;     // hits whose load vector differed
  std::int64_t ttl_evictions = 0;   // idle entries expired by the TTL
  std::int64_t entries = 0;
};

class FactorCache {
 public:
  // Monotonic milliseconds for the TTL sweep; injectable for tests.
  using Clock = std::function<std::int64_t()>;

  // ttl_ms == 0 disables idle eviction (entries live until LRU pressure).
  // A null clock uses the process steady clock.
  explicit FactorCache(std::size_t capacity, std::int64_t ttl_ms = 0,
                       Clock clock = nullptr);

  // Looks the operator key up (promoting it) and counts the hit or miss —
  // both in the local stats and as cache.factor.hits/misses metrics. A hit
  // whose stored loads_hash differs from `loads_hash` additionally counts
  // as a load reuse (cache.factor.load_reuse): the factorization is being
  // re-solved against a new load case. Expired idle entries are swept
  // first, so a hit is always on a live entry.
  std::shared_ptr<const FactorEntry> get(const FactorKey& key,
                                         std::uint64_t loads_hash)
      FEIO_EXCLUDES(mu_);

  // Inserts after a successful cold solve; evicts least-recently-used.
  void put(const FactorKey& key, std::shared_ptr<const FactorEntry> entry)
      FEIO_EXCLUDES(mu_);

  FactorCacheStats stats() const FEIO_EXCLUDES(mu_);

 private:
  struct Slot {
    std::shared_ptr<const FactorEntry> entry;
    std::int64_t touched_ms = 0;  // last get() hit (or the insert)
  };

  std::int64_t now_ms() const;
  void sweep_expired_locked(std::int64_t now) FEIO_REQUIRES(mu_);

  const std::int64_t ttl_ms_;
  const Clock clock_;
  mutable util::Mutex mu_;
  util::LruCache<FactorKey, Slot> cache_ FEIO_GUARDED_BY(mu_);
  std::int64_t hits_ FEIO_GUARDED_BY(mu_) = 0;
  std::int64_t misses_ FEIO_GUARDED_BY(mu_) = 0;
  std::int64_t load_reuses_ FEIO_GUARDED_BY(mu_) = 0;
  std::int64_t ttl_evictions_ FEIO_GUARDED_BY(mu_) = 0;
};

// Content hash of the problem's operator: mesh coordinates/topology/
// boundary flags, per-element material and analysis/thickness, constraints,
// and the thermal field (temperatures contribute equivalent loads, but
// alpha/t_ref also feed stress recovery, so they stay conservative in the
// operator key). FNV-1a over exact bit patterns — any bitwise change to any
// input yields a different key, so a hit can only replay a byte-identical
// operator.
FactorKey factor_key(const StaticProblem& problem);

// Content hash of the load vector definition (point loads + edge
// pressures) — the half of the old monolithic key that no longer gates
// factor reuse.
std::uint64_t loads_key(const StaticProblem& problem);

}  // namespace feio::fem
