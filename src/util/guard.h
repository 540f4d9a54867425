// Admission guards: reject oversized jobs up front with a structured
// E-RES-00x diagnostic instead of letting them OOM-kill or monopolize the
// process.
//
// Two usage shapes share one GuardLimits struct:
//   1. Pre-run admission (serve, CLI front ends): the admit_* helpers take
//      cheaply measurable job properties (deck cards/bytes) and return the
//      rejection Diag without throwing — the job is never started.
//   2. In-run guards (assembler node numbering, FEM dof count, envelope
//      factor storage): a ScopedGuard installs the limits thread-locally
//      (inherited by parallel_for lanes like the cancel token), and the
//      guard_check_* helpers throw util::ResourceError at the first point
//      the pipeline can bound the job's size — before the big allocation,
//      not after the OOM.
//
// Codes (cataloged in docs/ROBUSTNESS.md and docs/DIAGNOSTICS.md):
//   E-RES-001  deck exceeds max_deck_cards / max_deck_bytes
//   E-RES-002  node/dof count exceeds max_dofs
//   E-RES-003  estimated factor storage exceeds max_factor_bytes
//   E-RES-004  admission queue full (serve backpressure)
//   E-RES-005  deadline exceeded / cancelled (util/cancel.h)
//   E-RES-006  injected fault (util/fault.h)
//
// All limits default to 0 = unlimited, so an empty GuardLimits (and a
// process with no ScopedGuard installed) behaves exactly like the
// pre-guard library.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/diag.h"
#include "util/error.h"

namespace feio::util {

struct GuardLimits {
  std::int64_t max_deck_cards = 0;    // 0 = unlimited
  std::int64_t max_deck_bytes = 0;
  std::int64_t max_dofs = 0;          // nodes (IDLZ/OSPL) or dofs (FEM)
  std::int64_t max_factor_bytes = 0;  // envelope factor storage estimate

  // The serve loop's defaults: roomy for real decks, tight enough that a
  // hostile job cannot allocate the machine away (docs/ROBUSTNESS.md).
  static GuardLimits serve_defaults();
};

// Per-tenant deltas on top of a base GuardLimits (serve's multi-tenant
// admission): -1 inherits the base value, >= 0 replaces it (0 keeping its
// "unlimited" meaning). Kept separate from GuardLimits so a tenant config
// can say "cap decks at 100 cards, inherit everything else" without
// restating the serve defaults.
struct GuardOverrides {
  std::int64_t max_deck_cards = -1;
  std::int64_t max_deck_bytes = -1;
  std::int64_t max_dofs = -1;
  std::int64_t max_factor_bytes = -1;

  GuardLimits apply(const GuardLimits& base) const;
  bool any() const {
    return max_deck_cards >= 0 || max_deck_bytes >= 0 || max_dofs >= 0 ||
           max_factor_bytes >= 0;
  }
};

// Installs `g` as the calling thread's limits for the scope; restores the
// previous limits on destruction. Null is a no-op. util::parallel_for
// carries the calling thread's limits onto every lane of a batch.
class ScopedGuard {
 public:
  explicit ScopedGuard(const GuardLimits* g);
  ~ScopedGuard();
  ScopedGuard(const ScopedGuard&) = delete;
  ScopedGuard& operator=(const ScopedGuard&) = delete;

 private:
  const GuardLimits* previous_ = nullptr;
  bool installed_ = false;
};

// The calling thread's installed limits, or nullptr (everything admitted).
const GuardLimits* current_guard();

// Pre-run admission checks: the rejection diagnostic, or nullopt when the
// job is admissible (or the corresponding limit is 0). `what` names the job
// in the message ("job j17", a deck path, ...).
std::optional<Diag> admit_deck(std::string_view what, std::int64_t cards,
                               std::int64_t bytes, const GuardLimits& limits);

// In-run guards against the installed limits; no-ops when no guard is
// installed or the limit is 0. `what` describes the quantity being bounded
// ("assemblage nodes (estimated)", "stiffness dofs"). Throw ResourceError.
void guard_check_dofs(std::int64_t dofs, std::string_view what);
void guard_check_factor_bytes(std::int64_t bytes, std::string_view what);

// The byte size of an n-row band with half-bandwidth `hbw` (the band size
// fem::predict_storage reports beside the envelope):
// n * (hbw + 1) * sizeof(double), computed in checked std::int64_t
// arithmetic. Saturates to INT64_MAX on overflow so a configured
// max_factor_bytes limit always trips instead of wrapping — call-site
// estimates in narrower intermediate types (int, unsigned) silently went
// negative or small past 2^31 bytes and sailed through the guard. Every
// guard_check_factor_bytes caller must build its estimate with this.
std::int64_t checked_factor_bytes(std::int64_t n, std::int64_t half_bandwidth);

// The byte size of a skyline factor with `entries` stored doubles (the
// column-height sum): entries * sizeof(double) in the same saturating
// int64 arithmetic as checked_factor_bytes, so huge envelopes trip
// E-RES-003 instead of wrapping.
std::int64_t checked_skyline_bytes(std::int64_t entries);

}  // namespace feio::util
