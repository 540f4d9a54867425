// Fault injection: deterministic, compile-time-zero-cost failure hooks.
//
// Timeouts, mid-pipeline throws and partial-output paths are the hardest
// code to reach with real decks, so the pipeline carries ~10 named fault
// sites (FEIO_FAULT("fem.factorize.panel"), ...; registry in
// docs/ROBUSTNESS.md and fault_sites()). In a normal build the macro
// expands to nothing — zero object code, zero cost. A build configured with
// -DFEIO_FAULT_INJECTION=ON compiles the hooks in; they stay inert (one
// thread-local pointer load) until a FaultScope arms a site.
//
// Arming is scoped and thread-local, like cancellation: a FaultScope owns
// the armed set for its scope, util::parallel_for carries the calling
// thread's set onto every lane of a batch, and destroying the scope fully
// resets the state — one serve job's fault can never leak into the next.
// A fired site throws util::FaultInjected (code E-RES-006), which
// run_checked turns into a structured diagnostic.
//
// Spec syntax, shared by `feio --fault` and the serve job field:
//   site        fire on the first hit of `site`
//   site:N      fire on the Nth hit (N >= 1), once
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace feio::util {

// True when the build compiled the hooks in (-DFEIO_FAULT_INJECTION=ON).
#ifdef FEIO_FAULT_INJECTION
inline constexpr bool kFaultInjectionEnabled = true;
#else
inline constexpr bool kFaultInjectionEnabled = false;
#endif

// Thrown by an armed fault site. Carries the E-RES-006 code so run_checked
// maps it onto the documented diagnostic.
class FaultInjected : public ResourceError {
 public:
  explicit FaultInjected(std::string_view site);
};

// The registry of fault-site names wired into the pipeline, sorted. Arming
// validates against this list so a typo in --fault fails loudly instead of
// silently never firing.
const std::vector<std::string>& fault_sites();

namespace detail {
struct FaultSet;
}  // namespace detail

// Owns the armed-fault state for a scope, installed thread-locally for its
// lifetime (previous state restored on destruction — scopes nest). With no
// arm() calls the scope is a pure state barrier: anything armed by an outer
// scope is masked, which is how serve isolates jobs from each other and
// from the CLI-wide --fault flag.
class FaultScope {
 public:
  FaultScope();
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  // Arms one "site" / "site:N" spec. Returns false (and sets `error`) on a
  // malformed spec, an unknown site, or a build without the hooks compiled
  // in; `error` is a complete human-readable message.
  bool arm(std::string_view spec, std::string& error);

  // The calling thread's installed set, or nullptr. Exposed for
  // util::parallel_for, which re-installs it on every lane of a batch.
  static detail::FaultSet* current();

 private:
  std::unique_ptr<detail::FaultSet> set_;
  detail::FaultSet* previous_ = nullptr;
};

// Re-installs an existing set (possibly null) on the calling thread for the
// scope — the cross-thread inheritance half of FaultScope, used by the
// parallel layer. Installing null masks nothing and costs nothing.
class ScopedFaultInherit {
 public:
  explicit ScopedFaultInherit(detail::FaultSet* set);
  ~ScopedFaultInherit();
  ScopedFaultInherit(const ScopedFaultInherit&) = delete;
  ScopedFaultInherit& operator=(const ScopedFaultInherit&) = delete;

 private:
  detail::FaultSet* previous_ = nullptr;
  bool installed_ = false;
};

namespace detail {
// The hook body behind FEIO_FAULT: counts the hit against the calling
// thread's armed set and throws FaultInjected when an armed site reaches
// its trigger count (exactly once, even under concurrent hits).
void fault_point(const char* site);
}  // namespace detail

}  // namespace feio::util

// A named fault site. Expands to nothing unless the build defines
// FEIO_FAULT_INJECTION; sites must be listed in util/fault.cc's registry.
#ifdef FEIO_FAULT_INJECTION
#define FEIO_FAULT(site) ::feio::util::detail::fault_point(site)
#else
#define FEIO_FAULT(site) ((void)0)
#endif
