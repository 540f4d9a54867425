#include "util/fault.h"

#include <algorithm>
#include <atomic>

namespace feio::util {
namespace detail {

// One armed spec. `hits` counts every FEIO_FAULT pass through the site,
// possibly from several worker threads at once; fetch_add hands exactly one
// thread the triggering count, so an armed site fires exactly once.
struct ArmedFault {
  std::string site;
  std::int64_t fire_on = 1;  // 1-based hit number that throws
  std::atomic<std::int64_t> hits{0};
};

struct FaultSet {
  // Armed sites are few (usually one); linear scan beats a map.
  std::vector<std::unique_ptr<ArmedFault>> armed;
};

namespace {
thread_local FaultSet* tl_fault_set = nullptr;
}  // namespace

void fault_point(const char* site) {
  FaultSet* set = tl_fault_set;
  if (set == nullptr) return;
  for (const std::unique_ptr<ArmedFault>& f : set->armed) {
    if (f->site != site) continue;
    if (f->hits.fetch_add(1, std::memory_order_relaxed) + 1 == f->fire_on) {
      throw FaultInjected(site);
    }
  }
}

}  // namespace detail

FaultInjected::FaultInjected(std::string_view site)
    : ResourceError("E-RES-006",
                    "injected fault fired (site " + std::string(site) + ")") {}

const std::vector<std::string>& fault_sites() {
  // The registry: every FEIO_FAULT(...) site wired into the pipeline, kept
  // sorted. docs/ROBUSTNESS.md documents what each site interrupts; the
  // fault torture tests iterate this list, so an unregistered site is a
  // site no test ever exercises.
  static const std::vector<std::string> kSites = {
      "card.read",            // cards/card_io.cc   CardReader::next_card
      "deck.parse",           // idlz,ospl/deck.cc  per data set
      "fem.alloc",            // fem/skyline.cc     envelope storage allocation
      "fem.assemble",         // fem/assembly.cc    stiffness assembly
      "fem.factorize.panel",  // fem/skyline.cc     per factorization panel
      "idlz.assemble",        // idlz/assembler.cc  node/element creation
      "idlz.punch",           // idlz/idlz.cc       punched-card output stage
      "idlz.shape",           // idlz/shaping.cc    per subdivision
      "ospl.contour",         // ospl/contour.cc    contour extraction
      "ospl.labels",          // ospl/ospl.cc       label placement
      "report.write",         // util/diag.cc       report rendering
  };
  return kSites;
}

FaultScope::FaultScope()
    : set_(std::make_unique<detail::FaultSet>()),
      previous_(detail::tl_fault_set) {
  detail::tl_fault_set = set_.get();
}

FaultScope::~FaultScope() { detail::tl_fault_set = previous_; }

bool FaultScope::arm(std::string_view spec, std::string& error) {
  if (!kFaultInjectionEnabled) {
    error =
        "fault injection not compiled in (configure with "
        "-DFEIO_FAULT_INJECTION=ON)";
    return false;
  }
  std::string_view site = spec;
  std::int64_t fire_on = 1;
  if (const size_t colon = spec.rfind(':'); colon != std::string_view::npos) {
    site = spec.substr(0, colon);
    const std::string_view count = spec.substr(colon + 1);
    fire_on = 0;
    if (count.empty() || count.size() > 9) {
      error = "bad fault spec '" + std::string(spec) + "': want site:N";
      return false;
    }
    for (const char c : count) {
      if (c < '0' || c > '9') {
        error = "bad fault spec '" + std::string(spec) + "': want site:N";
        return false;
      }
      fire_on = fire_on * 10 + (c - '0');
    }
    if (fire_on < 1) {
      error = "bad fault spec '" + std::string(spec) + "': N must be >= 1";
      return false;
    }
  }
  const std::vector<std::string>& sites = fault_sites();
  if (!std::binary_search(sites.begin(), sites.end(), site)) {
    error = "unknown fault site '" + std::string(site) + "'; known sites:";
    for (const std::string& s : sites) error += " " + s;
    return false;
  }
  auto armed = std::make_unique<detail::ArmedFault>();
  armed->site = std::string(site);
  armed->fire_on = fire_on;
  set_->armed.push_back(std::move(armed));
  return true;
}

detail::FaultSet* FaultScope::current() { return detail::tl_fault_set; }

ScopedFaultInherit::ScopedFaultInherit(detail::FaultSet* set) {
  if (set == nullptr) return;
  previous_ = detail::tl_fault_set;
  detail::tl_fault_set = set;
  installed_ = true;
}

ScopedFaultInherit::~ScopedFaultInherit() {
  if (installed_) detail::tl_fault_set = previous_;
}

}  // namespace feio::util
