// Tests for the robustness primitives (docs/ROBUSTNESS.md): deadlines and
// cooperative cancellation (util/cancel.h), admission guards (util/guard.h)
// and fault injection (util/fault.h), plus their plumbing through
// RunOptions, run_checked, fem::solve and util::parallel_for.
#include "util/cancel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "feio/run_options.h"
#include "fem/solver.h"
#include "idlz/idlz.h"
#include "ospl/ospl.h"
#include "scenarios/pipeline_bench.h"
#include "util/diag.h"
#include "util/fault.h"
#include "util/guard.h"
#include "util/parallel.h"

using namespace feio;

namespace {

// --- CancelToken -----------------------------------------------------------

TEST(CancelTest, DefaultTokenNeverExpiresUntilCancelled) {
  util::CancelToken t;
  EXPECT_FALSE(t.expired());
  EXPECT_NO_THROW(t.check("test.site"));
  t.cancel();
  EXPECT_TRUE(t.expired());
  EXPECT_THROW(t.check("test.site"), util::Cancelled);
}

TEST(CancelTest, ZeroBudgetIsAlreadyExpired) {
  const util::CancelToken t{std::chrono::nanoseconds(0)};
  EXPECT_TRUE(t.expired());
  EXPECT_THROW(t.check("test.site"), util::Cancelled);
}

TEST(CancelTest, GenerousBudgetDoesNotFire) {
  const util::CancelToken t{std::chrono::hours(1)};
  EXPECT_FALSE(t.expired());
  EXPECT_NO_THROW(t.check("test.site"));
}

TEST(CancelTest, CancelledCarriesCodeAndSite) {
  util::CancelToken t;
  t.cancel();
  try {
    t.check("fem.factorize.panel");
    FAIL() << "expected Cancelled";
  } catch (const util::Cancelled& e) {
    EXPECT_EQ(e.code(), "E-RES-005");
    EXPECT_NE(std::string(e.what()).find("fem.factorize.panel"),
              std::string::npos);
  }
  // Cancelled must be catchable as ResourceError (run_checked relies on it).
  try {
    t.check("site");
    FAIL() << "expected Cancelled";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), "E-RES-005");
  }
}

TEST(CancelTest, ScopedCancelInstallsAndRestores) {
  EXPECT_EQ(util::CancelToken::current(), nullptr);
  util::CancelToken outer;
  {
    util::ScopedCancel a(&outer);
    EXPECT_EQ(util::CancelToken::current(), &outer);
    {
      util::ScopedCancel noop(nullptr);  // null = keep the surrounding token
      EXPECT_EQ(util::CancelToken::current(), &outer);
      util::CancelToken inner;
      util::ScopedCancel b(&inner);
      EXPECT_EQ(util::CancelToken::current(), &inner);
    }
    EXPECT_EQ(util::CancelToken::current(), &outer);
  }
  EXPECT_EQ(util::CancelToken::current(), nullptr);
}

TEST(CancelTest, CheckMacroIsNoOpWithoutAToken) {
  ASSERT_EQ(util::CancelToken::current(), nullptr);
  EXPECT_NO_THROW(FEIO_CHECK_CANCEL("test.site"));
}

// --- Cancellation through the pipeline entry points ------------------------

TEST(CancelTest, ExpiredTokenMakesIdlzRunCheckedReportDeadline) {
  const idlz::IdlzCase c = scenarios::strip_case(10, 12, 2);
  const util::CancelToken expired{std::chrono::nanoseconds(0)};
  RunOptions ro;
  ro.cancel = &expired;
  DiagSink sink;
  EXPECT_FALSE(idlz::run_checked(c, sink, ro).has_value());
  ASSERT_FALSE(sink.ok());
  bool found = false;
  for (const Diag& d : sink.diags()) found |= d.code == "E-RES-005";
  EXPECT_TRUE(found) << sink.render_text();
}

TEST(CancelTest, UnexpiredTokenLeavesOutputByteIdentical) {
  const idlz::IdlzCase c = scenarios::strip_case(8, 10, 2);
  const idlz::IdlzResult plain = idlz::run(c);
  const util::CancelToken roomy{std::chrono::hours(1)};
  RunOptions ro;
  ro.cancel = &roomy;
  const idlz::IdlzResult guarded = idlz::run(c, ro);
  EXPECT_EQ(guarded.nodal_cards, plain.nodal_cards);
  EXPECT_EQ(guarded.element_cards, plain.element_cards);
}

TEST(CancelTest, ExpiredTokenMakesOsplRunCheckedReportDeadline) {
  ospl::OsplCase c;
  c.mesh.add_node({0.0, 0.0});
  c.mesh.add_node({1.0, 0.0});
  c.mesh.add_node({0.0, 1.0});
  c.mesh.add_element(0, 1, 2);
  c.mesh.classify_boundary(mesh::Topology(c.mesh));
  c.values = {0.0, 1.0, 2.0};
  c.title1 = "CANCEL TEST";
  const util::CancelToken expired{std::chrono::nanoseconds(0)};
  RunOptions ro;
  ro.cancel = &expired;
  DiagSink sink;
  EXPECT_FALSE(ospl::run_checked(c, sink, ro).has_value());
  bool found = false;
  for (const Diag& d : sink.diags()) found |= d.code == "E-RES-005";
  EXPECT_TRUE(found) << sink.render_text();
}

TEST(CancelTest, ExpiredTokenStopsStaticSolve) {
  mesh::TriMesh m;
  m.add_node({0.0, 0.0});
  m.add_node({1.0, 0.0});
  m.add_node({0.0, 1.0});
  m.add_element(0, 1, 2);
  fem::StaticProblem problem(m, fem::Analysis::kPlaneStress);
  problem.fix(0, true, true);
  problem.fix(1, true, true);
  problem.point_load(2, {1.0, 0.0});
  const util::CancelToken expired{std::chrono::nanoseconds(0)};
  RunOptions ro;
  ro.cancel = &expired;
  EXPECT_THROW(fem::solve(problem, ro), util::Cancelled);
  EXPECT_NO_THROW(fem::solve(problem, RunOptions{}));
}

// --- Cancellation across a parallel_for batch ------------------------------

TEST(CancelTest, ParallelChunksObserveTheSubmittersToken) {
  util::CancelToken t;
  t.cancel();
  util::ScopedCancel scope(&t);
  std::atomic<int> ran{0};
  try {
    util::parallel_for(1000, [&](std::int64_t) { ran++; }, 4);
    FAIL() << "expected Cancelled from the per-item check";
  } catch (const util::Cancelled& e) {
    EXPECT_EQ(e.code(), "E-RES-005");
  }
  EXPECT_EQ(ran, 0);  // every item checked before running its body
}

TEST(CancelTest, MidRunCancelStopsRemainingChunks) {
  util::CancelToken t;
  util::ScopedCancel scope(&t);
  std::atomic<int> ran{0};
  EXPECT_THROW(util::parallel_for(
                   64,
                   [&](std::int64_t i) {
                     ran++;
                     if (i == 0) t.cancel();  // every lane sees it before
                                              // its next item
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                   },
                   3),
               util::Cancelled);
  EXPECT_LT(ran.load(), 64);
}

// --- Admission guards ------------------------------------------------------

TEST(GuardTest, EmptyLimitsAdmitEverything) {
  const util::GuardLimits none;
  EXPECT_FALSE(util::admit_deck("job", 1 << 20, 1 << 30, none).has_value());
  util::ScopedGuard scope(&none);
  EXPECT_NO_THROW(util::guard_check_dofs(1 << 30, "dofs"));
  EXPECT_NO_THROW(util::guard_check_factor_bytes(std::int64_t{1} << 40, "b"));
}

TEST(GuardTest, AdmitDeckRejectsOversizedDecks) {
  util::GuardLimits limits;
  limits.max_deck_cards = 10;
  limits.max_deck_bytes = 100;
  EXPECT_FALSE(util::admit_deck("job", 10, 100, limits).has_value());
  const auto by_cards = util::admit_deck("job", 11, 50, limits);
  ASSERT_TRUE(by_cards.has_value());
  EXPECT_EQ(by_cards->code, "E-RES-001");
  const auto by_bytes = util::admit_deck("job", 5, 101, limits);
  ASSERT_TRUE(by_bytes.has_value());
  EXPECT_EQ(by_bytes->code, "E-RES-001");
}

TEST(GuardTest, InRunGuardsThrowTheDocumentedCodes) {
  util::GuardLimits limits;
  limits.max_dofs = 100;
  limits.max_factor_bytes = 1000;
  util::ScopedGuard scope(&limits);
  EXPECT_NO_THROW(util::guard_check_dofs(100, "dofs"));
  try {
    util::guard_check_dofs(101, "dofs");
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), "E-RES-002");
  }
  try {
    util::guard_check_factor_bytes(1001, "factor bytes");
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), "E-RES-003");
  }
}

TEST(GuardTest, GuardsReachTheIdlzPipeline) {
  util::GuardLimits limits;
  limits.max_dofs = 4;  // strip_case(10, 12, 2) numbers far more nodes
  util::ScopedGuard scope(&limits);
  const idlz::IdlzCase c = scenarios::strip_case(10, 12, 2);
  DiagSink sink;
  EXPECT_FALSE(idlz::run_checked(c, sink).has_value());
  bool found = false;
  for (const Diag& d : sink.diags()) found |= d.code == "E-RES-002";
  EXPECT_TRUE(found) << sink.render_text();
}

TEST(GuardTest, GuardsAreInheritedAcrossParallelChunks) {
  util::GuardLimits limits;
  limits.max_dofs = 7;
  util::ScopedGuard scope(&limits);
  std::atomic<int> threw{0};
  util::parallel_for(
      4,
      [&](std::int64_t) {
        try {
          util::guard_check_dofs(8, "item dofs");
        } catch (const ResourceError&) {
          threw++;
        }
      },
      4);
  EXPECT_EQ(threw, 4);
}

TEST(GuardTest, ServeDefaultsAreBoundedAndRoomy) {
  const util::GuardLimits g = util::GuardLimits::serve_defaults();
  EXPECT_GT(g.max_deck_cards, 0);
  EXPECT_GT(g.max_deck_bytes, 0);
  EXPECT_GT(g.max_dofs, 0);
  EXPECT_GT(g.max_factor_bytes, 0);
}

// --- Fault injection -------------------------------------------------------

TEST(FaultTest, RegistryIsSortedAndCoversThePipeline) {
  const std::vector<std::string>& sites = util::fault_sites();
  EXPECT_GE(sites.size(), 10u);
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  for (const char* site :
       {"card.read", "deck.parse", "fem.factorize.panel", "idlz.assemble",
        "ospl.contour", "report.write"}) {
    EXPECT_TRUE(std::binary_search(sites.begin(), sites.end(),
                                   std::string(site)))
        << site;
  }
}

TEST(FaultTest, ArmRejectsBadSpecs) {
  if (!util::kFaultInjectionEnabled) {
    // Spec validation is unreachable when arming itself is rejected; the
    // rejection path is covered by ArmMatchesTheBuildConfiguration.
    GTEST_SKIP() << "build lacks -DFEIO_FAULT_INJECTION=ON";
  }
  util::FaultScope scope;
  std::string error;
  EXPECT_FALSE(scope.arm("", error));
  EXPECT_FALSE(scope.arm("no.such.site", error));
  EXPECT_NE(error.find("no.such.site"), std::string::npos);
  EXPECT_FALSE(scope.arm("card.read:", error));
  EXPECT_FALSE(scope.arm("card.read:0", error));
  EXPECT_FALSE(scope.arm("card.read:x", error));
}

TEST(FaultTest, ArmMatchesTheBuildConfiguration) {
  util::FaultScope scope;
  std::string error;
  const bool armed = scope.arm("card.read", error);
  EXPECT_EQ(armed, util::kFaultInjectionEnabled);
  if (!armed) {
    // Without the hooks compiled in, arming must fail loudly rather than
    // silently never fire.
    EXPECT_NE(error.find("FEIO_FAULT_INJECTION"), std::string::npos) << error;
  }
}

TEST(FaultTest, ArmedSiteFiresOnceWithTheDocumentedCode) {
  if (!util::kFaultInjectionEnabled) {
    GTEST_SKIP() << "build lacks -DFEIO_FAULT_INJECTION=ON";
  }
  util::FaultScope scope;
  std::string error;
  ASSERT_TRUE(scope.arm("idlz.shape", error)) << error;
  const idlz::IdlzCase c = scenarios::strip_case(8, 10, 2);
  DiagSink sink;
  EXPECT_FALSE(idlz::run_checked(c, sink).has_value());
  bool found = false;
  for (const Diag& d : sink.diags()) found |= d.code == "E-RES-006";
  EXPECT_TRUE(found) << sink.render_text();
  // Fire-once: the same scope never fires again, so a rerun succeeds.
  DiagSink clean;
  EXPECT_TRUE(idlz::run_checked(c, clean).has_value()) << clean.render_text();
}

TEST(FaultTest, FreshScopeMasksAnOuterArmedSet) {
  if (!util::kFaultInjectionEnabled) {
    GTEST_SKIP() << "build lacks -DFEIO_FAULT_INJECTION=ON";
  }
  util::FaultScope outer;
  std::string error;
  ASSERT_TRUE(outer.arm("idlz.shape", error)) << error;
  const idlz::IdlzCase c = scenarios::strip_case(8, 10, 2);
  {
    util::FaultScope mask;  // serve's per-job isolation barrier
    DiagSink sink;
    EXPECT_TRUE(idlz::run_checked(c, sink).has_value()) << sink.render_text();
  }
  // The outer scope is live again and still armed.
  DiagSink sink;
  EXPECT_FALSE(idlz::run_checked(c, sink).has_value());
}

}  // namespace
