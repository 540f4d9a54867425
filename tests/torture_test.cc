// Randomized torture harness: seeded mutations of valid Appendix B / C
// fixture decks — truncation, byte corruption, card transposition and
// deletion, out-of-range counts, NaN-ish reals — driven through the full
// recovering parse + pipeline. The contract under test: the pipeline never
// crashes, never hangs, and always ends with a structured report whose
// JSON form parses. Run under ASan/UBSan in CI.
#include <chrono>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "feio/run_options.h"
#include "idlz/deck.h"
#include "idlz/idlz.h"
#include "json_check.h"
#include "lint/lint.h"
#include "lint/sarif.h"
#include "ospl/deck.h"
#include "ospl/ospl.h"
#include "scenarios/scenarios.h"
#include "util/cancel.h"
#include "util/diag.h"
#include "util/fault.h"

namespace feio {
namespace {

constexpr int kIdlzSeeds = 350;
constexpr int kOsplSeeds = 200;
// Generous per-deck budget: mutated fixtures are tiny, so even under
// sanitizers a healthy run takes milliseconds. Tripping this means a hang
// regression, and the failing seed reproduces it.
constexpr double kMaxSecondsPerDeck = 20.0;

std::string base_idlz_deck() {
  return idlz::write_deck(
      {scenarios::fig02_rectangle(), scenarios::fig01_glass_joint()});
}

std::string base_ospl_deck() {
  ospl::OsplCase c;
  std::vector<double>* values = &c.values;
  const int n = 5;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      c.mesh.add_node({static_cast<double>(i), static_cast<double>(j)});
      values->push_back(static_cast<double>(i + j));
    }
  }
  for (int j = 0; j + 1 < n; ++j) {
    for (int i = 0; i + 1 < n; ++i) {
      const int a = j * n + i;
      c.mesh.add_element(a, a + 1, a + n);
      c.mesh.add_element(a + 1, a + n + 1, a + n);
    }
  }
  c.mesh.classify_boundary(mesh::Topology(c.mesh));
  c.title1 = "TORTURE BASE";
  c.title2 = "5 X 5 GRID";
  return ospl::write_deck(c);
}

std::vector<std::string> to_lines(const std::string& deck) {
  std::vector<std::string> lines;
  std::istringstream in(deck);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string from_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

size_t pick(std::mt19937& rng, size_t n) {
  return n == 0 ? 0 : std::uniform_int_distribution<size_t>(0, n - 1)(rng);
}

// One random structural or textual mutation.
std::string mutate_once(std::string deck, std::mt19937& rng) {
  static const char kNoise[] =
      "XZ*?-+.e 0123456789\t\x01\x7f()NAI";  // letters feed NAN/INF too
  static const char* kSplices[] = {"NAN",   "INF",    "1E+99", "-.-",
                                   "99999", "-99999", "+",     "1.2.3"};
  switch (pick(rng, 10)) {
    case 0: {  // truncate the deck
      deck.resize(pick(rng, deck.size() + 1));
      return deck;
    }
    case 1: {  // corrupt a few bytes
      const size_t n = 1 + pick(rng, 8);
      for (size_t i = 0; i < n && !deck.empty(); ++i) {
        deck[pick(rng, deck.size())] = kNoise[pick(rng, sizeof kNoise - 1)];
      }
      return deck;
    }
    case 2: {  // delete a card
      auto lines = to_lines(deck);
      if (!lines.empty()) lines.erase(lines.begin() + static_cast<long>(pick(rng, lines.size())));
      return from_lines(lines);
    }
    case 3: {  // duplicate a card
      auto lines = to_lines(deck);
      if (!lines.empty()) {
        const size_t i = pick(rng, lines.size());
        lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
      }
      return from_lines(lines);
    }
    case 4: {  // transpose two cards
      auto lines = to_lines(deck);
      if (lines.size() >= 2) {
        std::swap(lines[pick(rng, lines.size())],
                  lines[pick(rng, lines.size())]);
      }
      return from_lines(lines);
    }
    case 5: {  // overwrite a 5-column field with an extreme integer
      auto lines = to_lines(deck);
      if (!lines.empty()) {
        std::string& l = lines[pick(rng, lines.size())];
        if (l.size() >= 5) {
          const size_t col = 5 * pick(rng, l.size() / 5);
          l.replace(col, 5, pick(rng, 2) ? "99999" : "-9999");
        }
      }
      return from_lines(lines);
    }
    case 6: {  // splice a NaN-ish token at a random position
      const char* token = kSplices[pick(rng, 8)];
      const size_t at = pick(rng, deck.size() + 1);
      deck.replace(at, std::min(std::char_traits<char>::length(token),
                                deck.size() - at),
                   token);
      return deck;
    }
    case 7: {  // blank out a card
      auto lines = to_lines(deck);
      if (!lines.empty()) lines[pick(rng, lines.size())].clear();
      return from_lines(lines);
    }
    case 8: {  // append garbage cards
      const size_t n = 1 + pick(rng, 3);
      for (size_t i = 0; i < n; ++i) {
        deck += std::string(1 + pick(rng, 80), kNoise[pick(rng, sizeof kNoise - 1)]);
        deck += '\n';
      }
      return deck;
    }
    default: {  // shift a line left by a column (field misalignment)
      auto lines = to_lines(deck);
      if (!lines.empty()) {
        std::string& l = lines[pick(rng, lines.size())];
        if (!l.empty()) l.erase(0, 1 + pick(rng, 3));
      }
      return from_lines(lines);
    }
  }
}

std::string mutate(const std::string& base, std::mt19937& rng) {
  std::string deck = base;
  const size_t rounds = 1 + pick(rng, 3);
  for (size_t i = 0; i < rounds; ++i) deck = mutate_once(std::move(deck), rng);
  return deck;
}

// The invariant every mutated deck must satisfy: the run finishes, in
// bounded time, with a renderable report whose JSON form is valid.
void expect_structured_report(const DiagSink& sink, int seed,
                              double elapsed_s) {
  EXPECT_LT(elapsed_s, kMaxSecondsPerDeck) << "hang at seed " << seed;
  const std::string json = sink.render_json();
  ASSERT_TRUE(json_check::valid(json)) << "seed " << seed << "\n" << json;
  sink.render_text();  // must not throw either
}

TEST(TortureTest, IdlzSurvivesMutatedDecks) {
  const std::string base = base_idlz_deck();
  for (int seed = 0; seed < kIdlzSeeds; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed));
    const std::string deck = mutate(base, rng);
    const auto t0 = std::chrono::steady_clock::now();
    DiagSink sink;
    const auto cases = idlz::read_deck_string(deck, sink, "torture.b");
    for (const auto& c : cases) {
      if (sink.capped()) break;
      idlz::run_checked(c, sink);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    expect_structured_report(sink, seed, elapsed);
  }
}

TEST(TortureTest, OsplSurvivesMutatedDecks) {
  const std::string base = base_ospl_deck();
  for (int seed = 0; seed < kOsplSeeds; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(1000000 + seed));
    const std::string deck = mutate(base, rng);
    const auto t0 = std::chrono::steady_clock::now();
    DiagSink sink;
    const ospl::OsplCase c = ospl::read_deck_string(deck, sink, "torture.c");
    if (sink.ok()) ospl::run_checked(c, sink);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    expect_structured_report(sink, seed, elapsed);
  }
}

// The lint driver layers rule evaluation (including a pipeline dry run per
// case) on top of the recovering parse; it must satisfy the same contract —
// never crash, never hang, exit code in {0,1,2}, and both renderings (JSON
// and SARIF) always valid.
TEST(TortureTest, LintSurvivesMutatedIdlzDecks) {
  const std::string base = base_idlz_deck();
  for (int seed = 0; seed < kIdlzSeeds; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(2000000 + seed));
    const std::string deck = mutate(base, rng);
    const auto t0 = std::chrono::steady_clock::now();
    DiagSink sink;
    lint::lint_idlz_string(deck, sink, "torture.b");
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    expect_structured_report(sink, seed, elapsed);
    const int code = lint::exit_code(sink);
    EXPECT_GE(code, 0) << "seed " << seed;
    EXPECT_LE(code, 2) << "seed " << seed;
    ASSERT_TRUE(json_check::valid(lint::render_sarif(sink)))
        << "seed " << seed;
  }
}

TEST(TortureTest, LintSurvivesMutatedOsplDecks) {
  const std::string base = base_ospl_deck();
  for (int seed = 0; seed < kOsplSeeds; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(3000000 + seed));
    const std::string deck = mutate(base, rng);
    const auto t0 = std::chrono::steady_clock::now();
    DiagSink sink;
    lint::lint_ospl_string(deck, sink, "torture.c");
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    expect_structured_report(sink, seed, elapsed);
    ASSERT_TRUE(json_check::valid(lint::render_sarif(sink)))
        << "seed " << seed;
  }
}

// Robustness-layer torture (docs/ROBUSTNESS.md): the same mutated decks
// run under a 50 ms deadline. Cancellation may fire at any check point in
// any pipeline stage — or not at all when the deck dies in parsing first —
// and in every case the run must end with a structured report; a deadline
// that fires must surface as E-RES-005, never as a crash or a hang.
TEST(TortureTest, DeadlinedRunsAlwaysEndStructured) {
  const std::string idlz_base = base_idlz_deck();
  const std::string ospl_base = base_ospl_deck();
  for (int seed = 0; seed < kIdlzSeeds + kOsplSeeds; ++seed) {
    const bool is_idlz = seed < kIdlzSeeds;
    std::mt19937 rng(static_cast<unsigned>(4000000 + seed));
    const std::string deck = mutate(is_idlz ? idlz_base : ospl_base, rng);
    const util::CancelToken token{std::chrono::milliseconds(50)};
    RunOptions ro;
    ro.cancel = &token;
    const auto t0 = std::chrono::steady_clock::now();
    DiagSink sink;
    if (is_idlz) {
      const auto cases = idlz::read_deck_string(deck, sink, "torture.b");
      for (const auto& c : cases) {
        if (sink.capped()) break;
        idlz::run_checked(c, sink, ro);
      }
    } else {
      const ospl::OsplCase c = ospl::read_deck_string(deck, sink, "torture.c");
      if (sink.ok()) ospl::run_checked(c, sink, ro);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    expect_structured_report(sink, seed, elapsed);
  }
}

// Fault torture: every registered site armed in turn against strided seeds
// of both deck families. A fired fault must end in a structured report
// (E-RES-006 when it lands inside run_checked; mapped by hand at the call
// sites outside it, exactly as the CLI and serve do), and the next run on
// the same thread — fault scope gone — must be indistinguishable from a
// never-faulted process: per-job state fully resets.
TEST(TortureTest, FaultAtEverySiteEndsStructuredAndResetsCleanly) {
  if (!util::kFaultInjectionEnabled) {
    GTEST_SKIP() << "build lacks -DFEIO_FAULT_INJECTION=ON";
  }
  const std::string idlz_base = base_idlz_deck();
  const std::string ospl_base = base_ospl_deck();
  auto run_decks = [](const std::string& deck, bool is_idlz, DiagSink& sink) {
    try {
      if (is_idlz) {
        const auto cases = idlz::read_deck_string(deck, sink, "torture.b");
        for (const auto& c : cases) {
          if (sink.capped()) break;
          idlz::run_checked(c, sink);
        }
      } else {
        const ospl::OsplCase c =
            ospl::read_deck_string(deck, sink, "torture.c");
        if (sink.ok()) ospl::run_checked(c, sink);
      }
    } catch (const ResourceError& e) {
      // card.read / deck.parse fire during parsing, outside run_checked's
      // net; the front ends map them the same way.
      sink.error(e.code(), e.what());
    }
  };
  for (const std::string& site : util::fault_sites()) {
    for (int seed = 0; seed < 8; ++seed) {
      const bool is_idlz = seed % 2 == 0;
      std::mt19937 rng(static_cast<unsigned>(5000000 + seed * 131));
      const std::string deck = mutate(is_idlz ? idlz_base : ospl_base, rng);
      {
        util::FaultScope faults;
        std::string error;
        ASSERT_TRUE(faults.arm(site, error)) << error;
        DiagSink sink;
        run_decks(deck, is_idlz, sink);
        expect_structured_report(sink, seed, 0.0);
      }
      // The armed scope is gone: a rerun of the same deck on the same
      // thread must produce a report as if the fault never existed.
      DiagSink clean;
      run_decks(deck, is_idlz, clean);
      expect_structured_report(clean, seed, 0.0);
    }
  }
}

// The unmutated fixtures themselves must be clean, or the tests above are
// torturing an already-broken baseline.
TEST(TortureTest, BaselinesAreClean) {
  DiagSink sink;
  const auto cases = idlz::read_deck_string(base_idlz_deck(), sink, "base.b");
  EXPECT_EQ(cases.size(), 2u);
  for (const auto& c : cases) idlz::run_checked(c, sink);
  EXPECT_TRUE(sink.ok()) << sink.render_text();

  DiagSink csink;
  const ospl::OsplCase c = ospl::read_deck_string(base_ospl_deck(), csink);
  ospl::run_checked(c, csink);
  EXPECT_TRUE(csink.ok()) << csink.render_text();
}

}  // namespace
}  // namespace feio
