// Tests for feio::serve (src/feio/serve.h): job-line parsing, the
// stdin-jsonl loop's one-envelope-per-line contract, admission behavior,
// per-job state isolation, and the feio.bench.serve/1 summary. The big one
// is the ISSUE acceptance scenario: a 500-job mixed stream that must finish
// with zero hangs, one valid envelope per input line, and a summary whose
// buckets sum to the job count.
#include "feio/serve.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "feio/options.h"
#include "idlz/deck.h"
#include "json_check.h"
#include "ospl/deck.h"
#include "ospl/ospl.h"
#include "scenarios/pipeline_bench.h"
#include "util/fault.h"

using namespace feio;

namespace {

// --- parse_job_line --------------------------------------------------------

TEST(ServeParseTest, AcceptsAFullJobLine) {
  serve::Job job;
  std::string error;
  ASSERT_TRUE(serve::parse_job_line(
      R"({"id": "j1", "pipeline": "idlz", "deck": "A\nB", "deadline_ms": 50,)"
      R"( "fault": "card.read:2"})",
      job, error))
      << error;
  EXPECT_EQ(job.id, "j1");
  EXPECT_EQ(job.pipeline, "idlz");
  EXPECT_EQ(job.deck, "A\nB");
  EXPECT_EQ(job.deadline_ms, 50);
  EXPECT_EQ(job.fault, "card.read:2");
}

TEST(ServeParseTest, DefaultsAndUnknownKeys) {
  serve::Job job;
  std::string error;
  ASSERT_TRUE(serve::parse_job_line(
      R"({"pipeline": "ospl", "deck": "X", "extra": 7, "flag": true})", job,
      error))
      << error;
  EXPECT_EQ(job.id, "");
  EXPECT_EQ(job.deadline_ms, 0);
  EXPECT_EQ(job.fault, "");
}

TEST(ServeParseTest, EscapesDecodeIntoTheDeck) {
  serve::Job job;
  std::string error;
  ASSERT_TRUE(serve::parse_job_line(
      R"({"pipeline": "idlz", "deck": "a\tb\\c\"dA"})", job, error))
      << error;
  EXPECT_EQ(job.deck, "a\tb\\c\"dA");
}

TEST(ServeParseTest, SurrogatePairsDecodeToOneUtf8Sequence) {
  serve::Job job;
  std::string error;
  // \uD83D\uDE00 is U+1F600 (grinning face): one 4-byte UTF-8 sequence,
  // never the CESU-8 pair of 3-byte surrogate encodings.
  ASSERT_TRUE(serve::parse_job_line(
      R"({"pipeline": "idlz", "deck": "A", "id": "\uD83D\uDE00"})", job,
      error))
      << error;
  EXPECT_EQ(job.id, "\xF0\x9F\x98\x80");
  // Non-surrogate BMP escapes still decode to 3-byte UTF-8.
  ASSERT_TRUE(serve::parse_job_line(
      R"({"pipeline": "idlz", "deck": "A", "id": "\u20AC"})", job, error))
      << error;
  EXPECT_EQ(job.id, "\xE2\x82\xAC");
}

TEST(ServeParseTest, UnpairedSurrogatesAreRejected) {
  serve::Job job;
  std::string error;
  const char* bad[] = {
      R"({"pipeline": "idlz", "deck": "A", "id": "\uD83D"})",        // lone hi
      R"({"pipeline": "idlz", "deck": "A", "id": "\uD83Dx"})",       // hi + text
      R"({"pipeline": "idlz", "deck": "A", "id": "\uD83D\n"})",      // hi + esc
      R"({"pipeline": "idlz", "deck": "A", "id": "\uD83D\uD83D"})",  // hi + hi
      R"({"pipeline": "idlz", "deck": "A", "id": "\uDE00"})",        // lone lo
  };
  for (const char* line : bad) {
    EXPECT_FALSE(serve::parse_job_line(line, job, error)) << line;
    EXPECT_NE(error.find("surrogate"), std::string::npos) << line;
  }
}

TEST(ServeParseTest, RejectsMalformedLines) {
  serve::Job job;
  std::string error;
  const char* bad[] = {
      "",                                          // not an object
      "[1, 2]",                                    // not an object
      R"({"pipeline": "idlz"})",                   // missing deck
      R"({"deck": "X"})",                          // missing pipeline
      R"({"pipeline": "punch", "deck": "X"})",     // unknown pipeline
      R"({"pipeline": "idlz", "deck": 7})",        // wrong type
      R"({"pipeline": "idlz", "deck": "X", "deadline_ms": "50"})",
      R"({"pipeline": "idlz", "deck": "X", "deadline_ms": -1})",
      R"({"pipeline": "idlz", "deck": "X", "nested": {"a": 1}})",
      R"({"pipeline": "idlz", "deck": "X"} trailing)",
      R"({"pipeline": "idlz", "deck": "unterminated)",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(serve::parse_job_line(line, job, error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

// --- feio.job/1 (PR 9) -----------------------------------------------------

TEST(ServeParseTest, VersionedJobLineIsAccepted) {
  serve::Job job;
  std::string error;
  ASSERT_TRUE(serve::parse_job_line(
      R"({"schema": "feio.job/1", "id": "j9", "tenant": "team-a",)"
      R"( "kind": "solve", "deck": "X", "load_case": 3})",
      job, error))
      << error;
  EXPECT_EQ(job.schema, serve::kJobSchema);
  EXPECT_EQ(job.id, "j9");
  EXPECT_EQ(job.tenant, "team-a");
  EXPECT_EQ(job.pipeline, "solve");  // "kind" is the feio.job/1 spelling
  EXPECT_EQ(job.load_case, 3);
}

TEST(ServeParseTest, UnsupportedSchemaVersionIsRejected) {
  serve::Job job;
  std::string error;
  EXPECT_FALSE(serve::parse_job_line(
      R"({"schema": "feio.job/2", "kind": "idlz", "deck": "X"})", job, error));
  EXPECT_NE(error.find("feio.job/1"), std::string::npos) << error;
}

TEST(ServeParseTest, KindAndPipelineAreAliases) {
  serve::Job job;
  std::string error;
  // Agreeing duplicates are fine; disagreeing ones are an error, never a
  // silent pick-one.
  ASSERT_TRUE(serve::parse_job_line(
      R"({"kind": "ospl", "pipeline": "ospl", "deck": "X"})", job, error))
      << error;
  EXPECT_EQ(job.pipeline, "ospl");
  EXPECT_FALSE(serve::parse_job_line(
      R"({"kind": "idlz", "pipeline": "ospl", "deck": "X"})", job, error));
  EXPECT_FALSE(error.empty());
}

TEST(ServeParseTest, TenantNamesAreValidated) {
  serve::Job job;
  std::string error;
  ASSERT_TRUE(serve::parse_job_line(
      R"({"kind": "idlz", "deck": "X", "tenant": "Team_9-a"})", job, error))
      << error;
  EXPECT_EQ(job.tenant, "Team_9-a");
  const char* bad[] = {
      R"({"kind": "idlz", "deck": "X", "tenant": ""})",
      R"({"kind": "idlz", "deck": "X", "tenant": "has space"})",
      R"({"kind": "idlz", "deck": "X", "tenant": "dot.dot"})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(serve::parse_job_line(line, job, error)) << line;
  }
  EXPECT_FALSE(serve::valid_tenant_name(std::string(65, 'a')));
  EXPECT_TRUE(serve::valid_tenant_name(std::string(64, 'a')));
}

TEST(ServeParseTest, NegativeLoadCaseIsRejected) {
  serve::Job job;
  std::string error;
  EXPECT_FALSE(serve::parse_job_line(
      R"({"kind": "solve", "deck": "X", "load_case": -1})", job, error));
  EXPECT_FALSE(serve::parse_job_line(
      R"({"kind": "solve", "deck": "X", "load_case": "2"})", job, error));
}

// --- Serve loop fixtures ---------------------------------------------------

// A deck string must be embeddable in a flat JSON line: escape the newlines.
std::string json_escape_deck(const std::string& deck) {
  std::string out;
  for (const char c : deck) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out += c;
    }
  }
  return out;
}

std::string small_idlz_deck() {
  static const std::string deck =
      idlz::write_deck({scenarios::strip_case(4, 5, 1)});
  return deck;
}

std::string small_ospl_deck() {
  static const std::string deck = [] {
    ospl::OsplCase c;
    const int n = 4;
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        c.mesh.add_node({static_cast<double>(i), static_cast<double>(j)});
        c.values.push_back(static_cast<double>(i + j));
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
    c.title1 = "SERVE TEST";
    return ospl::write_deck(c);
  }();
  return deck;
}

std::string idlz_job(const std::string& id, const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"pipeline\": \"idlz\", \"deck\": \"" +
         json_escape_deck(small_idlz_deck()) + "\"" + extra + "}";
}

std::string ospl_job(const std::string& id) {
  return "{\"id\": \"" + id + "\", \"pipeline\": \"ospl\", \"deck\": \"" +
         json_escape_deck(small_ospl_deck()) + "\"}";
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Pulls `"key": <integer>` out of a flat envelope line.
long long int_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + needle.size());
}

std::string string_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

serve::ServeSummary run_serve(const std::vector<std::string>& jobs,
                              std::vector<std::string>& envelopes,
                              serve::ServeOptions opts = {}) {
  std::string input;
  for (const std::string& j : jobs) {
    input += j;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  const serve::ServeSummary summary =
      serve::serve_stdin_jsonl(in, out, opts);
  envelopes = lines_of(out.str());
  return summary;
}

// --- Serve loop ------------------------------------------------------------

TEST(ServeTest, EmptyInputProducesAnEmptySummary) {
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve({}, envelopes);
  EXPECT_EQ(s.jobs, 0);
  EXPECT_TRUE(envelopes.empty());
  EXPECT_TRUE(json_check::valid(s.render_bench_json()));
}

TEST(ServeTest, OneEnvelopePerLineInInputOrder) {
  std::vector<std::string> jobs = {
      idlz_job("a"), "not json", ospl_job("b"), "", idlz_job("c"),
  };
  std::vector<std::string> envelopes;
  serve::ServeOptions opts;
  opts.threads = 4;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  ASSERT_EQ(envelopes.size(), jobs.size());
  for (size_t i = 0; i < envelopes.size(); ++i) {
    EXPECT_TRUE(json_check::valid(envelopes[i])) << envelopes[i];
    EXPECT_EQ(int_field(envelopes[i], "seq"), static_cast<long long>(i));
  }
  EXPECT_EQ(string_field(envelopes[0], "id"), "a");
  EXPECT_EQ(string_field(envelopes[0], "status"), "ok");
  EXPECT_EQ(string_field(envelopes[1], "status"), "error");
  EXPECT_EQ(string_field(envelopes[2], "status"), "ok");
  EXPECT_EQ(string_field(envelopes[3], "status"), "error");
  EXPECT_EQ(string_field(envelopes[4], "status"), "ok");
  EXPECT_EQ(s.jobs, 5);
  EXPECT_EQ(s.ok, 3);
  EXPECT_EQ(s.errors, 2);
}

TEST(ServeTest, OversizedDeckIsRejectedNotRun) {
  serve::ServeOptions opts;
  opts.guard.max_deck_cards = 3;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s =
      run_serve({idlz_job("big")}, envelopes, opts);  // deck has > 3 cards
  ASSERT_EQ(envelopes.size(), 1u);
  EXPECT_EQ(string_field(envelopes[0], "status"), "rejected");
  EXPECT_NE(envelopes[0].find("E-RES-001"), std::string::npos);
  EXPECT_EQ(s.rejected, 1);
}

// The Figure 2 deck (examples/decks/fig02.b): nine cards, the last one
// ended by a newline.
constexpr const char* kFig02Deck =
    "    1\n"
    "RECTANGULAR SUBDIVISION\n"
    "    0    0    0    1\n"
    "    1    1    1    6    9         0    0\n"
    "    1    2\n"
    "    1    1    6    1  0.0000  0.0000  5.0000  0.0000  0.0000\n"
    "    6    9    1    9  5.0000  8.0000  0.0000  8.0000  8.0000\n"
    "(2F9.5,51X,I3,5X,I3)\n"
    "(3I5,62X,I3)\n";

// Admission counts the cards the deck reader reads: a trailing newline ends
// the last card instead of starting a tenth.
TEST(ServeTest, CardLimitCountsTheCardsTheReaderReads) {
  const std::string terminated = kFig02Deck;
  const std::string unterminated =
      terminated.substr(0, terminated.size() - 1);
  for (const std::string& deck : {terminated, unterminated}) {
    const std::vector<std::string> jobs = {
        "{\"id\": \"fig02\", \"pipeline\": \"idlz\", \"deck\": \"" +
        json_escape_deck(deck) + "\"}"};
    serve::ServeOptions opts;
    std::vector<std::string> envelopes;
    opts.guard.max_deck_cards = 9;
    run_serve(jobs, envelopes, opts);
    ASSERT_EQ(envelopes.size(), 1u);
    EXPECT_EQ(string_field(envelopes[0], "status"), "ok") << envelopes[0];
    opts.guard.max_deck_cards = 8;
    run_serve(jobs, envelopes, opts);
    ASSERT_EQ(envelopes.size(), 1u);
    EXPECT_EQ(string_field(envelopes[0], "status"), "rejected");
    EXPECT_NE(envelopes[0].find("deck of 9 cards"), std::string::npos)
        << envelopes[0];
  }
}

TEST(ServeTest, TinyDeadlineTimesOutDeterministically) {
  // deadline_ms wants > 0, so the smallest expressible deadline is 1 ms —
  // but a 1 ms budget can actually finish a tiny deck. Instead give the
  // job a deck big enough that assembly alone blows 1 ms... still racy on
  // a fast machine, so accept either verdict and only require that a
  // timeout, when it happens, is structured. The deterministic guarantee
  // (an expired token always reports E-RES-005) lives in cancel_test.cc
  // where the token is constructed pre-expired.
  // Table 2 caps an assemblage at 500 nodes, so "slow" means many data
  // sets, each near the cap, run back to back within the one job.
  const std::string deck = idlz::write_deck(std::vector<idlz::IdlzCase>(
      8, scenarios::strip_case(16, 24, 2)));
  const std::string line =
      "{\"id\": \"slow\", \"pipeline\": \"idlz\", \"deck\": \"" +
      json_escape_deck(deck) + "\", \"deadline_ms\": 1}";
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve({line}, envelopes);
  ASSERT_EQ(envelopes.size(), 1u);
  const std::string status = string_field(envelopes[0], "status");
  EXPECT_TRUE(status == "timeout" || status == "ok") << envelopes[0];
  if (status == "timeout") {
    EXPECT_NE(envelopes[0].find("E-RES-005"), std::string::npos);
    EXPECT_EQ(s.timed_out, 1);
  }
}

TEST(ServeTest, QueueCapacityOneRejectsTheOverflow) {
  // One worker, capacity 1, and a first job that cannot finish before the
  // remaining lines are read: at least one later line must be rejected
  // with E-RES-004 while keeping its envelope slot.
  const std::string deck = idlz::write_deck(std::vector<idlz::IdlzCase>(
      8, scenarios::strip_case(16, 24, 2)));
  const std::string slow =
      "{\"id\": \"slow\", \"pipeline\": \"idlz\", \"deck\": \"" +
      json_escape_deck(deck) + "\"}";
  std::vector<std::string> jobs = {slow};
  for (int i = 0; i < 8; ++i) jobs.push_back(idlz_job("q" + std::to_string(i)));
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.queue_capacity = 1;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  ASSERT_EQ(envelopes.size(), jobs.size());
  EXPECT_GE(s.rejected, 1) << "capacity-1 queue never filled";
  bool saw_queue_full = false;
  for (const std::string& e : envelopes) {
    saw_queue_full |= e.find("E-RES-004") != std::string::npos;
  }
  EXPECT_TRUE(saw_queue_full);
  EXPECT_EQ(s.jobs, static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(s.ok + s.rejected + s.timed_out + s.faulted + s.errors, s.jobs);
}

TEST(ServeTest, PerJobFaultIsIsolated) {
  if (!util::kFaultInjectionEnabled) {
    GTEST_SKIP() << "build lacks -DFEIO_FAULT_INJECTION=ON";
  }
  // Job 0 faults; jobs 1..n on the same worker lane must be untouched.
  std::vector<std::string> jobs = {
      idlz_job("faulty", ", \"fault\": \"idlz.shape\""),
      idlz_job("clean1"),
      idlz_job("clean2"),
  };
  serve::ServeOptions opts;
  opts.threads = 1;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  ASSERT_EQ(envelopes.size(), 3u);
  EXPECT_EQ(string_field(envelopes[0], "status"), "faulted");
  EXPECT_NE(envelopes[0].find("E-RES-006"), std::string::npos);
  EXPECT_EQ(string_field(envelopes[1], "status"), "ok");
  EXPECT_EQ(string_field(envelopes[2], "status"), "ok");
  EXPECT_EQ(s.faulted, 1);
  EXPECT_EQ(s.ok, 2);
}

TEST(ServeTest, BadFaultSpecIsAJobErrorNotAServerError) {
  std::vector<std::string> jobs = {
      idlz_job("j", ", \"fault\": \"no.such.site\""), idlz_job("k")};
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes);
  ASSERT_EQ(envelopes.size(), 2u);
  EXPECT_EQ(string_field(envelopes[0], "status"), "error");
  EXPECT_NE(envelopes[0].find("E-SRV-001"), std::string::npos);
  EXPECT_EQ(string_field(envelopes[1], "status"), "ok");
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.ok, 1);
}

TEST(ServeTest, FailedOutputStreamStopsTheServer) {
  std::istringstream in(idlz_job("a") + "\n" + idlz_job("b") + "\n");
  std::ostringstream out;
  out.setstate(std::ios::failbit);
  EXPECT_THROW(serve::serve_stdin_jsonl(in, out), Error);
}

// The ISSUE acceptance scenario: a 500-job mixed stream — valid idlz, valid
// ospl, malformed JSON, blank lines, oversized decks, tiny deadlines — must
// finish (no hang), produce exactly one valid in-order envelope per line,
// and classify every deterministic job class correctly.
TEST(ServeTest, MixedStream500JobsSurvives) {
  // Oversized by card count (what admission measures — IDLZ decks are
  // subdivision-based, so mesh size alone does not add cards): 1500 junk
  // cards against a 1000-card guard. Rejection happens before parsing, so
  // the cards' content never matters.
  std::string big_deck;
  for (int i = 0; i < 1500; ++i) big_deck += "JUNK CARD\n";
  std::vector<std::string> jobs;
  std::vector<std::string> expect_status;
  for (int i = 0; i < 500; ++i) {
    const std::string id = "j" + std::to_string(i);
    switch (i % 6) {
      case 0:
        jobs.push_back(idlz_job(id));
        expect_status.push_back("ok");
        break;
      case 1:
        jobs.push_back(ospl_job(id));
        expect_status.push_back("ok");
        break;
      case 2:
        jobs.push_back("{\"id\": \"" + id + "\", broken");
        expect_status.push_back("error");
        break;
      case 3:
        jobs.push_back("");
        expect_status.push_back("error");
        break;
      case 4:
        // Oversized for the tightened per-test guard below.
        jobs.push_back("{\"id\": \"" + id +
                       "\", \"pipeline\": \"idlz\", \"deck\": \"" +
                       json_escape_deck(big_deck) + "\"}");
        expect_status.push_back("rejected");
        break;
      default:
        // Pre-expired deadline is impossible to express (0 = none), so use
        // a deck the guard admits with a 1 ms budget: either it finishes
        // (ok) or times out — both acceptable, marked "either".
        jobs.push_back(idlz_job(id, ", \"deadline_ms\": 1"));
        expect_status.push_back("either");
        break;
    }
  }
  serve::ServeOptions opts;
  opts.threads = 4;
  opts.queue_capacity = 600;  // never reject by backpressure: determinism
  opts.guard.max_deck_cards = 1000;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);

  ASSERT_EQ(envelopes.size(), 500u);
  for (size_t i = 0; i < envelopes.size(); ++i) {
    ASSERT_TRUE(json_check::valid(envelopes[i])) << envelopes[i];
    EXPECT_EQ(int_field(envelopes[i], "seq"), static_cast<long long>(i));
    const std::string status = string_field(envelopes[i], "status");
    if (expect_status[i] == "either") {
      EXPECT_TRUE(status == "ok" || status == "timeout") << envelopes[i];
    } else {
      EXPECT_EQ(status, expect_status[i]) << envelopes[i];
    }
  }
  EXPECT_EQ(s.jobs, 500);
  EXPECT_EQ(s.ok + s.rejected + s.timed_out + s.faulted + s.errors, s.jobs);
  // 500 = 6*83 + 2: residues 0 and 1 occur 84 times, the rest 83.
  EXPECT_EQ(s.rejected, 83);  // the i%6==4 class, rejected by card guard
  EXPECT_EQ(s.errors, 166);   // malformed + blank classes
  const std::string bench = s.render_bench_json();
  EXPECT_TRUE(json_check::valid(bench)) << bench;
  EXPECT_NE(bench.find("\"payload_schema\": \"feio.bench.serve/1\""),
            std::string::npos);
}

// --- Serve-path caches and rolling windows (PR 8) --------------------------

std::string solve_job(const std::string& id) {
  return "{\"id\": \"" + id + "\", \"pipeline\": \"solve\", \"deck\": \"" +
         json_escape_deck(small_idlz_deck()) + "\"}";
}

TEST(ServeCacheTest, SolvePipelineJobCompletesOk) {
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve({solve_job("s1")}, envelopes);
  ASSERT_EQ(envelopes.size(), 1u);
  EXPECT_EQ(string_field(envelopes[0], "status"), "ok") << envelopes[0];
  EXPECT_EQ(s.ok, 1);
}

TEST(ServeCacheTest, RepeatSolveJobsHitTheFactorCache) {
  std::vector<std::string> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(solve_job("s" + std::to_string(i)));
  serve::ServeOptions opts;
  opts.threads = 1;  // sequential: the first job fills, the rest hit
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  EXPECT_EQ(s.ok, 5);
  EXPECT_EQ(s.factor_misses, 1);
  EXPECT_EQ(s.factor_hits, 4);
  // Every job re-reads the same deck, so its FORMAT cards intern after the
  // first parse (the cache is process-wide; the summary reports deltas).
  EXPECT_GT(s.format_hits, 0);
}

TEST(ServeCacheTest, ConcurrentRepeatSolvesStayConsistent) {
  // At 4 threads several workers may miss concurrently before the first
  // fill lands, so only the invariants hold: every lookup is a hit or a
  // miss, at least one miss (the first), and no failures.
  std::vector<std::string> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(solve_job("c" + std::to_string(i)));
  }
  serve::ServeOptions opts;
  opts.threads = 4;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  EXPECT_EQ(s.ok, 12);
  EXPECT_EQ(s.factor_hits + s.factor_misses, 12);
  EXPECT_GE(s.factor_misses, 1);
  EXPECT_GE(s.factor_hits, 1);
}

TEST(ServeCacheTest, DisabledFactorCacheRunsEveryJobCold) {
  std::vector<std::string> jobs = {solve_job("a"), solve_job("b")};
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.factor_cache_capacity = 0;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  EXPECT_EQ(s.ok, 2);
  EXPECT_EQ(s.factor_hits, 0);
  EXPECT_EQ(s.factor_misses, 0);  // disabled: lookups are not even counted
}

TEST(ServeCacheTest, WarmAndColdEnvelopesAgreeModuloTiming) {
  // The cache must not change what a job reports — same status, same id,
  // same diagnostics — only how fast it got there. elapsed_ms is the one
  // field allowed to differ.
  const std::vector<std::string> jobs = {solve_job("x"), solve_job("x")};
  serve::ServeOptions warm;
  warm.threads = 1;
  serve::ServeOptions cold = warm;
  cold.factor_cache_capacity = 0;
  cold.format_cache_capacity = 0;
  std::vector<std::string> warm_env, cold_env;
  run_serve(jobs, warm_env, warm);
  run_serve(jobs, cold_env, cold);
  ASSERT_EQ(warm_env.size(), cold_env.size());
  for (size_t i = 0; i < warm_env.size(); ++i) {
    auto strip_elapsed = [](const std::string& line) {
      const size_t at = line.find("\"elapsed_ms\": ");
      if (at == std::string::npos) return line;
      const size_t end = line.find_first_of(",}", at);
      return line.substr(0, at) + line.substr(end);
    };
    EXPECT_EQ(strip_elapsed(warm_env[i]), strip_elapsed(cold_env[i]));
  }
}

TEST(ServeWindowTest, WindowsCutEveryNCompletions) {
  std::vector<std::string> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(solve_job("w" + std::to_string(i)));
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.window_jobs = 2;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  EXPECT_EQ(s.window_jobs, 2);
  ASSERT_EQ(s.windows.size(), 3u);  // 2 + 2 + 1
  EXPECT_EQ(s.windows[0].jobs, 2);
  EXPECT_EQ(s.windows[1].jobs, 2);
  EXPECT_EQ(s.windows[2].jobs, 1);
  std::int64_t total = 0;
  for (const serve::ServeWindow& w : s.windows) {
    total += w.jobs;
    EXPECT_GE(w.wall_ms, 0.0);
    EXPECT_GE(w.p99_ms, w.p50_ms);
    EXPECT_GE(w.format_hit_rate, 0.0);
    EXPECT_LE(w.format_hit_rate, 1.0);
    EXPECT_GE(w.factor_hit_rate, 0.0);
    EXPECT_LE(w.factor_hit_rate, 1.0);
  }
  EXPECT_EQ(total, s.jobs);
  // Sequential repeats: after the first window fills the cache, later
  // windows run at 100% factor hit rate.
  EXPECT_EQ(s.windows[2].factor_hit_rate, 1.0);
}

TEST(ServeWindowTest, WindowingDisabledLeavesWindowsEmpty) {
  serve::ServeOptions opts;
  opts.window_jobs = 0;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s =
      run_serve({solve_job("a"), solve_job("b")}, envelopes, opts);
  EXPECT_EQ(s.window_jobs, 0);
  EXPECT_TRUE(s.windows.empty());
}

// --- Split factor keys: many loads, one factorization (PR 9) ---------------

std::string solve_job_case(const std::string& id, long long load_case,
                           const std::string& tenant = "") {
  std::string line = "{\"id\": \"" + id + "\", \"kind\": \"solve\"";
  if (!tenant.empty()) line += ", \"tenant\": \"" + tenant + "\"";
  line += ", \"load_case\": " + std::to_string(load_case);
  line += ", \"deck\": \"" + json_escape_deck(small_idlz_deck()) + "\"}";
  return line;
}

TEST(ServeCacheTest, LoadCasesShareOneFactorization) {
  // Same deck, five different load cases: one cold factorization, four
  // warm re-solves of new load vectors (the split operator/loads key).
  std::vector<std::string> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(solve_job_case("lc" + std::to_string(i), i));
  }
  serve::ServeOptions opts;
  opts.threads = 1;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  EXPECT_EQ(s.ok, 5);
  EXPECT_EQ(s.factor_misses, 1);
  EXPECT_EQ(s.factor_hits, 4);
  EXPECT_EQ(s.factor_load_reuses, 4);  // every hit carried a new load vector
}

TEST(ServeCacheTest, LoadReuseIsBitIdenticalAtAnyThreadCount) {
  // The acceptance bar for the split key: a warm load-reuse solve must be
  // bit-identical to a cold solve, at 1 thread and at 8. Envelopes carry
  // the solution digest through their status/diagnostics, and elapsed_ms
  // is the only field allowed to differ.
  std::vector<std::string> jobs;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(solve_job_case("r" + std::to_string(round) + "c" +
                                        std::to_string(i),
                                    i));
    }
  }
  const auto strip_elapsed = [](const std::string& line) {
    const size_t at = line.find("\"elapsed_ms\": ");
    if (at == std::string::npos) return line;
    const size_t end = line.find_first_of(",}", at);
    return line.substr(0, at) + line.substr(end);
  };
  serve::ServeOptions warm1;
  warm1.threads = 1;
  serve::ServeOptions warm8 = warm1;
  warm8.threads = 8;
  serve::ServeOptions cold = warm1;
  cold.factor_cache_capacity = 0;
  cold.format_cache_capacity = 0;
  std::vector<std::string> warm1_env, warm8_env, cold_env;
  const serve::ServeSummary s1 = run_serve(jobs, warm1_env, warm1);
  run_serve(jobs, warm8_env, warm8);
  run_serve(jobs, cold_env, cold);
  EXPECT_GT(s1.factor_load_reuses, 0);
  ASSERT_EQ(warm1_env.size(), jobs.size());
  ASSERT_EQ(warm8_env.size(), jobs.size());
  ASSERT_EQ(cold_env.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(strip_elapsed(warm1_env[i]), strip_elapsed(cold_env[i])) << i;
    EXPECT_EQ(strip_elapsed(warm1_env[i]), strip_elapsed(warm8_env[i])) << i;
  }
}

TEST(ServeCacheTest, DisabledCachesAreFlaggedAndZeroedInTheSummary) {
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.format_cache_capacity = 0;
  opts.factor_cache_capacity = 0;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s =
      run_serve({solve_job("a"), solve_job("b")}, envelopes, opts);
  EXPECT_EQ(s.ok, 2);
  EXPECT_FALSE(s.format_cache_enabled);
  EXPECT_FALSE(s.factor_cache_enabled);
  EXPECT_EQ(s.format_hits, 0);
  EXPECT_EQ(s.format_misses, 0);
  EXPECT_EQ(s.factor_hits, 0);
  EXPECT_EQ(s.factor_misses, 0);
  EXPECT_EQ(s.factor_load_reuses, 0);
  const std::string bench = s.render_bench_json();
  EXPECT_NE(bench.find("\"format_enabled\": false"), std::string::npos);
  EXPECT_NE(bench.find("\"factor_enabled\": false"), std::string::npos);
  EXPECT_NE(bench.find("\"factor_load_reuses\": 0"), std::string::npos);
}

TEST(ServeCacheTest, FactorTtlPlumbsThroughAndSummarizes) {
  // A generous TTL must never evict inside a fast session: caching works
  // as without the TTL and the summary reports zero ttl evictions. (The
  // eviction mechanics themselves are pinned deterministically with an
  // injected clock in cache_test.cc.)
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.factor_ttl_ms = 60'000;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s =
      run_serve({solve_job("a"), solve_job("a"), solve_job("a")}, envelopes,
                opts);
  EXPECT_EQ(s.ok, 3);
  EXPECT_TRUE(s.factor_cache_enabled);
  EXPECT_EQ(s.factor_hits, 2);
  EXPECT_EQ(s.factor_misses, 1);
  EXPECT_EQ(s.factor_ttl_evictions, 0);
  const std::string bench = s.render_bench_json();
  EXPECT_NE(bench.find("\"factor_ttl_evictions\": 0"), std::string::npos);
}

TEST(ServeCacheTest, OrderFlagPinsEveryJobsRunOptions) {
  // The shared facade parses --order (joined and split forms) and threads
  // it into both RunOptions and ServeOptions.
  for (std::vector<std::string> flag :
       {std::vector<std::string>{"--order", "rcm"},
        std::vector<std::string>{"--order=rcm"}}) {
    feio::api::CommonOptions common;
    std::string error;
    std::vector<char*> argv;
    for (std::string& a : flag) argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    for (int i = 0; i < argc; ++i) {
      ASSERT_EQ(feio::api::consume_flag(common, argc, argv.data(), i, error),
                feio::api::FlagStatus::kOk)
          << error;
    }
    EXPECT_EQ(feio::api::run_options(common).ordering, OrderingChoice::kRcm);
    EXPECT_EQ(feio::api::serve_options(common).ordering,
              OrderingChoice::kRcm);
  }

  // Junk values are structured flag errors, not silent defaults; the
  // removed layout flag is no longer a common flag at all.
  feio::api::CommonOptions bad;
  std::string error;
  std::string junk = "--order=hilbert";
  std::string storage = "--storage=skyline";
  char* bad_argv[] = {junk.data(), storage.data()};
  int j = 0;
  EXPECT_EQ(feio::api::consume_flag(bad, 2, bad_argv, j, error),
            feio::api::FlagStatus::kError);
  EXPECT_NE(error.find("deck, none or rcm"), std::string::npos);
  j = 1;
  EXPECT_EQ(feio::api::consume_flag(bad, 2, bad_argv, j, error),
            feio::api::FlagStatus::kNotMine);

  // A pinned session still serves correctly: repeats hit the cache.
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.ordering = OrderingChoice::kRcm;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s =
      run_serve({solve_job("a"), solve_job("a")}, envelopes, opts);
  EXPECT_EQ(s.ok, 2);
  EXPECT_EQ(s.factor_misses, 1);
  EXPECT_EQ(s.factor_hits, 1);
}

// --- Multi-tenant admission (PR 9) -----------------------------------------

TEST(ServeTenantTest, EnvelopesAndSummaryCarryTheTenant) {
  std::vector<std::string> jobs = {solve_job_case("a", 0, "acme"),
                                   solve_job("b")};
  serve::ServeOptions opts;
  opts.threads = 1;
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  ASSERT_EQ(envelopes.size(), 2u);
  EXPECT_EQ(string_field(envelopes[0], "tenant"), "acme");
  EXPECT_EQ(string_field(envelopes[1], "tenant"), "default");
  ASSERT_EQ(s.tenants.size(), 2u);
  std::int64_t tenant_jobs = 0;
  for (const serve::TenantSummary& t : s.tenants) tenant_jobs += t.jobs;
  EXPECT_EQ(tenant_jobs, s.jobs);
}

TEST(ServeTenantTest, TenantQueueCapRejectsNamingTheTenant) {
  // Tenant "small" may hold one job at a time. While its slow job runs,
  // its later submissions bounce with an E-RES-004 that names the tenant;
  // the session queue has room to spare, so this is the tenant cap firing.
  const std::string deck = idlz::write_deck(std::vector<idlz::IdlzCase>(
      8, scenarios::strip_case(16, 24, 2)));
  const std::string slow =
      "{\"id\": \"slow\", \"tenant\": \"small\", \"pipeline\": \"idlz\","
      " \"deck\": \"" + json_escape_deck(deck) + "\"}";
  std::vector<std::string> jobs = {slow};
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(solve_job_case("s" + std::to_string(i), 0, "small"));
  }
  serve::ServeOptions opts;
  opts.threads = 1;
  serve::TenantConfig small;
  small.name = "small";
  small.queue_capacity = 1;
  opts.tenants.push_back(small);
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  ASSERT_EQ(envelopes.size(), jobs.size());
  EXPECT_GE(s.rejected, 1) << "capacity-1 tenant queue never filled";
  bool saw_tenant_full = false;
  for (const std::string& e : envelopes) {
    saw_tenant_full |=
        e.find("E-RES-004") != std::string::npos &&
        e.find("tenant \\\"small\\\" queue full") != std::string::npos;
  }
  EXPECT_TRUE(saw_tenant_full);
}

TEST(ServeTenantTest, TenantGuardOverridesTightenAdmission) {
  // Tenant "strict" caps decks at 3 cards; the identical deck sails
  // through for the default tenant, so the rejection is the override.
  serve::ServeOptions opts;
  opts.threads = 1;
  serve::TenantConfig strict;
  strict.name = "strict";
  strict.guard.max_deck_cards = 3;
  opts.tenants.push_back(strict);
  std::vector<std::string> jobs = {solve_job_case("tight", 0, "strict"),
                                   solve_job("loose")};
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  ASSERT_EQ(envelopes.size(), 2u);
  EXPECT_EQ(string_field(envelopes[0], "status"), "rejected");
  EXPECT_NE(envelopes[0].find("E-RES-001"), std::string::npos);
  EXPECT_EQ(string_field(envelopes[1], "status"), "ok");
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.ok, 1);
}

// The per-window share of `tenant` in window `w`, or 0 when absent.
double window_share(const serve::ServeWindow& w, const std::string& tenant) {
  for (const auto& [name, share] : w.tenant_shares) {
    if (name == tenant) return share;
  }
  return 0.0;
}

TEST(ServeTenantTest, WeightedSharesHoldPerRollingWindow) {
  // The fairness acceptance bar: tenant "heavy" (weight 3) and "light"
  // (weight 1), both backlogged, must split every rolling window 3:1
  // within 10%. The whole heavy backlog arrives first — under FIFO the
  // early windows would be all heavy and the late ones all light, so any
  // interleave at all is the DRR quantum at work. The factor cache is off
  // to keep every job slow enough that the backlog outlives submission.
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.window_jobs = 40;
  opts.factor_cache_capacity = 0;
  serve::TenantConfig heavy;
  heavy.name = "heavy";
  heavy.weight = 3;
  serve::TenantConfig light;
  light.name = "light";
  light.weight = 1;
  opts.tenants = {heavy, light};
  // A slow first job pins the single worker while the reader queues the
  // rest, so every later completion is a pure DRR pick from a full
  // backlog — no startup transient where the worker outruns submission.
  const std::string slow_deck = idlz::write_deck(
      std::vector<idlz::IdlzCase>(8, scenarios::strip_case(16, 24, 2)));
  std::vector<std::string> jobs = {
      "{\"id\": \"h-slow\", \"tenant\": \"heavy\", \"pipeline\": \"idlz\","
      " \"deck\": \"" + json_escape_deck(slow_deck) + "\"}"};
  for (int i = 0; i < 119; ++i) {
    jobs.push_back(solve_job_case("h" + std::to_string(i), i, "heavy"));
  }
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(solve_job_case("l" + std::to_string(i), i, "light"));
  }
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  EXPECT_EQ(s.ok, 160);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].tenant, "heavy");
  EXPECT_EQ(s.tenants[0].jobs, 120);
  EXPECT_EQ(s.tenants[1].jobs, 40);
  ASSERT_EQ(s.windows.size(), 4u);
  for (size_t w = 0; w < s.windows.size(); ++w) {
    const double share = window_share(s.windows[w], "heavy");
    EXPECT_NEAR(share, 0.75, 0.10) << "window " << w;
  }
}

TEST(ServeTenantTest, SkewedStreamDoesNotStarveTheMinority) {
  // The 100:1 skew scenario: tenant "bulk" floods 100 jobs before tenant
  // "interactive" submits its one. Equal weights mean DRR alternates the
  // moment both lanes are backlogged, so the interactive job completes in
  // an early window instead of dead last (which is where FIFO would put
  // it — the no-starvation property).
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.window_jobs = 10;
  opts.factor_cache_capacity = 0;
  const std::string slow_deck = idlz::write_deck(
      std::vector<idlz::IdlzCase>(8, scenarios::strip_case(16, 24, 2)));
  std::vector<std::string> jobs = {
      "{\"id\": \"b-slow\", \"tenant\": \"bulk\", \"pipeline\": \"idlz\","
      " \"deck\": \"" + json_escape_deck(slow_deck) + "\"}"};
  for (int i = 0; i < 99; ++i) {
    jobs.push_back(solve_job_case("b" + std::to_string(i), i, "bulk"));
  }
  jobs.push_back(solve_job_case("urgent", 0, "interactive"));
  std::vector<std::string> envelopes;
  const serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  EXPECT_EQ(s.ok, 101);
  ASSERT_GE(s.windows.size(), 3u);
  EXPECT_GT(window_share(s.windows[0], "interactive"), 0.0)
      << "the interactive job was starved out of the first window";
  EXPECT_EQ(window_share(s.windows.back(), "interactive"), 0.0);
}

TEST(ServeCacheTest, BenchJsonCarriesCacheWindowsAndAblation) {
  std::vector<std::string> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(solve_job("b" + std::to_string(i)));
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.window_jobs = 2;
  std::vector<std::string> envelopes;
  serve::ServeSummary s = run_serve(jobs, envelopes, opts);
  s.has_ablation = true;  // as the CLI's --ablate-caches mode fills it
  s.ablation_wall_ms = 2.0 * s.wall_ms;
  s.ablation_jobs_per_sec = 0.5 * s.jobs_per_sec;
  s.cache_speedup = 2.0;
  const std::string bench = s.render_bench_json();
  EXPECT_TRUE(json_check::valid(bench)) << bench;
  for (const char* key :
       {"\"cache\":", "\"format_hits\":", "\"format_hit_rate\":",
        "\"factor_hits\":", "\"factor_hit_rate\":", "\"window_jobs\":",
        "\"windows\":", "\"p50_ms\":", "\"ablation\":", "\"speedup\":"}) {
    EXPECT_NE(bench.find(key), std::string::npos) << key << "\n" << bench;
  }
}

}  // namespace
