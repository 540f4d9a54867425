// feio.report/1 envelope compatibility: the classifier must recognize the
// documents the tool used to write (one checked-in pre-envelope golden
// file per kind, tests/golden/*_v0.json) as well as everything the new
// renderers emit — and the envelope must wrap the legacy payload without
// changing a byte of it.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "json_check.h"
#include "scenarios/solver_bench.h"
#include "util/diag.h"
#include "util/metrics.h"
#include "util/report.h"

#ifndef FEIO_GOLDEN_DIR
#define FEIO_GOLDEN_DIR "tests/golden"
#endif

namespace feio {
namespace {

std::string read_golden(const char* name) {
  std::ifstream in(std::string(FEIO_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ReportCompatTest, LegacyDiagGoldenClassifiesAsDiag) {
  const std::string doc = read_golden("diag_v0.json");
  ASSERT_TRUE(json_check::valid(doc));
  const ReportInfo info = classify_report(doc);
  EXPECT_EQ(info.kind, "diag");
  EXPECT_TRUE(info.legacy);
  EXPECT_EQ(info.schema, "");
}

TEST(ReportCompatTest, LegacyLintGoldenClassifiesAsDiagShape) {
  // Pre-envelope `feio lint --json` wrote the DiagSink document with no
  // producer marker, so by shape it classifies as legacy diag — the
  // closest truthful answer for those files.
  const std::string doc = read_golden("lint_v0.json");
  ASSERT_TRUE(json_check::valid(doc));
  const ReportInfo info = classify_report(doc);
  EXPECT_EQ(info.kind, "diag");
  EXPECT_TRUE(info.legacy);
}

TEST(ReportCompatTest, EnvelopedDiagKeepsLegacyPayloadByteForByte) {
  DiagSink sink;
  sink.error("E-CARD-001", "field 1 is not a valid integer",
             {"fig02.b", 3, 1, 5});
  sink.warning("W-FMT-002", "FORMAT wider than 80 columns", {"fig02.b", 8});
  const std::string legacy = sink.render_json();
  const std::string enveloped = sink.render_report_json("diag");
  ASSERT_TRUE(json_check::valid(enveloped)) << enveloped;
  // The envelope prepends exactly its four members; the rest of the
  // document is the legacy rendering unchanged.
  ASSERT_TRUE(legacy.rfind("{\n", 0) == 0);
  const std::string expected =
      "{\n" + std::string(report_header_json("diag")) + legacy.substr(2);
  EXPECT_EQ(enveloped, expected);
  EXPECT_NE(enveloped.find(legacy.substr(2)), std::string::npos);
}

TEST(ReportCompatTest, EnvelopedRenderersClassifyWithoutLegacyFlag) {
  DiagSink sink;
  sink.error("E-OSPL-001", "NN must be in 1..100000, got 0", {"iso.b", 1});
  for (const char* kind : {"diag", "lint"}) {
    const ReportInfo info = classify_report(sink.render_report_json(kind));
    EXPECT_EQ(info.schema, kReportSchema);
    EXPECT_EQ(info.kind, kind);
    EXPECT_FALSE(info.legacy);
  }
  scenarios::SolverBenchReport report;
  const ReportInfo bench = classify_report(report.render_json());
  EXPECT_EQ(bench.schema, kReportSchema);
  EXPECT_EQ(bench.kind, "bench");
  EXPECT_FALSE(bench.legacy);
}

TEST(ReportCompatTest, HeaderIsStable) {
  EXPECT_EQ(report_header_json("metrics"),
            "  \"schema\": \"feio.report/1\",\n"
            "  \"kind\": \"metrics\",\n"
            "  \"tool_version\": \"" +
                std::string(kToolVersion) +
                "\",\n"
                "  \"generated_by\": \"feio\",\n");
}

TEST(ReportCompatTest, ClassifierRejectsUnknownDocuments) {
  EXPECT_EQ(classify_report("{\"hello\": 1}").kind, "");
  EXPECT_EQ(classify_report("").kind, "");
  const ReportInfo other = classify_report("{\"schema\": \"other/9\"}");
  EXPECT_EQ(other.kind, "");
  EXPECT_EQ(other.schema, "other/9");
}

}  // namespace
}  // namespace feio
