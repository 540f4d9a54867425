// feio — command-line front end combining the two 1970 production programs.
//
//   feio idlz <deck>... [--out DIR] [--threads N] [--diag-json FILE]
//       idealize from Appendix B card decks; several decks form a batch
//       processed concurrently (per-deck reports merged in input order)
//   feio ospl <deck>... [--out DIR] [--threads N] [--diag-json FILE]
//       iso-plot from Appendix C card decks
//   feio check <deck>... [--ospl] [--json] [--threads N] [--diag-json FILE]
//       check decks without producing output: parse with error recovery,
//       run the pipeline per data set, and report every problem found
//   feio lint <deck>... [--ospl] [--json | --sarif] [--diag-json FILE]
//       static analysis: everything `check` reports plus the L-* lint
//       rules (FORMAT overflow, overlapping subdivisions, >90-degree arcs,
//       needle elements, bandwidth advice, contour-interval sanity)
//   feio figures [--out DIR]
//       regenerate every paper figure: each idealization's initial and
//       final mesh, Figure 12's concept triangle, and every analysis plot
//       including the contact (fig13c) and thermal-stress (fig14s) chains
//   feio mesh <deck> --off FILE       idealize and export the mesh as OFF
//   feio serve (--stdin-jsonl | --listen host:port|unix:path) [--threads N]
//       long-lived batch loop: one feio.job/1 job per line (stdin, or per
//       socket connection under --listen), one feio.report/1 envelope
//       (kind "job") per line back in per-connection input order; tenants
//       share the pool by weighted deficit-round-robin (--tenant); session
//       summary in BENCH_serve.json (docs/ROBUSTNESS.md)
//   feio help | --help | -h
//
// --threads N runs up to N decks of a batch concurrently (for serve, N
// concurrent jobs); each deck's pipeline runs serially on its thread.
// `--threads all` uses every hardware thread. Output is byte-identical to
// a serial run for any N.
//
// Observability (docs/OBSERVABILITY.md), accepted by every subcommand:
//   --trace FILE         write a Chrome trace-event JSON of the run
//                        (open in chrome://tracing or Perfetto)
//   --metrics-json FILE  write the run's counters/histograms as a
//                        feio.report/1 document of kind "metrics"
//                        (FILE of "-" prints to stdout)
// Both are off by default and cost nothing when off; enabling them never
// changes the deck outputs. Analysis runs add fem.assemble, fem.factorize
// and fem.solve spans plus fem.* counters to these documents.
//
// Machine-readable output (--diag-json, check/lint --json, --metrics-json,
// serve's BENCH_serve.json) shares the feio.report/1 envelope: "schema",
// "kind" (diag|lint|bench|metrics), "tool_version", "generated_by",
// then the kind-specific payload.
//
// Exit status: 0 on success, 1 on input/deck errors (diagnostic report on
// stderr), 2 on usage errors. `feio lint` refines this: 0 when the deck is
// clean, 1 when it has warnings only, 2 when it has errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <iostream>

#include "feio.h"
#include "feio/options.h"
#include "feio/serve.h"
#include "scenarios/scenarios.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/guard.h"
#include "util/parallel.h"

using namespace feio;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitInput = 1;
constexpr int kExitUsage = 2;

// Subcommand-specific arguments on top of the shared flag surface: every
// flag in api::CommonOptions (--threads, --out, --fault, the serve and
// cache knobs, the observability sinks) is parsed and validated by
// api::consume_flag, so this front end only owns what no other front end
// shares.
struct Args : api::CommonOptions {
  std::string command;
  std::vector<std::string> decks;
  std::string off_path;
  bool check_ospl = false;
  bool json = false;
  bool sarif = false;
};

// The RunOptions every pipeline call made on behalf of this invocation
// uses. --threads is not among them: only the deck batches read it.
RunOptions run_options(const Args& args) { return api::run_options(args); }

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage:\n"
               "  feio idlz <deck>... [--out DIR] [--threads N] "
               "[--diag-json FILE]\n"
               "      [--order deck|none|rcm]\n"
               "  feio ospl <deck>... [--out DIR] [--threads N] "
               "[--diag-json FILE]\n"
               "  feio check <deck>... [--ospl] [--json] [--threads N] "
               "[--diag-json FILE]\n"
               "  feio lint <deck>... [--ospl] [--json | --sarif] "
               "[--diag-json FILE]\n"
               "  feio figures [--out DIR]\n"
               "  feio mesh <deck> --off FILE\n"
               "  feio serve (--stdin-jsonl | --listen ADDR) [--threads N]\n"
               "      [--queue N] [--deadline-ms N] [--max-cards N]\n"
               "      [--max-dofs N] [--cache-formats N] [--cache-factors N]\n"
               "      [--factor-ttl-ms N]\n"
               "      [--window-jobs N] [--ablate-caches] [--out DIR]\n"
               "      [--max-conns N] [--tenant NAME:weight=W,queue=N,...]\n"
               "      [--order ...]\n"
               "  feio help\n"
               "observability (every subcommand; see docs/OBSERVABILITY.md):\n"
               "  --trace FILE         Chrome trace-event JSON of this run\n"
               "                       (analysis runs include fem.assemble,\n"
               "                       fem.factorize and fem.solve spans)\n"
               "  --metrics-json FILE  counters/histograms as feio.report/1"
               " ('-' = stdout)\n"
               "--threads takes a positive integer or 'all'\n"
               "--fault site[:N] injects a fault at the named site (builds\n"
               "  configured with -DFEIO_FAULT_INJECTION=ON only; see\n"
               "  docs/ROBUSTNESS.md for the site registry)\n"
               "--cache-formats/--cache-factors bound the serve-path caches\n"
               "  (0 disables); --factor-ttl-ms evicts factor-cache entries\n"
               "  idle longer than N ms (0 = no TTL); --window-jobs sizes\n"
               "  the rolling summary windows; --ablate-caches replays the\n"
               "  stream with caches off and adds the speedup to\n"
               "  BENCH_serve.json\n"
               "--order overrides the deck's renumbering scheme\n"
               "--listen ADDR serves concurrent connections on host:port or\n"
               "  unix:path; --max-conns N stops after N connections\n"
               "  (0 = accept forever)\n"
               "--tenant NAME:weight=W,queue=N,max-cards=N,max-bytes=N,\n"
               "  max-dofs=N,max-factor-bytes=N declares a weighted-fair\n"
               "  admission lane with per-tenant guard overrides; jobs pick\n"
               "  a lane with their \"tenant\" field (docs/ROBUSTNESS.md)\n"
               "exit status: 0 success, 1 input/deck error, 2 usage error\n"
               "  feio lint: 0 clean, 1 warnings only, 2 errors\n");
}

int usage() {
  print_usage(stderr);
  return kExitUsage;
}

// An ifstream on a directory opens "good" on Linux and only fails at the
// first read; catch that up front so the report says E-IO-001, not a
// misleading deck-truncation error.
bool open_deck(const std::string& path, std::ifstream& in, DiagSink& sink) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    sink.error(kCodeIoDeckOpen, "cannot open deck '" + path + "'");
    return false;
  }
  in.open(path);
  if (!in.good()) {
    sink.error(kCodeIoDeckOpen, "cannot open deck '" + path + "'");
    return false;
  }
  return true;
}

bool ensure_out_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create output directory '%s': %s\n",
                 dir.c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

// Every shared flag goes through api::consume_flag (one parser, one
// validation, one error message for all front ends); the loop below only
// keeps this binary's subcommand-specific flags and the deck operands.
bool parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string error;
    const api::FlagStatus shared = api::consume_flag(args, argc, argv, i, error);
    if (shared == api::FlagStatus::kOk) continue;
    if (shared == api::FlagStatus::kError) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return false;
    }
    const std::string a = argv[i];
    if (a == "--off" && i + 1 < argc) {
      args.off_path = argv[++i];
    } else if (a == "--ospl") {
      args.check_ospl = true;
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--sarif") {
      args.sarif = true;
    } else if (!a.empty() && a[0] != '-') {
      args.decks.push_back(a);
    } else {
      return false;
    }
  }
  return true;
}

// The feio.report/1 kind of this invocation's diagnostic documents: lint
// findings land in kind "lint", every other subcommand reports kind "diag".
const char* diag_kind(const Args& args) {
  return args.command == "lint" ? "lint" : "diag";
}

// Writes the JSON report when --diag-json was given; failure to write —
// including a write that only fails at flush time (full disk, revoked
// permissions) — is itself an input error worth reporting (E-IO-002).
bool write_diag_json(const Args& args, const DiagSink& sink) {
  if (args.diag_json_path.empty()) return true;
  std::ofstream out(args.diag_json_path);
  if (out.good()) {
    out << sink.render_report_json(diag_kind(args));
    out.flush();
  }
  if (!out.good()) {
    std::fprintf(stderr, "error: %s: cannot write '%s'\n", kCodeIoWriteFile,
                 args.diag_json_path.c_str());
    return false;
  }
  return true;
}

// Writes a deck-derived text artifact (punched cards, listings). A failed
// write lands in the deck's sink as E-IO-002 so batch runs report it per
// deck and the command exits nonzero, instead of leaving a silent
// half-written file behind.
void write_text_file(const std::string& path, const std::string& content,
                     DiagSink& sink) {
  std::ofstream out(path);
  if (out.good()) {
    out << content;
    out.flush();
  }
  if (!out.good()) sink.error(kCodeIoWriteFile, "cannot write '" + path + "'");
}

// write_svg throws feio::Error when the file cannot be opened or written;
// map that onto the same E-IO-002 diagnostic as the text artifacts.
void write_svg_checked(const plot::PlotFile& plot, const std::string& path,
                       DiagSink& sink) {
  try {
    plot::write_svg(plot, path);
  } catch (const Error& e) {
    sink.error(kCodeIoWriteFile, e.what());
  }
}

// Prints the text report to stderr and returns the command's exit status.
int finish(const Args& args, const DiagSink& sink) {
  const bool wrote = write_diag_json(args, sink);
  if (!sink.empty() || !sink.ok()) {
    std::fprintf(stderr, "%s", sink.render_text().c_str());
  }
  if (!sink.ok() || !wrote) return kExitInput;
  return kExitOk;
}

// Per-deck output-file prefix for batch runs: the deck's basename (made
// unique when two decks share one), empty for a single deck so existing
// single-deck file names are unchanged.
std::vector<std::string> deck_prefixes(const std::vector<std::string>& decks) {
  std::vector<std::string> prefixes(decks.size());
  if (decks.size() < 2) return prefixes;
  std::set<std::string> seen;
  for (size_t i = 0; i < decks.size(); ++i) {
    std::string stem = std::filesystem::path(decks[i]).stem().string();
    if (stem.empty()) stem = "deck";
    if (!seen.insert(stem).second) stem += "-" + std::to_string(i + 1);
    prefixes[i] = stem + "_";
  }
  return prefixes;
}

// Runs `body(i, sink_i, out_i)` for every deck — concurrently under
// --threads — then replays the captured stdout text and merges the
// per-deck sinks in input order, so a batch report is byte-identical to
// processing the decks one by one.
template <typename Body>
int for_each_deck(const Args& args, const Body& body, DiagSink& merged) {
  const size_t n = args.decks.size();
  std::vector<DiagSink> sinks(n);
  std::vector<std::string> outputs(n);
  util::parallel_for(
      static_cast<std::int64_t>(n),
      [&](std::int64_t i) {
        std::ostringstream out;
        body(static_cast<size_t>(i), sinks[static_cast<size_t>(i)], out);
        outputs[static_cast<size_t>(i)] = out.str();
      },
      args.threads);
  for (size_t i = 0; i < n; ++i) {
    std::fputs(outputs[i].c_str(), stdout);
    merged.merge(sinks[i]);
  }
  return finish(args, merged);
}

void process_idlz_deck(const Args& args, const std::string& deck,
                       const std::string& prefix, DiagSink& sink,
                       std::ostream& out) {
  std::ifstream in;
  if (!open_deck(deck, in, sink)) return;
  const std::vector<idlz::IdlzCase> cases = idlz::read_deck(in, sink, deck);
  int set = 0;
  for (const idlz::IdlzCase& c : cases) {
    ++set;
    const auto r = idlz::run_checked(c, sink, run_options(args));
    if (!r) continue;  // failure recorded; keep processing later sets
    out << idlz::summarize(*r);
    const std::string stem =
        args.out_dir + "/" + prefix + "set" + std::to_string(set);
    if (c.options.make_plots) {
      for (size_t p = 0; p < r->plots.size(); ++p) {
        write_svg_checked(r->plots[p],
                          stem + "_plot" + std::to_string(p) + ".svg", sink);
      }
      out << "wrote " << r->plots.size() << " plots to " << stem
          << "_plot*.svg\n";
    }
    if (c.options.punch_output) {
      write_text_file(stem + "_nodal.cards", r->nodal_cards, sink);
      write_text_file(stem + "_element.cards", r->element_cards, sink);
      out << "punched " << stem << "_nodal.cards / " << stem
          << "_element.cards\n";
    }
    write_text_file(stem + "_listing.txt", idlz::print_listing(*r), sink);
    out << "listing " << stem << "_listing.txt\n";
  }
}

int run_idlz(const Args& args) {
  if (!ensure_out_dir(args.out_dir)) return kExitInput;
  const std::vector<std::string> prefixes = deck_prefixes(args.decks);
  DiagSink merged;
  return for_each_deck(
      args,
      [&](size_t i, DiagSink& sink, std::ostream& out) {
        process_idlz_deck(args, args.decks[i], prefixes[i], sink, out);
      },
      merged);
}

void process_ospl_deck(const Args& args, const std::string& deck,
                       const std::string& prefix, DiagSink& sink,
                       std::ostream& out) {
  std::ifstream in;
  if (!open_deck(deck, in, sink)) return;
  const ospl::OsplCase c = ospl::read_deck(in, sink, deck);
  if (!sink.ok()) return;
  const auto r = ospl::run_checked(c, sink, run_options(args));
  if (!r) return;
  out << c.title1 << "\nvalues " << r->vmin << ".." << r->vmax << ", "
      << ospl::interval_caption(r->delta) << ", " << r->segments.size()
      << " segments, " << r->labels.accepted.size() << " labels\n";
  const std::string path = args.out_dir + "/" + prefix + "ospl.svg";
  write_svg_checked(r->plot, path, sink);
  out << "wrote " << path << "\n";
}

int run_ospl(const Args& args) {
  if (!ensure_out_dir(args.out_dir)) return kExitInput;
  const std::vector<std::string> prefixes = deck_prefixes(args.decks);
  DiagSink merged;
  return for_each_deck(
      args,
      [&](size_t i, DiagSink& sink, std::ostream& out) {
        process_ospl_deck(args, args.decks[i], prefixes[i], sink, out);
      },
      merged);
}

int run_check(const Args& args) {
  const size_t n = args.decks.size();
  std::vector<DiagSink> sinks(n);
  util::parallel_for(
      static_cast<std::int64_t>(n),
      [&](std::int64_t li) {
        const size_t i = static_cast<size_t>(li);
        DiagSink& sink = sinks[i];
        std::ifstream in;
        if (!open_deck(args.decks[i], in, sink)) return;
        if (args.check_ospl) {
          const ospl::OsplCase c = ospl::read_deck(in, sink, args.decks[i]);
          if (sink.ok()) ospl::run_checked(c, sink, run_options(args));
        } else {
          const auto cases = idlz::read_deck(in, sink, args.decks[i]);
          for (const idlz::IdlzCase& c : cases) {
            if (sink.capped()) break;
            idlz::run_checked(c, sink, run_options(args));
          }
        }
      },
      args.threads);
  DiagSink merged;
  for (const DiagSink& sink : sinks) merged.merge(sink);
  if (!write_diag_json(args, merged)) return kExitInput;
  if (args.json) {
    std::printf("%s", merged.render_report_json(diag_kind(args)).c_str());
  } else {
    std::printf("%s", merged.render_text().c_str());
  }
  return merged.ok() ? kExitOk : kExitInput;
}

// `feio lint`: the static analyzer. Parse diagnostics and L-* lint findings
// land in one sink and one report; the exit status encodes the worst
// severity found (0 clean / 1 warnings / 2 errors).
int run_lint(const Args& args) {
  const size_t n = args.decks.size();
  std::vector<DiagSink> sinks(n);
  util::parallel_for(
      static_cast<std::int64_t>(n),
      [&](std::int64_t li) {
        const size_t i = static_cast<size_t>(li);
        DiagSink& sink = sinks[i];
        std::ifstream in;
        if (!open_deck(args.decks[i], in, sink)) return;
        if (args.check_ospl) {
          lint::lint_ospl_deck(in, sink, args.decks[i]);
        } else {
          lint::lint_idlz_deck(in, sink, args.decks[i]);
        }
      },
      args.threads);
  DiagSink merged;
  for (const DiagSink& sink : sinks) merged.merge(sink);
  if (!write_diag_json(args, merged)) return kExitUsage;
  if (args.sarif) {
    std::printf("%s", lint::render_sarif(merged).c_str());
  } else if (args.json) {
    std::printf("%s", merged.render_report_json(diag_kind(args)).c_str());
  } else {
    std::printf("%s", merged.render_text().c_str());
  }
  return lint::exit_code(merged);
}

int run_figures(const Args& args) {
  if (!ensure_out_dir(args.out_dir)) return kExitInput;
  for (const auto& nc : scenarios::all_idealizations()) {
    const idlz::IdlzResult r = idlz::run(nc.c);
    const std::string stem = args.out_dir + "/" + nc.id;
    plot::write_svg(plot::plot_mesh(r.initial, mesh::Topology(r.initial),
                                    nc.c.title + " - INITIAL REPRESENTATION"),
                    stem + "_initial.svg");
    plot::write_svg(
        plot::plot_mesh(r.mesh, mesh::Topology(r.mesh), nc.c.title),
        stem + "_final.svg");
    std::printf("%-8s %4d nodes %4d elements -> %s_{initial,final}.svg\n",
                nc.id.c_str(), r.mesh.num_nodes(), r.mesh.num_elements(),
                stem.c_str());
  }
  plot::write_svg(ospl::run(scenarios::fig12_concept()).plot,
                  args.out_dir + "/fig12_concept.svg");
  std::printf("fig12    concept triangle -> %s/fig12_concept.svg\n",
              args.out_dir.c_str());
  std::vector<scenarios::AnalysisOutput> analyses = scenarios::all_analyses();
  analyses.push_back(scenarios::fig13_contact_analysis());
  analyses.push_back(scenarios::fig14_thermal_stress_analysis());
  for (const auto& a : analyses) {
    for (const auto& f : a.fields) {
      ospl::OsplCase c;
      c.mesh = a.idlz.mesh;
      c.values = f.values;
      c.title1 = a.title;
      c.delta = f.suggested_delta;
      const ospl::OsplResult r = ospl::run(c);
      std::string slug = f.name;
      for (char& ch : slug) ch = ch == ' ' || ch == ',' ? '_' : ch;
      plot::write_svg(r.plot, args.out_dir + "/" + a.id + "_" + slug + ".svg");
    }
    std::printf("%-8s analysis plots written\n", a.id.c_str());
  }
  return kExitOk;
}

int run_mesh(const Args& args) {
  const auto cases = [&] {
    std::ifstream in(args.decks.front());
    FEIO_REQUIRE(in.good(), "cannot open deck '" + args.decks.front() + "'");
    return idlz::read_deck(in);
  }();
  FEIO_REQUIRE(!cases.empty(), "deck has no data sets");
  const idlz::IdlzResult r = idlz::run(cases.front());
  mesh::write_off(r.mesh, args.off_path);
  std::printf("wrote %s (%d nodes, %d elements)\n", args.off_path.c_str(),
              r.mesh.num_nodes(), r.mesh.num_elements());
  return kExitOk;
}

// `feio serve`: the long-lived batch loop. One feio.job/1 JSON job per
// line (stdin with --stdin-jsonl, or per connection with --listen), one
// feio.report/1 job envelope per line back in per-connection input order,
// session summary table on stderr and BENCH_serve.json on disk
// (docs/ROBUSTNESS.md documents all three schemas).
int run_serve(const Args& args) {
  const serve::ServeOptions opts = api::serve_options(args);

  serve::ServeSummary summary;
  if (!args.listen_address.empty()) {
    if (args.ablate_caches) {
      std::fprintf(stderr,
                   "error: --ablate-caches replays a buffered stdin stream; "
                   "it cannot be combined with --listen\n");
      return kExitUsage;
    }
    serve::ListenOptions listen = api::listen_options(args);
    listen.on_bound = [](const std::string& bound) {
      std::fprintf(stderr, "serve: listening on %s\n", bound.c_str());
    };
    summary = serve::serve_listen(listen, opts);
  } else if (args.ablate_caches) {
    // Cache ablation: the whole stream runs twice — warm (caches as
    // configured, envelopes to stdout) then cold (both caches disabled,
    // envelopes discarded so stdout stays in lockstep with the input).
    // The warm pass goes first so any page-cache/allocator warmup benefit
    // accrues to the cold pass, making the reported speedup conservative.
    std::ostringstream buffered;
    buffered << std::cin.rdbuf();
    const std::string stream = buffered.str();
    std::istringstream warm_in(stream);
    summary = serve::serve_stdin_jsonl(warm_in, std::cout, opts);
    serve::ServeOptions cold = opts;
    cold.format_cache_capacity = 0;
    cold.factor_cache_capacity = 0;
    std::istringstream cold_in(stream);
    std::ostringstream discard;
    const serve::ServeSummary cold_summary =
        serve::serve_stdin_jsonl(cold_in, discard, cold);
    summary.has_ablation = true;
    summary.ablation_wall_ms = cold_summary.wall_ms;
    summary.ablation_jobs_per_sec = cold_summary.jobs_per_sec;
    summary.cache_speedup =
        cold_summary.jobs_per_sec > 0.0
            ? summary.jobs_per_sec / cold_summary.jobs_per_sec
            : 0.0;
  } else {
    summary = serve::serve_stdin_jsonl(std::cin, std::cout, opts);
  }
  std::fprintf(stderr, "%s", summary.render_table().c_str());
  std::string path = "BENCH_serve.json";
  if (args.out_set) {
    if (!ensure_out_dir(args.out_dir)) return kExitInput;
    path = args.out_dir + "/BENCH_serve.json";
  }
  std::ofstream out(path);
  if (out.good()) {
    out << summary.render_bench_json();
    out.flush();
  }
  if (!out.good()) {
    std::fprintf(stderr, "error: %s: cannot write '%s'\n", kCodeIoWriteFile,
                 path.c_str());
    return kExitInput;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return kExitOk;
}

int dispatch(const Args& args) {
  try {
    if (args.command == "idlz") {
      if (args.decks.empty()) return usage();
      return run_idlz(args);
    }
    if (args.command == "ospl") {
      if (args.decks.empty()) return usage();
      return run_ospl(args);
    }
    if (args.command == "check") {
      if (args.decks.empty()) return usage();
      return run_check(args);
    }
    if (args.command == "lint") {
      if (args.decks.empty()) return usage();
      return run_lint(args);
    }
    if (args.command == "figures") return run_figures(args);
    if (args.command == "mesh") {
      if (args.decks.empty() || args.off_path.empty()) return usage();
      return run_mesh(args);
    }
    if (args.command == "serve") {
      // Two transports: --stdin-jsonl (pipe) or --listen (socket).
      if (!args.stdin_jsonl && args.listen_address.empty()) return usage();
      return run_serve(args);
    }
    return usage();
  } catch (const ResourceError& e) {
    // Guard/cancel/fault failures that escape a command keep their stable
    // code in the message (serve never lets one reach here; direct pipeline
    // commands can, e.g. a --fault at a site outside run_checked).
    std::fprintf(stderr, "error: %s: %s\n", e.code().c_str(), e.what());
    return kExitInput;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInput;
  }
}

// Writes the --trace / --metrics-json documents. Runs after dispatch on
// every path, including failures — a trace of a failed run is the one you
// most want to look at. Returns kExitOk or kExitInput.
int write_observability(const Args& args) {
  int code = kExitOk;
  if (args.tracer != nullptr) {
    std::ofstream out(args.trace_path);
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args.trace_path.c_str());
      code = kExitInput;
    } else {
      out << args.tracer->render_json();
      std::fprintf(stderr, "wrote trace %s\n", args.trace_path.c_str());
    }
  }
  if (args.metrics != nullptr) {
    const std::string doc = args.metrics->render_report_json();
    if (args.metrics_json_path == "-") {
      std::printf("%s", doc.c_str());
    } else {
      std::ofstream out(args.metrics_json_path);
      if (!out.good()) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     args.metrics_json_path.c_str());
        code = kExitInput;
      } else {
        out << doc;
        std::fprintf(stderr, "wrote metrics %s\n",
                     args.metrics_json_path.c_str());
      }
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage();
  if (args.command == "help" || args.command == "--help" ||
      args.command == "-h") {
    print_usage(stdout);
    return kExitOk;
  }

  // --fault arms the named site process-wide for this invocation (deck
  // batch lanes inherit it through parallel_for). serve jobs are
  // unaffected: each job's FaultScope masks this one, so their faults come
  // from the job line's "fault" field instead.
  util::FaultScope fault_scope;
  if (!args.fault_spec.empty()) {
    std::string err;
    if (!fault_scope.arm(args.fault_spec, err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return kExitUsage;
    }
  }

  // Observability sinks live in main for the whole invocation; dispatch
  // sees them both process-wide (for the spans below library API calls)
  // and through RunOptions (the API carries them explicitly).
  std::optional<util::Tracer> tracer;
  std::optional<util::MetricsRegistry> metrics;
  if (!args.trace_path.empty()) args.tracer = &tracer.emplace();
  if (args.metrics_set) args.metrics = &metrics.emplace();

  int code;
  {
    util::ScopedTracerInstall tracer_install(args.tracer);
    util::ScopedMetricsInstall metrics_install(args.metrics);
    FEIO_TRACE_SPAN(span, "feio.main");
    span.arg("command", args.command);
    code = dispatch(args);
    span.arg("exit", code);
  }
  const int obs_code = write_observability(args);

  // A closed or full stdout (downstream `head`, dead pipe, full disk) must
  // not exit 0 as if the report had been delivered.
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "error: %s: cannot write to stdout\n",
                 kCodeIoWriteOutput);
    if (code == kExitOk) code = kExitInput;
  }
  return code != kExitOk ? code : obs_code;
}
