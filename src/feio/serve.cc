#include "feio/serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <istream>
#include <map>
#include <ostream>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#endif

#include "cards/format_cache.h"
#include "fem/assembly.h"
#include "fem/factor_cache.h"
#include "fem/solver.h"
#include "idlz/deck.h"
#include "idlz/idlz.h"
#include "ospl/deck.h"
#include "ospl/ospl.h"
#include "util/cancel.h"
#include "util/diag.h"
#include "util/drr.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/report.h"
#include "util/text.h"
#include "util/thread_annotations.h"
#include "util/trace.h"

namespace feio::serve {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// `text` followed by a count, a time in ms (3 decimals) or a rate (4
// decimals): the pieces envelopes and summaries are written from.
void put_int(std::string& out, std::string_view text, std::int64_t value) {
  out += text;
  append_int(out, value);
}

void put_ms(std::string& out, std::string_view text, double ms) {
  out += text;
  append_fixed(out, ms, 3);
}

void put_rate(std::string& out, std::string_view text, double rate) {
  out += text;
  append_fixed(out, rate, 4);
}

// ---------------------------------------------------------------------------
// Per-job execution.

enum class JobStatus { kOk, kRejected, kTimedOut, kFaulted, kError };

const char* status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kTimedOut: return "timeout";
    case JobStatus::kFaulted: return "faulted";
    case JobStatus::kError: return "error";
  }
  return "error";
}

// A job's bucket, decided by the diagnostics it ended with. Deadline beats
// fault beats admission beats generic error: the most pipeline-external
// cause wins so the summary counts what actually stopped the job.
JobStatus classify(const DiagSink& sink) {
  bool rejected = false;
  bool timed_out = false;
  bool faulted = false;
  for (const Diag& d : sink.diags()) {
    if (d.severity != Severity::kError) continue;
    if (d.code == "E-RES-005") {
      timed_out = true;
    } else if (d.code == "E-RES-006") {
      faulted = true;
    } else if (d.code.rfind("E-RES-00", 0) == 0) {
      rejected = true;
    }
  }
  if (timed_out) return JobStatus::kTimedOut;
  if (faulted) return JobStatus::kFaulted;
  if (rejected) return JobStatus::kRejected;
  if (!sink.ok()) return JobStatus::kError;
  return JobStatus::kOk;
}

// One single-line kind-"job" envelope. Diagnostics are capped so a hopeless
// deck cannot blow the line up; the counts always cover everything. `seq` is
// per-connection, which is what keeps socket-mode envelopes byte-identical
// to stdin mode for the same job stream.
std::string render_job_envelope(const std::string& id,
                                const std::string& tenant, std::int64_t seq,
                                JobStatus status, double elapsed_ms,
                                const DiagSink& sink) {
  constexpr size_t kMaxDiags = 8;
  std::string out = "{\"schema\": \"";
  out += kReportSchema;
  out += "\", \"kind\": \"job\", \"tool_version\": \"";
  out += kToolVersion;
  out += "\", \"generated_by\": \"feio\", \"id\": \"";
  append_json_escaped(out, id);
  out += "\", \"tenant\": \"";
  append_json_escaped(out, tenant);
  put_int(out, "\", \"seq\": ", seq);
  out += ", \"status\": \"";
  out += status_name(status);
  put_ms(out, "\", \"elapsed_ms\": ", elapsed_ms);
  put_int(out, ", \"errors\": ", sink.error_count());
  put_int(out, ", \"warnings\": ", sink.warning_count());
  out += ", \"diagnostics\": [";
  size_t emitted = 0;
  for (const Diag& d : sink.diags()) {
    if (emitted == kMaxDiags) break;
    out += emitted > 0 ? ", {\"severity\": \"" : "{\"severity\": \"";
    out += severity_name(d.severity);
    out += "\", \"code\": \"";
    append_json_escaped(out, d.code);
    out += "\", \"message\": \"";
    append_json_escaped(out, d.message);
    out += "\"}";
    ++emitted;
  }
  out += "]}";
  return out;
}

// The canonical static analysis the "solve" pipeline runs on an idealized
// mesh: plane stress, unit-modulus isotropic material, every node on the
// minimum-x column clamped, a downward load at the maximum-x node (lowest
// index on ties) scaled by the job's load_case (case 0 keeps the historical
// unit load). Mesh + load_case fully determine the problem — and only the
// load vector depends on load_case, so jobs that vary nothing else hit one
// cached factorization (the operator/loads key split in fem/factor_cache.h)
// and re-solve their own right-hand side against it.
fem::StaticSolution solve_canonical(const mesh::TriMesh& mesh,
                                    const RunOptions& ro,
                                    std::int64_t load_case) {
  fem::StaticProblem problem(mesh, fem::Analysis::kPlaneStress);
  problem.set_material(fem::Material::isotropic(1000.0, 0.3));
  double min_x = mesh.pos(0).x;
  double max_x = mesh.pos(0).x;
  int load_node = 0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    const double x = mesh.pos(n).x;
    min_x = std::min(min_x, x);
    if (x > max_x) {
      max_x = x;
      load_node = n;
    }
  }
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    if (mesh.pos(n).x == min_x) problem.fix(n, true, true);
  }
  problem.point_load(load_node,
                     {0.0, -1.0 - static_cast<double>(load_case)});
  return fem::solve(problem, ro);
}

// Cards as CardReader::next_card reads them, one per line: a '\n' ends a
// card, and a last card without one still counts.
std::int64_t count_cards(const std::string& deck) {
  std::int64_t n = std::count(deck.begin(), deck.end(), '\n');
  if (!deck.empty() && deck.back() != '\n') ++n;
  return n;
}

struct JobOutcome {
  JobStatus status = JobStatus::kError;
  std::string envelope;
  double elapsed_ms = 0.0;
};

// One completed job as the rolling-window report sees it: when it finished
// on the session clock, how long it took, which tenant it belonged to, and
// the *cumulative* cache counters at that moment (windows take deltas
// between their boundary samples, which is what makes per-window hit rates
// exact).
struct JobSample {
  double done_ms = 0.0;
  double elapsed_ms = 0.0;
  int tenant = 0;
  std::int64_t format_hits = 0;
  std::int64_t format_misses = 0;
  std::int64_t factor_hits = 0;
  std::int64_t factor_misses = 0;
};

// Runs one admitted job start to finish on the calling (worker) thread.
// All robustness state — armed faults, guard limits, cancel token — is
// scoped to this frame, so the worker lane is pristine for the next job
// no matter how this one ends. `limits` is the job's tenant's merged
// GuardLimits (base ServeOptions::guard with the tenant's overrides).
JobOutcome run_job(const Job& job, std::int64_t seq, const ServeOptions& opts,
                   const util::GuardLimits& limits,
                   fem::FactorCache* factor_cache) {
  const auto t0 = Clock::now();
  DiagSink sink;
  // Every exit: the status the diagnostics decide, and the envelope.
  const auto done = [&] {
    JobOutcome out;
    out.status = classify(sink);
    out.elapsed_ms = ms_since(t0);
    out.envelope = render_job_envelope(job.id, job.tenant, seq, out.status,
                                       out.elapsed_ms, sink);
    return out;
  };

  // Per-job fault isolation: an empty FaultScope masks any process-wide
  // armed set; the job's own spec (if any) arms inside the fresh scope.
  util::FaultScope faults;
  if (!job.fault.empty()) {
    std::string error;
    if (!faults.arm(job.fault, error)) {
      sink.error("E-SRV-001", "bad \"fault\": " + error);
      return done();
    }
  }

  util::ScopedGuard guard(&limits);

  // Deck admission before any parsing or allocation.
  if (auto rejection = util::admit_deck(
          "job \"" + job.id + "\"", count_cards(job.deck),
          static_cast<std::int64_t>(job.deck.size()), limits)) {
    sink.add(*rejection);
    return done();
  }

  const std::int64_t deadline_ms =
      job.deadline_ms > 0 ? job.deadline_ms : opts.default_deadline_ms;
  const util::CancelToken token{
      std::chrono::milliseconds(deadline_ms > 0 ? deadline_ms : 1)};
  const util::CancelToken no_deadline;
  const util::CancelToken* cancel =
      deadline_ms > 0 ? &token : &no_deadline;
  // The deck parsers observe the token through the thread-local current;
  // the run_checked entry points re-install it from RunOptions.
  util::ScopedCancel cancel_scope(cancel);

  RunOptions ro;
  ro.cancel = cancel;
  ro.factor_cache = factor_cache;  // consulted by the "solve" pipeline only
  ro.ordering = opts.ordering;

  try {
    if (job.pipeline == "idlz" || job.pipeline == "solve") {
      std::vector<idlz::IdlzCase> cases =
          idlz::read_deck_string(job.deck, sink, "job:" + job.id);
      for (idlz::IdlzCase& c : cases) {
        // An envelope carries no plots or punched cards.
        c.options.make_plots = false;
        c.options.punch_output = false;
        const std::optional<idlz::IdlzResult> result =
            idlz::run_checked(c, sink, ro);
        if (job.pipeline == "solve" && result.has_value()) {
          // Warm-path reuse happens inside fem::solve via the session
          // factor cache; a faulted/timed-out/singular solve throws past
          // the cache insert, so it cannot poison later jobs.
          solve_canonical(result->mesh, ro, job.load_case);
        }
      }
    } else {
      const ospl::OsplCase c =
          ospl::read_deck_string(job.deck, sink, "job:" + job.id);
      if (sink.ok()) ospl::run_checked(c, sink, ro);
    }
  } catch (const ResourceError& e) {
    // Thrown outside run_checked's net (deck parsing hits card.read /
    // deck.parse faults and cancel checks); same structured mapping.
    sink.error(e.code(), e.what());
  } catch (const Error& e) {
    sink.error("E-SRV-002", std::string("job failed: ") + e.what());
  } catch (const std::exception& e) {
    sink.error("E-SRV-002", std::string("internal error: ") + e.what());
  }
  return done();
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

#if !defined(_WIN32)
// Writes the whole buffer, riding out EINTR and partial sends. MSG_NOSIGNAL
// turns a dead peer into an error return instead of SIGPIPE; EAGAIN from an
// expired SO_SNDTIMEO (a peer that stopped reading) is likewise a failure.
bool send_all(int fd, const std::string& data) {
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}
#endif

// Closes the rolling window holding `samples` (completion order). `prev` is
// the sample that closed the window before (all zeros for the first). Hit
// rates come from the delta of the cumulative counters across the two
// boundary samples; tenant shares (the observable the DRR fairness tests
// pin down) from counting the window's completions per tenant, over the
// session's tenants so far (finish() gives later arrivals a 0 share).
ServeWindow cut_window(const std::vector<JobSample>& samples,
                       const JobSample& prev,
                       const std::vector<std::string>& tenants) {
  const auto rate = [](std::int64_t hits, std::int64_t misses) {
    const std::int64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  };
  ServeWindow w;
  w.jobs = static_cast<std::int64_t>(samples.size());
  w.wall_ms = samples.back().done_ms - prev.done_ms;
  w.jobs_per_sec = w.wall_ms > 0.0
                       ? 1000.0 * static_cast<double>(w.jobs) / w.wall_ms
                       : 0.0;
  std::vector<double> lat;
  lat.reserve(samples.size());
  std::vector<std::int64_t> per_tenant(tenants.size(), 0);
  for (const JobSample& s : samples) {
    lat.push_back(s.elapsed_ms);
    if (s.tenant >= 0 && static_cast<size_t>(s.tenant) < per_tenant.size()) {
      ++per_tenant[static_cast<size_t>(s.tenant)];
    }
  }
  std::sort(lat.begin(), lat.end());
  w.p50_ms = percentile(lat, 0.50);
  w.p99_ms = percentile(lat, 0.99);
  const JobSample& last = samples.back();
  w.format_hit_rate = rate(last.format_hits - prev.format_hits,
                           last.format_misses - prev.format_misses);
  w.factor_hit_rate = rate(last.factor_hits - prev.factor_hits,
                           last.factor_misses - prev.factor_misses);
  for (size_t t = 0; t < tenants.size(); ++t) {
    w.tenant_shares.emplace_back(tenants[t],
                                 static_cast<double>(per_tenant[t]) /
                                     static_cast<double>(w.jobs));
  }
  return w;
}

// One admitted job waiting in (or popped from) the DRR queue.
struct Pending {
  Job job;
  std::int64_t seq = 0;  // per-connection envelope slot
  int conn = 0;          // Session connection index
  int tenant = 0;        // Session tenant index
};

// One transport connection: the stdin session's single ostream, or one
// accepted socket. Envelopes are held per connection and flushed in
// per-connection seq order. `next_seq` belongs to the connection's one
// submitting thread; everything else is guarded by the session mutex (the
// fields cannot carry FEIO_GUARDED_BY because the capability lives on the
// Session — every access site below sits in a FEIO_REQUIRES(mu_) method).
// The actual stream/socket write happens *outside* the session mutex:
// `writing` elects exactly one flushing thread per connection, so a peer
// that stops reading blocks only that one thread (until its send timeout),
// never mu_, the pool, or the other connections.
struct Connection {
  std::ostream* stream = nullptr;  // stdin transport sink (exactly one of
  int fd = -1;                     // stream / fd is set)
  std::int64_t next_seq = 0;       // submitting-thread-private
  std::map<std::int64_t, std::string> ready;  // seq -> envelope line
  std::int64_t next_flush = 0;
  bool writing = false;  // a thread is sending this connection's batch
  bool failed = false;   // dead pipe / dead peer: drain, discard writes
};

// One tenant's admission lane and accounting.
struct TenantState {
  std::string name;
  int weight = 1;
  int queue_capacity = 0;  // 0 = bounded only by the session queue
  util::GuardLimits limits;
  int lane = 0;        // DrrQueue lane index
  int in_flight = 0;   // admitted, envelope not yet recorded
  TenantSummary sums;  // buckets accumulated as jobs record
};

// The serve session: one pool, one factor cache, one DRR admission queue,
// any number of transports feeding submit_line() from their own threads.
// One mutex orders everything the submitting threads and the pool workers
// both touch; the annotated member functions carry the locking contract so
// clang enforces it instead of prose.
class Session {
 public:
  explicit Session(const ServeOptions& opts)
      : opts_(opts),
        tracer_scope_(opts.tracer),
        metrics_scope_(opts.metrics),
        capacity_(std::max(1, opts.queue_capacity)),
        factor_cache_(
            static_cast<std::size_t>(std::max(0, opts.factor_cache_capacity)),
            std::max<std::int64_t>(0, opts.factor_ttl_ms)),
        factors_(opts.factor_cache_capacity > 0 ? &factor_cache_ : nullptr),
        format_base_(rebind_format_cache(opts.format_cache_capacity)),
        max_line_bytes_(line_cap(opts)),
        t0_(Clock::now()),
        pool_(std::min(util::resolve_threads(opts.threads), capacity_)) {
    util::MutexLock lock(mu_);
    for (const TenantConfig& cfg : opts.tenants) {
      if (!valid_tenant_name(cfg.name)) {
        fail("invalid tenant name \"" + cfg.name +
             "\" (want 1-64 chars of [A-Za-z0-9_-])");
      }
      const int ti = tenant_index_locked(cfg.name);
      TenantState& t = tenants_[static_cast<size_t>(ti)];
      t.weight = std::max(1, cfg.weight);
      t.queue_capacity = std::max(0, cfg.queue_capacity);
      t.limits = cfg.guard.apply(opts_.guard);
      drr_.set_weight(t.lane, t.weight);
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  fem::FactorCache* factors() { return factors_; }

  // Transport-level bound on one buffered request line: a reader that has
  // accumulated more than this without seeing '\n' must stop buffering
  // (the admission guards only run on complete lines, so the transport
  // has to bound the in-progress line itself).
  std::int64_t max_line_bytes() const { return max_line_bytes_; }

  // Records the one-envelope rejection for an over-long unterminated
  // request line — the transport twin of admit_deck's E-RES-001 — so the
  // client learns why before the caller marks the connection failed.
  void reject_oversize_line(int conn, std::int64_t bytes)
      FEIO_EXCLUDES(mu_) {
    const std::int64_t seq = next_seq(conn);
    refuse(conn, seq, "job-" + std::to_string(seq), "default", "E-RES-001",
           "request line exceeds " + std::to_string(max_line_bytes_) +
               " bytes (" + std::to_string(bytes) +
               " buffered without a newline); closing connection");
  }

  // Registers a transport connection and returns its index.
  int add_stream_connection(std::ostream& out) FEIO_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    connections_.emplace_back();
    connections_.back().stream = &out;
    return static_cast<int>(connections_.size()) - 1;
  }

  int add_socket_connection(int fd) FEIO_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    connections_.emplace_back();
    connections_.back().fd = fd;
    return static_cast<int>(connections_.size()) - 1;
  }

  bool connection_failed(int conn) FEIO_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return connections_[static_cast<size_t>(conn)].failed;
  }

  // Marks a connection's peer dead (recv error). Its admitted jobs still
  // drain; their envelopes are discarded by flush_conn_locked.
  void mark_connection_failed(int conn) FEIO_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    mark_failed_locked(connections_[static_cast<size_t>(conn)]);
  }

  // One input line from a connection's submitting thread: parse, admit (or
  // reject in place), enqueue. Every line gets exactly one envelope in
  // per-connection order, whatever happens to it.
  void submit_line(int conn, const std::string& line) FEIO_EXCLUDES(mu_) {
    const std::int64_t seq = next_seq(conn);
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      // A blank line keeps its slot in the output order (a consumer pairing
      // envelopes to input lines must never desynchronize) but carries no
      // job: an immediate E-SRV-001 envelope.
      refuse(conn, seq, "job-" + std::to_string(seq), "default", "E-SRV-001",
             "blank job line");
      return;
    }

    Job job;
    std::string error;
    if (!parse_job_line(line, job, error)) {
      // The parse may have died before or after the tenant key; attribute
      // to the parsed tenant only when it is a usable lane name.
      refuse(conn, seq, job.id.empty() ? "job-" + std::to_string(seq) : job.id,
             valid_tenant_name(job.tenant) ? job.tenant : "default",
             "E-SRV-001", "malformed job line: " + error);
      return;
    }
    if (job.id.empty()) job.id = "job-" + std::to_string(seq);

    std::string reject;
    bool admitted = false;
    {
      util::MutexLock lock(mu_);
      const int ti = tenant_index_locked(job.tenant);
      TenantState& t = tenants_[static_cast<size_t>(ti)];
      if (total_in_flight_ >= capacity_) {
        reject = "admission queue full (" + std::to_string(capacity_) +
                 " jobs in flight); job rejected";
      } else if (t.queue_capacity > 0 && t.in_flight >= t.queue_capacity) {
        reject = "tenant \"" + t.name + "\" queue full (" +
                 std::to_string(t.queue_capacity) +
                 " jobs in flight); job rejected";
      } else {
        admitted = true;
        ++total_in_flight_;
        ++t.in_flight;
        FEIO_METRIC_ADD_DYN("serve.tenant.", t.name + ".admitted", 1);
        drr_.push(t.lane, Pending{std::move(job), seq, conn, ti});
      }
    }
    if (admitted) {
      // Push-then-post: every posted task pops exactly one Pending, so the
      // queue can never underflow (tasks == queued items, always).
      pool_.post([this] { run_one(); });
      return;
    }
    // Queue-full rejection: never started, but still one envelope in order
    // so the stream stays lockstep with its input.
    refuse(conn, seq, job.id, job.tenant, "E-RES-004", reject);
  }

  // Drains every admitted job (even after connection failures — workers
  // must never be abandoned mid-run), flushes every connection, and builds
  // the whole-session summary. Call exactly once, after all submitting
  // threads are done.
  ServeSummary finish() FEIO_EXCLUDES(mu_) {
    ServeSummary summary;
    std::vector<double> latencies;
    std::vector<std::string> tenant_names;
    int nconns = 0;
    {
      util::MutexLock lock(mu_);
      while (total_in_flight_ != 0) lock.wait(cv_);
      nconns = static_cast<int>(connections_.size());
    }
    // Every envelope is recorded; push each connection's leftovers out
    // (off the lock), then wait for in-progress writers to go idle.
    for (int i = 0; i < nconns; ++i) flush_conn(i);
    {
      util::MutexLock lock(mu_);
      for (bool busy = true; busy; ) {
        busy = false;
        for (const Connection& c : connections_) {
          busy = busy || c.writing || !c.ready.empty();
        }
        if (busy) lock.wait(cv_);
      }
      summary = summary_;
      latencies = std::move(latencies_);
      if (!window_samples_.empty()) close_window();
      summary.windows = std::move(windows_);
      summary.connections = static_cast<std::int64_t>(connections_.size());
      for (TenantState& t : tenants_) {
        t.sums.tenant = t.name;
        t.sums.weight = t.weight;
        summary.tenants.push_back(t.sums);
        tenant_names.push_back(t.name);
      }
    }

    summary.wall_ms = ms_since(t0_);
    summary.jobs_per_sec =
        summary.wall_ms > 0.0
            ? 1000.0 * static_cast<double>(summary.jobs) / summary.wall_ms
            : 0.0;
    std::sort(latencies.begin(), latencies.end());
    summary.p50_ms = percentile(latencies, 0.50);
    summary.p99_ms = percentile(latencies, 0.99);
    summary.max_ms = latencies.empty() ? 0.0 : latencies.back();
    for (TenantSummary& t : summary.tenants) {
      t.share = summary.jobs > 0
                    ? static_cast<double>(t.jobs) /
                          static_cast<double>(summary.jobs)
                    : 0.0;
    }

    // Cache totals, zeroed AND flagged when a cache is disabled so an
    // ablation envelope can never pass stale counters off as activity.
    summary.format_cache_enabled = opts_.format_cache_capacity > 0;
    summary.factor_cache_enabled = factors_ != nullptr;
    if (summary.format_cache_enabled) {
      const cards::FormatCacheStats format_end = cards::format_cache_stats();
      summary.format_hits = format_end.hits - format_base_.hits;
      summary.format_misses = format_end.misses - format_base_.misses;
    }
    if (factors_ != nullptr) {
      const fem::FactorCacheStats fac = factors_->stats();
      summary.factor_hits = fac.hits;
      summary.factor_misses = fac.misses;
      summary.factor_load_reuses = fac.load_reuses;
      summary.factor_ttl_evictions = fac.ttl_evictions;
    }
    summary.window_jobs = std::max(0, opts_.window_jobs);
    for (ServeWindow& w : summary.windows) {
      for (size_t t = w.tenant_shares.size(); t < tenant_names.size(); ++t) {
        w.tenant_shares.emplace_back(tenant_names[t], 0.0);
      }
    }
    return summary;
  }

 private:
  // The request-line cap: the largest effective tenant deck limit with
  // headroom for JSON escaping (worst case 6 bytes per deck byte, the
  // \uXXXX form) plus the request's non-deck fields. Any lane left with
  // an unlimited deck guard falls back to an absolute transport bound —
  // the connection buffer must stay finite even when admission is not.
  static std::int64_t line_cap(const ServeOptions& opts) {
    std::int64_t deck = opts.guard.max_deck_bytes;
    bool unlimited = deck <= 0;
    for (const TenantConfig& cfg : opts.tenants) {
      const std::int64_t b = cfg.guard.apply(opts.guard).max_deck_bytes;
      if (b <= 0) {
        unlimited = true;
      } else {
        deck = std::max(deck, b);
      }
    }
    std::int64_t cap = 6 * deck + (std::int64_t{1} << 16);
    if (unlimited) cap = std::max(cap, std::int64_t{1} << 28);
    return cap;
  }

  // Rebinds the process-wide FORMAT intern cache to the session capacity
  // and snapshots its cumulative counters (session stats are deltas).
  static cards::FormatCacheStats rebind_format_cache(int capacity) {
    cards::set_format_cache_capacity(
        static_cast<std::size_t>(std::max(0, capacity)));
    return cards::format_cache_stats();
  }

  // The connection's own submitting thread is the only writer of next_seq,
  // but the Connection object lives in mu_-guarded storage; take the lock
  // for the (cheap) increment rather than special-casing the field.
  std::int64_t next_seq(int conn) FEIO_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return connections_[static_cast<size_t>(conn)].next_seq++;
  }

  // Index of the named tenant's lane, auto-registering unknown names with
  // defaults (weight 1, inherited limits, unbounded tenant queue).
  int tenant_index_locked(const std::string& name) FEIO_REQUIRES(mu_) {
    const auto it = tenant_index_.find(name);
    if (it != tenant_index_.end()) return it->second;
    TenantState t;
    t.name = name;
    t.limits = opts_.guard;
    t.lane = drr_.add_lane(1);
    tenants_.push_back(std::move(t));
    const int ti = static_cast<int>(tenants_.size()) - 1;
    tenant_index_.emplace(name, ti);
    return ti;
  }

  void mark_failed_locked(Connection& conn) FEIO_REQUIRES(mu_) {
    if (conn.failed) return;
    conn.failed = true;
    ++summary_.connections_failed;
  }

  // Consumes the contiguous run of envelopes whose turn has come, in
  // per-connection seq order, appending the newline-terminated lines to
  // `batch`. A failed connection keeps consuming its slots (the drain
  // must not stall on a dead peer) with the writes discarded.
  void collect_ready_locked(Connection& conn, std::string& batch)
      FEIO_REQUIRES(mu_) {
    for (auto it = conn.ready.begin();
         it != conn.ready.end() && it->first == conn.next_flush;
         it = conn.ready.erase(it), ++conn.next_flush) {
      if (conn.failed) continue;
      batch += it->second;
      batch += '\n';
    }
  }

  // Sends every envelope whose turn has come on `conn`, with the blocking
  // stream/socket write OUTSIDE the session mutex. Connection::writing
  // elects one flushing thread at a time (preserving in-order replies);
  // a latecomer returns immediately and the active writer re-collects, so
  // nothing is dropped. A peer that stops reading therefore stalls only
  // the elected thread — its socket's SO_SNDTIMEO turns persistent
  // backpressure into a failed connection — never mu_ or other tenants.
  void flush_conn(int conn) FEIO_EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      Connection& c = connections_[static_cast<size_t>(conn)];
      if (c.writing) return;  // the active writer picks these up
      c.writing = true;
    }
    for (;;) {
      std::string batch;
      std::ostream* stream = nullptr;
      int fd = -1;
      {
        util::MutexLock lock(mu_);
        Connection& c = connections_[static_cast<size_t>(conn)];
        collect_ready_locked(c, batch);
        if (batch.empty()) {
          c.writing = false;
          cv_.notify_all();  // finish() waits for writers to go idle
          return;
        }
        stream = c.stream;
        fd = c.fd;
      }
      bool ok;
      if (stream != nullptr) {
        *stream << batch;
        stream->flush();
        ok = !stream->fail();
      } else {
        ok = send_conn(fd, batch);
      }
      if (!ok) {
        util::MutexLock lock(mu_);
        mark_failed_locked(connections_[static_cast<size_t>(conn)]);
        // Keep looping: remaining ready slots drain via the discard path.
      }
    }
  }

  static bool send_conn(int fd, const std::string& data) {
#if defined(_WIN32)
    (void)fd;
    (void)data;
    return false;
#else
    return send_all(fd, data);
#endif
  }

  // Pops the DRR-chosen next job and runs it; posted once per admitted
  // job, so the pop precondition (queue non-empty) always holds.
  void run_one() FEIO_EXCLUDES(mu_) {
    Pending p;
    util::GuardLimits limits;
    {
      util::MutexLock lock(mu_);
      p = drr_.pop();
      limits = tenants_[static_cast<size_t>(p.tenant)].limits;
    }
    const JobOutcome outcome =
        run_job(p.job, p.seq, opts_, limits, factors_);
    {
      util::MutexLock lock(mu_);
      record_locked(p.conn, p.seq, p.tenant, outcome, /*admitted=*/true);
    }
    flush_conn(p.conn);
  }

  // The one envelope of a line that never runs (over-long, blank,
  // malformed, or refused at admission), in its slot of the connection's
  // order: status from classify() as for a job, elapsed 0.
  void refuse(int conn, std::int64_t seq, const std::string& id,
              const std::string& tenant, const char* code,
              const std::string& message) FEIO_EXCLUDES(mu_) {
    DiagSink sink;
    sink.error(code, message);
    JobOutcome outcome;
    outcome.status = classify(sink);
    outcome.envelope =
        render_job_envelope(id, tenant, seq, outcome.status, 0.0, sink);
    {
      util::MutexLock lock(mu_);
      record_locked(conn, seq, tenant_index_locked(tenant), outcome,
                    /*admitted=*/false);
    }
    flush_conn(conn);
  }

  // Closes the open rolling window; see cut_window.
  void close_window() FEIO_REQUIRES(mu_) {
    std::vector<std::string> names;
    for (const TenantState& t : tenants_) names.push_back(t.name);
    windows_.push_back(cut_window(window_samples_, window_prev_, names));
    window_prev_ = window_samples_.back();
    window_samples_.clear();
  }

  void record_locked(int conn, std::int64_t seq, int ti,
                     const JobOutcome& outcome, bool admitted)
      FEIO_REQUIRES(mu_) {
    TenantState& t = tenants_[static_cast<size_t>(ti)];
    ++summary_.jobs;
    ++t.sums.jobs;
    switch (outcome.status) {
      case JobStatus::kOk: ++summary_.ok; ++t.sums.ok; break;
      case JobStatus::kRejected: ++summary_.rejected; ++t.sums.rejected; break;
      case JobStatus::kTimedOut: ++summary_.timed_out; ++t.sums.timed_out; break;
      case JobStatus::kFaulted: ++summary_.faulted; ++t.sums.faulted; break;
      case JobStatus::kError: ++summary_.errors; ++t.sums.errors; break;
    }
    if (admitted) {
      FEIO_METRIC_ADD_DYN("serve.tenant.", t.name + ".completed", 1);
    } else if (outcome.status == JobStatus::kRejected) {
      FEIO_METRIC_ADD_DYN("serve.tenant.", t.name + ".rejected", 1);
    }
    latencies_.push_back(outcome.elapsed_ms);
    if (opts_.window_jobs > 0) {
      JobSample sample;
      sample.done_ms = ms_since(t0_);
      sample.elapsed_ms = outcome.elapsed_ms;
      sample.tenant = ti;
      const cards::FormatCacheStats fmt = cards::format_cache_stats();
      sample.format_hits = fmt.hits - format_base_.hits;
      sample.format_misses = fmt.misses - format_base_.misses;
      if (factors_ != nullptr) {
        const fem::FactorCacheStats fac = factors_->stats();
        sample.factor_hits = fac.hits;
        sample.factor_misses = fac.misses;
      }
      window_samples_.push_back(sample);
      if (window_samples_.size() == static_cast<size_t>(opts_.window_jobs)) {
        close_window();
      }
    }
    Connection& c = connections_[static_cast<size_t>(conn)];
    c.ready.emplace(seq, outcome.envelope);
    if (admitted) {
      --total_in_flight_;
      --t.in_flight;
    }
    // The caller flushes after releasing mu_ (flush_conn): the envelope
    // send must never run inside the session-wide critical section.
    cv_.notify_all();
  }

  const ServeOptions opts_;
  util::ScopedTracerInstall tracer_scope_;
  util::ScopedMetricsInstall metrics_scope_;
  const int capacity_;
  fem::FactorCache factor_cache_;
  fem::FactorCache* const factors_;
  const cards::FormatCacheStats format_base_;
  const std::int64_t max_line_bytes_;
  const Clock::time_point t0_;

  util::Mutex mu_;
  std::condition_variable cv_;
  // deques: workers hold references across pool-driven growth, and deque
  // push_back never invalidates existing elements.
  std::deque<Connection> connections_ FEIO_GUARDED_BY(mu_);
  std::deque<TenantState> tenants_ FEIO_GUARDED_BY(mu_);
  std::map<std::string, int> tenant_index_ FEIO_GUARDED_BY(mu_);
  util::DrrQueue<Pending> drr_ FEIO_GUARDED_BY(mu_);
  int total_in_flight_ FEIO_GUARDED_BY(mu_) = 0;
  ServeSummary summary_ FEIO_GUARDED_BY(mu_);
  std::vector<double> latencies_ FEIO_GUARDED_BY(mu_);
  // Rolling windows, cut as each fills: the open window's samples, the
  // sample that closed the previous window, and the closed windows.
  std::vector<JobSample> window_samples_ FEIO_GUARDED_BY(mu_);
  JobSample window_prev_ FEIO_GUARDED_BY(mu_);
  std::vector<ServeWindow> windows_ FEIO_GUARDED_BY(mu_);

  // Declared last: destroyed first, joining the workers while every member
  // they touch is still alive. finish() has already drained the queue.
  // Capped at capacity_: no more jobs than that are ever admitted and
  // unfinished, so further workers could never run one.
  util::ThreadPool pool_;
};

}  // namespace

std::string ServeSummary::render_bench_json() const {
  const auto hit_rate = [](std::int64_t hits, std::int64_t misses) {
    const std::int64_t lookups = hits + misses;
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
  };
  const auto flag = [](bool on) { return on ? "true" : "false"; };
  std::string out = "{\n";
  out += report_header_json("bench");
  out += "  \"payload_schema\": \"feio.bench.serve/1\",\n";
  put_int(out, "  \"jobs\": ", jobs);
  put_int(out, ",\n  \"ok\": ", ok);
  put_int(out, ",\n  \"rejected\": ", rejected);
  put_int(out, ",\n  \"timed_out\": ", timed_out);
  put_int(out, ",\n  \"faulted\": ", faulted);
  put_int(out, ",\n  \"errors\": ", errors);
  put_ms(out, ",\n  \"wall_ms\": ", wall_ms);
  put_ms(out, ",\n  \"jobs_per_sec\": ", jobs_per_sec);
  put_ms(out, ",\n  \"p50_ms\": ", p50_ms);
  put_ms(out, ",\n  \"p99_ms\": ", p99_ms);
  put_ms(out, ",\n  \"max_ms\": ", max_ms);
  put_int(out, ",\n  \"connections\": ", connections);
  put_int(out, ",\n  \"connections_failed\": ", connections_failed);
  out += ",\n  \"cache\": {\"format_enabled\": ";
  out += flag(format_cache_enabled);
  put_int(out, ", \"format_hits\": ", format_hits);
  put_int(out, ", \"format_misses\": ", format_misses);
  put_rate(out, ", \"format_hit_rate\": ",
           hit_rate(format_hits, format_misses));
  out += ", \"factor_enabled\": ";
  out += flag(factor_cache_enabled);
  put_int(out, ", \"factor_hits\": ", factor_hits);
  put_int(out, ", \"factor_misses\": ", factor_misses);
  put_int(out, ", \"factor_load_reuses\": ", factor_load_reuses);
  put_int(out, ", \"factor_ttl_evictions\": ", factor_ttl_evictions);
  put_rate(out, ", \"factor_hit_rate\": ",
           hit_rate(factor_hits, factor_misses));
  out += "},\n  \"tenants\": [";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantSummary& t = tenants[i];
    out += i > 0 ? ", {\"tenant\": \"" : "{\"tenant\": \"";
    append_json_escaped(out, t.tenant);
    put_int(out, "\", \"weight\": ", t.weight);
    put_int(out, ", \"jobs\": ", t.jobs);
    put_int(out, ", \"ok\": ", t.ok);
    put_int(out, ", \"rejected\": ", t.rejected);
    put_int(out, ", \"timed_out\": ", t.timed_out);
    put_int(out, ", \"faulted\": ", t.faulted);
    put_int(out, ", \"errors\": ", t.errors);
    put_rate(out, ", \"share\": ", t.share);
    out += '}';
  }
  put_int(out, "],\n  \"window_jobs\": ", window_jobs);
  out += ",\n  \"windows\": [";
  for (size_t i = 0; i < windows.size(); ++i) {
    const ServeWindow& w = windows[i];
    put_int(out, i > 0 ? ", {\"jobs\": " : "{\"jobs\": ", w.jobs);
    put_ms(out, ", \"wall_ms\": ", w.wall_ms);
    put_ms(out, ", \"jobs_per_sec\": ", w.jobs_per_sec);
    put_ms(out, ", \"p50_ms\": ", w.p50_ms);
    put_ms(out, ", \"p99_ms\": ", w.p99_ms);
    put_rate(out, ", \"format_hit_rate\": ", w.format_hit_rate);
    put_rate(out, ", \"factor_hit_rate\": ", w.factor_hit_rate);
    out += ", \"tenant_shares\": {";
    for (size_t t = 0; t < w.tenant_shares.size(); ++t) {
      out += t > 0 ? ", \"" : "\"";
      append_json_escaped(out, w.tenant_shares[t].first);
      put_rate(out, "\": ", w.tenant_shares[t].second);
    }
    out += "}}";
  }
  out += ']';
  if (has_ablation) {
    put_ms(out, ",\n  \"ablation\": {\"wall_ms\": ", ablation_wall_ms);
    put_ms(out, ", \"jobs_per_sec\": ", ablation_jobs_per_sec);
    put_ms(out, ", \"speedup\": ", cache_speedup);
    out += '}';
  }
  out += "\n}\n";
  return out;
}

std::string ServeSummary::render_table() const {
  std::string out;
  put_int(out, "SERVE  ", jobs);
  put_ms(out, " jobs in ", wall_ms);
  put_ms(out, " ms (", jobs_per_sec);
  put_int(out, " jobs/s)\n  ok .......... ", ok);
  put_int(out, "\n  rejected .... ", rejected);
  put_int(out, "\n  timed out ... ", timed_out);
  put_int(out, "\n  faulted ..... ", faulted);
  put_int(out, "\n  errors ...... ", errors);
  put_ms(out, "\n  latency ..... p50 ", p50_ms);
  put_ms(out, " ms, p99 ", p99_ms);
  put_ms(out, " ms, max ", max_ms);
  put_int(out, " ms\n  connections . ", connections);
  if (connections_failed > 0) {
    put_int(out, " (", connections_failed);
    out += " failed)";
  }
  out += '\n';
  if (format_cache_enabled) {
    put_int(out, "  fmt cache ... ", format_hits);
    put_int(out, " hits / ", format_misses);
    out += " misses\n";
  } else {
    out += "  fmt cache ... disabled\n";
  }
  if (factor_cache_enabled) {
    put_int(out, "  factor LRU .. ", factor_hits);
    put_int(out, " hits / ", factor_misses);
    put_int(out, " misses (", factor_load_reuses);
    put_int(out, " load reuses, ", factor_ttl_evictions);
    out += " ttl evictions)\n";
  } else {
    out += "  factor LRU .. disabled\n";
  }
  for (const TenantSummary& t : tenants) {
    out += "  tenant ...... \"";
    out += t.tenant;
    put_int(out, "\" w", t.weight);
    put_int(out, ": ", t.jobs);
    put_rate(out, " jobs (share ", t.share);
    put_int(out, ", ok ", t.ok);
    put_int(out, ", rejected ", t.rejected);
    out += ")\n";
  }
  if (!windows.empty()) {
    put_int(out, "  windows ..... ", static_cast<std::int64_t>(windows.size()));
    put_int(out, " x ", window_jobs);
    put_ms(out, " jobs, last ", windows.back().jobs_per_sec);
    put_ms(out, " jobs/s (p50 ", windows.back().p50_ms);
    out += " ms)\n";
  }
  if (has_ablation) {
    put_ms(out, "  ablation .... caches off ", ablation_jobs_per_sec);
    put_ms(out, " jobs/s; speedup ", cache_speedup);
    out += "x\n";
  }
  return out;
}

ServeSummary serve_stdin_jsonl(std::istream& in, std::ostream& out,
                               const ServeOptions& opts) {
  Session session(opts);
  const int conn = session.add_stream_connection(out);

  std::string line;
  while (std::getline(in, line)) {
    session.submit_line(conn, line);
    // A dead downstream is a server-stopping condition; stop admitting.
    if (session.connection_failed(conn)) break;
  }

  ServeSummary summary = session.finish();
  if (summary.connections_failed > 0) {
    fail(std::string(kCodeIoWriteOutput) +
         ": cannot write job envelope to output stream");
  }
  return summary;
}

#if defined(_WIN32)

ServeSummary serve_listen(const ListenOptions&, const ServeOptions&,
                          std::string*) {
  fail("serve --listen needs POSIX sockets, unavailable on this platform");
}

#else

namespace {

// Binds listen.address ("host:port" IPv4 or "unix:/path") and returns the
// listening fd; fills `bound` with the actual address (the kernel-chosen
// port when binding port 0) and `unix_path` when the unix transport is
// used. `unix_path` is set only once *this server's* socket occupies the
// path — the caller unlinks whatever `unix_path` names on shutdown (and on
// its error paths), so filling it early would delete a file we refused to
// replace.
int bind_listener(const ListenOptions& listen, std::string& bound,
                  std::string& unix_path) {
  const std::string& addr = listen.address;
  if (addr.rfind("unix:", 0) == 0) {
    const std::string path = addr.substr(5);
    sockaddr_un sa{};
    if (path.empty() || path.size() >= sizeof(sa.sun_path)) {
      fail("serve --listen: unix socket path \"" + path +
           "\" is empty or too long");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail("serve --listen: cannot create unix socket");
    sa.sun_family = AF_UNIX;
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    // Replace a stale socket, but never silently delete something else
    // living at the path (a config typo must not eat a regular file).
    struct stat st;
    if (::lstat(path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        ::close(fd);
        fail("serve --listen: \"" + path +
             "\" exists and is not a socket; refusing to replace it");
      }
      ::unlink(path.c_str());
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      fail("serve --listen: cannot bind \"" + addr + "\": " +
           std::strerror(errno));
    }
    bound = addr;
    unix_path = path;
    return fd;
  }

  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    fail("serve --listen: want \"host:port\" or \"unix:/path\", got \"" +
         addr + "\"");
  }
  const std::string host = addr.substr(0, colon);
  const std::string port_text = addr.substr(colon + 1);
  int port = -1;
  if (!port_text.empty() &&
      port_text.find_first_not_of("0123456789") == std::string::npos &&
      port_text.size() <= 5) {
    port = std::atoi(port_text.c_str());
  }
  if (port < 0 || port > 65535) {
    fail("serve --listen: bad port in \"" + addr + "\"");
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    fail("serve --listen: bad IPv4 host in \"" + addr + "\"");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("serve --listen: cannot create socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    fail("serve --listen: cannot bind \"" + addr + "\": " +
         std::strerror(errno));
  }
  sockaddr_in actual{};
  socklen_t len = sizeof actual;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    char text[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &actual.sin_addr, text, sizeof text);
    bound = std::string(text) + ":" + std::to_string(ntohs(actual.sin_port));
  } else {
    bound = addr;
  }
  return fd;
}

// One connection's reader loop: split the byte stream into lines and
// submit each one. A trailing unterminated line is still a job (exactly
// like std::getline at EOF). recv failure — a peer that died mid-stream —
// is that connection's dead pipe: mark it failed (E-IO-003 semantics) so
// its remaining bytes are never admitted and its in-flight envelopes are
// discarded, and let the rest of the session keep serving. The in-progress
// line is capped at Session::max_line_bytes(): the deck admission guards
// only see complete lines, so the transport itself must bound how much of
// an unterminated line it will buffer — overflow gets one E-RES-001
// envelope and the connection is dropped.
void reader_loop(Session& session, int conn, int fd) {
  std::string buf;
  char chunk[1 << 16];
  bool peer_error = false;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      peer_error = true;
      break;
    }
    if (n == 0) break;  // clean EOF
    buf.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!session.connection_failed(conn)) session.submit_line(conn, line);
    }
    if (static_cast<std::int64_t>(buf.size()) > session.max_line_bytes() &&
        !session.connection_failed(conn)) {
      session.reject_oversize_line(
          conn, static_cast<std::int64_t>(buf.size()));
      session.mark_connection_failed(conn);
    }
    if (session.connection_failed(conn)) break;
  }
  if (peer_error) {
    session.mark_connection_failed(conn);
  } else if (!buf.empty() && !session.connection_failed(conn)) {
    session.submit_line(conn, buf);
  }
}

// Owns the listening fd and the bound unix socket path for every exit
// path out of serve_listen — the Session constructor and the on_bound
// callback can throw, and a leaked bound path would block the next bind.
struct ListenerGuard {
  int fd = -1;
  std::string unix_path;
  ~ListenerGuard() {
    if (fd >= 0) ::close(fd);
    if (!unix_path.empty()) ::unlink(unix_path.c_str());
  }
};

}  // namespace

ServeSummary serve_listen(const ListenOptions& listen,
                          const ServeOptions& opts,
                          std::string* bound_address) {
  std::string bound;
  ListenerGuard guard;
  guard.fd = bind_listener(listen, bound, guard.unix_path);
  if (bound_address != nullptr) *bound_address = bound;
  if (listen.on_bound) listen.on_bound(bound);

  Session session(opts);
  std::vector<std::thread> readers;
  std::vector<int> conn_fds;
  int accepted = 0;
  while (listen.max_connections == 0 || accepted < listen.max_connections) {
    const int fd = ::accept(guard.fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // A fixed 10 s SO_SNDTIMEO bounds how long one blocked envelope send
    // can park its flushing thread on a peer that stopped reading; on
    // expiry the send fails and the connection is marked failed (see
    // Connection::writing).
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    ++accepted;
    conn_fds.push_back(fd);
    const int conn = session.add_socket_connection(fd);
    readers.emplace_back(
        [&session, conn, fd] { reader_loop(session, conn, fd); });
  }
  for (std::thread& t : readers) t.join();

  // Drain before closing the connection fds: admitted jobs keep flushing
  // replies to their (still-open) sockets until the last envelope lands.
  // The listening fd and unix path are released by `guard`.
  ServeSummary summary = session.finish();
  for (const int fd : conn_fds) ::close(fd);
  return summary;
}

#endif  // _WIN32

}  // namespace feio::serve
