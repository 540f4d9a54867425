// feio serve: the long-lived multi-tenant job front end.
//
// The 1970 workflow was one deck per operator trip to the machine room; the
// service-shaped equivalent is a persistent process that accepts streams of
// jobs from many analysts and never lets one bad job (or one greedy tenant)
// take the process or another lane down. Two transports feed one session:
//
//   serve_stdin_jsonl  one JSON job per stdin line, one envelope per line
//   serve_listen       a TCP or unix-domain socket accepting concurrent
//                      line-delimited-JSON connections, multiplexed onto
//                      the same pool with per-connection in-order replies
//
// Jobs use the feio.job/1 request schema (feio/request.h; bare objects
// accepted for back-compat). Each job runs on a worker pool under the full
// robustness stack — per-job deadline (util/cancel.h), admission guards
// (util/guard.h), per-job fault isolation (util/fault.h) — and produces
// exactly one single-line feio.report/1 envelope (kind "job") per request,
// in per-connection input order.
//
// Pipeline "solve" idealizes an IDLZ deck and then runs a canonical static
// analysis on each resulting mesh (plane stress, unit isotropic material,
// the minimum-x node column clamped, a load at the maximum-x node scaled by
// the job's load_case) — the deck-to-displacements round trip whose
// assembly+factorization cost the factor cache exists to amortize. The
// cache keys on the operator only (fem/factor_cache.h), so jobs that vary
// nothing but load_case re-solve new load vectors against one cached
// factorization.
//
// Admission is weighted deficit-round-robin across tenants (util/drr.h):
// each job names a tenant (default "default"); a tenant's weight sets its
// share of the pool while backlogged, per-tenant GuardLimits overrides
// tighten its admission guards, and per-tenant queue caps bound its
// backlog. A job is rejected up front — never started — when its deck
// exceeds its tenant's card/byte limits (E-RES-001) or when the session or
// tenant queue is full (E-RES-004). Rejected jobs still get their envelope;
// the stream keeps flowing.
//
// The summary (ServeSummary) aggregates the whole session — buckets,
// latencies, cache totals, rolling windows with per-tenant shares, and
// per-tenant sub-summaries — and renders as a feio.report/1 bench envelope
// with payload_schema feio.bench.serve/1 (tools/check_report.py validates
// it; docs/ROBUSTNESS.md documents it).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "feio/request.h"  // IWYU pragma: export  (Job, parse_job_line)
#include "feio/run_options.h"
#include "util/guard.h"

namespace feio::util {
class MetricsRegistry;
class Tracer;
}  // namespace feio::util

namespace feio::serve {

// One admission lane. Unknown tenants named by jobs are auto-registered
// with defaults (weight 1, inherited limits); configs exist to give a
// tenant more (or less) than the default share.
struct TenantConfig {
  std::string name;
  int weight = 1;          // DRR quantum; >= 1
  int queue_capacity = 0;  // max jobs queued+running for this tenant;
                           // 0 = bounded only by the session queue
  util::GuardOverrides guard;  // per-tenant admission-limit overrides
};

struct ServeOptions {
  // Worker threads for the job pool, <= 0 = every hardware thread, capped at
  // queue_capacity. Every pipeline stage is serial, so each job runs on its
  // one worker and this is the number of concurrent jobs.
  int threads = 1;

  // Session-wide admission bound: jobs admitted but not yet finished,
  // summed over all tenants and connections. A job arriving with the
  // session full is rejected with E-RES-004 instead of queued.
  int queue_capacity = 256;

  // Deadline applied to jobs that do not carry their own deadline_ms;
  // 0 = no default deadline.
  std::int64_t default_deadline_ms = 0;

  // Per-job admission and in-run guard limits (the base every tenant's
  // overrides apply to).
  util::GuardLimits guard = util::GuardLimits::serve_defaults();

  // Tenant lanes beyond the implicit "default" (a config named "default"
  // replaces the implicit one).
  std::vector<TenantConfig> tenants;

  // Observability sinks, installed once for the whole session (both
  // thread-safe; spans/metrics from concurrent jobs interleave).
  util::Tracer* tracer = nullptr;
  util::MetricsRegistry* metrics = nullptr;

  // Serve-path cache capacities. format_cache rebinds the process-wide
  // FORMAT intern cache for the session; factor_cache bounds the
  // session-local LRU of factorized stiffness systems shared by all
  // workers. 0 disables the respective cache (the `--ablate-caches` cold
  // pass runs with both at 0).
  int format_cache_capacity = 256;
  int factor_cache_capacity = 16;

  // Idle TTL for factor-cache entries, milliseconds: an entry not hit for
  // this long is evicted on the next cache access (counted by
  // cache.factor.ttl_evictions and the summary's factor_ttl_evictions), so
  // a burst of one-off operators cannot pin factor bytes for the session's
  // life. 0 disables idle eviction (entries live until LRU pressure).
  std::int64_t factor_ttl_ms = 0;

  // Rolling-report window size: the summary's `windows` array carries
  // per-window jobs/sec, p50/p99, cache hit rates and tenant shares for
  // every `window_jobs` completed jobs (the final window may be short).
  // <= 0 disables windowing.
  int window_jobs = 100;

  // Ordering pin applied to every job's RunOptions (--order). The default
  // keeps the deck's own renumber option.
  OrderingChoice ordering = OrderingChoice::kDeckDefault;
};

// Socket-transport configuration for serve_listen.
struct ListenOptions {
  // "host:port" (IPv4; port 0 binds an ephemeral port — read it back via
  // the bound_address out-param) or "unix:/path/to.sock".
  std::string address;

  // Accept exactly this many connections, then stop accepting and drain.
  // 0 = accept forever (until the process is killed). Tests and benches
  // use a finite count for a deterministic shutdown.
  int max_connections = 0;

  // Called once with the actual bound address ("127.0.0.1:49152" after
  // binding port 0, or the unix path) after listen() succeeds and before
  // the first accept. This is the race-free way for a caller running
  // serve_listen on another thread to learn when — and where — it can
  // connect (the `bound_address` out-param is only readable after
  // serve_listen returns).
  std::function<void(const std::string&)> on_bound;

  // SO_SNDTIMEO applied to every accepted connection: a peer that stops
  // reading its replies for this long (per blocked send) has its
  // connection marked failed (E-IO-003 semantics) instead of parking a
  // worker forever — envelope writes happen off the session lock, so the
  // stall never spreads past the one connection either way. 0 disables
  // the timeout (a stalled-but-alive peer then pins one thread).
  int send_timeout_ms = 10000;
};

// One rolling window over `window_jobs` consecutive job completions.
struct ServeWindow {
  std::int64_t jobs = 0;
  double wall_ms = 0.0;      // window span on the session clock
  double jobs_per_sec = 0.0;
  double p50_ms = 0.0;       // per-job latency percentiles within the window
  double p99_ms = 0.0;
  double format_hit_rate = 0.0;  // FORMAT-cache hits / lookups this window
  double factor_hit_rate = 0.0;  // factor-cache hits / lookups this window
  // Fraction of this window's completions per tenant, ordered like
  // ServeSummary::tenants. The DRR fairness contract is checked here:
  // while two tenants stay backlogged their shares track weight ratios.
  std::vector<std::pair<std::string, double>> tenant_shares;
};

// Per-tenant slice of the session. jobs == ok + rejected + timed_out +
// faulted + errors, like the session buckets.
struct TenantSummary {
  std::string tenant;
  int weight = 1;
  std::int64_t jobs = 0;
  std::int64_t ok = 0;
  std::int64_t rejected = 0;
  std::int64_t timed_out = 0;
  std::int64_t faulted = 0;
  std::int64_t errors = 0;
  double share = 0.0;  // jobs / session jobs
};

// Whole-session aggregate. jobs == ok + rejected + timed_out + faulted +
// errors; every request lands in exactly one bucket.
struct ServeSummary {
  std::int64_t jobs = 0;
  std::int64_t ok = 0;
  std::int64_t rejected = 0;   // admission guards: E-RES-001..004
  std::int64_t timed_out = 0;  // E-RES-005
  std::int64_t faulted = 0;    // E-RES-006
  std::int64_t errors = 0;     // anything else that failed
  double wall_ms = 0.0;
  double jobs_per_sec = 0.0;
  double p50_ms = 0.0;  // per-job latency percentiles over all jobs
  double p99_ms = 0.0;
  double max_ms = 0.0;

  // Transport: how many connections fed the session (1 for stdin mode)
  // and how many died mid-stream (peer disconnect / dead pipe).
  std::int64_t connections = 0;
  std::int64_t connections_failed = 0;

  // Session cache totals (deltas for the process-wide FORMAT cache). The
  // enabled flags make ablation envelopes unambiguous: a disabled cache
  // reports zeros AND enabled=false, never stale cumulative totals.
  bool format_cache_enabled = true;
  bool factor_cache_enabled = true;
  std::int64_t format_hits = 0;
  std::int64_t format_misses = 0;
  std::int64_t factor_hits = 0;
  std::int64_t factor_misses = 0;
  // Factor-cache hits that re-solved a different load vector than the one
  // the entry was filled with — the many-loads-one-factor reuse the split
  // operator/loads key exists for.
  std::int64_t factor_load_reuses = 0;
  // Entries expired by ServeOptions::factor_ttl_ms (0 when the TTL is off).
  std::int64_t factor_ttl_evictions = 0;

  // Per-tenant slices, config-declared tenants first (in declaration
  // order), then auto-registered ones in first-seen order.
  std::vector<TenantSummary> tenants;

  // Rolling windows over completions (ServeOptions::window_jobs per
  // window); empty when windowing is disabled or no jobs ran.
  std::int64_t window_jobs = 0;
  std::vector<ServeWindow> windows;

  // Filled by the CLI's `--ablate-caches` mode: the same stream replayed
  // with both caches disabled, and the warm/cold throughput ratio.
  bool has_ablation = false;
  double ablation_wall_ms = 0.0;
  double ablation_jobs_per_sec = 0.0;
  double cache_speedup = 0.0;  // jobs_per_sec / ablation_jobs_per_sec

  // feio.report/1 bench envelope, payload_schema feio.bench.serve/1 (the
  // cache/window/tenant/ablation fields are additive extensions).
  std::string render_bench_json() const;
  // Human-readable table for stderr.
  std::string render_table() const;
};

// Runs a one-connection session: reads job lines from `in` until EOF,
// writes one envelope line per job to `out` in input order, returns the
// summary. Throws feio::Error (code E-IO-003 in the message) when `out`
// fails — a dead downstream pipe must stop the server, not spin it.
ServeSummary serve_stdin_jsonl(std::istream& in, std::ostream& out,
                               const ServeOptions& opts = {});

// Runs a socket session: binds `listen.address`, accepts up to
// `listen.max_connections` concurrent connections (each one a
// line-delimited-JSON stream with per-connection in-order replies and
// per-connection seq numbering, so envelopes are byte-identical to stdin
// mode), and returns the merged session summary once every accepted
// connection has closed and drained. A peer that disconnects mid-stream is
// that connection's E-IO-003: its unread jobs are never admitted, its
// admitted jobs drain with their replies discarded, and the session keeps
// serving the other connections (connections_failed counts it). Throws
// feio::Error when the address cannot be parsed or bound. When
// `bound_address` is non-null it receives the actual bound address
// ("127.0.0.1:49152" after binding port 0, or the unix path).
ServeSummary serve_listen(const ListenOptions& listen,
                          const ServeOptions& opts = {},
                          std::string* bound_address = nullptr);

}  // namespace feio::serve
