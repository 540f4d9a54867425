// feio::RunOptions — the one options block both pipeline entry points
// (idlz::run / run_checked, ospl::run / run_checked) accept. Lives in its
// own header, below idlz/ and ospl/, so idlz.h and ospl.h can take it
// without an include cycle; feio.h re-exports it with everything else.
#pragma once

namespace feio::util {
class CancelToken;
class MetricsRegistry;
class Tracer;
}  // namespace feio::util

namespace feio::fem {
class FactorCache;
}  // namespace feio::fem

namespace feio {

// Node-ordering override for the idealization pipeline's renumber pass.
// kDeckDefault keeps the deck's own NONUMB option (renumbering with the
// better of Cuthill–McKee and its reverse); kRcm forces the pass on with
// reverse Cuthill–McKee and kNone forces it off — the ordering axis of the
// solver bench. The same deck under two orderings
// produces different meshes, so their factors never share a cache entry.
enum class OrderingChoice {
  kDeckDefault,
  kNone,
  kRcm,
};

// Options applied to one pipeline run. Every entry point defaults its
// options to RunOptions{}: no sinks, no deadline, no cache, the deck's own
// ordering. The case's own IdlzOptions decide its plots and cards.
struct RunOptions {
  // No stage reads this: every pipeline stage runs serially on the
  // calling thread, and threads start only in feio serve's job pool and
  // the CLI's deck batches, each given its count explicitly
  // (util/parallel.h). Kept only because perfbench/ sets it.
  int threads = 0;

  // Observability sinks, both optional. Installed (scoped) as the process
  // tracer/registry for the duration of the run; instrumentation never
  // changes pipeline output, so traced runs stay byte-identical to
  // untraced ones.
  util::Tracer* tracer = nullptr;
  util::MetricsRegistry* metrics = nullptr;

  // Deadline / cooperative cancellation, optional. Installed (scoped,
  // thread-local) for the duration of the run; every long-running stage
  // checks it at coarse boundaries (util/cancel.h). An expired token makes
  // run() throw util::Cancelled and run_checked report E-RES-005; a run
  // that finishes before its deadline is byte-identical to an undeadlined
  // one. The token must outlive the call.
  const util::CancelToken* cancel = nullptr;

  // Factorized-stiffness LRU (fem/factor_cache.h), optional. When set,
  // fem::solve(problem, opts) consults it before assembling: a content-hash
  // hit replays the cached factor (bit-identical to the cold path) and a
  // successful cold solve populates it. Null keeps every solve cold. The
  // cache must outlive the call; it is internally synchronized, so serve
  // workers share one instance.
  fem::FactorCache* factor_cache = nullptr;

  // Renumbering override for the IDLZ pipeline — see OrderingChoice.
  OrderingChoice ordering = OrderingChoice::kDeckDefault;
};

}  // namespace feio
