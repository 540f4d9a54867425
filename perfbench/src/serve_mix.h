// The serve_mix workload: feio serve on a unix socket inside this process,
// 2 workers, 8 closed-loop client connections, a seeded job mix over two
// tenants weighted 2:1.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "feio/serve.h"

namespace feio::util {
class MetricsRegistry;
class Tracer;
}  // namespace feio::util

namespace perfbench {

enum JobKind { kIdlzJob, kSolveJob, kOsplJob, kJobKinds };

struct ServeLoop {
  std::vector<double> latency_ms;  // client side, send to reply
  std::vector<double> job_ms;      // the envelope's elapsed_ms
  double wall_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_failure;
  std::array<std::int64_t, kJobKinds> kinds{};
  void append(const ServeLoop& o);
};

class ServeMix {
 public:
  static constexpr int kWorkers = 2;
  static constexpr int kClients = 8;

  // Builds the job templates from the seed; `socket_path` is the unix
  // socket the session binds.
  ServeMix(std::uint64_t seed, std::string socket_path);
  ~ServeMix();
  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;

  // A fresh set-up: resets the FORMAT cache, starts a new session (new
  // factor cache) with the given sinks, connects the clients, runs one
  // warm-up cycle over the job templates and submits each singular solve
  // deck once. Failed warm-up jobs count in warmup_failed; the singular
  // probes count only in singular_failures.
  void start(feio::util::Tracer* tracer, feio::util::MetricsRegistry* metrics);
  // The timed closed loop. `poison` forces the first job of client 0 to a
  // deck that cannot be solved (the self-test).
  ServeLoop loop(double seconds, bool poison = false);
  // Closes the connections and returns the session summary.
  feio::serve::ServeSummary stop();

  std::int64_t warmup_attempted = 0;
  std::int64_t warmup_failed = 0;
  std::string warmup_failure;
  int singular_failures = 0;  // singular solve decks that failed, of kSingular

 private:
  struct Client;
  std::string next_job(Client& c, const std::string& id, JobKind& kind);

  std::uint64_t seed_;
  std::uint64_t sessions_ = 0;  // sessions started; keeps job streams apart
  std::string socket_path_;
  std::vector<std::string> idlz_decks_;      // JSON-escaped deck text
  std::vector<std::string> solve_decks_;
  std::vector<std::string> singular_decks_;
  std::vector<std::string> ospl_decks_;
  std::thread server_;
  feio::serve::ServeSummary summary_;
  std::string server_error_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace perfbench
