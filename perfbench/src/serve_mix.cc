#include "serve_mix.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <random>
#include <set>
#include <utility>

#include "bench.h"
#include "cards/format_cache.h"
#include "idlz/deck.h"
#include "ospl/deck.h"
#include "scenarios/pipeline_bench.h"
#include "scenarios/scenarios.h"
#include "util/diag.h"
#include "util/error.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using namespace feio;

// Figure decks on which serve's canonical cantilever (minimum-x column
// clamped) is well-posed, and the ones whose system is singular there
// (E-SRV-002). perfbench/README.md lists both.
const std::set<std::string> kSingular = {
    "fig03a", "fig03b", "fig03c", "fig04a", "fig04b", "fig04c",
    "fig06",  "fig07",  "fig08",  "fig10",  "fig11"};

constexpr int kLoadCases = 8;
constexpr char kTenantA[] = "alpha";  // weight 2
constexpr char kTenantB[] = "beta";   // weight 1

}  // namespace

// One closed-loop connection. Its k-th reply must carry seq k.
struct ServeMix::Client {
  int fd = -1;
  int index = 0;
  std::int64_t seq = 0;
  std::mt19937_64 rng;
  std::int64_t strips = 0;  // unique strip decks sent so far
  std::string buffer;

  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  void send_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      FEIO_REQUIRE(n > 0, "serve_mix: send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  // Next reply line; empty at end of stream.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Sends one job and waits for its reply; returns the failure, if any.
  std::string round_trip(const std::string& id, const std::string& line,
                         double* latency_ms, double* job_ms) {
    const Clock::time_point t0 = Clock::now();
    send_line(line);
    const std::string reply = read_line();
    if (latency_ms != nullptr) *latency_ms = ms_between(t0, Clock::now());
    const std::int64_t want_seq = seq++;
    if (job_ms != nullptr) {
      *job_ms = std::strtod(json_value(reply, "elapsed_ms").c_str(), nullptr);
    }
    if (reply.empty()) return "job " + id + ": connection closed";
    if (json_value(reply, "id") != id) return "job " + id + ": wrong id";
    if (json_value(reply, "seq") != std::to_string(want_seq)) {
      return "job " + id + ": wrong seq";
    }
    const std::string status = json_value(reply, "status");
    if (status != "ok") return "job " + id + ": status " + status;
    return {};
  }
};

namespace {

std::string job_line(const std::string& id, const char* tenant,
                     const char* kind, const std::string& escaped_deck,
                     int load_case) {
  std::string line = "{\"schema\": \"feio.job/1\", \"id\": \"" + id +
                     "\", \"tenant\": \"" + tenant + "\", \"kind\": \"" +
                     kind + "\", \"deck\": \"" + escaped_deck + "\"";
  if (load_case >= 0) line += ", \"load_case\": " + std::to_string(load_case);
  return line + "}\n";
}

// A small strip whose width is unique to (client, n): every such solve job
// has its own operator, so it misses the factor cache and inserts.
std::string unique_strip_deck(std::uint64_t seed, int client,
                              std::int64_t n) {
  idlz::IdlzCase c = scenarios::strip_case(10, 16, 2);
  c.options.limits = idlz::Limits::paper();
  const double width =
      10.0 + 0.1 * static_cast<double>(seed % 97) +
      0.0001 * static_cast<double>((client + ServeMix::kClients * n) % 90000);
  for (idlz::ShapingSpec& spec : c.shaping) {
    for (idlz::ShapeLine& line : spec.lines) line.p2.x = width;
  }
  return json_escape(idlz::write_deck({c}));
}

}  // namespace

void ServeLoop::append(const ServeLoop& o) {
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  job_ms.insert(job_ms.end(), o.job_ms.begin(), o.job_ms.end());
  wall_s += o.wall_s;
  attempted += o.attempted;
  failed += o.failed;
  if (first_failure.empty()) first_failure = o.first_failure;
  for (int k = 0; k < kJobKinds; ++k) kinds[k] += o.kinds[k];
}

ServeMix::ServeMix(std::uint64_t seed, std::string socket_path)
    : seed_(seed), socket_path_(std::move(socket_path)) {
  for (scenarios::NamedCase& nc : scenarios::all_idealizations()) {
    nc.c.options.renumber_nodes = true;
    const std::string deck = json_escape(idlz::write_deck({nc.c}));
    idlz_decks_.push_back(deck);
    (kSingular.count(nc.id) != 0 ? singular_decks_ : solve_decks_)
        .push_back(deck);
  }
  for (auto fn : {scenarios::fig13_analysis, scenarios::fig13_contact_analysis,
                  scenarios::fig14_analysis,
                  scenarios::fig14_thermal_stress_analysis,
                  scenarios::fig15_analysis, scenarios::fig16_analysis,
                  scenarios::fig17_analysis, scenarios::fig18_analysis,
                  scenarios::kirsch_analysis}) {
    const scenarios::AnalysisOutput a = fn();
    for (const scenarios::FieldOutput& f : a.fields) {
      ospl::OsplCase c;
      c.mesh = a.idlz.mesh;
      c.values = f.values;
      c.title1 = a.title;
      c.title2 = f.name;
      c.delta = f.suggested_delta;
      ospl_decks_.push_back(json_escape(ospl::write_deck(c)));
    }
  }
}

ServeMix::~ServeMix() {
  if (server_.joinable()) stop();
}

void ServeMix::start(util::Tracer* tracer, util::MetricsRegistry* metrics) {
  ++sessions_;
  cards::reset_format_cache();
  serve::ServeOptions opts;
  opts.threads = kWorkers;
  opts.tenants = {{kTenantA, 2, 0, {}}, {kTenantB, 1, 0, {}}};
  opts.tracer = tracer;
  opts.metrics = metrics;
  opts.window_jobs = 0;
  serve::ListenOptions listen;
  listen.address = "unix:" + socket_path_;
  listen.max_connections = kClients;
  // Shared with the server thread, which may outlive this frame's wait.
  auto bound = std::make_shared<std::promise<void>>();
  std::future<void> ready = bound->get_future();
  listen.on_bound = [bound](const std::string&) { bound->set_value(); };
  server_error_.clear();
  server_ = std::thread([this, listen, opts, bound] {
    try {
      summary_ = serve::serve_listen(listen, opts);
    } catch (const std::exception& e) {
      server_error_ = e.what();
      try {
        bound->set_value();
      } catch (const std::future_error&) {
      }
    }
  });
  ready.wait();
  FEIO_REQUIRE(server_error_.empty(), "serve_mix: " + server_error_);

  clients_.clear();
  for (int i = 0; i < kClients; ++i) {
    auto c = std::make_unique<Client>();
    c->index = i;
    c->rng.seed(seed_ * 1000003ull + sessions_ * 1009ull +
                static_cast<std::uint64_t>(i));
    c->fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::snprintf(sa.sun_path, sizeof sa.sun_path, "%s", socket_path_.c_str());
    FEIO_REQUIRE(c->fd >= 0 && ::connect(c->fd,
                                         reinterpret_cast<sockaddr*>(&sa),
                                         sizeof sa) == 0,
                 "serve_mix: cannot connect to " + socket_path_);
    clients_.push_back(std::move(c));
  }

  // Warm-up: every template once (solve decks at load case 0, one unique
  // strip), then the singular solve decks; dealt round-robin to the
  // clients, which run their shares concurrently.
  std::vector<std::vector<std::pair<std::string, std::string>>> share(kClients);
  std::vector<std::vector<bool>> singular(kClients);
  int next = 0;
  auto deal = [&](const char* kind, const std::string& deck, int load_case,
                  bool is_singular) {
    const int c = next++ % kClients;
    const std::string id = "w" + std::to_string(c) + "-" +
                           std::to_string(share[c].size());
    share[c].push_back({id, job_line(id, kTenantA, kind, deck, load_case)});
    singular[c].push_back(is_singular);
  };
  for (const std::string& d : idlz_decks_) deal("idlz", d, -1, false);
  for (const std::string& d : solve_decks_) deal("solve", d, 0, false);
  for (const std::string& d : ospl_decks_) deal("ospl", d, -1, false);
  deal("solve", unique_strip_deck(seed_, 0, 0), 0, false);
  for (const std::string& d : singular_decks_) deal("solve", d, 0, true);

  // The singular probes are not ops: they are expected to fail.
  warmup_attempted = next - static_cast<int>(singular_decks_.size());
  warmup_failed = 0;
  warmup_failure.clear();
  singular_failures = 0;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t j = 0; j < share[c].size(); ++j) {
        const std::string failure = clients_[c]->round_trip(
            share[c][j].first, share[c][j].second, nullptr, nullptr);
        std::lock_guard<std::mutex> lock(mu);
        if (singular[c][j]) {
          singular_failures += failure.empty() ? 0 : 1;
        } else if (!failure.empty()) {
          if (warmup_failed++ == 0) warmup_failure = failure;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

std::string ServeMix::next_job(Client& c, const std::string& id,
                               JobKind& kind) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double pick = u(c.rng);
  const char* tenant = u(c.rng) < 2.0 / 3.0 ? kTenantA : kTenantB;
  auto any = [&](const std::vector<std::string>& v) -> const std::string& {
    return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(
        c.rng)];
  };
  if (pick < 0.4) {
    kind = kIdlzJob;
    return job_line(id, tenant, "idlz", any(idlz_decks_), -1);
  }
  if (pick < 0.8) {
    kind = kSolveJob;
    if (u(c.rng) < 0.75) {
      const int load_case =
          std::uniform_int_distribution<int>(0, kLoadCases - 1)(c.rng);
      return job_line(id, tenant, "solve", any(solve_decks_), load_case);
    }
    return job_line(id, tenant, "solve",
                    unique_strip_deck(seed_, c.index, ++c.strips), 0);
  }
  kind = kOsplJob;
  return job_line(id, tenant, "ospl", any(ospl_decks_), -1);
}

ServeLoop ServeMix::loop(double seconds, bool poison) {
  struct PerClient {
    ServeLoop s;
    Clock::time_point end;
  };
  std::vector<PerClient> per(kClients);
  std::barrier sync(kClients);
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client& c = *clients_[i];
      ServeLoop& s = per[i].s;
      sync.arrive_and_wait();
      if (i == 0) start = Clock::now();
      sync.arrive_and_wait();
      const Clock::time_point deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      while (Clock::now() < deadline) {
        const std::string id =
            "c" + std::to_string(c.index) + "-" + std::to_string(c.seq);
        JobKind kind = kIdlzJob;
        std::string line = next_job(c, id, kind);
        if (poison && i == 0 && s.attempted == 0) {
          kind = kSolveJob;
          line = job_line(id, kTenantA, "solve", singular_decks_.front(), 0);
        }
        double latency = 0.0;
        double job = 0.0;
        std::string failure;
        {
          FEIO_TRACE_SPAN(span, "bench.serve.job");
          span.arg("id", id);
          failure = c.round_trip(id, line, &latency, &job);
        }
        ++s.attempted;
        ++s.kinds[kind];
        s.latency_ms.push_back(latency);
        s.job_ms.push_back(job);
        if (!failure.empty() && s.failed++ == 0) s.first_failure = failure;
      }
      per[i].end = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();

  ServeLoop all;
  Clock::time_point end = start;
  for (PerClient& p : per) {
    end = std::max(end, p.end);
    all.attempted += p.s.attempted;
    all.failed += p.s.failed;
    if (all.first_failure.empty()) all.first_failure = p.s.first_failure;
    for (int k = 0; k < kJobKinds; ++k) all.kinds[k] += p.s.kinds[k];
    all.latency_ms.insert(all.latency_ms.end(), p.s.latency_ms.begin(),
                          p.s.latency_ms.end());
    all.job_ms.insert(all.job_ms.end(), p.s.job_ms.begin(),
                      p.s.job_ms.end());
  }
  all.wall_s = ms_between(start, end) / 1000.0;
  return all;
}

serve::ServeSummary ServeMix::stop() {
  // The server closes connections only once every one of them ended.
  for (const std::unique_ptr<Client>& c : clients_) ::shutdown(c->fd, SHUT_WR);
  for (const std::unique_ptr<Client>& c : clients_) {
    while (!c->read_line().empty()) {
    }
  }
  clients_.clear();
  if (server_.joinable()) server_.join();
  return summary_;
}

}  // namespace perfbench
