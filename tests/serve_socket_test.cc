// Tests for serve_listen (src/feio/serve.h): the socket transport. The
// core contracts under test: a loopback connection gets envelopes
// byte-identical to stdin mode (modulo elapsed_ms), concurrent connections
// each keep their own in-order reply stream, the 500-job mixed-stream
// acceptance scenario survives the socket path, and a peer that dies
// mid-stream is that connection's problem only (E-IO-003 semantics:
// connections_failed counts it, the rest of the session keeps serving).
#include "feio/serve.h"

#if !defined(_WIN32)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "idlz/deck.h"
#include "scenarios/pipeline_bench.h"
#include "util/error.h"

using namespace feio;

namespace {

// --- fixtures (mirrors serve_test.cc so envelopes are comparable) ----------

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

std::string idlz_job(const std::string& id) {
  return "{\"id\": \"" + id + "\", \"pipeline\": \"idlz\", \"deck\": \"" +
         json_escape_deck(small_idlz_deck()) + "\"}";
}

std::string solve_job(const std::string& id) {
  return "{\"id\": \"" + id + "\", \"kind\": \"solve\", \"deck\": \"" +
         json_escape_deck(small_idlz_deck()) + "\"}";
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string strip_elapsed(const std::string& line) {
  const size_t at = line.find("\"elapsed_ms\": ");
  if (at == std::string::npos) return line;
  const size_t end = line.find_first_of(",}", at);
  return line.substr(0, at) + line.substr(end);
}

// --- client plumbing -------------------------------------------------------

// Connects to "127.0.0.1:PORT" or a unix path reported via on_bound.
int connect_to(const std::string& bound) {
  if (bound.rfind("unix:", 0) == 0) {
    const std::string path = bound.substr(5);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&sa),
                        sizeof sa),
              0)
        << bound << ": " << std::strerror(errno);
    return fd;
  }
  const size_t colon = bound.rfind(':');
  const std::string host = bound.substr(0, colon);
  const int port = std::atoi(bound.c_str() + colon + 1);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, host.c_str(), &sa.sin_addr), 1) << bound;
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa), 0)
      << bound << ": " << std::strerror(errno);
  return fd;
}

void send_text(int fd, const std::string& text) {
  size_t off = 0;
  while (off < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

std::string recv_all(int fd) {
  std::string out;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

// One whole client conversation: connect, send every job line, half-close,
// collect the reply stream until the server closes its side of the drain.
std::vector<std::string> run_client(const std::string& bound,
                                    const std::vector<std::string>& jobs) {
  const int fd = connect_to(bound);
  std::string input;
  for (const std::string& j : jobs) {
    input += j;
    input += '\n';
  }
  send_text(fd, input);
  ::shutdown(fd, SHUT_WR);
  const std::string replies = recv_all(fd);
  ::close(fd);
  return lines_of(replies);
}

// Runs serve_listen on a server thread against `clients` concurrent
// connections, each a vector of job lines, and returns the summary plus
// each client's reply lines.
serve::ServeSummary run_socket_serve(
    const std::string& address, serve::ServeOptions opts,
    const std::vector<std::vector<std::string>>& clients,
    std::vector<std::vector<std::string>>& replies) {
  serve::ListenOptions listen;
  listen.address = address;
  listen.max_connections = static_cast<int>(clients.size());
  std::promise<std::string> bound_promise;
  std::future<std::string> bound_future = bound_promise.get_future();
  listen.on_bound = [&bound_promise](const std::string& bound) {
    bound_promise.set_value(bound);
  };
  serve::ServeSummary summary;
  std::thread server([&] { summary = serve::serve_listen(listen, opts); });
  const std::string bound = bound_future.get();
  replies.assign(clients.size(), {});
  std::vector<std::thread> client_threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    client_threads.emplace_back([&, c] {
      replies[c] = run_client(bound, clients[c]);
    });
  }
  for (std::thread& t : client_threads) t.join();
  server.join();
  return summary;
}

// --- tests -----------------------------------------------------------------

TEST(ServeSocketTest, LoopbackEnvelopesMatchStdinModeByteForByte) {
  // The transport-independence contract: the serve_test job matrix (valid
  // idlz, malformed, blank, solve) over a loopback TCP connection must
  // produce envelopes byte-identical to stdin mode, elapsed_ms aside.
  const std::vector<std::string> jobs = {
      idlz_job("a"), "not json", solve_job("b"), "", idlz_job("c"),
  };
  serve::ServeOptions opts;
  opts.threads = 4;

  std::string input;
  for (const std::string& j : jobs) {
    input += j;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  serve::serve_stdin_jsonl(in, out, opts);
  const std::vector<std::string> stdin_env = lines_of(out.str());

  std::vector<std::vector<std::string>> replies;
  const serve::ServeSummary s =
      run_socket_serve("127.0.0.1:0", opts, {jobs}, replies);
  EXPECT_EQ(s.connections, 1);
  EXPECT_EQ(s.connections_failed, 0);
  EXPECT_EQ(s.jobs, static_cast<std::int64_t>(jobs.size()));
  ASSERT_EQ(replies[0].size(), stdin_env.size());
  for (size_t i = 0; i < stdin_env.size(); ++i) {
    EXPECT_EQ(strip_elapsed(replies[0][i]), strip_elapsed(stdin_env[i]))
        << "envelope " << i << " differs between transports";
  }
}

TEST(ServeSocketTest, ConcurrentConnectionsKeepTheirOwnOrder) {
  // Three clients share the pool; each must get exactly its own replies,
  // in its own submission order, numbered from seq 0.
  std::vector<std::vector<std::string>> clients;
  for (int c = 0; c < 3; ++c) {
    std::vector<std::string> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(
          solve_job("c" + std::to_string(c) + "-" + std::to_string(i)));
    }
    clients.push_back(jobs);
  }
  serve::ServeOptions opts;
  opts.threads = 4;
  std::vector<std::vector<std::string>> replies;
  const serve::ServeSummary s =
      run_socket_serve("127.0.0.1:0", opts, clients, replies);
  EXPECT_EQ(s.connections, 3);
  EXPECT_EQ(s.jobs, 12);
  EXPECT_EQ(s.ok, 12);
  for (size_t c = 0; c < clients.size(); ++c) {
    ASSERT_EQ(replies[c].size(), clients[c].size()) << "client " << c;
    for (size_t i = 0; i < replies[c].size(); ++i) {
      const std::string want_id =
          "\"id\": \"c" + std::to_string(c) + "-" + std::to_string(i) + "\"";
      EXPECT_NE(replies[c][i].find(want_id), std::string::npos)
          << "client " << c << " reply " << i << ": " << replies[c][i];
      const std::string want_seq = "\"seq\": " + std::to_string(i);
      EXPECT_NE(replies[c][i].find(want_seq), std::string::npos);
    }
  }
}

TEST(ServeSocketTest, LateTenantGetsZeroShareInEarlierWindows) {
  // Rolling windows are cut as they fill, so the first window here closes
  // before tenant "late" exists. The summary must still list every session
  // tenant in every window, "late" with a 0 share in the first.
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.window_jobs = 2;
  serve::ListenOptions listen;
  listen.address = "127.0.0.1:0";
  listen.max_connections = 1;
  std::promise<std::string> bound_promise;
  std::future<std::string> bound_future = bound_promise.get_future();
  listen.on_bound = [&bound_promise](const std::string& bound) {
    bound_promise.set_value(bound);
  };
  serve::ServeSummary s;
  std::thread server([&] { s = serve::serve_listen(listen, opts); });
  const auto job = [](const std::string& id, const std::string& tenant) {
    return "{\"id\": \"" + id + "\", \"tenant\": \"" + tenant +
           "\", \"pipeline\": \"idlz\", \"deck\": \"" +
           json_escape_deck(small_idlz_deck()) + "\"}\n";
  };
  const int fd = connect_to(bound_future.get());
  send_text(fd, job("e0", "early") + job("e1", "early"));
  // Both replies back means the first window has closed.
  int replies = 0;
  char c = 0;
  while (replies < 2 && ::recv(fd, &c, 1, 0) == 1) replies += c == '\n';
  ASSERT_EQ(replies, 2);
  send_text(fd, job("l0", "late"));
  ::shutdown(fd, SHUT_WR);
  recv_all(fd);
  ::close(fd);
  server.join();

  using Shares = std::vector<std::pair<std::string, double>>;
  ASSERT_EQ(s.windows.size(), 2u);
  EXPECT_EQ(s.windows[0].tenant_shares,
            (Shares{{"early", 1.0}, {"late", 0.0}}));
  EXPECT_EQ(s.windows[1].tenant_shares,
            (Shares{{"early", 0.0}, {"late", 1.0}}));
}

TEST(ServeSocketTest, UnixDomainSocketServes) {
  const std::string path =
      ::testing::TempDir() + "feio_serve_test.sock";
  std::vector<std::vector<std::string>> replies;
  serve::ServeOptions opts;
  opts.threads = 2;
  const serve::ServeSummary s = run_socket_serve(
      "unix:" + path, opts, {{solve_job("u1"), solve_job("u2")}}, replies);
  EXPECT_EQ(s.jobs, 2);
  EXPECT_EQ(s.ok, 2);
  ASSERT_EQ(replies[0].size(), 2u);
  EXPECT_NE(replies[0][0].find("\"id\": \"u1\""), std::string::npos);
}

TEST(ServeSocketTest, MixedStream500JobsSurvivesTheSocket) {
  // The serve_test acceptance stream over a socket: 500 jobs in six
  // rotating classes (valid idlz, malformed, blank, oversized, solve) with
  // the same guard, and the same deterministic bucket counts.
  std::string big_deck;
  for (int i = 0; i < 1500; ++i) big_deck += "JUNK CARD\n";
  std::vector<std::string> jobs;
  for (int i = 0; i < 500; ++i) {
    switch (i % 6) {
      case 0:
      case 1:
        jobs.push_back(idlz_job("j" + std::to_string(i)));
        break;
      case 2:
        jobs.push_back("{broken json");
        break;
      case 3:
        jobs.push_back("");
        break;
      case 4:
        jobs.push_back("{\"id\": \"big" + std::to_string(i) +
                       "\", \"pipeline\": \"idlz\", \"deck\": \"" +
                       json_escape_deck(big_deck) + "\"}");
        break;
      case 5:
        jobs.push_back(solve_job("s" + std::to_string(i)));
        break;
    }
  }
  serve::ServeOptions opts;
  opts.threads = 4;
  opts.queue_capacity = 600;
  opts.guard.max_deck_cards = 1000;
  std::vector<std::vector<std::string>> replies;
  const serve::ServeSummary s =
      run_socket_serve("127.0.0.1:0", opts, {jobs}, replies);
  EXPECT_EQ(s.jobs, 500);
  EXPECT_EQ(s.ok + s.rejected + s.timed_out + s.faulted + s.errors, s.jobs);
  EXPECT_EQ(s.rejected, 83);  // the i%6==4 class, rejected by card guard
  EXPECT_EQ(s.errors, 166);   // malformed + blank classes
  ASSERT_EQ(replies[0].size(), 500u);
  for (size_t i = 0; i < replies[0].size(); ++i) {
    const std::string want_seq = "\"seq\": " + std::to_string(i) + ",";
    EXPECT_NE(replies[0][i].find(want_seq), std::string::npos)
        << "reply " << i << " out of order: " << replies[0][i];
  }
}

TEST(ServeSocketTest, DeadPeerIsIsolatedToItsConnection) {
  // Client 0 sends a job and slams the connection (RST via zero-linger
  // close, never reading its reply) while client 1 behaves. The dead peer
  // must cost the session nothing but a connections_failed tick: client 1
  // still gets every reply in order.
  serve::ListenOptions listen;
  listen.address = "127.0.0.1:0";
  listen.max_connections = 2;
  std::promise<std::string> bound_promise;
  std::future<std::string> bound_future = bound_promise.get_future();
  listen.on_bound = [&bound_promise](const std::string& bound) {
    bound_promise.set_value(bound);
  };
  serve::ServeOptions opts;
  opts.threads = 2;
  serve::ServeSummary summary;
  std::thread server(
      [&] { summary = serve::serve_listen(listen, opts); });
  const std::string bound = bound_future.get();

  std::thread rude([&] {
    const int fd = connect_to(bound);
    send_text(fd, solve_job("doomed") + "\n");
    struct linger lg = {1, 0};  // RST on close: the peer dies mid-stream
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd);
  });
  std::vector<std::string> polite_jobs;
  for (int i = 0; i < 6; ++i) {
    polite_jobs.push_back(solve_job("p" + std::to_string(i)));
  }
  std::vector<std::string> polite_replies;
  std::thread polite(
      [&] { polite_replies = run_client(bound, polite_jobs); });
  rude.join();
  polite.join();
  server.join();

  EXPECT_EQ(summary.connections, 2);
  EXPECT_EQ(summary.connections_failed, 1);
  ASSERT_EQ(polite_replies.size(), polite_jobs.size());
  for (size_t i = 0; i < polite_replies.size(); ++i) {
    EXPECT_NE(polite_replies[i].find("\"id\": \"p" + std::to_string(i)),
              std::string::npos)
        << polite_replies[i];
    EXPECT_EQ(polite_replies[i].find("doomed"), std::string::npos)
        << "a dead peer's reply leaked to the wrong connection";
  }
}

TEST(ServeSocketTest, OversizeUnterminatedLineIsRejectedAndDropped) {
  // The admission guards only see complete lines, so the transport must
  // bound the in-progress line itself: a client streaming an endless
  // unterminated line gets one E-RES-001 envelope and loses the
  // connection instead of growing the server's buffer without limit.
  serve::ListenOptions listen;
  listen.address = "127.0.0.1:0";
  listen.max_connections = 1;
  std::promise<std::string> bound_promise;
  std::future<std::string> bound_future = bound_promise.get_future();
  listen.on_bound = [&bound_promise](const std::string& bound) {
    bound_promise.set_value(bound);
  };
  serve::ServeOptions opts;
  opts.threads = 2;
  opts.guard.max_deck_bytes = 1024;  // line cap = 6x this + escape slack
  serve::ServeSummary summary;
  std::thread server(
      [&] { summary = serve::serve_listen(listen, opts); });
  const std::string bound = bound_future.get();

  const int fd = connect_to(bound);
  send_text(fd, std::string(200 * 1024, 'x'));  // no newline, ever
  const std::string replies = recv_all(fd);
  ::close(fd);
  server.join();

  EXPECT_EQ(summary.jobs, 1);
  EXPECT_EQ(summary.rejected, 1);
  EXPECT_EQ(summary.connections_failed, 1);
  EXPECT_NE(replies.find("E-RES-001"), std::string::npos) << replies;
  EXPECT_NE(replies.find("\"status\": \"rejected\""), std::string::npos)
      << replies;
}

TEST(ServeSocketTest, RefusesToReplaceANonSocketFileAtTheUnixPath) {
  // A stale *socket* at the path is replaced (see UnixDomainSocketServes);
  // anything else there is somebody's file and must survive a bind typo.
  const std::string path = ::testing::TempDir() + "feio_serve_notasock";
  {
    std::ofstream out(path);
    out << "precious\n";
  }
  serve::ListenOptions listen;
  listen.address = "unix:" + path;
  listen.max_connections = 1;
  EXPECT_THROW(serve::serve_listen(listen, serve::ServeOptions{}), Error);
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << "the file was deleted";
  EXPECT_TRUE(S_ISREG(st.st_mode));
  ::unlink(path.c_str());
}

// Threads this process is running, from /proc/self/status; -1 where that
// file is not available.
int process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

TEST(ServeSocketTest, PoolIsCappedAtTheQueueCapacity) {
  // At most queue_capacity jobs are ever admitted and unfinished, so a
  // session starts no more workers than that: asking for 64 with a queue
  // of 2 starts 2. (One thread per requested worker let a huge --threads
  // abort the process when the OS refused one.)
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  serve::ServeOptions opts;
  opts.threads = 64;
  opts.queue_capacity = 2;
  serve::ListenOptions listen;
  listen.address = "127.0.0.1:0";
  listen.max_connections = 1;
  std::promise<std::string> bound_promise;
  std::future<std::string> bound_future = bound_promise.get_future();
  listen.on_bound = [&bound_promise](const std::string& bound) {
    bound_promise.set_value(bound);
  };
  serve::ServeSummary summary;
  std::thread server([&] { summary = serve::serve_listen(listen, opts); });
  const int fd = connect_to(bound_future.get());
  send_text(fd, idlz_job("a") + "\n");
  // The first reply means the session is up: its pool started and the
  // connection's reader is running.
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply += c;
  const int during = process_threads();
  ::shutdown(fd, SHUT_WR);
  recv_all(fd);
  ::close(fd);
  server.join();
  EXPECT_NE(reply.find("\"id\": \"a\""), std::string::npos) << reply;
  EXPECT_EQ(summary.ok, 1);
  // The server thread, the connection's reader and two workers.
  EXPECT_LE(during - before, 4)
      << before << " threads before the session, " << during << " during";
}

TEST(ServeSocketTest, BadAddressesThrowBeforeServing) {
  serve::ServeOptions opts;
  for (const char* addr :
       {"no-port-here", "127.0.0.1:notanumber", "127.0.0.1:99999",
        "999.0.0.1:80", "unix:"}) {
    serve::ListenOptions listen;
    listen.address = addr;
    listen.max_connections = 1;
    EXPECT_THROW(serve::serve_listen(listen, opts), Error) << addr;
  }
}

}  // namespace

#else  // _WIN32

TEST(ServeSocketTest, SkippedOnWindows) { GTEST_SKIP(); }

#endif
