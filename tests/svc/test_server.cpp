/// \file test_server.cpp
/// Concurrency and fault-injection suite for the epoll EventLoopServer.
/// Every test runs a real server on a real Unix socket in-process, with
/// real client sockets misbehaving in controlled ways: interleaved
/// multi-client traffic, byte-at-a-time writes, mid-line disconnects,
/// half-close with a buffered tail, slow-loris stalls, backpressure, and
/// graceful drain with requests in flight.  All of it must also be
/// TSan-clean (the CI tsan job runs this binary).

#include "rlc/svc/server.hpp"

#include <gtest/gtest.h>

#if defined(__linux__)

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "rlc/io/json_reader.hpp"

namespace rlc::svc {
namespace {

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/rlc_test_server_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Runs an EventLoopServer on its own thread for the duration of a test.
class ServerHarness {
 public:
  explicit ServerHarness(ServerOptions opts) : path_(unique_socket_path()) {
    server_ = std::make_unique<EventLoopServer>(opts);
    const rlc::Status st = server_->listen_unix(path_);
    if (!st.is_ok()) {
      ADD_FAILURE() << "listen_unix: " << st.to_string();
      return;
    }
    // The socket accepts connections as soon as listen_unix returns (the
    // backlog queues them until the loop starts accepting).
    thread_ = std::thread([this] { serve_status_ = server_->serve(); });
  }

  ~ServerHarness() {
    // Teardown only drains; a test that cares about serve()'s status checks
    // the value its own stop() call returns.
    static_cast<void>(stop());
    ::unlink(path_.c_str());
  }

  /// Drain and join; returns the serve() status.
  rlc::Status stop() {
    if (thread_.joinable()) {
      server_->request_drain();
      thread_.join();
    }
    return serve_status_;
  }

  const std::string& path() const { return path_; }
  EventLoopServer& server() { return *server_; }

 private:
  std::string path_;
  std::unique_ptr<EventLoopServer> server_;
  std::thread thread_;
  rlc::Status serve_status_ = rlc::Status::ok();
};

/// A blocking client socket with line-oriented reads and a receive timeout
/// (so a server bug shows up as a test failure, not a CI hang).
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  ~TestClient() { close(); }

  bool ok() const { return fd_ >= 0; }

  bool send_all(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line, or empty on EOF/timeout.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = pending_.find('\n');
      if (nl != std::string::npos) {
        std::string line = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        return line;
      }
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      pending_.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// Read until EOF; returns all complete lines seen (including ones
  /// already buffered).
  std::vector<std::string> read_all_lines() {
    std::vector<std::string> lines;
    for (;;) {
      std::string line = read_line();
      if (line.empty()) break;
      lines.push_back(std::move(line));
    }
    return lines;
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

/// The echoed numeric id of a response line, or -1.
long long response_id(const std::string& line) {
  try {
    const io::JsonValue v = io::parse_json(line);
    if (const io::JsonValue* id = v.find("id");
        id && id->kind() == io::JsonValue::Kind::kNumber) {
      return static_cast<long long>(id->as_number());
    }
  } catch (const std::exception&) {
  }
  return -1;
}

std::string response_status(const std::string& line) {
  try {
    return io::parse_json(line).string_or("status", "");
  } catch (const std::exception&) {
    return "";
  }
}

std::string ping(long long id) {
  return "{\"op\":\"ping\",\"id\":" + std::to_string(id) + "}\n";
}

std::string query(long long id, double l, const char* tech = "100nm") {
  return "{\"op\":\"query\",\"id\":" + std::to_string(id) +
         ",\"technology\":\"" + tech + "\",\"l\":" + std::to_string(l) +
         "}\n";
}

ServerOptions small_server(std::size_t shards = 2) {
  ServerOptions opts;
  opts.shards = shards;
  opts.threads_per_shard = 1;
  opts.cache_capacity = 256;
  return opts;
}

// ---------------------------------------------------------------------------
// Multi-client ordering and isolation

TEST(EventLoopServer, ConcurrentClientsSeeTheirOwnResponsesInOrder) {
  // N clients interleave pings and queries concurrently.  Each client must
  // get exactly its own responses (ids are namespaced per client), in its
  // own request order, regardless of how the loop interleaves the reads
  // and which shard answers.
  ServerHarness h(small_server());
  constexpr int kClients = 8;
  constexpr int kPerClient = 24;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient cl(h.path());
      if (!cl.ok()) {
        ++failures;
        return;
      }
      for (int k = 0; k < kPerClient; ++k) {
        const long long id = c * 1000 + k;
        // Mix cheap inline ops with dispatched queries, and repeat keys so
        // shard caches are exercised across clients.
        const std::string req =
            (k % 3 == 0) ? ping(id) : query(id, 1.0e-6 * (k % 5));
        if (!cl.send_all(req)) {
          ++failures;
          return;
        }
      }
      for (int k = 0; k < kPerClient; ++k) {
        const std::string line = cl.read_line();
        if (line.empty() || response_id(line) != c * 1000 + k ||
            response_status(line) != "ok") {
          ADD_FAILURE() << "client " << c << " response " << k << ": "
                        << line;
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(h.stop().is_ok());
  const EventLoopServer::Stats stats = h.server().stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.responses,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.connections_accepted,
            static_cast<std::uint64_t>(kClients));
}

TEST(EventLoopServer, SameKeyFromDifferentClientsWarmsOneShardCache) {
  // Shard-routing determinism observed through the socket: the same query
  // key, sent by different connections, must land on the same shard and
  // hit its cache; the home shard is the one shard_of computes.
  ServerHarness h(small_server(4));
  QueryRequest probe;
  probe.technology = "250nm";
  probe.l = 2.0e-6;
  const std::size_t home = h.server().router().shard_of(probe);
  const std::string req = "{\"op\":\"query\",\"id\":1,\"technology\":"
                          "\"250nm\",\"l\":2e-06}\n";
  for (int c = 0; c < 3; ++c) {
    TestClient cl(h.path());
    ASSERT_TRUE(cl.ok());
    ASSERT_TRUE(cl.send_all(req));
    const std::string line = cl.read_line();
    EXPECT_EQ(response_status(line), "ok") << line;
  }
  EXPECT_TRUE(h.stop().is_ok());
  for (std::size_t s = 0; s < h.server().router().shards(); ++s) {
    const auto stats = h.server().router().shard(s).cache_stats();
    if (s == home) {
      EXPECT_EQ(stats.misses, 1u);
      EXPECT_EQ(stats.hits, 2u);
    } else {
      EXPECT_EQ(stats.hits + stats.misses, 0u) << "shard " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Framing under adversarial transport behaviour

TEST(EventLoopServer, ByteAtATimeWritesAreFramedCorrectly) {
  ServerHarness h(small_server());
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  const std::string req = ping(7) + query(8, 2.0e-6);
  for (char ch : req) {
    ASSERT_TRUE(cl.send_all(std::string(1, ch)));
    // A short stall between bytes forces the loop through distinct reads.
    if (ch == ':' || ch == ',') {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const std::string first = cl.read_line();
  EXPECT_EQ(response_id(first), 7) << first;
  EXPECT_EQ(response_status(first), "ok");
  const std::string second = cl.read_line();
  EXPECT_EQ(response_id(second), 8) << second;
  EXPECT_EQ(response_status(second), "ok");
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, MidLineDisconnectDoesNotDisturbOtherClients) {
  ServerHarness h(small_server());
  {
    TestClient vandal(h.path());
    ASSERT_TRUE(vandal.ok());
    ASSERT_TRUE(vandal.send_all("{\"op\":\"query\",\"technolo"));
    vandal.close();  // full close mid-line: the request never completes
  }
  // The server must shrug: a fresh client gets served normally.
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  ASSERT_TRUE(cl.send_all(ping(1)));
  const std::string line = cl.read_line();
  EXPECT_EQ(response_id(line), 1) << line;
  EXPECT_EQ(response_status(line), "ok");
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, HalfCloseServesTheBufferedTailThenEof) {
  // The client shoves several requests down, the last one UNTERMINATED,
  // then half-closes.  getline semantics: the tail is still a request.
  // Every response must come back, then EOF.
  ServerHarness h(small_server());
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  std::string burst = ping(0) + query(1, 1.0e-6) + query(2, 2.0e-6);
  burst += "{\"op\":\"ping\",\"id\":3}";  // no trailing newline
  ASSERT_TRUE(cl.send_all(burst));
  cl.half_close();
  const std::vector<std::string> lines = cl.read_all_lines();
  ASSERT_EQ(lines.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(response_id(lines[k]), k) << lines[k];
    EXPECT_EQ(response_status(lines[k]), "ok") << lines[k];
  }
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, MalformedLinesGetTypedErrorsInSequence) {
  ServerHarness h(small_server());
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  ASSERT_TRUE(cl.send_all("this is not json\n" + ping(1) +
                          "{\"op\":\"warp_drive\",\"id\":2}\n"));
  const std::string e1 = cl.read_line();
  EXPECT_EQ(response_status(e1), "invalid_argument") << e1;
  const std::string p = cl.read_line();
  EXPECT_EQ(response_id(p), 1) << p;
  EXPECT_EQ(response_status(p), "ok");
  const std::string e2 = cl.read_line();
  EXPECT_EQ(response_id(e2), 2) << e2;
  EXPECT_EQ(response_status(e2), "invalid_argument");
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, OversizedLineIsRejectedAndConnectionClosed) {
  ServerOptions opts = small_server();
  opts.max_line_bytes = 1024;
  ServerHarness h(opts);
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  ASSERT_TRUE(cl.send_all(std::string(4096, 'a')));  // no newline, > max
  const std::string line = cl.read_line();
  EXPECT_EQ(response_status(line), "invalid_argument") << line;
  EXPECT_EQ(cl.read_line(), "");  // server closed the connection
  EXPECT_TRUE(h.stop().is_ok());
  EXPECT_GE(h.server().stats().oversized_lines, 1u);
}

// ---------------------------------------------------------------------------
// Slow clients, backpressure, drain

TEST(EventLoopServer, SlowLorisDoesNotBlockOtherClients) {
  // One client dribbles a never-finished request and goes quiet; others
  // must be served promptly the whole time.
  ServerHarness h(small_server());
  TestClient loris(h.path());
  ASSERT_TRUE(loris.ok());
  ASSERT_TRUE(loris.send_all("{\"op\":\"que"));  // ...and stall forever
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < 5; ++k) {
    TestClient cl(h.path());
    ASSERT_TRUE(cl.ok());
    ASSERT_TRUE(cl.send_all(ping(k)));
    const std::string line = cl.read_line();
    EXPECT_EQ(response_id(line), k) << line;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(seconds, 10.0) << "other clients were starved";
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, BackpressurePausesReadsAndEveryResponseStillArrives) {
  // Tiny watermarks + a client that sends a storm before reading anything:
  // the server must stop reading the flooding connection (bounded memory)
  // and still deliver every response once the client starts draining.
  ServerOptions opts = small_server(1);
  opts.write_high_watermark = 2048;
  opts.write_low_watermark = 512;
  ServerHarness h(opts);
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  // ~100 KB of requests producing ~350 KB of responses: more than the
  // kernel socket buffers hold, so with the client not yet reading, the
  // server's write buffer must cross the (tiny) high watermark and pause.
  // The whole burst fits in the kernel receive buffer plus whatever the
  // server consumed before pausing, so this send never blocks.
  constexpr int kPings = 4000;
  std::string storm;
  for (int k = 0; k < kPings; ++k) storm += ping(k);
  ASSERT_TRUE(cl.send_all(storm));
  // Now drain: every response, in order, despite the pause/resume cycles.
  int got = 0;
  for (; got < kPings; ++got) {
    const std::string line = cl.read_line();
    if (line.empty() || response_id(line) != got) {
      ADD_FAILURE() << "response " << got << ": " << line;
      break;
    }
  }
  EXPECT_EQ(got, kPings);
  EXPECT_TRUE(h.stop().is_ok());
  EXPECT_GE(h.server().stats().reads_paused, 1u);
}

TEST(EventLoopServer, DrainCompletesInFlightRequestsBeforeExit) {
  // Kick off slow (exact-engine) queries, then request a drain while they
  // are in flight.  Every response must still arrive, then EOF; serve()
  // must return OK.
  ServerHarness h(small_server());
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  constexpr int kQueries = 6;
  std::string burst;
  for (int k = 0; k < kQueries; ++k) {
    burst += "{\"op\":\"query\",\"id\":" + std::to_string(k) +
             ",\"l\":" + std::to_string(1.0e-6 * (k + 1)) +
             ",\"with_exact_delay\":true}\n";
  }
  ASSERT_TRUE(cl.send_all(burst));
  // Let the loop parse and dispatch, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  h.server().request_drain();
  std::vector<std::string> lines;
  for (int k = 0; k < kQueries; ++k) {
    std::string line = cl.read_line();
    if (line.empty()) break;
    lines.push_back(std::move(line));
  }
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kQueries));
  for (int k = 0; k < kQueries; ++k) {
    EXPECT_EQ(response_id(lines[k]), k) << lines[k];
    EXPECT_EQ(response_status(lines[k]), "ok") << lines[k];
  }
  EXPECT_EQ(cl.read_line(), "");  // drained server closes after flushing
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, PingReportsAggregateShardThreads) {
  ServerOptions opts;
  opts.shards = 3;
  opts.threads_per_shard = 1;
  ServerHarness h(opts);
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  ASSERT_TRUE(cl.send_all(ping(1)));
  const std::string line = cl.read_line();
  ASSERT_EQ(response_status(line), "ok") << line;
  const io::JsonValue v = io::parse_json(line);
  const io::JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(static_cast<int>(result->find("threads")->as_number()), 3);
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, ServeWithoutListenIsATypedError) {
  EventLoopServer server(small_server());
  EXPECT_EQ(server.serve().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Live telemetry: admin ops, byte counters, scrape-under-load

TEST(EventLoopServer, AdminOpsAnswerInlineAndInSequence) {
  // metrics/stats/trace are answered on the loop thread (like ping), but
  // they still sequence with other requests on the same connection.  The
  // query goes first in its own burst: admin bodies are rendered at read
  // time, so the scrape must not race the query it wants to observe.
  ServerHarness h(small_server());
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  std::vector<std::string> lines;
  ASSERT_TRUE(cl.send_all(
      "{\"op\":\"trace\",\"action\":\"start\",\"id\":0}\n" + query(1, 2.0e-6)));
  for (int k = 0; k < 2; ++k) {
    lines.push_back(cl.read_line());
    ASSERT_EQ(response_id(lines.back()), k) << lines.back();
    ASSERT_EQ(response_status(lines.back()), "ok") << lines.back();
  }
  ASSERT_TRUE(cl.send_all(
      "{\"op\":\"metrics\",\"id\":2}\n"
      "{\"op\":\"stats\",\"id\":3}\n"
      "{\"op\":\"trace\",\"action\":\"dump\",\"id\":4}\n"
      "{\"op\":\"trace\",\"action\":\"stop\",\"id\":5}\n"));
  for (int k = 2; k < 6; ++k) {
    lines.push_back(cl.read_line());
    ASSERT_EQ(response_id(lines.back()), k) << lines.back();
    ASSERT_EQ(response_status(lines.back()), "ok") << lines.back();
  }

  // The Prometheus exposition carries TYPE comments and the svc series
  // the query above just recorded.
  const io::JsonValue metrics = io::parse_json(lines[2]);
  const io::JsonValue* mr = metrics.find("result");
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->string_or("content_type", ""), "text/plain; version=0.0.4");
  const std::string body = mr->string_or("body", "");
  EXPECT_NE(body.find("# TYPE "), std::string::npos);
  EXPECT_NE(body.find("svc_requests"), std::string::npos) << body;

  // Stats reports the live server block, one entry per shard, and the
  // tracer state the trace ops just toggled.
  const io::JsonValue stats = io::parse_json(lines[3]);
  const io::JsonValue* sr = stats.find("result");
  ASSERT_NE(sr, nullptr);
  const io::JsonValue* server = sr->find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->int_or("requests", -1), 2);
  EXPECT_GE(server->int_or("bytes_in", -1), 1);
  EXPECT_EQ(server->int_or("connections_open", -1), 1);
  const io::JsonValue* shards = sr->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items().size(), 2u);
  EXPECT_NE(shards->items()[0].find("cache"), nullptr);
  const io::JsonValue* trace = sr->find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->bool_or("enabled", false));
  EXPECT_GE(trace->int_or("ring_capacity", 0), 1);

  // The dump carries a rollup with the spans the traced query produced.
  const io::JsonValue dump = io::parse_json(lines[4]);
  ASSERT_NE(dump.find("result"), nullptr);
  EXPECT_NE(dump.find("result")->find("rollup"), nullptr);
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, BadAdminArgumentsAreTypedErrors) {
  ServerHarness h(small_server());
  TestClient cl(h.path());
  ASSERT_TRUE(cl.ok());
  ASSERT_TRUE(cl.send_all(
      "{\"op\":\"metrics\",\"format\":\"xml\",\"id\":1}\n"
      "{\"op\":\"trace\",\"id\":2}\n"
      "{\"op\":\"trace\",\"action\":\"flush\",\"id\":3}\n"));
  for (int k = 1; k <= 3; ++k) {
    const std::string line = cl.read_line();
    EXPECT_EQ(response_id(line), k) << line;
    EXPECT_EQ(response_status(line), "invalid_argument") << line;
  }
  EXPECT_TRUE(h.stop().is_ok());
}

TEST(EventLoopServer, ByteCountersAreMonotonicAndOpenIsAGauge) {
  ServerHarness h(small_server());
  const EventLoopServer::Stats s0 = h.server().stats();
  EXPECT_EQ(s0.bytes_in, 0u);
  EXPECT_EQ(s0.bytes_out, 0u);
  EXPECT_EQ(s0.connections_open, 0u);

  EventLoopServer::Stats prev = s0;
  {
    TestClient cl(h.path());
    ASSERT_TRUE(cl.ok());
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(cl.send_all(ping(k)));
      ASSERT_EQ(response_id(cl.read_line()), k);
      // Monotone under load: each request/response strictly grows both
      // byte counters; the open gauge reads 1 while connected.  bytes_out
      // is bumped on the loop thread after the kernel send, so it can
      // trail the client's read by a scheduling quantum — poll briefly.
      EventLoopServer::Stats s = h.server().stats();
      for (int spin = 0; spin < 2000 && s.bytes_out <= prev.bytes_out;
           ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        s = h.server().stats();
      }
      EXPECT_GT(s.bytes_in, prev.bytes_in);
      EXPECT_GT(s.bytes_out, prev.bytes_out);
      EXPECT_GE(s.requests, prev.requests);
      EXPECT_GE(s.responses, prev.responses);
      EXPECT_EQ(s.connections_open, 1u);
      prev = s;
    }
  }
  EXPECT_TRUE(h.stop().is_ok());
  const EventLoopServer::Stats end = h.server().stats();
  EXPECT_GE(end.bytes_in, prev.bytes_in);
  EXPECT_GE(end.bytes_out, prev.bytes_out);
  EXPECT_EQ(end.connections_open, 0u);  // gauge returns to zero
  EXPECT_EQ(end.connections_accepted, end.connections_closed);
  // Responses are JSON envelopes, so out strictly exceeds the ping bytes in.
  EXPECT_GT(end.bytes_out, 0u);
}

TEST(EventLoopServer, ScrapeUnderLoadIsRaceFreeAndAlwaysAnswers) {
  // One client hammers queries while another scrapes metrics/stats in a
  // tight loop — the admin plane must answer every scrape with a valid
  // envelope and never wedge the serving plane.  TSan runs this binary.
  ServerHarness h(small_server());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread load([&] {
    TestClient cl(h.path());
    if (!cl.ok()) {
      ++failures;
      return;
    }
    for (int k = 0; k < 200 && !stop.load(std::memory_order_relaxed); ++k) {
      if (!cl.send_all(query(k, 1.0e-6 * (k % 7)))) {
        ++failures;
        return;
      }
      if (response_status(cl.read_line()) != "ok") {
        ++failures;
        return;
      }
    }
  });
  TestClient scraper(h.path());
  ASSERT_TRUE(scraper.ok());
  int scrapes = 0;
  for (int k = 0; k < 100; ++k) {
    const bool metrics = (k % 2 == 0);
    const std::string op = metrics
        ? "{\"op\":\"metrics\",\"id\":" + std::to_string(k) + "}\n"
        : "{\"op\":\"stats\",\"id\":" + std::to_string(k) + "}\n";
    ASSERT_TRUE(scraper.send_all(op));
    const std::string line = scraper.read_line();
    ASSERT_EQ(response_id(line), k) << line;
    ASSERT_EQ(response_status(line), "ok") << line;
    ++scrapes;
  }
  stop.store(true);
  load.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(scrapes, 100);
  EXPECT_TRUE(h.stop().is_ok());
}

}  // namespace
}  // namespace rlc::svc

#endif  // __linux__
