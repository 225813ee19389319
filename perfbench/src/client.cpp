/// pb_client — one-process load generator for `rlc_serve --socket`.
///
///   pb_client --socket PATH --mode closed|open|saturate --in FILE
///             [--conns N] [--seconds S] [--rate QPS] [--window W]
///             [--seed N] [--expect FILE] [--out FILE] [--responses FILE]
///
/// Input lines are "<class>\t<request json>".  One thread per connection,
/// so the process never runs more threads than it opens connections.
///
///   closed    each connection keeps up to --window requests in flight and
///             sends its next request (file order, shared cursor) when an
///             answer arrives;
///   open      Poisson arrivals at --rate requests/s in total, split evenly
///             over the connections, keys drawn uniformly from the file.
///             Latency runs from the request's DUE time (no coordinated
///             omission); the generator's lateness (send - due) is recorded
///             for every request;
///   saturate  each connection keeps --window requests in flight.
///
/// --expect FILE holds, per input line, the expected answer normalized as
/// in normalize() below; each response is compared against it.  --out gets
/// one TSV record per completed request:
///   index class status latency_us lateness_us queue_us cache_us solve_us
///   match t_done_s
/// (match: 1 equal, 0 different, -1 nothing to compare).  --responses gets
/// "index\traw response line" per completed request.  The last line on
/// stdout is a JSON summary.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

struct Args {
  std::string socket_path, mode, in_path, expect_path, out_path, resp_path;
  int conns = 1;
  double seconds = 1.0;
  double rate = 1000.0;
  int window = 8;
  std::uint64_t seed = 1;
};

struct Request {
  std::string cls;
  std::string line;  // with trailing '\n'
};

struct Record {
  std::size_t index = 0;
  std::string status;
  double latency_us = 0.0;
  double lateness_us = 0.0;
  double queue_us = -1.0, cache_us = -1.0, solve_us = -1.0;
  int match = -1;
  double t_done_s = 0.0;
  std::string response;
};

struct Pending {
  std::size_t index;
  std::int64_t due_ns;
  std::int64_t sent_ns;
};

/// Drop the delivery metadata (from_cache, wall_seconds and any trace
/// block) that closes the result object, keeping the answer itself.
std::string normalize(const std::string& line) {
  const std::size_t key = line.find("\"from_cache\"");
  if (key == std::string::npos) return line;
  const std::size_t pos = line.rfind(',', key);
  const std::size_t close = line.find('}', key);
  if (pos == std::string::npos || close == std::string::npos) return line;
  return line.substr(0, pos) + line.substr(close);
}

/// Offset of the value of "key" (after the colon and any blanks), or npos.
std::size_t value_at(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\"";
  std::size_t p = line.find(k);
  if (p == std::string::npos) return p;
  p += k.size();
  while (p < line.size() && (line[p] == ' ' || line[p] == ':')) ++p;
  return p;
}

std::string field_string(const std::string& line, const char* key) {
  const std::size_t p = value_at(line, key);
  if (p == std::string::npos || p >= line.size() || line[p] != '"') return "";
  const std::size_t e = line.find('"', p + 1);
  return e == std::string::npos ? "" : line.substr(p + 1, e - p - 1);
}

double field_number(const std::string& line, const char* key) {
  const std::size_t p = value_at(line, key);
  if (p == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + p, nullptr);
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class Worker {
 public:
  Worker(const Args& a, const std::vector<Request>& reqs,
         const std::vector<std::string>& expect, int tid)
      : args_(a), reqs_(reqs), expect_(expect), tid_(tid) {}

  std::vector<Record> records;
  std::uint64_t transport_errors = 0;
  std::uint64_t sent = 0;

  /// Connect before the clock starts, so set-up is not counted as
  /// generator lateness.
  void connect() {
    fd_ = connect_unix(args_.socket_path);
    if (fd_ < 0) ++transport_errors;
  }

  void run(std::atomic<std::size_t>& cursor, std::int64_t t0) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    t0_ = t0;
    if (fd_ < 0) return;
    if (args_.mode == "closed") {
      run_closed(cursor);
    } else {
      ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
      run_async();
    }
    transport_errors += pending_.size();
    ::close(fd_);
  }

 private:
  const Args& args_;
  const std::vector<Request>& reqs_;
  const std::vector<std::string>& expect_;
  int tid_;
  std::int64_t t0_ = 0;
  int fd_ = -1;
  std::string inbuf_, outbuf_;
  std::deque<Pending> pending_;

  std::int64_t end_ns() const {
    return t0_ + static_cast<std::int64_t>(args_.seconds * 1e9);
  }

  void complete(const std::string& line, std::int64_t t) {
    const Pending p = pending_.front();
    pending_.pop_front();
    Record r;
    r.index = p.index;
    r.status = field_string(line, "status");
    if (r.status.empty()) r.status = "malformed";
    r.latency_us = (t - p.due_ns) * 1e-3;
    r.lateness_us = (p.sent_ns - p.due_ns) * 1e-3;
    r.queue_us = field_number(line, "queue_us");
    r.cache_us = field_number(line, "cache_us");
    r.solve_us = field_number(line, "solve_us");
    if (!expect_.empty() && !expect_[p.index].empty()) {
      r.match = normalize(line) == expect_[p.index] ? 1 : 0;
    }
    r.t_done_s = (t - t0_) * 1e-9;
    if (!args_.resp_path.empty()) r.response = line;
    records.push_back(std::move(r));
  }

  /// Consume every complete line in inbuf_; false on a framing error.
  bool drain_lines(std::int64_t t) {
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = inbuf_.find('\n', start);
      if (nl == std::string::npos) break;
      if (pending_.empty()) return false;  // an answer nobody asked for
      complete(inbuf_.substr(start, nl - start), t);
      start = nl + 1;
    }
    inbuf_.erase(0, start);
    return true;
  }

  void enqueue(std::size_t index, std::int64_t due, std::int64_t t) {
    outbuf_ += reqs_[index].line;
    pending_.push_back({index, due, t});
    ++sent;
  }

  bool flush_some() {
    while (!outbuf_.empty()) {
      const ssize_t n =
          ::send(fd_, outbuf_.data(), outbuf_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        outbuf_.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  /// Read what is available; false on EOF or error.
  bool read_some() {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        inbuf_.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) return true;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  /// Up to --window requests in flight; each answer frees a slot for the
  /// next request in file order.  Nothing is sent after --seconds, and the
  /// requests still in flight then are waited for.
  void run_closed(std::atomic<std::size_t>& cursor) {
    bool inputs_left = true;
    for (;;) {
      const std::int64_t t = now_ns();
      while (inputs_left && t < end_ns() &&
             pending_.size() < static_cast<std::size_t>(args_.window)) {
        const std::size_t i = cursor.fetch_add(1);
        inputs_left = i < reqs_.size();
        if (inputs_left) enqueue(i, t, t);
      }
      if (pending_.empty()) break;
      if (!flush_some()) return;
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      inbuf_.append(buf, static_cast<std::size_t>(n));
      if (!drain_lines(now_ns())) return;
    }
  }

  void run_async() {
    const bool open = args_.mode == "open";
    std::mt19937_64 rng(args_.seed * 1000003ULL + static_cast<unsigned>(tid_));
    std::uniform_int_distribution<std::size_t> pick(0, reqs_.size() - 1);
    std::exponential_distribution<double> gap(args_.rate / args_.conns);
    const std::int64_t end = end_ns();
    // Requests still unanswered this long after the end are transport
    // errors (the server stalled); the run must still terminate.
    const std::int64_t give_up = end + 20'000'000'000LL;
    std::int64_t next_due = t0_;
    if (open) {
      next_due += static_cast<std::int64_t>(gap(rng) * 1e9);
    } else {
      const std::int64_t t = now_ns();
      for (int w = 0; w < args_.window; ++w) enqueue(pick(rng), t, t);
    }
    for (;;) {
      std::int64_t t = now_ns();
      if (t >= give_up) return;
      if (open) {
        while (next_due <= t && next_due < end) {
          enqueue(pick(rng), next_due, t);
          next_due += static_cast<std::int64_t>(gap(rng) * 1e9);
        }
      }
      if (!flush_some()) return;
      if (!read_some()) return;
      const std::size_t before = pending_.size();
      if (!drain_lines(now_ns())) return;
      if (!open) {
        t = now_ns();
        for (std::size_t d = pending_.size(); d < before && t < end; ++d) {
          enqueue(pick(rng), t, t);
        }
        if (!flush_some()) return;
      }
      t = now_ns();
      const bool sending_done = open ? next_due >= end : t >= end;
      if (sending_done && pending_.empty()) return;

      // Waking a sleeping thread on a busy virtual machine can take
      // milliseconds, which would make the generator, not the server, the
      // late party: the open loop polls without sleeping until it is done
      // sending, at the cost of one busy core.
      const std::int64_t wait_ns = open && next_due < end ? 0 : give_up - t;
      pollfd pfd{fd_, static_cast<short>(POLLIN | (outbuf_.empty() ? 0 : POLLOUT)),
                 0};
      timespec ts{static_cast<time_t>(wait_ns / 1000000000LL),
                  static_cast<long>(wait_ns % 1000000000LL)};
      ::ppoll(&pfd, 1, &ts, nullptr);
    }
  }
};

bool read_lines(const std::string& path, std::vector<std::string>* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::string line;
  while (std::getline(f, line)) out->push_back(line);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: pb_client --socket PATH --mode closed|open|saturate "
               "--in FILE [--conns N] [--seconds S] [--rate QPS] "
               "[--window W] [--seed N] [--expect FILE] [--out FILE] "
               "[--responses FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (k == "--socket") a.socket_path = v;
    else if (k == "--mode") a.mode = v;
    else if (k == "--in") a.in_path = v;
    else if (k == "--expect") a.expect_path = v;
    else if (k == "--out") a.out_path = v;
    else if (k == "--responses") a.resp_path = v;
    else if (k == "--conns") a.conns = std::atoi(v);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--rate") a.rate = std::atof(v);
    else if (k == "--window") a.window = std::atoi(v);
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else return usage();
  }
  if (a.socket_path.empty() || a.in_path.empty() || a.conns < 1 ||
      a.window < 1 || !(a.seconds > 0.0) || !(a.rate > 0.0) ||
      (a.mode != "closed" && a.mode != "open" && a.mode != "saturate")) {
    return usage();
  }

  std::vector<std::string> lines;
  if (!read_lines(a.in_path, &lines) || lines.empty()) {
    std::fprintf(stderr, "pb_client: cannot read requests from %s\n",
                 a.in_path.c_str());
    return 2;
  }
  std::vector<Request> reqs;
  for (const std::string& l : lines) {
    const std::size_t tab = l.find('\t');
    if (tab == std::string::npos) return usage();
    reqs.push_back({l.substr(0, tab), l.substr(tab + 1) + "\n"});
  }
  std::vector<std::string> expect;
  if (!a.expect_path.empty()) {
    if (!read_lines(a.expect_path, &expect) || expect.size() != reqs.size()) {
      std::fprintf(stderr, "pb_client: --expect must have one line per "
                           "request\n");
      return 2;
    }
  }

  std::atomic<std::size_t> cursor{0};
  std::vector<Worker> workers;
  workers.reserve(a.conns);
  for (int c = 0; c < a.conns; ++c) workers.emplace_back(a, reqs, expect, c);
  for (Worker& w : workers) w.connect();
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (Worker& w : workers) {
    threads.emplace_back([&w, &cursor, t0] { w.run(cursor, t0); });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = (now_ns() - t0) * 1e-9;

  std::uint64_t completed = 0, errors = 0, sent = 0;
  for (const Worker& w : workers) {
    completed += w.records.size();
    errors += w.transport_errors;
    sent += w.sent;
  }

  if (!a.out_path.empty()) {
    std::FILE* f = std::fopen(a.out_path.c_str(), "w");
    if (!f) return 2;
    for (const Worker& w : workers) {
      for (const Record& r : w.records) {
        std::fprintf(f, "%zu\t%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%d\t%.6f\n",
                     r.index, reqs[r.index].cls.c_str(), r.status.c_str(),
                     r.latency_us, r.lateness_us, r.queue_us, r.cache_us,
                     r.solve_us, r.match, r.t_done_s);
      }
    }
    std::fclose(f);
  }
  if (!a.resp_path.empty()) {
    std::FILE* f = std::fopen(a.resp_path.c_str(), "w");
    if (!f) return 2;
    for (const Worker& w : workers) {
      for (const Record& r : w.records) {
        std::fprintf(f, "%zu\t%s\n", r.index, r.response.c_str());
      }
    }
    std::fclose(f);
  }
  std::printf("{\"mode\":\"%s\",\"conns\":%d,\"sent\":%llu,\"completed\":%llu,"
              "\"transport_errors\":%llu,\"elapsed_s\":%.6f}\n",
              a.mode.c_str(), a.conns, static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(errors), elapsed);
  return 0;
}
