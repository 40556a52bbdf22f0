// Load process: a closed loop of HttpsClients over TCP loopback.
// Threads block in poll() on their clients' sockets and never spin; every
// response body is byte-compared with its object, and on resumed_handshake
// every ticket offer must resume.
//
// Protocol on stdio: "PROBE <port>" runs one cold connection (the set-up
// probe) and answers "PROBED ok|fail"; "RUN <port> <server pid>" warms up,
// prints "MARK" at the start and at the end of the window, lets every
// in-flight unit finish, writes --out and answers "DONE ok|fail".
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/https_client.h"
#include "engine/provider.h"
#include "bench.h"
#include "procfs.h"

namespace qbench {

namespace {

using namespace qtls;

// No socket readiness for this long while units are in flight is a hang.
constexpr int kStallMs = 5000;
// Period of the host-steal and server-CPU samples; run.py cuts the window
// into slices of whole periods and ranks them by steal.
constexpr int kHostSampleMs = 250;

// A blocking connect completes on loopback before the socket is handed to
// the client (SocketTransport makes it non-blocking), so the first step can
// write its ClientHello instead of waiting for connect readiness.
int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// One completed unit: a connection (handshake workloads) or a response on a
// keepalive connection (bulk_download). The unit's latency runs start ->
// done; connect_ns and hs_ns are 0 when the unit did no handshake.
struct Unit {
  uint64_t start_ns = 0;
  uint64_t hs_ns = 0;
  uint64_t done_ns = 0;
  uint64_t conn = 0;
  bool offered = false;
  bool resumed = false;
  uint64_t connect_ns = 0;
};

// What step() visibly changed. HttpsClient::step() never blocks, so a client
// is stepped until a step changes none of these: it is then waiting for
// bytes from the server.
struct Progress {
  uint64_t connects = 0;
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t bytes = 0;
  uint64_t errors = 0;
  uint64_t offered = 0;
  uint64_t resumed = 0;
  size_t body = 0;
  bool operator==(const Progress&) const = default;
};

struct Slot {
  std::unique_ptr<client::HttpsClient> client;
  int fd = -1;
  uint64_t connects = 0;
  uint64_t conn = 0;
  uint64_t connect_ns = 0;
  uint64_t unit_start = 0;
  uint64_t hs_ns = 0;
  uint64_t offered_seen = 0;
  uint64_t resumed_seen = 0;
  bool offered = false;
  bool resumed = false;
  bool done = false;
};

class LoadThread {
 public:
  LoadThread(const Options& opt, int index, int clients, uint16_t port,
             const Bytes* expected, const std::string& path,
             uint64_t max_requests, const std::atomic<bool>* finishing)
      : opt_(opt),
        index_(index),
        port_(port),
        expected_(expected),
        finishing_(finishing),
        provider_(mix_seed(opt.seed, 100 + static_cast<uint64_t>(index))),
        ctx_(client_config(opt, index), &provider_) {
    for (int i = 0; i < clients; ++i) {
      auto slot = std::make_unique<Slot>();
      Slot* s = slot.get();
      client::ClientOptions copts;
      copts.path = path;
      copts.keepalive = keepalive_for(opt.workload);
      // resumed_handshake: after its first connection every client offers
      // the ticket of its previous connection.
      copts.full_handshake_ratio =
          opt.workload == Workload::kResumedHandshake ? 0.0 : 1.0;
      copts.max_requests = max_requests;
      s->client = std::make_unique<client::HttpsClient>(
          &ctx_,
          [this, s]() -> int {
            s->connect_ns = now_ns();
            s->fd = connect_loopback(port_);
            s->unit_start = s->connect_ns;
            s->conn = (static_cast<uint64_t>(index_) << 32) | next_conn_++;
            ++s->connects;
            return s->fd;
          },
          copts, mix_seed(opt.seed, 200 + static_cast<uint64_t>(i)));
      slots_.push_back(std::move(slot));
    }
  }

  void run() {
    tid_ = static_cast<int>(::syscall(SYS_gettid));
    const std::string name = "qb-load" + std::to_string(index_);
    pthread_setname_np(pthread_self(), name.c_str());
    for (auto& s : slots_) drive(*s);
    std::vector<pollfd> fds;
    std::vector<Slot*> owners;
    while (failures_.empty()) {
      fds.clear();
      owners.clear();
      for (auto& s : slots_) {
        if (s->done) continue;
        fds.push_back({s->fd, POLLIN, 0});
        owners.push_back(s.get());
      }
      if (fds.empty()) break;
      const int n = ::poll(fds.data(), fds.size(), kStallMs);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        failures_.push_back(n == 0 ? "load stalled: no socket readiness for 5 s"
                                   : "poll failed");
        break;
      }
      for (size_t k = 0; k < fds.size(); ++k)
        if (fds[k].revents != 0) drive(*owners[k]);
    }
  }

  int tid() const { return tid_; }
  const std::vector<Unit>& units() const { return units_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  static tls::TlsContextConfig client_config(const Options& opt, int index) {
    tls::TlsContextConfig c;
    c.cipher_suites = {suite_for(opt.workload)};
    c.drbg_seed = mix_seed(opt.seed, 300 + static_cast<uint64_t>(index));
    return c;
  }

  Progress progress(const Slot& s) const {
    const client::ClientStats& st = s.client->stats();
    return {s.connects,   st.connections, st.requests,
            st.bytes_received, st.errors, st.offered,
            st.resumed,  s.client->last_body().size()};
  }

  void drive(Slot& s) {
    for (;;) {
      const Progress before = progress(s);
      s.client->step();
      const Progress after = progress(s);
      if (after.errors != before.errors) {
        failures_.push_back("connect, handshake or HTTP error on connection " +
                            std::to_string(s.conn));
        s.done = true;
        return;
      }
      if (after.connections != before.connections) on_handshake(s, after);
      if (after.requests != before.requests) {
        on_response(s);
        if (s.client->finished() ||
            finishing_->load(std::memory_order_acquire)) {
          s.done = true;
          // Closes a keepalive connection between requests.
          s.client.reset();
          return;
        }
      }
      if (after == before) return;
    }
  }

  void on_handshake(Slot& s, const Progress& p) {
    s.hs_ns = now_ns();
    s.offered = p.offered != s.offered_seen;
    s.resumed = p.resumed != s.resumed_seen;
    s.offered_seen = p.offered;
    s.resumed_seen = p.resumed;
    if (s.offered && !s.resumed)
      failures_.push_back("ticket offered but not resumed on connection " +
                          std::to_string(s.conn));
    if (opt_.workload == Workload::kResumedHandshake && s.connects > 1 &&
        !s.offered)
      failures_.push_back("no ticket offered on connection " +
                          std::to_string(s.conn));
    // A keepalive connection's first request starts at handshake done.
    if (keepalive_for(opt_.workload)) s.unit_start = s.hs_ns;
  }

  void on_response(Slot& s) {
    const uint64_t t = now_ns();
    if (s.client->last_body() != *expected_)
      failures_.push_back("response body differs from its object on connection " +
                          std::to_string(s.conn));
    units_.push_back({s.unit_start, s.hs_ns, t, s.conn, s.offered, s.resumed,
                      s.hs_ns != 0 ? s.connect_ns : 0});
    s.unit_start = t;  // the next keepalive request goes out now
    s.hs_ns = 0;
    s.offered = s.resumed = false;
  }

  const Options& opt_;
  const int index_;
  const uint16_t port_;
  const Bytes* expected_;
  const std::atomic<bool>* finishing_;
  engine::SoftwareProvider provider_;
  tls::TlsContext ctx_;
  std::vector<std::unique_ptr<Slot>> slots_;
  uint64_t next_conn_ = 0;
  int tid_ = 0;
  std::vector<Unit> units_;
  std::vector<std::string> failures_;
};

bool read_object(const std::string& path, Bytes* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

void say(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// One cold connection: full handshake, GET the probe object, verify it.
std::string probe(const Options& opt, uint16_t port, const Bytes& object) {
  std::atomic<bool> finishing{false};
  const char* path = opt.workload == Workload::kBulkDownload ? "/probe.bin"
                                                             : "/index.html";
  Options full = opt;
  if (full.workload == Workload::kResumedHandshake)
    full.workload = Workload::kFullHandshake;
  LoadThread t(full, 0, 1, port, &object, path, 1, &finishing);
  t.run();
  return t.failures().empty() ? "ok" : "fail " + t.failures().front();
}

bool run_window(const Options& opt, uint16_t port, int server_pid,
                const Bytes& object) {
  std::atomic<bool> finishing{false};
  const int nthreads = load_threads_for(opt.workload);
  const char* path =
      opt.workload == Workload::kBulkDownload ? "/bulk.bin" : "/index.html";
  std::vector<std::unique_ptr<LoadThread>> loads;
  for (int i = 0; i < nthreads; ++i)
    loads.push_back(std::make_unique<LoadThread>(
        opt, i, connections_for(opt.workload) / nthreads, port, &object, path,
        opt.requests, &finishing));

  using clock = std::chrono::steady_clock;
  const auto to_clock = [](double s) {
    return std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(s));
  };
  const bool counted = opt.requests > 0;
  const auto window_start =
      clock::now() + to_clock(counted ? 0 : opt.warmup);
  const auto window_end = window_start + to_clock(opt.seconds);
  ProcSample p0;
  // [t_ns, host steal, host total, server CPU ns], from the window's start.
  std::vector<std::string> host_samples;
  const auto sample_host_and_server = [&] {
    uint64_t steal = 0, total = 0;
    sample_host(&steal, &total);
    host_samples.push_back(json_array(
        {std::to_string(now_ns()), std::to_string(steal),
         std::to_string(total), std::to_string(process_cpu_ns(server_pid))}));
  };
  if (counted) {
    p0 = sample_proc();
    say("MARK");
  }
  std::vector<std::thread> threads;
  for (auto& l : loads) threads.emplace_back([&l] { l->run(); });
  if (!counted) {
    std::this_thread::sleep_until(window_start);
    p0 = sample_proc();
    say("MARK");
    // Host steal and server CPU every kHostSampleMs: run.py ranks the
    // window's slices by steal and counts the quietest.
    sample_host_and_server();
    for (auto next = window_start + std::chrono::milliseconds(kHostSampleMs);;
         next += std::chrono::milliseconds(kHostSampleMs)) {
      std::this_thread::sleep_until(std::min(next, window_end));
      sample_host_and_server();
      if (next >= window_end) break;
    }
  }
  ProcSample p1;
  if (!counted) {
    p1 = sample_proc();
    say("MARK");
    finishing.store(true, std::memory_order_release);
  }
  for (auto& t : threads) t.join();
  if (counted) {
    p1 = sample_proc();
    say("MARK");
  }

  std::vector<std::string> failures, units, tids;
  for (const auto& l : loads) {
    failures.insert(failures.end(), l->failures().begin(), l->failures().end());
    tids.push_back(std::to_string(l->tid()));
    for (const Unit& u : l->units())
      units.push_back(json_array(
          {std::to_string(u.start_ns), std::to_string(u.hs_ns),
           std::to_string(u.done_ns), std::to_string(u.conn),
           u.offered ? "1" : "0", u.resumed ? "1" : "0",
           std::to_string(u.connect_ns)}));
  }
  const std::string json = JsonObject()
                               .raw("window", json_array({to_json(p0),
                                                          to_json(p1)}))
                               .raw("load_tids", json_array(tids))
                               .raw("host_samples", json_array(host_samples))
                               .raw("units", json_array(units))
                               .raw("failures", json_strings(failures))
                               .done();
  if (!write_file(opt.out, json)) failures.push_back("cannot write " + opt.out);
  for (const auto& f : failures) std::fprintf(stderr, "load check: %s\n", f.c_str());
  return failures.empty();
}

}  // namespace

int run_load(const Options& opt) {
  std::signal(SIGPIPE, SIG_IGN);
  Bytes object = synthetic_object();
  Bytes probe_object = object;
  if (opt.workload == Workload::kBulkDownload &&
      (!read_object(opt.object, &object) ||
       !read_object(opt.probe, &probe_object)))
    return fail("cannot read the bulk_download objects");
  char line[128];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    unsigned port = 0;
    int server_pid = 0;
    if (std::sscanf(line, "PROBE %u", &port) == 1) {
      say("PROBED " + probe(opt, static_cast<uint16_t>(port), probe_object));
    } else if (std::sscanf(line, "RUN %u %d", &port, &server_pid) == 2) {
      say(run_window(opt, static_cast<uint16_t>(port), server_pid, object)
              ? "DONE ok"
              : "DONE fail");
    }
  }
  return 0;
}

}  // namespace qbench
