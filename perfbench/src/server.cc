// Server process: one Worker thread wired the way WorkerPool wires a worker
// (its own QatEngineProvider on one instance, a TlsContext, a 127.0.0.1
// listener), in the QTLS configuration of examples/https_server, on a QAT
// device model of 1 endpoint x 1 engine.
//
// Protocol on stdio: prints "READY <port>"; each "MARK" line on stdin takes a
// window snapshot (counters on the worker thread, then /proc) and answers
// "MARKED"; stdin EOF drains the worker, checks the conservation identities
// and writes everything to --out. Exit status 0 only when every check held.
#include <pthread.h>
#include <sys/prctl.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/conf.h"
#include "obs/trace.h"
#include "qat/device.h"
#include "server/control.h"
#include "server/ssl_engine_conf.h"
#include "server/worker.h"
#include "bench.h"
#include "syscount.h"
#include "tracing.h"

namespace qbench {

namespace {

using namespace qtls;

// examples/https_server's QTLS configuration, as one worker process.
const char* kConf = R"(
worker_processes 1;
ssl_engine {
    use qat_engine;
    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;
        qat_poll_mode heuristic;
        qat_heuristic_poll_asym_threshold 48;
        qat_heuristic_poll_sym_threshold 24;
    }
}
overload {
    handshake_timeout_ms 5000;
    idle_timeout_ms 30000;
    write_stall_timeout_ms 10000;
    max_handshaking 256;
    past_cap shed;
    max_header_bytes 8192;
    max_header_count 100;
}
credentials {
    rsa 2048;
}
)";

constexpr uint64_t kDrainDeadlineMs = 2000;
constexpr uint64_t kDrainWallLimitNs = 10'000'000'000ULL;

// Counters read on the worker thread, so none of them races the loop.
struct WorkerSnapshot {
  uint64_t t_ns = 0;
  server::WorkerStats worker;
  size_t alive = 0;
  size_t pending_async = 0;
  engine::QatEngineStats engine;
  size_t inflight = 0;
  server::HeuristicPollerStats poller;
  uint64_t bytes_copied = 0;
  uint64_t bytes_sent = 0;
  uint64_t passes = 0;
  uint64_t empty_passes = 0;
  uint64_t syscalls = 0;  // made by the worker thread
};

std::string to_json(const WorkerSnapshot& s) {
  const auto& w = s.worker;
  const auto& e = s.engine;
  const auto& p = s.poller;
  return JsonObject()
      .num("t_ns", s.t_ns)
      .num("accepted", w.accepted)
      .num("closed", w.closed)
      .num("async_parks", w.async_parks)
      .num("alive", static_cast<uint64_t>(s.alive))
      .num("pending_async", static_cast<uint64_t>(s.pending_async))
      .num("submitted", e.submitted)
      .num("completed", e.completed)
      .num("submit_retries", e.submit_retries)
      .num("seal_batches", e.seal_batches)
      .num("seal_batch_ops", e.seal_batch_ops)
      .num("deadline_expiries", e.deadline_expiries)
      .num("sw_fallbacks", e.sw_fallbacks)
      .num("inflight", static_cast<uint64_t>(s.inflight))
      .num("polls", p.polls)
      .num("retrieved", p.retrieved)
      .num("failover_triggers", p.failover_triggers)
      .num("bytes_copied", s.bytes_copied)
      .num("bytes_sent", s.bytes_sent)
      .num("passes", s.passes)
      .num("empty_passes", s.empty_passes)
      .num("syscalls", s.syscalls)
      .done();
}

// Drives Worker::run_once on its own thread and serves snapshot and drain
// requests between passes.
class ServerLoop {
 public:
  ServerLoop(server::Worker* worker, engine::QatEngineProvider* qat,
             SpanLog* log)
      : worker_(worker), qat_(qat), log_(log) {
    thread_ = std::thread([this] { run(); });
  }
  ~ServerLoop() { join(); }
  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  // Blocks until the worker thread has taken the snapshot. Marks alternate:
  // the first opens the measurement window, the second closes it.
  WorkerSnapshot mark() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t want =
        marks_requested_.fetch_add(1, std::memory_order_release) + 1;
    cv_.wait(lock, [&] { return marks_served_ == want; });
    return last_mark_;
  }

  // Drains and stops the worker thread; true when it drained in time.
  bool drain() {
    drain_requested_.store(true, std::memory_order_release);
    join();
    return drained_in_time_;
  }

 private:
  void run() {
    pthread_setname_np(pthread_self(), "qb-worker");
    uint64_t drain_started = 0;
    for (;;) {
      serve_marks();
      if (drain_requested_.load(std::memory_order_acquire)) {
        if (drain_started == 0) {
          worker_->request_drain(kDrainDeadlineMs);
          drain_started = now_ns();
        }
        if (worker_->drained() && qat_->inflight_total() == 0 &&
            worker_->pending_async_connections() == 0) {
          drained_in_time_ = true;
          return;
        }
        if (now_ns() - drain_started > kDrainWallLimitNs) return;
      }
      if (log_ == nullptr) {
        (void)worker_->run_once(5);
        continue;
      }
      log_->begin_pass();
      const uint64_t start = now_ns();
      const int events = worker_->run_once(5);
      log_->end_pass(start, now_ns(), events);
      if (log_->recording && events > 0 && worker_->alive_connections() > 0) {
        log_->conn_bytes_sum += worker_->bytes_per_conn();
        ++log_->conn_bytes_samples;
      }
    }
  }

  void serve_marks() {
    // One relaxed-cost load per pass; the lock is taken only for a mark.
    if (marks_requested_.load(std::memory_order_acquire) == marks_seen_)
      return;
    std::lock_guard<std::mutex> lock(mu_);
    ++marks_seen_;
    WorkerSnapshot s;
    s.worker = worker_->stats();
    s.alive = worker_->alive_connections();
    s.pending_async = worker_->pending_async_connections();
    s.engine = qat_->stats();
    s.inflight = qat_->inflight_total();
    if (const auto* p = worker_->poller_stats()) s.poller = *p;
    const obs::MetricsSnapshot reg = obs::MetricsRegistry::global().snapshot();
    s.bytes_copied = reg.counter_value("record.bytes_copied");
    s.bytes_sent = reg.counter_value("record.bytes_sent");
    s.syscalls = thread_syscalls();
    if (log_ != nullptr) {
      s.passes = log_->passes_counted;
      s.empty_passes = log_->empty_passes;
      log_->recording = !log_->recording;
    }
    s.t_ns = now_ns();
    last_mark_ = s;
    ++marks_served_;
    cv_.notify_all();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  server::Worker* worker_;
  engine::QatEngineProvider* qat_;
  SpanLog* log_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<uint64_t> marks_requested_{0};
  uint64_t marks_seen_ = 0;       // worker thread only
  uint64_t marks_served_ = 0;     // guarded by mu_
  WorkerSnapshot last_mark_;      // guarded by mu_
  std::atomic<bool> drain_requested_{false};
  bool drained_in_time_ = false;  // read after join
  std::thread thread_;
};

// Copies the obs trace ring (1024 records) often enough that, with sample
// period 1, no record is overwritten unseen between two copies.
class RingCollector {
 public:
  RingCollector() {
    thread_ = std::thread([this] {
      pthread_setname_np(pthread_self(), "qb-ring");
      while (!stop_.load(std::memory_order_acquire)) {
        collect();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      collect();
    });
  }
  ~RingCollector() { stop(); }
  RingCollector(const RingCollector&) = delete;
  RingCollector& operator=(const RingCollector&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  // Valid after stop().
  const std::vector<obs::TraceRecord>& records() const { return records_; }
  uint64_t full_copies() const { return full_copies_; }

 private:
  void collect() {
    const auto snap = obs::trace_ring_snapshot();
    size_t fresh = 0;
    for (const auto& r : snap) {
      if (r.sim || !seen_.insert(r.request_id).second) continue;
      records_.push_back(r);
      ++fresh;
    }
    // Every record new: the ring may have wrapped past unseen ones.
    if (fresh == obs::kTraceRingCapacity) ++full_copies_;
  }

  std::atomic<bool> stop_{false};
  std::unordered_set<uint64_t> seen_;
  std::vector<obs::TraceRecord> records_;
  uint64_t full_copies_ = 0;
  std::thread thread_;
};

bool write_u64s(const std::string& path, const std::vector<uint64_t>& v) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(uint64_t)));
  return static_cast<bool>(out);
}

// Scalars go into the JSON; the spans are written beside it as flat arrays
// of native uint64: <out>.passes (id, start, end, events), <out>.calls (op,
// pass, start, end, records) and <out>.ring (request id, op class, the
// kNumStages stage stamps). Returns "" when a file cannot be written.
std::string write_trace(const std::string& out, const SpanLog& log,
                        const RingCollector& ring) {
  std::vector<uint64_t> passes, calls, records;
  for (const PassSpan& p : log.passes)
    passes.insert(passes.end(), {p.id, p.start_ns, p.end_ns, p.events});
  for (const CallSpan& c : log.calls)
    calls.insert(calls.end(), {static_cast<uint64_t>(c.op), c.pass,
                               c.start_ns, c.end_ns, c.records});
  for (const obs::TraceRecord& r : ring.records()) {
    records.insert(records.end(), {r.request_id, r.op_class});
    records.insert(records.end(), r.ts, r.ts + obs::kNumStages);
  }
  if (!write_u64s(out + ".passes", passes) ||
      !write_u64s(out + ".calls", calls) || !write_u64s(out + ".ring", records))
    return "";
  std::vector<std::string> ops;
  for (int i = 0; i <= static_cast<int>(Op::kAeadSealBatch); ++i)
    ops.push_back(op_name(static_cast<Op>(i)));
  return JsonObject()
      .num("passes_counted", log.passes_counted)
      .num("empty_passes", log.empty_passes)
      .num("pass_ns_total", log.pass_ns_total)
      .num("pass_p50_ns", log.pass_time.percentile_nanos(50))
      .num("bytes_per_conn_mean",
           log.conn_bytes_samples
               ? static_cast<double>(log.conn_bytes_sum) /
                     static_cast<double>(log.conn_bytes_samples)
               : 0.0)
      .num("dropped_spans", log.dropped_spans)
      .num("ring_full_copies", ring.full_copies())
      .raw("ops", json_strings(ops))
      .num("stages", static_cast<uint64_t>(obs::kNumStages))
      .done();
}

}  // namespace

int run_server(const Options& opt) {
  std::signal(SIGPIPE, SIG_IGN);
  auto root = parse_conf(kConf);
  if (!root.is_ok()) return fail("conf: " + root.status().to_string());
  auto settings = server::parse_ssl_engine_settings(*root.value());
  if (!settings.is_ok()) return fail("conf: " + settings.status().to_string());
  // The keystore keygen behind credentials{} (RSA-2048): part of setup.
  const auto creds = server::resolve_keystore_credentials(*root.value());
  if (!creds) return fail("conf: no credentials");

  SpanLog log;
  std::unique_ptr<RingCollector> ring;
  if (opt.trace) {
    obs::set_trace_sample_period(1);
    ring = std::make_unique<RingCollector>();
  }

  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 1;
  qat::QatDevice device(dcfg);
  engine::QatEngineConfig ecfg = settings.value().engine;
  ecfg.drbg_seed = mix_seed(opt.seed, 1);
  engine::QatEngineProvider qat(device.allocate_instance(), ecfg);
  TracingProvider tracing(&qat, &log);

  tls::TlsContextConfig tcfg;
  tcfg.is_server = true;
  tcfg.async_mode = ecfg.offload_mode == engine::OffloadMode::kAsync;
  tcfg.cipher_suites = {suite_for(opt.workload)};
  tcfg.use_session_tickets = opt.workload == Workload::kResumedHandshake;
  tcfg.drbg_seed = mix_seed(opt.seed, 2);
  tls::TlsContext ctx(tcfg, opt.trace ? static_cast<engine::CryptoProvider*>(
                                            &tracing)
                                      : &qat);
  ctx.set_credentials(*creds);

  server::WorkerConfig wcfg;
  wcfg.notify = settings.value().notify;
  wcfg.poll = settings.value().poll;
  wcfg.heuristic = settings.value().heuristic;
  wcfg.overload = settings.value().overload;
  wcfg.http_limits = settings.value().http_limits;
  wcfg.response_body_size = kObjectSize;
  wcfg.file_root = opt.file_root;
  server::Worker worker(&ctx, &qat, wcfg);
  if (auto st = worker.add_listener(0); !st.is_ok())
    return fail("listen: " + st.to_string());
  // Threads started from here on are named; the device's engine threads
  // keep the process name, which is how the report finds them.
  prctl(PR_SET_NAME, "qb-main");

  std::vector<std::string> marks;
  bool drained = false;
  {
    ServerLoop loop(&worker, &qat, opt.trace ? &log : nullptr);
    std::printf("READY %u\n", worker.listen_port());
    std::fflush(stdout);
    char line[64];
    while (std::fgets(line, sizeof(line), stdin) != nullptr) {
      if (std::string(line).rfind("MARK", 0) != 0) continue;
      const WorkerSnapshot w = loop.mark();
      marks.push_back(JsonObject()
                          .raw("worker", to_json(w))
                          .raw("proc", to_json(sample_proc()))
                          .done());
      std::printf("MARKED\n");
      std::fflush(stdout);
    }
    drained = loop.drain();
  }
  if (ring) ring->stop();

  // Conservation identities and QTLS-configuration checks at drain.
  std::vector<std::string> failures;
  const server::WorkerStats& ws = worker.stats();
  const engine::QatEngineStats& es = qat.stats();
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  check(drained, "worker did not drain within the deadline");
  check(ws.accepted == ws.closed + worker.alive_connections(),
        "accepted != closed + alive");
  check(es.submitted == es.completed + es.deadline_expiries,
        "engine submitted != completed + deadline_expiries");
  check(qat.inflight_total() == 0, "engine inflight_total() != 0 at drain");
  check(worker.pending_async_connections() == 0,
        "pending_async_connections() != 0 at drain");
  check(es.sw_fallbacks == 0, "sw_fallbacks != 0: left the QTLS config");
  for (int c = 0; c < qat::kNumOpClasses; ++c)
    check(qat.breaker_state(static_cast<qat::OpClass>(c)) ==
              engine::BreakerState::kClosed,
          std::string("breaker not closed: ") +
              qat::op_class_name(static_cast<qat::OpClass>(c)));

  WorkerSnapshot final_counters;
  final_counters.worker = ws;
  final_counters.alive = worker.alive_connections();
  final_counters.pending_async = worker.pending_async_connections();
  final_counters.engine = es;
  final_counters.inflight = qat.inflight_total();
  JsonObject out;
  out.raw("marks", json_array(marks))
      .raw("final", to_json(final_counters))
      .raw("proc_final", to_json(sample_proc()))
      .raw("failures", json_strings(failures));
  if (ring) {
    const std::string trace = write_trace(opt.out, log, *ring);
    if (trace.empty()) return fail("cannot write spans beside " + opt.out);
    out.raw("trace", trace);
  }
  if (!write_file(opt.out, out.done())) return fail("cannot write " + opt.out);
  for (const auto& f : failures) std::fprintf(stderr, "server check: %s\n", f.c_str());
  return failures.empty() ? 0 : 3;
}

}  // namespace qbench
