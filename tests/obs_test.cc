// Observability-plane unit tests (src/obs): interning, shard-and-merge
// under concurrency, snapshot-while-writing, the no-allocation recording
// contract, lifecycle trace plumbing, and the live GET /stats endpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/keystore.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/control.h"
#include "server_test_util.h"

// ---------------------------------------------------------------------------
// Counting allocator hook: global operator new/delete tallies allocations so
// the no-allocation recording contract is a hard regression, not a comment.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, new and delete alike: inlined into a `new T` and its cleanup
// path, malloc() or free() would look to GCC like a mismatch with the
// other side (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}

namespace qtls {
namespace {

#if !QTLS_OBS_ENABLED

// Whole-tree -DQTLS_OBS=OFF build: the enabled-plane behaviors below are
// compiled out (tests/obs_noop_test.cc covers the disabled contract).
TEST(ObsTest, SkippedObservabilityBuiltOut) { SUCCEED(); }

#else

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// ------------------------------------------------------------ interning ----

TEST(MetricsRegistry, InterningAssignsStableIds) {
  MetricsRegistry reg;
  obs::Counter a = reg.counter("requests");
  obs::Counter b = reg.counter("errors");
  obs::Counter a2 = reg.counter("requests");
  EXPECT_EQ(a.id(), a2.id());
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(reg.num_counters(), 2u);

  obs::Histogram h = reg.histogram("latency");
  obs::Histogram h2 = reg.histogram("latency");
  EXPECT_EQ(h.id(), h2.id());
  EXPECT_EQ(reg.num_histograms(), 1u);

  // Counter and histogram namespaces are independent.
  obs::Histogram same_name = reg.histogram("requests");
  (void)same_name;
  EXPECT_EQ(reg.num_histograms(), 2u);
  EXPECT_EQ(reg.num_counters(), 2u);
}

TEST(MetricsRegistry, RegistrationBeyondCapClampsToLastId) {
  MetricsRegistry reg;
  obs::Counter last;
  for (size_t i = 0; i < MetricsRegistry::kMaxCounters + 8; ++i)
    last = reg.counter("c" + std::to_string(i));
  EXPECT_EQ(reg.num_counters(), MetricsRegistry::kMaxCounters);
  EXPECT_EQ(last.id(),
            static_cast<uint32_t>(MetricsRegistry::kMaxCounters - 1));
  last.add(7);  // must not write out of bounds
  (void)reg.snapshot();
}

// ---------------------------------------------------------- shard merge ----

TEST(MetricsRegistry, ShardMergeAcrossEightThreads) {
  MetricsRegistry reg;
  obs::Counter ops = reg.counter("ops");
  obs::Histogram lat = reg.histogram("lat");

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ops.add(1);
        lat.record(1'000 + i % 64);
      }
    });
  }
  for (auto& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("ops"), kThreads * kPerThread);
  const LatencyHistogram* h = snap.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  EXPECT_GE(h->max_nanos(), 1'000u);
  EXPECT_EQ(reg.num_shards(), static_cast<size_t>(kThreads));
}

TEST(MetricsRegistry, SnapshotWhileWriting) {
  MetricsRegistry reg;
  obs::Counter ops = reg.counter("ops");
  obs::Histogram lat = reg.histogram("lat");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> written{0};
  std::thread writer([&] {
    uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ops.add(1);
      lat.record(500);
      ++n;
    }
    written.store(n, std::memory_order_release);
  });

  // Concurrent snapshots must observe monotonically non-decreasing,
  // never-torn values per metric. (Different metrics are summed at
  // different instants, so no cross-metric ordering is guaranteed.)
  uint64_t prev_ops = 0, prev_lat = 0;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snap = reg.snapshot();
    const uint64_t v = snap.counter_value("ops");
    EXPECT_GE(v, prev_ops);
    prev_ops = v;
    const LatencyHistogram* h = snap.histogram("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->count(), prev_lat);
    prev_lat = h->count();
  }
  stop.store(true);
  writer.join();

  const MetricsSnapshot final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counter_value("ops"),
            written.load(std::memory_order_acquire));
  EXPECT_EQ(final_snap.histogram("lat")->count(),
            written.load(std::memory_order_acquire));
}

TEST(MetricsRegistry, ResetZeroesAllCells) {
  MetricsRegistry reg;
  obs::Counter c = reg.counter("c");
  obs::Histogram h = reg.histogram("h");
  c.add(42);
  h.record(1234);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("c"), 0u);
  EXPECT_EQ(snap.histogram("h")->count(), 0u);
}

// ------------------------------------------------------- no-allocation ----

TEST(MetricsRegistry, RecordPathDoesNotAllocate) {
  MetricsRegistry reg;
  obs::Counter c = reg.counter("hot_counter");
  obs::Histogram h = reg.histogram("hot_hist");
  // Warm-up: the first record on a thread creates its shard (the only
  // allocation the record path may ever trigger).
  c.add(1);
  h.record(1);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 50'000; ++i) {
    c.add(1);
    h.record(i % 100'000);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "metrics record path allocated";
}

TEST(LatencyHistogram, RecordAndSummaryDoNotAllocateOnRecordPath) {
  LatencyHistogram h;
  h.record(1);  // buckets are sized at construction; nothing grows later
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 100'000; ++i) h.record(i);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "LatencyHistogram::record allocated";
  // summary() runs on the reader side and may allocate its string, but must
  // not disturb recorded state.
  const std::string s = h.summary();
  EXPECT_NE(s.find("p50"), std::string::npos);
  EXPECT_EQ(h.count(), 100'001u);
}

// ----------------------------------------------------------- tracing ----

TEST(Trace, SamplePeriodRoundsToPowerOfTwo) {
  obs::set_trace_sample_period(3);
  EXPECT_EQ(obs::trace_sample_period(), 4u);
  obs::set_trace_sample_period(64);
  EXPECT_EQ(obs::trace_sample_period(), 64u);
  obs::set_trace_sample_period(0);
  EXPECT_EQ(obs::trace_sample_period(), 0u);
  obs::TraceStamps t;
  obs::trace_begin(t);
  EXPECT_FALSE(t.sampled);  // period 0: tracing disabled
  obs::set_trace_sample_period(64);  // restore default
}

TEST(Trace, StampsAndRingRoundTrip) {
  obs::set_trace_sample_period(1);
  obs::trace_ring_clear();

  obs::TraceStamps t;
  obs::trace_begin_at(t, 100);
  ASSERT_TRUE(t.sampled);
  t.stamp_at(obs::Stage::kRingEnqueue, 100);
  t.stamp_at(obs::Stage::kEngineClaim, 150);
  t.stamp_at(obs::Stage::kServiceStart, 150);
  t.stamp_at(obs::Stage::kServiceDone, 450);
  t.stamp_at(obs::Stage::kPollDrain, 500);
  obs::record_pipeline(t, /*request_id=*/77, /*op_class_idx=*/0,
                       /*sim=*/true);

  const auto records = obs::trace_ring_snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].request_id, 77u);
  EXPECT_EQ(records[0].op_class, 0);
  EXPECT_TRUE(records[0].sim);
  EXPECT_EQ(records[0].ts[static_cast<size_t>(obs::Stage::kServiceDone)] -
                records[0].ts[static_cast<size_t>(obs::Stage::kServiceStart)],
            300u);

  // The per-stage histograms got the deltas.
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const LatencyHistogram* service = snap.histogram("sim.qat.stage.service");
  ASSERT_NE(service, nullptr);
  EXPECT_GE(service->count(), 1u);

  obs::trace_ring_clear();
  EXPECT_TRUE(obs::trace_ring_snapshot().empty());
  obs::set_trace_sample_period(64);
}

TEST(Trace, UnsampledRequestsRecordNothing) {
  obs::set_trace_sample_period(0);
  obs::trace_ring_clear();
  obs::TraceStamps t;
  obs::trace_begin(t);
  EXPECT_FALSE(t.sampled);
  t.stamp_at(obs::Stage::kRingEnqueue, 5);  // no-op when unsampled
  EXPECT_EQ(t[obs::Stage::kRingEnqueue], 0u);
  obs::record_pipeline(t, 1, 0, false);
  EXPECT_TRUE(obs::trace_ring_snapshot().empty());
  obs::set_trace_sample_period(64);
}

// ------------------------------------------------------- GET /stats e2e ----

TEST(StatsEndpoint, LiveWorkerServesStatsJson) {
  using namespace qtls::server;
  obs::set_trace_sample_period(1);  // deterministic: every op traced

  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 8;
  qat::QatDevice device(dcfg);

  engine::QatEngineConfig qcfg;
  qcfg.offload_mode = engine::OffloadMode::kAsync;
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);

  tls::TlsContextConfig scfg;
  scfg.is_server = true;
  scfg.drbg_seed = 1;
  scfg.async_mode = true;
  tls::TlsContext server_ctx(scfg, &qat);
  server_ctx.credentials().rsa_key = &test_rsa2048();
  server_ctx.credentials().ecdsa_p256 = &test_ec_key_p256();
  server_ctx.credentials().ecdsa_p384 = &test_ec_key_p384();

  engine::SoftwareProvider client_provider(99);
  tls::TlsContextConfig ccfg;
  ccfg.drbg_seed = 2;
  tls::TlsContext client_ctx(ccfg, &client_provider);

  WorkerConfig wcfg;
  wcfg.notify = NotifyScheme::kKernelBypass;
  wcfg.poll = PollScheme::kHeuristic;
  Worker worker(&server_ctx, &qat, wcfg);

  client::Pool pool;
  client::ClientOptions copts;
  copts.path = "/stats";
  copts.max_requests = 1;
  pool.add(std::make_unique<client::HttpsClient>(
      &client_ctx, testutil::socketpair_connector(&worker), copts));

  ASSERT_TRUE(testutil::run_to_completion(&worker, &pool));
  ASSERT_EQ(pool.aggregate().errors, 0u);
  EXPECT_EQ(worker.stats().requests_served, 1u);

  client::HttpsClient* c = pool.clients().front().get();
  const std::string body(c->last_body().begin(), c->last_body().end());
  // Worker counters, engine fault/fallback counters, breaker states, and
  // the registry snapshot (per-stage histograms) are all present.
  EXPECT_NE(body.find("\"worker\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"requests_served\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"engine\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"sw_fallbacks\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"breaker\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"asym\":\"closed\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"metrics\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"engine\":{\"submitted\":"), std::string::npos)
      << body;
  // The handshake offloaded at least one op with tracing on, so the
  // real-plane per-stage histograms exist in the snapshot.
  EXPECT_NE(body.find("qat.stage.total"), std::string::npos) << body;
  obs::set_trace_sample_period(64);
}

#endif  // QTLS_OBS_ENABLED

// -------------------------------------------- one count per event ----

// Every metric name in a GET /stats body's registry snapshot: the quoted
// keys after "metrics" that contain a dot (histogram fields have none).
std::vector<std::string> metric_names(const std::string& body) {
  std::vector<std::string> names;
  const std::string marker = "\"metrics\":";
  size_t at = body.find(marker);
  if (at == std::string::npos) return names;
  for (at = body.find('"', at + marker.size()); at != std::string::npos;
       at = body.find('"', at + 1)) {
    const size_t end = body.find('"', at + 1);
    if (end == std::string::npos) break;
    std::string key = body.substr(at + 1, end - at - 1);
    if (end + 1 < body.size() && body[end + 1] == ':' &&
        key.find('.') != std::string::npos)
      names.push_back(std::move(key));
    at = end;
  }
  return names;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(StatsEndpoint, EachCountServedOnceUnderItsOwner) {
  using namespace qtls::server;
  using testutil::stats_field;

  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 4;
  qat::QatDevice device(dcfg);
  engine::QatEngineConfig qcfg;
  qcfg.offload_mode = engine::OffloadMode::kAsync;
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);

  tls::TlsContextConfig scfg;
  scfg.is_server = true;
  scfg.drbg_seed = 1;
  scfg.async_mode = true;
  scfg.cipher_suites = {tls::CipherSuite::kEcdheRsaWithAes128CbcSha};
  tls::TlsContext server_ctx(scfg, &qat);
  server_ctx.credentials().rsa_key = &test_rsa2048();

  engine::SoftwareProvider client_provider(99);
  tls::TlsContextConfig ccfg;
  ccfg.drbg_seed = 2;
  ccfg.cipher_suites = scfg.cipher_suites;
  tls::TlsContext client_ctx(ccfg, &client_provider);

  // The control plane the worker serves from, reloaded from two threads.
  ControlPlane control;
  ASSERT_TRUE(control
                  .load("ssl_engine {\n"
                        "    use qat_engine;\n"
                        "    qat_engine { qat_offload_mode async; }\n"
                        "}\n"
                        "control { supervise off; }\n")
                  .is_ok());
  std::vector<std::thread> reloaders;
  for (int t = 0; t < 2; ++t)
    reloaders.emplace_back([&control] {
      for (int i = 0; i < 3; ++i) EXPECT_TRUE(control.reload_now().is_ok());
    });
  for (std::thread& t : reloaders) t.join();
  ASSERT_EQ(control.generation(), 7u);

  WorkerConfig wcfg;
  wcfg.control = &control;
  Worker worker(&server_ctx, &qat, wcfg);

  // Two served and closed connections, then one GET /stats on a quiet
  // worker: no offload op is in flight while the body is built. The two
  // are served by a loop that may sleep, so the worker blocks on the
  // engine's wakeup while their handshakes' ops are on the device.
  client::ClientOptions fopts;
  fopts.max_requests = 1;
  client::Pool files;
  for (int i = 0; i < 2; ++i)
    files.add(std::make_unique<client::HttpsClient>(
        &client_ctx, testutil::socketpair_connector(&worker), fopts,
        100 + static_cast<uint64_t>(i)));
  ASSERT_TRUE(testutil::run_to_completion(&worker, &files, 60,
                                          /*timeout_ms=*/5));
  for (int i = 0; i < 1000 && worker.alive_connections() != 0; ++i)
    worker.run_once(1);
  ASSERT_EQ(worker.alive_connections(), 0u);

  client::Pool pool;
  client::ClientOptions copts;
  copts.path = "/stats";
  copts.max_requests = 1;
  pool.add(std::make_unique<client::HttpsClient>(
      &client_ctx, testutil::socketpair_connector(&worker), copts));
  ASSERT_TRUE(testutil::run_to_completion(&worker, &pool));
  ASSERT_EQ(pool.aggregate().errors, 0u);
  const client::HttpsClient& c = *pool.clients().front();
  const std::string body(c.last_body().begin(), c.last_body().end());

  // The registry holds only what no single object owns: the trace plane's
  // stage histograms and per-class sampled counts, and the copy meter.
  const std::vector<std::string> names = metric_names(body);
#if QTLS_OBS_ENABLED
  EXPECT_FALSE(names.empty()) << body;
#endif
  for (const std::string& name : names) {
    if (starts_with(name, "qat.stage.") || starts_with(name, "qat.op.") ||
        starts_with(name, "sim.qat.stage.") || starts_with(name, "sim.qat.op."))
      continue;
    for (const char* owned :
         {"qat.engine.", "overload.", "control.", "memory.", "tls.session.",
          "tls.ticket.", "qat.topology.", "sim.qat."})
      EXPECT_FALSE(starts_with(name, owned)) << name;
    EXPECT_TRUE(name == "record.bytes_copied" || name == "record.bytes_sent")
        << name;
  }

  // Engine: every submitted op completed or expired.
  const int64_t submitted = stats_field(body, "engine", "submitted");
  EXPECT_GT(submitted, 0) << body;
  EXPECT_EQ(submitted, stats_field(body, "engine", "completed") +
                           stats_field(body, "engine", "deadline_expiries"));
  for (const char* key : {"submit_retries", "seal_batches", "seal_batch_ops"})
    EXPECT_GE(stats_field(body, "engine", key), 0) << key;

  // Poller: every poll has exactly one trigger, and a wake trigger only
  // fires inside a pass that slept (worker "sleeps") on the engine.
  const int64_t wakes = stats_field(body, "poller", "wake_triggers");
  EXPECT_GE(wakes, 0) << body;
  EXPECT_EQ(stats_field(body, "poller", "polls"),
            stats_field(body, "poller", "efficiency_triggers") +
                stats_field(body, "poller", "timeliness_triggers") +
                stats_field(body, "poller", "failover_triggers") + wakes +
                stats_field(body, "poller", "ready_triggers"))
      << body;
  EXPECT_GT(stats_field(body, "worker", "sleeps"), 0) << body;
  EXPECT_LE(wakes, stats_field(body, "worker", "sleeps")) << body;

  // Worker: every accepted connection is closed or alive.
  EXPECT_EQ(stats_field(body, "worker", "accepted"), 3) << body;
  EXPECT_EQ(stats_field(body, "worker", "errors"), 0) << body;
  EXPECT_EQ(stats_field(body, "worker", "accepted"),
            stats_field(body, "worker", "closed") +
                stats_field(body, "worker", "alive"));

  // Control: the attached plane's own counters, read once.
  const ControlPlane::Stats cs = control.stats();
  EXPECT_EQ(stats_field(body, "control", "generation"),
            static_cast<int64_t>(control.generation()));
  EXPECT_EQ(stats_field(body, "control", "applied_generation"),
            static_cast<int64_t>(control.generation()));
  const std::pair<const char*, uint64_t> fields[] = {
      {"reloads", cs.reloads},
      {"reload_failures", cs.reload_failures},
      {"plane_changes_ignored", cs.plane_changes_ignored},
      {"wedge_events", cs.wedge_events},
      {"busy_holds", cs.busy_holds},
      {"worker_restarts", cs.worker_restarts},
      {"workers_abandoned", cs.workers_abandoned},
      {"last_time_to_detect_ms", cs.last_time_to_detect_ms},
      {"last_time_to_recover_ms", cs.last_time_to_recover_ms},
  };
  for (const auto& [key, value] : fields)
    EXPECT_EQ(stats_field(body, "control", key), static_cast<int64_t>(value))
        << key;
  EXPECT_EQ(cs.reloads, 7u);
}

}  // namespace
}  // namespace qtls
