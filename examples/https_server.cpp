// HTTPS web server example — the paper's evaluation setup in one process:
// an event-driven worker with the full QTLS pipeline (async offload +
// heuristic polling + kernel-bypass notification), configured through the
// Appendix A.7 ssl_engine framework, plus an in-process client fleet.
//
// Default ("self test"): drive N clients over AF_UNIX socketpairs for a few
// seconds and print throughput/latency stats. With --listen <port> it
// instead serves HTTPS on 127.0.0.1:<port> through a WorkerPool until
// SIGTERM/SIGINT, then drains gracefully: accepts stop, in-flight requests
// finish, and stragglers are force-closed at the drain deadline (connect
// with the tls_terminator example or this binary's own client mode is left
// as an exercise — the wire format is this library's own; see DESIGN.md §5).
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "client/https_client.h"
#include "crypto/keystore.h"
#include "server/control.h"
#include "server/worker_pool.h"

using namespace qtls;

namespace {

const char* kConf = R"(
worker_processes 2;
ssl_engine {
    use qat_engine;
    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
    qat_topology {
        devices 2;                     # logical QAT cards (DESIGN.md 12)
        numa_nodes 1;
        spill_threshold 32;            # queue-depth gap before spillover
    }
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;          # kernel-bypass async queue
        qat_poll_mode heuristic;
        qat_heuristic_poll_asym_threshold 48;
        qat_heuristic_poll_sym_threshold 24;
    }
}
overload {
    handshake_timeout_ms 5000;         # accept -> handshake complete
    idle_timeout_ms 30000;             # keepalive wait / request trickle
    write_stall_timeout_ms 10000;      # peers that stop reading responses
    max_handshaking 256;               # admission cap per worker
    past_cap shed;                     # excess accepts get a clean close
    max_header_bytes 8192;             # HTTP parser bounds (431 past them)
    max_header_count 100;
}
control {                              # self-healing plane (DESIGN.md 15)
    heartbeat_interval_ms 100;         # supervision window
    missed_windows 5;                  # frozen windows before "wedged"
    eject_grace_ms 500;                # wait for an ejected worker thread
    supervise on;
}
credentials {
    rsa 2048;                          # SIGHUP/POST /reload re-resolves this
}
)";

// SIGTERM/SIGINT set the flag; the main thread notices and drains the pool.
volatile std::sig_atomic_t g_shutdown = 0;
void on_signal(int) { g_shutdown = 1; }

constexpr uint64_t kDrainDeadlineMs = 5000;

}  // namespace

int main(int argc, char** argv) {
  int listen_port = -1;
  int seconds = 3;
  int clients = 8;
  bool show_stats = false;
  const char* file_root = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc)
      listen_port = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc)
      seconds = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
      clients = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--file-root") == 0 && i + 1 < argc)
      file_root = argv[++i];
    else if (std::strcmp(argv[i], "--stats") == 0)
      show_stats = true;
  }

  // Accelerator + engine from the configuration framework.
  auto settings = server::parse_ssl_engine_settings(kConf);
  if (!settings.is_ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 settings.status().to_string().c_str());
    return 1;
  }
  // Device fleet from the qat_topology{} block; each logical device is
  // DH8970-shaped (3 endpoints x 12 engines). The pool stripes workers
  // across the fleet; the single-worker self-test is worker 0 of 1.
  qat::DeviceTopology topology(settings.value().topology);

  // Everything else the conf says, mapped once; both modes add only what
  // the conf does not say.
  server::WorkerPoolOptions options =
      server::pool_options_from(settings.value());
  options.tls_config.cipher_suites = {
      tls::CipherSuite::kEcdheRsaWithAes128CbcSha,
      tls::CipherSuite::kTlsRsaWithAes128CbcSha};
  options.worker_config.response_body_size = 1024;
  // Static-file streaming (DESIGN.md §11): --file-root overrides the conf's
  // http{file_root} knob; paths resolve under the root, misses answer 404.
  if (file_root != nullptr) options.worker_config.file_root = file_root;

  if (listen_port >= 0) {
    // Serving mode: a WorkerPool (SO_REUSEPORT accept sharing, one QAT
    // instance per worker) with SIGTERM/SIGINT wired to graceful drain and
    // the self-healing control plane (DESIGN.md §15) on top: SIGHUP hot
    // reloads the conf, the supervisor watchdogs every worker, and each
    // worker serves GET /healthz, GET /readyz and POST /reload.
    server::ControlPlane control;
    if (auto st = control.load(kConf); !st.is_ok()) {
      std::fprintf(stderr, "control load failed: %s\n", st.to_string().c_str());
      return 1;
    }
    options.worker_config.control = &control;
    auto pool = std::make_unique<server::WorkerPool>(
        &topology, &test_rsa2048(), options);
    auto status = pool->start(static_cast<uint16_t>(listen_port));
    if (!status.is_ok()) {
      std::fprintf(stderr, "listen failed: %s\n", status.to_string().c_str());
      return 1;
    }
    control.attach(pool.get());
    control.install_sighup();
    control.start_supervisor();
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::printf(
        "serving HTTPS on 127.0.0.1:%u with %d workers "
        "(SIGHUP reloads; SIGTERM/ctrl-c drains, deadline %llu ms)\n",
        pool->port(), pool->workers(),
        static_cast<unsigned long long>(kDrainDeadlineMs));
    while (!g_shutdown)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::printf("draining: accepts stopped, in-flight requests finishing\n");
    control.stop_supervisor();
    pool->shutdown(kDrainDeadlineMs);
    const auto pstats = pool->stats();
    const auto cstats = control.stats();
    std::printf(
        "drained: %llu connections accepted, %llu reloads, %llu worker "
        "restarts\n%s",
        static_cast<unsigned long long>(pstats.totals.accepted),
        static_cast<unsigned long long>(cstats.reloads),
        static_cast<unsigned long long>(cstats.worker_restarts),
        pool->stats_text().c_str());
    return 0;
  }

  // Self test: one worker whose engine draws its instance from the topology
  // the way a pool worker does, driven by in-process clients over
  // socketpairs.
  const auto placements = topology.allocate_for_worker(0, 1, 1);
  if (placements.empty()) {
    std::fprintf(stderr, "no QAT instances left\n");
    return 1;
  }
  const qat::DeviceTopology::Placement& placement = placements.front();
  engine::QatEngineProvider qat_engine(
      &topology, topology.preferred_device(0, 1),
      {engine::DeviceInstanceSet{placement.device, {placement.instance}}},
      options.engine_config);
  tls::TlsContextConfig tls_config = options.tls_config;
  tls_config.is_server = true;
  tls::TlsContext tls_ctx(tls_config, &qat_engine);
  tls::SessionPlane session_plane(options.session);
  tls_ctx.set_session_plane(&session_plane);
  tls_ctx.credentials().rsa_key = &test_rsa2048();
  tls_ctx.credentials().ecdsa_p256 = &test_ec_key_p256();
  server::Worker worker(&tls_ctx, &qat_engine, options.worker_config);

  engine::SoftwareProvider client_provider;
  tls::TlsContextConfig client_config;
  client_config.cipher_suites = tls_config.cipher_suites;
  tls::TlsContext client_ctx(client_config, &client_provider);

  client::Pool pool;
  for (int i = 0; i < clients; ++i) {
    client::ClientOptions copts;
    copts.keepalive = false;  // s_time style: handshake per request
    copts.full_handshake_ratio = 0.5;
    pool.add(std::make_unique<client::HttpsClient>(
        &client_ctx,
        [&worker]() -> int {
          auto pair = net::make_socketpair();
          if (!pair.is_ok()) return -1;
          (void)worker.adopt(pair.value().second);
          return pair.value().first;
        },
        copts, 1000 + static_cast<uint64_t>(i)));
  }

  std::printf("self test: %d clients, %d seconds, QTLS configuration\n",
              clients, seconds);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto& c : pool.clients()) c->step();
    worker.run_once(0);
  }

  const client::ClientStats stats = pool.aggregate();
  const auto& wstats = worker.stats();
  std::printf("\nresults over %ds:\n", seconds);
  std::printf("  handshakes: %llu (%llu resumed)\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.resumed));
  std::printf("  requests:   %llu, errors: %llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.errors));
  std::printf("  CPS:        %.0f\n",
              static_cast<double>(stats.connections) / seconds);
  std::printf("  latency:    %s\n", stats.response_time.summary().c_str());
  std::printf("  worker: async parks=%llu disorder events=%llu\n",
              static_cast<unsigned long long>(wstats.async_parks),
              static_cast<unsigned long long>(wstats.disorder_events));
  if (worker.poller_stats()) {
    std::printf("  heuristic polls=%llu (timeliness=%llu efficiency=%llu)\n",
                static_cast<unsigned long long>(worker.poller_stats()->polls),
                static_cast<unsigned long long>(
                    worker.poller_stats()->timeliness_triggers),
                static_cast<unsigned long long>(
                    worker.poller_stats()->efficiency_triggers));
  }
  const qat::QatDevice& served = topology.device(placement.device);
  std::printf("  device: %s\n", served.fw_counters().to_string().c_str());
  std::printf("  topology: %s\n", topology.stats_json().c_str());

  if (show_stats) {
    // Fetch the worker's own GET /stats endpoint (DESIGN.md §8) the way an
    // operator would, over a fresh connection.
    client::ClientOptions sopts;
    sopts.path = "/stats";
    sopts.max_requests = 1;
    client::HttpsClient stats_client(
        &client_ctx,
        [&worker]() -> int {
          auto pair = net::make_socketpair();
          if (!pair.is_ok()) return -1;
          (void)worker.adopt(pair.value().second);
          return pair.value().first;
        },
        sopts, 9999);
    while (stats_client.step()) worker.run_once(0);
    std::printf("\nGET /stats:\n%.*s\n",
                static_cast<int>(stats_client.last_body().size()),
                reinterpret_cast<const char*>(stats_client.last_body().data()));
  }
  return stats.errors == 0 ? 0 : 1;
}
