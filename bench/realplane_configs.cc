// Real-plane configuration comparison — unlike the fig* benches this runs
// the ACTUAL stack wall-clock: real crypto, real fibers, real epoll, real
// device threads, one worker, in-process clients over socketpairs. The
// worker and its clients share one thread and the device engines compute on
// the host's other cores, so the absolute CPS is far below the paper's, but
// the *ordering* of the configurations is the live demonstration of the
// paper's claim: straight offload wastes the worker on blocking; the async
// framework overlaps the accelerator with event handling.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "client/https_client.h"
#include "common/stats.h"
#include "crypto/keystore.h"
#include "server/worker.h"

using namespace qtls;

namespace {

struct RunOutcome {
  double cps = 0;
  double mean_latency_ms = 0;
  uint64_t errors = 0;
};

RunOutcome run_config(bool use_qat, engine::OffloadMode mode,
                      server::PollScheme poll, server::NotifyScheme notify,
                      int seconds, int clients) {
  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 8;
  // No padding on top of the engines' own crypto: offload latency is what
  // the device threads take to compute on the host's spare cores.
  dcfg.extra_service_ns = 0;
  qat::QatDevice device(dcfg);

  std::unique_ptr<engine::QatEngineProvider> qat;
  std::unique_ptr<engine::SoftwareProvider> software;
  engine::CryptoProvider* provider = nullptr;
  if (use_qat) {
    engine::QatEngineConfig qcfg;
    qcfg.offload_mode = mode;
    qat = std::make_unique<engine::QatEngineProvider>(
        device.allocate_instance(), qcfg);
    provider = qat.get();
  } else {
    software = std::make_unique<engine::SoftwareProvider>(1);
    provider = software.get();
  }

  tls::TlsContextConfig scfg;
  scfg.is_server = true;
  scfg.async_mode = use_qat && mode == engine::OffloadMode::kAsync;
  scfg.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
  tls::TlsContext sctx(scfg, provider);
  sctx.credentials().rsa_key = &test_rsa2048();

  server::WorkerConfig wcfg;
  wcfg.notify = notify;
  wcfg.poll = poll;
  wcfg.response_body_size = 128;
  // QAT+A's 10 us timer (the default timer_interval) is a tick in the
  // worker's own loop.
  server::Worker worker(&sctx, qat.get(), wcfg);

  engine::SoftwareProvider client_provider(2);
  tls::TlsContextConfig ccfg;
  ccfg.cipher_suites = scfg.cipher_suites;
  tls::TlsContext cctx(ccfg, &client_provider);

  client::Pool pool;
  for (int i = 0; i < clients; ++i) {
    client::ClientOptions copts;  // full handshake per request
    pool.add(std::make_unique<client::HttpsClient>(
        &cctx,
        [&worker]() -> int {
          auto pair = net::make_socketpair();
          if (!pair.is_ok()) return -1;
          (void)worker.adopt(pair.value().second);
          return pair.value().first;
        },
        copts, 100 + static_cast<uint64_t>(i)));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto& c : pool.clients()) c->step();
    worker.run_once(0);
  }

  const client::ClientStats stats = pool.aggregate();
  RunOutcome out;
  out.cps = static_cast<double>(stats.connections) / seconds;
  out.mean_latency_ms = stats.response_time.mean_nanos() / 1e6;
  out.errors = stats.errors;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds = argc > 1 ? std::atoi(argv[1]) : 2;
  const int clients = argc > 2 ? std::atoi(argv[2]) : 8;
  std::printf(
      "=== Real-plane configuration comparison (wall clock, 1 worker, %d "
      "clients, %ds each) ===\n"
      "Note: the worker and its clients share one thread and the device\n"
      "engines compute on the host's other cores, so absolute CPS is small;\n"
      "the figure benches (virtual time) are the calibrated reproduction.\n"
      "This binary demonstrates the live pipeline ordering.\n\n",
      clients, seconds);

  TextTable table({"config", "CPS", "mean latency ms", "errors"});
  struct Row {
    const char* name;
    bool qat;
    engine::OffloadMode mode;
    server::PollScheme poll;
    server::NotifyScheme notify;
  };
  const Row rows[] = {
      {"SW", false, engine::OffloadMode::kSync, server::PollScheme::kInline,
       server::NotifyScheme::kKernelBypass},
      {"QAT+S", true, engine::OffloadMode::kSync,
       server::PollScheme::kInline, server::NotifyScheme::kKernelBypass},
      {"QAT+A (timer+fd)", true, engine::OffloadMode::kAsync,
       server::PollScheme::kTimer, server::NotifyScheme::kFd},
      {"QAT+AH (heur+fd)", true, engine::OffloadMode::kAsync,
       server::PollScheme::kHeuristic, server::NotifyScheme::kFd},
      {"QTLS (heur+kb)", true, engine::OffloadMode::kAsync,
       server::PollScheme::kHeuristic, server::NotifyScheme::kKernelBypass},
  };
  uint64_t total_errors = 0;
  for (const Row& row : rows) {
    const RunOutcome r =
        run_config(row.qat, row.mode, row.poll, row.notify, seconds, clients);
    total_errors += r.errors;
    table.add_row({row.name, format_double(r.cps, 0),
                   format_double(r.mean_latency_ms, 1),
                   std::to_string(r.errors)});
  }
  std::printf("%s", table.render().c_str());
  return total_errors == 0 ? 0 : 1;
}
