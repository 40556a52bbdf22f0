// Million-connection scale gate (DESIGN.md §14, EXPERIMENTS.md):
//
//   Part A measures the real idle footprint of an established connection —
//   full handshakes over MemoryPipe, handshake scratch freed and RX chunk
//   shed — and gates on bytes/idle-connection being within a 1 KiB budget.
//
//   Part B drives the fleet DES: a million virtual-time connections across
//   N simulated servers behind a load balancer, with cross-fleet session
//   resumption through deterministic-epoch TicketKeyRings (real seal and
//   unseal per ticket). Gates: every connection completes, the resumption
//   hit rate is >= 0.99, resumed tickets actually cross servers, and the
//   slab pool conserves (live == 0, allocs == frees) at the end.
//
// Exits non-zero when any gate fails; BENCH_JSON lines carry the numbers.
// QTLS_MILLION_CONN_N / QTLS_MILLION_CONN_SERVERS scale the fleet run.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/slab.h"
#include "crypto/keystore.h"
#include "engine/provider.h"
#include "figlib.h"
#include "net/memory_transport.h"
#include "sim/fleet.h"
#include "tls/connection.h"
#include "tls/context.h"

namespace qtls {
namespace {

constexpr size_t kIdleBudget = 1024;  // bytes per idle established connection
constexpr double kMinHitRate = 0.99;

uint64_t env_u64(const char* name, uint64_t dflt) {
  if (const char* e = std::getenv(name)) return std::strtoull(e, nullptr, 10);
  return dflt;
}

// One in-memory client/server pair, same shape as the tier-1 footprint
// tests but gtest-free: the bench measures, the gate decides.
struct Pair {
  net::MemoryPipe pipe;
  engine::SoftwareProvider server_provider{1};
  engine::SoftwareProvider client_provider{2};
  std::unique_ptr<tls::TlsContext> server_ctx;
  std::unique_ptr<tls::TlsContext> client_ctx;
  common::SlabPool<tls::HandshakeScratch> scratch_pool;
  std::unique_ptr<tls::TlsConnection> server;
  std::unique_ptr<tls::TlsConnection> client;

  explicit Pair(uint64_t seed) {
    tls::TlsContextConfig scfg;
    scfg.is_server = true;
    scfg.cipher_suites = {tls::CipherSuite::kTlsRsaWithAes128CbcSha};
    scfg.drbg_seed = seed;
    server_ctx = std::make_unique<tls::TlsContext>(scfg, &server_provider);
    server_ctx->credentials().rsa_key = &test_rsa2048();

    tls::TlsContextConfig ccfg;
    ccfg.cipher_suites = scfg.cipher_suites;
    ccfg.drbg_seed = seed + 1;
    client_ctx = std::make_unique<tls::TlsContext>(ccfg, &client_provider);

    server = std::make_unique<tls::TlsConnection>(server_ctx.get(), &pipe.b(),
                                                  &scratch_pool);
    client = std::make_unique<tls::TlsConnection>(client_ctx.get(), &pipe.a(),
                                                  &scratch_pool);
  }

  // Handshake, one echo, then drain both sides to keepalive-idle (the
  // kWantRead read is what sheds the RX chunk).
  bool settle() {
    for (int i = 0; i < 200; ++i) {
      (void)client->handshake();
      (void)server->handshake();
      if (client->handshake_complete() && server->handshake_complete()) break;
    }
    if (!client->handshake_complete() || !server->handshake_complete())
      return false;
    if (client->write(to_bytes("ping")) != tls::TlsResult::kOk) return false;
    Bytes got;
    if (server->read(&got) != tls::TlsResult::kOk || to_string(got) != "ping")
      return false;
    got.clear();
    (void)server->read(&got);
    (void)client->read(&got);
    return true;
  }

  size_t server_idle_bytes() const {
    return sizeof(tls::TlsConnection) + server->heap_footprint();
  }
};

// Mean idle bytes of an established server connection across `pairs` real
// handshakes. Returns 0 on any handshake failure.
size_t measure_idle_bytes(int pairs) {
  size_t total = 0;
  for (int i = 0; i < pairs; ++i) {
    Pair p(1000 + 10 * static_cast<uint64_t>(i));
    if (!p.settle()) return 0;
    total += p.server_idle_bytes();
  }
  return total / static_cast<size_t>(pairs);
}

int gate(bool ok, const char* what) {
  if (!ok) std::printf("GATE FAIL: %s\n", what);
  return ok ? 0 : 1;
}

int run() {
  bench::print_header("million_conn",
                      "scale pass: idle footprint + fleet resumption");

  // ---- Part A: measured idle bytes/connection ----------------------------
  constexpr int kPairs = 16;
  const size_t released = measure_idle_bytes(kPairs);
  if (released == 0) {
    std::printf("GATE FAIL: footprint handshakes did not complete\n");
    return 1;
  }
  std::printf("idle bytes/connection: released %zu (budget %zu)\n", released,
              kIdleBudget);
  std::printf(
      "BENCH_JSON {\"metric\":\"million_conn.idle_footprint\","
      "\"released_bytes\":%zu,\"budget_bytes\":%zu}\n",
      released, kIdleBudget);

  // ---- Part B: the fleet ---------------------------------------------------
  sim::FleetConfig fc;
  fc.connections =
      static_cast<size_t>(env_u64("QTLS_MILLION_CONN_N", 1'000'000));
  fc.servers = static_cast<size_t>(env_u64("QTLS_MILLION_CONN_SERVERS", 8));
  fc.idle_bytes_per_conn = released;
  sim::FleetSim fleet(fc);
  const sim::FleetResult fr = fleet.run();

  const double sim_sec =
      static_cast<double>(fr.sim_duration) / static_cast<double>(sim::kSec);
  std::printf(
      "fleet: %llu conns on %zu servers in %.0f virtual s — "
      "%llu full, %llu resumed (hit rate %.4f, %llu cross-fleet, "
      "%llu old-epoch), peak live %zu (%.1f MB idle)\n",
      static_cast<unsigned long long>(fr.completed), fc.servers, sim_sec,
      static_cast<unsigned long long>(fr.full_handshakes),
      static_cast<unsigned long long>(fr.resumption_hits), fr.hit_rate(),
      static_cast<unsigned long long>(fr.cross_fleet_hits),
      static_cast<unsigned long long>(fr.old_epoch_hits), fr.peak_live,
      static_cast<double>(fr.peak_idle_bytes) / (1024.0 * 1024.0));
  std::printf(
      "BENCH_JSON {\"metric\":\"million_conn.fleet\",\"connections\":%llu,"
      "\"servers\":%zu,\"full_handshakes\":%llu,"
      "\"resumption_attempts\":%llu,\"resumption_hits\":%llu,"
      "\"hit_rate\":%.4f,\"old_epoch_hits\":%llu,\"cross_fleet_hits\":%llu,"
      "\"peak_live\":%zu,\"peak_idle_bytes\":%zu,\"sim_seconds\":%.0f,"
      "\"slab_allocs\":%llu,\"slab_frees\":%llu}\n",
      static_cast<unsigned long long>(fr.completed), fc.servers,
      static_cast<unsigned long long>(fr.full_handshakes),
      static_cast<unsigned long long>(fr.resumption_attempts),
      static_cast<unsigned long long>(fr.resumption_hits), fr.hit_rate(),
      static_cast<unsigned long long>(fr.old_epoch_hits),
      static_cast<unsigned long long>(fr.cross_fleet_hits), fr.peak_live,
      fr.peak_idle_bytes, sim_sec,
      static_cast<unsigned long long>(fr.slab_allocs),
      static_cast<unsigned long long>(fr.slab_frees));

  // ---- Gates ---------------------------------------------------------------
  int failures = 0;
  failures += gate(released <= kIdleBudget,
                   "idle bytes/connection over budget");
  failures += gate(fr.completed == fc.connections,
                   "fleet did not complete every connection");
  failures += gate(fr.resumption_attempts > 0,
                   "no resumption attempts (scenario broken)");
  failures += gate(fr.hit_rate() >= kMinHitRate,
                   "cross-fleet resumption hit rate below 0.99");
  failures += gate(fr.cross_fleet_hits > 0,
                   "no ticket resumed on a different server than sealed it");
  failures += gate(fr.slab_live_at_end == 0 && fr.slab_allocs == fr.slab_frees,
                   "fleet conn slab did not conserve");
  if (failures == 0) std::printf("ALL GATES PASS\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qtls

int main() { return qtls::run(); }
