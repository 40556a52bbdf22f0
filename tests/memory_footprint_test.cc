// Idle-footprint regression tests (DESIGN.md §14, S2 of the scale pass):
// once a connection reaches established, its handshake-phase state —
// transcript, reassembly buffer, key-schedule intermediates — must be wiped
// and released, and the record layer must shed its handshake high-water
// buffers. Pre-fix, every established connection dragged that scratch
// around for its whole keepalive life; at a million connections the
// difference is gigabytes.
#include <gtest/gtest.h>

#include <memory>

#include "common/slab.h"
#include "crypto/keystore.h"
#include "server/worker.h"
#include "server_test_util.h"
#include "tls_test_util.h"

namespace qtls::tls {
namespace {

using testutil::pump_handshake;
using testutil::pump_read;
using testutil::pump_write;

struct Pair {
  net::MemoryPipe pipe;
  engine::SoftwareProvider server_provider{1};
  engine::SoftwareProvider client_provider{2};
  std::unique_ptr<TlsContext> server_ctx;
  std::unique_ptr<TlsContext> client_ctx;
  common::SlabPool<HandshakeScratch> scratch_pool;
  std::unique_ptr<TlsConnection> server;
  std::unique_ptr<TlsConnection> client;

  explicit Pair(CipherSuite suite, bool tickets = false) {
    TlsContextConfig server_cfg;
    server_cfg.is_server = true;
    server_cfg.cipher_suites = {suite};
    server_cfg.use_session_tickets = tickets;
    server_cfg.drbg_seed = 111;
    server_ctx = std::make_unique<TlsContext>(server_cfg, &server_provider);
    server_ctx->credentials().rsa_key = &test_rsa2048();
    server_ctx->credentials().ecdsa_p256 = &test_ec_key_p256();
    server_ctx->credentials().ecdsa_p384 = &test_ec_key_p384();

    TlsContextConfig client_cfg;
    client_cfg.cipher_suites = {suite};
    client_cfg.drbg_seed = 222;
    client_ctx = std::make_unique<TlsContext>(client_cfg, &client_provider);

    server = std::make_unique<TlsConnection>(server_ctx.get(), &pipe.b(),
                                             &scratch_pool);
    client = std::make_unique<TlsConnection>(client_ctx.get(), &pipe.a(),
                                             &scratch_pool);
  }

  size_t server_idle_bytes() const {
    return sizeof(TlsConnection) + server->heap_footprint();
  }
};

// Full handshake, then one echo so both directions carried traffic and the
// connection is in its steady keepalive state.
void settle(Pair& pair) {
  ASSERT_TRUE(pump_handshake(pair.client.get(), pair.server.get()).ok);
  ASSERT_EQ(pump_write(pair.client.get(), to_bytes("ping")), TlsResult::kOk);
  Bytes got;
  ASSERT_EQ(pump_read(pair.server.get(), &got), TlsResult::kOk);
  EXPECT_EQ(to_string(got), "ping");
  // Drain both sides to their keepalive-idle state (the read that reports
  // kWantRead is the one that sheds the RX chunk).
  got.clear();
  EXPECT_EQ(pump_read(pair.server.get(), &got), TlsResult::kWantRead);
  EXPECT_EQ(pump_read(pair.client.get(), &got), TlsResult::kWantRead);
}

TEST(IdleFootprint, HandshakeScratchReleasedAtEstablished) {
  Pair pair(CipherSuite::kTlsRsaWithAes128CbcSha);
  EXPECT_FALSE(pair.server->handshake_state_released());
  settle(pair);
  EXPECT_TRUE(pair.server->handshake_state_released());
  EXPECT_TRUE(pair.client->handshake_state_released());
  // Both scratches returned to the pool; the slots stay carved for reuse.
  EXPECT_EQ(pair.scratch_pool.live(), 0u);
  EXPECT_EQ(pair.scratch_pool.stats().total_frees, 2u);
}

// The headline S2 number: an idle established server connection pins at
// most 1 KiB (object plus heap). The same budget gates bench/million_conn.
TEST(IdleFootprint, IdleServerConnectionFitsOneKilobyte) {
  Pair pair(CipherSuite::kTlsRsaWithAes128CbcSha);
  settle(pair);
  EXPECT_LE(pair.server_idle_bytes(), 1024u);
}

// TLS 1.3 with tickets: the post-handshake NewSessionTicket flows through
// the record layer without the handshake scratch, and resumption state
// survives the release.
TEST(IdleFootprint, Tls13TicketFlowSurvivesScratchRelease) {
  Pair pair(CipherSuite::kTls13Aes128Sha256, /*tickets=*/true);
  settle(pair);
  EXPECT_TRUE(pair.server->handshake_state_released());
  // Client captured the ticket after its scratch was gone (kDone records a
  // ticketless session; the post-handshake NST read fills it in).
  for (int i = 0; i < 50; ++i) {
    if (pair.client->established_session().has_value() &&
        !pair.client->established_session()->ticket.empty())
      break;
    Bytes sink;
    (void)pair.client->read(&sink);
  }
  ASSERT_TRUE(pair.client->established_session().has_value());
  EXPECT_FALSE(pair.client->established_session()->ticket.empty());
}

// The reassembly high-water regression: a handshake that buffered multi-KB
// flights must not leave that capacity pinned in the receive buffer.
TEST(IdleFootprint, RecvBufferHighWaterShedAfterHandshake) {
  Pair pair(CipherSuite::kEcdheRsaWithAes128CbcSha);
  settle(pair);
  // The client buffered the server's Certificate..Done flight (several KB);
  // after release only the (empty) steady-state buffer remains.
  EXPECT_LE(pair.client->record_layer().recv_buffer_capacity(), 1024u);
}

// ------------------------------------------------------- worker surface ----

struct WorkerRig {
  engine::SoftwareProvider server_provider{3};
  std::unique_ptr<TlsContext> server_ctx;
  engine::SoftwareProvider client_provider{99};
  std::unique_ptr<TlsContext> client_ctx;
  std::unique_ptr<server::Worker> worker;
  uint64_t vnow = 1000;

  WorkerRig() {
    TlsContextConfig scfg;
    scfg.is_server = true;
    scfg.cipher_suites = {CipherSuite::kTlsRsaWithAes128CbcSha};
    scfg.drbg_seed = 1;
    server_ctx = std::make_unique<TlsContext>(scfg, &server_provider);
    server_ctx->credentials().rsa_key = &test_rsa2048();

    TlsContextConfig ccfg;
    ccfg.cipher_suites = scfg.cipher_suites;
    ccfg.drbg_seed = 2;
    client_ctx = std::make_unique<TlsContext>(ccfg, &client_provider);

    server::WorkerConfig wcfg;
    wcfg.clock = [this] { return vnow; };
    worker = std::make_unique<server::Worker>(server_ctx.get(), nullptr, wcfg);
  }

  // Adopts one end of a socketpair and completes a client handshake on the
  // other. Returns the client connection (keeps the link alive).
  struct Client {
    int fd;
    net::SocketTransport transport;
    TlsConnection tls;
    Client(TlsContext* ctx, int client_fd)
        : fd(client_fd), transport(client_fd), tls(ctx, &transport) {}
    ~Client() { ::close(fd); }
  };

  std::unique_ptr<Client> connect_and_handshake() {
    auto pair = net::make_socketpair();
    if (!pair.is_ok()) return nullptr;
    (void)worker->adopt(pair.value().second);
    auto client = std::make_unique<Client>(client_ctx.get(),
                                           pair.value().first);
    for (int i = 0; i < 200; ++i) {
      const TlsResult r = client->tls.handshake();
      worker->run_once(0);
      if (r == TlsResult::kOk && client->tls.handshake_complete())
        return client;
    }
    return nullptr;
  }
};

TEST(IdleFootprint, WorkerGaugeAndStatsJsonReportMemoryPlane) {
  WorkerRig rig;
  auto client = rig.connect_and_handshake();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(rig.worker->released_scratch_connections(), 1u);
  const size_t bpc = rig.worker->bytes_per_conn();
  EXPECT_GT(bpc, 0u);
  // One idle connection, read through the public accessor: the worker's
  // connection slot (transport + TLS state) and everything it owns on the
  // heap fit in 2 KiB.
  EXPECT_LE(bpc, 2048u);

  // stats_json carries the memory object, with the same bytes_per_conn.
  const std::string json = rig.worker->stats_json();
  EXPECT_NE(json.find("\"memory\":"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_per_conn\":"), std::string::npos);
#if QTLS_SLAB_STATS_ENABLED
  EXPECT_NE(json.find("\"slabs\":"), std::string::npos);
  EXPECT_NE(json.find("server.hs_scratch"), std::string::npos);
#endif
  EXPECT_EQ(server::testutil::stats_field(json, "memory", "bytes_per_conn"),
            static_cast<int64_t>(rig.worker->bytes_per_conn()));
}

}  // namespace
}  // namespace qtls::tls
