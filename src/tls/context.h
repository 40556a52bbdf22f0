// TlsContext: per-role (server/client) long-lived configuration — the
// SSL_CTX analogue. Owns credentials, cipher preferences, the crypto
// provider binding (software or QAT engine), and a resumption plane
// (session cache + ticket key ring). A standalone context owns a private
// plane; a WorkerPool points every worker's context at one shared plane so
// sessions resume across workers.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "crypto/keystore.h"
#include "engine/provider.h"
#include "tls/session.h"
#include "tls/session_plane.h"
#include "tls/types.h"

namespace qtls::tls {

struct ServerCredentials {
  const RsaPrivateKey* rsa_key = nullptr;        // TLS-RSA / *-RSA suites
  const EcKeyPair* ecdsa_p256 = nullptr;         // ECDHE-ECDSA
  const EcKeyPair* ecdsa_p384 = nullptr;
};

struct TlsContextConfig {
  bool is_server = false;
  // Run TLS operations inside fiber async jobs so crypto offload pauses
  // surface as kWantAsync (the QTLS framework). With false, offloaded ops
  // block in place (straight offload) and software ops just compute.
  bool async_mode = false;
  std::vector<CipherSuite> cipher_suites = {
      CipherSuite::kTlsRsaWithAes128CbcSha};
  CurveId curve = CurveId::kP256;
  // Server: issue session tickets (else session-ID cache only).
  bool use_session_tickets = false;
  // Seeds the context's rng and its private plane's ticket keys.
  uint64_t drbg_seed = 0x746c73637478ULL;
};

class TlsContext {
 public:
  TlsContext(TlsContextConfig config, engine::CryptoProvider* provider);

  const TlsContextConfig& config() const { return config_; }
  bool is_server() const { return config_.is_server; }
  engine::CryptoProvider* provider() const { return provider_; }

  // Setup-time mutable view of the current credential snapshot (the legacy
  // `ctx->credentials().rsa_key = ...` idiom). Mutating through this ref is
  // only safe before connections exist; a running worker swaps credentials
  // with set_credentials() instead.
  ServerCredentials& credentials() { return *creds_; }
  const ServerCredentials& credentials() const { return *creds_; }

  // Hot-reload credential swap (DESIGN.md §15): publishes a fresh snapshot
  // for connections accepted from now on. Each TlsConnection captures the
  // snapshot shared_ptr at construction, so in-flight handshakes finish on
  // the certificate chain they started with — RCU by refcount, no locking.
  // Must run on the thread that owns this context (the worker applies
  // reloads at the top of its own loop).
  void set_credentials(const ServerCredentials& creds) {
    creds_ = std::make_shared<ServerCredentials>(creds);
  }
  std::shared_ptr<const ServerCredentials> credentials_snapshot() const {
    return creds_;
  }

  // Resumption plane: a private SessionPlaneConfig{} plane seeded from
  // drbg_seed by default; another shape or a pool-shared plane comes in
  // through set_session_plane(). The caller must keep that plane alive for
  // the lifetime of every context pointed at it.
  SessionPlane& session_plane() { return *plane_; }
  const SessionPlane& session_plane() const { return *plane_; }
  void set_session_plane(SessionPlane* plane) {
    plane_ = plane != nullptr ? plane : owned_plane_.get();
  }

  ShardedSessionCache& session_cache() { return plane_->cache(); }
  const TicketKeyRing& tickets() const { return plane_->tickets(); }
  HmacDrbg& rng() { return rng_; }

  // Injectable clock (milliseconds) so session expiry is testable.
  void set_clock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }
  uint64_t now_ms() const { return clock_(); }

  // Picks the first mutually supported suite; nullopt on no overlap.
  std::optional<CipherSuite> select_suite(
      const std::vector<CipherSuite>& client_offer) const;

 private:
  TlsContextConfig config_;
  engine::CryptoProvider* provider_;
  std::shared_ptr<ServerCredentials> creds_;
  std::unique_ptr<SessionPlane> owned_plane_;
  SessionPlane* plane_;  // == owned_plane_.get() unless pool-shared
  HmacDrbg rng_;
  std::function<uint64_t()> clock_;
};

}  // namespace qtls::tls
