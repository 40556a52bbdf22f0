// TlsConnection: the SSL* analogue — non-blocking handshake/read/write/
// shutdown entry points returning the TlsResult codes the paper's Nginx
// patches dispatch on (§4.2). In async mode every entry point runs inside a
// fiber AsyncJob; a crypto offload inside the QAT engine pauses the job and
// the call returns kWantAsync. Resuming is calling the same entry point
// again after the async event — the connection keeps the paused job.
//
// Layering of re-entry concerns:
//   transport readiness  -> explicit handshake state machine (kWantRead
//                           finishes the job, as in OpenSSL)
//   crypto completion    -> fiber pause/resume inside one state
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "asyncx/job.h"
#include "common/slab.h"
#include "tls/context.h"
#include "tls/key_schedule.h"
#include "tls/messages.h"
#include "tls/record.h"

namespace qtls::tls {

// Client-side resumable session (the s_time "reuse" data).
struct ClientSession {
  CipherSuite suite = CipherSuite::kTlsRsaWithAes128CbcSha;
  Bytes session_id;
  Bytes ticket;
  Bytes master_secret;
};

// Handshake-phase state of one connection (DESIGN.md §14): everything a
// connection needs only until it reaches established — randoms, transcript,
// reassembly buffer, key-exchange material, key-schedule intermediates.
// Lives in a per-worker slab (heap when no pool is supplied) and is wiped
// and released wholesale at the kDone transition, so an idle established
// connection carries only record keys, cursors, and timer links.
struct HandshakeScratch {
  Bytes client_random;
  Bytes server_random;
  Bytes session_id;
  Bytes premaster;
  Bytes master_secret;
  SessionKeys session_keys;
  bool keys_derived = false;
  engine::KeyShare ecdhe_share;      // our ephemeral share
  Bytes peer_point;                  // peer ECDSA public key (client side)
  bool peer_ecdsa_p384 = false;      // which prime curve signed the SKE
  CurveId ske_curve = CurveId::kP256;  // ECDHE group from ServerKeyExchange
  Bytes server_kx_point;             // server ephemeral point (client side)
  RsaPublicKey peer_rsa;             // client: server's key from Certificate
  Bytes transcript;                  // running handshake transcript
  std::optional<ClientSession> offered_session;
  Bytes pending_ticket;              // client: ticket received this handshake

  // TLS 1.3 state (AES-GCM record protection, RFC 8446 §7.3).
  Tls13Secrets secrets13;
  AeadKeys client_hs_keys13, server_hs_keys13;
  AeadKeys client_app_keys13, server_app_keys13;

  // Buffer of handshake messages extracted from records but not consumed.
  Bytes hs_buffer;

  // Zero every secret-bearing field in place (slab slots are recycled).
  void wipe_secrets();
  // Approximate heap bytes owned by this scratch (excluding sizeof(*this)).
  size_t heap_footprint() const;
};

// Per-connection crypto op accounting — verifies Table 1 in tests/benches.
struct OpCounters {
  int rsa = 0;       // RSA private ops
  int ecc = 0;       // EC point-multiplication ops
  int prf = 0;       // TLS 1.2 PRF invocations
  int hkdf = 0;      // TLS 1.3 HKDF invocations (not offloadable)
  int cipher = 0;    // record protection ops
};

class TlsConnection {
 public:
  // `scratch_pool` (optional) slab-allocates the handshake scratch; without
  // one the scratch lives on the heap. Single-threaded pools: pass a pool
  // owned by the same worker/thread that drives this connection.
  TlsConnection(TlsContext* ctx, Transport* transport,
                common::SlabPool<HandshakeScratch>* scratch_pool = nullptr);
  ~TlsConnection();

  TlsConnection(const TlsConnection&) = delete;
  TlsConnection& operator=(const TlsConnection&) = delete;

  // Drive the handshake. kOk = complete; kWantRead/kWantWrite = transport;
  // kWantAsync = offload in flight, reschedule this same call (§4.2).
  TlsResult handshake();

  // Read one record's worth of application data (appends to *out).
  TlsResult read(Bytes* out);
  // Write application data (fragments to 16 KB records).
  TlsResult write(BytesView data);
  // Send close_notify.
  TlsResult shutdown();
  // Queue + flush one alert through the normal entry machinery (async mode
  // may return kWantAsync when the record seal offloads; resume by closing
  // through drain_paused_job). Used by the overload plane to tell the peer
  // *why* a connection is being torn down. Fails when an entry point is
  // paused mid-crypto — the fiber owns the record stream.
  TlsResult send_alert(AlertLevel level, AlertDescription desc);
  // Description of the last alert actually queued to the peer (by
  // send_alert or by an entry point reacting to a fatal parse error).
  std::optional<AlertDescription> last_alert_sent() const {
    return last_alert_sent_;
  }

  bool handshake_complete() const { return hs_state_ == HsState::kDone; }
  bool resumed_session() const { return resumed_; }
  CipherSuite suite() const { return suite_; }
  ProtocolVersion version() const { return version_; }
  const OpCounters& op_counters() const { return ops_; }

  // Client: offer this session for resumption (set before handshake()).
  void offer_session(ClientSession session) {
    if (hs_ != nullptr) hs_->offered_session = std::move(session);
  }
  // Established session for later resumption (valid after handshake).
  const std::optional<ClientSession>& established_session() const {
    return established_session_;
  }

  asyncx::WaitCtx* wait_ctx() { return &wait_ctx_; }
  RecordLayer& record_layer() { return records_; }

  // True once the handshake scratch has been wiped and released (kDone
  // reached).
  bool handshake_state_released() const { return hs_ == nullptr; }
  // Approximate heap bytes owned by this connection: record-layer buffers,
  // handshake scratch (when still held), session state, entry scratch.
  // Feeds the worker's memory.bytes_per_conn gauge and the million_conn
  // bench's idle-footprint gate.
  size_t heap_footprint() const;

  bool has_paused_job() const { return job_ != nullptr; }
  // Resume a paused async job to completion, discarding its result — used
  // when tearing down a connection whose offload is still in flight. `poll`
  // must make progress on the crypto engine (e.g. QatEngineProvider::poll).
  void drain_paused_job(const std::function<void()>& poll);

 private:
  enum class HsState {
    kStart,
    // server
    kExpectClientHello,
    kExpectClientKeyExchange,
    kExpectClientCcs,
    kExpectClientFinished,
    kExpectClientCcsResumed,
    kExpectClientFinishedResumed,
    kExpectClientFinished13,
    // client
    kExpectServerHello,
    kExpectServerHandshake,       // Certificate..ServerHelloDone
    kExpectServerCcs,
    kExpectServerFinished,
    kExpectServerCcsResumed,
    kExpectServerFinishedResumed,
    kExpectServerFlight13,        // EE..Finished
    kDone,
    kClosed,
    kFailed,
  };

  // Entry-point wrapper: runs `fn` inside a fiber when async mode is on.
  TlsResult run_entry(int (*fn)(TlsConnection*));
  static int handshake_entry(TlsConnection* self);
  static int read_entry(TlsConnection* self);
  static int write_entry(TlsConnection* self);
  static int shutdown_entry(TlsConnection* self);
  static int alert_entry(TlsConnection* self);

  // Best-effort alert emission from inside an entry fiber.
  void queue_alert_inline(AlertLevel level, AlertDescription desc);

  TlsResult handshake_step();      // one state transition
  TlsResult server_step();
  TlsResult client_step();
  TlsResult server_step13(const ClientHello& hello, BytesView psk);
  TlsResult client_process_server_flight13();

  // Message plumbing.
  TlsResult next_handshake_message(HandshakeHeader* out);
  TlsResult next_record(Record* out);
  Status send_handshake(HandshakeType type, BytesView body);
  void transcript_add(BytesView framed);
  Bytes transcript_hash() const;

  // Server sub-steps.
  TlsResult server_on_client_hello(const HandshakeHeader& msg);
  TlsResult server_full_handshake_flight(const ClientHello& hello);
  TlsResult server_resume_flight(const ClientHello& hello,
                                 const SessionState& session);
  TlsResult server_on_client_key_exchange(const HandshakeHeader& msg);
  TlsResult server_on_client_finished(const HandshakeHeader& msg,
                                      bool resumed);
  // Client sub-steps.
  TlsResult client_send_hello();
  TlsResult client_on_server_hello(const HandshakeHeader& msg);
  TlsResult client_on_server_flight(const HandshakeHeader& msg);
  TlsResult client_send_second_flight();
  TlsResult client_on_server_finished(const HandshakeHeader& msg,
                                      bool resumed);

  Status derive_and_install_keys();
  void install_tx_keys();
  void install_rx_keys();
  Result<Bytes> finished_verify(const std::string& label);
  void record_established_session();
  // Wipe + release the handshake scratch and shrink the record layer's
  // handshake high-water buffers. Called at every kDone transition; a no-op
  // once released.
  void maybe_release_handshake_state();

  TlsContext* ctx_;
  // Credential snapshot captured at construction (DESIGN.md §15): a hot
  // reload swaps the context's snapshot for new connections, while this
  // connection keeps handshaking against the chain it started with.
  std::shared_ptr<const ServerCredentials> creds_;
  RecordLayer records_;
  asyncx::WaitCtx wait_ctx_;
  asyncx::AsyncJob* job_ = nullptr;

  HsState hs_state_ = HsState::kStart;
  ProtocolVersion version_ = ProtocolVersion::kTls12;
  CipherSuite suite_ = CipherSuite::kTlsRsaWithAes128CbcSha;
  bool resumed_ = false;

  // Handshake-phase state: slab slot (or heap) released at established.
  // Post-established code paths must not touch hs_ — only the fields below
  // survive to the idle steady state.
  common::SlabPool<HandshakeScratch>* scratch_pool_;
  HandshakeScratch* hs_;

  std::optional<ClientSession> established_session_;
  Bytes resumption_master13_;  // "res master" of the completed handshake

  // Entry-point scratch: parameters of the in-flight read()/write() call so
  // the fiber can be resumed by re-invoking the same entry point.
  Bytes* read_out_ = nullptr;
  // The write buffer, filled by write(). Once queued it is the owner the
  // record seal ops borrow their plaintext through, and it stays unchanged
  // while any op holds it (one abandoned at its deadline may still read
  // it); a new write reuses it only when no op does.
  std::shared_ptr<Bytes> write_buf_;
  bool write_pending_ = false;  // write_buf_ holds bytes not yet queued
  AlertLevel alert_level_ = AlertLevel::kFatal;
  AlertDescription alert_desc_ = AlertDescription::kInternalError;

  // Alert chosen by a parse path for the entry wrapper to emit on failure,
  // and the last alert actually queued to the peer.
  std::optional<AlertDescription> pending_alert_;
  std::optional<AlertDescription> last_alert_sent_;

  OpCounters ops_;
};

}  // namespace qtls::tls
