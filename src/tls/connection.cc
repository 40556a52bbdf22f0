#include "tls/connection.h"

#include <atomic>

#include "common/log.h"

namespace qtls::tls {

namespace {
constexpr uint8_t kAlertLevelWarning = 1;
constexpr uint8_t kAlertCloseNotify = 0;

int to_int(TlsResult r) { return static_cast<int>(r); }
TlsResult from_int(int v) { return static_cast<TlsResult>(v); }
}  // namespace

TlsConnection::TlsConnection(TlsContext* ctx, Transport* transport,
                             common::SlabPool<HandshakeScratch>* scratch_pool)
    : ctx_(ctx),
      creds_(ctx->credentials_snapshot()),
      records_(transport, ctx->provider(), &ctx->rng()),
      hs_state_(ctx->is_server() ? HsState::kExpectClientHello
                                 : HsState::kStart),
      scratch_pool_(scratch_pool),
      hs_(scratch_pool != nullptr ? scratch_pool->create()
                                  : new HandshakeScratch()) {}

TlsConnection::~TlsConnection() {
  // A paused job holds a fiber stack; abandoning it mid-crypto is only
  // possible if the connection is destroyed with an offload in flight. The
  // job object is leaked deliberately in that rare path rather than resumed
  // into a dead connection. Server code drains connections before teardown.
  if (job_ != nullptr) {
    QTLS_WARN << "TlsConnection destroyed with a paused async job";
  }
  if (hs_ != nullptr) {
    // Torn down mid-handshake: wipe + free here instead.
    hs_->wipe_secrets();
    if (scratch_pool_ != nullptr) {
      scratch_pool_->destroy(hs_);
    } else {
      delete hs_;
    }
    hs_ = nullptr;
  }
}

// ---------------------------------------------------- handshake scratch ----

void HandshakeScratch::wipe_secrets() {
  wipe_key_schedule(premaster);
  wipe_key_schedule(master_secret);
  wipe_key_schedule(session_keys);
  wipe_key_schedule(secrets13);
  wipe_key_schedule(client_hs_keys13);
  wipe_key_schedule(server_hs_keys13);
  wipe_key_schedule(client_app_keys13);
  wipe_key_schedule(server_app_keys13);
  secure_wipe(ecdhe_share.priv.data(), ecdhe_share.priv.size());
  if (offered_session.has_value())
    wipe_key_schedule(offered_session->master_secret);
}

size_t HandshakeScratch::heap_footprint() const {
  size_t n = client_random.capacity() + server_random.capacity() +
             session_id.capacity() + premaster.capacity() +
             master_secret.capacity() + peer_point.capacity() +
             server_kx_point.capacity() + transcript.capacity() +
             pending_ticket.capacity() + hs_buffer.capacity();
  n += session_keys.client_write.enc_key.capacity() +
       session_keys.client_write.mac_key.capacity() +
       session_keys.server_write.enc_key.capacity() +
       session_keys.server_write.mac_key.capacity();
  n += secrets13.handshake_secret.capacity() +
       secrets13.client_hs_traffic.capacity() +
       secrets13.server_hs_traffic.capacity() +
       secrets13.master_secret.capacity() +
       secrets13.client_app_traffic.capacity() +
       secrets13.server_app_traffic.capacity();
  for (const AeadKeys* k : {&client_hs_keys13, &server_hs_keys13,
                            &client_app_keys13, &server_app_keys13})
    n += k->key.capacity() + k->iv.capacity();
  n += ecdhe_share.priv.capacity() + ecdhe_share.pub_point.capacity();
  if (offered_session.has_value())
    n += offered_session->session_id.capacity() +
         offered_session->ticket.capacity() +
         offered_session->master_secret.capacity();
  return n;
}

void TlsConnection::maybe_release_handshake_state() {
  if (hs_ == nullptr) return;
  hs_->wipe_secrets();
  if (scratch_pool_ != nullptr) {
    scratch_pool_->destroy(hs_);
  } else {
    delete hs_;
  }
  hs_ = nullptr;
  // The record layer's RX buffer carries the handshake flight's high-water
  // capacity; give it back too (S2: the 64 KiB reassembly retention bug).
  records_.shrink_after_handshake();
}

size_t TlsConnection::heap_footprint() const {
  size_t n = records_.heap_footprint();
  if (hs_ != nullptr) n += sizeof(HandshakeScratch) + hs_->heap_footprint();
  n += resumption_master13_.capacity();
  if (write_buf_) n += write_buf_->capacity();
  if (established_session_.has_value())
    n += established_session_->session_id.capacity() +
         established_session_->ticket.capacity() +
         established_session_->master_secret.capacity();
  return n;
}

// --------------------------------------------------------------- entry ----

TlsResult TlsConnection::run_entry(int (*fn)(TlsConnection*)) {
  if (!ctx_->config().async_mode) return from_int(fn(this));
  int ret = to_int(TlsResult::kError);
  const asyncx::JobStatus status =
      asyncx::start_job(&job_, &wait_ctx_, &ret, [fn, this] { return fn(this); });
  switch (status) {
    case asyncx::JobStatus::kPaused:
      return TlsResult::kWantAsync;
    case asyncx::JobStatus::kError:
      return TlsResult::kError;
    case asyncx::JobStatus::kFinished:
      return from_int(ret);
  }
  return TlsResult::kError;
}

TlsResult TlsConnection::handshake() { return run_entry(&handshake_entry); }

void TlsConnection::drain_paused_job(const std::function<void()>& poll) {
  // Bounded: every iteration polls, and a response eventually completes the
  // fiber's wait loop; the guard only protects against a wedged engine.
  for (int guard = 0; job_ != nullptr && guard < 1000000; ++guard) {
    if (poll) poll();
    int ret = 0;
    (void)asyncx::start_job(&job_, &wait_ctx_, &ret, nullptr);
  }
  if (job_ != nullptr) {
    QTLS_ERROR << "drain_paused_job failed to complete the async job";
  }
}

int TlsConnection::handshake_entry(TlsConnection* self) {
  for (;;) {
    switch (self->hs_state_) {
      case HsState::kDone:
        return to_int(TlsResult::kOk);
      case HsState::kFailed:
        return to_int(TlsResult::kError);
      case HsState::kClosed:
        return to_int(TlsResult::kClosed);
      default:
        break;
    }
    const TlsResult r = self->handshake_step();
    if (r != TlsResult::kOk) {
      if (r == TlsResult::kError) {
        // Tell the peer why before failing (RFC 5246 §7.2.2). We are still
        // inside the entry fiber, so an encrypted alert may legitimately
        // pause on the seal and surface as kWantAsync to the caller.
        auto alert = self->pending_alert_ ? self->pending_alert_
                                          : self->records_.last_error_alert();
        self->pending_alert_.reset();
        if (alert) self->queue_alert_inline(AlertLevel::kFatal, *alert);
        self->hs_state_ = HsState::kFailed;
      }
      return to_int(r);
    }
  }
}

TlsResult TlsConnection::handshake_step() {
  // Finish any pending flush first (a prior step may have hit kWantWrite).
  if (!records_.send_buffer_empty()) {
    const TlsResult r = records_.flush();
    if (r != TlsResult::kOk) return r;
  }
  return ctx_->is_server() ? server_step() : client_step();
}

// ------------------------------------------------------------ plumbing ----

TlsResult TlsConnection::next_record(Record* out) {
  RecordLayer::ReadOutcome outcome = records_.read_record();
  if (!outcome.record.has_value()) return outcome.result;
  *out = std::move(*outcome.record);
  return TlsResult::kOk;
}

TlsResult TlsConnection::next_handshake_message(HandshakeHeader* out) {
  for (;;) {
    if (hs_->hs_buffer.size() >= 4) {
      // Reassembly cap: the claimed message length bounds hs_->hs_buffer growth
      // (buffer never exceeds cap + one record). A hostile claim is a
      // fatal decode_error before any of it is buffered.
      const uint32_t claimed = static_cast<uint32_t>(hs_->hs_buffer[1]) << 16 |
                               static_cast<uint32_t>(hs_->hs_buffer[2]) << 8 |
                               hs_->hs_buffer[3];
      if (claimed > kMaxHandshakeMessage) {
        pending_alert_ = AlertDescription::kDecodeError;
        return TlsResult::kError;
      }
      size_t consumed = 0;
      auto parsed = parse_handshake(hs_->hs_buffer, &consumed);
      if (parsed.is_ok()) {
        transcript_add(BytesView(hs_->hs_buffer.data(), consumed));
        *out = std::move(parsed).take();
        hs_->hs_buffer.erase(hs_->hs_buffer.begin(),
                         hs_->hs_buffer.begin() + static_cast<ptrdiff_t>(consumed));
        return TlsResult::kOk;
      }
      // kProtocolError from truncation means "need more bytes" — fall
      // through to read another record; other errors are fatal only when a
      // full length is present, which parse_handshake already checked.
    }
    Record record;
    const TlsResult r = next_record(&record);
    if (r != TlsResult::kOk) return r;
    if (record.type == ContentType::kAlert) return TlsResult::kClosed;
    if (record.type != ContentType::kHandshake) {
      QTLS_WARN << "unexpected record type "
                << static_cast<int>(record.type) << " during handshake";
      pending_alert_ = AlertDescription::kUnexpectedMessage;
      return TlsResult::kError;
    }
    append(hs_->hs_buffer, record.payload);
  }
}

Status TlsConnection::send_handshake(HandshakeType type, BytesView body) {
  const Bytes framed = frame_handshake(type, body);
  transcript_add(framed);
  return records_.queue(ContentType::kHandshake, framed);
}

void TlsConnection::transcript_add(BytesView framed) {
  append(hs_->transcript, framed);
}

Bytes TlsConnection::transcript_hash() const {
  return hash(cipher_suite_info(suite_).prf_hash, hs_->transcript);
}

// ---------------------------------------------------------- key install ----

Status TlsConnection::derive_and_install_keys() {
  const CipherSuiteInfo& info = cipher_suite_info(suite_);
  QTLS_ASSIGN_OR_RETURN(
      SessionKeys keys,
      tls12_key_expansion(ctx_->provider(), info, hs_->master_secret,
                          hs_->client_random, hs_->server_random));
  ++ops_.prf;
  hs_->session_keys = std::move(keys);
  hs_->keys_derived = true;
  return Status::ok();
}

void TlsConnection::install_tx_keys() {
  records_.enable_encryption_tx(ctx_->is_server() ? hs_->session_keys.server_write
                                                  : hs_->session_keys.client_write);
}

void TlsConnection::install_rx_keys() {
  records_.enable_encryption_rx(ctx_->is_server() ? hs_->session_keys.client_write
                                                  : hs_->session_keys.server_write);
}

Result<Bytes> TlsConnection::finished_verify(const std::string& label) {
  const CipherSuiteInfo& info = cipher_suite_info(suite_);
  auto out = tls12_finished_verify(ctx_->provider(), info.prf_hash,
                                   hs_->master_secret, label, transcript_hash());
  if (out.is_ok()) ++ops_.prf;
  return out;
}

void TlsConnection::record_established_session() {
  ClientSession session;
  session.suite = suite_;
  session.master_secret = hs_->master_secret;
  session.session_id = hs_->session_id;
  session.ticket = hs_->pending_ticket;
  established_session_ = std::move(session);
}

// ------------------------------------------------------------- server ----

TlsResult TlsConnection::server_step() {
  switch (hs_state_) {
    case HsState::kExpectClientHello: {
      HandshakeHeader msg;
      const TlsResult r = next_handshake_message(&msg);
      if (r != TlsResult::kOk) return r;
      if (msg.type != HandshakeType::kClientHello) return TlsResult::kError;
      return server_on_client_hello(msg);
    }
    case HsState::kExpectClientKeyExchange: {
      HandshakeHeader msg;
      const TlsResult r = next_handshake_message(&msg);
      if (r != TlsResult::kOk) return r;
      if (msg.type != HandshakeType::kClientKeyExchange)
        return TlsResult::kError;
      return server_on_client_key_exchange(msg);
    }
    case HsState::kExpectClientCcs:
    case HsState::kExpectClientCcsResumed: {
      Record record;
      const TlsResult r = next_record(&record);
      if (r != TlsResult::kOk) return r;
      if (record.type != ContentType::kChangeCipherSpec)
        return TlsResult::kError;
      install_rx_keys();
      hs_state_ = hs_state_ == HsState::kExpectClientCcs
                      ? HsState::kExpectClientFinished
                      : HsState::kExpectClientFinishedResumed;
      return TlsResult::kOk;
    }
    case HsState::kExpectClientFinished:
    case HsState::kExpectClientFinishedResumed: {
      HandshakeHeader msg;
      const TlsResult r = next_handshake_message(&msg);
      if (r != TlsResult::kOk) return r;
      if (msg.type != HandshakeType::kFinished) return TlsResult::kError;
      return server_on_client_finished(
          msg, hs_state_ == HsState::kExpectClientFinishedResumed);
    }
    case HsState::kExpectClientFinished13: {
      HandshakeHeader msg;
      const TlsResult r = next_handshake_message(&msg);
      if (r != TlsResult::kOk) return r;
      if (msg.type != HandshakeType::kFinished) return TlsResult::kError;
      // Expected verify over the transcript up to (not including) this
      // Finished; next_handshake_message already added the client Finished
      // frame, so compute against the remembered pre-Finished transcript.
      // We kept it implicit: recompute by stripping the frame we just added.
      Bytes pre_finished(hs_->transcript.begin(),
                         hs_->transcript.end() -
                             static_cast<ptrdiff_t>(4 + msg.body.size()));
      const HashAlg alg = cipher_suite_info(suite_).prf_hash;
      const Bytes expect = tls13_finished_verify(
          alg, hs_->secrets13.client_hs_traffic, hash(alg, pre_finished),
          &ops_.hkdf);
      if (!ct_equal(expect, msg.body)) return TlsResult::kError;
      // Switch both directions to application traffic keys.
      records_.enable_encryption_tx(hs_->server_app_keys13);
      records_.enable_encryption_rx(hs_->client_app_keys13);
      // Post-handshake NewSessionTicket (RFC 8446 §4.6.1), sealing the
      // resumption master secret for a later psk_dhe_ke handshake. The
      // kDone transition comes after the ticket is sealed and queued: its
      // record encryption may itself be an async offload, and the
      // handshake must not report complete with that job still paused.
      if (ctx_->config().use_session_tickets) {
        resumption_master13_ = tls13_resumption_master(
            alg, hs_->secrets13.master_secret, hash(alg, hs_->transcript),
            &ops_.hkdf);
        SessionState state;
        state.suite = suite_;
        state.master_secret = resumption_master13_;
        NewSessionTicketMsg nst;
        nst.ticket = ctx_->tickets().seal(state, ctx_->now_ms(), ctx_->rng());
        if (!send_handshake(HandshakeType::kNewSessionTicket, nst.encode())
                 .is_ok())
          return TlsResult::kError;
        const TlsResult fr = records_.flush();
        if (fr != TlsResult::kOk && fr != TlsResult::kWantWrite)
          return fr;
      }
      hs_state_ = HsState::kDone;
      maybe_release_handshake_state();
      return TlsResult::kOk;
    }
    default:
      return TlsResult::kError;
  }
}

TlsResult TlsConnection::server_on_client_hello(const HandshakeHeader& msg) {
  auto parsed = ClientHello::parse(msg.body);
  if (!parsed.is_ok()) return TlsResult::kError;
  const ClientHello& hello = parsed.value();

  const auto selected = ctx_->select_suite(hello.cipher_suites);
  if (!selected.has_value()) return TlsResult::kError;
  suite_ = *selected;
  hs_->client_random = hello.random;
  hs_->server_random.resize(kRandomSize);
  ctx_->rng().generate(hs_->server_random.data(), hs_->server_random.size());

  if (cipher_suite_info(suite_).tls13 &&
      hello.version == ProtocolVersion::kTls13 && !hello.key_share.empty()) {
    version_ = ProtocolVersion::kTls13;
    // psk_dhe_ke resumption: a valid ticket supplies the PSK; the handshake
    // still runs ECDHE (forward secrecy) but skips certificate/signature.
    if (!hello.session_ticket.empty()) {
      auto unsealed =
          ctx_->tickets().unseal(hello.session_ticket, ctx_->now_ms());
      if (unsealed.is_ok() && unsealed.value().state.suite == suite_)
        return server_step13(hello, unsealed.value().state.master_secret);
    }
    return server_step13(hello, {});
  }
  version_ = ProtocolVersion::kTls12;

  // Resumption: ticket first (self-contained), then the session-ID cache.
  const uint64_t now = ctx_->now_ms();
  if (!hello.session_ticket.empty()) {
    auto unsealed = ctx_->tickets().unseal(hello.session_ticket, now);
    if (unsealed.is_ok() && unsealed.value().state.suite == suite_)
      return server_resume_flight(hello, unsealed.value().state);
  }
  if (hello.session_id.size() == kSessionIdSize) {
    auto state = ctx_->session_cache().get(hello.session_id, now);
    if (state.has_value() && state->suite == suite_) {
      hs_->session_id = hello.session_id;
      return server_resume_flight(hello, *state);
    }
  }
  return server_full_handshake_flight(hello);
}

TlsResult TlsConnection::server_full_handshake_flight(
    const ClientHello& hello) {
  const CipherSuiteInfo& info = cipher_suite_info(suite_);
  resumed_ = false;

  hs_->session_id.resize(kSessionIdSize);
  ctx_->rng().generate(hs_->session_id.data(), hs_->session_id.size());

  ServerHello sh;
  sh.version = ProtocolVersion::kTls12;
  sh.random = hs_->server_random;
  sh.session_id = hs_->session_id;
  sh.cipher_suite = suite_;
  sh.resumed = false;
  if (send_handshake(HandshakeType::kServerHello, sh.encode()).is_ok() ==
      false)
    return TlsResult::kError;

  // Certificate: raw public key of the signing credential.
  CertificateMsg cert;
  if (info.kx == KeyExchange::kEcdheEcdsa) {
    const bool p384 = ctx_->config().curve == CurveId::kP384;
    const EcKeyPair* key = p384 ? creds_->ecdsa_p384
                                : creds_->ecdsa_p256;
    if (!key) return TlsResult::kError;
    cert.cred_type =
        p384 ? CredentialType::kEcdsaP384 : CredentialType::kEcdsaP256;
    cert.public_key =
        (p384 ? curve_p384() : curve_p256()).encode_point(key->pub);
  } else {
    if (!creds_->rsa_key) return TlsResult::kError;
    cert.cred_type = CredentialType::kRsa;
    cert.public_key =
        CertificateMsg::encode_rsa_key(creds_->rsa_key->pub);
  }
  if (!send_handshake(HandshakeType::kCertificate, cert.encode()).is_ok())
    return TlsResult::kError;

  if (info.kx != KeyExchange::kRsa) {
    // ServerKeyExchange: ephemeral share + signature. Two provider calls
    // that offload: the EC keygen here and (later) the ECDH derive.
    auto share = ctx_->provider()->ecdhe_keygen(hello.curve);
    if (!share.is_ok()) return TlsResult::kError;
    ++ops_.ecc;
    hs_->ecdhe_share = std::move(share).take();

    ServerKeyExchange ske;
    ske.curve = hello.curve;
    ske.point = hs_->ecdhe_share.pub_point;
    const Bytes digest =
        ServerKeyExchange::signed_digest(info.prf_hash, hs_->client_random,
                                         hs_->server_random, ske.curve, ske.point);
    if (info.kx == KeyExchange::kEcdheRsa) {
      auto sig = ctx_->provider()->rsa_sign(*creds_->rsa_key,
                                            digest);
      if (!sig.is_ok()) return TlsResult::kError;
      ++ops_.rsa;
      ske.signature = std::move(sig).take();
    } else {
      const bool p384 = ctx_->config().curve == CurveId::kP384;
      const CurveId sign_curve = p384 ? CurveId::kP384 : CurveId::kP256;
      const EcKeyPair* key = p384 ? creds_->ecdsa_p384
                                  : creds_->ecdsa_p256;
      auto sig = ctx_->provider()->ecdsa_sign(sign_curve, key->priv, digest);
      if (!sig.is_ok()) return TlsResult::kError;
      ++ops_.ecc;
      ske.signature = std::move(sig).take();
    }
    if (!send_handshake(HandshakeType::kServerKeyExchange, ske.encode())
             .is_ok())
      return TlsResult::kError;
  }

  if (!send_handshake(HandshakeType::kServerHelloDone, {}).is_ok())
    return TlsResult::kError;

  hs_state_ = HsState::kExpectClientKeyExchange;
  const TlsResult r = records_.flush();
  return r == TlsResult::kOk || r == TlsResult::kWantWrite ? TlsResult::kOk
                                                           : r;
}

TlsResult TlsConnection::server_resume_flight(const ClientHello& hello,
                                              const SessionState& session) {
  resumed_ = true;
  hs_->master_secret = session.master_secret;

  ServerHello sh;
  sh.version = ProtocolVersion::kTls12;
  sh.random = hs_->server_random;
  sh.session_id = hello.session_id;
  sh.cipher_suite = suite_;
  sh.resumed = true;
  if (!send_handshake(HandshakeType::kServerHello, sh.encode()).is_ok())
    return TlsResult::kError;

  if (ctx_->config().use_session_tickets) {
    // Re-seal under the current ticket-key epoch, but carry the ORIGINAL
    // creation time forward: the total master-secret lifetime is capped
    // from first establishment, not from the latest resumption.
    SessionState fresh;
    fresh.suite = suite_;
    fresh.master_secret = hs_->master_secret;
    fresh.created_at_ms = session.created_at_ms;
    NewSessionTicketMsg nst;
    nst.ticket = ctx_->tickets().seal(fresh, ctx_->now_ms(), ctx_->rng());
    if (!send_handshake(HandshakeType::kNewSessionTicket, nst.encode())
             .is_ok())
      return TlsResult::kError;
  }

  // Abbreviated handshake: key expansion + server Finished, PRF only
  // (paper §5.3).
  if (!derive_and_install_keys().is_ok()) return TlsResult::kError;

  if (!records_.queue(ContentType::kChangeCipherSpec, Bytes{0x01}).is_ok())
    return TlsResult::kError;
  install_tx_keys();
  auto verify = finished_verify("server finished");
  if (!verify.is_ok()) return TlsResult::kError;
  if (!send_handshake(HandshakeType::kFinished, verify.value()).is_ok())
    return TlsResult::kError;

  hs_state_ = HsState::kExpectClientCcsResumed;
  const TlsResult r = records_.flush();
  return r == TlsResult::kOk || r == TlsResult::kWantWrite ? TlsResult::kOk
                                                           : r;
}

TlsResult TlsConnection::server_on_client_key_exchange(
    const HandshakeHeader& msg) {
  auto parsed = ClientKeyExchange::parse(msg.body);
  if (!parsed.is_ok()) return TlsResult::kError;
  const CipherSuiteInfo& info = cipher_suite_info(suite_);

  if (info.kx == KeyExchange::kRsa) {
    auto premaster = ctx_->provider()->rsa_decrypt(
        *creds_->rsa_key, parsed.value().exchange_data);
    if (!premaster.is_ok()) return TlsResult::kError;
    ++ops_.rsa;
    hs_->premaster = std::move(premaster).take();
    if (hs_->premaster.size() != kMasterSecretSize) return TlsResult::kError;
  } else {
    auto secret = ctx_->provider()->ecdhe_derive(
        hs_->ecdhe_share, parsed.value().exchange_data);
    if (!secret.is_ok()) return TlsResult::kError;
    ++ops_.ecc;
    hs_->premaster = std::move(secret).take();
  }

  auto master = tls12_master_secret(ctx_->provider(),
                                    cipher_suite_info(suite_).prf_hash,
                                    hs_->premaster, hs_->client_random,
                                    hs_->server_random);
  if (!master.is_ok()) return TlsResult::kError;
  ++ops_.prf;
  hs_->master_secret = std::move(master).take();
  secure_wipe(hs_->premaster.data(), hs_->premaster.size());
  if (!derive_and_install_keys().is_ok()) return TlsResult::kError;

  hs_state_ = HsState::kExpectClientCcs;
  return TlsResult::kOk;
}

TlsResult TlsConnection::server_on_client_finished(const HandshakeHeader& msg,
                                                   bool resumed) {
  // Expected verify over the transcript excluding this Finished message.
  Bytes with_finished = std::move(hs_->transcript);
  hs_->transcript.assign(with_finished.begin(),
                     with_finished.end() -
                         static_cast<ptrdiff_t>(4 + msg.body.size()));
  auto expect = finished_verify("client finished");
  hs_->transcript = std::move(with_finished);
  if (!expect.is_ok()) return TlsResult::kError;
  if (!ct_equal(expect.value(), msg.body)) return TlsResult::kError;

  if (!resumed) {
    // Cache / ticket issuance, then CCS + server Finished.
    const uint64_t now = ctx_->now_ms();
    SessionState state;
    state.suite = suite_;
    state.master_secret = hs_->master_secret;
    if (ctx_->config().use_session_tickets) {
      NewSessionTicketMsg nst;
      nst.ticket = ctx_->tickets().seal(state, now, ctx_->rng());
      if (!send_handshake(HandshakeType::kNewSessionTicket, nst.encode())
               .is_ok())
        return TlsResult::kError;
    } else {
      ctx_->session_cache().put(hs_->session_id, state, now);
    }

    if (!records_.queue(ContentType::kChangeCipherSpec, Bytes{0x01}).is_ok())
      return TlsResult::kError;
    install_tx_keys();
    auto verify = finished_verify("server finished");
    if (!verify.is_ok()) return TlsResult::kError;
    if (!send_handshake(HandshakeType::kFinished, verify.value()).is_ok())
      return TlsResult::kError;
    const TlsResult r = records_.flush();
    if (r != TlsResult::kOk && r != TlsResult::kWantWrite) return r;
  }

  record_established_session();
  hs_state_ = HsState::kDone;
  maybe_release_handshake_state();
  return TlsResult::kOk;
}

// ----------------------------------------------------------- TLS 1.3 ----

TlsResult TlsConnection::server_step13(const ClientHello& hello,
                                       BytesView psk) {
  const CipherSuiteInfo& info = cipher_suite_info(suite_);
  resumed_ = !psk.empty();

  // ECDHE: our share + shared secret (two EC ops, both offloadable).
  auto share = ctx_->provider()->ecdhe_keygen(hello.curve);
  if (!share.is_ok()) return TlsResult::kError;
  ++ops_.ecc;
  hs_->ecdhe_share = std::move(share).take();
  auto shared = ctx_->provider()->ecdhe_derive(hs_->ecdhe_share, hello.key_share);
  if (!shared.is_ok()) return TlsResult::kError;
  ++ops_.ecc;
  const Bytes ecdhe_secret = std::move(shared).take();

  ServerHello sh;
  sh.version = ProtocolVersion::kTls13;
  sh.random = hs_->server_random;
  sh.cipher_suite = suite_;
  sh.resumed = resumed_;
  sh.key_share = hs_->ecdhe_share.pub_point;
  if (!send_handshake(HandshakeType::kServerHello, sh.encode()).is_ok())
    return TlsResult::kError;

  // Handshake secrets from the CH..SH transcript; HKDF runs on the CPU —
  // not offloadable through the QAT Engine (paper §5.2 / Fig. 8).
  const HashAlg alg = info.prf_hash;
  hs_->secrets13 = tls13_handshake_secrets(alg, ecdhe_secret,
                                       hash(alg, hs_->transcript), psk);
  hs_->client_hs_keys13 = tls13_aead_keys(alg, hs_->secrets13.client_hs_traffic,
                                      info, &hs_->secrets13.hkdf_ops);
  hs_->server_hs_keys13 = tls13_aead_keys(alg, hs_->secrets13.server_hs_traffic,
                                      info, &hs_->secrets13.hkdf_ops);
  records_.enable_encryption_tx(hs_->server_hs_keys13);

  if (!send_handshake(HandshakeType::kEncryptedExtensions, {}).is_ok())
    return TlsResult::kError;

  if (!resumed_) {
    // Full handshake: certificate + CertificateVerify (the 1 RSA op of
    // Table 1's TLS 1.3 row). PSK resumption skips both — "asymmetric-key
    // calculations can be skipped" (§2.1).
    CertificateMsg cert;
    cert.cred_type = CredentialType::kRsa;
    if (!creds_->rsa_key) return TlsResult::kError;
    cert.public_key =
        CertificateMsg::encode_rsa_key(creds_->rsa_key->pub);
    if (!send_handshake(HandshakeType::kCertificate, cert.encode()).is_ok())
      return TlsResult::kError;

    CertificateVerifyMsg cv;
    auto sig = ctx_->provider()->rsa_sign(*creds_->rsa_key,
                                          hash(alg, hs_->transcript));
    if (!sig.is_ok()) return TlsResult::kError;
    ++ops_.rsa;
    cv.signature = std::move(sig).take();
    if (!send_handshake(HandshakeType::kCertificateVerify, cv.encode())
             .is_ok())
      return TlsResult::kError;
  }

  const Bytes verify = tls13_finished_verify(alg, hs_->secrets13.server_hs_traffic,
                                             hash(alg, hs_->transcript),
                                             &hs_->secrets13.hkdf_ops);
  if (!send_handshake(HandshakeType::kFinished, verify).is_ok())
    return TlsResult::kError;

  // Application secrets over the transcript through server Finished.
  tls13_application_secrets(alg, &hs_->secrets13, hash(alg, hs_->transcript));
  hs_->client_app_keys13 = tls13_aead_keys(alg, hs_->secrets13.client_app_traffic,
                                       info, &hs_->secrets13.hkdf_ops);
  hs_->server_app_keys13 = tls13_aead_keys(alg, hs_->secrets13.server_app_traffic,
                                       info, &hs_->secrets13.hkdf_ops);
  ops_.hkdf = hs_->secrets13.hkdf_ops;
  records_.enable_encryption_rx(hs_->client_hs_keys13);

  hs_state_ = HsState::kExpectClientFinished13;
  const TlsResult r = records_.flush();
  return r == TlsResult::kOk || r == TlsResult::kWantWrite ? TlsResult::kOk
                                                           : r;
}

// ------------------------------------------------------------- client ----

TlsResult TlsConnection::client_step() {
  switch (hs_state_) {
    case HsState::kStart:
      return client_send_hello();
    case HsState::kExpectServerHello: {
      HandshakeHeader msg;
      const TlsResult r = next_handshake_message(&msg);
      if (r != TlsResult::kOk) return r;
      if (msg.type != HandshakeType::kServerHello) return TlsResult::kError;
      return client_on_server_hello(msg);
    }
    case HsState::kExpectServerHandshake: {
      HandshakeHeader msg;
      const TlsResult r = next_handshake_message(&msg);
      if (r != TlsResult::kOk) return r;
      return client_on_server_flight(msg);
    }
    case HsState::kExpectServerCcs:
    case HsState::kExpectServerCcsResumed: {
      Record record;
      const TlsResult r = next_record(&record);
      if (r != TlsResult::kOk) return r;
      if (record.type == ContentType::kHandshake) {
        // NewSessionTicket may precede CCS in both resumed and full flows.
        append(hs_->hs_buffer, record.payload);
        size_t consumed = 0;
        auto parsed = parse_handshake(hs_->hs_buffer, &consumed);
        if (!parsed.is_ok()) return TlsResult::kError;
        transcript_add(BytesView(hs_->hs_buffer.data(), consumed));
        hs_->hs_buffer.erase(hs_->hs_buffer.begin(),
                         hs_->hs_buffer.begin() + static_cast<ptrdiff_t>(consumed));
        if (parsed.value().type != HandshakeType::kNewSessionTicket)
          return TlsResult::kError;
        auto nst = NewSessionTicketMsg::parse(parsed.value().body);
        if (!nst.is_ok()) return TlsResult::kError;
        hs_->pending_ticket = nst.value().ticket;
        return TlsResult::kOk;  // stay in the same state, CCS still expected
      }
      if (record.type != ContentType::kChangeCipherSpec)
        return TlsResult::kError;
      if (hs_state_ == HsState::kExpectServerCcsResumed) {
        // Abbreviated: derive keys now (master secret came from the offer).
        if (!derive_and_install_keys().is_ok()) return TlsResult::kError;
      }
      install_rx_keys();
      hs_state_ = hs_state_ == HsState::kExpectServerCcs
                      ? HsState::kExpectServerFinished
                      : HsState::kExpectServerFinishedResumed;
      return TlsResult::kOk;
    }
    case HsState::kExpectServerFinished:
    case HsState::kExpectServerFinishedResumed: {
      HandshakeHeader msg;
      const TlsResult r = next_handshake_message(&msg);
      if (r != TlsResult::kOk) return r;
      if (msg.type != HandshakeType::kFinished) return TlsResult::kError;
      return client_on_server_finished(
          msg, hs_state_ == HsState::kExpectServerFinishedResumed);
    }
    case HsState::kExpectServerFlight13:
      return client_process_server_flight13();
    default:
      return TlsResult::kError;
  }
}

TlsResult TlsConnection::client_send_hello() {
  ClientHello hello;
  const CipherSuiteInfo& first =
      cipher_suite_info(ctx_->config().cipher_suites.front());
  hello.version =
      first.tls13 ? ProtocolVersion::kTls13 : ProtocolVersion::kTls12;
  hs_->client_random.resize(kRandomSize);
  ctx_->rng().generate(hs_->client_random.data(), hs_->client_random.size());
  hello.random = hs_->client_random;
  hello.cipher_suites = ctx_->config().cipher_suites;
  hello.curve = ctx_->config().curve;

  if (hs_->offered_session.has_value()) {
    if (first.tls13) {
      // psk_dhe_ke offer: ticket only (no legacy session id).
      hello.session_ticket = hs_->offered_session->ticket;
    } else {
      hello.session_id = hs_->offered_session->session_id;
      hello.session_ticket = hs_->offered_session->ticket;
    }
  }

  if (first.tls13) {
    auto share = ctx_->provider()->ecdhe_keygen(hello.curve);
    if (!share.is_ok()) return TlsResult::kError;
    ++ops_.ecc;
    hs_->ecdhe_share = std::move(share).take();
    hello.key_share = hs_->ecdhe_share.pub_point;
  }

  if (!send_handshake(HandshakeType::kClientHello, hello.encode()).is_ok())
    return TlsResult::kError;
  hs_state_ = HsState::kExpectServerHello;
  const TlsResult r = records_.flush();
  return r == TlsResult::kOk || r == TlsResult::kWantWrite ? TlsResult::kOk
                                                           : r;
}

TlsResult TlsConnection::client_on_server_hello(const HandshakeHeader& msg) {
  auto parsed = ServerHello::parse(msg.body);
  if (!parsed.is_ok()) return TlsResult::kError;
  const ServerHello& sh = parsed.value();
  suite_ = sh.cipher_suite;
  version_ = sh.version;
  hs_->server_random = sh.random;
  hs_->session_id = sh.session_id;

  if (sh.version == ProtocolVersion::kTls13) {
    if (sh.key_share.empty()) return TlsResult::kError;
    hs_->peer_point = sh.key_share;
    resumed_ = sh.resumed;
    if (resumed_ && !hs_->offered_session.has_value()) return TlsResult::kError;
    // Derive the shared secret and handshake keys immediately.
    auto shared = ctx_->provider()->ecdhe_derive(hs_->ecdhe_share, hs_->peer_point);
    if (!shared.is_ok()) return TlsResult::kError;
    ++ops_.ecc;
    const CipherSuiteInfo& info = cipher_suite_info(suite_);
    const HashAlg alg = info.prf_hash;
    const Bytes psk =
        resumed_ ? hs_->offered_session->master_secret : Bytes();
    hs_->secrets13 = tls13_handshake_secrets(alg, shared.value(),
                                         hash(alg, hs_->transcript), psk);
    hs_->client_hs_keys13 = tls13_aead_keys(
        alg, hs_->secrets13.client_hs_traffic, info, &hs_->secrets13.hkdf_ops);
    hs_->server_hs_keys13 = tls13_aead_keys(
        alg, hs_->secrets13.server_hs_traffic, info, &hs_->secrets13.hkdf_ops);
    records_.enable_encryption_rx(hs_->server_hs_keys13);
    hs_state_ = HsState::kExpectServerFlight13;
    return TlsResult::kOk;
  }

  if (sh.resumed) {
    if (!hs_->offered_session.has_value()) return TlsResult::kError;
    resumed_ = true;
    hs_->master_secret = hs_->offered_session->master_secret;
    hs_state_ = HsState::kExpectServerCcsResumed;
    return TlsResult::kOk;
  }
  resumed_ = false;
  hs_state_ = HsState::kExpectServerHandshake;
  return TlsResult::kOk;
}

TlsResult TlsConnection::client_on_server_flight(const HandshakeHeader& msg) {
  const CipherSuiteInfo& info = cipher_suite_info(suite_);
  switch (msg.type) {
    case HandshakeType::kCertificate: {
      auto cert = CertificateMsg::parse(msg.body);
      if (!cert.is_ok()) return TlsResult::kError;
      if (cert.value().cred_type == CredentialType::kRsa) {
        auto key = CertificateMsg::decode_rsa_key(cert.value().public_key);
        if (!key.is_ok()) return TlsResult::kError;
        hs_->peer_rsa = std::move(key).take();
      } else {
        hs_->peer_point = cert.value().public_key;  // ECDSA pub, reused below
        hs_->peer_ecdsa_p384 =
            cert.value().cred_type == CredentialType::kEcdsaP384;
      }
      return TlsResult::kOk;
    }
    case HandshakeType::kServerKeyExchange: {
      auto ske = ServerKeyExchange::parse(msg.body);
      if (!ske.is_ok()) return TlsResult::kError;
      const Bytes digest = ServerKeyExchange::signed_digest(
          info.prf_hash, hs_->client_random, hs_->server_random, ske.value().curve,
          ske.value().point);
      if (info.kx == KeyExchange::kEcdheRsa) {
        if (!rsa_verify_pkcs1(hs_->peer_rsa, digest, ske.value().signature)
                 .is_ok())
          return TlsResult::kError;
      } else if (info.kx == KeyExchange::kEcdheEcdsa) {
        const EcCurve& sign_curve =
            hs_->peer_ecdsa_p384 ? curve_p384() : curve_p256();
        auto pub = sign_curve.decode_point(hs_->peer_point);
        if (!pub.is_ok()) return TlsResult::kError;
        auto sig = EcdsaSignature::decode(ske.value().signature, sign_curve);
        if (!sig.is_ok()) return TlsResult::kError;
        if (!ecdsa_verify(sign_curve, pub.value(), digest, sig.value())
                 .is_ok())
          return TlsResult::kError;
      }
      hs_->ske_curve = ske.value().curve;
      hs_->server_kx_point = ske.value().point;
      return TlsResult::kOk;
    }
    case HandshakeType::kServerHelloDone:
      return client_send_second_flight();
    default:
      return TlsResult::kError;
  }
}

TlsResult TlsConnection::client_send_second_flight() {
  const CipherSuiteInfo& info = cipher_suite_info(suite_);
  ClientKeyExchange cke;

  if (info.kx == KeyExchange::kRsa) {
    hs_->premaster.resize(kMasterSecretSize);
    ctx_->rng().generate(hs_->premaster.data(), hs_->premaster.size());
    auto ct = rsa_encrypt_pkcs1(hs_->peer_rsa, hs_->premaster, ctx_->rng());
    if (!ct.is_ok()) return TlsResult::kError;
    cke.exchange_data = std::move(ct).take();
  } else {
    auto share = ctx_->provider()->ecdhe_keygen(hs_->ske_curve);
    if (!share.is_ok()) return TlsResult::kError;
    ++ops_.ecc;
    hs_->ecdhe_share = std::move(share).take();
    cke.exchange_data = hs_->ecdhe_share.pub_point;
    auto secret = ctx_->provider()->ecdhe_derive(hs_->ecdhe_share,
                                                 hs_->server_kx_point);
    if (!secret.is_ok()) return TlsResult::kError;
    ++ops_.ecc;
    hs_->premaster = std::move(secret).take();
  }

  if (!send_handshake(HandshakeType::kClientKeyExchange, cke.encode())
           .is_ok())
    return TlsResult::kError;

  auto master =
      tls12_master_secret(ctx_->provider(), info.prf_hash, hs_->premaster,
                          hs_->client_random, hs_->server_random);
  if (!master.is_ok()) return TlsResult::kError;
  ++ops_.prf;
  hs_->master_secret = std::move(master).take();
  secure_wipe(hs_->premaster.data(), hs_->premaster.size());
  if (!derive_and_install_keys().is_ok()) return TlsResult::kError;

  if (!records_.queue(ContentType::kChangeCipherSpec, Bytes{0x01}).is_ok())
    return TlsResult::kError;
  install_tx_keys();
  auto verify = finished_verify("client finished");
  if (!verify.is_ok()) return TlsResult::kError;
  if (!send_handshake(HandshakeType::kFinished, verify.value()).is_ok())
    return TlsResult::kError;

  hs_state_ = HsState::kExpectServerCcs;
  const TlsResult r = records_.flush();
  return r == TlsResult::kOk || r == TlsResult::kWantWrite ? TlsResult::kOk
                                                           : r;
}

TlsResult TlsConnection::client_on_server_finished(const HandshakeHeader& msg,
                                                   bool resumed) {
  Bytes with_finished = std::move(hs_->transcript);
  hs_->transcript.assign(with_finished.begin(),
                     with_finished.end() -
                         static_cast<ptrdiff_t>(4 + msg.body.size()));
  auto expect = finished_verify("server finished");
  hs_->transcript = std::move(with_finished);
  if (!expect.is_ok()) return TlsResult::kError;
  if (!ct_equal(expect.value(), msg.body)) return TlsResult::kError;

  if (resumed) {
    // Abbreviated handshake: respond with CCS + client Finished.
    if (!records_.queue(ContentType::kChangeCipherSpec, Bytes{0x01}).is_ok())
      return TlsResult::kError;
    install_tx_keys();
    auto verify = finished_verify("client finished");
    if (!verify.is_ok()) return TlsResult::kError;
    if (!send_handshake(HandshakeType::kFinished, verify.value()).is_ok())
      return TlsResult::kError;
    const TlsResult r = records_.flush();
    if (r != TlsResult::kOk && r != TlsResult::kWantWrite) return r;
  }

  record_established_session();
  hs_state_ = HsState::kDone;
  maybe_release_handshake_state();
  return TlsResult::kOk;
}

TlsResult TlsConnection::client_process_server_flight13() {
  const CipherSuiteInfo& info = cipher_suite_info(suite_);
  const HashAlg alg = info.prf_hash;
  for (;;) {
    // Remember the transcript before each message: Finished verification
    // needs the pre-Finished hash.
    const size_t transcript_before = hs_->transcript.size();
    HandshakeHeader msg;
    const TlsResult r = next_handshake_message(&msg);
    if (r != TlsResult::kOk) return r;
    switch (msg.type) {
      case HandshakeType::kEncryptedExtensions:
        break;
      case HandshakeType::kCertificate: {
        auto cert = CertificateMsg::parse(msg.body);
        if (!cert.is_ok() ||
            cert.value().cred_type != CredentialType::kRsa)
          return TlsResult::kError;
        auto key = CertificateMsg::decode_rsa_key(cert.value().public_key);
        if (!key.is_ok()) return TlsResult::kError;
        hs_->peer_rsa = std::move(key).take();
        break;
      }
      case HandshakeType::kCertificateVerify: {
        auto cv = CertificateVerifyMsg::parse(msg.body);
        if (!cv.is_ok()) return TlsResult::kError;
        const Bytes digest =
            hash(alg, BytesView(hs_->transcript.data(), transcript_before));
        if (!rsa_verify_pkcs1(hs_->peer_rsa, digest, cv.value().signature)
                 .is_ok())
          return TlsResult::kError;
        break;
      }
      case HandshakeType::kFinished: {
        const Bytes expect = tls13_finished_verify(
            alg, hs_->secrets13.server_hs_traffic,
            hash(alg, BytesView(hs_->transcript.data(), transcript_before)),
            &hs_->secrets13.hkdf_ops);
        if (!ct_equal(expect, msg.body)) return TlsResult::kError;

        // Application secrets over the transcript through server Finished.
        tls13_application_secrets(alg, &hs_->secrets13,
                                  hash(alg, hs_->transcript));
        hs_->client_app_keys13 = tls13_aead_keys(
            alg, hs_->secrets13.client_app_traffic, info, &hs_->secrets13.hkdf_ops);
        hs_->server_app_keys13 = tls13_aead_keys(
            alg, hs_->secrets13.server_app_traffic, info, &hs_->secrets13.hkdf_ops);

        // Client Finished under the handshake traffic keys.
        records_.enable_encryption_tx(hs_->client_hs_keys13);
        const Bytes verify = tls13_finished_verify(
            alg, hs_->secrets13.client_hs_traffic, hash(alg, hs_->transcript),
            &hs_->secrets13.hkdf_ops);
        if (!send_handshake(HandshakeType::kFinished, verify).is_ok())
          return TlsResult::kError;
        const TlsResult fr = records_.flush();
        if (fr != TlsResult::kOk && fr != TlsResult::kWantWrite) return fr;

        records_.enable_encryption_tx(hs_->client_app_keys13);
        records_.enable_encryption_rx(hs_->server_app_keys13);
        // Resumption master over the full transcript (incl. our Finished) —
        // paired with the server's NewSessionTicket, which read() captures.
        resumption_master13_ = tls13_resumption_master(
            alg, hs_->secrets13.master_secret, hash(alg, hs_->transcript), nullptr);
        ops_.hkdf = hs_->secrets13.hkdf_ops;
        record_established_session();
        hs_state_ = HsState::kDone;
        maybe_release_handshake_state();
        return TlsResult::kOk;
      }
      default:
        return TlsResult::kError;
    }
  }
}

// ----------------------------------------------------------- app data ----

TlsResult TlsConnection::read(Bytes* out) {
  // When resuming a paused read, keep the original output buffer — the
  // fiber already captured it.
  if (job_ == nullptr) read_out_ = out;
  return run_entry(&read_entry);
}

int TlsConnection::read_entry(TlsConnection* self) {
  if (self->hs_state_ != HsState::kDone)
    return to_int(TlsResult::kError);
  Record record;
  for (;;) {
    const TlsResult r = self->next_record(&record);
    if (r != TlsResult::kOk) {
      if (r == TlsResult::kError) {
        if (auto alert = self->records_.last_error_alert())
          self->queue_alert_inline(AlertLevel::kFatal, *alert);
      }
      return to_int(r);
    }
    switch (record.type) {
      case ContentType::kApplicationData:
        append(*self->read_out_, record.payload);
        ++self->ops_.cipher;
        return to_int(TlsResult::kOk);
      case ContentType::kAlert:
        return to_int(TlsResult::kClosed);
      case ContentType::kHandshake: {
        // Post-handshake message: a TLS 1.3 NewSessionTicket updates the
        // resumable session; anything else is skipped.
        if (self->version_ == ProtocolVersion::kTls13) {
          size_t consumed = 0;
          auto parsed = parse_handshake(record.payload, &consumed);
          if (parsed.is_ok() &&
              parsed.value().type == HandshakeType::kNewSessionTicket) {
            auto nst = NewSessionTicketMsg::parse(parsed.value().body);
            if (nst.is_ok() && !self->resumption_master13_.empty()) {
              ClientSession session;
              session.suite = self->suite_;
              session.ticket = nst.value().ticket;
              session.master_secret = self->resumption_master13_;
              self->established_session_ = std::move(session);
            }
          }
        }
        continue;
      }
      default:
        return to_int(TlsResult::kError);
    }
  }
}

TlsResult TlsConnection::write(BytesView data) {
  // A paused write job still references the write buffer; only accept new
  // data when idle (resume calls pass anything, conventionally empty).
  if (job_ == nullptr) {
    write_pending_ = !data.empty();
    if (write_pending_) {
      if (write_buf_ && write_buf_.use_count() == 1) {
        // No seal op holds the buffer any more. The last one may have let
        // go on an engine thread: order its reads before these writes.
        std::atomic_thread_fence(std::memory_order_acquire);
      } else {
        write_buf_ = std::make_shared<Bytes>();
      }
      write_buf_->assign(data.begin(), data.end());
      // TX staging copy above the record layer — metered so the data
      // plane's bytes-copied-per-byte covers the whole path (DESIGN.md §11).
      records_.note_staging_copy(data.size());
    }
  }
  return run_entry(&write_entry);
}

int TlsConnection::write_entry(TlsConnection* self) {
  if (self->hs_state_ != HsState::kDone)
    return to_int(TlsResult::kError);
  if (self->write_pending_) {
    const Bytes& data = *self->write_buf_;
    const size_t fragments =
        (data.size() + kMaxPlaintextFragment - 1) / kMaxPlaintextFragment;
    // The buffer rides every seal job as its owner: the provider borrows
    // the plaintext instead of copying it.
    if (!self->records_
             .queue(ContentType::kApplicationData, data, self->write_buf_)
             .is_ok())
      return to_int(TlsResult::kError);
    self->ops_.cipher += static_cast<int>(fragments);
    self->write_pending_ = false;
  }
  return to_int(self->records_.flush());
}

TlsResult TlsConnection::shutdown() { return run_entry(&shutdown_entry); }

int TlsConnection::shutdown_entry(TlsConnection* self) {
  if (self->hs_state_ == HsState::kClosed) return to_int(TlsResult::kOk);
  const Bytes alert = {kAlertLevelWarning, kAlertCloseNotify};
  if (!self->records_.queue(ContentType::kAlert, alert).is_ok())
    return to_int(TlsResult::kError);
  self->last_alert_sent_ = AlertDescription::kCloseNotify;
  const TlsResult r = self->records_.flush();
  if (r == TlsResult::kOk) self->hs_state_ = HsState::kClosed;
  return to_int(r);
}

// --------------------------------------------------------------- alerts ----

void TlsConnection::queue_alert_inline(AlertLevel level,
                                       AlertDescription desc) {
  const Bytes alert = {static_cast<uint8_t>(level),
                       static_cast<uint8_t>(desc)};
  if (records_.queue(ContentType::kAlert, alert).is_ok()) {
    last_alert_sent_ = desc;
    (void)records_.flush();  // best-effort: the owner is tearing down anyway
  }
}

TlsResult TlsConnection::send_alert(AlertLevel level, AlertDescription desc) {
  if (job_ != nullptr) return TlsResult::kError;  // paused fiber owns the stream
  alert_level_ = level;
  alert_desc_ = desc;
  return run_entry(&alert_entry);
}

int TlsConnection::alert_entry(TlsConnection* self) {
  self->queue_alert_inline(self->alert_level_, self->alert_desc_);
  if (self->alert_desc_ == AlertDescription::kCloseNotify)
    self->hs_state_ = HsState::kClosed;
  else if (self->alert_level_ == AlertLevel::kFatal)
    self->hs_state_ = HsState::kFailed;
  return to_int(TlsResult::kOk);
}

}  // namespace qtls::tls
