// TLS record layer: 5-byte header framing, 16 KB fragmentation (the unit the
// paper's §5.4 counts cipher ops by), per-direction protection state with
// explicit-IV CBC + HMAC, and non-blocking buffered transport I/O.
//
// TX data plane (DESIGN.md §11): queued records live in an iovec chain of
// blocks (a head block — the 5-byte header, plus the explicit IV under
// CBC — and a sealed payload block per record, never coalesced);
// multi-fragment payloads are sealed through the provider's batched seal
// APIs (ONE device submission for N records), and the provider encrypts
// directly into each record's empty payload block or hands its own sealed
// buffer over as that block. flush() gathers the chain into writev() with
// per-block partial-write offsets.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/kdf.h"
#include "engine/provider.h"
#include "tls/transport.h"
#include "tls/types.h"

namespace qtls::tls {

struct Record {
  ContentType type = ContentType::kHandshake;
  Bytes payload;  // decrypted fragment
};

// AES-GCM record keys: traffic key + the static IV the per-record nonce is
// derived from (RFC 8446 §5.3: nonce = iv XOR seq).
struct AeadKeys {
  Bytes key;  // 16 bytes
  Bytes iv;   // 12 bytes
};

// Per-direction record protection state.
struct DirectionState {
  enum class Kind : uint8_t { kNone, kCbcHmac, kAead };
  Kind kind = Kind::kNone;
  CbcHmacKeys keys;
  AeadKeys aead;
  uint64_t seq = 0;
};

class RecordLayer {
 public:
  RecordLayer(Transport* transport, engine::CryptoProvider* provider,
              HmacDrbg* iv_rng);

  // Queue a plaintext fragment for sending (fragments > 16 KB are split).
  // Encryption happens at queue time (counts cipher ops); all fragments of
  // one call are sealed in ONE batched provider submission. The bytes then
  // sit in the send chain until flushed. `owner`, when set, keeps the
  // payload's bytes alive and unchanged while it is held: it rides every
  // seal job, so the provider borrows the plaintext instead of copying it.
  Status queue(ContentType type, BytesView payload,
               std::shared_ptr<const void> owner = nullptr);
  // Queue several payloads at once: every fragment of every payload joins a
  // single record batch (one provider submission for the whole span).
  // `owner`, when set, keeps every payload's bytes alive.
  Status queue_many(ContentType type, std::span<const BytesView> payloads,
                    std::shared_ptr<const void> owner = nullptr);
  // Push buffered bytes into the transport. kOk = drained, kWantWrite =
  // transport backpressure.
  TlsResult flush();
  bool send_buffer_empty() const { return send_chain_.empty(); }

  // Try to read one complete record from the transport. nullopt with
  // result kWantRead when bytes are not yet available; a read that drains
  // the buffer and would block also releases the 4 KB read chunk, so an
  // idle keepalive connection pins cursors, not a buffer (DESIGN.md §14).
  struct ReadOutcome {
    TlsResult result = TlsResult::kOk;
    std::optional<Record> record;
  };
  ReadOutcome read_record();

  void enable_encryption_tx(const CbcHmacKeys& keys);
  void enable_encryption_rx(const CbcHmacKeys& keys);
  void enable_encryption_tx(const AeadKeys& keys);
  void enable_encryption_rx(const AeadKeys& keys);
  bool tx_encrypted() const {
    return tx_.kind != DirectionState::Kind::kNone;
  }
  bool rx_encrypted() const {
    return rx_.kind != DirectionState::Kind::kNone;
  }

  uint64_t records_sent() const { return records_sent_; }
  uint64_t records_received() const { return records_received_; }

  // --- TX copy meter (DESIGN.md §11) --------------------------------------
  // Payload bytes memcpy'd through a staging buffer on this layer's TX path.
  // The process-wide copy meter "record.bytes_copied" adds them to the
  // engines' staging copies; it has no other owner.
  uint64_t bytes_copied() const { return bytes_copied_; }
  // Wire bytes handed to the transport by flush().
  uint64_t bytes_sent() const { return bytes_sent_; }
  // Callers stamp TX staging copies made above this layer (e.g. the
  // connection's write() scratch buffer) so the meter covers the whole path.
  void note_staging_copy(size_t n);

  // --- RX buffer health ----------------------------------------------------
  // Amortized compactions of the receive buffer (offset-cursor consumption;
  // many small records must not shift or reallocate per record).
  uint64_t rx_compactions() const { return rx_compactions_; }
  size_t recv_buffer_capacity() const { return recv_buffer_.capacity(); }

  // Established-state shrink (DESIGN.md §14): releases the receive buffer's
  // handshake high-water capacity, keeping only bytes not yet parsed. An
  // idle established connection should pin record keys and cursors, not the
  // multi-KB flight the handshake happened to buffer.
  void shrink_after_handshake();
  // Approximate heap bytes owned by this layer's buffers (RX buffer + TX
  // chain) — feeds TlsConnection::heap_footprint and memory.bytes_per_conn.
  size_t heap_footprint() const;

  // The alert the last kError from read_record() deserves (RFC 5246 §7.2):
  // record_overflow for length-bound violations, bad_record_mac for failed
  // record protection. Unset when no read error has occurred.
  std::optional<AlertDescription> last_error_alert() const {
    return last_error_alert_;
  }

 private:
  // One link of the TX chain; `off` tracks how much the transport consumed.
  struct TxBlock {
    Bytes data;
    size_t off = 0;
  };

  // Seal `fragments` (each <= 16 KB) as one record batch into the chain.
  Status seal_batch_into_chain(ContentType type,
                               const std::vector<BytesView>& fragments,
                               const std::shared_ptr<const void>& owner);
  void queue_plaintext(ContentType type, BytesView fragment);
  void compact_recv_buffer();
  void count_copy(size_t n);

  Transport* transport_;
  engine::CryptoProvider* provider_;
  HmacDrbg* iv_rng_;

  DirectionState tx_;
  DirectionState rx_;

  std::deque<TxBlock> send_chain_;
  Bytes recv_buffer_;
  size_t recv_off_ = 0;  // consumed prefix of recv_buffer_

  uint64_t records_sent_ = 0;
  uint64_t records_received_ = 0;
  uint64_t bytes_copied_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t rx_compactions_ = 0;
  std::optional<AlertDescription> last_error_alert_;
};

}  // namespace qtls::tls
