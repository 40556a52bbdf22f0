#include "tls/record.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/log.h"
#include "crypto/gcm.h"
#include "obs/metrics.h"

namespace qtls::tls {

namespace {
constexpr size_t kHeaderSize = 5;
constexpr size_t kIvSize = 16;
// Encrypted records grow by IV + MAC + padding; generous bound for parsing.
constexpr size_t kMaxCiphertextFragment = kMaxPlaintextFragment + 1024;
// Most transports cap a gathered write at IOV_MAX (>= 1024); far fewer
// segments per writev keeps the stack array small and still gathers 32
// records per syscall.
constexpr int kMaxFlushIov = 64;
// Consumed RX prefix tolerated before the buffer is compacted (amortizes
// the shift: one memmove per 16 KB consumed, not one erase per record).
constexpr size_t kRecvCompactThreshold = 16 * 1024;
constexpr size_t kReadChunk = 4096;

// Process-wide TX data-plane meter (DESIGN.md §11): bytes handed to the
// transport, the denominator of engine::record_bytes_copied().
obs::Counter& record_bytes_sent() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("record.bytes_sent");
  return c;
}
}  // namespace

RecordLayer::RecordLayer(Transport* transport,
                         engine::CryptoProvider* provider, HmacDrbg* iv_rng)
    : transport_(transport), provider_(provider), iv_rng_(iv_rng) {}

void RecordLayer::count_copy(size_t n) {
  bytes_copied_ += n;
  engine::record_bytes_copied().add(n);
}

void RecordLayer::note_staging_copy(size_t n) { count_copy(n); }

namespace {
// RFC 8446 §5.3 nonce derivation: the 64-bit sequence number XORed into the
// low-order bytes of the static IV.
Bytes aead_nonce(const Bytes& iv, uint64_t seq) {
  Bytes nonce = iv;
  for (int i = 0; i < 8; ++i)
    nonce[nonce.size() - 1 - static_cast<size_t>(i)] ^=
        static_cast<uint8_t>(seq >> (8 * i));
  return nonce;
}

void append_record_header(Bytes& out, ContentType type, size_t wire_len) {
  append_u8(out, static_cast<uint8_t>(type));
  append_u16(out, static_cast<uint16_t>(ProtocolVersion::kTls12));
  append_u16(out, static_cast<uint16_t>(wire_len));
}

// The same header, written over the first 5 bytes of `head`.
void put_record_header(Bytes& head, ContentType type, size_t wire_len) {
  constexpr auto kVersion = static_cast<uint16_t>(ProtocolVersion::kTls12);
  head[0] = static_cast<uint8_t>(type);
  head[1] = static_cast<uint8_t>(kVersion >> 8);
  head[2] = static_cast<uint8_t>(kVersion);
  head[3] = static_cast<uint8_t>(wire_len >> 8);
  head[4] = static_cast<uint8_t>(wire_len);
}
}  // namespace

Status RecordLayer::queue(ContentType type, BytesView payload,
                          std::shared_ptr<const void> owner) {
  return queue_many(type, std::span<const BytesView>(&payload, 1),
                    std::move(owner));
}

Status RecordLayer::queue_many(ContentType type,
                               std::span<const BytesView> payloads,
                               std::shared_ptr<const void> owner) {
  // Fragment: a payload larger than 16 KB becomes multiple records — each
  // one is one chained-cipher op once encryption is on (paper §5.4:
  // "one 128 KB file incurs eight cipher operations").
  std::vector<BytesView> fragments;
  for (const BytesView& payload : payloads) {
    if (payload.empty()) {
      fragments.push_back(payload);
      continue;
    }
    size_t off = 0;
    while (off < payload.size()) {
      const size_t take =
          std::min(kMaxPlaintextFragment, payload.size() - off);
      fragments.push_back(payload.subspan(off, take));
      off += take;
    }
  }
  if (fragments.empty()) return Status::ok();

  if (tx_.kind == DirectionState::Kind::kNone) {
    for (const BytesView& fragment : fragments)
      queue_plaintext(type, fragment);
    return Status::ok();
  }
  // All fragments of this call go to the provider as ONE batch (a single
  // submit_batch() dispatch on the QAT backend, an inline loop in software).
  return seal_batch_into_chain(type, fragments, owner);
}

void RecordLayer::queue_plaintext(ContentType type, BytesView fragment) {
  TxBlock header;
  append_record_header(header.data, type, fragment.size());
  send_chain_.push_back(std::move(header));
  if (!fragment.empty()) {
    TxBlock body;
    body.data.assign(fragment.begin(), fragment.end());
    count_copy(body.data.size());
    send_chain_.push_back(std::move(body));
  }
  ++records_sent_;
}

Status RecordLayer::seal_batch_into_chain(
    ContentType type, const std::vector<BytesView>& fragments,
    const std::shared_ptr<const void>& owner) {
  const size_t n = fragments.size();
  // Each record is a head block and an empty body block the provider seals
  // into (or replaces with its own sealed buffer). The blocks are built
  // aside and spliced in only if the whole batch seals, so a failed seal
  // queues nothing; a deque keeps Bytes addresses stable while jobs point
  // into them.
  std::deque<TxBlock> pending;
  Status sealed = Status::ok();

  if (tx_.kind == DirectionState::Kind::kCbcHmac) {
    std::vector<Bytes> headers(n);  // 5-byte MAC headers, true fragment len
    std::vector<engine::CipherSealJob> jobs(n);
    for (size_t i = 0; i < n; ++i) {
      append_record_header(headers[i], type, fragments[i].size());
      // The explicit IV leads the wire payload, so it rides the head block.
      Bytes& head = pending.emplace_back().data;
      head.resize(kHeaderSize + kIvSize);
      iv_rng_->generate(head.data() + kHeaderSize, kIvSize);
      Bytes& body = pending.emplace_back().data;
      jobs[i] = {tx_.seq + i, headers[i],
                 BytesView(head.data() + kHeaderSize, kIvSize), fragments[i],
                 &body, owner};
    }
    sealed = provider_->cipher_seal_batch(tx_.keys, jobs);
  } else {
    std::vector<Bytes> nonces(n);
    std::vector<engine::AeadSealJob> jobs(n);
    for (size_t i = 0; i < n; ++i) {
      nonces[i] = aead_nonce(tx_.aead.iv, tx_.seq + i);
      // The AAD is the record header itself, with the protected length.
      Bytes& head = pending.emplace_back().data;
      append_record_header(head, type, fragments[i].size() + kGcmTagSize);
      Bytes& body = pending.emplace_back().data;
      jobs[i] = {nonces[i], head, fragments[i], &body, owner};
    }
    sealed = provider_->aead_seal_batch(tx_.aead.key, jobs);
  }
  QTLS_RETURN_IF_ERROR(sealed);

  // Seals landed: write each record's wire length (known only now — the CBC
  // length depends on MAC + padding) and splice.
  tx_.seq += n;
  records_sent_ += n;
  for (size_t i = 0; i < pending.size(); i += 2) {
    Bytes& head = pending[i].data;
    put_record_header(head, type,
                      head.size() - kHeaderSize + pending[i + 1].data.size());
  }
  std::move(pending.begin(), pending.end(), std::back_inserter(send_chain_));
  return Status::ok();
}

TlsResult RecordLayer::flush() {
  while (!send_chain_.empty()) {
    struct iovec iov[kMaxFlushIov];
    int cnt = 0;
    for (const TxBlock& block : send_chain_) {
      if (cnt == kMaxFlushIov) break;
      const size_t left = block.data.size() - block.off;
      if (left == 0) continue;  // empty-bodied record (zero-length fragment)
      iov[cnt].iov_base =
          const_cast<uint8_t*>(block.data.data() + block.off);
      iov[cnt].iov_len = left;
      ++cnt;
    }
    if (cnt == 0) {
      send_chain_.clear();
      break;
    }
    const IoResult io = transport_->writev(iov, cnt);
    switch (io.status) {
      case IoStatus::kOk: {
        bytes_sent_ += io.bytes;
        record_bytes_sent().add(io.bytes);
        size_t consumed = io.bytes;
        while (!send_chain_.empty()) {
          TxBlock& front = send_chain_.front();
          const size_t left = front.data.size() - front.off;
          if (left > consumed) {
            front.off += consumed;
            consumed = 0;
            break;
          }
          consumed -= left;
          send_chain_.pop_front();
        }
        break;
      }
      case IoStatus::kWouldBlock:
        return TlsResult::kWantWrite;
      case IoStatus::kClosed:
      case IoStatus::kError:
        return TlsResult::kError;
    }
  }
  return TlsResult::kOk;
}

void RecordLayer::compact_recv_buffer() {
  if (recv_off_ == 0) return;
  if (recv_off_ == recv_buffer_.size()) {
    // Fully drained: resetting the cursor is free (no shift).
    recv_buffer_.clear();
    recv_off_ = 0;
    return;
  }
  if (recv_off_ < kRecvCompactThreshold) return;
  recv_buffer_.erase(recv_buffer_.begin(),
                     recv_buffer_.begin() + static_cast<ptrdiff_t>(recv_off_));
  recv_off_ = 0;
  ++rx_compactions_;
}

void RecordLayer::shrink_after_handshake() {
  // Unconditionally drop the consumed prefix (ignore the amortization
  // threshold — this runs once per connection), then return the high-water
  // capacity to the allocator. A clean handshake leaves the buffer empty,
  // so this is usually a free() of the whole allocation.
  if (recv_off_ > 0) {
    recv_buffer_.erase(
        recv_buffer_.begin(),
        recv_buffer_.begin() + static_cast<ptrdiff_t>(recv_off_));
    recv_off_ = 0;
  }
  recv_buffer_.shrink_to_fit();
}

size_t RecordLayer::heap_footprint() const {
  size_t n = recv_buffer_.capacity();
  for (const TxBlock& block : send_chain_) n += block.data.capacity();
  return n;
}

RecordLayer::ReadOutcome RecordLayer::read_record() {
  // Accumulate transport bytes until a full record is present. Consumption
  // advances an offset cursor; the buffer compacts amortized (satellite:
  // no per-record front-erase).
  for (;;) {
    const size_t available = recv_buffer_.size() - recv_off_;
    if (available >= kHeaderSize) {
      const uint8_t* base = recv_buffer_.data() + recv_off_;
      const size_t len = static_cast<size_t>(base[3]) << 8 | base[4];
      // RFC 5246 §6.2.1/§6.2.3: plaintext records are bounded by 2^14, and
      // protected records by 2^14 + expansion. Violations are fatal
      // record_overflow — the bytes are never buffered past this check.
      const size_t wire_cap = rx_.kind == DirectionState::Kind::kNone
                                  ? kMaxPlaintextFragment
                                  : kMaxCiphertextFragment;
      if (len > wire_cap) {
        last_error_alert_ = AlertDescription::kRecordOverflow;
        return {TlsResult::kError, std::nullopt};
      }
      if (available >= kHeaderSize + len) {
        const auto type = static_cast<ContentType>(base[0]);
        Bytes wire_payload(base + kHeaderSize, base + kHeaderSize + len);
        recv_off_ += kHeaderSize + len;
        compact_recv_buffer();
        Record record;
        record.type = type;
        if (rx_.kind == DirectionState::Kind::kAead) {
          Bytes aad;
          append_u8(aad, static_cast<uint8_t>(type));
          append_u16(aad, static_cast<uint16_t>(ProtocolVersion::kTls12));
          append_u16(aad, static_cast<uint16_t>(wire_payload.size()));
          const Bytes nonce = aead_nonce(rx_.aead.iv, rx_.seq);
          auto opened =
              provider_->aead_open(rx_.aead.key, nonce, aad, wire_payload);
          if (!opened.is_ok()) {
            QTLS_WARN << "AEAD record open failed: "
                      << opened.status().to_string();
            last_error_alert_ = AlertDescription::kBadRecordMac;
            return {TlsResult::kError, std::nullopt};
          }
          ++rx_.seq;
          record.payload = std::move(opened).take();
        } else if (rx_.kind == DirectionState::Kind::kCbcHmac) {
          if (wire_payload.size() < kIvSize) {
            last_error_alert_ = AlertDescription::kDecodeError;
            return {TlsResult::kError, std::nullopt};
          }
          BytesView iv(wire_payload.data(), kIvSize);
          BytesView ct(wire_payload.data() + kIvSize,
                       wire_payload.size() - kIvSize);
          Bytes header3;
          append_u8(header3, static_cast<uint8_t>(type));
          append_u16(header3, static_cast<uint16_t>(ProtocolVersion::kTls12));
          auto opened =
              provider_->cipher_open(rx_.keys, rx_.seq, header3, iv, ct);
          if (!opened.is_ok()) {
            QTLS_WARN << "record open failed: "
                      << opened.status().to_string();
            last_error_alert_ = AlertDescription::kBadRecordMac;
            return {TlsResult::kError, std::nullopt};
          }
          ++rx_.seq;
          record.payload = std::move(opened).take();
        } else {
          record.payload = std::move(wire_payload);
        }
        // The *decrypted* fragment is also bounded by 2^14 (RFC 5246
        // §6.2.3): a protected record may not smuggle an oversized
        // plaintext inside the ciphertext expansion allowance.
        if (record.payload.size() > kMaxPlaintextFragment) {
          last_error_alert_ = AlertDescription::kRecordOverflow;
          return {TlsResult::kError, std::nullopt};
        }
        ++records_received_;
        return {TlsResult::kOk, std::move(record)};
      }
    }

    // Read straight into the buffer tail (no bounce through a stack chunk).
    if (recv_off_ == recv_buffer_.size() && recv_off_ != 0) {
      recv_buffer_.clear();
      recv_off_ = 0;
    }
    const size_t old_size = recv_buffer_.size();
    recv_buffer_.resize(old_size + kReadChunk);
    const IoResult io = transport_->read(recv_buffer_.data() + old_size,
                                         kReadChunk);
    recv_buffer_.resize(old_size +
                        (io.status == IoStatus::kOk ? io.bytes : 0));
    switch (io.status) {
      case IoStatus::kOk:
        break;
      case IoStatus::kWouldBlock:
        // Fully drained and going idle: drop the read chunk's capacity so a
        // parked keepalive connection holds cursors, not a 4 KB buffer. A
        // buffered partial record keeps its storage.
        if (recv_buffer_.empty() && recv_off_ == 0)
          Bytes().swap(recv_buffer_);
        return {TlsResult::kWantRead, std::nullopt};
      case IoStatus::kClosed:
        return {TlsResult::kClosed, std::nullopt};
      case IoStatus::kError:
        return {TlsResult::kError, std::nullopt};
    }
  }
}

void RecordLayer::enable_encryption_tx(const CbcHmacKeys& keys) {
  tx_.kind = DirectionState::Kind::kCbcHmac;
  tx_.keys = keys;
  tx_.seq = 0;
}

void RecordLayer::enable_encryption_rx(const CbcHmacKeys& keys) {
  rx_.kind = DirectionState::Kind::kCbcHmac;
  rx_.keys = keys;
  rx_.seq = 0;
}

void RecordLayer::enable_encryption_tx(const AeadKeys& keys) {
  tx_.kind = DirectionState::Kind::kAead;
  tx_.aead = keys;
  tx_.seq = 0;
}

void RecordLayer::enable_encryption_rx(const AeadKeys& keys) {
  rx_.kind = DirectionState::Kind::kAead;
  rx_.aead = keys;
  rx_.seq = 0;
}

}  // namespace qtls::tls
