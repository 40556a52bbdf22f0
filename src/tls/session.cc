#include "tls/session.h"

#include <algorithm>
#include <cstring>

#include "crypto/aes.h"
#include "crypto/hash.h"

namespace qtls::tls {

namespace {
// Bounded probe window for expired-first eviction (see evict_one).
constexpr int kEvictProbes = 8;
}  // namespace

SessionCache::SessionCache(size_t capacity, uint64_t lifetime_ms)
    // Slot numbers are 32-bit with kNone reserved.
    : capacity_(std::min<size_t>(capacity, kNone - 1)),
      lifetime_ms_(lifetime_ms) {}

size_t SessionCache::home(const uint8_t* id) const {
  uint64_t h = 0;
  for (size_t i = 0; i < kSessionIdSize; i += 8) {
    uint64_t w;
    std::memcpy(&w, id + i, sizeof(w));
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
  }
  return static_cast<size_t>(h ^ (h >> 32)) & (index_.size() - 1);
}

size_t SessionCache::cell_of(const uint8_t* id) const {
  const size_t mask = index_.size() - 1;
  size_t c = home(id);
  while (index_[c] != kNone &&
         std::memcmp(slots_[index_[c]].id, id, kSessionIdSize) != 0)
    c = (c + 1) & mask;
  return c;
}

void SessionCache::grow() {
  // Double up to the capacity: slots are never reserved past it.
  const size_t cap = std::min(
      capacity_, std::max<size_t>(16, 2 * slots_.capacity()));
  slots_.reserve(cap);
  // Keep the index at most two-thirds full, and always one cell empty so
  // every probe in cell_of() ends.
  size_t cells = 1;
  while (cells <= cap + cap / 2) cells <<= 1;
  if (cells <= index_.size()) return;
  index_.assign(cells, kNone);
  for (uint32_t s = 0; s < slots_.size(); ++s)
    index_[cell_of(slots_[s].id)] = s;
}

void SessionCache::link_front(uint32_t s) {
  slots_[s].prev = kNone;
  slots_[s].next = head_;
  if (head_ != kNone) {
    slots_[head_].prev = s;
  } else {
    tail_ = s;
  }
  head_ = s;
}

void SessionCache::unlink(uint32_t s) {
  const uint32_t prev = slots_[s].prev;
  const uint32_t next = slots_[s].next;
  if (prev != kNone) {
    slots_[prev].next = next;
  } else {
    head_ = next;
  }
  if (next != kNone) {
    slots_[next].prev = prev;
  } else {
    tail_ = prev;
  }
}

void SessionCache::erase(uint32_t s) {
  unlink(s);
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless their home lies cyclically in (hole, cell].
  const size_t mask = index_.size() - 1;
  size_t hole = cell_of(slots_[s].id);
  for (size_t c = (hole + 1) & mask; index_[c] != kNone; c = (c + 1) & mask) {
    const size_t h = home(slots_[index_[c]].id);
    const bool stays = hole <= c ? (hole < h && h <= c) : (hole < h || h <= c);
    if (!stays) {
      index_[hole] = index_[c];
      hole = c;
    }
  }
  index_[hole] = kNone;

  const uint32_t last = static_cast<uint32_t>(slots_.size() - 1);
  if (s != last) {
    index_[cell_of(slots_[last].id)] = s;
    slots_[s] = slots_[last];
    if (slots_[s].prev != kNone) {
      slots_[slots_[s].prev].next = s;
    } else {
      head_ = s;
    }
    if (slots_[s].next != kNone) {
      slots_[slots_[s].next].prev = s;
    } else {
      tail_ = s;
    }
  }
  slots_.pop_back();
}

void SessionCache::evict_one(uint64_t now_ms) {
  if (tail_ == kNone) return;
  // Prefer evicting an expired entry over the LRU-tail live one. Expired
  // entries drift toward the tail (get() removes any it touches and
  // refreshes live ones), so a bounded probe from the tail finds them
  // without an O(n) sweep on every insert.
  uint32_t victim = tail_;
  bool victim_expired = false;
  int probes = kEvictProbes;
  for (uint32_t s = tail_; s != kNone && probes-- > 0; s = slots_[s].prev) {
    if (expired(slots_[s].created_at_ms, now_ms)) {
      victim = s;
      victim_expired = true;
      break;
    }
  }
  erase(victim);
  // An expired victim is an EXPIRATION, not an eviction: the probe merely
  // reclaimed it early. Counting it as an eviction broke the conservation
  // invariant (inserts == size + evictions + expirations + removes) — the
  // sharded front-end diffs these per call, so misclassifying here
  // under-counted expirations fleet-wide.
  if (victim_expired) {
    ++expirations_;
  } else {
    ++evictions_;
  }
}

void SessionCache::put(const Bytes& session_id, SessionState state,
                       uint64_t now_ms) {
  if (capacity_ == 0) return;  // cache disabled: never hold an entry
  if (session_id.size() != kSessionIdSize ||
      state.master_secret.size() > kMaxSecret)
    return;
  uint32_t s = index_.empty() ? kNone : index_[cell_of(session_id.data())];
  if (s == kNone) {
    if (slots_.size() >= capacity_) evict_one(now_ms);
    if (slots_.size() == slots_.capacity()) grow();
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    std::memcpy(slots_[s].id, session_id.data(), kSessionIdSize);
    index_[cell_of(session_id.data())] = s;
    ++inserts_;
  } else {
    unlink(s);
  }
  Slot& slot = slots_[s];
  std::copy(state.master_secret.begin(), state.master_secret.end(),
            slot.secret);
  slot.secret_len = static_cast<uint8_t>(state.master_secret.size());
  slot.suite = state.suite;
  slot.created_at_ms = now_ms;
  link_front(s);
}

std::optional<SessionState> SessionCache::get(const Bytes& session_id,
                                              uint64_t now_ms) {
  const uint32_t s = session_id.size() != kSessionIdSize || index_.empty()
                         ? kNone
                         : index_[cell_of(session_id.data())];
  if (s == kNone) {
    ++misses_;
    return std::nullopt;
  }
  if (expired(slots_[s].created_at_ms, now_ms)) {
    erase(s);
    ++misses_;
    ++expirations_;  // the entry left the cache; the read is still a miss
    return std::nullopt;
  }
  // Refresh LRU position.
  unlink(s);
  link_front(s);
  ++hits_;
  const Slot& slot = slots_[s];
  SessionState state;
  state.suite = slot.suite;
  state.master_secret.assign(slot.secret, slot.secret + slot.secret_len);
  state.created_at_ms = slot.created_at_ms;
  return state;
}

void SessionCache::remove(const Bytes& session_id) {
  if (session_id.size() != kSessionIdSize || index_.empty()) return;
  const uint32_t s = index_[cell_of(session_id.data())];
  if (s == kNone) return;
  erase(s);
  ++removes_;
}

TicketKeeper::TicketKeeper(BytesView key_seed, uint64_t lifetime_ms)
    : lifetime_ms_(lifetime_ms) {
  // Derive independent enc/mac keys from the seed.
  Bytes salt = to_bytes("qtls-ticket-key");
  const Bytes prk = hkdf_extract(HashAlg::kSha256, salt, key_seed);
  enc_key_ = hkdf_expand(HashAlg::kSha256, prk, to_bytes("enc"), 16);
  mac_key_ = hkdf_expand(HashAlg::kSha256, prk, to_bytes("mac"), 32);
}

Bytes TicketKeeper::seal(const SessionState& state, uint64_t now_ms,
                         HmacDrbg& iv_rng) const {
  // A refreshed ticket (resumption) carries the ORIGINAL creation time so
  // the total master-secret lifetime stays capped; only genuinely new state
  // (created_at_ms == 0) is stamped with now.
  const uint64_t created_at =
      state.created_at_ms != 0 ? state.created_at_ms : now_ms;
  Bytes plain;
  append_u16(plain, static_cast<uint16_t>(state.suite));
  append_u64(plain, created_at);
  append_u16(plain, static_cast<uint16_t>(state.master_secret.size()));
  append(plain, state.master_secret);
  // PKCS7-ish pad to block size.
  const size_t pad = 16 - plain.size() % 16;
  plain.insert(plain.end(), pad, static_cast<uint8_t>(pad));

  Bytes iv(16);
  iv_rng.generate(iv.data(), iv.size());
  Aes aes(enc_key_);
  const Bytes ct = aes_cbc_encrypt(aes, iv, plain);

  Bytes ticket = iv;
  append(ticket, ct);
  const Bytes tag = hmac(HashAlg::kSha256, mac_key_, ticket);
  append(ticket, tag);
  return ticket;
}

Result<SessionState> TicketKeeper::unseal(BytesView ticket,
                                          uint64_t now_ms) const {
  constexpr size_t kTagLen = 32;
  constexpr size_t kIvLen = 16;
  if (ticket.size() < kIvLen + 16 + kTagLen)
    return err(Code::kCryptoError, "ticket too short");
  // The ciphertext must be whole AES blocks; check before decrypting.
  if ((ticket.size() - kIvLen - kTagLen) % 16 != 0)
    return err(Code::kCryptoError, "ticket ciphertext not block-aligned");
  BytesView body = ticket.subspan(0, ticket.size() - kTagLen);
  BytesView tag = ticket.subspan(ticket.size() - kTagLen);
  if (!ct_equal(tag, hmac(HashAlg::kSha256, mac_key_, body)))
    return err(Code::kCryptoError, "ticket MAC mismatch");

  Aes aes(enc_key_);
  QTLS_ASSIGN_OR_RETURN(
      Bytes plain,
      aes_cbc_decrypt(aes, body.subspan(0, kIvLen), body.subspan(kIvLen)));
  if (plain.empty()) return err(Code::kCryptoError, "bad ticket padding");
  const uint8_t pad = plain.back();
  if (pad == 0 || pad > 16 || plain.size() < pad)
    return err(Code::kCryptoError, "bad ticket padding");
  // Verify every pad byte (not just the last) in constant time.
  uint8_t diff = 0;
  for (size_t i = plain.size() - pad; i < plain.size(); ++i)
    diff = static_cast<uint8_t>(diff | (plain[i] ^ pad));
  if (diff != 0) return err(Code::kCryptoError, "bad ticket padding");
  plain.resize(plain.size() - pad);

  ByteReader r(plain);
  SessionState state;
  state.suite = static_cast<CipherSuite>(r.u16());
  state.created_at_ms = r.u64();
  state.master_secret = r.bytes(r.u16());
  if (!r.ok()) return err(Code::kCryptoError, "bad ticket body");
  // Age clamps to 0 when the ticket is dated ahead of our clock (skew
  // between workers, virtual-time restart) — underflow must not expire it.
  if (now_ms >= state.created_at_ms &&
      now_ms - state.created_at_ms > lifetime_ms_)
    return err(Code::kFailedPrecondition, "ticket expired");
  return state;
}

}  // namespace qtls::tls
