// Session resumption state (paper §2.1, §5.3): both mechanisms —
//  * session-ID cache: server-side map id -> {master secret, suite}
//  * session tickets: self-contained state sealed under a server ticket key,
//    so resumption needs no server-side store.
// Lifetimes are enforced (the paper notes providers restrict ticket
// lifetimes, generally under an hour, to bound the forward-secrecy loss).
// The lifetime is measured from when the session state was FIRST
// established: re-sealing a ticket on resumption must carry the original
// created_at_ms forward, so a chatty client cannot keep one master secret
// alive indefinitely by resuming just before every expiry.
//
// These are the single-threaded building blocks; the process-wide sharded
// cache and rotating key ring that multiple workers share live in
// tls/session_plane.h and are built out of them.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/kdf.h"
#include "tls/types.h"

namespace qtls::tls {

struct SessionState {
  CipherSuite suite = CipherSuite::kTlsRsaWithAes128CbcSha;
  Bytes master_secret;
  uint64_t created_at_ms = 0;
};

// LRU session-ID cache with TTL. Single-threaded by design: one cache per
// shard (tls/session_plane.h), each shard guarded by its own mutex.
// Expiry clamps clock skew: an entry dated in the future (virtual-time
// restart, cross-worker skew) has age 0, it is never treated as expired by
// unsigned underflow. Eviction prefers expired entries over the LRU tail.
//
// Storage is flat: one vector of fixed-size slots (id, master secret
// inline, suite, creation time, 32-bit LRU links) and an open-addressed
// index of slot numbers, both grown on demand up to the capacity, so an
// empty cache owns no memory and an entry costs no heap block of its own.
// Removing an entry moves the last slot into its place.
class SessionCache {
 public:
  static constexpr size_t kMaxSecret = 48;

  explicit SessionCache(size_t capacity = 10'000,
                        uint64_t lifetime_ms = 3'600'000);

  // Session ids are kSessionIdSize bytes and master secrets at most
  // kMaxSecret bytes: put() ignores anything else, get() counts it a miss.
  void put(const Bytes& session_id, SessionState state, uint64_t now_ms);
  std::optional<SessionState> get(const Bytes& session_id, uint64_t now_ms);
  void remove(const Bytes& session_id);
  size_t size() const { return slots_.size(); }
  // Slot and index memory owned (allocated, not occupied): 0 until the
  // first put.
  size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           index_.capacity() * sizeof(uint32_t);
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  // Counter taxonomy (the conservation invariant depends on it):
  //   inserts     — puts that created a NEW entry (replacement is not one)
  //   evictions   — a LIVE entry displaced by capacity pressure
  //   expirations — an entry removed because its TTL lapsed, whether the
  //                 expired-first probe reclaimed it on the insert path or
  //                 get() tripped over it
  //   removes     — explicit remove() of a present key
  // Invariant: inserts == size + evictions + expirations + removes.
  uint64_t inserts() const { return inserts_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t expirations() const { return expirations_; }
  uint64_t removes() const { return removes_; }

 private:
  static constexpr uint32_t kNone = 0xffffffffu;

  struct Slot {
    uint8_t id[kSessionIdSize];
    uint8_t secret[kMaxSecret];
    uint64_t created_at_ms;
    CipherSuite suite;
    uint8_t secret_len;
    uint32_t prev;  // toward the most recent entry; kNone at the head
    uint32_t next;  // toward the least recent entry; kNone at the tail
  };

  bool expired(uint64_t created_at_ms, uint64_t now_ms) const {
    // Future-dated entries clamp to age 0 rather than underflowing.
    return now_ms >= created_at_ms && now_ms - created_at_ms > lifetime_ms_;
  }
  size_t home(const uint8_t* id) const;
  // The index cell holding id's slot, or the empty cell that ends its probe.
  size_t cell_of(const uint8_t* id) const;
  void grow();
  void link_front(uint32_t s);
  void unlink(uint32_t s);
  // Unlinks slot s, drops it from the index and fills its place with the
  // last slot.
  void erase(uint32_t s);
  void evict_one(uint64_t now_ms);

  size_t capacity_;
  uint64_t lifetime_ms_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> index_;  // slot numbers, kNone = empty; power of two
  uint32_t head_ = kNone;        // most recent
  uint32_t tail_ = kNone;        // least recent
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t inserts_ = 0;
  uint64_t evictions_ = 0;
  uint64_t expirations_ = 0;
  uint64_t removes_ = 0;
};

// Session tickets: seal/unseal SessionState under a ticket key (AES-128-CBC
// + HMAC-SHA256, like the RFC 5077 recommended construction). One keeper is
// one key; the epoch-rotating ring (tls/session_plane.h) owns several.
class TicketKeeper {
 public:
  explicit TicketKeeper(BytesView key_seed, uint64_t lifetime_ms = 3'600'000);

  // Seals with created_at = state.created_at_ms when set (ticket refresh on
  // resumption keeps the original establishment time), else now_ms.
  Bytes seal(const SessionState& state, uint64_t now_ms, HmacDrbg& iv_rng) const;
  // Fails on tamper or expiry (age clamps to 0 for future-dated tickets).
  Result<SessionState> unseal(BytesView ticket, uint64_t now_ms) const;

  uint64_t lifetime_ms() const { return lifetime_ms_; }

 private:
  Bytes enc_key_;
  Bytes mac_key_;
  uint64_t lifetime_ms_;
};

}  // namespace qtls::tls
