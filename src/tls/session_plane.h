// The process-wide resumption plane (DESIGN.md §9): the shared state that
// lets a session established on worker 0 resume on worker 3.
//
//  * ShardedSessionCache — N shards (power of two, default 16) keyed by the
//    low bits of a session-ID hash; each shard is one mutex around the
//    single-threaded SessionCache. The shards keep the only counts: a total
//    is the sum of the shards' own counters, read under their locks.
//  * TicketKeyRing — epoch-numbered ticket keys replacing the single-key
//    TicketKeeper. Every sealed ticket is prefixed with the 16-byte key
//    name of its sealing epoch (the RFC 5077 key_name field); unseal
//    accepts the current epoch plus `accept_epochs` previous ones and
//    reports whether a re-seal under the current key is due. Rotation is
//    background-free: the epoch is a pure function of the caller's clock
//    (now_ms / rotate_interval_ms), and every epoch's keys derive
//    deterministically from the seed, so all workers — and the virtual-time
//    sim backend — agree on the ring without coordination.
//  * SessionPlane — bundles the two with their config; a WorkerPool owns
//    one and points every worker's TlsContext at it.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "tls/session.h"

namespace qtls::tls {

struct SessionPlaneConfig {
  size_t cache_shards = 16;        // rounded up to a power of two
  size_t cache_capacity = 10'000;  // entries per shard ceiling: capacity/shards
  uint64_t lifetime_ms = 3'600'000;
  // 0 disables rotation (single epoch 0, still key-name prefixed).
  uint64_t ticket_rotate_interval_ms = 900'000;
  uint32_t ticket_accept_epochs = 1;  // current + N previous keys accepted
  uint64_t seed = 0x746c73637478ULL;
};

// Thread-safe LRU+TTL session-ID cache: striped mutexes over SessionCache
// shards. Any worker may put/get/remove concurrently.
class ShardedSessionCache {
 public:
  ShardedSessionCache(size_t shards, size_t capacity, uint64_t lifetime_ms);

  void put(const Bytes& session_id, SessionState state, uint64_t now_ms);
  std::optional<SessionState> get(const Bytes& session_id, uint64_t now_ms);
  void remove(const Bytes& session_id);

  size_t size() const;  // sum over shards (racy-but-consistent per shard)
  size_t shards() const { return shards_.size(); }
  // Slot and index memory the shards own (SessionCache::bytes); 0 until
  // the first put.
  size_t bytes() const;

  // Sums of the shards' SessionCache counters, same taxonomy. With all
  // mutators quiesced,
  //   inserts == size + evictions + expirations + removes
  // holds exactly.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t inserts() const;
  uint64_t evictions() const;
  uint64_t expirations() const;
  uint64_t removes() const;

 private:
  struct Shard {
    std::mutex mu;
    SessionCache cache;
    Shard(size_t capacity, uint64_t lifetime_ms)
        : cache(capacity, lifetime_ms) {}
  };

  Shard& shard_of(const Bytes& session_id);
  // Sum of read(shard cache) over the shards, each read under its lock.
  template <typename Read>
  uint64_t sum(Read read) const;

  std::vector<std::unique_ptr<Shard>> shards_;
};

// Rotating ticket-key ring. Sealed ticket layout (RFC 5077 shape):
//   key_name(16) || iv(16) || ciphertext || hmac(32)
// The key name selects the epoch; a wrong or retired name never reaches the
// MAC check. Epoch keys are derived on demand from (seed, epoch), cached,
// and pruned, so the ring needs no rotation thread and any worker can
// unseal a ticket sealed by any other.
class TicketKeyRing {
 public:
  static constexpr size_t kKeyNameLen = 16;

  TicketKeyRing(BytesView seed, uint64_t rotate_interval_ms,
                uint32_t accept_epochs, uint64_t lifetime_ms);

  uint64_t epoch_at(uint64_t now_ms) const {
    return rotate_interval_ms_ == 0 ? 0 : now_ms / rotate_interval_ms_;
  }
  // The 16-byte RFC 5077 key name of an epoch (deterministic).
  Bytes key_name(uint64_t epoch) const;

  // Seals under the CURRENT epoch's key (so a re-seal on resumption is an
  // epoch bump for free).
  Bytes seal(const SessionState& state, uint64_t now_ms,
             HmacDrbg& iv_rng) const;

  struct Unsealed {
    SessionState state;
    uint64_t epoch = 0;    // sealing epoch
    bool current = false;  // sealed under the current epoch's key
  };
  // Fails on tamper, lifetime expiry, or a key name outside the accept
  // window [current - accept_epochs, current].
  Result<Unsealed> unseal(BytesView ticket, uint64_t now_ms) const;

  uint64_t seals() const { return seals_.load(std::memory_order_relaxed); }
  uint64_t unseal_ok() const {
    return unseal_ok_.load(std::memory_order_relaxed);
  }
  uint64_t unseal_old_epoch() const {
    return unseal_old_epoch_.load(std::memory_order_relaxed);
  }
  uint64_t unseal_rejects() const {
    return unseal_rejects_.load(std::memory_order_relaxed);
  }
  uint64_t lifetime_ms() const { return lifetime_ms_; }
  uint64_t rotate_interval_ms() const { return rotate_interval_ms_; }
  uint32_t accept_epochs() const { return accept_epochs_; }

 private:
  struct EpochKey {
    Bytes name;
    TicketKeeper keeper;
    EpochKey(Bytes n, BytesView seed, uint64_t lifetime_ms)
        : name(std::move(n)), keeper(seed, lifetime_ms) {}
  };

  // Derive-or-fetch the epoch's key material (mutex; shared_ptr keeps a key
  // alive for in-flight seal/unseal while pruning retires old map entries).
  std::shared_ptr<const EpochKey> key_for(uint64_t epoch) const;

  Bytes seed_;
  uint64_t rotate_interval_ms_;
  uint32_t accept_epochs_;
  uint64_t lifetime_ms_;

  mutable std::mutex mu_;
  mutable std::map<uint64_t, std::shared_ptr<const EpochKey>> keys_;

  mutable std::atomic<uint64_t> seals_{0};
  mutable std::atomic<uint64_t> unseal_ok_{0};
  mutable std::atomic<uint64_t> unseal_old_epoch_{0};
  mutable std::atomic<uint64_t> unseal_rejects_{0};
};

// One resumption plane = one sharded cache + one key ring. A WorkerPool
// owns a single instance shared by every worker's TlsContext; a standalone
// TlsContext owns a private one.
class SessionPlane {
 public:
  explicit SessionPlane(const SessionPlaneConfig& config);

  ShardedSessionCache& cache() { return cache_; }
  const ShardedSessionCache& cache() const { return cache_; }
  const TicketKeyRing& tickets() const { return ring_; }
  const SessionPlaneConfig& config() const { return config_; }

  // The GET /stats "session" object.
  std::string stats_json(uint64_t now_ms) const;

 private:
  SessionPlaneConfig config_;
  ShardedSessionCache cache_;
  TicketKeyRing ring_;
};

}  // namespace qtls::tls
