#include "tls/session_plane.h"

#include <sstream>

#include "crypto/hash.h"

namespace qtls::tls {

namespace {

// FNV-1a over the session id; the low bits pick the shard.
uint64_t fnv1a(BytesView data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

size_t round_up_pow2(size_t n) {
  if (n < 1) return 1;
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ------------------------------------------------------- sharded cache ----

ShardedSessionCache::ShardedSessionCache(size_t shards, size_t capacity,
                                         uint64_t lifetime_ms) {
  const size_t n = round_up_pow2(shards);
  // Split the total capacity across shards (ceiling, so shards*per >= total
  // and a capacity below the shard count still holds at least one entry per
  // shard unless the cache is disabled outright).
  const size_t per_shard = capacity == 0 ? 0 : (capacity + n - 1) / n;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>(per_shard, lifetime_ms));
}

ShardedSessionCache::Shard& ShardedSessionCache::shard_of(
    const Bytes& session_id) {
  return *shards_[fnv1a(session_id) & (shards_.size() - 1)];
}

void ShardedSessionCache::put(const Bytes& session_id, SessionState state,
                              uint64_t now_ms) {
  Shard& shard = shard_of(session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.cache.put(session_id, std::move(state), now_ms);
}

std::optional<SessionState> ShardedSessionCache::get(const Bytes& session_id,
                                                     uint64_t now_ms) {
  Shard& shard = shard_of(session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.cache.get(session_id, now_ms);
}

void ShardedSessionCache::remove(const Bytes& session_id) {
  Shard& shard = shard_of(session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.cache.remove(session_id);
}

template <typename Read>
uint64_t ShardedSessionCache::sum(Read read) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += read(shard->cache);
  }
  return total;
}

size_t ShardedSessionCache::size() const {
  return sum([](const SessionCache& c) { return c.size(); });
}

size_t ShardedSessionCache::bytes() const {
  return sum([](const SessionCache& c) { return c.bytes(); });
}

uint64_t ShardedSessionCache::hits() const {
  return sum([](const SessionCache& c) { return c.hits(); });
}

uint64_t ShardedSessionCache::misses() const {
  return sum([](const SessionCache& c) { return c.misses(); });
}

uint64_t ShardedSessionCache::inserts() const {
  return sum([](const SessionCache& c) { return c.inserts(); });
}

uint64_t ShardedSessionCache::evictions() const {
  return sum([](const SessionCache& c) { return c.evictions(); });
}

uint64_t ShardedSessionCache::expirations() const {
  return sum([](const SessionCache& c) { return c.expirations(); });
}

uint64_t ShardedSessionCache::removes() const {
  return sum([](const SessionCache& c) { return c.removes(); });
}

// ------------------------------------------------------------ key ring ----

TicketKeyRing::TicketKeyRing(BytesView seed, uint64_t rotate_interval_ms,
                             uint32_t accept_epochs, uint64_t lifetime_ms)
    : seed_(seed.begin(), seed.end()),
      rotate_interval_ms_(rotate_interval_ms),
      accept_epochs_(accept_epochs),
      lifetime_ms_(lifetime_ms) {}

std::shared_ptr<const TicketKeyRing::EpochKey> TicketKeyRing::key_for(
    uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(epoch);
  if (it != keys_.end()) return it->second;

  // Per-epoch material: seed || epoch. The key name and the keeper's
  // enc/mac keys all derive from it, deterministically across workers and
  // across the sim backend (no RNG involved).
  Bytes material = seed_;
  append_u64(material, epoch);
  const Bytes prk =
      hkdf_extract(HashAlg::kSha256, to_bytes("qtls-ticket-ring"), material);
  Bytes name = hkdf_expand(HashAlg::kSha256, prk, to_bytes("name"),
                           kKeyNameLen);
  auto key = std::make_shared<const EpochKey>(std::move(name), material,
                                              lifetime_ms_);
  keys_.emplace(epoch, key);
  // Prune retired epochs; in-flight users hold shared_ptrs. Keep a window
  // comfortably wider than the accept range.
  const size_t keep = static_cast<size_t>(accept_epochs_) + 4;
  while (keys_.size() > keep) keys_.erase(keys_.begin());
  return key;
}

Bytes TicketKeyRing::key_name(uint64_t epoch) const {
  return key_for(epoch)->name;
}

Bytes TicketKeyRing::seal(const SessionState& state, uint64_t now_ms,
                          HmacDrbg& iv_rng) const {
  const auto key = key_for(epoch_at(now_ms));
  Bytes ticket = key->name;
  append(ticket, key->keeper.seal(state, now_ms, iv_rng));
  seals_.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

Result<TicketKeyRing::Unsealed> TicketKeyRing::unseal(BytesView ticket,
                                                      uint64_t now_ms) const {
  if (ticket.size() < kKeyNameLen) {
    unseal_rejects_.fetch_add(1, std::memory_order_relaxed);
    return err(Code::kCryptoError, "ticket shorter than key name");
  }
  const BytesView name = ticket.subspan(0, kKeyNameLen);
  const uint64_t current = epoch_at(now_ms);
  const uint64_t min_epoch =
      current > accept_epochs_ ? current - accept_epochs_ : 0;
  for (uint64_t epoch = current + 1; epoch-- > min_epoch;) {
    const auto key = key_for(epoch);
    if (!ct_equal(name, key->name)) continue;
    auto state = key->keeper.unseal(ticket.subspan(kKeyNameLen), now_ms);
    if (!state.is_ok()) {
      unseal_rejects_.fetch_add(1, std::memory_order_relaxed);
      return state.status();
    }
    Unsealed out;
    out.state = std::move(state).take();
    out.epoch = epoch;
    out.current = epoch == current;
    unseal_ok_.fetch_add(1, std::memory_order_relaxed);
    if (!out.current) {
      unseal_old_epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  }
  // Unknown name: sealed under a retired epoch (or another server's ring).
  unseal_rejects_.fetch_add(1, std::memory_order_relaxed);
  return err(Code::kFailedPrecondition, "ticket key epoch not accepted");
}

// --------------------------------------------------------------- plane ----

SessionPlane::SessionPlane(const SessionPlaneConfig& config)
    : config_(config),
      cache_(config.cache_shards, config.cache_capacity, config.lifetime_ms),
      ring_(
          [&config] {
            Bytes seed;
            append_u64(seed, config.seed);
            append(seed, to_bytes("session-plane"));
            return seed;
          }(),
          config.ticket_rotate_interval_ms, config.ticket_accept_epochs,
          config.lifetime_ms) {}

std::string SessionPlane::stats_json(uint64_t now_ms) const {
  std::ostringstream os;
  os << "{\"cache_shards\":" << cache_.shards()
     << ",\"cache_size\":" << cache_.size()
     << ",\"cache_bytes\":" << cache_.bytes()
     << ",\"cache_hits\":" << cache_.hits()
     << ",\"cache_misses\":" << cache_.misses()
     << ",\"cache_inserts\":" << cache_.inserts()
     << ",\"cache_evictions\":" << cache_.evictions()
     << ",\"cache_expirations\":" << cache_.expirations()
     << ",\"ticket_epoch\":" << ring_.epoch_at(now_ms)
     << ",\"tickets_sealed\":" << ring_.seals()
     << ",\"tickets_unsealed\":" << ring_.unseal_ok()
     << ",\"tickets_old_epoch\":" << ring_.unseal_old_epoch()
     << ",\"tickets_rejected\":" << ring_.unseal_rejects() << "}";
  return os.str();
}

}  // namespace qtls::tls
