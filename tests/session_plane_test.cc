// Resumption-plane tests (ctest label "session"): the four session-lifetime
// /eviction bugfix regressions, the sharded cache under concurrency, the
// rotating ticket-key ring matrix, and end-to-end cross-worker resumption
// through a WorkerPool's shared plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "client/https_client.h"
#include "crypto/aes.h"
#include "crypto/hash.h"
#include "crypto/keystore.h"
#include "server/ssl_engine_conf.h"
#include "server/worker_pool.h"
#include "tls/session_plane.h"
#include "tls_test_util.h"

namespace qtls::tls {
namespace {

using testutil::pump_handshake;

SessionState make_state(uint8_t fill = 0xab) {
  SessionState state;
  state.suite = CipherSuite::kEcdheRsaWithAes128CbcSha;
  state.master_secret.assign(48, fill);
  return state;
}

Bytes id_of(uint32_t n) {
  Bytes id(kSessionIdSize, 0);
  id[0] = static_cast<uint8_t>(n);
  id[1] = static_cast<uint8_t>(n >> 8);
  id[2] = static_cast<uint8_t>(n >> 16);
  id[3] = static_cast<uint8_t>(n >> 24);
  return id;
}

// ---------------------------------------------------------------------------
// Bugfix 1: re-sealing a ticket on resumption must NOT restart its lifetime.

struct TicketPair {
  net::MemoryPipe pipe;
  engine::SoftwareProvider server_provider{1};
  engine::SoftwareProvider client_provider{2};
  // Park the key ring in epoch 0 for the whole test so only the ticket
  // LIFETIME decides acceptance, not key rotation.
  SessionPlane plane{
      SessionPlaneConfig{.ticket_rotate_interval_ms = 1ULL << 40, .seed = 111}};
  std::unique_ptr<TlsContext> server_ctx;
  std::unique_ptr<TlsContext> client_ctx;
  std::unique_ptr<TlsConnection> server;
  std::unique_ptr<TlsConnection> client;

  TicketPair() {
    TlsContextConfig scfg;
    scfg.is_server = true;
    scfg.cipher_suites = {CipherSuite::kEcdheRsaWithAes128CbcSha};
    scfg.use_session_tickets = true;
    scfg.drbg_seed = 111;
    server_ctx = std::make_unique<TlsContext>(scfg, &server_provider);
    server_ctx->set_session_plane(&plane);
    server_ctx->credentials().rsa_key = &test_rsa2048();

    TlsContextConfig ccfg;
    ccfg.cipher_suites = scfg.cipher_suites;
    ccfg.drbg_seed = 222;
    client_ctx = std::make_unique<TlsContext>(ccfg, &client_provider);
    reset_connections();
  }

  void reset_connections() {
    server = std::make_unique<TlsConnection>(server_ctx.get(), &pipe.b());
    client = std::make_unique<TlsConnection>(client_ctx.get(), &pipe.a());
  }
};

TEST(TicketLifetime, ResumptionDoesNotExtendLifetime) {
  TicketPair pair;
  uint64_t fake_now = 1'000'000;
  pair.server_ctx->set_clock([&fake_now] { return fake_now; });
  const uint64_t lifetime =
      pair.server_ctx->session_plane().config().lifetime_ms;

  ASSERT_TRUE(pump_handshake(pair.client.get(), pair.server.get()).ok);
  auto session = pair.client->established_session();
  ASSERT_TRUE(session.has_value());
  ASSERT_FALSE(session->ticket.empty());

  // Resume at 3/4 of the lifetime: accepted, and the server issues a
  // refreshed ticket. The refreshed ticket must carry the ORIGINAL creation
  // time forward.
  fake_now += lifetime * 3 / 4;
  pair.reset_connections();
  pair.client->offer_session(*session);
  ASSERT_TRUE(pump_handshake(pair.client.get(), pair.server.get()).ok);
  ASSERT_TRUE(pair.server->resumed_session());
  session = pair.client->established_session();
  ASSERT_TRUE(session.has_value());
  ASSERT_FALSE(session->ticket.empty());

  // Another 3/4 lifetime later the cumulative age exceeds the cap, so the
  // refreshed ticket must be rejected and the handshake falls back to full.
  // (Pre-fix, every refresh restarted the clock and a chatty client could
  // keep one master secret alive forever.)
  fake_now += lifetime * 3 / 4;
  pair.reset_connections();
  pair.client->offer_session(*session);
  ASSERT_TRUE(pump_handshake(pair.client.get(), pair.server.get()).ok);
  EXPECT_FALSE(pair.server->resumed_session());
}

// ---------------------------------------------------------------------------
// Bugfix 2: expiry checks must clamp, not underflow, when the clock reads
// EARLIER than the entry's creation time (cross-worker skew, sim restart).

TEST(SessionCacheExpiry, FutureDatedEntryIsNotExpired) {
  SessionCache cache(16, /*lifetime_ms=*/1000);
  cache.put(id_of(1), make_state(), /*now_ms=*/10'000);
  // Clock behind creation: age clamps to 0. Pre-fix the unsigned
  // subtraction wrapped to ~2^64 and the live entry was dropped.
  EXPECT_TRUE(cache.get(id_of(1), /*now_ms=*/5'000).has_value());
  // Normal forward expiry is unchanged.
  EXPECT_TRUE(cache.get(id_of(1), 11'000).has_value());
  EXPECT_FALSE(cache.get(id_of(1), 11'001).has_value());
}

TEST(TicketExpiry, FutureDatedTicketIsNotExpired) {
  HmacDrbg rng(HashAlg::kSha256, to_bytes("iv-seed"));
  TicketKeeper keeper(to_bytes("seed"), /*lifetime_ms=*/1000);
  SessionState state = make_state();
  state.created_at_ms = 10'000;
  const Bytes ticket = keeper.seal(state, 10'000, rng);
  EXPECT_TRUE(keeper.unseal(ticket, /*now_ms=*/5'000).is_ok());
  EXPECT_TRUE(keeper.unseal(ticket, 11'000).is_ok());
  EXPECT_FALSE(keeper.unseal(ticket, 11'001).is_ok());
}

// ---------------------------------------------------------------------------
// Bugfix 3: capacity 0 disables the cache outright, and eviction prefers an
// expired entry over the live LRU tail.

TEST(SessionCacheEviction, CapacityZeroNeverInserts) {
  SessionCache cache(0, 1000);
  cache.put(id_of(1), make_state(), 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(id_of(1), 0).has_value());
}

TEST(SessionCacheEviction, PrefersExpiredOverLruTail) {
  SessionCache cache(/*capacity=*/2, /*lifetime_ms=*/10);
  cache.put(id_of(1), make_state(), /*now_ms=*/0);  // A: expires after t=10
  cache.put(id_of(2), make_state(), 8);             // B: expires after t=18
  // Touch A so it is MRU and live B sits at the LRU tail.
  ASSERT_TRUE(cache.get(id_of(1), 9).has_value());
  // At t=12, A is expired. Inserting C at capacity must evict expired A,
  // not the live LRU-tail entry B (which pre-fix eviction removed).
  // Reclaiming the expired entry books as an EXPIRATION (PR 9 taxonomy),
  // not an eviction: no live entry was displaced.
  cache.put(id_of(3), make_state(), 12);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.expirations(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_FALSE(cache.get(id_of(1), 12).has_value());
  EXPECT_TRUE(cache.get(id_of(2), 12).has_value());
  EXPECT_TRUE(cache.get(id_of(3), 12).has_value());
}

// ---------------------------------------------------------------------------
// Bugfix 4: unseal must verify EVERY PKCS7 pad byte and reject ciphertext
// that is not a whole number of AES blocks.

// Re-derive the keeper's enc/mac keys (the derivation is deterministic) so
// the test can forge tickets that pass the MAC with corrupted plaintext.
struct KeeperKeys {
  Bytes enc;
  Bytes mac;
  explicit KeeperKeys(BytesView seed) {
    const Bytes prk =
        hkdf_extract(HashAlg::kSha256, to_bytes("qtls-ticket-key"), seed);
    enc = hkdf_expand(HashAlg::kSha256, prk, to_bytes("enc"), 16);
    mac = hkdf_expand(HashAlg::kSha256, prk, to_bytes("mac"), 32);
  }
};

TEST(TicketPadding, RejectsCorruptInteriorPadBytes) {
  const Bytes seed = to_bytes("pad-test-seed");
  TicketKeeper keeper(seed, 3'600'000);
  KeeperKeys keys(seed);

  // Valid ticket body: suite(2) + created_at(8) + len(2) + secret(32) = 44
  // bytes, so PKCS7 pad is 4. Corrupt the two interior pad bytes while
  // keeping the final one: {4, 9, 9, 4} instead of {4, 4, 4, 4}.
  Bytes plain;
  append_u16(plain, static_cast<uint16_t>(
                        CipherSuite::kEcdheRsaWithAes128CbcSha));
  append_u64(plain, 1'000);
  Bytes secret(32, 0x5a);
  append_u16(plain, static_cast<uint16_t>(secret.size()));
  append(plain, secret);
  ASSERT_EQ(plain.size(), 44u);
  plain.insert(plain.end(), {4, 9, 9, 4});

  Bytes iv(16, 0x11);
  Aes aes(keys.enc);
  Bytes forged = iv;
  append(forged, aes_cbc_encrypt(aes, iv, plain));
  append(forged, hmac(HashAlg::kSha256, keys.mac, forged));

  // The MAC is genuine, so only full pad verification can catch this.
  // Pre-fix unseal checked plain.back() alone and ACCEPTED the ticket.
  auto result = keeper.unseal(forged, 2'000);
  EXPECT_FALSE(result.is_ok());

  // Control: the same forge with correct padding unseals fine.
  plain.resize(44);
  plain.insert(plain.end(), {4, 4, 4, 4});
  Bytes good = iv;
  append(good, aes_cbc_encrypt(aes, iv, plain));
  append(good, hmac(HashAlg::kSha256, keys.mac, good));
  EXPECT_TRUE(keeper.unseal(good, 2'000).is_ok());
}

TEST(TicketPadding, RejectsNonBlockAlignedCiphertext) {
  const Bytes seed = to_bytes("pad-test-seed");
  TicketKeeper keeper(seed, 3'600'000);
  KeeperKeys keys(seed);
  HmacDrbg rng(HashAlg::kSha256, to_bytes("iv-seed"));

  const Bytes ticket = keeper.seal(make_state(), 1'000, rng);
  // Chop 8 bytes off the ciphertext and re-MAC so the forgery reaches the
  // decrypt stage; the up-front block-size check must reject it.
  Bytes chopped(ticket.begin(), ticket.end() - 32 - 8);
  append(chopped, hmac(HashAlg::kSha256, keys.mac, chopped));
  EXPECT_FALSE(keeper.unseal(chopped, 2'000).is_ok());
}

// ---------------------------------------------------------------------------
// Sharded cache under concurrency: run under -DQTLS_SANITIZE=thread for the
// race check; the counter-conservation invariants hold either way.

TEST(ShardedSessionCache, ConcurrentCountersConserve) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4'000;
  constexpr uint32_t kKeySpace = 256;
  // TTL chosen so phase-2 ops (run at now=10'000) find every phase-1 entry
  // (created at now=1'000) expired: expirations then happen on BOTH the
  // get path and the insert path's expired-first probe, concurrently.
  ShardedSessionCache cache(16, /*capacity=*/128, /*lifetime_ms=*/2'000);

  std::vector<std::thread> threads;
  std::atomic<uint64_t> gets{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &gets, t] {
      uint64_t rng = 0x9e3779b9u * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint32_t key = static_cast<uint32_t>(rng >> 33) % kKeySpace;
        const uint64_t now_ms = i < kOpsPerThread / 2 ? 1'000 : 10'000;
        if ((rng & 3) == 0) {
          cache.put(id_of(key), make_state(), now_ms);
        } else {
          (void)cache.get(id_of(key), now_ms);
          gets.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every get was either a hit or a miss — nothing lost across shards.
  EXPECT_EQ(cache.hits() + cache.misses(), gets.load());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  // Capacity is honored (ceil(128/16) = 8 per shard, 16 shards).
  EXPECT_LE(cache.size(), 128u);
  // 256 keys into 128 slots must have evicted, and the TTL boundary must
  // have expired entries through both the get path and the insert probe.
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.expirations(), 0u);
  // The conservation invariant the eviction counters used to break: every
  // inserted entry is still live or was removed for exactly one booked
  // reason. Pre-fix, expired-first probe victims were booked as evictions
  // and get-path expiry removals were not booked at all, so this equality
  // failed whenever the cache ran at capacity across a TTL boundary.
  EXPECT_EQ(cache.inserts(),
            cache.size() + cache.evictions() + cache.expirations() +
                cache.removes());
}

// Deterministic single-shard repro of the insert-path accounting bug: fill
// past capacity, cross the TTL boundary, insert again. The expired-first
// probe reclaims expired entries — those are expirations, not evictions.
TEST(ShardedSessionCache, ExpiredProbeOnInsertBooksExpirationNotEviction) {
  SessionCache cache(/*capacity=*/4, /*lifetime_ms=*/1'000);
  for (uint32_t k = 0; k < 4; ++k)
    cache.put(id_of(k), make_state(), /*now_ms=*/0);
  EXPECT_EQ(cache.size(), 4u);

  // All four entries are now expired; each new insert's probe finds one.
  for (uint32_t k = 100; k < 104; ++k)
    cache.put(id_of(k), make_state(), /*now_ms=*/5'000);

  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.inserts(), 8u);
  EXPECT_EQ(cache.expirations(), 4u);  // pre-fix: booked as 4 evictions
  EXPECT_EQ(cache.evictions(), 0u);
  // A fifth insert at the same timestamp must displace a LIVE entry — a
  // genuine eviction.
  cache.put(id_of(200), make_state(), 5'000);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.inserts(),
            cache.size() + cache.evictions() + cache.expirations() +
                cache.removes());
}

// ---------------------------------------------------------------------------
// Flat slot store: footprint, input checks, and an op-by-op comparison with
// a plain list model of LRU + TTL + expired-first eviction.

TEST(ShardedSessionCache, FlatStoreFootprint) {
  ShardedSessionCache cache(16, 10'000, 3'600'000);
  EXPECT_EQ(cache.bytes(), 0u);  // an empty cache owns no slot or index
  for (uint32_t k = 0; k < 10'000; ++k)
    cache.put(id_of(k), make_state(), /*now_ms=*/k);
  EXPECT_GT(cache.bytes(), 0u);
  EXPECT_LE(cache.bytes(), 10'000u * 128);  // slot + index + growth slack
  EXPECT_EQ(cache.inserts(), 10'000u);
  EXPECT_EQ(cache.inserts(), cache.size() + cache.evictions() +
                                 cache.expirations() + cache.removes());
}

// A capacity at the shard count leaves one entry per shard: every shard
// must still serve puts and gets of ids it does not hold.
TEST(ShardedSessionCache, OneEntryPerShard) {
  ShardedSessionCache cache(16, 16, 3'600'000);
  for (uint32_t k = 0; k < 200; ++k) {
    cache.put(id_of(k), make_state(static_cast<uint8_t>(k)), k);
    const auto got = cache.get(id_of(k), k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(got->master_secret, make_state(static_cast<uint8_t>(k)).master_secret);
  }
  EXPECT_LE(cache.size(), 16u);
  uint32_t hits = 0;
  for (uint32_t k = 0; k < 200; ++k) hits += cache.get(id_of(k), 200).has_value();
  EXPECT_EQ(hits, cache.size());
  EXPECT_EQ(cache.inserts(), cache.size() + cache.evictions() +
                                 cache.expirations() + cache.removes());
}

TEST(ShardedSessionCache, StatsJsonReportsCacheBytes) {
  SessionPlane plane{SessionPlaneConfig{}};
  EXPECT_NE(plane.stats_json(0).find("\"cache_bytes\":0,"), std::string::npos);
  plane.cache().put(id_of(1), make_state(), 0);
  EXPECT_GT(plane.cache().bytes(), 0u);
  EXPECT_NE(plane.stats_json(0).find("\"cache_bytes\":" +
                                     std::to_string(plane.cache().bytes()) +
                                     ","),
            std::string::npos);
}

TEST(SessionCacheInput, RejectsWrongIdSizeAndLongSecret) {
  SessionCache cache(4, 1'000);
  cache.put(Bytes(kSessionIdSize - 1, 1), make_state(), 0);
  cache.put(Bytes(kSessionIdSize + 1, 1), make_state(), 0);
  SessionState long_secret = make_state();
  long_secret.master_secret.assign(SessionCache::kMaxSecret + 1, 1);
  cache.put(id_of(1), long_secret, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.inserts(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.get(Bytes(kSessionIdSize - 1, 1), 0).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  SessionState short_secret = make_state();
  short_secret.master_secret.assign(20, 0x5c);
  cache.put(id_of(2), short_secret, 7);
  const auto got = cache.get(id_of(2), 8);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->master_secret, short_secret.master_secret);
  EXPECT_EQ(got->suite, short_secret.suite);
  EXPECT_EQ(got->created_at_ms, 7u);
}

TEST(SessionCacheModel, MatchesListModel) {
  // The small capacities run on the smallest indexes, where a miss still
  // needs an empty cell to end its probe; 24 exercises probe runs, backward
  // shifts and slot moves in a fuller index.
  for (const size_t capacity : {1, 2, 3, 24}) {
    SCOPED_TRACE(capacity);
    constexpr uint64_t kLifetime = 50;
    struct Entry {
      uint32_t key;
      uint8_t fill;
      uint64_t created;
    };
    std::vector<Entry> lru;  // front = most recent
    uint64_t hits = 0, misses = 0, inserts = 0, evictions = 0, expirations = 0,
             removes = 0;
    auto find = [&lru](uint32_t key) {
      return std::find_if(lru.begin(), lru.end(),
                          [key](const Entry& e) { return e.key == key; });
    };
    auto expired = [](const Entry& e, uint64_t now) {
      return now >= e.created && now - e.created > kLifetime;
    };

    SessionCache cache(capacity, kLifetime);
    uint64_t rng = 0x5e55;
    uint64_t now = 0;
    for (int op = 0; op < 20'000; ++op) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint32_t key = static_cast<uint32_t>(rng >> 40) % 64;
      const uint8_t fill = static_cast<uint8_t>(rng >> 20);
      if ((rng & 7) == 0) now += (rng >> 8) % 9;
      switch ((rng >> 4) % 4) {
        case 0:
        case 1: {
          cache.put(id_of(key), make_state(fill), now);
          auto it = find(key);
          if (it != lru.end()) {
            lru.erase(it);
          } else {
            if (lru.size() >= capacity) {
              size_t victim = lru.size() - 1;
              bool victim_expired = false;
              for (size_t i = lru.size(), probes = 0; i-- > 0 && probes < 8;
                   ++probes) {
                if (expired(lru[i], now)) {
                  victim = i;
                  victim_expired = true;
                  break;
                }
              }
              lru.erase(lru.begin() + static_cast<ptrdiff_t>(victim));
              ++(victim_expired ? expirations : evictions);
            }
            ++inserts;
          }
          lru.insert(lru.begin(), Entry{key, fill, now});
          break;
        }
        case 2: {
          const auto got = cache.get(id_of(key), now);
          auto it = find(key);
          if (it == lru.end() || expired(*it, now)) {
            if (it != lru.end()) {
              lru.erase(it);
              ++expirations;
            }
            ++misses;
            ASSERT_FALSE(got.has_value()) << "op " << op;
          } else {
            const Entry e = *it;
            lru.erase(it);
            lru.insert(lru.begin(), e);
            ++hits;
            ASSERT_TRUE(got.has_value()) << "op " << op;
            EXPECT_EQ(got->master_secret, make_state(e.fill).master_secret);
            EXPECT_EQ(got->created_at_ms, e.created);
          }
          break;
        }
        default: {
          cache.remove(id_of(key));
          auto it = find(key);
          if (it != lru.end()) {
            lru.erase(it);
            ++removes;
          }
          break;
        }
      }
      ASSERT_EQ(cache.size(), lru.size()) << "op " << op;
      ASSERT_EQ(cache.hits(), hits) << "op " << op;
      ASSERT_EQ(cache.misses(), misses) << "op " << op;
      ASSERT_EQ(cache.inserts(), inserts) << "op " << op;
      ASSERT_EQ(cache.evictions(), evictions) << "op " << op;
      ASSERT_EQ(cache.expirations(), expirations) << "op " << op;
      ASSERT_EQ(cache.removes(), removes) << "op " << op;
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(removes, 0u);
    // The small caches turn over before an entry outlives its lifetime.
    if (capacity > 3) {
      EXPECT_GT(expirations, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Ticket-key ring rotation matrix.

TEST(TicketKeyRing, RotationMatrix) {
  TicketKeyRing ring(to_bytes("ring-seed"), /*rotate_interval_ms=*/1000,
                     /*accept_epochs=*/1, /*lifetime_ms=*/3'600'000);
  HmacDrbg rng(HashAlg::kSha256, to_bytes("iv-seed"));
  const SessionState state = make_state();

  // Sealed in epoch 0; the ticket leads with epoch 0's key name.
  const Bytes ticket = ring.seal(state, /*now_ms=*/500, rng);
  ASSERT_GE(ticket.size(), TicketKeyRing::kKeyNameLen);
  EXPECT_TRUE(std::equal(ticket.begin(),
                         ticket.begin() + TicketKeyRing::kKeyNameLen,
                         ring.key_name(0).begin()));

  // Same epoch: accepted as current.
  auto same = ring.unseal(ticket, 999);
  ASSERT_TRUE(same.is_ok());
  EXPECT_EQ(same.value().epoch, 0u);
  EXPECT_TRUE(same.value().current);

  // One epoch later: still accepted (accept_epochs = 1) but flagged stale,
  // and a re-seal now uses epoch 1's key.
  auto old = ring.unseal(ticket, 1'500);
  ASSERT_TRUE(old.is_ok());
  EXPECT_EQ(old.value().epoch, 0u);
  EXPECT_FALSE(old.value().current);
  EXPECT_EQ(old.value().state.master_secret, state.master_secret);
  const Bytes resealed = ring.seal(old.value().state, 1'500, rng);
  EXPECT_TRUE(std::equal(resealed.begin(),
                         resealed.begin() + TicketKeyRing::kKeyNameLen,
                         ring.key_name(1).begin()));
  auto fresh = ring.unseal(resealed, 1'600);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(fresh.value().epoch, 1u);
  EXPECT_TRUE(fresh.value().current);

  // Two epochs later: outside the accept window.
  EXPECT_FALSE(ring.unseal(ticket, 2'500).is_ok());

  EXPECT_EQ(ring.unseal_ok(), 3u);
  EXPECT_EQ(ring.unseal_old_epoch(), 1u);
  EXPECT_EQ(ring.unseal_rejects(), 1u);
}

TEST(TicketKeyRing, ZeroIntervalDisablesRotationNotLifetime) {
  TicketKeyRing ring(to_bytes("ring-seed"), /*rotate_interval_ms=*/0,
                     /*accept_epochs=*/0, /*lifetime_ms=*/10'000);
  HmacDrbg rng(HashAlg::kSha256, to_bytes("iv-seed"));
  EXPECT_EQ(ring.epoch_at(0), 0u);
  EXPECT_EQ(ring.epoch_at(1ULL << 50), 0u);
  const Bytes ticket = ring.seal(make_state(), 0, rng);
  // No epoch ever rejects it, but the lifetime still does.
  EXPECT_TRUE(ring.unseal(ticket, 10'000).is_ok());
  EXPECT_FALSE(ring.unseal(ticket, 10'001).is_ok());
}

TEST(TicketKeyRing, EpochKeysDifferAndAreDeterministic) {
  TicketKeyRing a(to_bytes("ring-seed"), 1000, 1, 1000);
  TicketKeyRing b(to_bytes("ring-seed"), 1000, 1, 1000);
  TicketKeyRing c(to_bytes("other-seed"), 1000, 1, 1000);
  EXPECT_EQ(a.key_name(7), b.key_name(7));   // same seed: same ring
  EXPECT_NE(a.key_name(7), a.key_name(8));   // epochs are distinct
  EXPECT_NE(a.key_name(7), c.key_name(7));   // seeds are distinct
}

// ---------------------------------------------------------------------------
// End-to-end: a WorkerPool's shared plane resumes sessions across workers.

client::ClientStats drive_pool_clients(server::WorkerPool& pool,
                                       bool session_tickets, int clients,
                                       uint64_t requests_per_client) {
  engine::SoftwareProvider client_provider;
  TlsContextConfig ccfg;
  ccfg.cipher_suites = {CipherSuite::kEcdheRsaWithAes128CbcSha};
  TlsContext cctx(ccfg, &client_provider);

  client::Pool cpool;
  const uint16_t port = pool.port();
  for (int i = 0; i < clients; ++i) {
    client::ClientOptions copts;
    copts.full_handshake_ratio = 0.0;  // offer whenever a session exists
    copts.max_requests = requests_per_client;
    cpool.add(std::make_unique<client::HttpsClient>(
        &cctx,
        [port]() -> int {
          auto fd = net::tcp_connect(port);
          return fd.is_ok() ? fd.value() : -1;
        },
        copts, 5000 + static_cast<uint64_t>(i) +
                   (session_tickets ? 100'000 : 0)));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool all_done = false;
  while (!all_done && std::chrono::steady_clock::now() < deadline) {
    all_done = true;
    for (auto& c : cpool.clients()) {
      if (c->step()) all_done = false;
    }
  }
  EXPECT_TRUE(all_done) << "clients did not finish before the deadline";
  return cpool.aggregate();
}

void run_cross_worker(bool session_tickets) {
  qat::DeviceTopology topo{qat::TopologyConfig{}};
  server::WorkerPoolOptions options;
  options.workers = 4;
  options.tls_config.async_mode = true;
  options.tls_config.use_session_tickets = session_tickets;
  options.tls_config.cipher_suites = {
      CipherSuite::kEcdheRsaWithAes128CbcSha};

  server::WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  const client::ClientStats cstats =
      drive_pool_clients(pool, session_tickets, /*clients=*/12,
                         /*requests_per_client=*/5);
  pool.stop();

  EXPECT_EQ(cstats.errors, 0u);
  // Each client's first connection is full; every later one offers, and
  // with the pool-shared plane EVERY offer must land no matter which
  // SO_REUSEPORT worker accepted it.
  EXPECT_EQ(cstats.offered, 12u * 4u);
  EXPECT_EQ(cstats.resumed, cstats.offered);

  // The kernel spread 60 connections over the listeners, so more than one
  // worker must have handled handshakes (otherwise this test proves
  // nothing about CROSS-worker resumption).
  const server::WorkerPoolStats wstats = pool.stats();
  int workers_hit = 0;
  for (uint64_t h : wstats.per_worker_handshakes) {
    if (h > 0) ++workers_hit;
  }
  EXPECT_GE(workers_hit, 2);
  if (session_tickets) {
    EXPECT_GE(pool.session_plane().tickets().unseal_ok(), cstats.resumed);
  } else {
    EXPECT_GE(wstats.session_hits, cstats.resumed);
  }
}

TEST(CrossWorkerResumption, SessionIdCacheSharedAcrossWorkers) {
  run_cross_worker(/*session_tickets=*/false);
}

TEST(CrossWorkerResumption, TicketRingSharedAcrossWorkers) {
  run_cross_worker(/*session_tickets=*/true);
}

// ---------------------------------------------------------------------------
// Conf plumbing: the session_cache{} block shapes the plane.

TEST(SessionCacheConf, ParsesBlock) {
  const char* text = R"(
worker_processes 2;
session_cache {
    shards 8;
    capacity 512;
    lifetime_ms 60000;
    ticket_rotate_interval_ms 5000;
    ticket_accept_epochs 2;
}
)";
  auto settings = server::parse_ssl_engine_settings(text);
  ASSERT_TRUE(settings.is_ok()) << settings.status().message();
  EXPECT_EQ(settings.value().session.cache_shards, 8u);
  EXPECT_EQ(settings.value().session.cache_capacity, 512u);
  EXPECT_EQ(settings.value().session.lifetime_ms, 60'000u);
  EXPECT_EQ(settings.value().session.ticket_rotate_interval_ms, 5'000u);
  EXPECT_EQ(settings.value().session.ticket_accept_epochs, 2u);
}

TEST(SessionCacheConf, ShapesThePoolsPlane) {
  auto settings = server::parse_ssl_engine_settings(R"(
worker_processes 1;
session_cache {
    shards 4;
    capacity 64;
    lifetime_ms 5000;
}
)");
  ASSERT_TRUE(settings.is_ok()) << settings.status().message();
  qat::DeviceTopology topo(settings.value().topology);
  server::WorkerPoolOptions options =
      server::pool_options_from(settings.value());
  options.tls_config.cipher_suites = {CipherSuite::kEcdheRsaWithAes128CbcSha};
  server::WorkerPool pool(&topo, &test_rsa2048(), options);
  ASSERT_TRUE(pool.start(0).is_ok());
  const SessionPlaneConfig& live = pool.session_plane().config();
  EXPECT_EQ(live.cache_shards, 4u);
  EXPECT_EQ(live.cache_capacity, 64u);
  EXPECT_EQ(live.lifetime_ms, 5'000u);

  // The worker's GET /stats reports the shape it serves.
  engine::SoftwareProvider client_provider;
  TlsContextConfig ccfg;
  ccfg.cipher_suites = options.tls_config.cipher_suites;
  TlsContext cctx(ccfg, &client_provider);
  client::ClientOptions copts;
  copts.path = "/stats";
  copts.max_requests = 1;
  const uint16_t port = pool.port();
  client::HttpsClient stats_client(
      &cctx,
      [port]() -> int {
        auto fd = net::tcp_connect(port);
        return fd.is_ok() ? fd.value() : -1;
      },
      copts);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stats_client.step() && std::chrono::steady_clock::now() < deadline) {
  }
  pool.stop();
  EXPECT_EQ(stats_client.stats().errors, 0u);
  const std::string body(stats_client.last_body().begin(),
                         stats_client.last_body().end());
  EXPECT_NE(body.find("\"session\":{\"cache_shards\":4,"), std::string::npos)
      << body;
}

TEST(SessionCacheConf, DefaultsWithoutBlockAndRejectsBadValues) {
  auto defaults = server::parse_ssl_engine_settings("worker_processes 1;");
  ASSERT_TRUE(defaults.is_ok());
  EXPECT_EQ(defaults.value().session.cache_shards, 16u);
  EXPECT_EQ(defaults.value().session.cache_capacity, 10'000u);

  EXPECT_FALSE(server::parse_ssl_engine_settings(
                   "session_cache { shards 0; }")
                   .is_ok());
  EXPECT_FALSE(server::parse_ssl_engine_settings(
                   "session_cache { lifetime_ms 0; }")
                   .is_ok());
  EXPECT_FALSE(server::parse_ssl_engine_settings(
                   "session_cache { ticket_accept_epochs 100; }")
                   .is_ok());
}

}  // namespace
}  // namespace qtls::tls
