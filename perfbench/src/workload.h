// The three closed-loop workloads and what each one fixes on both sides.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "common/bytes.h"
#include "tls/types.h"

namespace qbench {

enum class Workload : uint8_t { kFullHandshake, kResumedHandshake, kBulkDownload };

inline bool parse_workload(const char* s, Workload* out) {
  if (std::strcmp(s, "full_handshake") == 0) *out = Workload::kFullHandshake;
  else if (std::strcmp(s, "resumed_handshake") == 0) *out = Workload::kResumedHandshake;
  else if (std::strcmp(s, "bulk_download") == 0) *out = Workload::kBulkDownload;
  else return false;
  return true;
}

// bulk_download measures the TLS 1.3 AES-128-GCM data plane; GCM open costs
// what GCM seal costs, so the load generator does not set the goodput the
// way a CBC download (open 5-7x slower than seal) would.
inline qtls::tls::CipherSuite suite_for(Workload w) {
  return w == Workload::kBulkDownload
             ? qtls::tls::CipherSuite::kTls13Aes128Sha256
             : qtls::tls::CipherSuite::kEcdheRsaWithAes128CbcSha;
}

constexpr size_t kObjectSize = 1024;  // the handshake workloads' object

// Connections the closed loop keeps open. full_handshake is engine-bound:
// with 8 the device queue stays non-empty, so a host stall delays queued work
// instead of idling the engine, and its p90 latency moved half as much with
// host steal as with 4 (NOTES.md, Noise).
inline int connections_for(Workload w) {
  return w == Workload::kFullHandshake ? 8 : 4;
}

inline bool keepalive_for(Workload w) { return w == Workload::kBulkDownload; }
// One load thread keeps up with full_handshake (about half busy). A single
// thread driving resumed_handshake measured 85% busy, at saturation, and GCM
// open at the client needs two for bulk_download.
inline int load_threads_for(Workload w) {
  return w == Workload::kFullHandshake ? 1 : 2;
}

// The object the worker serves when no file_root is set (Worker builds the
// same bytes); the load process byte-compares every response against it.
inline qtls::Bytes synthetic_object() {
  qtls::Bytes b(kObjectSize);
  for (size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<uint8_t>('a' + i % 26);
  return b;
}

inline uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace qbench
