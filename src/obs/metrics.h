// Runtime metrics registry for the offload pipeline (DESIGN.md §8).
//
// The bench harness stats (common/stats.h) are offline accumulators owned by
// one thread; this registry is the always-on plane: counters and latency
// histograms keyed by interned string labels, recordable from any
// thread with relaxed-atomic cost and no heap allocation on the record path.
//
// Design:
//  * Interning — a metric name is resolved once (mutex, map lookup) to a
//    small integer id carried inside the returned handle. Hot paths never
//    touch strings.
//  * Shard-and-merge — each recording thread owns a Shard (created on its
//    first record; the only allocation the record path can ever trigger).
//    A shard is single-writer: increments are relaxed load+store pairs, not
//    lock-prefixed RMWs. snapshot() takes the registration mutex (so the
//    shard list is stable) and sums the relaxed-published cells; writers
//    are never blocked. Tolerates snapshot-while-writing by construction.
//  * Fixed capacity — shards pre-size their cell arrays to kMaxCounters /
//    kMaxHistograms so registration never reallocates storage
//    a concurrent recorder might be touching. Histogram cells (16 KB per
//    histogram per shard) are allocated at registration / shard creation,
//    behind the same mutex.
//  * Compile-out — building with -DQTLS_OBS=OFF (QTLS_OBS_ENABLED=0) turns
//    every handle into an inline no-op and the registry into an empty stub;
//    call sites compile away entirely. The enabled and disabled definitions
//    live in distinct inline namespaces so a disabled translation unit can
//    coexist with an enabled library without ODR collisions (the
//    compiled-out regression test relies on this).
//
// Aggregation semantics: counters and histograms sum across shards.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

#ifndef QTLS_OBS_ENABLED
#define QTLS_OBS_ENABLED 1
#endif

namespace qtls::obs {

// ---------------------------------------------------------------------------
// Snapshot types — shared verbatim by both build modes (defined in
// metrics.cc unconditionally, so mixed-mode programs agree on the layout).
// ---------------------------------------------------------------------------

struct HistogramSnapshot {
  std::string name;
  LatencyHistogram hist;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;

  // 0 / nullptr when the name is absent.
  uint64_t counter_value(std::string_view name) const;
  const LatencyHistogram* histogram(std::string_view name) const;

  std::string to_json() const;  // one object: {"counters":{...},...}
  std::string to_text() const;  // human-readable, one metric per line
};

#if QTLS_OBS_ENABLED

inline namespace obs_enabled {

class MetricsRegistry;

// Handles are small value types (registry pointer + interned id); copying
// them is free and they stay valid for the registry's lifetime.
class Counter {
 public:
  Counter() = default;
  inline void add(uint64_t n = 1);
  inline void inc() { add(1); }
  uint32_t id() const { return id_; }

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  uint32_t id_ = 0;
};

class Histogram {
 public:
  Histogram() = default;
  inline void record(uint64_t nanos);
  uint32_t id() const { return id_; }

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  uint32_t id_ = 0;
};

class MetricsRegistry {
 public:
  // Fixed shard capacity: registration beyond a cap is clamped to the last
  // id (metrics alias rather than corrupt memory) and logged once.
  static constexpr size_t kMaxCounters = 256;
  static constexpr size_t kMaxHistograms = 64;

  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every built-in instrumentation point uses.
  static MetricsRegistry& global();

  // Interning registration: the first call for a name assigns an id; later
  // calls (any thread) return a handle with the same id. Cold path (mutex).
  Counter counter(std::string_view name);
  Histogram histogram(std::string_view name);

  // Registered-metric counts (interning observability).
  size_t num_counters() const;
  size_t num_histograms() const;
  size_t num_shards() const;

  // Merge every shard into one consistent-enough view. Safe to call while
  // other threads record (relaxed reads; a racing increment may or may not
  // be included, never torn).
  MetricsSnapshot snapshot() const;

  // Zero every cell (between measurement phases; not exact when writers
  // race — a concurrent increment can survive the sweep).
  void reset();

  // --- record paths (called via the handles) ---------------------------
  void counter_add(uint32_t id, uint64_t n);
  void histogram_record(uint32_t id, uint64_t nanos);

 private:
  struct Shard;
  struct State;

  Shard* local_shard();
  Shard* register_thread();

  State* state_;
  uint64_t epoch_;  // unique per registry instance; validates TLS caches
};

inline void Counter::add(uint64_t n) {
  if (reg_) reg_->counter_add(id_, n);
}
inline void Histogram::record(uint64_t nanos) {
  if (reg_) reg_->histogram_record(id_, nanos);
}

}  // inline namespace obs_enabled

#else  // !QTLS_OBS_ENABLED — header-only no-op mirror of the API above.

inline namespace obs_disabled {

class Counter {
 public:
  void add(uint64_t = 1) {}
  void inc() {}
  uint32_t id() const { return 0; }
};

class Histogram {
 public:
  void record(uint64_t) {}
  uint32_t id() const { return 0; }
};

class MetricsRegistry {
 public:
  static constexpr size_t kMaxCounters = 256;
  static constexpr size_t kMaxHistograms = 64;

  static MetricsRegistry& global() {
    static MetricsRegistry registry;
    return registry;
  }

  Counter counter(std::string_view) { return {}; }
  Histogram histogram(std::string_view) { return {}; }

  size_t num_counters() const { return 0; }
  size_t num_histograms() const { return 0; }
  size_t num_shards() const { return 0; }

  MetricsSnapshot snapshot() const { return {}; }
  void reset() {}
};

}  // inline namespace obs_disabled

#endif  // QTLS_OBS_ENABLED

}  // namespace qtls::obs
