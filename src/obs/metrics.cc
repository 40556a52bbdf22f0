#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/spsc_ring.h"  // kCacheLine

#if QTLS_OBS_ENABLED
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#endif

namespace qtls::obs {

// ---------------------------------------------------------------------------
// Snapshot types (both build modes)
// ---------------------------------------------------------------------------

uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

const LatencyHistogram* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h.hist;
  return nullptr;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << '"' << counters[i].first << "\":"
       << counters[i].second;
  }
  os << "},\"histograms\":{";
  bool first = true;
  for (const auto& h : histograms) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%" PRIu64 ",\"mean_ns\":%.1f,"
                  "\"p50_ns\":%" PRIu64 ",\"p90_ns\":%" PRIu64
                  ",\"p99_ns\":%" PRIu64 ",\"max_ns\":%" PRIu64 "}",
                  h.name.c_str(), h.hist.count(), h.hist.mean_nanos(),
                  h.hist.percentile_nanos(50), h.hist.percentile_nanos(90),
                  h.hist.percentile_nanos(99), h.hist.max_nanos());
    os << (first ? "" : ",") << buf;
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& [n, v] : counters) os << n << " = " << v << '\n';
  for (const auto& h : histograms) {
    if (h.hist.count() == 0) continue;
    os << h.name << ": " << h.hist.summary() << '\n';
  }
  return os.str();
}

#if QTLS_OBS_ENABLED

inline namespace obs_enabled {

namespace {

// Epoch source: a destroyed registry's address may be reused; the epoch in
// the thread-local shard cache disambiguates incarnations.
std::atomic<uint64_t> g_registry_epoch{1};

// One histogram's cells inside one shard. Single writer (the owning
// thread); relaxed atomics publish to the snapshot reader.
struct HistCells {
  std::atomic<uint64_t> buckets[LatencyHistogram::kNumBuckets] = {};
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> max{0};

  void record(uint64_t nanos) {
    size_t idx = LatencyHistogram::bucket_index(nanos);
    if (idx >= LatencyHistogram::kNumBuckets)
      idx = LatencyHistogram::kNumBuckets - 1;
    buckets[idx].store(buckets[idx].load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    sum.store(sum.load(std::memory_order_relaxed) + nanos,
              std::memory_order_relaxed);
    if (nanos > max.load(std::memory_order_relaxed))
      max.store(nanos, std::memory_order_relaxed);
  }

  void zero() {
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
    count.store(0, std::memory_order_relaxed);
    sum.store(0, std::memory_order_relaxed);
    max.store(0, std::memory_order_relaxed);
  }
};

}  // namespace

// One thread's cells. Counter arrays are pre-sized to the registry
// caps; histogram cells hang off atomic pointers filled in at registration
// (for existing shards) or shard creation (for already-registered
// histograms), always under the registry mutex.
struct alignas(kCacheLine) MetricsRegistry::Shard {
  std::atomic<uint64_t> counters[kMaxCounters] = {};
  std::atomic<HistCells*> hists[kMaxHistograms] = {};

  ~Shard() {
    for (auto& h : hists) delete h.load(std::memory_order_relaxed);
  }
};

struct MetricsRegistry::State {
  mutable std::mutex mu;
  std::vector<std::string> counter_names, hist_names;
  std::map<std::string, uint32_t, std::less<>> counter_ids, hist_ids;
  std::vector<std::unique_ptr<Shard>> shards;
  std::map<std::thread::id, Shard*> shard_by_thread;
};

MetricsRegistry::MetricsRegistry()
    : state_(new State),
      epoch_(g_registry_epoch.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() { delete state_; }

MetricsRegistry& MetricsRegistry::global() {
  // Leaked: instrumented threads (QAT engines, workers) may record during
  // static destruction; the registry must outlive them all.
  static auto* registry = new MetricsRegistry;
  return *registry;
}

namespace {
template <typename Map, typename Names>
uint32_t intern(Map& ids, Names& names, std::string_view name, size_t cap) {
  auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  if (names.size() >= cap) return static_cast<uint32_t>(cap - 1);  // clamp
  const auto id = static_cast<uint32_t>(names.size());
  names.emplace_back(name);
  ids.emplace(std::string(name), id);
  return id;
}
}  // namespace

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(state_->mu);
  return Counter(this, intern(state_->counter_ids, state_->counter_names,
                              name, kMaxCounters));
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->hist_ids.find(name);
  if (it != state_->hist_ids.end()) return Histogram(this, it->second);
  const uint32_t id = intern(state_->hist_ids, state_->hist_names, name,
                             kMaxHistograms);
  // Give every existing shard cells for the new histogram before any handle
  // escapes; shards created later get cells for all registered histograms.
  for (auto& shard : state_->shards) {
    if (!shard->hists[id].load(std::memory_order_relaxed))
      shard->hists[id].store(new HistCells, std::memory_order_release);
  }
  return Histogram(this, id);
}

size_t MetricsRegistry::num_counters() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->counter_names.size();
}
size_t MetricsRegistry::num_histograms() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->hist_names.size();
}
size_t MetricsRegistry::num_shards() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->shards.size();
}

MetricsRegistry::Shard* MetricsRegistry::register_thread() {
  std::lock_guard<std::mutex> lock(state_->mu);
  const auto tid = std::this_thread::get_id();
  auto it = state_->shard_by_thread.find(tid);
  if (it != state_->shard_by_thread.end()) return it->second;
  auto shard = std::make_unique<Shard>();
  for (size_t i = 0; i < state_->hist_names.size(); ++i)
    shard->hists[i].store(new HistCells, std::memory_order_release);
  Shard* raw = shard.get();
  state_->shards.push_back(std::move(shard));
  state_->shard_by_thread.emplace(tid, raw);
  return raw;
}

MetricsRegistry::Shard* MetricsRegistry::local_shard() {
  struct CacheEntry {
    const MetricsRegistry* reg = nullptr;
    uint64_t epoch = 0;
    Shard* shard = nullptr;
  };
  // Small per-thread cache: hot lookups are a pointer+epoch compare; a miss
  // (new thread, evicted entry, or a registry recreated at the same
  // address) falls back to the mutexed map.
  thread_local CacheEntry cache[4];
  thread_local size_t evict = 0;
  for (const auto& e : cache)
    if (e.reg == this && e.epoch == epoch_) return e.shard;
  Shard* shard = register_thread();
  cache[evict] = CacheEntry{this, epoch_, shard};
  evict = (evict + 1) % (sizeof(cache) / sizeof(cache[0]));
  return shard;
}

void MetricsRegistry::counter_add(uint32_t id, uint64_t n) {
  auto& cell = local_shard()->counters[id];
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void MetricsRegistry::histogram_record(uint32_t id, uint64_t nanos) {
  HistCells* cells =
      local_shard()->hists[id].load(std::memory_order_acquire);
  if (cells) cells->record(nanos);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  MetricsSnapshot out;
  out.counters.reserve(state_->counter_names.size());
  for (size_t i = 0; i < state_->counter_names.size(); ++i) {
    uint64_t total = 0;
    for (const auto& shard : state_->shards)
      total += shard->counters[i].load(std::memory_order_relaxed);
    out.counters.emplace_back(state_->counter_names[i], total);
  }
  out.histograms.reserve(state_->hist_names.size());
  for (size_t i = 0; i < state_->hist_names.size(); ++i) {
    HistogramSnapshot hs;
    hs.name = state_->hist_names[i];
    for (const auto& shard : state_->shards) {
      const HistCells* cells =
          shard->hists[i].load(std::memory_order_acquire);
      if (!cells) continue;
      uint64_t counts[LatencyHistogram::kNumBuckets];
      for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b)
        counts[b] = cells->buckets[b].load(std::memory_order_relaxed);
      hs.hist.merge_counts(counts, LatencyHistogram::kNumBuckets,
                           cells->count.load(std::memory_order_relaxed),
                           cells->sum.load(std::memory_order_relaxed),
                           cells->max.load(std::memory_order_relaxed));
    }
    out.histograms.push_back(std::move(hs));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(state_->mu);
  for (auto& shard : state_->shards) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : shard->hists) {
      if (HistCells* cells = h.load(std::memory_order_relaxed)) cells->zero();
    }
  }
}

}  // inline namespace obs_enabled

#endif  // QTLS_OBS_ENABLED

}  // namespace qtls::obs
