// QAT device model (paper §2.3, Figure 2): a device hosts several endpoints;
// each endpoint owns parallel computation engines and hardware-assisted
// request/response ring pairs grouped into crypto instances. Software writes
// requests onto a request ring and reads responses back from a response
// ring; the hardware load-balances requests from all rings across all
// engines; response availability is indicated by polling.
//
// This is the real-time backend: engines are worker threads that execute
// the request's `compute` closure (real crypto). The virtual-time backend
// for the figure benches lives in src/sim/ and shares the service-time
// model (qat/service_time.h).
//
// Dispatch path (see DESIGN.md "Dispatch path"): the request/response path
// is lock-free end to end. Submits are SPSC ring pushes plus a per-engine
// futex-eventcount wakeup; engines claim requests through an atomic
// round-robin cursor and a per-instance claim flag (no lock while scanning);
// responses cross a bounded MPSC ring whose consumer side — poll() — is
// wait-free; firmware counters are striped relaxed atomics aggregated on
// read. The only mutex left is the cold instance-allocation path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/futex_event.h"
#include "common/mpsc_ring.h"
#include "common/spsc_ring.h"
#include "common/status.h"
#include "qat/api.h"
#include "qat/fault.h"

namespace qtls::qat {

// Response availability can be indicated using either interrupt or polling
// (paper §2.3). QTLS selects polling (§3.3: one userspace polling operation
// costs far less than one kernel interrupt); the interrupt mode is kept as
// the foil — the callback fires from the engine thread, the way a kernel
// interrupt handler would preempt, so callbacks must be thread-safe (the
// FD-based notification channel is; the kernel-bypass queue is not).
enum class ResponseDelivery : uint8_t { kPolled, kInterrupt };

struct DeviceConfig {
  int num_endpoints = 3;          // DH8970: three independent endpoints
  int engines_per_endpoint = 12;  // parallel computation engines
  size_t ring_capacity = 64;      // per-instance request ring slots
  int max_instances_per_endpoint = 48;
  ResponseDelivery delivery = ResponseDelivery::kPolled;
  // Optional extra service delay (busy wait, nanoseconds) added on the
  // engine to emulate device latency in integration tests. 0 = compute time
  // only.
  uint64_t extra_service_ns = 0;
  // Optional fault-injection plan, consulted at the service point (see
  // qat/fault.h). Non-owning; must outlive the device. nullptr = fault-free.
  FaultPlan* fault_plan = nullptr;
};

class QatEndpoint;

// Per-class op counters, striped one block per engine / per instance so no
// two threads write the same cache line on the hot path.
struct alignas(kCacheLine) OpClassCounters {
  std::atomic<uint64_t> v[kNumOpClasses] = {};
};

// A crypto instance: the logical unit assigned to one process/thread. The
// submit side is wait-free (SPSC ring push: one producer — the owning
// thread). poll() drains the MPSC response ring wait-free and runs
// callbacks in the caller's context.
class CryptoInstance {
 public:
  CryptoInstance(QatEndpoint* endpoint, int id, size_t ring_capacity,
                 size_t response_capacity);

  // Non-blocking submit. Returns false when the request ring is full or the
  // instance is at its inflight bound (response-ring backpressure) — the
  // caller is expected to pause the offload job and retry later (§3.2).
  bool submit(CryptoRequest req);

  // Batched submit: pushes a prefix of `reqs` and issues ONE engine wakeup
  // for the whole batch. Returns the number accepted; stops at the first
  // ring-full/backpressure rejection, leaving the remainder untouched for
  // the §3.2 retry path.
  size_t submit_batch(std::span<CryptoRequest> reqs);

  // Retrieve up to `max` responses, invoking each request's callback.
  // Wait-free on the ring-consumer side; responses are drained in batches
  // and callbacks run between batches. Returns the number retrieved.
  // Concurrent callers are serialized by skip: a second poller gets 0.
  size_t poll(size_t max = static_cast<size_t>(-1));

  // Submitted but not yet retrieved (includes requests in service).
  size_t inflight() const { return inflight_.load(std::memory_order_acquire); }

  // Event-driven wakeup (DESIGN.md §5). The provider that polls this
  // instance installs its eventfd once (-1 uninstalls; an instance serves
  // one provider). arm_wakeup() asks the engine that pushes the next
  // response to write that fd once; it returns false, disarmed, when a
  // response already waits, so the caller polls instead of sleeping. Arm
  // and disarm come from the polling thread.
  void set_wakeup_fd(int fd);
  bool arm_wakeup();
  void disarm_wakeup() {
    needs_wakeup_.store(false, std::memory_order_relaxed);
  }

  // Hard bound on inflight requests per instance; submits beyond it fail
  // like a full ring so the bounded response ring can never overflow.
  size_t inflight_limit() const { return response_ring_.capacity(); }

  int id() const { return id_; }
  QatEndpoint* endpoint() const { return endpoint_; }

 private:
  friend class QatEndpoint;

  struct ResponseEntry {
    CryptoResponse response;
    ResponseCallback callback;
  };

  // Common submit body; returns false without kicking on rejection.
  bool push_request(CryptoRequest& req);
  // Engine side of the wakeup, after a response push: one fence and one
  // load when unarmed.
  void wake_poller();

  QatEndpoint* endpoint_;
  int id_;
  SpscRing<CryptoRequest> request_ring_;
  // Responses come from multiple engine threads: bounded MPSC ring.
  MpscRing<ResponseEntry> response_ring_;
  // Request-ring consumer guard: engines claim the pop side with a
  // test_and_set and skip on contention, preserving the SPSC invariant
  // without a shared lock.
  std::atomic_flag claim_ = ATOMIC_FLAG_INIT;
  // Response-ring consumer guard: serializes accidental concurrent pollers.
  std::atomic_flag poll_guard_ = ATOMIC_FLAG_INIT;
  std::atomic<size_t> inflight_{0};
  // Request-side firmware counters (written by the single submitter).
  OpClassCounters req_counters_;
  // Wakeup handshake: set by arm_wakeup(), taken (exchange) by the engine
  // that writes `wakeup_fd_`. `waking_` counts engines between the two, so
  // uninstalling waits them out before the provider closes the fd.
  alignas(kCacheLine) std::atomic<bool> needs_wakeup_{false};
  std::atomic<int> wakeup_fd_{-1};
  std::atomic<int> waking_{0};
};

// Firmware counters, readable like /sys/kernel/debug/qat*/fw_counters.
// Aggregated on read from the per-instance request stripes and per-engine
// response stripes; no mutex anywhere near the hot path.
struct FwCounters {
  uint64_t requests[kNumOpClasses] = {0, 0, 0};
  uint64_t responses[kNumOpClasses] = {0, 0, 0};
  uint64_t total_requests() const {
    return requests[0] + requests[1] + requests[2];
  }
  uint64_t total_responses() const {
    return responses[0] + responses[1] + responses[2];
  }
  std::string to_string() const;
};

class QatEndpoint {
 public:
  QatEndpoint(const DeviceConfig& config, int id);
  ~QatEndpoint();

  QatEndpoint(const QatEndpoint&) = delete;
  QatEndpoint& operator=(const QatEndpoint&) = delete;

  // Allocates a crypto instance; returns nullptr when the endpoint is at
  // its instance limit.
  CryptoInstance* allocate_instance();

  FwCounters fw_counters() const;
  int id() const { return id_; }
  // Submitted-but-not-retrieved requests across every instance — the
  // endpoint's queue depth, read by the topology balancer.
  size_t inflight() const;

 private:
  friend class CryptoInstance;

  // One engine's wakeup channel + response counter stripe. Heap-allocated
  // (the eventcount is immovable) and cache-line aligned.
  struct alignas(kCacheLine) EngineSlot {
    FutexEvent wake;
    // True while the engine is committed to sleeping; a submitter that
    // flips it false owns the matching wake.signal().
    std::atomic<bool> asleep{false};
    OpClassCounters responses;
  };

  void kick();  // wake one sleeping engine after a submit
  void engine_main(int engine_id);
  // Lock-free claim: scan instances from the shared round-robin cursor,
  // taking each instance's pop side via its claim flag (skip on
  // contention). Returns false when every ring is empty or contended.
  bool claim_request(CryptoRequest* out, CryptoInstance** from);
  void serve(EngineSlot& slot, CryptoRequest& req, CryptoInstance* from);

  DeviceConfig config_;
  int id_;

  std::atomic<bool> stopping_{false};
  alignas(kCacheLine) std::atomic<size_t> rr_cursor_{0};
  alignas(kCacheLine) std::atomic<size_t> wake_cursor_{0};

  // Instance slots are pre-sized to the endpoint limit so engines can scan
  // them without synchronizing against reallocation; `num_instances_` is
  // the release-published count. The mutex covers allocation only.
  std::mutex alloc_mutex_;
  std::vector<std::unique_ptr<CryptoInstance>> instances_;
  std::atomic<size_t> num_instances_{0};

  std::vector<std::unique_ptr<EngineSlot>> engine_slots_;
  std::vector<std::thread> engines_;
};

// The whole accelerator card (e.g. one DH8970 = three endpoints).
class QatDevice {
 public:
  explicit QatDevice(const DeviceConfig& config = {});

  // Allocates instances round-robin across endpoints, the way the paper's
  // evaluation distributes Nginx workers' instances evenly (§5.1).
  CryptoInstance* allocate_instance();

  QatEndpoint& endpoint(int i) { return *endpoints_[static_cast<size_t>(i)]; }
  int num_endpoints() const { return static_cast<int>(endpoints_.size()); }

  // Aggregated fw_counters across endpoints.
  FwCounters fw_counters() const;

  // Card-wide queue depth (submitted, not yet retrieved). The topology
  // balancer reads this to spill placements away from saturated devices.
  size_t inflight() const;

 private:
  DeviceConfig config_;
  std::vector<std::unique_ptr<QatEndpoint>> endpoints_;
  std::atomic<size_t> next_endpoint_{0};
};

}  // namespace qtls::qat
