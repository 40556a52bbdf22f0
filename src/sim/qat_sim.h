// Virtual-time QAT device: same semantics as the real-time backend in
// src/qat/ (endpoints with parallel engines, per-instance bounded request
// rings, response-by-polling, hardware load balancing, fault injection at
// the service point), driven by the DES clock instead of threads.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "qat/fault.h"
#include "sim/costs.h"
#include "sim/des.h"

namespace qtls::sim {

class SimQatEndpoint;

// A completed-response record waiting to be polled.
struct SimResponse {
  uint64_t request_id;
  SOp op;
  SimTime ready_at;
  qat::CryptoStatus status = qat::CryptoStatus::kSuccess;
  std::function<void()> on_retrieved;  // runs when the poll delivers it
  // Status-aware form (fault-injected runs); runs instead of on_retrieved
  // when set.
  std::function<void(qat::CryptoStatus)> on_retrieved_status;
  // Virtual-time lifecycle stamps (obs/trace.h): submit/enqueue at the
  // submit call, claim/service-start at engine dispatch, service-done at
  // completion — all in DES nanoseconds, so stage deltas are exactly the
  // sim/costs.h model (tests/trace_sim_test.cc).
  obs::TraceStamps trace;
};

class SimQatInstance {
 public:
  SimQatInstance(SimQatEndpoint* endpoint, size_t ring_capacity)
      : endpoint_(endpoint), ring_capacity_(ring_capacity) {}

  // Non-blocking submit with an explicit service time (callers may scale
  // the model's per-op time, e.g. partial records); false when the ring is
  // full.
  bool submit(SOp op, SimTime service, std::function<void()> on_retrieved);
  bool submit(SOp op, std::function<void()> on_retrieved);
  // Status-aware submit: the callback observes the response's CryptoStatus
  // (fault-injected runs). The void-callback overloads delegate here.
  bool submit_with_status(SOp op, SimTime service,
                          std::function<void(qat::CryptoStatus)> on_retrieved);

  // Straight-offload helper: submit and return the completion time (the
  // caller blocks until then); 0 when the ring is full. The response is
  // consumed implicitly at completion (no poll step).
  SimTime submit_blocking(SOp op, SimTime service);

  // Retrieve responses that are ready at the current sim time. Invokes each
  // response's continuation; returns the count.
  size_t poll(size_t max = static_cast<size_t>(-1));
  // The earliest time the next response becomes ready (for busy-wait
  // modelling); 0 if none pending.
  SimTime next_ready_time() const;

  size_t inflight_total() const { return inflight_total_; }
  size_t inflight_asym() const { return inflight_asym_; }
  size_t ready_count(SimTime now) const;
  // Responses lost to injected kDrop faults (device slot freed, nothing to
  // poll) — the sim mirror of the real backend's fw request/response gap.
  uint64_t dropped_responses() const { return dropped_; }

  SimQatEndpoint* endpoint() const { return endpoint_; }

 private:
  friend class SimQatEndpoint;

  SimQatEndpoint* endpoint_;
  size_t ring_capacity_;
  size_t ring_occupancy_ = 0;  // submitted, not yet taken by an engine
  size_t inflight_total_ = 0;  // submitted, not yet retrieved
  size_t inflight_asym_ = 0;
  uint64_t dropped_ = 0;
  std::deque<SimResponse> ready_;  // completed, awaiting poll (FIFO)
};

class SimQatEndpoint {
 public:
  SimQatEndpoint(Simulator* sim, const CostModel* costs, int engines)
      : sim_(sim), costs_(costs), engine_free_(static_cast<size_t>(engines), 0) {}

  SimQatInstance* make_instance(size_t ring_capacity) {
    instances_.push_back(
        std::make_unique<SimQatInstance>(this, ring_capacity));
    return instances_.back().get();
  }

  uint64_t completed_ops() const { return completed_; }

  // Fault-injection plan consulted when ops are dispatched (same contract
  // as DeviceConfig::fault_plan on the real-time backend). Non-owning.
  void set_fault_plan(qat::FaultPlan* plan) { fault_plan_ = plan; }
  qat::FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  friend class SimQatInstance;

  // Assign the earliest-free engine; returns completion time. When
  // `start_out` is set it receives the service start time (engine claim).
  SimTime dispatch(SimTime service, SimTime* start_out = nullptr);

  Simulator* sim_;
  const CostModel* costs_;
  std::vector<SimTime> engine_free_;
  std::vector<std::unique_ptr<SimQatInstance>> instances_;
  uint64_t completed_ = 0;
  uint64_t next_request_id_ = 1;
  qat::FaultPlan* fault_plan_ = nullptr;
};

// The whole card.
class SimQatDevice {
 public:
  SimQatDevice(Simulator* sim, const CostModel* costs, int endpoints,
               int engines_per_endpoint) {
    for (int i = 0; i < endpoints; ++i)
      endpoints_.push_back(
          std::make_unique<SimQatEndpoint>(sim, costs, engines_per_endpoint));
  }

  // Instances distributed evenly across endpoints (§5.1).
  SimQatInstance* allocate_instance(size_t ring_capacity = 64) {
    SimQatEndpoint* ep = endpoints_[next_++ % endpoints_.size()].get();
    return ep->make_instance(ring_capacity);
  }

  uint64_t completed_ops() const {
    uint64_t total = 0;
    for (const auto& ep : endpoints_) total += ep->completed_ops();
    return total;
  }

  // Install one fault plan across every endpoint (the card fails as a unit).
  void set_fault_plan(qat::FaultPlan* plan) {
    for (auto& ep : endpoints_) ep->set_fault_plan(plan);
  }

 private:
  std::vector<std::unique_ptr<SimQatEndpoint>> endpoints_;
  size_t next_ = 0;
};

// Multi-device fleet in virtual time — the DES mirror of
// qat::DeviceTopology (DESIGN.md §12): N cards, each with its own fault
// plan (devices fail independently), an online flag driven by
// hot_remove()/re_add(), and a shallowest-queue balancer for placement.
// Service capacity scales with device count because each device brings its
// own engine set — the cost model the 1/2/4-device scaling benches sweep.
class SimDeviceTopology {
 public:
  SimDeviceTopology(Simulator* sim, const CostModel* costs, int num_devices,
                    int endpoints, int engines_per_endpoint,
                    uint64_t fault_seed = 0x746f706fULL) {
    for (int i = 0; i < std::max(1, num_devices); ++i) {
      auto slot = std::make_unique<Slot>();
      slot->plan = std::make_unique<qat::FaultPlan>(
          fault_seed ^ (static_cast<uint64_t>(i + 1) * 0x9e3779b97f4a7c15ULL));
      slot->dev = std::make_unique<SimQatDevice>(sim, costs, endpoints,
                                                 engines_per_endpoint);
      slot->dev->set_fault_plan(slot->plan.get());
      devices_.push_back(std::move(slot));
    }
  }

  int num_devices() const { return static_cast<int>(devices_.size()); }
  SimQatDevice& device(int i) { return *devices_[static_cast<size_t>(i)]->dev; }
  qat::FaultPlan& fault_plan(int i) {
    return *devices_[static_cast<size_t>(i)]->plan;
  }
  bool online(int i) const { return devices_[static_cast<size_t>(i)]->online; }
  int online_devices() const {
    int n = 0;
    for (const auto& d : devices_)
      if (d->online) ++n;
    return n;
  }

  // Same reset-latch failover as the real-time topology: every op at the
  // removed device's service point fails with kDeviceReset, so in-flight
  // work drains through error responses.
  void hot_remove(int i) {
    Slot& slot = *devices_[static_cast<size_t>(i)];
    if (!slot.online) return;
    slot.online = false;
    slot.plan->trigger_reset();
  }
  void re_add(int i) {
    Slot& slot = *devices_[static_cast<size_t>(i)];
    if (slot.online) return;
    slot.plan->clear_reset();
    slot.online = true;
  }

  SimQatInstance* allocate_instance(int device, size_t ring_capacity = 64) {
    Slot& slot = *devices_[static_cast<size_t>(device)];
    SimQatInstance* inst = slot.dev->allocate_instance(ring_capacity);
    slot.instances.push_back(inst);
    return inst;
  }

  // Submitted-but-not-retrieved across the device's allocated instances.
  size_t queue_depth(int i) const {
    size_t depth = 0;
    for (const SimQatInstance* inst :
         devices_[static_cast<size_t>(i)]->instances)
      depth += inst->inflight_total();
    return depth;
  }

  // The affine device unless offline or deeper than the online minimum by
  // more than `spill_threshold`; -1 when every device is offline.
  int pick_device(int preferred, size_t spill_threshold = 32) const {
    size_t min_depth = static_cast<size_t>(-1);
    int shallowest = -1;
    for (int d = 0; d < num_devices(); ++d) {
      if (!online(d)) continue;
      const size_t depth = queue_depth(d);
      if (depth < min_depth) {
        min_depth = depth;
        shallowest = d;
      }
    }
    if (shallowest < 0) return -1;
    if (preferred < 0 || preferred >= num_devices() || !online(preferred))
      return shallowest;
    if (queue_depth(preferred) > min_depth + spill_threshold)
      return shallowest;
    return preferred;
  }

  uint64_t completed_ops() const {
    uint64_t total = 0;
    for (const auto& d : devices_) total += d->dev->completed_ops();
    return total;
  }

 private:
  struct Slot {
    std::unique_ptr<SimQatDevice> dev;
    std::unique_ptr<qat::FaultPlan> plan;
    std::vector<SimQatInstance*> instances;  // non-owning (device owns)
    bool online = true;
  };
  std::vector<std::unique_ptr<Slot>> devices_;
};

}  // namespace qtls::sim
