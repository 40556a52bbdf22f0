// Multi-device QAT topology (DESIGN.md §12): a fleet-scale box carries
// several accelerator cards, each on a NUMA node, and the serving layer has
// to answer three questions the single-card model never asked:
//
//  * placement — which device does a worker's instance set come from?
//    NUMA-style affinity: workers are striped across nodes the way irqbalance
//    pins VF interrupts, and instances come from a node-local card unless it
//    is saturated (queue-depth-aware spillover, qatlib's ADF-style even
//    VF distribution being the grounding shape);
//  * balancing — per-device queue depth steers both instance allocation and
//    per-op lane choice in the engine layer;
//  * failover — hot_remove() models surprise link-down: every op at the
//    device's service point fails with kDeviceReset (in-flight ops drain
//    through responses or the PR 2 deadline sweep; nothing is lost), load
//    shifts to surviving devices via the engine's per-device breaker, and
//    re_add() re-probes/rebalances.
//
// Each logical device owns its endpoints/engines/rings AND its own FaultPlan
// — devices fail independently, which is the whole point of having more
// than one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qat/device.h"
#include "qat/fault.h"

namespace qtls::qat {

struct TopologyConfig {
  int num_devices = 1;
  // Per-device shape (endpoints/engines/rings). `fault_plan` is ignored:
  // the topology provisions one plan per device so they fail independently.
  DeviceConfig device;
  // NUMA nodes the devices are spread across (device i sits on node
  // i % numa_nodes, matching how cards populate sockets round-robin).
  int numa_nodes = 1;
  // Queue-depth-aware spillover: a placement leaves its affine device when
  // that device's depth exceeds the fleet minimum by more than this.
  size_t spill_threshold = 32;
  // Seed for the per-device fault plans (device i gets seed ^ f(i)).
  uint64_t fault_seed = 0x746f706fULL;  // "topo"
  // Explicit worker->device map: worker w prefers device
  // worker_affinity[w % size] (mod num_devices). Empty = NUMA striping.
  // Mirrors conf `qat_topology { worker_affinity ...; }`.
  std::vector<int> worker_affinity;
};

// One device's placement-relevant state. `online` flips on hot_remove /
// re_add; `generation` counts those flips so engine lanes can notice a
// re-add and re-probe promptly.
struct TopologyDeviceStats {
  int id = 0;
  int numa_node = 0;
  bool online = true;
  uint64_t generation = 0;
  size_t queue_depth = 0;
  size_t instances_allocated = 0;
  uint64_t requests = 0;   // fw request total
  uint64_t responses = 0;  // fw response total
};

class DeviceTopology {
 public:
  explicit DeviceTopology(TopologyConfig config);

  DeviceTopology(const DeviceTopology&) = delete;
  DeviceTopology& operator=(const DeviceTopology&) = delete;

  int num_devices() const { return static_cast<int>(devices_.size()); }
  QatDevice& device(int i) { return *devices_[static_cast<size_t>(i)]->dev; }
  FaultPlan& fault_plan(int i) {
    return *devices_[static_cast<size_t>(i)]->plan;
  }
  int numa_node_of(int i) const {
    return devices_[static_cast<size_t>(i)]->numa_node;
  }
  size_t spill_threshold() const { return config_.spill_threshold; }

  bool online(int i) const {
    return devices_[static_cast<size_t>(i)]->online.load(
        std::memory_order_acquire);
  }
  int online_devices() const;

  // Bumped on every hot_remove()/re_add(); engine lanes compare it against
  // their cached value to re-probe a re-added device without waiting out a
  // full breaker cooldown.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Queue depth (submitted, not yet retrieved) of one device.
  size_t queue_depth(int i) const {
    return devices_[static_cast<size_t>(i)]->dev->inflight();
  }

  // Worker→device affinity: the explicit worker_affinity map when one is
  // configured, else NUMA striping — workers are striped across nodes
  // (worker w sits on node w % numa_nodes, like SO_REUSEPORT workers pinned
  // round-robin), then across that node's devices. With fewer devices than
  // nodes this degenerates to plain round-robin over devices.
  int preferred_device(int worker_id, int num_workers) const;

  // Placement decision: the affine device unless it is offline or its queue
  // depth exceeds the online minimum by more than spill_threshold — then the
  // shallowest online device. Returns -1 when every device is offline.
  int pick_device(int preferred) const;

  struct Placement {
    CryptoInstance* instance = nullptr;
    int device = -1;
  };
  // Allocate `count` instances for one worker, one placement decision per
  // instance (so a saturated affine device spills only the overflow).
  // Placements land on offline devices never; returns what it could get.
  std::vector<Placement> allocate_for_worker(int worker_id, int num_workers,
                                             int count);

  // Surprise link-down. Marks the device offline for placement, then fails
  // every op at its service point with kDeviceReset (the FaultPlan reset
  // latch): in-flight ops drain through error responses — or, for requests
  // already dropped, through the engine's deadline sweep — so conservation
  // holds; new submissions migrate through the engine's per-device breaker.
  // Returns false if the device was already offline.
  bool hot_remove(int i);

  // The device comes back: clears the reset latch, marks it online, bumps
  // the generation so engine lanes re-probe and placement rebalances onto
  // it. Returns false if the device was already online.
  bool re_add(int i);

  uint64_t hot_removes() const {
    return hot_removes_.load(std::memory_order_relaxed);
  }
  uint64_t re_adds() const { return re_adds_.load(std::memory_order_relaxed); }
  // pick_device() decisions that left the affine device for a shallower one.
  uint64_t spillovers() const {
    return spillovers_.load(std::memory_order_relaxed);
  }

  std::vector<TopologyDeviceStats> stats() const;
  // The GET /stats "topology" object.
  std::string stats_json() const;

 private:
  struct Slot {
    std::unique_ptr<QatDevice> dev;
    std::unique_ptr<FaultPlan> plan;
    int numa_node = 0;
    std::atomic<bool> online{true};
    std::atomic<size_t> instances{0};
  };

  TopologyConfig config_;
  std::vector<std::unique_ptr<Slot>> devices_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> hot_removes_{0};
  std::atomic<uint64_t> re_adds_{0};
  mutable std::atomic<uint64_t> spillovers_{0};
};

}  // namespace qtls::qat
