#include "qat/topology.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/log.h"

namespace qtls::qat {

DeviceTopology::DeviceTopology(TopologyConfig config) : config_(config) {
  const int n = std::max(1, config_.num_devices);
  const int nodes = std::max(1, config_.numa_nodes);
  for (int i = 0; i < n; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->numa_node = i % nodes;
    slot->plan = std::make_unique<FaultPlan>(
        config_.fault_seed ^ (static_cast<uint64_t>(i + 1) *
                              0x9e3779b97f4a7c15ULL));
    DeviceConfig dcfg = config_.device;
    dcfg.fault_plan = slot->plan.get();
    slot->dev = std::make_unique<QatDevice>(dcfg);
    devices_.push_back(std::move(slot));
  }
}

int DeviceTopology::online_devices() const {
  int n = 0;
  for (const auto& d : devices_)
    if (d->online.load(std::memory_order_acquire)) ++n;
  return n;
}

int DeviceTopology::preferred_device(int worker_id, int num_workers) const {
  const int n = num_devices();
  if (n <= 1) return 0;
  const std::vector<int>& map = config_.worker_affinity;
  if (!map.empty())
    return map[static_cast<size_t>(worker_id) % map.size()] % n;
  const int nodes = std::max(1, config_.numa_nodes);
  if (nodes <= 1 || num_workers <= 0)
    return worker_id % n;
  // Stripe workers across nodes, then across the node's devices: worker w on
  // node w % nodes picks among devices {d : d % nodes == node}, rotating by
  // how many co-node workers precede it.
  const int node = worker_id % nodes;
  std::vector<int> node_devices;
  for (int d = 0; d < n; ++d)
    if (d % nodes == node) node_devices.push_back(d);
  if (node_devices.empty()) return worker_id % n;  // node without a card
  const int rank = worker_id / nodes;  // position among the node's workers
  return node_devices[static_cast<size_t>(rank) % node_devices.size()];
}

int DeviceTopology::pick_device(int preferred) const {
  const int n = num_devices();
  if (preferred < 0 || preferred >= n) preferred = 0;

  size_t min_depth = std::numeric_limits<size_t>::max();
  int shallowest = -1;
  for (int d = 0; d < n; ++d) {
    if (!online(d)) continue;
    const size_t depth = queue_depth(d);
    if (depth < min_depth) {
      min_depth = depth;
      shallowest = d;
    }
  }
  if (shallowest < 0) return -1;  // every device offline
  if (!online(preferred)) return shallowest;
  if (queue_depth(preferred) > min_depth + config_.spill_threshold) {
    spillovers_.fetch_add(1, std::memory_order_relaxed);
    return shallowest;
  }
  return preferred;
}

std::vector<DeviceTopology::Placement> DeviceTopology::allocate_for_worker(
    int worker_id, int num_workers, int count) {
  std::vector<Placement> out;
  const int preferred = preferred_device(worker_id, num_workers);
  for (int k = 0; k < count; ++k) {
    int dev = pick_device(preferred);
    if (dev < 0) break;
    CryptoInstance* inst = devices_[static_cast<size_t>(dev)]->dev
                               ->allocate_instance();
    if (!inst) {
      // Affine device out of instance slots: spill to any online device
      // that still has one.
      for (int d = 0; d < num_devices() && !inst; ++d) {
        if (!online(d) || d == dev) continue;
        inst = devices_[static_cast<size_t>(d)]->dev->allocate_instance();
        if (inst) dev = d;
      }
      if (!inst) break;  // fleet exhausted
    }
    devices_[static_cast<size_t>(dev)]->instances.fetch_add(
        1, std::memory_order_relaxed);
    out.push_back(Placement{inst, dev});
  }
  return out;
}

bool DeviceTopology::hot_remove(int i) {
  Slot& slot = *devices_[static_cast<size_t>(i)];
  bool expected = true;
  if (!slot.online.compare_exchange_strong(expected, false,
                                           std::memory_order_acq_rel))
    return false;
  // The reset latch fails every op at the service point with kDeviceReset
  // from here on — including requests already sitting in rings, so the
  // in-flight population drains through error responses, not silence.
  slot.plan->trigger_reset();
  generation_.fetch_add(1, std::memory_order_acq_rel);
  hot_removes_.fetch_add(1, std::memory_order_relaxed);
  QTLS_WARN << "qat topology: device " << i << " hot-removed";
  return true;
}

bool DeviceTopology::re_add(int i) {
  Slot& slot = *devices_[static_cast<size_t>(i)];
  bool expected = false;
  if (!slot.online.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel))
    return false;
  slot.plan->clear_reset();
  generation_.fetch_add(1, std::memory_order_acq_rel);
  re_adds_.fetch_add(1, std::memory_order_relaxed);
  QTLS_INFO << "qat topology: device " << i << " re-added";
  return true;
}

std::vector<TopologyDeviceStats> DeviceTopology::stats() const {
  std::vector<TopologyDeviceStats> out;
  const uint64_t gen = generation();
  for (int i = 0; i < num_devices(); ++i) {
    const Slot& slot = *devices_[static_cast<size_t>(i)];
    TopologyDeviceStats s;
    s.id = i;
    s.numa_node = slot.numa_node;
    s.online = slot.online.load(std::memory_order_acquire);
    s.generation = gen;
    s.queue_depth = slot.dev->inflight();
    s.instances_allocated = slot.instances.load(std::memory_order_relaxed);
    const FwCounters fw = slot.dev->fw_counters();
    s.requests = fw.total_requests();
    s.responses = fw.responses[0] + fw.responses[1] + fw.responses[2];
    out.push_back(s);
  }
  return out;
}

std::string DeviceTopology::stats_json() const {
  std::ostringstream os;
  os << "{\"devices\":" << num_devices()
     << ",\"online\":" << online_devices()
     << ",\"generation\":" << generation()
     << ",\"hot_removes\":" << hot_removes()
     << ",\"re_adds\":" << re_adds()
     << ",\"spillovers\":" << spillovers() << ",\"device\":[";
  const auto all = stats();
  for (size_t i = 0; i < all.size(); ++i) {
    const TopologyDeviceStats& s = all[i];
    os << (i ? "," : "") << "{\"id\":" << s.id
       << ",\"numa_node\":" << s.numa_node
       << ",\"online\":" << (s.online ? "true" : "false")
       << ",\"queue_depth\":" << s.queue_depth
       << ",\"instances\":" << s.instances_allocated
       << ",\"requests\":" << s.requests
       << ",\"responses\":" << s.responses << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace qtls::qat
