// Multi-device topology bench (DESIGN.md §12), two planes:
//
//  1. Scaling curve (virtual time): closed-loop offload through
//     sim::SimDeviceTopology at 1/2/4 devices. Each device brings its own
//     engine set, so completed ops/sec must grow monotonically with the
//     fleet — the exit-status gate. (Wall clock can't show this on a
//     4-core host: the device model's engines run their crypto on the host
//     CPUs, so a fleet of 1, 2 or 4 devices shares the same four cores.)
//
//  2. Mid-bench device kill (wall clock, real stack): worker threads drive
//     sync offload through per-device engine lanes while device 0 is
//     hot-removed and later re-added. Gates: zero client-visible errors,
//     conservation (submitted == completed + deadline expiries on every
//     provider — the reset latch drains in-flight work through error
//     responses), load shifted within the breaker cooldown, and the
//     recovered device re-bound promptly after re_add.
//
// One machine-readable line per run, grep '^BENCH_JSON':
//   BENCH_JSON {"metric":"topology.scaling","devices":2,...}
//   BENCH_JSON {"metric":"topology.device_kill","shift_ms":...,
//               "recovery_ms":...,...}
// QTLS_BENCH_DURATION_MS scales the wall-clock phases (default 400).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "engine/qat_engine.h"
#include "qat/topology.h"
#include "sim/qat_sim.h"

using namespace qtls;

namespace {

// --- part 1: virtual-time scaling curve ------------------------------------

double sim_fleet_ops_per_sec(int devices) {
  constexpr int kWorkers = 16;
  constexpr sim::SimTime kService = 100 * sim::kUs;  // per-op engine time
  constexpr sim::SimTime kWindow = 1 * sim::kSec;

  sim::Simulator sim;
  sim::CostModel costs;
  sim::SimDeviceTopology topo(&sim, &costs, devices, /*endpoints=*/1,
                              /*engines_per_endpoint=*/4);
  // Every worker holds an instance on every device so spillover has
  // somewhere to go; affinity stripes workers across the fleet.
  std::vector<std::vector<sim::SimQatInstance*>> inst(kWorkers);
  for (int w = 0; w < kWorkers; ++w)
    for (int d = 0; d < devices; ++d)
      inst[static_cast<size_t>(w)].push_back(topo.allocate_instance(d));

  // Closed loop: each worker keeps exactly one op in flight, re-picking the
  // device per op (queue-depth-aware spillover under contention).
  std::function<void(int)> pump = [&](int w) {
    if (sim.now() >= kWindow) return;
    const int d = topo.pick_device(w % devices, /*spill_threshold=*/2);
    if (d < 0) return;
    const sim::SimTime done = inst[static_cast<size_t>(w)][static_cast<size_t>(
        d)]->submit_blocking(sim::SOp::kRsaPriv, kService);
    if (done == 0) {  // ring full: back off one service quantum
      sim.schedule_after(kService, [&pump, w] { pump(w); });
      return;
    }
    sim.schedule_at(done, [&pump, w] { pump(w); });
  };
  for (int w = 0; w < kWorkers; ++w) pump(w);
  sim.run_until(kWindow);
  return static_cast<double>(topo.completed_ops()) /
         (static_cast<double>(kWindow) / sim::kSec);
}

// --- part 2: wall-clock device kill ----------------------------------------

uint64_t now_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct KillOutcome {
  double shift_ms = -1;     // kill -> every worker completing ops again
  double recovery_ms = -1;  // re_add -> the revived device serving again
  uint64_t errors = 0;
  uint64_t ok = 0;
  bool conserved = true;
  uint64_t sw_fallbacks = 0;
};

KillOutcome run_device_kill(uint64_t phase_ms) {
  constexpr int kDevices = 2;
  constexpr int kWorkers = 4;

  qat::TopologyConfig tc;
  tc.num_devices = kDevices;
  tc.device.num_endpoints = 1;
  tc.device.engines_per_endpoint = 2;
  tc.device.ring_capacity = 64;
  tc.device.max_instances_per_endpoint = 8;
  tc.device.extra_service_ns = 100'000;  // device-like offload latency
  qat::DeviceTopology topo(tc);

  engine::QatEngineConfig ecfg;
  ecfg.offload_mode = engine::OffloadMode::kSync;
  ecfg.max_retries = 3;
  ecfg.retry_backoff_base_us = 20;
  ecfg.breaker_threshold = 2;
  ecfg.breaker_cooldown_ms = 100;

  std::vector<std::unique_ptr<engine::QatEngineProvider>> providers;
  for (int w = 0; w < kWorkers; ++w) {
    std::vector<engine::DeviceInstanceSet> sets;
    for (int d = 0; d < kDevices; ++d)
      sets.push_back(engine::DeviceInstanceSet{
          d, {topo.device(d).allocate_instance()}});
    providers.push_back(std::make_unique<engine::QatEngineProvider>(
        &topo, w % kDevices, std::move(sets), ecfg));
  }

  std::atomic<bool> stop{false};
  std::vector<std::atomic<uint64_t>> ok(kWorkers), errs(kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      const Bytes secret = to_bytes("bench-secret");
      const Bytes seed = to_bytes("seed");
      while (!stop.load(std::memory_order_acquire)) {
        auto r = providers[static_cast<size_t>(w)]->prf_tls12(
            HashAlg::kSha256, secret, "topology-bench", seed, 32);
        auto& slot = r.is_ok() ? ok[static_cast<size_t>(w)]
                               : errs[static_cast<size_t>(w)];
        slot.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  KillOutcome out;
  std::this_thread::sleep_for(std::chrono::milliseconds(phase_ms));

  // Kill device 0 mid-bench; "shifted" when every worker has completed new
  // ops since the kill (the dev-0-affine ones migrated to the survivor).
  std::vector<uint64_t> ok_at_kill(kWorkers);
  for (int w = 0; w < kWorkers; ++w)
    ok_at_kill[static_cast<size_t>(w)] =
        ok[static_cast<size_t>(w)].load(std::memory_order_relaxed);
  const uint64_t t_kill = now_ms();
  topo.hot_remove(0);
  const uint64_t kill_deadline = t_kill + phase_ms;
  while (now_ms() < kill_deadline) {
    if (out.shift_ms < 0) {
      bool all_advanced = true;
      for (int w = 0; w < kWorkers; ++w)
        all_advanced &= ok[static_cast<size_t>(w)].load(
                            std::memory_order_relaxed) >
                        ok_at_kill[static_cast<size_t>(w)];
      if (all_advanced)
        out.shift_ms = static_cast<double>(now_ms() - t_kill);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Re-add; "recovered" when the revived device serves requests again (the
  // generation bump lets tripped lanes re-probe without waiting out their
  // cooldown).
  const uint64_t dev0_at_readd = topo.device(0).fw_counters().total_responses();
  const uint64_t t_readd = now_ms();
  topo.re_add(0);
  const uint64_t readd_deadline = t_readd + phase_ms;
  while (now_ms() < readd_deadline) {
    if (out.recovery_ms < 0 &&
        topo.device(0).fw_counters().total_responses() > dev0_at_readd)
      out.recovery_ms = static_cast<double>(now_ms() - t_readd);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  for (int w = 0; w < kWorkers; ++w) {
    out.ok += ok[static_cast<size_t>(w)].load(std::memory_order_relaxed);
    out.errors += errs[static_cast<size_t>(w)].load(std::memory_order_relaxed);
    const engine::QatEngineStats& s = providers[static_cast<size_t>(w)]->stats();
    out.conserved &= s.submitted == s.completed + s.deadline_expiries;
    out.conserved &= providers[static_cast<size_t>(w)]->inflight_total() == 0;
    out.sw_fallbacks += s.sw_fallbacks;
  }
  return out;
}

}  // namespace

int main() {
  uint64_t phase_ms = 400;
  if (const char* env = std::getenv("QTLS_BENCH_DURATION_MS")) {
    const uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) phase_ms = v;
  }

  std::printf("=== Multi-device topology: scaling curve (virtual time) ===\n");
  bool gate_ok = true;
  double prev = 0;
  for (const int devices : {1, 2, 4}) {
    const double ops = sim_fleet_ops_per_sec(devices);
    std::printf("BENCH_JSON {\"metric\":\"topology.scaling\",\"devices\":%d,"
                "\"workers\":16,\"ops_per_sec\":%.0f}\n",
                devices, ops);
    if (ops <= prev) {
      std::printf("GATE FAIL: %d-device fleet (%.0f ops/s) did not beat the "
                  "previous size (%.0f ops/s)\n",
                  devices, ops, prev);
      gate_ok = false;
    }
    prev = ops;
  }

  std::printf("\n=== Mid-bench device kill (wall clock, %lu ms phases) ===\n",
              static_cast<unsigned long>(phase_ms));
  const KillOutcome k = run_device_kill(phase_ms);
  std::printf(
      "BENCH_JSON {\"metric\":\"topology.device_kill\",\"devices\":2,"
      "\"ops\":%llu,\"errors\":%llu,\"conserved\":%s,\"sw_fallbacks\":%llu,"
      "\"shift_ms\":%.0f,\"recovery_ms\":%.0f}\n",
      static_cast<unsigned long long>(k.ok),
      static_cast<unsigned long long>(k.errors), k.conserved ? "true" : "false",
      static_cast<unsigned long long>(k.sw_fallbacks), k.shift_ms,
      k.recovery_ms);

  if (k.errors != 0) {
    std::printf("GATE FAIL: %llu client-visible errors during kill/re-add\n",
                static_cast<unsigned long long>(k.errors));
    gate_ok = false;
  }
  if (!k.conserved) {
    std::printf("GATE FAIL: op conservation violated (submitted != "
                "completed + deadline_expiries)\n");
    gate_ok = false;
  }
  if (k.shift_ms < 0 || k.shift_ms > 100) {
    std::printf("GATE FAIL: load did not shift within the breaker cooldown "
                "(shift_ms=%.0f, cooldown=100)\n", k.shift_ms);
    gate_ok = false;
  }
  if (k.recovery_ms < 0 || k.recovery_ms > 500) {
    std::printf("GATE FAIL: revived device not re-bound promptly "
                "(recovery_ms=%.0f)\n", k.recovery_ms);
    gate_ok = false;
  }
  return gate_ok ? 0 : 1;
}
