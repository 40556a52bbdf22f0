// Multi-device topology (DESIGN.md §12): placement invariants (NUMA
// striping, affinity, exhaustion spillover, offline exclusion), device-level
// failover through the engine's per-device lanes (ops MIGRATE to surviving
// devices — the per-class breaker must never flip to software while another
// device is up), hot_remove/re_add under load with conservation, and
// cross-device result parity. Select with `ctest -L topology`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/qat_engine.h"
#include "qat/fault.h"
#include "qat/topology.h"

namespace qtls {
namespace {

qat::TopologyConfig small_topology(int devices, int nodes = 1) {
  qat::TopologyConfig tc;
  tc.num_devices = devices;
  tc.numa_nodes = nodes;
  tc.device.num_endpoints = 1;
  tc.device.engines_per_endpoint = 2;
  tc.device.ring_capacity = 32;
  tc.device.max_instances_per_endpoint = 4;
  return tc;
}

// A provider with one lane per device (the multi-device worker shape).
struct TopoRig {
  qat::DeviceTopology topo;
  std::unique_ptr<engine::QatEngineProvider> engine;

  TopoRig(int devices, engine::QatEngineConfig ecfg, int preferred = 0,
          int instances_per_device = 1)
      : topo(small_topology(devices)) {
    std::vector<engine::DeviceInstanceSet> sets;
    for (int d = 0; d < devices; ++d) {
      engine::DeviceInstanceSet set;
      set.device_id = d;
      for (int k = 0; k < instances_per_device; ++k)
        set.instances.push_back(topo.device(d).allocate_instance());
      sets.push_back(std::move(set));
    }
    engine = std::make_unique<engine::QatEngineProvider>(
        &topo, preferred, std::move(sets), ecfg);
  }
};

Result<Bytes> run_prf(engine::QatEngineProvider& e, int i) {
  return e.prf_tls12(HashAlg::kSha256, to_bytes("secret" + std::to_string(i)),
                     "topology", to_bytes("seed"), 32);
}

Result<Bytes> expect_prf(int i) {
  engine::SoftwareProvider sw;
  return sw.prf_tls12(HashAlg::kSha256, to_bytes("secret" + std::to_string(i)),
                      "topology", to_bytes("seed"), 32);
}

// ------------------------------------------------ placement invariants ----

TEST(TopologyPlacement, NumaStripingAcrossNodes) {
  qat::DeviceTopology topo(small_topology(4, /*nodes=*/2));
  // Devices populate sockets round-robin.
  EXPECT_EQ(topo.numa_node_of(0), 0);
  EXPECT_EQ(topo.numa_node_of(1), 1);
  EXPECT_EQ(topo.numa_node_of(2), 0);
  EXPECT_EQ(topo.numa_node_of(3), 1);
  // Workers stripe across nodes, then across each node's devices: worker w
  // sits on node w % 2 and takes that node's device by rank w / 2.
  EXPECT_EQ(topo.preferred_device(0, 4), 0);  // node 0, rank 0 -> dev 0
  EXPECT_EQ(topo.preferred_device(1, 4), 1);  // node 1, rank 0 -> dev 1
  EXPECT_EQ(topo.preferred_device(2, 4), 2);  // node 0, rank 1 -> dev 2
  EXPECT_EQ(topo.preferred_device(3, 4), 3);  // node 1, rank 1 -> dev 3
  EXPECT_EQ(topo.preferred_device(4, 8), 0);  // wraps
  // Single device: everything lands on it.
  qat::DeviceTopology one(small_topology(1, 2));
  EXPECT_EQ(one.preferred_device(3, 4), 0);
}

TEST(TopologyPlacement, AllocationSpillsWhenAffineDeviceExhausted) {
  // Each device holds at most 4 instances (1 endpoint x 4 slots); asking for
  // 6 must take 4 from the affine device and spill 2 to the other.
  qat::DeviceTopology topo(small_topology(2));
  auto placements = topo.allocate_for_worker(/*worker=*/0, /*workers=*/1,
                                             /*count=*/6);
  ASSERT_EQ(placements.size(), 6u);
  int on_dev0 = 0, on_dev1 = 0;
  for (const auto& p : placements) {
    ASSERT_NE(p.instance, nullptr);
    (p.device == 0 ? on_dev0 : on_dev1)++;
  }
  EXPECT_EQ(on_dev0, 4);
  EXPECT_EQ(on_dev1, 2);
}

TEST(TopologyPlacement, OfflineDeviceNeverPlaced) {
  qat::DeviceTopology topo(small_topology(2));
  ASSERT_TRUE(topo.hot_remove(0));
  EXPECT_FALSE(topo.hot_remove(0));  // idempotent: already offline
  auto placements = topo.allocate_for_worker(0, 1, 2);
  ASSERT_EQ(placements.size(), 2u);
  for (const auto& p : placements) EXPECT_EQ(p.device, 1);
  // pick_device skips the offline affine device...
  EXPECT_EQ(topo.pick_device(0), 1);
  // ...and reports -1 when the whole fleet is dark.
  ASSERT_TRUE(topo.hot_remove(1));
  EXPECT_EQ(topo.pick_device(0), -1);
  // Re-add restores placement and bumps the generation each flip.
  const uint64_t gen = topo.generation();
  ASSERT_TRUE(topo.re_add(0));
  EXPECT_FALSE(topo.re_add(0));
  EXPECT_EQ(topo.pick_device(0), 0);
  EXPECT_EQ(topo.generation(), gen + 1);
  EXPECT_EQ(topo.online_devices(), 1);
}

// --------------------------------------------- failover through lanes ----

// One device's FaultPlan fails every op; the other stays healthy. Ops must
// migrate to the surviving device — never degrade to software — and after
// the faulty device recovers, the half-open probe must rebind it. Table-
// driven over the two terminal-failure shapes (persistent device errors vs
// the reset latch) and the two re-probe triggers (cooldown elapsed vs
// topology generation bump).
struct FailoverCase {
  const char* name;
  bool use_reset_latch;  // else: error_rate = 1.0
  bool recover_via_generation;  // else: wait out the breaker cooldown
};

class TopologyFailover : public ::testing::TestWithParam<FailoverCase> {};

TEST_P(TopologyFailover, OpsMigrateThenReProbeRebinds) {
  const FailoverCase& fc = GetParam();
  SCOPED_TRACE(fc.name);

  engine::QatEngineConfig ecfg;
  ecfg.offload_mode = engine::OffloadMode::kSync;
  ecfg.max_retries = 2;
  ecfg.retry_backoff_base_us = 10;
  ecfg.breaker_threshold = 3;
  ecfg.breaker_cooldown_ms = 30;
  TopoRig rig(/*devices=*/2, ecfg, /*preferred=*/0);

  // Break device 0.
  if (fc.use_reset_latch) {
    rig.topo.fault_plan(0).trigger_reset();
  } else {
    qat::FaultRates always_fail;
    always_fail.error_rate = 1.0;
    rig.topo.fault_plan(0).set_rates_all(always_fail);
  }

  for (int i = 0; i < 10; ++i) {
    auto r = run_prf(*rig.engine, i);
    ASSERT_TRUE(r.is_ok()) << fc.name << " op " << i << ": "
                           << r.status().to_string();
    EXPECT_EQ(r.value(), expect_prf(i).value());
  }

  const engine::QatEngineStats& s = rig.engine->stats();
  // The first ops hit device 0, failed, and migrated to device 1 within the
  // same offload call; after breaker_threshold failures lane 0 tripped and
  // later ops spilled straight to lane 1.
  EXPECT_GT(s.device_migrations, 0u);
  EXPECT_GT(s.lane_breaker_opens, 0u);
  EXPECT_EQ(rig.engine->lane_breaker_state(0), engine::BreakerState::kOpen);
  // THE invariant: a healthy device exists, so nothing fell back to
  // software and no per-class breaker moved.
  EXPECT_EQ(s.sw_fallbacks, 0u);
  EXPECT_EQ(s.breaker_opens, 0u);
  EXPECT_EQ(rig.engine->breaker_state(qat::OpClass::kPrf),
            engine::BreakerState::kClosed);

  // Recover device 0.
  if (fc.use_reset_latch) {
    rig.topo.fault_plan(0).clear_reset();
  } else {
    rig.topo.fault_plan(0).set_rates_all(qat::FaultRates{});
  }
  if (fc.recover_via_generation) {
    // hot_remove + re_add bumps the generation twice; a tripped lane that
    // sees the bump re-probes without waiting out its cooldown.
    ASSERT_TRUE(rig.topo.hot_remove(0));
    ASSERT_TRUE(rig.topo.re_add(0));
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }

  // The re-probe must rebind lane 0: its device serves requests again.
  const uint64_t dev0_before = rig.topo.device(0).fw_counters().total_requests();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int i = 100;
  while (rig.engine->lane_breaker_state(0) != engine::BreakerState::kClosed &&
         std::chrono::steady_clock::now() < deadline) {
    auto r = run_prf(*rig.engine, i++);
    ASSERT_TRUE(r.is_ok());
  }
  EXPECT_EQ(rig.engine->lane_breaker_state(0), engine::BreakerState::kClosed);
  EXPECT_GT(rig.engine->stats().lane_breaker_closes, 0u);
  // And traffic actually flows to it again (affinity restored).
  for (int k = 0; k < 4; ++k) ASSERT_TRUE(run_prf(*rig.engine, 200 + k).is_ok());
  EXPECT_GT(rig.topo.device(0).fw_counters().total_requests(), dev0_before);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TopologyFailover,
    ::testing::Values(
        FailoverCase{"error_rate_cooldown_reprobe", false, false},
        FailoverCase{"error_rate_generation_reprobe", false, true},
        FailoverCase{"reset_latch_cooldown_reprobe", true, false},
        FailoverCase{"reset_latch_generation_reprobe", true, true}),
    [](const ::testing::TestParamInfo<FailoverCase>& info) {
      return info.param.name;
    });

// A class probe that finds no lane must give the probe back. Here the PRF
// class wins its half-open probe while the only online device's lane is
// tripped by asym failures; the op completes in software. Once the device
// heals, PRF ops must return to it — a probe that never reached a device
// must not leave the class half-open forever.
TEST(TopologyFailover, ClassProbeWithNoLaneIsGivenBack) {
  engine::QatEngineConfig ecfg;
  ecfg.offload_mode = engine::OffloadMode::kSync;
  ecfg.max_retries = 0;
  ecfg.breaker_threshold = 2;
  ecfg.breaker_cooldown_ms = 50;
  TopoRig rig(/*devices=*/2, ecfg, /*preferred=*/0);
  ASSERT_TRUE(rig.topo.hot_remove(1));
  qat::FaultRates always_fail;
  always_fail.error_rate = 1.0;
  auto keygen = [&] { return rig.engine->ecdhe_keygen(CurveId::kP256); };

  // Two failing PRF ops trip lane 0 and the PRF class.
  rig.topo.fault_plan(0).set_rates(qat::OpKind::kPrfTls12, always_fail);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(run_prf(*rig.engine, i).is_ok());
  ASSERT_EQ(rig.engine->lane_breaker_state(0), engine::BreakerState::kOpen);
  ASSERT_EQ(rig.engine->breaker_state(qat::OpClass::kPrf),
            engine::BreakerState::kOpen);

  // After the cooldown an asym op probes lane 0 and closes it...
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(keygen().is_ok());
  ASSERT_EQ(rig.engine->lane_breaker_state(0), engine::BreakerState::kClosed);

  // ...and two failing asym ops trip it again.
  rig.topo.fault_plan(0).set_rates(qat::OpKind::kEcP256, always_fail);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(keygen().is_ok());
  ASSERT_EQ(rig.engine->lane_breaker_state(0), engine::BreakerState::kOpen);

  // The PRF class's cooldown has passed: this op wins its probe, finds no
  // lane and completes in software.
  ASSERT_TRUE(run_prf(*rig.engine, 2).is_ok());

  // Heal the device; an asym op re-probes lane 0 and closes it.
  rig.topo.fault_plan(0).set_rates_all(qat::FaultRates{});
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE(keygen().is_ok());
  ASSERT_EQ(rig.engine->lane_breaker_state(0), engine::BreakerState::kClosed);

  // PRF ops are back on the device and the PRF class is closed.
  const uint64_t submitted = rig.engine->stats().submitted;
  for (int i = 0; i < 5; ++i) {
    auto r = run_prf(*rig.engine, 10 + i);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), expect_prf(10 + i).value());
  }
  EXPECT_EQ(rig.engine->stats().submitted, submitted + 5);
  EXPECT_EQ(rig.engine->breaker_state(qat::OpClass::kPrf),
            engine::BreakerState::kClosed);
}

// ----------------------------------------- hot_remove/re_add under load ----

TEST(TopologyFailoverE2E, HotRemoveUnderLoadLosesNothing) {
  engine::QatEngineConfig ecfg;
  ecfg.offload_mode = engine::OffloadMode::kSync;
  ecfg.max_retries = 3;
  ecfg.retry_backoff_base_us = 10;
  ecfg.breaker_threshold = 2;
  ecfg.breaker_cooldown_ms = 10;
  TopoRig rig(/*devices=*/2, ecfg, /*preferred=*/0);

  // A background chaos thread rips device 0 out and plugs it back twice
  // while the foreground stream runs. The reset latch fails in-flight ring
  // entries with kDeviceReset (drained through responses, not silence), so
  // every op either completes on a device or migrates — nothing is lost.
  std::thread chaos([&] {
    for (int k = 0; k < 2; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      rig.topo.hot_remove(0);
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      rig.topo.re_add(0);
    }
  });

  constexpr int kOps = 300;
  int ok = 0;
  for (int i = 0; i < kOps; ++i) {
    auto r = run_prf(*rig.engine, i);
    ASSERT_TRUE(r.is_ok()) << "op " << i << ": " << r.status().to_string();
    ASSERT_EQ(r.value(), expect_prf(i).value());
    ++ok;
  }
  chaos.join();

  EXPECT_EQ(ok, kOps);
  // Conservation: every submitted op came back as a response (the reset
  // latch turns in-flight work into error responses; nothing was dropped,
  // so no deadline expiries are needed to balance the books).
  const engine::QatEngineStats& s = rig.engine->stats();
  EXPECT_EQ(s.submitted, s.completed + s.deadline_expiries);
  EXPECT_EQ(rig.engine->inflight_total(), 0u);
  EXPECT_EQ(rig.engine->pending_deadline_ops(), 0u);
  // The class breaker stayed closed throughout: device 1 was always up.
  EXPECT_EQ(rig.engine->breaker_state(qat::OpClass::kPrf),
            engine::BreakerState::kClosed);
  EXPECT_EQ(s.breaker_opens, 0u);
  EXPECT_EQ(rig.topo.hot_removes(), 2u);
  EXPECT_EQ(rig.topo.re_adds(), 2u);
}

// ----------------------------------------------- cross-device parity ----

TEST(TopologyParity, EveryDeviceComputesIdenticalResults) {
  // The same op forced through each device in turn must produce the same
  // bytes as the software provider — devices are interchangeable compute,
  // and a migrated op's result is indistinguishable from the affine one's.
  engine::QatEngineConfig ecfg;
  ecfg.offload_mode = engine::OffloadMode::kSync;
  TopoRig rig(/*devices=*/4, ecfg, /*preferred=*/0);

  for (int d = 0; d < 4; ++d) {
    // Take every other device offline so ops can only land on device d.
    for (int o = 0; o < 4; ++o) {
      if (o != d) rig.topo.hot_remove(o);
    }
    const uint64_t before = rig.topo.device(d).fw_counters().total_requests();
    auto r = run_prf(*rig.engine, 7);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), expect_prf(7).value()) << "device " << d;
    EXPECT_GT(rig.topo.device(d).fw_counters().total_requests(), before);
    for (int o = 0; o < 4; ++o) {
      if (o != d) rig.topo.re_add(o);
    }
  }
}

// stats_json shape: the fields the GET /stats "topology" object and the
// bench gates read must exist and reflect the fleet.
TEST(TopologyStats, JsonCarriesFleetState) {
  qat::DeviceTopology topo(small_topology(2, 2));
  ASSERT_TRUE(topo.hot_remove(1));
  const std::string json = topo.stats_json();
  EXPECT_NE(json.find("\"devices\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"online\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hot_removes\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"numa_node\":1"), std::string::npos) << json;

  engine::QatEngineConfig ecfg;
  ecfg.offload_mode = engine::OffloadMode::kSync;
  TopoRig rig(2, ecfg);
  ASSERT_TRUE(run_prf(*rig.engine, 1).is_ok());
  const std::string lanes = rig.engine->lanes_json();
  EXPECT_NE(lanes.find("\"device\":0"), std::string::npos) << lanes;
  EXPECT_NE(lanes.find("\"device\":1"), std::string::npos) << lanes;
  EXPECT_NE(lanes.find("\"breaker\":\"closed\""), std::string::npos) << lanes;
}

}  // namespace
}  // namespace qtls
