// Compiled-out observability regression: this translation unit is built with
// -DQTLS_OBS_ENABLED=0 (see tests/CMakeLists.txt) while linking the enabled
// qtls_obs library, proving the disabled header-only mirror coexists with an
// enabled build (distinct inline namespaces, shared snapshot layout) and that
// every call site degrades to a no-op rather than a link error.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace qtls::obs {
namespace {

static_assert(!QTLS_OBS_ENABLED,
              "obs_noop_test must be compiled with QTLS_OBS_ENABLED=0");

TEST(ObsDisabled, RegistryIsAnEmptyStub) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter c = reg.counter("requests");
  Histogram h = reg.histogram("latency");

  c.add(100);
  c.inc();
  h.record(12345);

  EXPECT_EQ(reg.num_counters(), 0u);
  EXPECT_EQ(reg.num_histograms(), 0u);
  EXPECT_EQ(reg.num_shards(), 0u);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(snap.counter_value("requests"), 0u);
  EXPECT_EQ(snap.histogram("latency"), nullptr);
  reg.reset();
}

TEST(ObsDisabled, SnapshotFormattersStillLink) {
  // The snapshot type and its formatters are compiled unconditionally into
  // qtls_obs so mixed-mode programs can still serialize (empty) snapshots.
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_TRUE(snap.to_text().empty());  // no metrics -> no lines
}

TEST(ObsDisabled, TracingNeverSamples) {
  set_trace_sample_period(1);  // no-op: cannot enable tracing when built out
  EXPECT_EQ(trace_sample_period(), 0u);

  TraceStamps t;
  trace_begin(t);
  EXPECT_FALSE(t.sampled);
  trace_begin_at(t, 1000);
  EXPECT_FALSE(t.sampled);

  // Stamps on an unsampled request are dropped (shared TraceStamps layout,
  // same behavior in both modes).
  stamp_now(t, Stage::kRingEnqueue);
  t.stamp_at(Stage::kServiceStart, 2000);
  EXPECT_EQ(t[Stage::kRingEnqueue], 0u);
  EXPECT_EQ(t[Stage::kServiceStart], 0u);

  record_pipeline(t, /*request_id=*/1, /*op_class_idx=*/0, /*sim=*/false);
  EXPECT_TRUE(trace_ring_snapshot().empty());
  trace_ring_clear();
}

TEST(ObsDisabled, StageNamesRemainAvailable) {
  // stage_name() is shared metadata (compiled unconditionally) so log lines
  // and tooling keep working regardless of build mode.
  EXPECT_STREQ(stage_name(Stage::kSubmit), "submit");
  EXPECT_STREQ(stage_name(Stage::kPollDrain), "poll_drain");
}

}  // namespace
}  // namespace qtls::obs
