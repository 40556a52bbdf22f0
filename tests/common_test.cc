#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/bytes.h"
#include "common/conf.h"
#include "common/rng.h"
#include "common/spsc_ring.h"
#include "common/stats.h"
#include "common/status.h"

namespace qtls {
namespace {

TEST(Status, OkAndError) {
  Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.to_string(), "OK");
  Status e = err(Code::kProtocolError, "bad record");
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.code(), Code::kProtocolError);
  EXPECT_EQ(e.to_string(), "PROTOCOL_ERROR: bad record");
}

TEST(Result, ValueAndStatus) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  Result<int> e = err(Code::kNotFound, "nope");
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.status().code(), Code::kNotFound);
}

TEST(Bytes, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, AppendHelpers) {
  Bytes b;
  append_u8(b, 0x01);
  append_u16(b, 0x0203);
  append_u24(b, 0x040506);
  append_u32(b, 0x0708090a);
  EXPECT_EQ(to_hex(b), "0102030405060708090a");
}

TEST(ByteReader, ReadsBigEndian) {
  Bytes b = from_hex("010203040506070809");
  ByteReader r(b);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0x0203);
  EXPECT_EQ(r.u24(), 0x040506u);
  EXPECT_EQ(r.u24(), 0x070809u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, OverrunSetsNotOk) {
  Bytes b = {0x01};
  ByteReader r(b);
  EXPECT_EQ(r.u16(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, BytesAndSkip) {
  Bytes b = from_hex("aabbccddee");
  ByteReader r(b);
  r.skip(1);
  EXPECT_EQ(to_hex(r.bytes(2)), "bbcc");
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(Bytes, CtEqual) {
  Bytes a = from_hex("deadbeef");
  Bytes b = from_hex("deadbeef");
  Bytes c = from_hex("deadbeee");
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, BytesView(a.data(), 3)));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(OnlineStats, MeanAndStddev) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(OnlineStats, Merge) {
  OnlineStats a, b, whole;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    whole.add(i);
  }
  for (int i = 50; i < 100; ++i) {
    b.add(i);
    whole.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(LatencyHistogram, Percentiles) {
  LatencyHistogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.record(i * 1000);  // 1..1000 us
  EXPECT_EQ(h.count(), 1000u);
  // ~2.4% relative error buckets
  EXPECT_NEAR(static_cast<double>(h.percentile_nanos(50)), 500e3, 500e3 * 0.05);
  EXPECT_NEAR(static_cast<double>(h.percentile_nanos(99)), 990e3, 990e3 * 0.05);
  EXPECT_EQ(h.max_nanos(), 1000000u);
}

TEST(LatencyHistogram, Merge) {
  LatencyHistogram a, b;
  a.record(1000);
  b.record(2000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max_nanos(), 2000u);
}

TEST(TextTable, Renders) {
  TextTable t({"x", "value"});
  t.add_row({"1", "10.5"});
  t.add_row({"22", "7"});
  const std::string s = t.render();
  EXPECT_NE(s.find("x"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Conf, ParsesDirectivesAndBlocks) {
  auto result = parse_conf(R"(
    worker_processes 8;  # comment
    ssl_engine {
        use qat_engine;
        default_algorithm RSA,EC,DH,PKEY_CRYPTO;
        qat_engine {
            qat_offload_mode async;
            qat_poll_mode heuristic;
            qat_heuristic_poll_asym_threshold 48;
            qat_heuristic_poll_sym_threshold 24;
        }
    }
  )");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const ConfBlock& root = *result.value();
  EXPECT_EQ(root.get_int("worker_processes", 0), 8);
  const ConfBlock* engine = root.find_block("ssl_engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->get_string("use"), "qat_engine");
  const auto algs = engine->get_list("default_algorithm");
  ASSERT_EQ(algs.size(), 4u);
  EXPECT_EQ(algs[0], "RSA");
  EXPECT_EQ(algs[3], "PKEY_CRYPTO");
  const ConfBlock* qat = engine->find_block("qat_engine");
  ASSERT_NE(qat, nullptr);
  EXPECT_EQ(qat->get_string("qat_offload_mode"), "async");
  EXPECT_EQ(qat->get_int("qat_heuristic_poll_asym_threshold", 0), 48);
  EXPECT_EQ(qat->get_int("qat_heuristic_poll_sym_threshold", 0), 24);
}

TEST(Conf, QuotedArguments) {
  auto result = parse_conf(R"(greeting "hello world";)");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value()->get_string("greeting"), "hello world");
}

TEST(Conf, RejectsMalformed) {
  EXPECT_FALSE(parse_conf("a { b;").is_ok());
  EXPECT_FALSE(parse_conf("}").is_ok());
  EXPECT_FALSE(parse_conf("dangling").is_ok());
  EXPECT_FALSE(parse_conf("{ x; }").is_ok());
}

TEST(Conf, BoolAndDefaults) {
  auto result = parse_conf("flag on; other off;");
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value()->get_bool("flag", false));
  EXPECT_FALSE(result.value()->get_bool("other", true));
  EXPECT_TRUE(result.value()->get_bool("missing", true));
  EXPECT_EQ(result.value()->get_int("missing", 5), 5);
}

TEST(SpscRing, PushPopOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, FailedPushLeavesMoveOnlyValueIntact) {
  SpscRing<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(1)));
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto value = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(value)));  // full
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 3);
  ASSERT_TRUE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.try_push(std::move(value)));
  EXPECT_EQ(**ring.try_pop(), 2);
  EXPECT_EQ(**ring.try_pop(), 3);
}

TEST(SpscRing, CapacityRoundsToPow2) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRing, CrossThreadTransfer) {
  SpscRing<uint64_t> ring(64);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    auto v = ring.try_pop();
    if (!v.has_value()) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(*v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(ring.empty_hint());
}

}  // namespace
}  // namespace qtls
