#include "common/mpsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace qtls {
namespace {

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(MpscRing<int>(65).capacity(), 128u);
}

TEST(MpscRing, PushPopFifoSingleThread) {
  MpscRing<int> ring(8);
  EXPECT_FALSE(ring.front_ready());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.front_ready());
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.front_ready());
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(MpscRing, FullRingRejectsPush) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  // Draining one slot re-admits exactly one push.
  EXPECT_TRUE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.try_push(100));
  EXPECT_FALSE(ring.try_push(101));
}

TEST(MpscRing, WrapAroundManyLaps) {
  MpscRing<int> ring(4);
  for (int lap = 0; lap < 1000; ++lap) {
    EXPECT_TRUE(ring.try_push(lap));
    EXPECT_TRUE(ring.try_push(lap + 1'000'000));
    auto a = ring.try_pop();
    auto b = ring.try_pop();
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(*a, lap);
    EXPECT_EQ(*b, lap + 1'000'000);
  }
}

TEST(MpscRing, PopBatchDrains) {
  MpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ring.try_push(i));
  int out[16];
  EXPECT_EQ(ring.pop_batch(out, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.pop_batch(out, 16), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], i + 4);
  EXPECT_EQ(ring.pop_batch(out, 16), 0u);
}

TEST(MpscRing, MoveOnlyPayload) {
  MpscRing<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(7)));
  auto v = ring.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

TEST(MpscRing, FailedPushLeavesMoveOnlyValueIntact) {
  MpscRing<std::unique_ptr<int>> ring(2);
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

// Multiple producers hammer a small ring while one consumer drains it; every
// element must arrive exactly once and each producer's stream must stay in
// order (the device relies on per-engine response ordering for nothing, but
// per-producer FIFO is part of the Vyukov contract).
TEST(MpscRing, MultiProducerStress) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20'000;
  MpscRing<uint64_t> ring(64);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t v = (static_cast<uint64_t>(p) << 32) |
                           static_cast<uint64_t>(i);
        while (!ring.try_push(v)) std::this_thread::yield();
      }
    });
  }

  std::vector<int> next(kProducers, 0);
  int total = 0;
  while (total < kProducers * kPerProducer) {
    auto v = ring.try_pop();
    if (!v.has_value()) {
      std::this_thread::yield();
      continue;
    }
    const int p = static_cast<int>(*v >> 32);
    const int i = static_cast<int>(*v & 0xffffffff);
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(i, next[p]) << "producer " << p << " stream out of order";
    next[p] = i + 1;
    ++total;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(ring.try_pop().has_value());
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
}

}  // namespace
}  // namespace qtls
