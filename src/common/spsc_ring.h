// Bounded single-producer/single-consumer ring. This is the transport under
// the QAT device model's hardware-assisted request/response ring pairs and
// under the kernel-bypass async event queue.
//
// Capacity is a power of two fixed at construction; try_push fails when the
// ring is full — that failure is load-bearing: it drives the paper's §3.2
// "failure of crypto submission" retry path.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <new>
#include <optional>
#include <utility>
#include <vector>

namespace qtls {

// Fixed 64 rather than std::hardware_destructive_interference_size: the
// value is baked into the ABI of this header and gcc warns that the standard
// constant can vary across -mtune settings.
inline constexpr size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity_pow2) : buf_(round_up(capacity_pow2)) {
    mask_ = buf_.size() - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return buf_.size(); }

  // Moves from `value` only on success: a push that fails on a full ring
  // leaves the caller's value intact for the retry.
  bool try_push(T&& value) { return push(std::move(value)); }
  bool try_push(const T& value) { return push(value); }

  std::optional<T> try_pop() {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return std::nullopt;
    }
    T value = std::move(buf_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  // Consumer-side snapshot; producer-side callers treat it as a hint.
  size_t size_hint() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }
  bool empty_hint() const { return size_hint() == 0; }

 private:
  template <typename U>
  bool push(U&& value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_cache_;
    if (head - tail >= buf_.size()) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ >= buf_.size()) return false;
    }
    buf_[head & mask_] = std::forward<U>(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  static size_t round_up(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p < 2 ? 2 : p;
  }

  std::vector<T> buf_;
  size_t mask_;
  alignas(kCacheLine) std::atomic<size_t> head_{0};
  alignas(kCacheLine) size_t tail_cache_ = 0;
  alignas(kCacheLine) std::atomic<size_t> tail_{0};
  alignas(kCacheLine) size_t head_cache_ = 0;
};

}  // namespace qtls
