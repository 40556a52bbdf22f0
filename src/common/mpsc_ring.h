// Bounded multi-producer/single-consumer ring (Vyukov-style sequenced
// cells). This is the response side of the QAT device model: every engine
// thread pushes completed responses concurrently; poll() — the single
// consumer — drains them wait-free (no CAS, no lock, one acquire load per
// element).
//
// Like SpscRing, try_push failing when the ring is full is load-bearing:
// the device bounds per-instance inflight so that an engine's push can
// never fail in practice, and the submit-side gate is what surfaces the
// backpressure (§3.2 retry path).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/spsc_ring.h"  // kCacheLine

namespace qtls {

template <typename T>
class MpscRing {
 public:
  explicit MpscRing(size_t capacity_pow2) : cells_(round_up(capacity_pow2)) {
    mask_ = cells_.size() - 1;
    for (size_t i = 0; i < cells_.size(); ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  size_t capacity() const { return cells_.size(); }

  // Lock-free multi-producer push; false when the ring is full. Moves from
  // `value` only on success, so a failed push leaves it intact.
  bool try_push(T&& value) { return push(std::move(value)); }
  bool try_push(const T& value) { return push(value); }

  // Single-consumer pop: wait-free, one acquire load per element.
  std::optional<T> try_pop() {
    const size_t pos = tail_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0)
      return std::nullopt;
    T value = std::move(cell.value);
    cell.seq.store(pos + cells_.size(), std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return value;
  }

  // Batched single-consumer drain into `out`; returns elements moved.
  size_t pop_batch(T* out, size_t max) {
    size_t got = 0;
    while (got < max) {
      auto value = try_pop();
      if (!value.has_value()) break;
      out[got++] = std::move(*value);
    }
    return got;
  }

  // Consumer side: true when the next try_pop() returns a value. A cell a
  // producer has claimed but not yet published reads as not ready. One
  // acquire load.
  bool front_ready() const {
    const size_t pos = tail_.load(std::memory_order_relaxed);
    const size_t seq = cells_[pos & mask_].seq.load(std::memory_order_acquire);
    return static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) >= 0;
  }

 private:
  template <typename U>
  bool push(U&& value) {
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::forward<U>(value);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // the cell a full lap ahead is still unconsumed
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  struct Cell {
    std::atomic<size_t> seq;
    T value;
  };

  static size_t round_up(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p < 2 ? 2 : p;
  }

  std::vector<Cell> cells_;
  size_t mask_;
  alignas(kCacheLine) std::atomic<size_t> head_{0};
  alignas(kCacheLine) std::atomic<size_t> tail_{0};
};

}  // namespace qtls
