// Hashed timer wheel — the per-connection deadline substrate of the
// overload-control plane (DESIGN.md §10). Any layer that owns a clock can
// arm millisecond deadlines against it: the real-time event loop drives the
// wheel from CLOCK_MONOTONIC, tests and the sim drive it from a virtual
// clock, so timeout behaviour is deterministic where it needs to be.
//
// Design: classic hashed wheel (Varghese & Lauck). Deadlines hash into
// `num_slots` buckets by tick index; advance() walks only the buckets
// between the last observed tick and now, firing entries whose deadline has
// passed and leaving future-round entries in place. Arm/cancel are O(1);
// advance is O(buckets walked + entries fired). A clock jump larger than
// one wheel revolution degrades to a single full sweep instead of walking
// every elapsed tick, so huge virtual-time steps stay cheap.
//
// Storage (DESIGN.md §14): timer entries are slab-allocated nodes linked
// into intrusive per-bucket lists — arming a deadline costs no heap
// allocation once the pool is warm, and a million armed idle-timeouts cost
// exactly one slab slot each instead of a hash-map node plus a bucket
// vector entry. A TimerId packs the node's slab index with a generation
// tag, so a stale cancel (the id already fired or was cancelled, its slot
// possibly reused) is rejected by a generation mismatch without ever
// touching freed node memory.
//
// Single-threaded by design, like the event loop that owns it. Callbacks
// may arm and cancel timers (including ones already collected for this
// advance: a cancelled-but-collected timer does not fire).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/slab.h"

namespace qtls::net {

class TimerWheel {
 public:
  using TimerId = uint64_t;  // 0 is never a valid id
  using Callback = std::function<void()>;

  // `tick_ms` is the wheel resolution: deadlines fire on the first
  // advance() whose `now_ms` reaches them, so accuracy is bounded by how
  // often the owner advances, not by the tick. `num_slots` is rounded up to
  // a power of two.
  explicit TimerWheel(uint64_t tick_ms = 4, size_t num_slots = 256);
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms a timer `delay_ms` from `now_ms`. A zero delay fires on the next
  // advance. Returns the id to cancel with.
  TimerId arm(uint64_t now_ms, uint64_t delay_ms, Callback cb);

  // Cancels an armed timer. False when the id already fired or was
  // cancelled (safe to call redundantly).
  bool cancel(TimerId id);

  // Fires every timer whose deadline is <= now_ms. Returns how many fired.
  size_t advance(uint64_t now_ms);

  size_t armed() const { return pool_.live(); }

  // Milliseconds from `now_ms` until the earliest armed deadline (0 when
  // one is already due), or UINT64_MAX when the wheel is empty. O(armed);
  // used to bound the event loop's epoll sleep, where armed counts are
  // per-connection and the loop is about to block anyway.
  uint64_t until_next(uint64_t now_ms) const;

  uint64_t fired_total() const { return fired_total_; }
  uint64_t cancelled_total() const { return cancelled_total_; }

 private:
  struct Node {
    uint64_t deadline_ms = 0;
    Node* prev = nullptr;  // intrusive bucket list (null when collected)
    Node* next = nullptr;
    uint32_t slot = 0;   // bucket this node is (or was last) linked into
    uint32_t index = 0;  // this node's slab index, fixed at arm
    Callback cb;
  };

  size_t slot_of(uint64_t deadline_ms) const {
    return static_cast<size_t>(deadline_ms / tick_ms_) & (slots_.size() - 1);
  }
  bool linked(const Node* node) const {
    return node->prev != nullptr || node->next != nullptr ||
           slots_[node->slot] == node;
  }
  void unlink(Node* node);
  // Resolve an id to its live node, or null on generation mismatch (fired,
  // cancelled, or slot since reused). Never dereferences freed memory: the
  // generation check consults gens_, not the node.
  Node* resolve(TimerId id, size_t* index);
  TimerId id_of(const Node* node) const {
    return (static_cast<uint64_t>(node->index) + 1) << 32 |
           gens_[node->index];
  }
  void collect_slot(size_t slot, uint64_t now_ms, std::vector<TimerId>* due);
  void release(Node* node, size_t index);

  uint64_t tick_ms_;
  std::vector<Node*> slots_;  // bucket list heads
  common::SlabPool<Node> pool_;
  std::vector<uint32_t> gens_;      // per-slab-slot generation tag
  std::vector<TimerId> due_;        // advance() scratch (capacity reused)
  uint64_t last_tick_ = 0;
  bool ticked_ = false;  // last_tick_ is meaningful only after first advance
  uint64_t fired_total_ = 0;
  uint64_t cancelled_total_ = 0;
};

}  // namespace qtls::net
