// Timer-based polling thread — the default retrieval method of the stock
// QAT Engine and the foil of the paper's heuristic polling scheme (§3.3,
// §5.6): an independent thread polls the assigned QAT instances at a fixed
// interval. Costs reproduced here: the interval bounds response latency from
// below, and each wakeup steals CPU from the co-located worker. A worker
// configured with the timer scheme owns one (server/worker.h).
//
// Each period sleeps first and then polls, and stop() wakes the sleep, so
// an interval longer than a test's run retrieves nothing until the owner
// polls by itself.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "qat/device.h"

namespace qtls::engine {

class PollingThread {
 public:
  PollingThread(std::vector<qat::CryptoInstance*> instances,
                std::chrono::microseconds interval)
      : instances_(std::move(instances)), interval_(interval) {
    thread_ = std::thread([this] { run(); });
  }

  ~PollingThread() { stop(); }

  PollingThread(const PollingThread&) = delete;
  PollingThread& operator=(const PollingThread&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }

  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }
  uint64_t retrieved() const {
    return retrieved_.load(std::memory_order_relaxed);
  }
  // Polls that found nothing — the "ineffective polling operations" the
  // paper charges against small intervals.
  uint64_t ineffective_polls() const {
    return ineffective_.load(std::memory_order_relaxed);
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!wake_.wait_for(lock, interval_, [this] { return stopping_; })) {
      lock.unlock();
      size_t got = 0;
      for (qat::CryptoInstance* inst : instances_) got += inst->poll();
      polls_.fetch_add(1, std::memory_order_relaxed);
      retrieved_.fetch_add(got, std::memory_order_relaxed);
      if (got == 0) ineffective_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
  }

  std::vector<qat::CryptoInstance*> instances_;
  std::chrono::microseconds interval_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;  // guarded by mu_
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> retrieved_{0};
  std::atomic<uint64_t> ineffective_{0};
  std::thread thread_;
};

}  // namespace qtls::engine
