#include "qat/device.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <sstream>

#include "common/log.h"

namespace qtls::qat {

namespace {
// How many responses poll() moves out of the MPSC ring per drain pass
// before running their callbacks (stack-allocated batch buffer).
constexpr size_t kPollBatch = 32;

size_t round_up_pow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p < 2 ? 2 : p;
}

// The store-load barrier of the wakeup handshake. The arming side orders
// its flag store before its ring re-check; the engine orders its response
// push before its flag load. Between two seq_cst fences one side always
// sees the other's store, so a response is either found by the re-check or
// wakes the poller. TSan does not model fences (GCC's -Wtsan); its runtime
// still executes a real one, and every access the handshake orders is atomic.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
inline void store_load_fence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
#pragma GCC diagnostic pop
}  // namespace

// ---------------------------------------------------------------------------
// CryptoInstance
// ---------------------------------------------------------------------------

CryptoInstance::CryptoInstance(QatEndpoint* endpoint, int id,
                               size_t ring_capacity, size_t response_capacity)
    : endpoint_(endpoint),
      id_(id),
      request_ring_(ring_capacity),
      response_ring_(round_up_pow2(response_capacity)) {}

bool CryptoInstance::push_request(CryptoRequest& req) {
  // Gate on the inflight bound first: it guarantees the bounded response
  // ring always has room for every request we accept, so an engine's
  // response push can never fail. Inflight only decreases concurrently
  // (poll), so the check cannot admit too many.
  if (inflight_.load(std::memory_order_acquire) >= inflight_limit())
    return false;
  const OpClass cls = op_class_of(req.kind);
  obs::stamp_now(req.trace, obs::Stage::kRingEnqueue);
  if (!request_ring_.try_push(std::move(req))) return false;
  inflight_.fetch_add(1, std::memory_order_release);
  req_counters_.v[static_cast<int>(cls)].fetch_add(1,
                                                   std::memory_order_relaxed);
  return true;
}

bool CryptoInstance::submit(CryptoRequest req) {
  if (!push_request(req)) return false;
  endpoint_->kick();
  return true;
}

size_t CryptoInstance::submit_batch(std::span<CryptoRequest> reqs) {
  size_t accepted = 0;
  for (CryptoRequest& req : reqs) {
    if (!push_request(req)) break;
    ++accepted;
  }
  if (accepted > 0) endpoint_->kick();
  return accepted;
}

size_t CryptoInstance::poll(size_t max) {
  if (poll_guard_.test_and_set(std::memory_order_acquire)) return 0;
  ResponseEntry batch[kPollBatch];
  size_t total = 0;
  while (total < max) {
    const size_t want = std::min(kPollBatch, max - total);
    const size_t got = response_ring_.pop_batch(batch, want);
    if (got == 0) break;
    total += got;
    for (size_t i = 0; i < got; ++i) {
      inflight_.fetch_sub(1, std::memory_order_release);
      obs::stamp_now(batch[i].response.trace, obs::Stage::kPollDrain);
      // Callbacks run outside any ring operation: one may submit a
      // follow-up request to this same instance.
      if (batch[i].callback) batch[i].callback(batch[i].response);
      batch[i] = ResponseEntry{};
    }
  }
  poll_guard_.clear(std::memory_order_release);
  return total;
}

void CryptoInstance::set_wakeup_fd(int fd) {
  assert(fd < 0 || wakeup_fd_.load(std::memory_order_relaxed) < 0);
  // Uninstalling waits out any engine that already took the flag, so the
  // old fd may be closed once this returns.
  needs_wakeup_.store(false, std::memory_order_seq_cst);
  while (waking_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  wakeup_fd_.store(fd, std::memory_order_release);
}

bool CryptoInstance::arm_wakeup() {
  needs_wakeup_.store(true, std::memory_order_relaxed);
  store_load_fence();
  if (!response_ring_.front_ready()) return true;
  disarm_wakeup();
  return false;
}

void CryptoInstance::wake_poller() {
  store_load_fence();
  if (!needs_wakeup_.load(std::memory_order_relaxed)) return;
  waking_.fetch_add(1, std::memory_order_seq_cst);
  if (needs_wakeup_.exchange(false, std::memory_order_seq_cst)) {
    const uint64_t one = 1;
    const int fd = wakeup_fd_.load(std::memory_order_acquire);
    if (fd >= 0) {
      [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
    }
  }
  waking_.fetch_sub(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// QatEndpoint
// ---------------------------------------------------------------------------

QatEndpoint::QatEndpoint(const DeviceConfig& config, int id)
    : config_(config), id_(id) {
  instances_.resize(static_cast<size_t>(config.max_instances_per_endpoint));
  engine_slots_.reserve(static_cast<size_t>(config.engines_per_endpoint));
  engines_.reserve(static_cast<size_t>(config.engines_per_endpoint));
  for (int e = 0; e < config.engines_per_endpoint; ++e)
    engine_slots_.push_back(std::make_unique<EngineSlot>());
  for (int e = 0; e < config.engines_per_endpoint; ++e)
    engines_.emplace_back([this, e] { engine_main(e); });
}

QatEndpoint::~QatEndpoint() {
  stopping_.store(true, std::memory_order_release);
  for (auto& slot : engine_slots_) slot->wake.signal();
  for (auto& t : engines_) t.join();
}

CryptoInstance* QatEndpoint::allocate_instance() {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  const size_t n = num_instances_.load(std::memory_order_relaxed);
  if (n >= instances_.size()) return nullptr;
  // The response ring must absorb every request this instance can have in
  // flight: the request ring plus one per engine in service, with slack for
  // submit/poll races.
  const size_t response_capacity =
      config_.ring_capacity * 2 +
      static_cast<size_t>(config_.engines_per_endpoint);
  instances_[n] = std::make_unique<CryptoInstance>(
      this, static_cast<int>(n), config_.ring_capacity, response_capacity);
  CryptoInstance* inst = instances_[n].get();
  // Publish: engines load num_instances_ with acquire before indexing.
  num_instances_.store(n + 1, std::memory_order_release);
  return inst;
}

void QatEndpoint::kick() {
  // Wake at most one sleeping engine; if all are awake they will find the
  // request while scanning. Flipping `asleep` false transfers ownership of
  // exactly one wake.signal() to this submitter, so each sleep sees at most
  // one targeted wakeup.
  const size_t n = engine_slots_.size();
  const size_t start = wake_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    EngineSlot& slot = *engine_slots_[(start + i) % n];
    bool expected = true;
    if (slot.asleep.compare_exchange_strong(expected, false,
                                            std::memory_order_acq_rel)) {
      slot.wake.signal();
      return;
    }
  }
}

bool QatEndpoint::claim_request(CryptoRequest* out, CryptoInstance** from) {
  const size_t n = num_instances_.load(std::memory_order_acquire);
  if (n == 0) return false;
  const size_t start = rr_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (size_t step = 0; step < n; ++step) {
    CryptoInstance* inst = instances_[(start + step) % n].get();
    if (inst->request_ring_.empty_hint()) continue;
    // Take the pop side of this instance's SPSC ring; skip, never wait, if
    // another engine holds it.
    if (inst->claim_.test_and_set(std::memory_order_acquire)) continue;
    auto req = inst->request_ring_.try_pop();
    inst->claim_.clear(std::memory_order_release);
    if (req.has_value()) {
      *out = std::move(*req);
      *from = inst;
      obs::stamp_now(out->trace, obs::Stage::kEngineClaim);
      return true;
    }
  }
  return false;
}

namespace {
// Busy wait: models occupancy of a computation engine.
void engine_busy_wait(uint64_t ns) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}
}  // namespace

void QatEndpoint::serve(EngineSlot& slot, CryptoRequest& req,
                        CryptoInstance* from) {
  obs::stamp_now(req.trace, obs::Stage::kServiceStart);

  // Fault injection (qat/fault.h): the service point is where firmware
  // errors, lost responses, and stalls happen on a real card.
  FaultDecision fault;
  if (config_.fault_plan) fault = config_.fault_plan->decide(req.kind);
  if (fault.kind == FaultKind::kStall && fault.stall_ns > 0)
    engine_busy_wait(fault.stall_ns);  // stuck engine, then serves normally

  CryptoResponse response;
  response.request_id = req.request_id;
  response.kind = req.kind;
  response.user_tag = req.user_tag;
  switch (fault.kind) {
    case FaultKind::kError:
      // CPA-style error status: the computation never ran.
      response.status = CryptoStatus::kDeviceError;
      break;
    case FaultKind::kReset:
      response.status = CryptoStatus::kDeviceReset;
      break;
    case FaultKind::kDrop:
      // Lost response: free the device-side slot but never deliver. The
      // response stripe is NOT incremented, so fw_counters shows
      // requests - responses == drops; only an engine-level deadline
      // recovers the submitter. The request's closures go first, so the
      // lost op pins nothing here.
      req.compute = nullptr;
      req.on_response = nullptr;
      from->inflight_.fetch_sub(1, std::memory_order_release);
      return;
    case FaultKind::kNone:
    case FaultKind::kStall: {
      const bool ok = req.compute ? req.compute() : true;
      response.status =
          ok ? CryptoStatus::kSuccess : CryptoStatus::kComputeError;
      if (config_.extra_service_ns > 0)
        engine_busy_wait(config_.extra_service_ns);
      break;
    }
  }
  // The compute closure holds the op's inputs (for a seal batch, the
  // connection's write buffer through its owner). It goes before the
  // response can reach the poller, so that once the response is drained
  // nothing on this engine still holds them.
  req.compute = nullptr;
  if (req.trace.sampled) {
    obs::stamp_now(req.trace, obs::Stage::kServiceDone);
    response.trace = req.trace;
  }

  slot.responses.v[static_cast<int>(op_class_of(response.kind))].fetch_add(
      1, std::memory_order_relaxed);

  if (config_.delivery == ResponseDelivery::kInterrupt) {
    // Interrupt-style delivery: invoked from the engine thread, like a
    // kernel interrupt handler preempting the application.
    from->inflight_.fetch_sub(1, std::memory_order_release);
    obs::stamp_now(response.trace, obs::Stage::kPollDrain);
    const ResponseCallback on_response = std::move(req.on_response);
    if (on_response) on_response(response);
  } else {
    CryptoInstance::ResponseEntry entry{std::move(response),
                                        std::move(req.on_response)};
    // The submit-side inflight gate sizes the response ring so this push
    // succeeds; the yield loop is a backstop, not a steady state.
    while (!from->response_ring_.try_push(std::move(entry)))
      std::this_thread::yield();
    from->wake_poller();
  }
}

void QatEndpoint::engine_main(int engine_id) {
  EngineSlot& slot = *engine_slots_[static_cast<size_t>(engine_id)];
  CryptoRequest req;
  CryptoInstance* from = nullptr;
  // No idle spinning: an idle engine goes straight to the futex sleep.
  // Spinning (pause or sched_yield) was measured strictly harmful on
  // low-core-count hosts — a spinner holds the core for a scheduler slice
  // and convoys the submitter — while the futex wake is a few microseconds.
  while (!stopping_.load(std::memory_order_acquire)) {
    if (claim_request(&req, &from)) {
      serve(slot, req, from);
      continue;
    }
    // Take a wakeup ticket, commit to sleeping, then re-scan: a submit
    // that lands after the ticket invalidates it (wait_for returns
    // immediately), and one that lands before the asleep store is caught by
    // the re-scan. The timed wait is a backstop, not the wake path.
    const uint32_t ticket = slot.wake.prepare();
    slot.asleep.store(true, std::memory_order_seq_cst);
    if (claim_request(&req, &from)) {
      slot.asleep.store(false, std::memory_order_relaxed);
      serve(slot, req, from);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    slot.wake.wait_for(ticket, std::chrono::milliseconds(1));
    slot.asleep.store(false, std::memory_order_relaxed);
  }
}

size_t QatEndpoint::inflight() const {
  size_t total = 0;
  const size_t n = num_instances_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) total += instances_[i]->inflight();
  return total;
}

FwCounters QatEndpoint::fw_counters() const {
  FwCounters total;
  const size_t n = num_instances_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i)
    for (int c = 0; c < kNumOpClasses; ++c)
      total.requests[c] +=
          instances_[i]->req_counters_.v[c].load(std::memory_order_relaxed);
  for (const auto& slot : engine_slots_)
    for (int c = 0; c < kNumOpClasses; ++c)
      total.responses[c] +=
          slot->responses.v[c].load(std::memory_order_relaxed);
  return total;
}

std::string FwCounters::to_string() const {
  std::ostringstream os;
  for (int c = 0; c < kNumOpClasses; ++c) {
    os << op_class_name(static_cast<OpClass>(c)) << ": req=" << requests[c]
       << " resp=" << responses[c];
    if (c + 1 < kNumOpClasses) os << ", ";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// QatDevice
// ---------------------------------------------------------------------------

QatDevice::QatDevice(const DeviceConfig& config) : config_(config) {
  for (int i = 0; i < config.num_endpoints; ++i)
    endpoints_.push_back(std::make_unique<QatEndpoint>(config, i));
}

CryptoInstance* QatDevice::allocate_instance() {
  // Round-robin across endpoints; if one endpoint is full, try the others.
  for (int attempt = 0; attempt < num_endpoints(); ++attempt) {
    const size_t idx =
        next_endpoint_.fetch_add(1, std::memory_order_relaxed) %
        endpoints_.size();
    if (CryptoInstance* inst = endpoints_[idx]->allocate_instance())
      return inst;
  }
  return nullptr;
}

size_t QatDevice::inflight() const {
  size_t total = 0;
  for (const auto& ep : endpoints_) total += ep->inflight();
  return total;
}

FwCounters QatDevice::fw_counters() const {
  FwCounters total;
  for (const auto& ep : endpoints_) {
    const FwCounters c = ep->fw_counters();
    for (int i = 0; i < kNumOpClasses; ++i) {
      total.requests[i] += c.requests[i];
      total.responses[i] += c.responses[i];
    }
  }
  return total;
}

}  // namespace qtls::qat
