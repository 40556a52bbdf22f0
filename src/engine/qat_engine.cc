#include "engine/qat_engine.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/log.h"
#include "crypto/gcm.h"

namespace qtls::engine {

namespace {
constexpr uint8_t kClosed = static_cast<uint8_t>(BreakerState::kClosed);
constexpr uint8_t kOpen = static_cast<uint8_t>(BreakerState::kOpen);
constexpr uint8_t kHalfOpen = static_cast<uint8_t>(BreakerState::kHalfOpen);

// OpState::stage values.
constexpr uint8_t kInFlight = 0;
constexpr uint8_t kDone = 1;       // result published, waiter not yet woken
constexpr uint8_t kSettled = 2;    // the callback is finished with the op
constexpr uint8_t kAbandoned = 3;  // deadline expired; drop a late response

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t deadline_after_us(uint64_t us) {
  return us == 0 ? 0 : steady_now_ns() + us * 1'000ULL;
}

// Blocking-path retry backoff ceiling (base << attempt, capped here).
constexpr uint64_t kRetryBackoffCapUs = 2'000;
}  // namespace

const char* breaker_name(BreakerState st) {
  switch (st) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

// ----------------------------------------------------------- breaker ----

bool Breaker::try_probe(bool skip_cooldown) {
  if (state_.load(std::memory_order_acquire) != kOpen) return false;
  if (!skip_cooldown &&
      steady_now_ns() < open_until_ns_.load(std::memory_order_acquire))
    return false;
  // Exactly one caller wins the election; everyone else keeps treating the
  // breaker as open until the probe lands.
  uint8_t expected = kOpen;
  return state_.compare_exchange_strong(expected, kHalfOpen,
                                        std::memory_order_acq_rel);
}

void Breaker::give_back() {
  // The reopen time has already passed, so the next caller probes at once.
  // A straggler's outcome may have settled the breaker first; then there
  // is nothing to give back.
  if (state_.load(std::memory_order_acquire) == kHalfOpen)
    state_.store(kOpen, std::memory_order_release);
}

bool Breaker::on_success() {
  if (failures_.load(std::memory_order_relaxed) != 0)
    failures_.store(0, std::memory_order_relaxed);
  if (state_.load(std::memory_order_acquire) == kClosed) return false;
  state_.store(kClosed, std::memory_order_release);
  return true;
}

bool Breaker::on_failure(int threshold, uint64_t cooldown_ms) {
  const int fails = failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint8_t st = state_.load(std::memory_order_acquire);
  if (st == kOpen || (st == kClosed && fails < threshold)) return false;
  open_until_ns_.store(steady_now_ns() + cooldown_ms * 1'000'000ULL,
                       std::memory_order_release);
  state_.store(kOpen, std::memory_order_release);
  return true;
}

// ------------------------------------------------------------ engine ----

QatEngineProvider::QatEngineProvider(qat::CryptoInstance* instance,
                                     QatEngineConfig config)
    : QatEngineProvider(nullptr, 0, {DeviceInstanceSet{0, {instance}}},
                        config) {}

QatEngineProvider::QatEngineProvider(qat::DeviceTopology* topology,
                                     int preferred_device,
                                     std::vector<DeviceInstanceSet> sets,
                                     QatEngineConfig config)
    : topology_(topology),
      preferred_device_(preferred_device),
      config_(config),
      fallback_(config.drbg_seed ^ 0x5a5a5a5aULL) {
  assert(!sets.empty());
  // Lane choice between devices reads the topology's depths.
  assert(topology_ != nullptr || sets.size() == 1);
  for (DeviceInstanceSet& set : sets) {
    assert(!set.instances.empty());
    auto lane = std::make_unique<DeviceLane>();
    lane->device_id = set.device_id;
    lane->instances = set.instances;
    if (topology_)
      lane->seen_generation.store(topology_->generation(),
                                  std::memory_order_relaxed);
    for (qat::CryptoInstance* inst : set.instances)
      instances_.push_back(inst);
    lanes_.push_back(std::move(lane));
  }
  for (auto& c : inflight_) c.store(0, std::memory_order_relaxed);
  wakeup_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeup_fd_ < 0) {
    QTLS_ERROR << "eventfd failed; the worker polls without sleeping";
    return;
  }
  for (qat::CryptoInstance* inst : instances_) inst->set_wakeup_fd(wakeup_fd_);
}

QatEngineProvider::~QatEngineProvider() {
  if (wakeup_fd_ < 0) return;
  for (qat::CryptoInstance* inst : instances_) inst->set_wakeup_fd(-1);
  ::close(wakeup_fd_);
}

size_t QatEngineProvider::poll(size_t max) {
  // One pass over every assigned instance (§2.3: a process may hold
  // instances on several endpoints); each instance drains its MPSC
  // response ring in batches.
  size_t got = 0;
  for (qat::CryptoInstance* inst : instances_) {
    got += inst->poll(max - got);
    if (got >= max) break;
  }
  ++stats_.polls;
  stats_.polled_responses += got;
  if (got > stats_.max_poll_batch) stats_.max_poll_batch = got;
  // The deadline sweep piggybacks on the poll cadence: the worker's
  // failover poll (heuristic) or its tick (timer) keeps polling while ops
  // are in flight, which bounds how late an expiry is observed.
  if (config_.op_deadline_us != 0) sweep_deadlines(steady_now_ns());
  // So does the remote channel: pump() drives TX/RX, fires completions
  // (waking parked fibers through their WaitCtx), expires past-deadline
  // inflight ops, and flushes an aged coalescing window.
  if (remote_) remote_->pump();
  return got;
}

bool QatEngineProvider::arm_wakeup() {
  if (wakeup_fd_ < 0 || remote_hops() > 0) return false;
  for (qat::CryptoInstance* inst : instances_) {
    if (!inst->arm_wakeup()) {
      disarm_wakeup();
      return false;
    }
  }
  return true;
}

void QatEngineProvider::disarm_wakeup() {
  for (qat::CryptoInstance* inst : instances_) inst->disarm_wakeup();
}

size_t QatEngineProvider::pending_deadline_ops() const {
  std::lock_guard<std::mutex> lk(pending_mu_);
  return pending_.size();
}

void QatEngineProvider::expire(OpState& s) {
  // Release the heuristic-poller slot here because the response callback
  // (if a late response ever shows up) returns early on kAbandoned without
  // touching the counter.
  s.stage.store(kAbandoned, std::memory_order_release);
  inflight_[s.cls].fetch_sub(1, std::memory_order_release);
  ++stats_.deadline_expiries;
  s.dispatch->hop_done();
}

void QatEngineProvider::sweep_deadlines(uint64_t now) {
  std::lock_guard<std::mutex> lk(pending_mu_);
  std::erase_if(pending_, [&](const std::shared_ptr<OpState>& s) {
    if (s->stage.load(std::memory_order_acquire) != kInFlight) return true;
    if (now < s->deadline_ns) return false;
    expire(*s);
    return true;
  });
}

// ---------------------------------------------------- breaker outcomes ----

void QatEngineProvider::class_outcome(qat::OpClass cls, bool ok) {
  Breaker& b = breakers_[static_cast<int>(cls)];
  if (ok) {
    if (!b.on_success()) return;
    ++stats_.breaker_closes;
    QTLS_INFO << "qat breaker closed for class " << static_cast<int>(cls)
              << " (re-probe succeeded)";
  } else if (b.on_failure(config_.breaker_threshold,
                          config_.breaker_cooldown_ms)) {
    ++stats_.breaker_opens;
    QTLS_WARN << "qat breaker open for class " << static_cast<int>(cls)
              << " after " << b.failures()
              << " consecutive failures; degrading to software";
  }
}

void QatEngineProvider::lane_outcome(DeviceLane& lane, bool ok) {
  // One lane has nowhere to spill to: the class breaker owns degradation.
  if (lanes_.size() == 1) return;
  Breaker& b = lane.breaker;
  if (ok) {
    if (!b.on_success()) return;
    ++stats_.lane_breaker_closes;
    QTLS_INFO << "qat lane for device " << lane.device_id
              << " rebound (re-probe succeeded)";
  } else if (b.on_failure(config_.breaker_threshold,
                          config_.breaker_cooldown_ms)) {
    if (topology_)
      lane.seen_generation.store(topology_->generation(),
                                 std::memory_order_release);
    ++stats_.lane_breaker_opens;
    QTLS_WARN << "qat lane for device " << lane.device_id << " tripped after "
              << b.failures() << " consecutive device failures; shifting load";
  }
}

void QatEngineProvider::remote_outcome(bool ok) {
  Breaker& b = remote_breaker_;
  if (ok) {
    if (!b.on_success()) return;
    ++stats_.remote_breaker_closes;
    QTLS_INFO << "remote offload tier recovered (re-probe succeeded)";
  } else if (b.on_failure(config_.remote_breaker_threshold,
                          config_.remote_breaker_cooldown_ms)) {
    ++stats_.remote_breaker_opens;
    QTLS_WARN << "remote offload tier tripped after " << b.failures()
              << " consecutive failures; ladder skips to software";
  }
}

bool QatEngineProvider::remote_tier_live() const {
  return remote_ && remote_->alive() &&
         remote_breaker_.state() != BreakerState::kOpen;
}

std::string QatEngineProvider::remote_json() const {
  std::ostringstream os;
  os << "{\"attached\":" << (remote_ ? "true" : "false") << ",\"breaker\":\""
     << breaker_name(remote_breaker_state()) << "\",\"ops\":"
     << stats_.remote_ops << ",\"completed\":" << stats_.remote_completed
     << ",\"expiries\":" << stats_.remote_expiries
     << ",\"failures\":" << stats_.remote_failures
     << ",\"batches\":" << stats_.remote_batches
     << ",\"breaker_opens\":" << stats_.remote_breaker_opens
     << ",\"breaker_closes\":" << stats_.remote_breaker_closes
     << ",\"channel\":" << (remote_ ? remote_->stats_json() : "null") << "}";
  return os.str();
}

// ----------------------------------------------------- device lanes ----

bool QatEngineProvider::try_probe_lane(DeviceLane& lane) {
  if (!online(lane)) return false;
  // A topology generation bump (re_add) re-probes immediately; otherwise
  // the cooldown must have elapsed.
  const uint64_t gen = topology_ ? topology_->generation() : 0;
  if (!lane.breaker.try_probe(
          gen != lane.seen_generation.load(std::memory_order_acquire)))
    return false;
  lane.seen_generation.store(gen, std::memory_order_release);
  return true;
}

size_t QatEngineProvider::lane_depth(const DeviceLane& lane) const {
  // Device-wide depth: spillover exists to shed CONTENTION, and contention
  // on a shared card comes mostly from other workers' instances — a
  // lane-local count can't see it. Only multi-lane providers get here, and
  // those always carry a topology.
  return topology_->queue_depth(lane.device_id);
}

QatEngineProvider::DeviceLane* QatEngineProvider::choose_lane(
    int exclude_device) {
  // One lane: nothing to choose and no lane breaker — only the topology's
  // online flag gates it.
  if (lanes_.size() == 1)
    return online(*lanes_.front()) ? lanes_.front().get() : nullptr;

  // Phase 0: win a pending half-open probe — a tripped lane whose cooldown
  // elapsed, or whose device was re-added (topology generation moved) —
  // affine lane first. Probing AHEAD of healthy lanes is what rebinds a
  // recovered device promptly: if probes only ran when every lane was dark,
  // a worker with one surviving lane would never rediscover the other. The
  // cost is one committed op per cooldown against a still-dead device,
  // which the retry path migrates anyway.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& lp : lanes_) {
      DeviceLane& lane = *lp;
      if (lane.device_id == exclude_device) continue;
      if ((pass == 0) != (lane.device_id == preferred_device_)) continue;
      if (try_probe_lane(lane)) return &lane;
    }
  }

  // Phase 1: closed lanes only, shallowest-depth with affinity preference.
  DeviceLane* preferred = nullptr;
  DeviceLane* best = nullptr;
  size_t best_depth = static_cast<size_t>(-1);
  for (auto& lp : lanes_) {
    DeviceLane& lane = *lp;
    if (lane.device_id == exclude_device || !online(lane) ||
        lane.breaker.state() != BreakerState::kClosed)
      continue;
    const size_t depth = lane_depth(lane);
    if (depth < best_depth) {
      best_depth = depth;
      best = &lane;
    }
    if (lane.device_id == preferred_device_) preferred = &lane;
  }
  if (preferred) {
    if (preferred == best ||
        lane_depth(*preferred) <= best_depth + topology_->spill_threshold())
      return preferred;
    // Affine device too deep: spill to the shallowest healthy lane.
  }
  if (best) {
    // The affine lane was down, tripped, excluded or too deep — count the
    // diversion so load-shift during an outage is visible.
    ++stats_.lane_spillovers;
    return best;
  }

  // Everything (except maybe the excluded device) is dark. A retry may
  // still go back to the device that just failed it rather than giving up.
  if (exclude_device >= 0) return choose_lane(-1);
  return nullptr;
}

qat::CryptoInstance* QatEngineProvider::lane_instance(DeviceLane& lane) {
  return lane.instances[lane.rr.fetch_add(1, std::memory_order_relaxed) %
                        lane.instances.size()];
}

bool QatEngineProvider::other_lane_available(int device_id) const {
  // An open lane that could be probed still counts: the class must not
  // degrade to software while another device can be brought back.
  for (const auto& lp : lanes_)
    if (lp->device_id != device_id && online(*lp)) return true;
  return false;
}

std::string QatEngineProvider::lanes_json() const {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const DeviceLane& lane = *lanes_[i];
    os << (i ? "," : "") << "{\"device\":" << lane.device_id
       << ",\"breaker\":\"" << breaker_name(lane.breaker.state())
       << "\",\"submitted\":"
       << lane.submitted.load(std::memory_order_relaxed)
       << ",\"instances\":" << lane.instances.size() << "}";
  }
  os << ']';
  return os.str();
}

// ----------------------------------------------------- the ladder ----

void QatEngineProvider::OpState::finish() {
  stage.store(kDone, std::memory_order_release);
  // Async event notification (§3.4), once per dispatch: kernel-bypass
  // callback if set on the wait context, otherwise the notification FD.
  dispatch->hop_done();
  stage.store(kSettled, std::memory_order_release);
}

asyncx::AsyncJob* QatEngineProvider::parkable_job() const {
  return config_.offload_mode == OffloadMode::kAsync
             ? asyncx::get_current_job()
             : nullptr;
}

template <typename Spin>
void QatEngineProvider::wait_hops(std::span<Op> ops, bool park, Spin spin) {
  auto any_at = [&](uint8_t stage) {
    for (const Op& op : ops)
      if (op.hop && op.hop->stage.load(std::memory_order_acquire) == stage)
        return true;
    return false;
  };
  // Pre-processing ends here: pause until every async event arrives. The
  // loop tolerates spurious resumes (e.g. a resume triggered by the
  // retry-notification racing an actual response).
  while (any_at(kInFlight)) {
    if (park) {
      asyncx::pause_job();
    } else {
      spin();
    }
  }
  // An interrupt-delivered callback runs on an engine thread and may still
  // be inside its notify; returning now could let the caller tear down the
  // WaitCtx under it. The window is one notify long.
  while (any_at(kDone)) std::this_thread::yield();
}

Result<Bytes> QatEngineProvider::offload(qat::OpKind kind,
                                         remote::RemoteOp remote_op,
                                         std::function<Result<Bytes>()> compute,
                                         std::function<Bytes()> encode) {
  Op op(std::move(compute), remote_op, std::move(encode));
  run(kind, std::span<Op>(&op, 1));
  return std::move(op.result);
}

void QatEngineProvider::run(qat::OpKind kind, std::span<Op> ops) {
  const qat::OpClass cls = qat::op_class_of(kind);
  Breaker& gate = breakers_[static_cast<int>(cls)];
  const bool closed = gate.state() == BreakerState::kClosed;
  const bool probing = !closed && gate.try_probe();
  if (closed || probing) {
    // Attempt 1 sends the whole span down one lane in one dispatch; a
    // record the device fails retries alone, migrating off the device that
    // failed it, until its attempts run out.
    submit_to_device(kind, ops);
    for (Op& op : ops)
      while (op.retry) submit_to_device(kind, std::span<Op>(&op, 1));
    // A probe that ended without a device verdict (no lane) must not
    // leave the class half-open forever.
    if (probing) gate.give_back();
  }
  submit_to_remote(cls, ops);
  last_step(ops, closed || probing);
}

void QatEngineProvider::submit_to_device(qat::OpKind kind,
                                         std::span<Op> ops) {
  const int cls = static_cast<int>(qat::op_class_of(kind));
  asyncx::AsyncJob* job = parkable_job();
  asyncx::WaitCtx* wctx = job ? job->wait_ctx() : nullptr;
  const int attempts = ops.front().attempts;
  if (!job && attempts > 0) {
    // Capped exponential backoff on the blocking path. The fiber path
    // resubmits immediately instead — it must not block the worker thread,
    // and the resubmission round-robins to another instance.
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min(kRetryBackoffCapUs,
                 config_.retry_backoff_base_us << (attempts - 1))));
  }

  // Lane choice per attempt (DESIGN.md §12): the affine device unless it is
  // down/tripped/deep, and never the device that just failed this op — a
  // retry migrates to a surviving device when one exists.
  DeviceLane* lane = choose_lane(ops.front().device);
  if (!lane) {
    // Every assigned device is offline or tripped. The op moves down the
    // ladder without touching the class breaker: the lane probes own
    // recovery, and a class flip would outlive the outage.
    for (Op& op : ops) op.retry = false;
    return;
  }

  // A single op's request lives on the stack: no allocation for the span.
  const size_t n = ops.size();
  auto dispatch = std::make_shared<Dispatch>(n, wctx);
  qat::CryptoRequest single;
  std::vector<qat::CryptoRequest> many(n > 1 ? n : 0);
  std::span<qat::CryptoRequest> reqs =
      n > 1 ? std::span<qat::CryptoRequest>(many)
            : std::span<qat::CryptoRequest>(&single, 1);
  for (size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    if (op.device >= 0 && op.device != lane->device_id)
      ++stats_.device_migrations;
    op.device = lane->device_id;
    ++op.attempts;
    // Fresh per-attempt state: an abandoned attempt's state may still be
    // referenced by a late device response, so it is never reused.
    auto state = std::make_shared<OpState>();
    state->compute = op.compute;
    state->dispatch = dispatch;
    state->cls = cls;
    op.hop = state;
    // Counted before submission so the heuristic poller sees the request
    // the instant it exists (§4.3 counts at crypto-function invocation).
    inflight_[cls].fetch_add(1, std::memory_order_release);

    qat::CryptoRequest& req = reqs[i];
    req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    req.kind = kind;
    // Sampling decision + submit stamp; the device stamps the rest of the
    // pipeline as the request moves through it.
    obs::trace_begin(req.trace);
    state->req_id = req.request_id;
    req.compute = [state] {
      state->result = state->compute();
      return state->result.is_ok();
    };
    req.on_response = [this, state](const qat::CryptoResponse& resp) {
      if (state->stage.load(std::memory_order_acquire) == kAbandoned)
        return;  // the deadline already recovered this op and its slot
      state->dev_status = resp.status;
      if (resp.trace.sampled) state->trace = resp.trace;
      inflight_[state->cls].fetch_sub(1, std::memory_order_release);
      state->finish();
    };
  }

  // Requests round-robin across the lane's instances (§2.3). The span goes
  // to one instance as a single submit_batch() dispatch (one engine wakeup
  // for N records); a full request ring accepts a prefix, and the §3.2
  // failure path pauses the job (async) or backs off (sync) and retries
  // the remainder.
  qat::CryptoInstance* target = lane_instance(*lane);
  size_t accepted = 0;
  while ((accepted += target->submit_batch(reqs.subspan(accepted))) < n) {
    ++stats_.submit_retries;
    if (job) {
      // Notify immediately so the application reschedules this handler to
      // retry the submission.
      if (wctx) wctx->notify();
      asyncx::pause_job();
    } else {
      target->poll();
      std::this_thread::yield();
    }
  }
  lane->submitted.fetch_add(n, std::memory_order_relaxed);
  stats_.submitted += n;
  if (n > 1) {
    ++stats_.seal_batches;
    stats_.seal_batch_ops += n;
    stats_.max_seal_batch = std::max<uint64_t>(stats_.max_seal_batch, n);
  }

  const uint64_t deadline_ns = deadline_after_us(config_.op_deadline_us);
  if (job && deadline_ns != 0) {
    // The sweep in poll() expires these and wakes the fiber.
    std::lock_guard<std::mutex> lk(pending_mu_);
    for (Op& op : ops) {
      op.hop->deadline_ns = deadline_ns;
      pending_.push_back(op.hop);
    }
  }
  if (!job) ++stats_.sync_blocks;
  wait_hops(ops, job != nullptr, [&] {
    // Straight offload (QAT+S): burn the event loop until the responses
    // are back — this is precisely Figure 3's blocking. Under interrupt
    // delivery the poll finds an empty ring and the engine thread settles
    // the op. With a deadline set, the spin checks the clock itself (no
    // registry involvement).
    target->poll();
    if (deadline_ns != 0 && steady_now_ns() >= deadline_ns)
      for (Op& op : ops)
        if (op.hop->stage.load(std::memory_order_acquire) == kInFlight)
          expire(*op.hop);
  });

  // Settle per record; results stay in caller order in `ops`.
  const int max_attempts = 1 + std::max(0, config_.max_retries);
  for (Op& op : ops) {
    std::shared_ptr<OpState> s = std::move(op.hop);
    const bool expired = s->stage.load(std::memory_order_acquire) == kAbandoned;
    if (!expired) {
      ++stats_.completed;  // one per retrieved response
      if (s->trace.sampled) {
        // Post-processing resumes here: close the trace and fold the stage
        // deltas into the per-stage histograms.
        obs::stamp_now(s->trace, obs::Stage::kFiberResume);
        obs::record_pipeline(s->trace, s->req_id, s->cls, /*sim=*/false);
      }
      // Retrieved: the device is done with the compute, so its inputs (a
      // borrowed plaintext's owner among them) are released here, on the
      // waiter's thread.
      s->compute = nullptr;
      if (!qat::is_device_failure(s->dev_status)) {
        // kSuccess, or kComputeError (a deterministic input failure — the
        // device worked; the result carries the error to the caller).
        lane_outcome(*lane, true);
        class_outcome(qat::op_class_of(kind), true);
        op.result = std::move(s->result);
        op.settled = true;
        op.retry = false;
        continue;
      }
      ++stats_.device_errors;
    }
    // The device failed the record (CPA_STATUS_FAIL / reset-in-flight) or
    // swallowed it (deadline). The lane is charged either way. An expired
    // op is never resubmitted: it may still complete device-side and a
    // duplicate would double-apply.
    lane_outcome(*lane, false);
    op.retry = !expired && op.attempts < max_attempts;
    if (op.retry) {
      ++stats_.op_retries;
    } else if (!other_lane_available(lane->device_id) && !remote_tier_live()) {
      // Terminal. The class breaker is charged only when no surviving
      // device AND no live remote tier could take the class — otherwise the
      // lanes and the remote breaker own degradation and the class stays on
      // offload (ops migrate down the ladder; the class doesn't degrade).
      class_outcome(qat::op_class_of(kind), false);
    }
  }
}

void QatEngineProvider::submit_to_remote(qat::OpClass cls,
                                         std::span<Op> ops) {
  const size_t n = static_cast<size_t>(std::count_if(
      ops.begin(), ops.end(), [](const Op& op) { return !op.settled; }));
  if (n == 0 || !remote_ || !remote_->alive() || !remote_breaker_.allow())
    return;
  asyncx::AsyncJob* job = parkable_job();
  asyncx::WaitCtx* wctx = job ? job->wait_ctx() : nullptr;
  const uint64_t deadline_ns =
      deadline_after_us(config_.remote_op_deadline_us);

  // N submits, ONE flush: the records leave as a single frame — the remote
  // mirror of the submit_batch() dispatch, and like it one wake. A single op
  // flushes at once too: a half-built handshake is latency-bound and never
  // waits out the coalescing window.
  auto dispatch = std::make_shared<Dispatch>(n, wctx);
  size_t submitted = 0;
  for (Op& op : ops) {
    if (op.settled) continue;
    auto state = std::make_shared<OpState>();
    state->dispatch = dispatch;
    op.hop = state;
    ++stats_.remote_ops;
    if (remote_->submit(op.remote_op, op.encode(), deadline_ns,
                        [state](remote::RemoteStatus st, BytesView payload) {
                          state->remote_status = st;
                          state->result = Bytes(payload.begin(), payload.end());
                          state->finish();
                        })) {
      ++submitted;
    } else {
      // A dead channel never completes this submit (earlier ones got their
      // kChannelDown completions already); settle it here. The caller has
      // not parked yet, so the count-down wakes no one.
      state->stage.store(kSettled, std::memory_order_release);
      dispatch->left.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  if (submitted > 0) {
    // Counted like device submissions so the heuristic poller keeps the
    // poll cadence up — poll() is also what pumps the channel.
    inflight_[static_cast<int>(cls)].fetch_add(submitted,
                                               std::memory_order_release);
    remote_hops_.fetch_add(submitted, std::memory_order_release);
    remote_->flush();
    if (n > 1) ++stats_.remote_batches;
  }
  // The worker's poll cadence pumps the channel; its deadline sweep (or
  // channel death) bounds this wait.
  wait_hops(ops, job != nullptr, [&] {
    remote_->pump();
    std::this_thread::yield();
  });
  inflight_[static_cast<int>(cls)].fetch_sub(submitted,
                                             std::memory_order_release);
  remote_hops_.fetch_sub(submitted, std::memory_order_release);

  for (Op& op : ops) {
    std::shared_ptr<OpState> s = std::move(op.hop);
    if (!s) continue;
    switch (s->remote_status) {
      case remote::RemoteStatus::kOk:
        // A keygen body that does not parse is a channel-level fault, not
        // an op result: fall down the ladder.
        if (op.remote_op == remote::RemoteOp::kEcdheKeygen &&
            !remote::decode_keyshare_body(s->result.value()).is_ok())
          break;
        op.result = std::move(s->result);
        op.settled = true;
        break;
      case remote::RemoteStatus::kComputeError:
        // Deterministic input failure — the tier worked; surface the same
        // Status a local compute would have produced. Terminal for the op.
        op.result = remote::decode_error_body(s->result.value());
        op.settled = true;
        break;
      case remote::RemoteStatus::kDeadlineExpired:
        ++stats_.remote_expiries;
        remote_outcome(false);
        continue;
      default:  // kBudgetExhausted, kBadRequest, kChannelDown
        break;
    }
    if (op.settled) {
      ++stats_.remote_completed;
      remote_outcome(true);
    } else {
      ++stats_.remote_failures;
      remote_outcome(false);
    }
  }
}

void QatEngineProvider::last_step(std::span<Op> ops, bool device_tried) {
  for (Op& op : ops) {
    if (op.settled) continue;
    if (device_tried && !config_.sw_fallback_on_device_error) {
      op.result = err(Code::kUnavailable, "qat device failed the op");
      continue;
    }
    ++stats_.sw_fallbacks;
    op.result = op.compute();
  }
}

qat::OpKind QatEngineProvider::ec_op_kind(CurveId curve) {
  switch (curve) {
    case CurveId::kP256: return qat::OpKind::kEcP256;
    case CurveId::kP384: return qat::OpKind::kEcP384;
    case CurveId::kB283:
    case CurveId::kK283: return qat::OpKind::kEcBinary283;
    case CurveId::kB409:
    case CurveId::kK409: return qat::OpKind::kEcBinary409;
  }
  return qat::OpKind::kEcP256;
}

// Each op copies its inputs once into a record that the device closure and
// the remote encoder share (a seal batch's record borrows its plaintext
// through the job's owner instead): the closures must be self-contained,
// because an abandoned op's compute may still run on an engine thread after
// the call returned.

Result<Bytes> QatEngineProvider::rsa_sign(const RsaPrivateKey& key,
                                          BytesView digest) {
  if (!config_.offload_rsa) return fallback_.rsa_sign(key, digest);
  const RsaPrivateKey* k = &key;  // keys outlive connections
  auto d = std::make_shared<const Bytes>(digest.begin(), digest.end());
  return offload(
      qat::OpKind::kRsa2048Priv, remote::RemoteOp::kRsaSign,
      [k, d]() -> Result<Bytes> {
        Bytes sig = rsa_sign_pkcs1(*k, *d);
        if (sig.empty()) return err(Code::kInvalidArgument, "bad digest");
        return sig;
      },
      [k, d] { return remote::encode_rsa_op(*k, *d); });
}

Result<Bytes> QatEngineProvider::rsa_decrypt(const RsaPrivateKey& key,
                                             BytesView ciphertext) {
  if (!config_.offload_rsa) return fallback_.rsa_decrypt(key, ciphertext);
  const RsaPrivateKey* k = &key;
  auto ct = std::make_shared<const Bytes>(ciphertext.begin(), ciphertext.end());
  return offload(
      qat::OpKind::kRsa2048Priv, remote::RemoteOp::kRsaDecrypt,
      [k, ct]() -> Result<Bytes> { return rsa_decrypt_pkcs1(*k, *ct); },
      [k, ct] { return remote::encode_rsa_op(*k, *ct); });
}

Result<KeyShare> QatEngineProvider::ecdhe_keygen(CurveId curve) {
  if (!config_.offload_ec) return fallback_.ecdhe_keygen(curve);
  // Engine threads need private randomness: derive a one-shot DRBG. The
  // share travels the ladder in its wire form, so the device, the remote
  // tier and software all produce the same bytes.
  const uint64_t nonce =
      engine_drbg_nonce_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t seed = config_.drbg_seed ^ (nonce * 0x9e3779b97f4a7c15ULL);
  QTLS_ASSIGN_OR_RETURN(
      Bytes body,
      offload(
          ec_op_kind(curve), remote::RemoteOp::kEcdheKeygen,
          [curve, seed]() -> Result<Bytes> {
            Bytes sb;
            append_u64(sb, seed);
            HmacDrbg rng(HashAlg::kSha256, sb);
            QTLS_ASSIGN_OR_RETURN(KeyShare share,
                                  ecdhe_keygen_impl(curve, rng));
            Bytes out;
            remote::encode_keyshare_body(
                {static_cast<uint8_t>(share.curve), std::move(share.priv),
                 std::move(share.pub_point)},
                &out);
            return out;
          },
          [curve, seed] { return remote::encode_ecdhe_keygen(curve, seed); }));
  QTLS_ASSIGN_OR_RETURN(remote::WireKeyShare wire,
                        remote::decode_keyshare_body(body));
  return KeyShare{static_cast<CurveId>(wire.curve), std::move(wire.priv),
                  std::move(wire.pub_point)};
}

Result<Bytes> QatEngineProvider::ecdhe_derive(const KeyShare& mine,
                                              BytesView peer_point) {
  if (!config_.offload_ec) return fallback_.ecdhe_derive(mine, peer_point);
  struct In {
    KeyShare share;
    Bytes peer;
  };
  auto in = std::make_shared<const In>(
      In{mine, Bytes(peer_point.begin(), peer_point.end())});
  return offload(
      ec_op_kind(mine.curve), remote::RemoteOp::kEcdheDerive,
      [in]() -> Result<Bytes> { return ecdhe_derive_impl(in->share, in->peer); },
      [in] {
        return remote::encode_ecdhe_derive(in->share.curve, in->share.priv,
                                           in->share.pub_point, in->peer);
      });
}

Result<Bytes> QatEngineProvider::ecdsa_sign(CurveId curve, const Bignum& priv,
                                            BytesView digest) {
  if (!config_.offload_ec) return fallback_.ecdsa_sign(curve, priv, digest);
  const EcCurve* c = prime_curve(curve);
  if (!c)
    return err(Code::kUnimplemented, "ECDSA restricted to prime curves");
  const uint64_t nonce =
      engine_drbg_nonce_.fetch_add(1, std::memory_order_relaxed);
  struct In {
    Bignum priv;
    Bytes digest;
    uint64_t seed;
  };
  auto in = std::make_shared<const In>(
      In{priv, Bytes(digest.begin(), digest.end()),
         config_.drbg_seed ^ (nonce * 0xc2b2ae3d27d4eb4fULL)});
  return offload(
      ec_op_kind(curve), remote::RemoteOp::kEcdsaSign,
      [c, in]() -> Result<Bytes> {
        Bytes sb;
        append_u64(sb, in->seed);
        HmacDrbg rng(HashAlg::kSha256, sb);
        return qtls::ecdsa_sign(*c, in->priv, in->digest, rng).encode();
      },
      [curve, in] {
        return remote::encode_ecdsa_sign(curve, in->priv.to_bytes_be(),
                                         in->digest, in->seed);
      });
}

Result<Bytes> QatEngineProvider::prf_tls12(HashAlg alg, BytesView secret,
                                           const std::string& label,
                                           BytesView seed, size_t out_len) {
  if (!config_.offload_prf)
    return fallback_.prf_tls12(alg, secret, label, seed, out_len);
  struct In {
    Bytes secret;
    std::string label;
    Bytes seed;
  };
  auto in = std::make_shared<const In>(
      In{Bytes(secret.begin(), secret.end()), label,
         Bytes(seed.begin(), seed.end())});
  return offload(
      qat::OpKind::kPrfTls12, remote::RemoteOp::kPrfTls12,
      [alg, in, out_len]() -> Result<Bytes> {
        return tls12_prf(alg, in->secret, in->label, in->seed, out_len);
      },
      [alg, in, out_len] {
        return remote::encode_prf_tls12(alg, in->secret, in->label, in->seed,
                                        static_cast<uint32_t>(out_len));
      });
}

namespace {
// A record's text as its op reads it, possibly after the call returned: a
// view plus what keeps the bytes alive — the caller's owner when it lends
// one, else a copy the op owns.
struct Held {
  std::shared_ptr<const void> owner;
  BytesView bytes;
};

Held hold_copy(BytesView v) {
  auto copy = std::make_shared<const Bytes>(v.begin(), v.end());
  const BytesView bytes(*copy);
  return {std::move(copy), bytes};
}

// A seal batch's plaintext: borrowed through the job's owner, or copied —
// a pass over the payload, so metered.
Held hold_plaintext(BytesView v, const std::shared_ptr<const void>& owner) {
  if (owner) return {owner, v};
  record_bytes_copied().add(v.size());
  return hold_copy(v);
}

// Inputs of one CBC-HMAC record op.
struct CbcIn {
  std::shared_ptr<const CbcHmacKeys> keys;  // shared by a batch's records
  uint64_t seq;
  Bytes header, iv;
  Held text;
};

// Inputs of one AEAD record op.
struct AeadIn {
  std::shared_ptr<const Bytes> key;  // shared by a batch's records
  Bytes nonce, aad;
  Held text;
};

Bytes owned(BytesView v) { return Bytes(v.begin(), v.end()); }
}  // namespace

Result<Bytes> QatEngineProvider::cipher_seal(const CbcHmacKeys& keys,
                                             uint64_t seq, BytesView header,
                                             BytesView iv, BytesView fragment) {
  if (!config_.offload_cipher)
    return fallback_.cipher_seal(keys, seq, header, iv, fragment);
  auto in = std::make_shared<const CbcIn>(
      CbcIn{std::make_shared<const CbcHmacKeys>(keys), seq, owned(header),
            owned(iv), hold_copy(fragment)});
  return offload(
      qat::OpKind::kCipher16k, remote::RemoteOp::kCipherSeal,
      [in]() -> Result<Bytes> {
        return cbc_hmac_seal(*in->keys, in->seq, in->header, in->iv,
                             in->text.bytes);
      },
      [in] {
        return remote::encode_cipher_seal(*in->keys, in->seq, in->header,
                                          in->iv, in->text.bytes);
      });
}

Result<Bytes> QatEngineProvider::cipher_open(const CbcHmacKeys& keys,
                                             uint64_t seq,
                                             BytesView header_without_len,
                                             BytesView iv,
                                             BytesView ciphertext) {
  if (!config_.offload_cipher)
    return fallback_.cipher_open(keys, seq, header_without_len, iv, ciphertext);
  auto in = std::make_shared<const CbcIn>(
      CbcIn{std::make_shared<const CbcHmacKeys>(keys), seq,
            owned(header_without_len), owned(iv), hold_copy(ciphertext)});
  return offload(
      qat::OpKind::kCipher16k, remote::RemoteOp::kCipherOpen,
      [in]() -> Result<Bytes> {
        return cbc_hmac_open(*in->keys, in->seq, in->header, in->iv,
                             in->text.bytes);
      },
      [in] {
        return remote::encode_cipher_open(*in->keys, in->seq, in->header,
                                          in->iv, in->text.bytes);
      });
}

Result<Bytes> QatEngineProvider::aead_seal(BytesView key, BytesView nonce,
                                           BytesView aad,
                                           BytesView plaintext) {
  if (!config_.offload_cipher)
    return fallback_.aead_seal(key, nonce, aad, plaintext);
  auto in = std::make_shared<const AeadIn>(
      AeadIn{std::make_shared<const Bytes>(owned(key)), owned(nonce),
             owned(aad), hold_copy(plaintext)});
  return offload(
      qat::OpKind::kCipher16k, remote::RemoteOp::kAeadSeal,
      [in]() -> Result<Bytes> {
        return gcm_seal(*in->key, in->nonce, in->aad, in->text.bytes);
      },
      [in] {
        return remote::encode_aead_op(*in->key, in->nonce, in->aad,
                                      in->text.bytes);
      });
}

Result<Bytes> QatEngineProvider::aead_open(BytesView key, BytesView nonce,
                                           BytesView aad,
                                           BytesView ciphertext) {
  if (!config_.offload_cipher)
    return fallback_.aead_open(key, nonce, aad, ciphertext);
  auto in = std::make_shared<const AeadIn>(
      AeadIn{std::make_shared<const Bytes>(owned(key)), owned(nonce),
             owned(aad), hold_copy(ciphertext)});
  return offload(
      qat::OpKind::kCipher16k, remote::RemoteOp::kAeadOpen,
      [in]() -> Result<Bytes> {
        return gcm_open(*in->key, in->nonce, in->aad, in->text.bytes);
      },
      [in] {
        return remote::encode_aead_op(*in->key, in->nonce, in->aad,
                                      in->text.bytes);
      });
}

namespace {
// Hands each record's sealed buffer over as its job's output block, in
// caller order and whichever tier sealed it: a move, not a copy. The first
// failed record fails the batch.
template <typename Job, typename Ops>
Status hand_back(std::span<Job> jobs, Ops& ops) {
  for (size_t i = 0; i < jobs.size(); ++i) {
    QTLS_ASSIGN_OR_RETURN(*jobs[i].out, std::move(ops[i].result));
  }
  return Status::ok();
}
}  // namespace

Status QatEngineProvider::cipher_seal_batch(const CbcHmacKeys& keys,
                                            std::span<CipherSealJob> jobs) {
  if (jobs.empty()) return Status::ok();
  if (!config_.offload_cipher) return fallback_.cipher_seal_batch(keys, jobs);
  auto shared_keys = std::make_shared<const CbcHmacKeys>(keys);
  std::vector<Op> ops;
  ops.reserve(jobs.size());
  for (const CipherSealJob& job : jobs) {
    auto in = std::make_shared<const CbcIn>(
        CbcIn{shared_keys, job.seq, owned(job.header), owned(job.iv),
              hold_plaintext(job.fragment, job.owner)});
    ops.emplace_back(
        [in]() -> Result<Bytes> {
          return cbc_hmac_seal(*in->keys, in->seq, in->header, in->iv,
                               in->text.bytes);
        },
        remote::RemoteOp::kCipherSeal,
        [in] {
          return remote::encode_cipher_seal(*in->keys, in->seq, in->header,
                                            in->iv, in->text.bytes);
        });
  }
  run(qat::OpKind::kCipher16k, ops);
  return hand_back(jobs, ops);
}

Status QatEngineProvider::aead_seal_batch(BytesView key,
                                          std::span<AeadSealJob> jobs) {
  if (jobs.empty()) return Status::ok();
  if (!config_.offload_cipher) return fallback_.aead_seal_batch(key, jobs);
  auto shared_key = std::make_shared<const Bytes>(owned(key));
  std::vector<Op> ops;
  ops.reserve(jobs.size());
  for (const AeadSealJob& job : jobs) {
    auto in = std::make_shared<const AeadIn>(
        AeadIn{shared_key, owned(job.nonce), owned(job.aad),
               hold_plaintext(job.plaintext, job.owner)});
    ops.emplace_back(
        [in]() -> Result<Bytes> {
          return gcm_seal(*in->key, in->nonce, in->aad, in->text.bytes);
        },
        remote::RemoteOp::kAeadSeal,
        [in] {
          return remote::encode_aead_op(*in->key, in->nonce, in->aad,
                                        in->text.bytes);
        });
  }
  run(qat::OpKind::kCipher16k, ops);
  return hand_back(jobs, ops);
}

}  // namespace qtls::engine
