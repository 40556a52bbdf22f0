// QAT Engine — the bridge between the TLS library and the QAT driver layer
// (paper §3.2): registers a response callback when submitting through the
// driver's non-blocking API, then either
//
//  * kSync (straight offload, the QAT+S configuration): blocks the calling
//    thread until the response is retrieved — reproducing §2.4's pathology,
//    where each offload I/O stalls the whole event loop; or
//  * kAsync (the QTLS framework): pauses the surrounding fiber
//    (asyncx::pause_job) after submission and consumes the crypto result
//    after resumption — multiple connections' ops stay in flight at once.
//
// The engine also owns the inflight counters R_asym / R_cipher / R_prf that
// feed the heuristic polling scheme (§4.3), counted exactly as the paper
// prescribes: incremented when a crypto function is invoked, decremented in
// the response callback.
//
// Failure handling (DESIGN.md "Failure model & degradation"), mirroring the
// real QAT_Engine's sw-fallback semantics:
//  * per-op deadline: a response that never arrives (dropped by the device)
//    expires the op instead of hanging the fiber/event loop;
//  * bounded retry: transient device errors are resubmitted up to
//    max_retries times (capped exponential backoff on the blocking path);
//  * circuit breaker per op class: K consecutive terminal device failures
//    flip the class to the SoftwareProvider fallback; after a cooldown the
//    next op re-probes the device and recovers offload on success.
// Every op — a single one is a batch of one — walks the same ladder:
// device lanes, then the remote tier (DESIGN.md §13), then software.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "asyncx/job.h"
#include "engine/provider.h"
#include "obs/trace.h"
#include "qat/device.h"
#include "qat/topology.h"
#include "remote/wire.h"

namespace qtls::engine {

enum class OffloadMode { kSync, kAsync };

struct QatEngineConfig {
  OffloadMode offload_mode = OffloadMode::kAsync;
  // Per-algorithm offload switches (ssl_engine `default_algorithm ...`).
  bool offload_rsa = true;
  bool offload_ec = true;
  bool offload_prf = true;
  bool offload_cipher = true;
  uint64_t drbg_seed = 0x716174656e67ULL;

  // --- failure handling -------------------------------------------------
  // Per-op deadline in microseconds; 0 disables deadlines entirely (no
  // clock reads on the hot path). With polled delivery the deadline sweep
  // runs inside poll(), which the worker calls under every poll scheme, so
  // its failover interval (heuristic) or its tick (timer) bounds how late
  // an expiry is observed. Requires kPolled delivery.
  uint64_t op_deadline_us = 0;
  // Resubmissions after a transient device error before the op is terminal.
  int max_retries = 3;
  // Blocking-path backoff between retries: base << attempt, capped at
  // 2 ms. (The async path reschedules through the event loop instead of
  // sleeping — it must not block the worker thread.)
  uint64_t retry_backoff_base_us = 50;
  // Circuit breaker: consecutive terminal failures per op class before the
  // class degrades to software, and how long it stays degraded before the
  // next op re-probes the device.
  int breaker_threshold = 8;
  uint64_t breaker_cooldown_ms = 100;
  // Complete an op in software when the device fails it terminally. When
  // false, the failure surfaces to the caller as Code::kUnavailable (the
  // TLS layer turns it into a clean connection teardown).
  bool sw_fallback_on_device_error = true;

  // --- remote offload tier (DESIGN.md §13) ------------------------------
  // The network-attached backend between the QAT lanes and inline software
  // in the fallback ladder. Per-op deadline for remote round trips (this is
  // also the budget propagated on the wire); 0 disables remote deadlines.
  uint64_t remote_op_deadline_us = 20'000;
  // Remote-tier breaker: consecutive remote failures before the tier is
  // skipped, and the cooldown before a half-open re-probe. Tighter than the
  // device breaker — a dead network fails much faster than a dying card.
  int remote_breaker_threshold = 4;
  uint64_t remote_breaker_cooldown_ms = 200;
};

struct QatEngineStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t submit_retries = 0;  // request-ring-full events (§3.2 retry path)
  uint64_t sync_blocks = 0;     // blocking waits taken in kSync mode
  uint64_t polls = 0;           // poll() passes over the instance set
  uint64_t polled_responses = 0;
  uint64_t max_poll_batch = 0;  // largest single-pass retrieval

  // --- batched record seal (submit_batch data plane) ----------------------
  uint64_t seal_batches = 0;    // multi-record submit_batch() dispatches
  uint64_t seal_batch_ops = 0;  // records carried by those dispatches
  uint64_t max_seal_batch = 0;  // largest single dispatch

  // --- failure handling -------------------------------------------------
  uint64_t device_errors = 0;      // responses with a device failure status
  uint64_t op_retries = 0;         // resubmissions after transient errors
  uint64_t deadline_expiries = 0;  // ops abandoned after op_deadline_us
  uint64_t sw_fallbacks = 0;       // ops completed by the software provider
                                   // (breaker open or terminal failure)
  uint64_t breaker_opens = 0;      // class flips to software fallback
  uint64_t breaker_closes = 0;     // successful re-probe restored offload

  // --- multi-device topology (DESIGN.md §12) ----------------------------
  uint64_t device_migrations = 0;  // retries resubmitted to another device
  uint64_t lane_spillovers = 0;    // submissions steered off the affine
                                   // device (down, tripped, or too deep)
  uint64_t lane_breaker_opens = 0;   // a device lane flipped unavailable
  uint64_t lane_breaker_closes = 0;  // a lane re-probe rebound the device

  // --- remote offload tier (DESIGN.md §13) ------------------------------
  uint64_t remote_ops = 0;        // ops routed to the remote backend
  uint64_t remote_completed = 0;  // server responded (ok or compute error)
  uint64_t remote_expiries = 0;   // client-side deadline expiries
  uint64_t remote_failures = 0;   // channel death / refusal / bad decode
  uint64_t remote_batches = 0;    // seal batches shipped as one frame
  uint64_t remote_breaker_opens = 0;
  uint64_t remote_breaker_closes = 0;
};

// Circuit-breaker state (observability + tests).
enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };
// "closed" | "open" | "half_open", as GET /stats spells it.
const char* breaker_name(BreakerState state);

// The circuit breaker behind every tier of the offload ladder: per op class
// (QAT_Engine's sw-fallback switch), per device lane and for the remote
// tier. `threshold` consecutive failures open it; once the reopen time has
// passed, exactly one caller wins the half-open probe, whose outcome closes
// it or reopens it for another cooldown. Each use passes its own threshold
// and cooldown.
class Breaker {
 public:
  BreakerState state() const {
    return static_cast<BreakerState>(state_.load(std::memory_order_acquire));
  }
  // Open -> half-open for exactly one caller, once the reopen time has
  // passed or `skip_cooldown` says the world changed (a device re-add).
  bool try_probe(bool skip_cooldown = false);
  // Closed, or this caller won the probe. One load on the happy path.
  bool allow() { return state() == BreakerState::kClosed || try_probe(); }
  // A probe that never reached its target returns to open, probe-able at
  // once by the next caller.
  void give_back();
  // True when this success closed the breaker.
  bool on_success();
  // True when this failure opened it: a failed probe, or the
  // `threshold`-th consecutive failure.
  bool on_failure(int threshold, uint64_t cooldown_ms);
  int failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint8_t> state_{static_cast<uint8_t>(BreakerState::kClosed)};
  std::atomic<int> failures_{0};
  std::atomic<uint64_t> open_until_ns_{0};
};

// One device's worth of instances assigned to a provider — the unit the
// per-device breaker and the migration path reason about.
struct DeviceInstanceSet {
  int device_id = 0;
  std::vector<qat::CryptoInstance*> instances;
};

class QatEngineProvider : public CryptoProvider {
 public:
  // One instance on one device, no topology.
  QatEngineProvider(qat::CryptoInstance* instance, QatEngineConfig config);
  // Instance sets grouped by device (§2.3: a process may hold instances on
  // several endpoints; DESIGN.md §12: several cards), with
  // `preferred_device` the worker's affine card. Requests round-robin
  // across a lane's instances; poll() drains all of them. With more than
  // one lane, a lane whose device is offline, breaker-tripped or
  // queue-deep spills to the shallowest healthy lane, and device failures
  // migrate the retry to another device instead of burning the class
  // breaker. `topology` is non-owning and may be null only with a single
  // lane; when set, its online flag gates every lane and its queue depths
  // decide spillover.
  QatEngineProvider(qat::DeviceTopology* topology, int preferred_device,
                    std::vector<DeviceInstanceSet> sets,
                    QatEngineConfig config);
  ~QatEngineProvider() override;

  QatEngineProvider(const QatEngineProvider&) = delete;
  QatEngineProvider& operator=(const QatEngineProvider&) = delete;

  const char* name() const override { return "qat"; }

  Result<Bytes> rsa_sign(const RsaPrivateKey& key, BytesView digest) override;
  Result<Bytes> rsa_decrypt(const RsaPrivateKey& key,
                            BytesView ciphertext) override;
  Result<KeyShare> ecdhe_keygen(CurveId curve) override;
  Result<Bytes> ecdhe_derive(const KeyShare& mine,
                             BytesView peer_point) override;
  Result<Bytes> ecdsa_sign(CurveId curve, const Bignum& priv,
                           BytesView digest) override;
  Result<Bytes> prf_tls12(HashAlg alg, BytesView secret,
                          const std::string& label, BytesView seed,
                          size_t out_len) override;
  Result<Bytes> cipher_seal(const CbcHmacKeys& keys, uint64_t seq,
                            BytesView header, BytesView iv,
                            BytesView fragment) override;
  Result<Bytes> cipher_open(const CbcHmacKeys& keys, uint64_t seq,
                            BytesView header_without_len, BytesView iv,
                            BytesView ciphertext) override;
  Result<Bytes> aead_seal(BytesView key, BytesView nonce, BytesView aad,
                          BytesView plaintext) override;
  Result<Bytes> aead_open(BytesView key, BytesView nonce, BytesView aad,
                          BytesView ciphertext) override;
  // Batched record seal: the whole span goes to the device as ONE
  // submit_batch() dispatch (one engine wakeup for N records, §3.2) that
  // wakes the fiber once. A job's op borrows its plaintext through the
  // job's owner (copying, metered, only when there is none) and its sealed
  // buffer becomes the job's output block.
  Status cipher_seal_batch(const CbcHmacKeys& keys,
                           std::span<CipherSealJob> jobs) override;
  Status aead_seal_batch(BytesView key, std::span<AeadSealJob> jobs) override;

  // --- engine commands (paper §4.3's new command surface) -----------------
  size_t inflight(qat::OpClass cls) const {
    return inflight_[static_cast<int>(cls)].load(std::memory_order_acquire);
  }
  size_t inflight_total() const {
    size_t total = 0;
    for (const auto& c : inflight_) total += c.load(std::memory_order_acquire);
    return total;
  }

  // Drain up to `max` QAT responses in one batched pass across ALL assigned
  // instances (runs response callbacks; resumable jobs are signalled through
  // their WaitCtx). The per-instance drain is wait-free on the ring-consumer
  // side, so one heuristic trigger retrieves every ready response without
  // taking a lock. Returns retrieved count.
  size_t poll(size_t max = static_cast<size_t>(-1));

  // --- event-driven wakeup (DESIGN.md §5) ---------------------------------
  // One eventfd, installed on every assigned instance; the worker keeps it
  // in its epoll set. arm_wakeup() arms every instance and returns true
  // when the caller may sleep until the fd turns readable. It returns false,
  // disarmed, when a response already waits (poll instead) or a remote hop
  // is in flight (only poll() pumps the channel). Worker thread only.
  int wakeup_fd() const { return wakeup_fd_; }
  bool arm_wakeup();
  void disarm_wakeup();
  // Remote round trips submitted and not yet settled.
  size_t remote_hops() const {
    return remote_hops_.load(std::memory_order_acquire);
  }

  qat::CryptoInstance* instance() const { return instances_.front(); }
  const QatEngineStats& stats() const { return stats_; }
  const QatEngineConfig& config() const { return config_; }

  // Current breaker state for an op class (observability + tests).
  BreakerState breaker_state(qat::OpClass cls) const {
    return breakers_[static_cast<int>(cls)].state();
  }
  // Ops registered for deadline tracking but not yet completed/expired.
  size_t pending_deadline_ops() const;

  // --- multi-device lanes (observability + tests) -------------------------
  qat::DeviceTopology* topology() const { return topology_; }
  int preferred_device() const { return preferred_device_; }
  size_t num_lanes() const { return lanes_.size(); }
  int lane_device(size_t lane) const { return lanes_[lane]->device_id; }
  BreakerState lane_breaker_state(size_t lane) const {
    return lanes_[lane]->breaker.state();
  }
  uint64_t lane_submitted(size_t lane) const {
    return lanes_[lane]->submitted.load(std::memory_order_relaxed);
  }
  // The GET /stats "topology.lanes" array: one entry per assigned device.
  std::string lanes_json() const;

  // --- remote offload tier (DESIGN.md §13) --------------------------------
  // Attach the network-attached backend as the ladder tier between the QAT
  // lanes and inline software. Non-owning; the backend must outlive the
  // provider (the worker pool owns both). Null detaches.
  void set_remote_backend(remote::RemoteBackend* backend) {
    remote_ = backend;
  }
  remote::RemoteBackend* remote_backend() const { return remote_; }
  BreakerState remote_breaker_state() const { return remote_breaker_.state(); }
  // The GET /stats "remote" object: engine-side tier counters plus the
  // channel's own stats.
  std::string remote_json() const;

 private:
  // The hops of one dispatch — a device submit_batch(), or a remote hop's N
  // submits — share one countdown: the waiter is notified once, by the last
  // hop to finish or expire, so an N-record batch resumes its fiber once.
  struct Dispatch {
    Dispatch(size_t hops, asyncx::WaitCtx* w) : left(hops), wctx(w) {}
    std::atomic<size_t> left;
    asyncx::WaitCtx* wctx;  // the parked fiber's, else null
    // One hop finished or expired; the last one wakes the waiter.
    void hop_done() {
      if (left.fetch_sub(1, std::memory_order_acq_rel) == 1 && wctx)
        wctx->notify();
    }
  };

  // One hop of an op to the device or the remote tier. `stage` moves
  // kInFlight -> kDone -> kSettled in the completion callback, or
  // kInFlight -> kAbandoned in the deadline sweep. Both the device callback
  // and the sweep run in poll() on the worker thread, the only thread that
  // polls — the polled delivery contract is what makes abandon-vs-late-
  // response handling race-free without a per-op lock. Deadlines are NOT
  // supported with kInterrupt delivery.
  struct OpState {
    std::atomic<uint8_t> stage{0};
    qat::CryptoStatus dev_status = qat::CryptoStatus::kSuccess;
    remote::RemoteStatus remote_status = remote::RemoteStatus::kChannelDown;
    // The device runs this. Settling a retrieved hop clears it on the
    // waiter's thread, so the inputs it holds are released there; an
    // abandoned hop keeps it, and with it its inputs, for a late compute.
    std::function<Result<Bytes>()> compute;
    // The device's result, or the remote response body.
    Result<Bytes> result = Status(Code::kInternal, "not computed");
    std::shared_ptr<Dispatch> dispatch;  // shared by the dispatch's hops
    uint64_t deadline_ns = 0;  // absolute steady-clock ns; 0 = none
    int cls = 0;                      // op class, for inflight accounting
    uint64_t req_id = 0;              // device request id (trace records)
    // Lifecycle stamps copied from the response in the callback; the
    // resuming thread stamps fiber-resume and folds them into the global
    // per-stage histograms (obs/trace.h).
    obs::TraceStamps trace;

    // Publish the completion and count it down on the dispatch, which wakes
    // the waiter after the last hop. kSettled comes after the notify: the
    // waiter's WaitCtx must outlive it. The notify must not resume the
    // waiter inline (WaitCtx callbacks queue the handler), or the waiter
    // would wait on this very call.
    void finish();
  };

  // One op travelling the ladder. A single op is a batch of one; a seal
  // batch is a span of these.
  struct Op {
    Op(std::function<Result<Bytes>()> c, remote::RemoteOp r,
       std::function<Bytes()> e)
        : compute(std::move(c)), remote_op(r), encode(std::move(e)) {}

    // Self-contained computation: the device runs it on an engine thread,
    // the last rung runs it inline — that IS the SoftwareProvider path.
    std::function<Result<Bytes>()> compute;
    // How the op travels the wire (DESIGN.md §13).
    remote::RemoteOp remote_op;
    std::function<Bytes()> encode;

    Result<Bytes> result = Status(Code::kInternal, "not computed");
    bool settled = false;  // some tier produced `result`
    bool retry = false;    // the device failed it with attempts left
    int attempts = 0;      // device attempts made
    int device = -1;       // device of the last attempt
    std::shared_ptr<OpState> hop;  // the hop in flight, if any
  };

  // One device's lane: its instances, a round-robin cursor, and a breaker
  // tracking DEVICE failures regardless of op class — K consecutive ones
  // flip the lane unavailable so submissions spill to surviving devices
  // (never to software while another lane is up); the half-open probe
  // rebinds the device after the cooldown, or immediately after a topology
  // re_add (generation bump). With one lane the breaker stays out of it.
  struct DeviceLane {
    int device_id = 0;
    std::vector<qat::CryptoInstance*> instances;
    std::atomic<size_t> rr{0};
    Breaker breaker;
    std::atomic<uint64_t> submitted{0};
    // Topology generation this lane last observed; a mismatch on a tripped
    // lane re-probes without waiting out the cooldown.
    std::atomic<uint64_t> seen_generation{0};
  };

  // --- the offload ladder -------------------------------------------------
  // A single op: a batch of one over a stack slot.
  Result<Bytes> offload(qat::OpKind kind, remote::RemoteOp remote_op,
                        std::function<Result<Bytes>()> compute,
                        std::function<Bytes()> encode);
  // The tier walk every op takes: device lanes (behind the class breaker),
  // then the remote tier, then the last step — never skipping a live tier.
  void run(qat::OpKind kind, std::span<Op> ops);
  // One device attempt: the span rides one lane in one submit_batch()
  // dispatch; waits, then settles each record or marks it for a retry.
  // Submits nothing when no lane is available.
  void submit_to_device(qat::OpKind kind, std::span<Op> ops);
  // One remote hop for every unsettled record: N submits, one flush, one
  // wait. Records the tier cannot settle stay unsettled.
  void submit_to_remote(qat::OpClass cls, std::span<Op> ops);
  // Software for every record no tier settled — or kUnavailable when the
  // device tier was tried and sw_fallback_on_device_error is off.
  void last_step(std::span<Op> ops, bool device_tried);
  // Park (async) or run `spin` (blocking) until no hop is in flight.
  template <typename Spin>
  void wait_hops(std::span<Op> ops, bool park, Spin spin);
  // The fiber to park on, or null when this call blocks.
  asyncx::AsyncJob* parkable_job() const;

  // Breaker outcomes, each with its use's counters and log line.
  void class_outcome(qat::OpClass cls, bool ok);
  void lane_outcome(DeviceLane& lane, bool ok);
  void remote_outcome(bool ok);
  // Passive check for the class charge: a live remote tier shields the
  // per-class breaker the same way a surviving lane does. A half-open tier
  // counts as live: its probe may restore it.
  bool remote_tier_live() const;

  // --- device lanes -------------------------------------------------------
  bool online(const DeviceLane& lane) const {
    return !topology_ || topology_->online(lane.device_id);
  }
  // Win the half-open probe on a tripped lane when its cooldown elapsed or
  // the topology generation moved (re_add).
  bool try_probe_lane(DeviceLane& lane);
  // This provider's share of the lane's device queue (spillover signal).
  size_t lane_depth(const DeviceLane& lane) const;
  // Pick the lane for a submission: the affine lane unless it is
  // disallowed, excluded (a retry migrating off a failed device), or
  // deeper than the shallowest healthy lane by more than the topology's
  // spill threshold. Null when no lane is currently allowed.
  DeviceLane* choose_lane(int exclude_device);
  qat::CryptoInstance* lane_instance(DeviceLane& lane);
  // True when some OTHER lane could take the op — the migration guard that
  // keeps one dead device from tripping the per-class breaker.
  bool other_lane_available(int device_id) const;

  // Expire an in-flight device hop: mark it abandoned, release the inflight
  // slot, count it down on its dispatch.
  void expire(OpState& s);
  // Expire past-deadline ops. Called from poll().
  void sweep_deadlines(uint64_t now);

  // Curve -> modelled op kind.
  static qat::OpKind ec_op_kind(CurveId curve);

  std::vector<qat::CryptoInstance*> instances_;  // flattened, for poll()
  // Per-device lanes (heap-allocated: atomics are immovable).
  std::vector<std::unique_ptr<DeviceLane>> lanes_;
  qat::DeviceTopology* topology_ = nullptr;  // non-owning; may be null
  int preferred_device_ = 0;
  QatEngineConfig config_;
  SoftwareProvider fallback_;
  std::atomic<size_t> inflight_[qat::kNumOpClasses];
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> engine_drbg_nonce_{1};
  QatEngineStats stats_;
  Breaker breakers_[qat::kNumOpClasses];
  // Remote tier: non-owning backend pointer + the tier breaker. One breaker
  // for the whole tier (not per class): the failure domain is the channel.
  remote::RemoteBackend* remote_ = nullptr;
  Breaker remote_breaker_;
  std::atomic<size_t> remote_hops_{0};
  int wakeup_fd_ = -1;
  // Deadline registry (async ops only; sync ops check the clock in their
  // own spin loop). Touched only when op_deadline_us != 0.
  mutable std::mutex pending_mu_;
  std::vector<std::shared_ptr<OpState>> pending_;
};

}  // namespace qtls::engine
