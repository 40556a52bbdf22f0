#include "sim/qat_sim.h"

#include <algorithm>

namespace qtls::sim {

bool SimQatInstance::submit(SOp op, std::function<void()> on_retrieved) {
  return submit(op, endpoint_->costs_->qat_service(op),
                std::move(on_retrieved));
}

bool SimQatInstance::submit(SOp op, SimTime service,
                            std::function<void()> on_retrieved) {
  std::function<void(qat::CryptoStatus)> cb;
  if (on_retrieved)
    cb = [f = std::move(on_retrieved)](qat::CryptoStatus) { f(); };
  return submit_with_status(op, service, std::move(cb));
}

SimTime SimQatInstance::submit_blocking(SOp op, SimTime service) {
  if (ring_occupancy_ >= ring_capacity_) return 0;
  ++ring_occupancy_;
  const SimTime done_at = endpoint_->dispatch(service);
  endpoint_->sim_->schedule_at(done_at, [this] {
    --ring_occupancy_;
    ++endpoint_->completed_;
  });
  (void)op;
  return done_at;
}

bool SimQatInstance::submit_with_status(
    SOp op, SimTime service,
    std::function<void(qat::CryptoStatus)> on_retrieved) {
  if (ring_occupancy_ >= ring_capacity_) return false;

  // Service-point fault injection — the same plan contract as the real-time
  // backend's QatEndpoint::serve() (qat/fault.h). In virtual time the
  // service point is the dispatch onto an engine, decided here so the fault
  // stream is a pure function of submit order.
  qat::FaultDecision fault;
  if (endpoint_->fault_plan_)
    fault = endpoint_->fault_plan_->decide(endpoint_->costs_->qat_kind(op));

  qat::CryptoStatus status = qat::CryptoStatus::kSuccess;
  switch (fault.kind) {
    case qat::FaultKind::kError:
      status = qat::CryptoStatus::kDeviceError;
      service = 0;  // failed fast: the computation never ran
      break;
    case qat::FaultKind::kReset:
      status = qat::CryptoStatus::kDeviceReset;
      service = 0;
      break;
    case qat::FaultKind::kStall:
      service += fault.stall_ns;  // stuck engine, then serves normally
      break;
    case qat::FaultKind::kDrop:  // served, but the response is lost below
    case qat::FaultKind::kNone:
      break;
  }

  ++ring_occupancy_;
  ++inflight_total_;
  if (CostModel::is_asym(op)) ++inflight_asym_;

  // Virtual-time stamping: every stage boundary is already known here.
  // Submission and ring-enqueue coincide (the sim ring has no submit/push
  // gap); engine claim and service start coincide (engines never sit on a
  // claimed request).
  const SimTime now = endpoint_->sim_->now();
  obs::TraceStamps trace;
  obs::trace_begin_at(trace, now);
  trace.stamp_at(obs::Stage::kRingEnqueue, now);

  SimTime service_start = 0;
  const SimTime done_at = endpoint_->dispatch(service, &service_start);
  trace.stamp_at(obs::Stage::kEngineClaim, service_start);
  trace.stamp_at(obs::Stage::kServiceStart, service_start);
  trace.stamp_at(obs::Stage::kServiceDone, done_at);
  const uint64_t id = endpoint_->next_request_id_++;

  if (fault.kind == qat::FaultKind::kDrop) {
    // Lost response: the device-side slot is freed at completion but no
    // response is ever deliverable — parity with the real backend, where
    // only an engine-level deadline recovers the caller.
    endpoint_->sim_->schedule_at(done_at, [this, op] {
      --ring_occupancy_;
      --inflight_total_;
      if (CostModel::is_asym(op)) --inflight_asym_;
      ++dropped_;
      ++endpoint_->completed_;
    });
    return true;
  }

  // The hardware reads the request off the ring when an engine starts it;
  // modelling the slot release at dispatch-time start is equivalent here to
  // releasing at completion for the failure path, so release at completion
  // event for simplicity.
  endpoint_->sim_->schedule_at(
      done_at,
      [this, id, op, done_at, status, trace,
       cb = std::move(on_retrieved)]() mutable {
        --ring_occupancy_;
        ++endpoint_->completed_;
        ready_.push_back(SimResponse{id, op, done_at, status, nullptr,
                                     std::move(cb), trace});
      });
  return true;
}

size_t SimQatInstance::poll(size_t max) {
  size_t got = 0;
  while (!ready_.empty() && got < max) {
    SimResponse resp = std::move(ready_.front());
    ready_.pop_front();
    --inflight_total_;
    if (CostModel::is_asym(resp.op)) --inflight_asym_;
    ++got;
    if (resp.trace.sampled) {
      resp.trace.stamp_at(obs::Stage::kPollDrain, endpoint_->sim_->now());
      obs::record_pipeline(
          resp.trace, resp.request_id,
          static_cast<int>(
              qat::op_class_of(endpoint_->costs_->qat_kind(resp.op))),
          /*sim=*/true);
    }
    if (resp.on_retrieved_status)
      resp.on_retrieved_status(resp.status);
    else if (resp.on_retrieved)
      resp.on_retrieved();
  }
  return got;
}

SimTime SimQatInstance::next_ready_time() const {
  return ready_.empty() ? 0 : ready_.front().ready_at;
}

size_t SimQatInstance::ready_count(SimTime now) const {
  size_t n = 0;
  for (const auto& r : ready_)
    if (r.ready_at <= now) ++n;
  return n;
}

SimTime SimQatEndpoint::dispatch(SimTime service, SimTime* start_out) {
  auto it = std::min_element(engine_free_.begin(), engine_free_.end());
  const SimTime start = std::max(sim_->now(), *it);
  *it = start + service;
  if (start_out) *start_out = start;
  return *it;
}

}  // namespace qtls::sim
