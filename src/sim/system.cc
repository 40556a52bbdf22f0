#include "sim/system.h"

#include <cassert>

#include "common/rng.h"

namespace qtls::sim {

const char* config_name(Config c) {
  switch (c) {
    case Config::kSW: return "SW";
    case Config::kQatS: return "QAT+S";
    case Config::kQatA: return "QAT+A";
    case Config::kQatAH: return "QAT+AH";
    case Config::kQtls: return "QTLS";
  }
  return "?";
}

ConfigKnobs resolve_config(const RunParams& p) {
  ConfigKnobs k;
  switch (p.config) {
    case Config::kSW:
      k.offload = false;
      break;
    case Config::kQatS:
      k.offload = true;
      k.async = false;
      k.poll = PollMode::kBusy;
      break;
    case Config::kQatA:
      k.offload = true;
      k.async = true;
      k.poll = PollMode::kTimer;
      k.notify = NotifyMode::kFd;
      break;
    case Config::kQatAH:
      k.offload = true;
      k.async = true;
      k.poll = PollMode::kHeuristic;
      k.notify = NotifyMode::kFd;
      break;
    case Config::kQtls:
      k.offload = true;
      k.async = true;
      k.poll = PollMode::kHeuristic;
      k.notify = NotifyMode::kKernelBypass;
      break;
  }
  if (p.poll_override.has_value() && k.offload && k.async)
    k.poll = *p.poll_override;
  if (p.notify_override.has_value() && k.offload && k.async)
    k.notify = *p.notify_override;
  return k;
}

namespace {

struct Flight {
  SimTime pre_cpu = 0;
  std::vector<SOp> ops;
  SimTime post_cpu = 0;
  bool rtt_after = false;
};

SOp ecdh_op(qtls::CurveId curve) {
  switch (curve) {
    case qtls::CurveId::kP256: return SOp::kEcdhP256;
    case qtls::CurveId::kP384: return SOp::kEcdhP384;
    case qtls::CurveId::kB283:
    case qtls::CurveId::kK283: return SOp::kEcdhB283;
    case qtls::CurveId::kB409:
    case qtls::CurveId::kK409: return SOp::kEcdhB409;
  }
  return SOp::kEcdhP256;
}

SOp ecdsa_op(qtls::CurveId curve) {
  // ECDSA stays on the prime curves (DESIGN.md §6): P-384 when the ECDHE
  // group is P-384, else the Montgomery-friendly P-256 path.
  return curve == qtls::CurveId::kP384 ? SOp::kEcdsaP384 : SOp::kEcdsaP256;
}

std::vector<Flight> make_handshake(const RunParams& p, bool resumed) {
  const CostModel& c = p.costs;
  const tls::CipherSuiteInfo& info = tls::cipher_suite_info(p.suite);
  std::vector<Flight> flights;

  if (info.tls13) {
    // CH(+share) -> [EC keygen, EC derive, RSA sign] + key schedule; then
    // the client Finished flight. One fewer round trip than TLS 1.2.
    Flight f1;
    f1.pre_cpu = c.hs_accept_cpu;
    f1.ops = {ecdh_op(p.curve), ecdh_op(p.curve), SOp::kRsaPriv};
    f1.post_cpu = c.hs_flight_cpu + c.tls13_kdf_cpu;
    f1.rtt_after = true;
    Flight f2;
    f2.pre_cpu = c.tls13_client_fin_cpu;
    f2.post_cpu = 10 * kUs;
    flights = {f1, f2};
    return flights;
  }

  if (resumed) {
    // Abbreviated handshake: PRF only (§5.3) — key expansion + server
    // Finished, then the client Finished verification.
    Flight f1;
    f1.pre_cpu = c.hs_accept_cpu;
    f1.ops = {SOp::kPrf, SOp::kPrf};
    f1.post_cpu = c.hs_flight_cpu;
    f1.rtt_after = true;
    Flight f2;
    f2.pre_cpu = 15 * kUs;
    f2.ops = {SOp::kPrf};
    f2.post_cpu = 10 * kUs;
    flights = {f1, f2};
    return flights;
  }

  Flight f1;
  f1.pre_cpu = c.hs_accept_cpu;
  Flight f2;
  f2.pre_cpu = c.hs_finish_pre_cpu;
  f2.post_cpu = c.hs_finish_post_cpu;
  switch (info.kx) {
    case tls::KeyExchange::kRsa:
      // Server flight is certificate only; all crypto happens on the
      // client's combined CKE/CCS/Finished flight.
      f2.ops = {SOp::kRsaPriv, SOp::kPrf, SOp::kPrf, SOp::kPrf, SOp::kPrf};
      break;
    case tls::KeyExchange::kEcdheRsa:
      f1.ops = {ecdh_op(p.curve), SOp::kRsaPriv};
      f2.ops = {ecdh_op(p.curve), SOp::kPrf, SOp::kPrf, SOp::kPrf, SOp::kPrf};
      break;
    case tls::KeyExchange::kEcdheEcdsa:
      f1.ops = {ecdh_op(p.curve), ecdsa_op(p.curve)};
      f2.ops = {ecdh_op(p.curve), SOp::kPrf, SOp::kPrf, SOp::kPrf, SOp::kPrf};
      break;
  }
  f1.post_cpu = c.hs_flight_cpu;
  f1.rtt_after = true;
  flights = {f1, f2};
  return flights;
}

class SimSystem {
 public:
  explicit SimSystem(const RunParams& p)
      : p_(p),
        knobs_(resolve_config(p)),
        rng_(p.seed),
        device_(&sim_, &p_.costs, p.endpoints, p.engines_per_endpoint),
        nic_(&sim_) {
    // Timer polling thread pinned to the worker's core taxes every cycle
    // the worker spends (§5.6): tick cost per interval.
    double tax = 1.0;
    if (knobs_.offload && knobs_.async && knobs_.poll == PollMode::kTimer) {
      const double share = static_cast<double>(p_.costs.timer_tick_cpu) /
                           static_cast<double>(p_.timer_interval);
      tax = 1.0 / (1.0 - std::min(0.8, share));
    }
    workers_.resize(static_cast<size_t>(p.workers));
    for (auto& w : workers_) {
      w.cpu = std::make_unique<SimResource>(&sim_);
      w.instance = device_.allocate_instance(p.ring_capacity);
      w.tax = tax;
    }
  }

  RunResult run() {
    const SimTime end = p_.warmup + p_.duration;
    // Stagger client starts over the first 10 ms.
    for (int cl = 0; cl < p_.clients; ++cl) {
      const SimTime at = rng_.uniform(10 * kMs);
      sim_.schedule_at(at, [this, cl] { start_client(cl); });
    }
    if (knobs_.offload && knobs_.async && knobs_.poll == PollMode::kTimer) {
      for (size_t w = 0; w < workers_.size(); ++w) schedule_tick(static_cast<int>(w));
    }
    sim_.run_until(end);

    RunResult out = result_;
    const double secs = static_cast<double>(p_.duration) / kSec;
    out.cps = static_cast<double>(out.handshakes) / secs;
    out.requests_per_sec = static_cast<double>(requests_) / secs;
    out.throughput_gbps =
        static_cast<double>(payload_bytes_) * 8.0 / (secs * 1e9);
    out.bytes_copied_per_byte =
        out.bytes_sent != 0 ? static_cast<double>(out.bytes_copied) /
                                  static_cast<double>(out.bytes_sent)
                            : 0.0;
    double util_sum = 0;
    for (auto& w : workers_)
      util_sum += std::min(1.0, static_cast<double>(w.cpu->total_busy()) /
                                    static_cast<double>(end));
    out.cpu_utilization = util_sum / static_cast<double>(workers_.size());
    return out;
  }

 private:
  struct WorkerState {
    std::unique_ptr<SimResource> cpu;
    SimQatInstance* instance = nullptr;
    size_t active = 0;
    double tax = 1.0;
    bool poll_scheduled = false;
  };

  struct Conn {
    int worker = 0;
    int client = 0;
    SimTime born = 0;
    std::vector<Flight> flights;
    size_t flight = 0;
    size_t op = 0;
    bool resumed = false;
    // transfer state
    std::vector<size_t> records;
    size_t record = 0;
    SimTime request_start = 0;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  bool in_window() const { return sim_.now() >= p_.warmup; }

  // Network delays carry +/-20% jitter: identical deterministic service
  // times otherwise lock the closed-loop clients into convoys that alias
  // with the measurement window.
  SimTime jittered_rtt() {
    return static_cast<SimTime>(static_cast<double>(p_.costs.rtt) *
                                (0.8 + 0.4 * rng_.uniform01()));
  }

  void wexec(int w, SimTime cost, std::function<void()> fn) {
    WorkerState& ws = workers_[static_cast<size_t>(w)];
    ws.cpu->exec(static_cast<SimTime>(static_cast<double>(cost) * ws.tax),
                 std::move(fn));
  }

  // ------------------------------------------------------------ clients --
  void start_client(int client_id) {
    if (p_.transfer_mode) {
      start_connection(client_id, /*first=*/true);
    } else {
      start_connection(client_id, /*first=*/!client_has_session_[static_cast<size_t>(client_id) % client_has_session_.size()]);
    }
  }

  void start_connection(int client_id, bool first) {
    auto conn = std::make_shared<Conn>();
    conn->client = client_id;
    conn->worker = next_worker_++ % p_.workers;
    conn->born = sim_.now();
    const bool can_resume = !first && !p_.transfer_mode;
    conn->resumed =
        can_resume && rng_.uniform01() >= p_.full_handshake_ratio;
    conn->flights = make_handshake(p_, conn->resumed);
    ++workers_[static_cast<size_t>(conn->worker)].active;
    // TCP connect: the ClientHello reaches the worker one RTT after the
    // client initiates.
    sim_.schedule_after(jittered_rtt(), [this, conn] { begin_flight(conn); });
  }

  // --------------------------------------------------------- handshakes --
  void begin_flight(ConnPtr conn) {
    const Flight& f = conn->flights[conn->flight];
    conn->op = 0;
    wexec(conn->worker, f.pre_cpu, [this, conn] { run_ops(conn); });
  }

  void run_ops(ConnPtr conn) {
    const Flight& f = conn->flights[conn->flight];
    if (conn->op >= f.ops.size()) {
      wexec(conn->worker, f.post_cpu, [this, conn] { finish_flight(conn); });
      return;
    }
    const SOp op = f.ops[conn->op];
    ++conn->op;
    run_one_op(conn, op, [this, conn] { run_ops(conn); });
  }

  void finish_flight(ConnPtr conn) {
    const bool more = conn->flight + 1 < conn->flights.size();
    const bool rtt_after = conn->flights[conn->flight].rtt_after;
    if (more) {
      ++conn->flight;
      if (rtt_after) {
        sim_.schedule_after(jittered_rtt(),
                            [this, conn] { begin_flight(conn); });
      } else {
        begin_flight(conn);
      }
      return;
    }
    handshake_complete(conn);
  }

  void handshake_complete(ConnPtr conn) {
    if (in_window()) {
      ++result_.handshakes;
      if (conn->resumed) ++result_.abbreviated;
    }
    client_has_session_[static_cast<size_t>(conn->client) %
                        client_has_session_.size()] = true;

    if (p_.transfer_mode) {
      // Persistent connection: request loop (connection stays alive).
      start_request(conn);
      return;
    }
    if (p_.include_request) {
      conn->records = {100};  // the <100-byte page of §5.5
      conn->record = 0;
      conn->request_start = conn->born;  // latency covers the whole exchange
      sim_.schedule_after(p_.costs.rtt / 2,
                          [this, conn] { process_request(conn); });
      return;
    }
    complete_connection(conn);
  }

  void complete_connection(ConnPtr conn) {
    if (in_window()) {
      const SimTime latency = sim_.now() + p_.costs.rtt / 2 - conn->born;
      result_.latency.record(latency);
    }
    --workers_[static_cast<size_t>(conn->worker)].active;
    heuristic_check(conn->worker);
    const int client = conn->client;
    // s_time closed loop: the client reconnects immediately (the next SYN
    // fires as soon as the close completes).
    sim_.schedule_after(1 * kUs + rng_.uniform(20 * kUs),
                        [this, client] { start_connection(client, false); });
  }

  // ------------------------------------------------------------ requests --
  void start_request(ConnPtr conn) {
    // Client sends a GET; it reaches the worker after rtt/2. Between
    // requests the connection is idle (keepalive) for TC_active purposes.
    --workers_[static_cast<size_t>(conn->worker)].active;
    heuristic_check(conn->worker);
    conn->request_start = sim_.now();
    sim_.schedule_after(p_.costs.rtt / 2, [this, conn] {
      ++workers_[static_cast<size_t>(conn->worker)].active;
      // Build the record plan: full 16 KB fragments + remainder.
      conn->records.clear();
      size_t left = p_.file_bytes;
      while (left > 0) {
        const size_t take = std::min<size_t>(left, 16 * 1024);
        conn->records.push_back(take);
        left -= take;
      }
      conn->record = 0;
      process_request(conn);
    });
  }

  void process_request(ConnPtr conn) {
    wexec(conn->worker, p_.costs.http_request_cpu,
          [this, conn] { next_record(conn); });
  }

  void next_record(ConnPtr conn) {
    if (conn->record >= conn->records.size()) {
      // All records queued on the NIC; the client sees the response rtt/2
      // after the last byte leaves.
      const SimTime tx_done = nic_.busy_until();
      const SimTime done_at = std::max(sim_.now(), tx_done) + p_.costs.rtt / 2;
      sim_.schedule_at(done_at, [this, conn] { finish_request(conn); });
      return;
    }
    const size_t bytes = conn->records[conn->record];
    ++conn->record;
    // Only the QTLS framework runs the iovec-chain batch plane (DESIGN.md
    // §11); the OpenSSL-based baselines keep the stock coalescing BIO path.
    const bool batch_plane = p_.config == Config::kQtls;
    // Records after a request's first ride the batched seal submission:
    // they pay the per-item marshalling cost instead of a full
    // submit/notify/resume round trip.
    const bool batch_rider = batch_plane && conn->record > 1;
    const double scale = static_cast<double>(bytes) / (16.0 * 1024.0);
    // TX copy passes: the coalescing BIO path stages each payload byte three
    // times (entry staging, sealed-record append, coalesce); the iovec-chain
    // plane only pays the entry staging copy.
    const int copy_passes = batch_plane ? 1 : 3;
    if (in_window()) {
      result_.bytes_copied += static_cast<uint64_t>(bytes) *
                              static_cast<uint64_t>(copy_passes);
      result_.bytes_sent += bytes;
    }
    // Copy passes, then record protection (one chained-cipher op per
    // record, §5.4), then the kernel send path, then NIC occupancy.
    auto after_cipher = [this, conn, bytes, scale] {
      const SimTime tcp =
          static_cast<SimTime>(static_cast<double>(p_.costs.tcp_per_16k_cpu) * scale);
      wexec(conn->worker, tcp, [this, conn, bytes] {
        const double bits = static_cast<double>(bytes) * 8.0;
        nic_.occupy(static_cast<SimTime>(bits / p_.costs.nic_gbps));
        payload_inflight_ += bytes;
        next_record(conn);
      });
    };
    const SimTime copy_cpu = static_cast<SimTime>(
        static_cast<double>(p_.costs.copy_per_16k_cpu) * scale *
        static_cast<double>(copy_passes));
    wexec(conn->worker, copy_cpu,
          [this, conn, scale, batch_rider,
           after_cipher = std::move(after_cipher)]() mutable {
            run_scaled_cipher(conn, scale, std::move(after_cipher),
                              batch_rider);
          });
  }

  void finish_request(ConnPtr conn) {
    if (in_window()) {
      ++requests_;
      size_t bytes = 0;
      for (size_t b : conn->records) bytes += b;
      payload_bytes_ += bytes;
      result_.latency.record(sim_.now() - conn->request_start);
    }
    if (p_.transfer_mode) {
      start_request(conn);  // ab keeps hammering
    } else {
      complete_connection(conn);
    }
  }

  // ------------------------------------------------------------- crypto --
  void run_one_op(ConnPtr conn, SOp op, std::function<void()> done) {
    const CostModel& c = p_.costs;
    // HKDF-class work never offloads; in this model TLS 1.3 KDF work is a
    // CPU lump in the flight costs, so ops here are always offloadable
    // kinds when offload is on.
    if (!knobs_.offload) {
      wexec(conn->worker, c.sw_cost(op), std::move(done));
      return;
    }
    if (!knobs_.async) {
      run_sync_op(conn, op, std::move(done));
      return;
    }
    run_async_op(conn, op, std::move(done));
  }

  void run_scaled_cipher(ConnPtr conn, double scale,
                         std::function<void()> done,
                         bool batch_rider = false) {
    const CostModel& c = p_.costs;
    if (!knobs_.offload) {
      wexec(conn->worker,
            static_cast<SimTime>(static_cast<double>(c.sw_cipher_16k) * scale),
            std::move(done));
      return;
    }
    // Offloaded cipher: service time scales with the record size.
    if (!knobs_.async) {
      run_sync_op(conn, SOp::kCipher16k, std::move(done), scale);
    } else {
      run_async_op(conn, SOp::kCipher16k, std::move(done), scale,
                   batch_rider);
    }
  }

  void run_sync_op(ConnPtr conn, SOp op, std::function<void()> done,
                   double scale = 1.0) {
    const CostModel& c = p_.costs;
    const int w = conn->worker;
    wexec(w, c.submit_cpu, [this, conn, op, scale, w, done = std::move(done)] {
      SimQatInstance* inst = workers_[static_cast<size_t>(w)].instance;
      const SimTime done_at = inst->submit_blocking(
          op, static_cast<SimTime>(
                  static_cast<double>(p_.costs.qat_service(op)) * scale));
      if (done_at == 0) {
        // Ring full: blocked retry after a short beat.
        if (in_window()) ++result_.submit_retries;
        sim_.schedule_after(5 * kUs, [this, conn, op, scale, done] {
          run_sync_op(conn, op, done, scale);
        });
        return;
      }
      const SimTime wait =
          done_at - sim_.now() +
          (p_.sync_busy_poll ? p_.costs.busy_poll_overhead
                             : p_.costs.sync_block_overhead);
      // Straight offload: the worker core is occupied for the entire wait
      // (Figure 3's blocking).
      wexec(w, wait, done);
    });
  }

  void run_async_op(ConnPtr conn, SOp op, std::function<void()> done,
                    double scale = 1.0, bool batch_rider = false) {
    const CostModel& c = p_.costs;
    const int w = conn->worker;
    auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
    // A batch rider shares its batch leader's ring write and completion
    // round trip; both ends cost only the per-item marshalling.
    const SimTime submit_cost = batch_rider ? c.batch_item_cpu : c.submit_cpu;
    wexec(w, submit_cost,
          [this, conn, op, scale, w, batch_rider, shared_done] {
      SimQatInstance* inst = workers_[static_cast<size_t>(w)].instance;
      const SimTime notify_cpu = knobs_.notify == NotifyMode::kFd
                                     ? p_.costs.notify_fd_cpu
                                     : p_.costs.notify_kb_cpu;
      const SimTime completion_cpu =
          batch_rider ? p_.costs.batch_item_cpu
                      : notify_cpu + p_.costs.resume_cpu;
      const bool ok = inst->submit(
          op,
          static_cast<SimTime>(static_cast<double>(p_.costs.qat_service(op)) *
                               scale),
          [this, w, completion_cpu, shared_done] {
            // Response retrieved by a poll: async event notification +
            // post-processing resume on the worker core (§3.4, §3.1).
            wexec(w, completion_cpu,
                  [this, w, shared_done] {
                    (*shared_done)();
                    heuristic_check(w);
                  });
          });
      if (!ok) {
        if (in_window()) ++result_.submit_retries;
        sim_.schedule_after(
            5 * kUs, [this, conn, op, scale, batch_rider, shared_done] {
              run_async_op_retry(conn, op, scale, batch_rider, shared_done);
            });
        return;
      }
      heuristic_check(w);
    });
  }

  void run_async_op_retry(ConnPtr conn, SOp op, double scale,
                          bool batch_rider,
                          std::shared_ptr<std::function<void()>> shared_done) {
    run_async_op(
        conn, op, [shared_done] { (*shared_done)(); }, scale, batch_rider);
  }

  // -------------------------------------------------------------- polling --
  void heuristic_check(int w) {
    if (!(knobs_.offload && knobs_.async &&
          knobs_.poll == PollMode::kHeuristic))
      return;
    WorkerState& ws = workers_[static_cast<size_t>(w)];
    if (ws.poll_scheduled) return;
    SimQatInstance* inst = ws.instance;
    const size_t total = inst->inflight_total();
    if (total == 0) return;
    const size_t threshold = inst->inflight_asym() > 0
                                 ? p_.heuristic.asym_threshold
                                 : p_.heuristic.sym_threshold;
    const bool efficiency = total >= threshold;
    const bool timeliness = ws.active > 0 && total >= ws.active;
    // §3.4: while requests are in flight the main event loop keeps
    // executing instead of sleep-waiting — an otherwise-idle worker polls.
    const bool idle_loop =
        !efficiency && !timeliness && ws.cpu->idle_at(sim_.now());
    if (!efficiency && !timeliness && !idle_loop) return;
    if (in_window()) {
      if (efficiency) ++result_.efficiency_triggers;
      else if (timeliness) ++result_.timeliness_triggers;
    }
    ws.poll_scheduled = true;
    const size_t est = inst->ready_count(sim_.now());
    const SimTime cost =
        p_.costs.poll_cpu +
        static_cast<SimTime>(est) * p_.costs.poll_per_response_cpu;
    wexec(w, cost, [this, w] {
      WorkerState& state = workers_[static_cast<size_t>(w)];
      state.poll_scheduled = false;
      if (in_window()) ++result_.heuristic_polls;
      const size_t got = state.instance->poll();
      if (got == 0 && state.instance->inflight_total() > 0) {
        // Nothing ready yet but the constraint persists (all active
        // connections blocked): the loop keeps polling (§3.4).
        state.poll_scheduled = true;
        sim_.schedule_after(3 * kUs, [this, w] {
          workers_[static_cast<size_t>(w)].poll_scheduled = false;
          heuristic_check(w);
        });
      }
    });
  }

  void schedule_tick(int w) {
    sim_.schedule_after(p_.timer_interval, [this, w] {
      workers_[static_cast<size_t>(w)].instance->poll();
      schedule_tick(w);
    });
  }

  // ---------------------------------------------------------------- data --
  RunParams p_;
  ConfigKnobs knobs_;
  Simulator sim_;
  Rng rng_;
  SimQatDevice device_;
  SimResource nic_;
  std::vector<WorkerState> workers_;
  std::vector<bool> client_has_session_ = std::vector<bool>(65536, false);
  int next_worker_ = 0;

  RunResult result_;
  uint64_t requests_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t payload_inflight_ = 0;
};

}  // namespace

RunResult run_simulation(const RunParams& params) {
  SimSystem system(params);
  return system.run();
}

}  // namespace qtls::sim
