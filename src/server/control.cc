#include "server/control.h"

#include <csignal>

#include <chrono>
#include <sstream>

#include "common/log.h"
#include "crypto/keystore.h"
#include "server/worker_pool.h"

namespace qtls::server {

namespace {

uint64_t steady_now_ms() {
  using namespace std::chrono;
  return static_cast<uint64_t>(
      duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
          .count());
}

// SIGHUP routing: one control plane per process (the last installer wins).
// The handler only flips an atomic flag — async-signal-safe by design.
std::atomic<ControlPlane*> g_sighup_target{nullptr};

void on_sighup(int) {
  if (ControlPlane* plane = g_sighup_target.load(std::memory_order_relaxed))
    plane->request_reload();
}

bool plane_shape_equal(const tls::SessionPlaneConfig& a,
                       const tls::SessionPlaneConfig& b) {
  return a.cache_shards == b.cache_shards &&
         a.cache_capacity == b.cache_capacity &&
         a.lifetime_ms == b.lifetime_ms &&
         a.ticket_rotate_interval_ms == b.ticket_rotate_interval_ms &&
         a.ticket_accept_epochs == b.ticket_accept_epochs;
}

}  // namespace

std::shared_ptr<const tls::ServerCredentials> resolve_keystore_credentials(
    const ConfBlock& root) {
  const ConfBlock* block = root.find_block("credentials");
  if (block == nullptr) return nullptr;
  auto out = std::make_shared<tls::ServerCredentials>();
  const int64_t bits = block->get_int("rsa", 2048);
  out->rsa_key = bits == 1024 ? &test_rsa1024() : &test_rsa2048();
  out->ecdsa_p256 = &test_ec_key_p256();
  out->ecdsa_p384 = &test_ec_key_p384();
  return out;
}

ControlPlane::ControlPlane() : ControlPlane(Options{}) {}

ControlPlane::ControlPlane(Options opts) : opts_(std::move(opts)) {
  if (!opts_.credentials_resolver)
    opts_.credentials_resolver = resolve_keystore_credentials;
}

ControlPlane::~ControlPlane() {
  stop_supervisor();
  ControlPlane* self = this;
  if (g_sighup_target.compare_exchange_strong(self, nullptr)) {
    // A late SIGHUP after teardown must not hit the default action
    // (terminate) just because the reload target went away.
    std::signal(SIGHUP, SIG_IGN);
  }
}

uint64_t ControlPlane::clock_ms() const {
  return opts_.clock ? opts_.clock() : steady_now_ms();
}

// ------------------------------------------------------------ hot reload ----

Status ControlPlane::publish(const std::string& conf_text) {
  auto fail = [this](Status st) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    QTLS_WARN << "reload rejected, old generation keeps serving: "
              << st.message();
    return st;
  };
  auto root = parse_conf(conf_text);
  if (!root.is_ok()) return fail(root.status());
  auto settings = parse_ssl_engine_settings(*root.value());
  if (!settings.is_ok()) return fail(settings.status());
  std::shared_ptr<const tls::ServerCredentials> creds =
      opts_.credentials_resolver(*root.value());

  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<RuntimeConfig>();
  next->settings = std::move(settings).take();
  next->credentials =
      creds ? creds : (current_ ? current_->credentials : nullptr);
  if (current_ != nullptr &&
      !plane_shape_equal(current_->settings.session, next->settings.session)) {
    // The resumption plane is PRESERVED across reloads: rebuilding the
    // ticket-key ring or cache would orphan every outstanding ticket and
    // session, cratering the hit rate the reload was never asked to touch.
    // Shape changes need a restart; say so instead of silently obeying.
    QTLS_WARN << "reload: session_cache{} shape change ignored — the "
                 "ticket-key ring and session cache are preserved across "
                 "reloads (restart to reshape the plane)";
    plane_changes_ignored_.fetch_add(1, std::memory_order_relaxed);
    next->settings.session = current_->settings.session;
  }
  next->generation = generation_.load(std::memory_order_relaxed) + 1;
  conf_text_ = conf_text;
  csettings_ = next->settings.control;
  current_ = next;
  generation_.store(next->generation, std::memory_order_release);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

Status ControlPlane::load(const std::string& conf_text) {
  return publish(conf_text);
}

Status ControlPlane::reload_now() {
  std::string text;
  {
    std::lock_guard<std::mutex> lock(mu_);
    text = conf_text_;
  }
  if (text.empty())
    return err(Code::kFailedPrecondition, "no configuration loaded");
  return publish(text);
}

void ControlPlane::request_reload() {
  reload_requested_.store(true, std::memory_order_release);
}

void ControlPlane::install_sighup() {
  g_sighup_target.store(this, std::memory_order_release);
  struct sigaction sa {};
  sa.sa_handler = on_sighup;
  sigemptyset(&sa.sa_mask);
  // Deliberately no SA_RESTART: the EINTR-hardened transports and event
  // loop absorb interrupted syscalls, and this keeps the reload signal from
  // being invisibly swallowed inside a long-blocking call.
  sa.sa_flags = 0;
  ::sigaction(SIGHUP, &sa, nullptr);
}

std::shared_ptr<const RuntimeConfig> ControlPlane::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

ControlSettings ControlPlane::control_settings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return csettings_;
}

// -------------------------------------------------------------- watchdog ----

void ControlPlane::attach(WorkerPool* pool) { pool_ = pool; }

void ControlPlane::start_supervisor() {
  if (supervisor_.joinable()) return;
  if (!control_settings().supervise) {
    QTLS_INFO << "control: supervisor disabled by conf (supervise off)";
    return;
  }
  stop_supervisor_.store(false, std::memory_order_release);
  supervisor_ = std::thread([this] { supervisor_main(); });
}

void ControlPlane::stop_supervisor() {
  stop_supervisor_.store(true, std::memory_order_release);
  if (supervisor_.joinable()) supervisor_.join();
}

void ControlPlane::supervisor_main() {
  uint64_t interval = control_settings().heartbeat_interval_ms;
  uint64_t next = clock_ms() + interval;
  while (!stop_supervisor_.load(std::memory_order_acquire)) {
    // Short sleep slices keep both stop_supervisor() and a pending SIGHUP
    // reload responsive regardless of the heartbeat window.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const bool reload_pending =
        reload_requested_.load(std::memory_order_acquire);
    const uint64_t now = clock_ms();
    if (!reload_pending && now < next) continue;
    (void)check_now(now);
    interval = control_settings().heartbeat_interval_ms;
    next = now + interval;
  }
}

void ControlPlane::recount_wedged_locked() {
  int wedged = 0;
  for (const Watch& w : watches_)
    if (w.wedged) ++wedged;
  wedged_now_.store(wedged, std::memory_order_release);
}

ControlPlane::SupervisionReport ControlPlane::check_now(uint64_t now_ms) {
  SupervisionReport rep;
  if (reload_requested_.exchange(false, std::memory_order_acq_rel))
    rep.reloaded = reload_now().is_ok();
  if (pool_ == nullptr) return rep;

  const std::vector<WorkerHeartbeatView> hbs = pool_->heartbeats();
  std::vector<int> to_recover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (watches_.size() != hbs.size()) watches_.assign(hbs.size(), Watch{});
    for (size_t i = 0; i < hbs.size(); ++i) {
      Watch& w = watches_[i];
      const WorkerHeartbeatView& hb = hbs[i];
      if (hb.recovering) {
        w = Watch{};
        continue;
      }
      if (hb.iterations != w.iterations) {
        // Fresh: the loop completed at least one pass since last window.
        w.iterations = hb.iterations;
        w.progress = hb.progress;
        w.missed = 0;
        w.wedged = false;
        ++rep.fresh;
        continue;
      }
      if (hb.progress != w.progress) {
        // Busy, not wedged: the current pass is long (a dispatch burst, a
        // huge batch) but handlers are still advancing the progress
        // counters. Hold — restarting a busy worker IS the false positive.
        w.progress = hb.progress;
        w.missed = 0;
        busy_holds_.fetch_add(1, std::memory_order_relaxed);
        ++rep.busy;
        continue;
      }
      // Frozen: no loop pass AND no handler progress this window.
      if (w.missed == 0) w.first_frozen_ms = now_ms;
      ++w.missed;
      if (w.missed >= csettings_.missed_windows && !w.wedged) {
        w.wedged = true;
        ++rep.wedged;
        wedge_events_.fetch_add(1, std::memory_order_relaxed);
        const uint64_t detect_ms =
            now_ms >= w.first_frozen_ms ? now_ms - w.first_frozen_ms : 0;
        last_time_to_detect_ms_.store(detect_ms, std::memory_order_relaxed);
        QTLS_WARN << "control: worker " << i << " wedged ("
                  << w.missed << " frozen windows, phase "
                  << static_cast<int>(hb.phase) << ")";
        if (opts_.auto_recover) to_recover.push_back(static_cast<int>(i));
      }
    }
    recount_wedged_locked();
  }
  const uint64_t abandoned_before =
      workers_abandoned_.load(std::memory_order_relaxed);
  for (int idx : to_recover)
    if (recover(idx)) ++rep.recovered;
  rep.abandoned = static_cast<int>(
      workers_abandoned_.load(std::memory_order_relaxed) - abandoned_before);
  rep.recovered -= rep.abandoned;
  return rep;
}

bool ControlPlane::recover(int worker_index) {
  if (pool_ == nullptr) return false;
  const uint64_t grace = control_settings().eject_grace_ms;
  const uint64_t t0 = steady_now_ms();
  const RecoverOutcome out = pool_->recover_worker(worker_index, grace);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<size_t>(worker_index) < watches_.size())
      watches_[static_cast<size_t>(worker_index)] = Watch{};
    recount_wedged_locked();
  }
  if (!out.restarted) return false;
  worker_restarts_.fetch_add(1, std::memory_order_relaxed);
  if (!out.joined) {
    workers_abandoned_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t recover_ms = steady_now_ms() - t0;
  last_time_to_recover_ms_.store(recover_ms, std::memory_order_relaxed);
  QTLS_WARN << "control: worker " << worker_index << " replaced ("
            << (out.joined ? "joined" : "abandoned to quarantine")
            << ", reaped " << out.reaped << " connections, "
            << recover_ms << " ms)";
  return true;
}

// -------------------------------------------------------- health surface ----

bool ControlPlane::ready() const {
  if (pool_ == nullptr) return false;
  if (wedged_now_.load(std::memory_order_acquire) != 0) return false;
  if (pool_->any_draining()) return false;
  if (pool_->fully_degraded()) return false;
  return true;
}

std::string ControlPlane::healthz_json(uint64_t now_ms,
                                       int* http_status) const {
  std::vector<WorkerHeartbeatView> hbs;
  if (pool_ != nullptr) hbs = pool_->heartbeats();
  std::ostringstream os;
  const bool ok = healthy();
  if (http_status != nullptr) *http_status = ok ? 200 : 503;
  os << "{\"status\":\"" << (ok ? "ok" : "wedged") << '"'
     << ",\"supervisor\":" << (supervisor_.joinable() ? "true" : "false")
     << ",\"generation\":" << generation() << ",\"workers\":[";
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < hbs.size(); ++i) {
    const WorkerHeartbeatView& hb = hbs[i];
    const uint64_t age =
        now_ms >= hb.stamp_ms ? now_ms - hb.stamp_ms : 0;
    os << (i ? "," : "") << "{\"iterations\":" << hb.iterations
       << ",\"progress\":" << hb.progress
       << ",\"phase\":" << static_cast<int>(hb.phase)
       << ",\"age_ms\":" << age << ",\"missed\":"
       << (i < watches_.size() ? watches_[i].missed : 0) << ",\"wedged\":"
       << ((i < watches_.size() && watches_[i].wedged) ? "true" : "false")
       << ",\"recovering\":" << (hb.recovering ? "true" : "false") << "}";
  }
  os << "]}";
  return os.str();
}

std::string ControlPlane::readyz_json(int* http_status) const {
  const bool attached = pool_ != nullptr;
  const bool draining = attached && pool_->any_draining();
  const bool degraded = attached && pool_->fully_degraded();
  const int wedged = wedged_now_.load(std::memory_order_acquire);
  const bool ok = attached && !draining && !degraded && wedged == 0;
  if (http_status != nullptr) *http_status = ok ? 200 : 503;
  std::ostringstream os;
  os << "{\"ready\":" << (ok ? "true" : "false")
     << ",\"accepting\":" << ((attached && !draining) ? "true" : "false")
     << ",\"draining\":" << (draining ? "true" : "false")
     << ",\"wedged\":" << wedged
     << ",\"degraded_to_software\":" << (degraded ? "true" : "false")
     << ",\"generation\":" << generation() << "}";
  return os.str();
}

ControlPlane::Stats ControlPlane::stats() const {
  Stats out;
  out.reloads = reloads_.load(std::memory_order_relaxed);
  out.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  out.plane_changes_ignored =
      plane_changes_ignored_.load(std::memory_order_relaxed);
  out.wedge_events = wedge_events_.load(std::memory_order_relaxed);
  out.busy_holds = busy_holds_.load(std::memory_order_relaxed);
  out.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  out.workers_abandoned = workers_abandoned_.load(std::memory_order_relaxed);
  out.last_time_to_detect_ms =
      last_time_to_detect_ms_.load(std::memory_order_relaxed);
  out.last_time_to_recover_ms =
      last_time_to_recover_ms_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace qtls::server
