// Request/response types of the QAT device model — the moral equivalent of
// the QAT userspace driver's cpaCySym*/cpaCyRsa* surface, reduced to what
// the TLS offload path needs:
//   * non-blocking submit onto a bounded request ring (can fail: ring full),
//   * parallel service across computation engines,
//   * responses retrieved by polling, delivered through a per-request
//     callback (the QAT Engine registers it; §3.2 of the paper).
#pragma once

#include <cstdint>
#include <functional>

#include "obs/trace.h"

namespace qtls::qat {

// The three inflight classes the heuristic polling scheme counts
// independently (paper §4.3: R_asym, R_cipher, R_prf).
enum class OpClass : uint8_t { kAsym = 0, kCipher = 1, kPrf = 2 };
constexpr int kNumOpClasses = 3;

inline const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kAsym: return "asym";
    case OpClass::kCipher: return "cipher";
    case OpClass::kPrf: return "prf";
  }
  return "?";
}

// Finer-grained op kinds, used for accounting and the service-time model.
enum class OpKind : uint8_t {
  kRsa2048Priv,
  kRsa2048Pub,
  kEcP256,      // one scalar multiplication
  kEcP384,
  kEcBinary283,
  kEcBinary409,
  kPrfTls12,
  kHkdf,        // not offloadable via QAT Engine (paper §5.2), here for model
  kCipher16k,   // chained cipher on up to a 16 KB record
};

constexpr int kNumOpKinds = 9;

inline OpClass op_class_of(OpKind kind) {
  switch (kind) {
    case OpKind::kRsa2048Priv:
    case OpKind::kRsa2048Pub:
    case OpKind::kEcP256:
    case OpKind::kEcP384:
    case OpKind::kEcBinary283:
    case OpKind::kEcBinary409:
      return OpClass::kAsym;
    case OpKind::kPrfTls12:
    case OpKind::kHkdf:
      return OpClass::kPrf;
    case OpKind::kCipher16k:
      return OpClass::kCipher;
  }
  return OpClass::kPrf;
}

// Completion status of one request — the model's reduction of the driver's
// CpaStatus. kSuccess/kComputeError describe the computation itself;
// kDeviceError/kDeviceReset are device-level failures (the computation never
// ran) and are the retry/fallback triggers for the engine layer.
enum class CryptoStatus : uint8_t {
  kSuccess = 0,
  kComputeError,  // compute() returned false: deterministic input failure
  kDeviceError,   // CPA_STATUS_FAIL-style firmware error (transient)
  kDeviceReset,   // failed because the device reset with the op in flight
};

inline const char* crypto_status_name(CryptoStatus s) {
  switch (s) {
    case CryptoStatus::kSuccess: return "success";
    case CryptoStatus::kComputeError: return "compute_error";
    case CryptoStatus::kDeviceError: return "device_error";
    case CryptoStatus::kDeviceReset: return "device_reset";
  }
  return "?";
}

// True for statuses the engine may retry or degrade to software for —
// the computation itself never ran.
inline bool is_device_failure(CryptoStatus s) {
  return s == CryptoStatus::kDeviceError || s == CryptoStatus::kDeviceReset;
}

struct CryptoResponse {
  uint64_t request_id = 0;
  OpKind kind = OpKind::kPrfTls12;
  CryptoStatus status = CryptoStatus::kComputeError;
  void* user_tag = nullptr;
  // Lifecycle stamps copied from the request at service time (sampled
  // requests only; obs/trace.h).
  obs::TraceStamps trace;
};

using ResponseCallback = std::function<void(const CryptoResponse&)>;

struct CryptoRequest {
  uint64_t request_id = 0;
  OpKind kind = OpKind::kPrfTls12;
  // The actual computation, executed on an engine thread in the real-time
  // backend. Must be self-contained (owns its inputs, writes its outputs to
  // caller-owned storage that outlives the request).
  std::function<bool()> compute;
  // Invoked from poll() on the polling thread, never from engine threads —
  // matching the QAT driver contract that callbacks run in the polling
  // context.
  ResponseCallback on_response;
  void* user_tag = nullptr;
  // Lifecycle stamps (obs/trace.h): the submitter calls obs::trace_begin()
  // to make the sampling decision; the device stamps ring-enqueue through
  // poll-drain as the request moves.
  obs::TraceStamps trace;
};

}  // namespace qtls::qat
