// Traced-run instrumentation, all from outside the program: a span per
// Worker::run_once pass and a CryptoProvider decorator that records a span
// per provider call. The decorator sits between TlsContext and
// QatEngineProvider and forwards every virtual, the batched seals included,
// so the engine sees exactly the calls it sees untraced.
//
// Everything here runs on the worker thread (fibers included), so the log
// needs no locking; the main thread reads it only after that thread joins.
#pragma once

#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "engine/provider.h"
#include "procfs.h"

namespace qbench {

enum class Op : uint8_t {
  kRsaSign,
  kRsaDecrypt,
  kEcdheKeygen,
  kEcdheDerive,
  kEcdsaSign,
  kPrfTls12,
  kCipherSeal,
  kCipherOpen,
  kAeadSeal,
  kAeadOpen,
  kCipherSealBatch,
  kAeadSealBatch,
};

inline const char* op_name(Op op) {
  static const char* const kNames[] = {
      "rsa_sign",    "rsa_decrypt", "ecdhe_keygen",      "ecdhe_derive",
      "ecdsa_sign",  "prf_tls12",   "cipher_seal",       "cipher_open",
      "aead_seal",   "aead_open",   "cipher_seal_batch", "aead_seal_batch"};
  return kNames[static_cast<int>(op)];
}

struct PassSpan {
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t events = 0;
};

struct CallSpan {
  uint64_t pass = 0;  // the run_once pass the call started in
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t records = 0;  // jobs in a seal batch, else 1
  Op op = Op::kRsaSign;
};

struct SpanLog {
  // Passes are counted and timed only between the two window marks; only
  // those that started a provider call keep a span (spin passes number in
  // the millions, and a pass without calls has no children to subtract).
  static constexpr size_t kMaxSpans = 1 << 20;

  bool recording = false;
  uint64_t pass_id = 0;
  uint32_t calls_this_pass = 0;
  uint64_t passes_counted = 0;
  uint64_t empty_passes = 0;  // dispatched no epoll event
  uint64_t pass_ns_total = 0;
  // Worker::bytes_per_conn(), sampled after passes that dispatched events
  // while connections were alive.
  uint64_t conn_bytes_sum = 0;
  uint64_t conn_bytes_samples = 0;
  uint64_t dropped_spans = 0;
  qtls::LatencyHistogram pass_time;
  std::vector<PassSpan> passes;
  std::vector<CallSpan> calls;

  void begin_pass() {
    ++pass_id;
    calls_this_pass = 0;
  }
  void end_pass(uint64_t start_ns, uint64_t end_ns, int events) {
    if (!recording) return;
    ++passes_counted;
    if (events == 0) ++empty_passes;
    pass_ns_total += end_ns - start_ns;
    pass_time.record(end_ns - start_ns);
    if (calls_this_pass == 0) return;
    if (passes.size() >= kMaxSpans) {
      ++dropped_spans;
      return;
    }
    passes.push_back(
        {pass_id, start_ns, end_ns, static_cast<uint32_t>(events)});
  }
  void add_call(const CallSpan& span) {
    if (calls.size() >= kMaxSpans) {
      ++dropped_spans;
      return;
    }
    calls.push_back(span);
  }
};

class TracingProvider final : public qtls::engine::CryptoProvider {
 public:
  TracingProvider(qtls::engine::CryptoProvider* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  const char* name() const override { return inner_->name(); }

  qtls::Result<qtls::Bytes> rsa_sign(const qtls::RsaPrivateKey& key,
                                     qtls::BytesView digest) override {
    return timed(Op::kRsaSign, 1, [&] { return inner_->rsa_sign(key, digest); });
  }
  qtls::Result<qtls::Bytes> rsa_decrypt(const qtls::RsaPrivateKey& key,
                                        qtls::BytesView ciphertext) override {
    return timed(Op::kRsaDecrypt, 1,
                 [&] { return inner_->rsa_decrypt(key, ciphertext); });
  }
  qtls::Result<qtls::engine::KeyShare> ecdhe_keygen(
      qtls::CurveId curve) override {
    return timed(Op::kEcdheKeygen, 1,
                 [&] { return inner_->ecdhe_keygen(curve); });
  }
  qtls::Result<qtls::Bytes> ecdhe_derive(const qtls::engine::KeyShare& mine,
                                         qtls::BytesView peer_point) override {
    return timed(Op::kEcdheDerive, 1,
                 [&] { return inner_->ecdhe_derive(mine, peer_point); });
  }
  qtls::Result<qtls::Bytes> ecdsa_sign(qtls::CurveId curve,
                                       const qtls::Bignum& priv,
                                       qtls::BytesView digest) override {
    return timed(Op::kEcdsaSign, 1,
                 [&] { return inner_->ecdsa_sign(curve, priv, digest); });
  }
  qtls::Result<qtls::Bytes> prf_tls12(qtls::HashAlg alg,
                                      qtls::BytesView secret,
                                      const std::string& label,
                                      qtls::BytesView seed,
                                      size_t out_len) override {
    return timed(Op::kPrfTls12, 1, [&] {
      return inner_->prf_tls12(alg, secret, label, seed, out_len);
    });
  }
  qtls::Result<qtls::Bytes> cipher_seal(const qtls::CbcHmacKeys& keys,
                                        uint64_t seq, qtls::BytesView header,
                                        qtls::BytesView iv,
                                        qtls::BytesView fragment) override {
    return timed(Op::kCipherSeal, 1, [&] {
      return inner_->cipher_seal(keys, seq, header, iv, fragment);
    });
  }
  qtls::Result<qtls::Bytes> cipher_open(const qtls::CbcHmacKeys& keys,
                                        uint64_t seq,
                                        qtls::BytesView header_without_len,
                                        qtls::BytesView iv,
                                        qtls::BytesView ciphertext) override {
    return timed(Op::kCipherOpen, 1, [&] {
      return inner_->cipher_open(keys, seq, header_without_len, iv,
                                 ciphertext);
    });
  }
  qtls::Result<qtls::Bytes> aead_seal(qtls::BytesView key,
                                      qtls::BytesView nonce,
                                      qtls::BytesView aad,
                                      qtls::BytesView plaintext) override {
    return timed(Op::kAeadSeal, 1, [&] {
      return inner_->aead_seal(key, nonce, aad, plaintext);
    });
  }
  qtls::Result<qtls::Bytes> aead_open(qtls::BytesView key,
                                      qtls::BytesView nonce,
                                      qtls::BytesView aad,
                                      qtls::BytesView ciphertext) override {
    return timed(Op::kAeadOpen, 1, [&] {
      return inner_->aead_open(key, nonce, aad, ciphertext);
    });
  }
  qtls::Status cipher_seal_batch(
      const qtls::CbcHmacKeys& keys,
      std::span<qtls::engine::CipherSealJob> jobs) override {
    return timed(Op::kCipherSealBatch, static_cast<uint32_t>(jobs.size()),
                 [&] { return inner_->cipher_seal_batch(keys, jobs); });
  }
  qtls::Status aead_seal_batch(
      qtls::BytesView key,
      std::span<qtls::engine::AeadSealJob> jobs) override {
    return timed(Op::kAeadSealBatch, static_cast<uint32_t>(jobs.size()),
                 [&] { return inner_->aead_seal_batch(key, jobs); });
  }

 private:
  // The span runs call -> return, so an offloaded op's span includes the
  // fiber park; its parent is the pass that was running when it started.
  template <typename F>
  std::invoke_result_t<F&> timed(Op op, uint32_t records, F&& call) {
    if (!log_->recording) return call();
    const uint64_t pass = log_->pass_id;
    ++log_->calls_this_pass;
    const uint64_t start = now_ns();
    auto result = call();
    log_->add_call({pass, start, now_ns(), records, op});
    return result;
  }

  qtls::engine::CryptoProvider* inner_;
  SpanLog* log_;
};

}  // namespace qbench
