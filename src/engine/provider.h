// Crypto provider interface — the seam where the paper swaps software
// crypto for QAT offload. The TLS library calls through this interface for
// every operation in Table 1 plus record protection; implementations:
//
//  * SoftwareProvider — the paper's SW baseline ("modern AES-NI
//    instructions" stands in for "runs on the CPU in this process").
//  * QatEngineProvider (engine/qat_engine.h) — offloads to the QAT device
//    model, in straight/blocking mode (QAT+S) or async mode (QAT+A/AH/QTLS).
//
// The interface is synchronous by contract: in async mode the QAT engine
// pauses the surrounding fiber (asyncx::pause_job) inside the call, exactly
// as OpenSSL's QAT Engine does, so the TLS code is identical either way.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"
#include "crypto/ec.h"
#include "crypto/ec2m.h"
#include "crypto/kdf.h"
#include "crypto/rsa.h"
#include "obs/metrics.h"

namespace qtls::engine {

using qtls::CurveId;

// An ephemeral ECDHE key share, curve-generic (prime or binary field).
struct KeyShare {
  CurveId curve = CurveId::kP256;
  Bytes priv;       // big-endian scalar
  Bytes pub_point;  // SEC1 uncompressed encoding
};

// One record of a batched seal (DESIGN.md §11). *out arrives empty and
// leaves holding the sealed record body, with no staging copy: the software
// provider encrypts straight into it, the QAT engine hands over the buffer
// the op sealed into.
//
// `owner`, when set, keeps the plaintext's memory alive and unchanged for as
// long as it is held: a provider may borrow the plaintext past the call (an
// op abandoned at its deadline may still be computed later). Without an
// owner such a provider copies the plaintext first.
//
// The constructors keep `{seq, header, iv, fragment, &out}` and
// `{nonce, aad, plaintext, &out}` initializing a job with no owner.
struct CipherSealJob {
  CipherSealJob() = default;
  CipherSealJob(uint64_t s, BytesView h, BytesView v, BytesView f, Bytes* o,
                std::shared_ptr<const void> own = nullptr)
      : seq(s), header(h), iv(v), fragment(f), out(o), owner(std::move(own)) {}

  uint64_t seq = 0;
  BytesView header;    // 5-byte record header with the true fragment length
  BytesView iv;        // explicit IV (the wire carries it before the body)
  BytesView fragment;  // plaintext
  Bytes* out = nullptr;
  std::shared_ptr<const void> owner;  // of `fragment`'s bytes; may be null
};

struct AeadSealJob {
  AeadSealJob() = default;
  AeadSealJob(BytesView n, BytesView a, BytesView p, Bytes* o,
              std::shared_ptr<const void> own = nullptr)
      : nonce(n), aad(a), plaintext(p), out(o), owner(std::move(own)) {}

  BytesView nonce;      // per-record nonce (static iv XOR seq)
  BytesView aad;        // additional data with the protected length
  BytesView plaintext;  // fragment
  Bytes* out = nullptr;
  std::shared_ptr<const void> owner;  // of `plaintext`'s bytes; may be null
};

class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  virtual const char* name() const = 0;

  // --- asymmetric ---------------------------------------------------------
  virtual Result<Bytes> rsa_sign(const RsaPrivateKey& key,
                                 BytesView digest) = 0;
  virtual Result<Bytes> rsa_decrypt(const RsaPrivateKey& key,
                                    BytesView ciphertext) = 0;
  virtual Result<KeyShare> ecdhe_keygen(CurveId curve) = 0;
  virtual Result<Bytes> ecdhe_derive(const KeyShare& mine,
                                     BytesView peer_point) = 0;
  // Prime curves only (see DESIGN.md §6 on binary-curve ECDSA).
  virtual Result<Bytes> ecdsa_sign(CurveId curve, const Bignum& priv,
                                   BytesView digest) = 0;

  // --- key derivation -------------------------------------------------------
  virtual Result<Bytes> prf_tls12(HashAlg alg, BytesView secret,
                                  const std::string& label, BytesView seed,
                                  size_t out_len) = 0;

  // --- record protection ----------------------------------------------------
  virtual Result<Bytes> cipher_seal(const CbcHmacKeys& keys, uint64_t seq,
                                    BytesView header, BytesView iv,
                                    BytesView fragment) = 0;
  virtual Result<Bytes> cipher_open(const CbcHmacKeys& keys, uint64_t seq,
                                    BytesView header_without_len, BytesView iv,
                                    BytesView ciphertext) = 0;
  // AEAD (AES-GCM) record protection — the TLS 1.3 path.
  virtual Result<Bytes> aead_seal(BytesView key, BytesView nonce,
                                  BytesView aad, BytesView plaintext) = 0;
  virtual Result<Bytes> aead_open(BytesView key, BytesView nonce,
                                  BytesView aad, BytesView ciphertext) = 0;

  // Batched record seal: seal every job into its empty job.out. The
  // software provider seals straight into job.out; the QAT engine submits
  // the whole span as ONE device batch (qat submit_batch, §3.2) and hands
  // each record's sealed buffer over as job.out.
  virtual Status cipher_seal_batch(const CbcHmacKeys& keys,
                                   std::span<CipherSealJob> jobs) = 0;
  virtual Status aead_seal_batch(BytesView key,
                                 std::span<AeadSealJob> jobs) = 0;
};

// The TX copy meter's "record.bytes_copied" counter (DESIGN.md §11): every
// pass that copies payload bytes on the TX path adds to it — the record
// layer's staging copies, and the QAT engine's copy of an owner-less seal
// job's plaintext.
obs::Counter& record_bytes_copied();

// Pure-CPU provider; also the fallback inside the QAT engine for algorithms
// whose offload switch is off (ssl_engine `default_algorithm`).
// Not thread-safe: one provider per worker, like one SSL_CTX engine binding
// per Nginx worker.
class SoftwareProvider : public CryptoProvider {
 public:
  explicit SoftwareProvider(uint64_t drbg_seed = 0x51544c53);

  const char* name() const override { return "software"; }

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
  // Seals each record directly into job.out (no staging copies).
  Status cipher_seal_batch(const CbcHmacKeys& keys,
                           std::span<CipherSealJob> jobs) override;
  Status aead_seal_batch(BytesView key, std::span<AeadSealJob> jobs) override;

  HmacDrbg& drbg() { return drbg_; }

 private:
  HmacDrbg drbg_;
};

// Curve-family helpers shared by providers.
const EcCurve* prime_curve(CurveId id);      // nullptr for binary ids
const Ec2mCurve* binary_curve(CurveId id);   // nullptr for prime ids

// Pure functions used by both the software path and the QAT engine-thread
// compute closures.
Result<KeyShare> ecdhe_keygen_impl(CurveId curve, HmacDrbg& rng);
Result<Bytes> ecdhe_derive_impl(const KeyShare& mine, BytesView peer_point);

}  // namespace qtls::engine
