#include "engine/provider.h"

#include "crypto/gcm.h"

namespace qtls::engine {

obs::Counter& record_bytes_copied() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("record.bytes_copied");
  return c;
}

const EcCurve* prime_curve(CurveId id) {
  switch (id) {
    case CurveId::kP256: return &curve_p256();
    case CurveId::kP384: return &curve_p384();
    default: return nullptr;
  }
}

const Ec2mCurve* binary_curve(CurveId id) {
  switch (id) {
    case CurveId::kB283: return &curve_b283();
    case CurveId::kB409: return &curve_b409();
    case CurveId::kK283: return &curve_k283();
    case CurveId::kK409: return &curve_k409();
    default: return nullptr;
  }
}

Result<KeyShare> ecdhe_keygen_impl(CurveId curve, HmacDrbg& rng) {
  if (const EcCurve* c = prime_curve(curve)) {
    const EcKeyPair pair = ec_generate_key(*c, rng);
    KeyShare share;
    share.curve = curve;
    share.priv = pair.priv.to_bytes_be(c->order().byte_length());
    share.pub_point = c->encode_point(pair.pub);
    return share;
  }
  if (const Ec2mCurve* c = binary_curve(curve)) {
    const Ec2mKeyPair pair = ec2m_generate_key(*c, rng);
    KeyShare share;
    share.curve = curve;
    share.priv = pair.priv;
    share.pub_point = c->encode_point(pair.pub);
    return share;
  }
  return err(Code::kInvalidArgument, "unknown curve");
}

Result<Bytes> ecdhe_derive_impl(const KeyShare& mine, BytesView peer_point) {
  if (const EcCurve* c = prime_curve(mine.curve)) {
    QTLS_ASSIGN_OR_RETURN(EcPoint peer, c->decode_point(peer_point));
    return ecdh_shared_secret(*c, Bignum::from_bytes_be(mine.priv), peer);
  }
  if (const Ec2mCurve* c = binary_curve(mine.curve)) {
    QTLS_ASSIGN_OR_RETURN(Ec2mPoint peer, c->decode_point(peer_point));
    return ec2m_shared_secret(*c, mine.priv, peer);
  }
  return err(Code::kInvalidArgument, "unknown curve");
}

SoftwareProvider::SoftwareProvider(uint64_t drbg_seed)
    : drbg_(HashAlg::kSha256, [&] {
        Bytes seed;
        append_u64(seed, drbg_seed);
        append(seed, to_bytes("software-provider"));
        return seed;
      }()) {}

Result<Bytes> SoftwareProvider::rsa_sign(const RsaPrivateKey& key,
                                         BytesView digest) {
  Bytes sig = rsa_sign_pkcs1(key, digest);
  if (sig.empty()) return err(Code::kInvalidArgument, "digest too long");
  return sig;
}

Result<Bytes> SoftwareProvider::rsa_decrypt(const RsaPrivateKey& key,
                                            BytesView ciphertext) {
  return rsa_decrypt_pkcs1(key, ciphertext);
}

Result<KeyShare> SoftwareProvider::ecdhe_keygen(CurveId curve) {
  return ecdhe_keygen_impl(curve, drbg_);
}

Result<Bytes> SoftwareProvider::ecdhe_derive(const KeyShare& mine,
                                             BytesView peer_point) {
  return ecdhe_derive_impl(mine, peer_point);
}

Result<Bytes> SoftwareProvider::ecdsa_sign(CurveId curve, const Bignum& priv,
                                           BytesView digest) {
  const EcCurve* c = prime_curve(curve);
  if (!c)
    return err(Code::kUnimplemented, "ECDSA restricted to prime curves");
  return qtls::ecdsa_sign(*c, priv, digest, drbg_).encode();
}

Result<Bytes> SoftwareProvider::prf_tls12(HashAlg alg, BytesView secret,
                                          const std::string& label,
                                          BytesView seed, size_t out_len) {
  return tls12_prf(alg, secret, label, seed, out_len);
}

Result<Bytes> SoftwareProvider::cipher_seal(const CbcHmacKeys& keys,
                                            uint64_t seq, BytesView header,
                                            BytesView iv, BytesView fragment) {
  return cbc_hmac_seal(keys, seq, header, iv, fragment);
}

Result<Bytes> SoftwareProvider::cipher_open(const CbcHmacKeys& keys,
                                            uint64_t seq,
                                            BytesView header_without_len,
                                            BytesView iv,
                                            BytesView ciphertext) {
  return cbc_hmac_open(keys, seq, header_without_len, iv, ciphertext);
}

Result<Bytes> SoftwareProvider::aead_seal(BytesView key, BytesView nonce,
                                          BytesView aad, BytesView plaintext) {
  return gcm_seal(key, nonce, aad, plaintext);
}

Result<Bytes> SoftwareProvider::aead_open(BytesView key, BytesView nonce,
                                          BytesView aad, BytesView ciphertext) {
  return gcm_open(key, nonce, aad, ciphertext);
}

Status SoftwareProvider::cipher_seal_batch(const CbcHmacKeys& keys,
                                           std::span<CipherSealJob> jobs) {
  for (CipherSealJob& job : jobs)
    cbc_hmac_seal_into(keys, job.seq, job.header, job.iv, job.fragment,
                       job.out);
  return Status::ok();
}

Status SoftwareProvider::aead_seal_batch(BytesView key,
                                         std::span<AeadSealJob> jobs) {
  Aes aes(key);
  for (AeadSealJob& job : jobs)
    gcm_seal_into(aes, job.nonce, job.aad, job.plaintext, job.out);
  return Status::ok();
}

}  // namespace qtls::engine
