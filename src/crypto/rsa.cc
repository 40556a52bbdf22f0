#include "crypto/rsa.h"

#include <sstream>

#include "crypto/asym_impl.h"
#include "crypto/kdf.h"
#include "crypto/primes.h"

namespace qtls {

void RsaPublicKey::precompute() {
  if (!mont_n && n.is_odd()) mont_n = std::make_shared<const MontCtx>(n);
}

void RsaPrivateKey::precompute() {
  pub.precompute();
  if (!mont_p && p.is_odd()) mont_p = std::make_shared<const MontCtx>(p);
  if (!mont_q && q.is_odd()) mont_q = std::make_shared<const MontCtx>(q);
}

RsaPrivateKey rsa_generate(size_t modulus_bits, HmacDrbg& rng) {
  const Bignum e(65537);
  for (;;) {
    Bignum p = generate_prime(modulus_bits / 2, rng);
    Bignum q = generate_prime(modulus_bits - modulus_bits / 2, rng);
    if (p == q) continue;
    if (Bignum::cmp(p, q) < 0) std::swap(p, q);

    const Bignum p1 = Bignum::sub(p, Bignum(1));
    const Bignum q1 = Bignum::sub(q, Bignum(1));
    const Bignum phi = Bignum::mul(p1, q1);
    if (!Bignum::gcd(e, phi).is_one()) continue;

    RsaPrivateKey key;
    key.pub.n = Bignum::mul(p, q);
    key.pub.e = e;
    key.d = Bignum::mod_inverse(e, phi);
    key.p = p;
    key.q = q;
    key.dp = Bignum::mod(key.d, p1);
    key.dq = Bignum::mod(key.d, q1);
    key.qinv = Bignum::mod_inverse(q, p);
    if (key.pub.n.bit_length() != modulus_bits) continue;
    key.precompute();
    return key;
  }
}

Bignum rsa_public_op(const RsaPublicKey& key, const Bignum& m) {
  if (key.mont_n) return key.mont_n->exp(m, key.e);
  return Bignum::mod_exp(m, key.e, key.n);
}

Bignum rsa_private_op(const RsaPrivateKey& key, const Bignum& c) {
  // CRT: m1 = c^dp mod p, m2 = c^dq mod q, h = qinv (m1 - m2) mod p,
  // m = m2 + h q.
  using asym_impl::Access;
  using asym_impl::Path;
  Bignum m1, m2;
  if (key.mont_p && key.mont_q && Access::path(*key.mont_p) == Path::kIfma &&
      Access::path(*key.mont_q) == Path::kIfma && key.dp.bit_length() <= 1024 &&
      key.dq.bit_length() <= 1024) {
    asym_impl::ifma_mont_exp_x2(*key.mont_p, key.dp, *key.mont_q, key.dq, c,
                                m1, m2);
  } else {
    m1 = key.mont_p ? key.mont_p->exp(c, key.dp)
                    : Bignum::mod_exp(c, key.dp, key.p);
    m2 = key.mont_q ? key.mont_q->exp(c, key.dq)
                    : Bignum::mod_exp(c, key.dq, key.q);
  }
  const Bignum diff = Bignum::mod_sub(m1, m2, key.p);
  const Bignum h = Bignum::mod_mul(key.qinv, diff, key.p);
  return Bignum::add(m2, Bignum::mul(h, key.q));
}

namespace {

// EMSA-PKCS1-v1_5: 0x00 0x01 FF..FF 0x00 digest
Result<Bytes> pkcs1_pad_type1(BytesView digest, size_t k) {
  if (digest.size() + 11 > k)
    return err(Code::kInvalidArgument, "digest too long for modulus");
  Bytes em(k, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[k - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(), em.end() - static_cast<ptrdiff_t>(digest.size()));
  return em;
}

}  // namespace

Bytes rsa_sign_pkcs1(const RsaPrivateKey& key, BytesView digest) {
  const size_t k = key.modulus_bytes();
  auto em = pkcs1_pad_type1(digest, k);
  if (!em.is_ok()) return {};
  const Bignum m = Bignum::from_bytes_be(em.value());
  const Bignum s = rsa_private_op(key, m);
  return s.to_bytes_be(k);
}

Status rsa_verify_pkcs1(const RsaPublicKey& key, BytesView digest,
                        BytesView signature) {
  const size_t k = key.modulus_bytes();
  if (signature.size() != k)
    return err(Code::kCryptoError, "bad signature length");
  const Bignum s = Bignum::from_bytes_be(signature);
  if (Bignum::cmp(s, key.n) >= 0)
    return err(Code::kCryptoError, "signature out of range");
  const Bignum m = rsa_public_op(key, s);
  auto em = pkcs1_pad_type1(digest, k);
  if (!em.is_ok()) return em.status();
  if (!ct_equal(m.to_bytes_be(k), em.value()))
    return err(Code::kCryptoError, "signature mismatch");
  return Status::ok();
}

Result<Bytes> rsa_encrypt_pkcs1(const RsaPublicKey& key, BytesView msg,
                                HmacDrbg& rng) {
  const size_t k = key.modulus_bytes();
  if (msg.size() + 11 > k)
    return err(Code::kInvalidArgument, "message too long for modulus");
  // EME-PKCS1-v1_5: 0x00 0x02 PS(nonzero) 0x00 msg
  Bytes em(k);
  em[0] = 0x00;
  em[1] = 0x02;
  const size_t ps_len = k - msg.size() - 3;
  for (size_t i = 0; i < ps_len; ++i) {
    uint8_t b = 0;
    while (b == 0) rng.generate(&b, 1);
    em[2 + i] = b;
  }
  em[2 + ps_len] = 0x00;
  std::copy(msg.begin(), msg.end(), em.begin() + static_cast<ptrdiff_t>(3 + ps_len));
  const Bignum m = Bignum::from_bytes_be(em);
  return rsa_public_op(key, m).to_bytes_be(k);
}

Result<Bytes> rsa_decrypt_pkcs1(const RsaPrivateKey& key,
                                BytesView ciphertext) {
  const size_t k = key.modulus_bytes();
  if (ciphertext.size() != k)
    return err(Code::kCryptoError, "bad ciphertext length");
  const Bignum c = Bignum::from_bytes_be(ciphertext);
  if (Bignum::cmp(c, key.pub.n) >= 0)
    return err(Code::kCryptoError, "ciphertext out of range");
  const Bytes em = rsa_private_op(key, c).to_bytes_be(k);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02)
    return err(Code::kCryptoError, "bad padding header");
  size_t sep = 0;
  for (size_t i = 2; i < em.size(); ++i) {
    if (em[i] == 0x00) {
      sep = i;
      break;
    }
  }
  if (sep < 10) return err(Code::kCryptoError, "bad padding");
  return Bytes(em.begin() + static_cast<ptrdiff_t>(sep + 1), em.end());
}

std::string RsaPrivateKey::serialize() const {
  std::ostringstream os;
  os << "n=" << pub.n.to_hex() << "\n";
  os << "e=" << pub.e.to_hex() << "\n";
  os << "d=" << d.to_hex() << "\n";
  os << "p=" << p.to_hex() << "\n";
  os << "q=" << q.to_hex() << "\n";
  os << "dp=" << dp.to_hex() << "\n";
  os << "dq=" << dq.to_hex() << "\n";
  os << "qinv=" << qinv.to_hex() << "\n";
  return os.str();
}

Result<RsaPrivateKey> RsaPrivateKey::deserialize(const std::string& text) {
  RsaPrivateKey key;
  std::istringstream is(text);
  std::string line;
  int fields = 0;
  while (std::getline(is, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string name = line.substr(0, eq);
    const Bignum value = Bignum::from_hex(line.substr(eq + 1));
    ++fields;
    if (name == "n") key.pub.n = value;
    else if (name == "e") key.pub.e = value;
    else if (name == "d") key.d = value;
    else if (name == "p") key.p = value;
    else if (name == "q") key.q = value;
    else if (name == "dp") key.dp = value;
    else if (name == "dq") key.dq = value;
    else if (name == "qinv") key.qinv = value;
    else --fields;
  }
  if (fields != 8) return err(Code::kInvalidArgument, "missing RSA fields");
  key.precompute();
  return key;
}

}  // namespace qtls
