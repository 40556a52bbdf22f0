// Prime-field elliptic curves (short Weierstrass y^2 = x^3 + ax + b) with
// Jacobian-coordinate arithmetic over Montgomery-domain field elements.
// Provides NIST P-256 and P-384 — the ECDHE groups and ECDSA curves of
// Figures 7b/7c/8. Path selection for mul, mul_base and on_curve:
// crypto/asym_impl.h.
#pragma once

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/bn.h"

namespace qtls {

class HmacDrbg;

namespace asym_impl {
enum class Path : uint8_t;
struct Access;
}  // namespace asym_impl (crypto/asym_impl.h)

struct EcPoint {
  Bignum x;
  Bignum y;
  bool infinity = true;

  static EcPoint at_infinity() { return EcPoint{}; }
  static EcPoint affine(Bignum px, Bignum py) {
    return EcPoint{std::move(px), std::move(py), false};
  }
};

class EcCurve {
 public:
  EcCurve(std::string name, const std::string& p_hex, const std::string& a_hex,
          const std::string& b_hex, const std::string& gx_hex,
          const std::string& gy_hex, const std::string& n_hex);

  const std::string& name() const { return name_; }
  const Bignum& p() const { return p_; }
  const Bignum& a() const { return a_; }
  const Bignum& b() const { return b_; }
  const Bignum& order() const { return n_; }
  EcPoint generator() const { return EcPoint::affine(gx_, gy_); }
  size_t field_bytes() const { return p_.byte_length(); }

  bool on_curve(const EcPoint& pt) const;
  EcPoint add(const EcPoint& p1, const EcPoint& p2) const;
  EcPoint dbl(const EcPoint& pt) const;
  // Scalar multiplication k * pt (k reduced mod order internally).
  EcPoint mul(const Bignum& k, const EcPoint& pt) const;
  EcPoint mul_base(const Bignum& k) const;

  // SEC1 uncompressed encoding: 0x04 || X || Y.
  Bytes encode_point(const EcPoint& pt) const;
  Result<EcPoint> decode_point(BytesView data) const;

  const MontCtx& field() const { return *mont_; }
  // Montgomery context of the group order, for inverses mod the order.
  const MontCtx& scalar_field() const { return *order_mont_; }

 private:
  friend struct asym_impl::Access;
  struct Jacobian;
  Jacobian to_jacobian(const EcPoint& pt) const;
  EcPoint to_affine(const Jacobian& pt) const;
  Jacobian jadd(const Jacobian& p1, const Jacobian& p2) const;
  Jacobian jdbl(const Jacobian& pt) const;

  std::string name_;
  asym_impl::Path path_;
  Bignum p_, a_, b_, gx_, gy_, n_;
  std::unique_ptr<MontCtx> mont_;
  std::unique_ptr<MontCtx> order_mont_;
  Bignum a_mont_, b_mont_;
};

// Built-in curves (lazily constructed singletons).
const EcCurve& curve_p256();
const EcCurve& curve_p384();

enum class CurveId : uint8_t {
  kP256 = 23,  // TLS NamedCurve secp256r1
  kP384 = 24,  // secp384r1
  kB283 = 9,   // sect283r1 (binary; see ec2m.h)
  kB409 = 11,  // sect409r1
  kK283 = 10,  // sect283k1
  kK409 = 12,  // sect409k1
};
const char* curve_name(CurveId id);
bool curve_is_binary(CurveId id);

struct EcKeyPair {
  Bignum priv;   // scalar d in [1, n-1]
  EcPoint pub;   // d * G
};

EcKeyPair ec_generate_key(const EcCurve& curve, HmacDrbg& rng);
// ECDH: x-coordinate of d * peer, serialized to field size.
Result<Bytes> ecdh_shared_secret(const EcCurve& curve, const Bignum& priv,
                                 const EcPoint& peer);

struct EcdsaSignature {
  Bignum r;
  Bignum s;

  Bytes encode() const;  // r || s, each padded to order size
  static Result<EcdsaSignature> decode(BytesView data, const EcCurve& curve);
};

EcdsaSignature ecdsa_sign(const EcCurve& curve, const Bignum& priv,
                          BytesView digest, HmacDrbg& rng);
Status ecdsa_verify(const EcCurve& curve, const EcPoint& pub, BytesView digest,
                    const EcdsaSignature& sig);

}  // namespace qtls
