#include "crypto/ec.h"

#include <algorithm>
#include <vector>

#include "crypto/asym_impl.h"
#include "crypto/kdf.h"
#include "crypto/primes.h"

namespace qtls {

namespace {

struct CurveHex {
  const char* p;
  const char* a;
  const char* b;
  const char* gx;
  const char* gy;
  const char* n;
};

constexpr CurveHex kP256 = {
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
    "ffffffff00000001000000000000000000000000fffffffffffffffffffffffc",
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"};

}  // namespace

// Jacobian point with coordinates in the Montgomery domain of the field.
struct EcCurve::Jacobian {
  Bignum x, y, z;  // infinity iff z == 0
  bool is_infinity() const { return z.is_zero(); }
};

EcCurve::EcCurve(std::string name, const std::string& p_hex,
                 const std::string& a_hex, const std::string& b_hex,
                 const std::string& gx_hex, const std::string& gy_hex,
                 const std::string& n_hex)
    : name_(std::move(name)),
      p_(Bignum::from_hex(p_hex)),
      a_(Bignum::from_hex(a_hex)),
      b_(Bignum::from_hex(b_hex)),
      gx_(Bignum::from_hex(gx_hex)),
      gy_(Bignum::from_hex(gy_hex)),
      n_(Bignum::from_hex(n_hex)),
      mont_(std::make_unique<MontCtx>(p_)),
      order_mont_(std::make_unique<MontCtx>(n_)) {
  a_mont_ = mont_->to_mont(a_);
  b_mont_ = mont_->to_mont(b_);
  // The dedicated P-256 code hard-wires p, a = -3, b and G.
  const bool p256 = p_ == Bignum::from_hex(kP256.p) &&
                    a_ == Bignum::from_hex(kP256.a) &&
                    b_ == Bignum::from_hex(kP256.b) &&
                    gx_ == Bignum::from_hex(kP256.gx) &&
                    gy_ == Bignum::from_hex(kP256.gy) &&
                    n_ == Bignum::from_hex(kP256.n);
  path_ = p256 ? asym_impl::Path::kFixed : asym_impl::Path::kGeneric;
}

bool EcCurve::on_curve(const EcPoint& pt) const {
  if (path_ == asym_impl::Path::kFixed) return asym_impl::p256::on_curve(pt);
  if (pt.infinity) return true;
  if (Bignum::cmp(pt.x, p_) >= 0 || Bignum::cmp(pt.y, p_) >= 0) return false;
  // y^2 == x^3 + ax + b (mod p)
  const Bignum x = mont_->to_mont(pt.x);
  const Bignum y = mont_->to_mont(pt.y);
  const Bignum y2 = mont_->mul(y, y);
  const Bignum x2 = mont_->mul(x, x);
  const Bignum x3 = mont_->mul(x2, x);
  Bignum rhs = Bignum::mod_add(x3, mont_->mul(a_mont_, x), p_);
  rhs = Bignum::mod_add(rhs, b_mont_, p_);
  return Bignum::cmp(y2, rhs) == 0;
}

EcCurve::Jacobian EcCurve::to_jacobian(const EcPoint& pt) const {
  if (pt.infinity) return Jacobian{Bignum(), Bignum(), Bignum()};
  return Jacobian{mont_->to_mont(pt.x), mont_->to_mont(pt.y),
                  mont_->one_mont()};
}

EcPoint EcCurve::to_affine(const Jacobian& pt) const {
  if (pt.is_infinity()) return EcPoint::at_infinity();
  // x = X / Z^2, y = Y / Z^3
  const Bignum z_norm = mont_->from_mont(pt.z);
  const Bignum zinv = Bignum::mod_inverse(z_norm, p_);
  const Bignum zinv_m = mont_->to_mont(zinv);
  const Bignum zinv2 = mont_->mul(zinv_m, zinv_m);
  const Bignum zinv3 = mont_->mul(zinv2, zinv_m);
  return EcPoint::affine(mont_->from_mont(mont_->mul(pt.x, zinv2)),
                         mont_->from_mont(mont_->mul(pt.y, zinv3)));
}

// dbl-2007-bl style doubling (general a).
EcCurve::Jacobian EcCurve::jdbl(const Jacobian& pt) const {
  if (pt.is_infinity() || pt.y.is_zero())
    return Jacobian{Bignum(), Bignum(), Bignum()};
  const MontCtx& m = *mont_;
  const Bignum xx = m.mul(pt.x, pt.x);
  const Bignum yy = m.mul(pt.y, pt.y);
  const Bignum yyyy = m.mul(yy, yy);
  const Bignum zz = m.mul(pt.z, pt.z);
  // S = 2*((X+YY)^2 - XX - YYYY)
  Bignum t = Bignum::mod_add(pt.x, yy, p_);
  t = m.mul(t, t);
  t = Bignum::mod_sub(t, xx, p_);
  t = Bignum::mod_sub(t, yyyy, p_);
  const Bignum s = Bignum::mod_add(t, t, p_);
  // M = 3*XX + a*ZZ^2
  Bignum mm = Bignum::mod_add(xx, xx, p_);
  mm = Bignum::mod_add(mm, xx, p_);
  const Bignum zz2 = m.mul(zz, zz);
  mm = Bignum::mod_add(mm, m.mul(a_mont_, zz2), p_);
  // X3 = M^2 - 2S
  Bignum x3 = m.mul(mm, mm);
  x3 = Bignum::mod_sub(x3, Bignum::mod_add(s, s, p_), p_);
  // Y3 = M*(S - X3) - 8*YYYY
  Bignum y3 = m.mul(mm, Bignum::mod_sub(s, x3, p_));
  Bignum yyyy8 = Bignum::mod_add(yyyy, yyyy, p_);
  yyyy8 = Bignum::mod_add(yyyy8, yyyy8, p_);
  yyyy8 = Bignum::mod_add(yyyy8, yyyy8, p_);
  y3 = Bignum::mod_sub(y3, yyyy8, p_);
  // Z3 = (Y+Z)^2 - YY - ZZ = 2*Y*Z
  Bignum z3 = Bignum::mod_add(pt.y, pt.z, p_);
  z3 = m.mul(z3, z3);
  z3 = Bignum::mod_sub(z3, yy, p_);
  z3 = Bignum::mod_sub(z3, zz, p_);
  return Jacobian{x3, y3, z3};
}

// add-2007-bl general addition.
EcCurve::Jacobian EcCurve::jadd(const Jacobian& p1, const Jacobian& p2) const {
  if (p1.is_infinity()) return p2;
  if (p2.is_infinity()) return p1;
  const MontCtx& m = *mont_;
  const Bignum z1z1 = m.mul(p1.z, p1.z);
  const Bignum z2z2 = m.mul(p2.z, p2.z);
  const Bignum u1 = m.mul(p1.x, z2z2);
  const Bignum u2 = m.mul(p2.x, z1z1);
  const Bignum s1 = m.mul(m.mul(p1.y, p2.z), z2z2);
  const Bignum s2 = m.mul(m.mul(p2.y, p1.z), z1z1);
  if (Bignum::cmp(u1, u2) == 0) {
    if (Bignum::cmp(s1, s2) == 0) return jdbl(p1);
    return Jacobian{Bignum(), Bignum(), Bignum()};  // P + (-P) = O
  }
  const Bignum h = Bignum::mod_sub(u2, u1, p_);
  Bignum i = Bignum::mod_add(h, h, p_);
  i = m.mul(i, i);
  const Bignum j = m.mul(h, i);
  Bignum r = Bignum::mod_sub(s2, s1, p_);
  r = Bignum::mod_add(r, r, p_);
  const Bignum v = m.mul(u1, i);
  // X3 = r^2 - J - 2V
  Bignum x3 = m.mul(r, r);
  x3 = Bignum::mod_sub(x3, j, p_);
  x3 = Bignum::mod_sub(x3, Bignum::mod_add(v, v, p_), p_);
  // Y3 = r*(V - X3) - 2*S1*J
  Bignum y3 = m.mul(r, Bignum::mod_sub(v, x3, p_));
  Bignum s1j = m.mul(s1, j);
  y3 = Bignum::mod_sub(y3, Bignum::mod_add(s1j, s1j, p_), p_);
  // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
  Bignum z3 = Bignum::mod_add(p1.z, p2.z, p_);
  z3 = m.mul(z3, z3);
  z3 = Bignum::mod_sub(z3, z1z1, p_);
  z3 = Bignum::mod_sub(z3, z2z2, p_);
  z3 = m.mul(z3, h);
  return Jacobian{x3, y3, z3};
}

EcPoint EcCurve::add(const EcPoint& p1, const EcPoint& p2) const {
  return to_affine(jadd(to_jacobian(p1), to_jacobian(p2)));
}

EcPoint EcCurve::dbl(const EcPoint& pt) const {
  return to_affine(jdbl(to_jacobian(pt)));
}

EcPoint EcCurve::mul(const Bignum& k, const EcPoint& pt) const {
  if (Bignum::cmp(k, n_) >= 0) return mul(Bignum::mod(k, n_), pt);
  if (k.is_zero() || pt.infinity) return EcPoint::at_infinity();
  if (path_ == asym_impl::Path::kFixed) return asym_impl::p256::mul(k, pt);

  // 4-bit fixed window.
  constexpr size_t kWindow = 4;
  const Jacobian base = to_jacobian(pt);
  std::vector<Jacobian> table(1 << kWindow,
                              Jacobian{Bignum(), Bignum(), Bignum()});
  table[1] = base;
  for (size_t i = 2; i < table.size(); ++i) table[i] = jadd(table[i - 1], base);

  const size_t bits = k.bit_length();
  const size_t windows = (bits + kWindow - 1) / kWindow;
  Jacobian acc{Bignum(), Bignum(), Bignum()};
  for (size_t w = windows; w-- > 0;) {
    for (size_t s = 0; s < kWindow; ++s) acc = jdbl(acc);
    uint64_t idx = 0;
    for (size_t b = kWindow; b-- > 0;)
      idx = (idx << 1) | (k.bit(w * kWindow + b) ? 1 : 0);
    if (idx != 0) acc = jadd(acc, table[idx]);
  }
  return to_affine(acc);
}

EcPoint EcCurve::mul_base(const Bignum& k) const {
  if (path_ != asym_impl::Path::kFixed) return mul(k, generator());
  if (Bignum::cmp(k, n_) >= 0) return mul_base(Bignum::mod(k, n_));
  if (k.is_zero()) return EcPoint::at_infinity();
  return asym_impl::p256::mul_base(k);
}

Bytes EcCurve::encode_point(const EcPoint& pt) const {
  const size_t fb = field_bytes();
  Bytes out;
  out.reserve(1 + 2 * fb);
  if (pt.infinity) {
    out.push_back(0x00);
    return out;
  }
  out.push_back(0x04);
  append(out, pt.x.to_bytes_be(fb));
  append(out, pt.y.to_bytes_be(fb));
  return out;
}

Result<EcPoint> EcCurve::decode_point(BytesView data) const {
  const size_t fb = field_bytes();
  if (data.size() == 1 && data[0] == 0x00) return EcPoint::at_infinity();
  if (data.size() != 1 + 2 * fb || data[0] != 0x04)
    return err(Code::kInvalidArgument, "bad point encoding");
  EcPoint pt = EcPoint::affine(Bignum::from_bytes_be(data.subspan(1, fb)),
                               Bignum::from_bytes_be(data.subspan(1 + fb, fb)));
  if (!on_curve(pt)) return err(Code::kCryptoError, "point not on curve");
  return pt;
}

const EcCurve& curve_p256() {
  static const EcCurve curve("P-256", kP256.p, kP256.a, kP256.b, kP256.gx,
                             kP256.gy, kP256.n);
  return curve;
}

const EcCurve& asym_impl::Access::p256(Path path) {
  if (path == Path::kFixed) return curve_p256();
  static const EcCurve generic = [] {
    EcCurve curve("P-256", kP256.p, kP256.a, kP256.b, kP256.gx, kP256.gy,
                  kP256.n);
    curve.path_ = Path::kGeneric;
    return curve;
  }();
  return generic;
}

const EcCurve& curve_p384() {
  static const EcCurve curve(
      "P-384",
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe"
      "ffffffff0000000000000000ffffffff",
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe"
      "ffffffff0000000000000000fffffffc",
      "b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314088f5013875a"
      "c656398d8a2ed19d2a85c8edd3ec2aef",
      "aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f741e082542a38"
      "5502f25dbf55296c3a545e3872760ab7",
      "3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da3113b5f0b8c0"
      "0a60b1ce1d7e819d7a431d7c90ea0e5f",
      "ffffffffffffffffffffffffffffffffffffffffffffffffc7634d81f4372ddf"
      "581a0db248b0a77aecec196accc52973");
  return curve;
}

const char* curve_name(CurveId id) {
  switch (id) {
    case CurveId::kP256: return "P-256";
    case CurveId::kP384: return "P-384";
    case CurveId::kB283: return "B-283";
    case CurveId::kB409: return "B-409";
    case CurveId::kK283: return "K-283";
    case CurveId::kK409: return "K-409";
  }
  return "?";
}

bool curve_is_binary(CurveId id) {
  switch (id) {
    case CurveId::kB283:
    case CurveId::kB409:
    case CurveId::kK283:
    case CurveId::kK409:
      return true;
    default:
      return false;
  }
}

EcKeyPair ec_generate_key(const EcCurve& curve, HmacDrbg& rng) {
  for (;;) {
    Bignum d = random_below(curve.order(), rng);
    if (d.is_zero()) continue;
    return EcKeyPair{d, curve.mul_base(d)};
  }
}

Result<Bytes> ecdh_shared_secret(const EcCurve& curve, const Bignum& priv,
                                 const EcPoint& peer) {
  if (!curve.on_curve(peer) || peer.infinity)
    return err(Code::kCryptoError, "invalid peer point");
  const EcPoint shared = curve.mul(priv, peer);
  if (shared.infinity) return err(Code::kCryptoError, "degenerate ECDH result");
  return shared.x.to_bytes_be(curve.field_bytes());
}

Bytes EcdsaSignature::encode() const {
  // Fixed-width r || s keeps parsing trivial; width from r/s actual size is
  // ambiguous, so the caller supplies the curve on decode.
  const size_t w = std::max(r.byte_length(), s.byte_length());
  Bytes out;
  append(out, r.to_bytes_be(w));
  append(out, s.to_bytes_be(w));
  return out;
}

Result<EcdsaSignature> EcdsaSignature::decode(BytesView data,
                                              const EcCurve& curve) {
  (void)curve;
  if (data.size() % 2 != 0 || data.empty())
    return err(Code::kInvalidArgument, "bad signature encoding");
  const size_t half = data.size() / 2;
  return EcdsaSignature{Bignum::from_bytes_be(data.subspan(0, half)),
                        Bignum::from_bytes_be(data.subspan(half, half))};
}

namespace {
// k^-1 mod the (prime) group order for 0 < k < n, by Fermat: k^(n-2). On
// P-256 the order is four limbs, a fixed-width exponentiation.
Bignum inverse_mod_order(const EcCurve& curve, const Bignum& k) {
  return curve.scalar_field().exp(k, Bignum::sub(curve.order(), Bignum(2)));
}

// Digest -> integer per FIPS 186-4: leftmost order-bits of the digest.
Bignum digest_to_scalar(const EcCurve& curve, BytesView digest) {
  Bignum z = Bignum::from_bytes_be(digest);
  const size_t order_bits = curve.order().bit_length();
  const size_t digest_bits = digest.size() * 8;
  if (digest_bits > order_bits) z = Bignum::shr(z, digest_bits - order_bits);
  return z;
}
}  // namespace

EcdsaSignature ecdsa_sign(const EcCurve& curve, const Bignum& priv,
                          BytesView digest, HmacDrbg& rng) {
  const Bignum& n = curve.order();
  const Bignum z = digest_to_scalar(curve, digest);
  for (;;) {
    Bignum k = random_below(n, rng);
    if (k.is_zero()) continue;
    const EcPoint kg = curve.mul_base(k);
    const Bignum r = Bignum::mod(kg.x, n);
    if (r.is_zero()) continue;
    const Bignum kinv = inverse_mod_order(curve, k);
    // s = k^-1 (z + r d) mod n
    Bignum s = Bignum::mod_mul(r, priv, n);
    s = Bignum::mod_add(s, Bignum::mod(z, n), n);
    s = Bignum::mod_mul(kinv, s, n);
    if (s.is_zero()) continue;
    return EcdsaSignature{r, s};
  }
}

Status ecdsa_verify(const EcCurve& curve, const EcPoint& pub, BytesView digest,
                    const EcdsaSignature& sig) {
  const Bignum& n = curve.order();
  if (sig.r.is_zero() || sig.s.is_zero() || Bignum::cmp(sig.r, n) >= 0 ||
      Bignum::cmp(sig.s, n) >= 0)
    return err(Code::kCryptoError, "signature out of range");
  if (!curve.on_curve(pub) || pub.infinity)
    return err(Code::kCryptoError, "invalid public key");
  const Bignum z = Bignum::mod(digest_to_scalar(curve, digest), n);
  const Bignum sinv = inverse_mod_order(curve, sig.s);
  const Bignum u1 = Bignum::mod_mul(z, sinv, n);
  const Bignum u2 = Bignum::mod_mul(sig.r, sinv, n);
  const EcPoint p1 = curve.mul_base(u1);
  const EcPoint p2 = curve.mul(u2, pub);
  const EcPoint sum = curve.add(p1, p2);
  if (sum.infinity) return err(Code::kCryptoError, "verification failed");
  if (Bignum::cmp(Bignum::mod(sum.x, n), sig.r) != 0)
    return err(Code::kCryptoError, "signature mismatch");
  return Status::ok();
}

}  // namespace qtls
