// P-256 on a dedicated 4-limb field (path selection: crypto/asym_impl.h).
//
// Field elements are 4 little-endian limbs in the Montgomery domain
// (R = 2^256), always fully reduced below p, so equality is limb equality.
// Because p = -1 mod 2^64, -p^-1 mod 2^64 is 1 and each reduction step's
// factor is the low word itself. Points are Jacobian (infinity iff Z = 0);
// doubling uses the a = -3 formula (dbl-2001-b), addition the general
// add-2007-bl formula and its mixed Z2 = 1 form. Inversion is Fermat's
// a^(p-2). Scalar multiplication runs 4-bit fixed windows: a 16-entry table
// per call for a variable base, and for G a table of every d * 16^w * G
// (d in 1..15, w in 0..63), built once per process, so k * G is at most 64
// mixed additions and no doublings.
#include <cstring>
#include <vector>

#include "crypto/asym_impl.h"

namespace qtls::asym_impl::p256 {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kP[4] = {0xffffffffffffffffULL, 0x00000000ffffffffULL, 0,
                            0xffffffff00000001ULL};

struct Fe {
  uint64_t v[4];
};

struct Aff {
  Fe x, y;
};

struct Jac {
  Fe x, y, z;
};

bool fe_is_zero(const Fe& a) { return (a.v[0] | a.v[1] | a.v[2] | a.v[3]) == 0; }

bool fe_eq(const Fe& a, const Fe& b) {
  return ((a.v[0] ^ b.v[0]) | (a.v[1] ^ b.v[1]) | (a.v[2] ^ b.v[2]) |
          (a.v[3] ^ b.v[3])) == 0;
}

// lo(a + b + carry), leaving the carry-out in carry.
inline uint64_t adc(uint64_t a, uint64_t b, uint64_t& carry) {
  const u128 s = static_cast<u128>(a) + b + carry;
  carry = static_cast<uint64_t>(s >> 64);
  return static_cast<uint64_t>(s);
}

// r = top:t - p if top:t >= p, else t, without a branch; top:t < 2p.
void reduce_once(Fe& r, uint64_t t0, uint64_t t1, uint64_t t2, uint64_t t3,
                 uint64_t top) {
  uint64_t borrow = 0;
  const uint64_t d0 = sbb(t0, kP[0], borrow);
  const uint64_t d1 = sbb(t1, kP[1], borrow);
  const uint64_t d2 = sbb(t2, kP[2], borrow);
  const uint64_t d3 = sbb(t3, kP[3], borrow);
  sbb(top, 0, borrow);
  const uint64_t keep = 0 - borrow;  // all ones when top:t < p
  r.v[0] = (t0 & keep) | (d0 & ~keep);
  r.v[1] = (t1 & keep) | (d1 & ~keep);
  r.v[2] = (t2 & keep) | (d2 & ~keep);
  r.v[3] = (t3 & keep) | (d3 & ~keep);
}

void fe_add(Fe& r, const Fe& a, const Fe& b) {
  uint64_t carry = 0;
  const uint64_t s0 = adc(a.v[0], b.v[0], carry);
  const uint64_t s1 = adc(a.v[1], b.v[1], carry);
  const uint64_t s2 = adc(a.v[2], b.v[2], carry);
  const uint64_t s3 = adc(a.v[3], b.v[3], carry);
  reduce_once(r, s0, s1, s2, s3, carry);
}

void fe_sub(Fe& r, const Fe& a, const Fe& b) {
  uint64_t borrow = 0;
  const uint64_t d0 = sbb(a.v[0], b.v[0], borrow);
  const uint64_t d1 = sbb(a.v[1], b.v[1], borrow);
  const uint64_t d2 = sbb(a.v[2], b.v[2], borrow);
  const uint64_t d3 = sbb(a.v[3], b.v[3], borrow);
  const uint64_t mask = 0 - borrow;  // add p back when a < b
  uint64_t carry = 0;
  r.v[0] = adc(d0, kP[0] & mask, carry);
  r.v[1] = adc(d1, kP[1] & mask, carry);
  r.v[2] = adc(d2, kP[2] & mask, carry);
  r.v[3] = adc(d3, kP[3] & mask, carry);
}

// r = a * b * R^-1 mod p, one row of a[i] * b then one reduction step
// (CIOS). The step adds m * p with m = t0 (p = -1 mod 2^64), which turns
// the low word into m * 2^64: carry m, and shift down a word.
void fe_mul(Fe& r, const Fe& a, const Fe& b) {
  uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
#pragma GCC unroll 4
  for (size_t i = 0; i < 4; ++i) {
    const uint64_t ai = a.v[i];
    uint64_t c = 0;
    t0 = mac(ai, b.v[0], t0, c);
    t1 = mac(ai, b.v[1], t1, c);
    t2 = mac(ai, b.v[2], t2, c);
    t3 = mac(ai, b.v[3], t3, c);
    uint64_t t5 = 0;
    t4 = adc(t4, c, t5);
    const uint64_t m = t0;
    c = m;
    t0 = mac(m, kP[1], t1, c);
    t1 = adc(t2, 0, c);  // kP[2] == 0
    t2 = mac(m, kP[3], t3, c);
    t3 = adc(t4, 0, c);
    t4 = t5 + c;
  }
  reduce_once(r, t0, t1, t2, t3, t4);
}

void fe_sqr(Fe& r, const Fe& a) { fe_mul(r, a, a); }

void fe_sqr_n(Fe& r, const Fe& a, int n) {
  fe_sqr(r, a);
  for (int i = 1; i < n; ++i) fe_sqr(r, r);
}

// r = a^(p-2) = a^-1 for a != 0. The exponent, from the top bit down, is 32
// ones, 31 zeros, a one, 96 zeros, 94 ones, a zero and a one; x_k below is
// a^(2^k - 1).
void fe_inv(Fe& r, const Fe& a) {
  Fe x2, x4, x8, x16, x32, t;
  fe_sqr(t, a);
  fe_mul(x2, t, a);
  fe_sqr_n(t, x2, 2);
  fe_mul(x4, t, x2);
  fe_sqr_n(t, x4, 4);
  fe_mul(x8, t, x4);
  fe_sqr_n(t, x8, 8);
  fe_mul(x16, t, x8);
  fe_sqr_n(t, x16, 16);
  fe_mul(x32, t, x16);

  // hi = a^((2^32 - 1) * 2^32) starts both halves: hi * x32 is x64, the
  // way to the low 96 bits; hi * a is the top 64 bits.
  Fe hi;
  fe_sqr_n(hi, x32, 32);
  Fe low;
  fe_mul(low, hi, x32);  // x64
  fe_sqr_n(low, low, 16);
  fe_mul(low, low, x16);  // x80
  fe_sqr_n(low, low, 8);
  fe_mul(low, low, x8);  // x88
  fe_sqr_n(low, low, 4);
  fe_mul(low, low, x4);  // x92
  fe_sqr_n(low, low, 2);
  fe_mul(low, low, x2);  // x94
  fe_sqr_n(low, low, 2);
  fe_mul(low, low, a);  // bits 95..0: 94 ones, a zero, a one

  fe_mul(t, hi, a);  // bits 255..192: 32 ones, 31 zeros, a one
  fe_sqr_n(t, t, 192);
  fe_mul(r, t, low);
}

struct Consts {
  Fe one;  // R mod p
  Fe rr;   // R^2 mod p
  Fe b;
  Aff g;
};

void load(Fe& out, const Bignum& v) {
  // The low 4 limbs, as the generic MontCtx reads them.
  for (size_t i = 0; i < 4; ++i) out.v[i] = v.limb(i);
}

const Consts& consts() {
  static const Consts c = [] {
    const EcCurve& curve = curve_p256();
    const MontCtx& field = curve.field();
    Consts k;
    const Bignum one = field.to_mont(Bignum(1));
    load(k.one, one);
    load(k.rr, field.to_mont(one));
    load(k.b, field.to_mont(curve.b()));
    load(k.g.x, field.to_mont(curve.generator().x));
    load(k.g.y, field.to_mont(curve.generator().y));
    return k;
  }();
  return c;
}

void to_mont(Fe& r, const Bignum& v, const Consts& c) {
  Fe x;
  load(x, v);
  fe_mul(r, x, c.rr);
}

Bignum from_mont(const Fe& a) {
  Fe r;
  fe_mul(r, a, Fe{{1, 0, 0, 0}});
  Bignum out;
  out.limbs().assign(r.v, r.v + 4);
  out.trim();
  return out;
}

bool is_infinity(const Jac& p) { return fe_is_zero(p.z); }

void set_infinity(Jac& p) { std::memset(&p, 0, sizeof(p)); }

// r = 2p. r may alias p.
void jdbl(Jac& r, const Jac& p) {
  if (is_infinity(p) || fe_is_zero(p.y)) {
    set_infinity(r);
    return;
  }
  Fe delta, gamma, beta, alpha, t1, t2;
  fe_sqr(delta, p.z);
  fe_sqr(gamma, p.y);
  fe_mul(beta, p.x, gamma);
  // alpha = 3 (X - delta)(X + delta)
  fe_sub(t1, p.x, delta);
  fe_add(t2, p.x, delta);
  fe_mul(t1, t1, t2);
  fe_add(alpha, t1, t1);
  fe_add(alpha, alpha, t1);
  // Z3 = (Y + Z)^2 - gamma - delta
  fe_add(t1, p.y, p.z);
  fe_sqr(t1, t1);
  fe_sub(t1, t1, gamma);
  fe_sub(r.z, t1, delta);
  // X3 = alpha^2 - 8 beta
  fe_add(beta, beta, beta);
  fe_add(beta, beta, beta);  // 4 beta
  fe_sqr(t1, alpha);
  fe_add(t2, beta, beta);
  fe_sub(r.x, t1, t2);
  // Y3 = alpha (4 beta - X3) - 8 gamma^2
  fe_sub(t1, beta, r.x);
  fe_mul(t1, alpha, t1);
  fe_sqr(t2, gamma);
  fe_add(t2, t2, t2);
  fe_add(t2, t2, t2);
  fe_add(t2, t2, t2);
  fe_sub(r.y, t1, t2);
}

// r = a + b. r may alias a or b.
void jadd(Jac& r, const Jac& a, const Jac& b) {
  if (is_infinity(a)) {
    r = b;
    return;
  }
  if (is_infinity(b)) {
    r = a;
    return;
  }
  Fe z1z1, z2z2, u1, u2, s1, s2, t;
  fe_sqr(z1z1, a.z);
  fe_sqr(z2z2, b.z);
  fe_mul(u1, a.x, z2z2);
  fe_mul(u2, b.x, z1z1);
  fe_mul(t, a.y, b.z);
  fe_mul(s1, t, z2z2);
  fe_mul(t, b.y, a.z);
  fe_mul(s2, t, z1z1);
  if (fe_eq(u1, u2)) {
    if (fe_eq(s1, s2)) {
      jdbl(r, a);
    } else {
      set_infinity(r);
    }
    return;
  }
  Fe h, i, j, rr, v;
  fe_sub(h, u2, u1);
  fe_add(i, h, h);
  fe_sqr(i, i);
  fe_mul(j, h, i);
  fe_sub(rr, s2, s1);
  fe_add(rr, rr, rr);
  fe_mul(v, u1, i);
  Jac out;
  // X3 = r^2 - J - 2V
  fe_sqr(out.x, rr);
  fe_sub(out.x, out.x, j);
  fe_add(t, v, v);
  fe_sub(out.x, out.x, t);
  // Y3 = r (V - X3) - 2 S1 J
  fe_sub(t, v, out.x);
  fe_mul(out.y, rr, t);
  fe_mul(t, s1, j);
  fe_add(t, t, t);
  fe_sub(out.y, out.y, t);
  // Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2) H
  fe_add(t, a.z, b.z);
  fe_sqr(t, t);
  fe_sub(t, t, z1z1);
  fe_sub(t, t, z2z2);
  fe_mul(out.z, t, h);
  r = out;
}

// r = a + b for an affine b (Z2 = 1). r may alias a.
void madd(Jac& r, const Jac& a, const Aff& b, const Consts& c) {
  if (is_infinity(a)) {
    r.x = b.x;
    r.y = b.y;
    r.z = c.one;
    return;
  }
  Fe z1z1, u2, s2, h, rr, t;
  fe_sqr(z1z1, a.z);
  fe_mul(u2, b.x, z1z1);
  fe_mul(t, b.y, a.z);
  fe_mul(s2, t, z1z1);
  fe_sub(h, u2, a.x);
  fe_sub(rr, s2, a.y);
  if (fe_is_zero(h)) {
    if (fe_is_zero(rr)) {
      jdbl(r, a);
    } else {
      set_infinity(r);
    }
    return;
  }
  Fe hh, i, j, v;
  fe_sqr(hh, h);
  fe_add(i, hh, hh);
  fe_add(i, i, i);
  fe_mul(j, h, i);
  fe_add(rr, rr, rr);
  fe_mul(v, a.x, i);
  Jac out;
  // X3 = r^2 - J - 2V
  fe_sqr(out.x, rr);
  fe_sub(out.x, out.x, j);
  fe_add(t, v, v);
  fe_sub(out.x, out.x, t);
  // Y3 = r (V - X3) - 2 Y1 J
  fe_sub(t, v, out.x);
  fe_mul(out.y, rr, t);
  fe_mul(t, a.y, j);
  fe_add(t, t, t);
  fe_sub(out.y, out.y, t);
  // Z3 = (Z1 + H)^2 - Z1Z1 - HH
  fe_add(t, a.z, h);
  fe_sqr(t, t);
  fe_sub(t, t, z1z1);
  fe_sub(out.z, t, hh);
  r = out;
}

EcPoint to_affine(const Jac& p) {
  if (is_infinity(p)) return EcPoint::at_infinity();
  Fe zinv, zinv2, zinv3, x, y;
  fe_inv(zinv, p.z);
  fe_sqr(zinv2, zinv);
  fe_mul(zinv3, zinv2, zinv);
  fe_mul(x, p.x, zinv2);
  fe_mul(y, p.y, zinv3);
  return EcPoint::affine(from_mont(x), from_mont(y));
}

// The 4-bit digit w (0 = least significant) of a scalar below 2^256.
unsigned digit(const Bignum& k, size_t w) {
  return static_cast<unsigned>(k.limb(w / 16) >> (4 * (w % 16))) & 15;
}

constexpr size_t kWindows = 64;

// pts[w][d - 1] = d * 16^w * G, affine: 64 * 15 * 64 bytes.
struct GTable {
  Aff pts[kWindows][15];

  GTable() {
    const Consts& c = consts();
    // Every multiple in Jacobian form first, then one batched inversion
    // (Montgomery's trick) for all 960 Z coordinates.
    std::vector<Jac> jac(kWindows * 15);
    Jac base{c.g.x, c.g.y, c.one};
    for (size_t w = 0; w < kWindows; ++w) {
      Jac* row = &jac[w * 15];
      row[0] = base;
      jdbl(row[1], base);
      for (size_t d = 2; d < 15; ++d) jadd(row[d], row[d - 1], base);
      for (int s = 0; s < 4; ++s) jdbl(base, base);
    }
    std::vector<Fe> prefix(jac.size());
    Fe acc = c.one;
    for (size_t i = 0; i < jac.size(); ++i) {
      prefix[i] = acc;
      fe_mul(acc, acc, jac[i].z);
    }
    Fe inv;
    fe_inv(inv, acc);
    for (size_t i = jac.size(); i-- > 0;) {
      Fe zinv, zinv2, zinv3;
      fe_mul(zinv, inv, prefix[i]);
      fe_mul(inv, inv, jac[i].z);
      fe_sqr(zinv2, zinv);
      fe_mul(zinv3, zinv2, zinv);
      Aff& out = pts[i / 15][i % 15];
      fe_mul(out.x, jac[i].x, zinv2);
      fe_mul(out.y, jac[i].y, zinv3);
    }
  }
};

const GTable& g_table() {
  static const GTable table;
  return table;
}

}  // namespace

bool on_curve(const EcPoint& pt) {
  if (pt.infinity) return true;
  // Coordinates must be below p: compare limbs from the top.
  for (const Bignum* v : {&pt.x, &pt.y}) {
    if (v->limb_count() > 4) return false;
    for (size_t i = 4; i-- > 0;) {
      if (v->limb(i) != kP[i]) {
        if (v->limb(i) > kP[i]) return false;
        break;
      }
      if (i == 0) return false;  // equal to p
    }
  }
  const Consts& c = consts();
  Fe x, y, lhs, rhs, t;
  to_mont(x, pt.x, c);
  to_mont(y, pt.y, c);
  // y^2 == x^3 - 3x + b
  fe_sqr(lhs, y);
  fe_sqr(rhs, x);
  fe_mul(rhs, rhs, x);
  fe_add(t, x, x);
  fe_add(t, t, x);
  fe_sub(rhs, rhs, t);
  fe_add(rhs, rhs, c.b);
  return fe_eq(lhs, rhs);
}

EcPoint mul(const Bignum& k, const EcPoint& pt) {
  const Consts& c = consts();
  Aff p;
  to_mont(p.x, pt.x, c);
  to_mont(p.y, pt.y, c);
  Jac table[16] = {};  // table[d] = d * P
  table[1] = Jac{p.x, p.y, c.one};
  jdbl(table[2], table[1]);
  for (size_t d = 3; d < 16; ++d) madd(table[d], table[d - 1], p, c);

  Jac acc;
  set_infinity(acc);
  for (size_t w = kWindows; w-- > 0;) {
    if (!is_infinity(acc))
      for (int s = 0; s < 4; ++s) jdbl(acc, acc);
    if (const unsigned d = digit(k, w)) jadd(acc, acc, table[d]);
  }
  return to_affine(acc);
}

EcPoint mul_base(const Bignum& k) {
  const Consts& c = consts();
  const GTable& table = g_table();
  Jac acc;
  set_infinity(acc);
  for (size_t w = 0; w < kWindows; ++w)
    if (const unsigned d = digit(k, w)) madd(acc, acc, table.pts[w][d - 1], c);
  return to_affine(acc);
}

}  // namespace qtls::asym_impl::p256
