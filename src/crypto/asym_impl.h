// Internal to src/crypto: the implementations behind MontCtx::exp and
// EcCurve's scalar multiplication and curve check.
//
//   kGeneric  heap-backed Bignum arithmetic (bn.cc, ec.cc): any odd modulus,
//             any prime curve. The reference the tests compare the other
//             paths against.
//   kFixed    stack-resident, loop-unrolled kernels for exactly the shapes
//             a handshake runs: Montgomery exponentiation modulo odd 4-, 16-
//             and 32-limb moduli (mont_fixed.cc: the ECDSA nonce inverse mod
//             P-256's order, the RSA-2048 CRT halves and Miller-Rabin on
//             1024-bit candidates where IFMA is absent, the RSA-2048 public
//             op) and P-256 on a 4-limb Montgomery field (p256.cc). They
//             allocate only to convert their inputs and outputs.
//   kIfma     AVX-512 IFMA Montgomery exponentiation modulo odd 16-limb
//             moduli (mont_ifma.cc) on a fixed window schedule with masked
//             table reads. rsa_private_op runs both CRT halves through one
//             interleaved call.
//
// The operand shape and one CPUID read pick the path: a MontCtx runs kIfma
// exactly when its modulus has 16 limbs and ifma_available(), kFixed when it
// has 4, 16 or 32 limbs otherwise, and kGeneric for every other shape; an
// EcCurve runs kFixed exactly when its parameters are P-256's. kFixed and
// kGeneric are variable-time (DESIGN.md §6). Access exists so tests can run
// the paths side by side.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/bn.h"
#include "crypto/ec.h"

namespace qtls::asym_impl {

enum class Path : uint8_t { kGeneric, kFixed, kIfma };

// True when the CPU has AVX512F, AVX512VL and AVX512IFMA: a CPUID read,
// cached per process.
bool ifma_available();

// Reaches MontCtx and EcCurve internals for the kernels and the tests.
struct Access {
  // Throws std::invalid_argument for a shape the path does not run, and for
  // kIfma when !ifma_available().
  static MontCtx make_mont(const Bignum& modulus, Path path) {
    return MontCtx(modulus, path);
  }
  static Path path(const MontCtx& ctx) { return ctx.path_; }
  static uint64_t n0inv(const MontCtx& ctx) { return ctx.n0inv_; }
  static const Bignum& rr(const MontCtx& ctx) { return ctx.rr_; }
  // 2^2080 mod n: R^2 for kIfma's 52-bit digits (set on kIfma contexts).
  static const Bignum& rr_ifma(const MontCtx& ctx) { return ctx.rr_ifma_; }

  // A P-256 curve object that runs on `path` (kFixed is curve_p256()).
  static const EcCurve& p256(Path path);
  static Path path(const EcCurve& curve) { return curve.path_; }
};

// Sliding-window width for an exponent of `bits` bits: a plain binary ladder
// (width 1) for short exponents such as 65537, up to 6 for RSA-2048 CRT
// exponents. Both exponentiation paths use this rule.
inline int exp_window_bits(size_t bits) {
  return bits > 671 ? 6 : bits > 239 ? 5 : bits > 79 ? 4 : bits > 23 ? 3 : 1;
}

// Left-to-right sliding-window scan of a nonzero exponent e with windows of
// at most `w` bits that start and end with a set bit. `first(i)` loads the
// leading window's odd power (table index i = value >> 1); then `sqr()` runs
// once per remaining bit and `mul(i)` once per remaining window.
template <class First, class Sqr, class Mul>
void scan_windows(const Bignum& e, int w, First first, Sqr sqr, Mul mul) {
  size_t top = e.bit_length();  // bits [0, top) remain
  bool started = false;
  while (top > 0) {
    if (!e.bit(top - 1)) {
      sqr();
      --top;
      continue;
    }
    size_t low = top > static_cast<size_t>(w) ? top - static_cast<size_t>(w) : 0;
    while (!e.bit(low)) ++low;
    size_t value = 0;
    for (size_t b = top; b-- > low;) value = (value << 1) | (e.bit(b) ? 1 : 0);
    if (!started) {
      first(value >> 1);
      started = true;
    } else {
      for (size_t s = low; s < top; ++s) sqr();
      mul(value >> 1);
    }
    top = low;
  }
}

// lo(a * b + c + carry), leaving the high word in carry: the step of every
// fixed-width product. The sum never exceeds 128 bits; the two separate
// carry-outs compile to add/adc pairs where one 128-bit sum would
// round-trip through the stack.
inline uint64_t mac(uint64_t a, uint64_t b, uint64_t c, uint64_t& carry) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  uint64_t lo = static_cast<uint64_t>(p);
  uint64_t hi = static_cast<uint64_t>(p >> 64);
  lo += c;
  hi += lo < c;
  lo += carry;
  hi += lo < carry;
  carry = hi;
  return lo;
}

// lo(a - b - borrow), leaving the borrow-out (0 or 1) in borrow.
inline uint64_t sbb(uint64_t a, uint64_t b, uint64_t& borrow) {
  const unsigned __int128 d =
      static_cast<unsigned __int128>(a) - b - borrow;
  borrow = static_cast<uint64_t>(d >> 64) & 1;
  return static_cast<uint64_t>(d);
}

// The kFixed Montgomery exponentiation (mont_fixed.cc): a^e mod n for a
// context whose modulus has 4, 16 or 32 limbs.
Bignum fixed_mont_exp(const MontCtx& ctx, const Bignum& a, const Bignum& e);

// The kIfma Montgomery exponentiations (mont_ifma.cc), for kIfma contexts.
// ifma_mont_exp runs one exponentiation over the exponent's length (an
// exponent past 1024 bits goes to fixed_mont_exp). ifma_mont_exp_x2 runs
// a^ep mod p and a^eq mod q side by side over the full 1024 bits, for
// ep and eq below 2^1024.
Bignum ifma_mont_exp(const MontCtx& ctx, const Bignum& a, const Bignum& e);
void ifma_mont_exp_x2(const MontCtx& ctx_p, const Bignum& ep,
                      const MontCtx& ctx_q, const Bignum& eq, const Bignum& a,
                      Bignum& out_p, Bignum& out_q);

// The kFixed P-256 operations (p256.cc). Points are affine with coordinates
// below p (on_curve checks that); scalars are already reduced mod the order
// and nonzero, and points passed to mul are finite.
namespace p256 {
bool on_curve(const EcPoint& pt);
EcPoint mul(const Bignum& k, const EcPoint& pt);
// k * G from a table of G's multiples built once per process.
EcPoint mul_base(const Bignum& k);
}  // namespace p256

}  // namespace qtls::asym_impl
