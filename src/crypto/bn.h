// Arbitrary-precision unsigned integers for the crypto substrate.
//
// Representation: little-endian vector of 64-bit limbs, normalized so the
// most significant limb is nonzero (zero is the empty vector). All values
// are non-negative; the one algorithm that needs signed intermediates
// (extended gcd for modular inverse) handles sign locally.
//
// This is functional cryptography, not side-channel hardened (see
// DESIGN.md §6): branches and early exits depend on values. Bignum is the
// general-purpose reference; crypto/asym_impl.h sets which shapes run on
// fixed-width kernels instead, and EXPERIMENTS.md gives measured per-op
// costs. The figure benches charge calibrated costs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace qtls {

namespace asym_impl {
enum class Path : uint8_t;
struct Access;
}  // namespace asym_impl (crypto/asym_impl.h)

struct BnDivMod;

class Bignum {
 public:
  Bignum() = default;
  explicit Bignum(uint64_t v) {
    if (v != 0) limbs_.push_back(v);
  }

  static Bignum from_bytes_be(BytesView bytes);
  static Bignum from_hex(const std::string& hex);

  // Big-endian, padded with leading zeros to `width` (0 = minimal, at least
  // one byte).
  Bytes to_bytes_be(size_t width = 0) const;
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_one() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  size_t bit_length() const;
  size_t byte_length() const { return (bit_length() + 7) / 8; }
  bool bit(size_t i) const;
  uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  size_t limb_count() const { return limbs_.size(); }
  uint64_t limb(size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }

  // -1 / 0 / +1.
  static int cmp(const Bignum& a, const Bignum& b);
  friend bool operator==(const Bignum& a, const Bignum& b) {
    return cmp(a, b) == 0;
  }
  friend bool operator<(const Bignum& a, const Bignum& b) {
    return cmp(a, b) < 0;
  }
  friend bool operator<=(const Bignum& a, const Bignum& b) {
    return cmp(a, b) <= 0;
  }
  friend bool operator>(const Bignum& a, const Bignum& b) {
    return cmp(a, b) > 0;
  }
  friend bool operator>=(const Bignum& a, const Bignum& b) {
    return cmp(a, b) >= 0;
  }

  static Bignum add(const Bignum& a, const Bignum& b);
  // Requires a >= b.
  static Bignum sub(const Bignum& a, const Bignum& b);
  static Bignum mul(const Bignum& a, const Bignum& b);
  static Bignum sqr(const Bignum& a) { return mul(a, a); }
  static Bignum shl(const Bignum& a, size_t bits);
  static Bignum shr(const Bignum& a, size_t bits);

  // Requires b != 0.
  static BnDivMod divmod(const Bignum& a, const Bignum& b);
  static Bignum mod(const Bignum& a, const Bignum& m);

  static Bignum mod_add(const Bignum& a, const Bignum& b, const Bignum& m);
  static Bignum mod_sub(const Bignum& a, const Bignum& b, const Bignum& m);
  static Bignum mod_mul(const Bignum& a, const Bignum& b, const Bignum& m);
  // a^e mod m; m odd uses Montgomery internally, even m falls back to
  // square-and-multiply with division.
  static Bignum mod_exp(const Bignum& a, const Bignum& e, const Bignum& m);
  // Multiplicative inverse of a mod m; returns zero if gcd(a, m) != 1.
  static Bignum mod_inverse(const Bignum& a, const Bignum& m);
  static Bignum gcd(const Bignum& a, const Bignum& b);

  // In-place helpers used by tight loops.
  void trim();

  std::vector<uint64_t>& limbs() { return limbs_; }
  const std::vector<uint64_t>& limbs() const { return limbs_; }

 private:
  std::vector<uint64_t> limbs_;
};

struct BnDivMod {
  Bignum quotient;
  Bignum remainder;
};

inline Bignum Bignum::mod(const Bignum& a, const Bignum& m) {
  return divmod(a, m).remainder;
}

// Montgomery context for repeated multiplication modulo an odd modulus.
// exp() picks its path as crypto/asym_impl.h sets out.
class MontCtx {
 public:
  explicit MontCtx(const Bignum& modulus);

  const Bignum& modulus() const { return n_; }
  size_t limbs() const { return k_; }

  // Conversions to/from the Montgomery domain.
  Bignum to_mont(const Bignum& a) const;
  Bignum from_mont(const Bignum& a) const;

  // (a * b * R^-1) mod n for a, b already in the Montgomery domain.
  Bignum mul(const Bignum& a, const Bignum& b) const;
  // a^e mod n (a in the normal domain; result in the normal domain).
  Bignum exp(const Bignum& a, const Bignum& e) const;
  Bignum one_mont() const { return to_mont(Bignum(1)); }

 private:
  friend struct asym_impl::Access;
  MontCtx(const Bignum& modulus, asym_impl::Path path);

  asym_impl::Path path_;
  Bignum n_;
  size_t k_;        // limb count of n
  uint64_t n0inv_;  // -n^{-1} mod 2^64
  Bignum rr_;       // R^2 mod n, R = 2^(64k)
  Bignum rr_ifma_;  // 2^2080 mod n on kIfma contexts (R = 2^1040)
};

}  // namespace qtls
