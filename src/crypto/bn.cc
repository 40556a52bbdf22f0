#include "crypto/bn.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "crypto/asym_impl.h"

namespace qtls {

using u128 = unsigned __int128;

void Bignum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

Bignum Bignum::from_bytes_be(BytesView bytes) {
  Bignum out;
  out.limbs_.resize((bytes.size() + 7) / 8, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    const size_t byte_from_lsb = bytes.size() - 1 - i;
    out.limbs_[byte_from_lsb / 8] |= static_cast<uint64_t>(bytes[i])
                                     << (8 * (byte_from_lsb % 8));
  }
  out.trim();
  return out;
}

Bignum Bignum::from_hex(const std::string& hex) {
  std::string h = hex;
  if (h.size() % 2 != 0) h.insert(h.begin(), '0');
  return from_bytes_be(qtls::from_hex(h));
}

Bytes Bignum::to_bytes_be(size_t width) const {
  size_t len = byte_length();
  if (len == 0) len = 1;
  if (width > len) len = width;
  Bytes out(len, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    for (size_t b = 0; b < 8; ++b) {
      const size_t byte_from_lsb = i * 8 + b;
      if (byte_from_lsb >= len) break;
      out[len - 1 - byte_from_lsb] =
          static_cast<uint8_t>(limbs_[i] >> (8 * b));
    }
  }
  return out;
}

std::string Bignum::to_hex() const {
  if (is_zero()) return "00";
  return qtls::to_hex(to_bytes_be());
}

size_t Bignum::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 64 +
         (64 - static_cast<size_t>(std::countl_zero(limbs_.back())));
}

bool Bignum::bit(size_t i) const {
  const size_t limb_idx = i / 64;
  if (limb_idx >= limbs_.size()) return false;
  return (limbs_[limb_idx] >> (i % 64)) & 1;
}

int Bignum::cmp(const Bignum& a, const Bignum& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

Bignum Bignum::add(const Bignum& a, const Bignum& b) {
  const auto& x = a.limbs_.size() >= b.limbs_.size() ? a.limbs_ : b.limbs_;
  const auto& y = a.limbs_.size() >= b.limbs_.size() ? b.limbs_ : a.limbs_;
  Bignum out;
  out.limbs_.resize(x.size() + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    u128 s = static_cast<u128>(x[i]) + (i < y.size() ? y[i] : 0) + carry;
    out.limbs_[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  out.limbs_[x.size()] = carry;
  out.trim();
  return out;
}

Bignum Bignum::sub(const Bignum& a, const Bignum& b) {
  assert(cmp(a, b) >= 0 && "Bignum::sub underflow");
  Bignum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    const uint64_t bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    const uint64_t ai = a.limbs_[i];
    uint64_t d = ai - bi;
    const uint64_t borrow1 = ai < bi ? 1u : 0u;
    const uint64_t d2 = d - borrow;
    const uint64_t borrow2 = d < borrow ? 1u : 0u;
    out.limbs_[i] = d2;
    borrow = borrow1 | borrow2;
  }
  out.trim();
  return out;
}

Bignum Bignum::mul(const Bignum& a, const Bignum& b) {
  if (a.is_zero() || b.is_zero()) return Bignum();
  Bignum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    const uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 t = static_cast<u128>(ai) * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    out.limbs_[i + b.limbs_.size()] = carry;
  }
  out.trim();
  return out;
}

Bignum Bignum::shl(const Bignum& a, size_t bits) {
  if (a.is_zero() || bits == 0) {
    Bignum out = a;
    return out;
  }
  const size_t limb_shift = bits / 64;
  const size_t bit_shift = bits % 64;
  Bignum out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift ? (a.limbs_[i] << bit_shift)
                                            : a.limbs_[i];
    if (bit_shift)
      out.limbs_[i + limb_shift + 1] |= a.limbs_[i] >> (64 - bit_shift);
  }
  out.trim();
  return out;
}

Bignum Bignum::shr(const Bignum& a, size_t bits) {
  const size_t limb_shift = bits / 64;
  if (limb_shift >= a.limbs_.size()) return Bignum();
  const size_t bit_shift = bits % 64;
  Bignum out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift ? (a.limbs_[i + limb_shift] >> bit_shift)
                              : a.limbs_[i + limb_shift];
    if (bit_shift && i + limb_shift + 1 < a.limbs_.size())
      out.limbs_[i] |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  out.trim();
  return out;
}

// Knuth TAOCP vol.2 algorithm D with 64-bit digits.
BnDivMod Bignum::divmod(const Bignum& a, const Bignum& b) {
  if (b.is_zero()) throw std::invalid_argument("Bignum division by zero");
  if (cmp(a, b) < 0) return {Bignum(), a};
  if (b.limbs_.size() == 1) {
    // Single-limb fast path.
    const uint64_t d = b.limbs_[0];
    Bignum q;
    q.limbs_.assign(a.limbs_.size(), 0);
    u128 rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint64_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, Bignum(static_cast<uint64_t>(rem))};
  }

  // Normalize so the divisor's top limb has its high bit set.
  const size_t shift =
      static_cast<size_t>(std::countl_zero(b.limbs_.back()));
  Bignum u = shl(a, shift);
  Bignum v = shl(b, shift);
  const size_t n = v.limbs_.size();
  const size_t m = u.limbs_.size() - n;
  u.limbs_.resize(u.limbs_.size() + 1, 0);  // u[m+n] slot

  Bignum q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t v1 = v.limbs_[n - 1];
  const uint64_t v2 = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    const u128 top = (static_cast<u128>(u.limbs_[j + n]) << 64) |
                     u.limbs_[j + n - 1];
    u128 qhat = top / v1;
    u128 rhat = top % v1;
    while (qhat >> 64 ||
           qhat * v2 > ((rhat << 64) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v1;
      if (rhat >> 64) break;
    }
    // u[j..j+n] -= qhat * v
    u128 borrow = 0;
    u128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 p = qhat * v.limbs_[i] + carry;
      carry = p >> 64;
      const uint64_t plo = static_cast<uint64_t>(p);
      const uint64_t ui = u.limbs_[j + i];
      const uint64_t sub1 = ui - plo;
      uint64_t nb = ui < plo ? 1u : 0u;
      const uint64_t blo = static_cast<uint64_t>(borrow);
      const uint64_t sub2 = sub1 - blo;
      nb += sub1 < blo ? 1u : 0u;
      u.limbs_[j + i] = sub2;
      borrow = nb;
    }
    const u128 total_sub = carry + borrow;
    const uint64_t utop = u.limbs_[j + n];
    u.limbs_[j + n] = utop - static_cast<uint64_t>(total_sub);
    if (utop < static_cast<uint64_t>(total_sub)) {
      // qhat was one too large: add back.
      --qhat;
      u128 c = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 s = static_cast<u128>(u.limbs_[j + i]) + v.limbs_[i] + c;
        u.limbs_[j + i] = static_cast<uint64_t>(s);
        c = s >> 64;
      }
      u.limbs_[j + n] += static_cast<uint64_t>(c);
    }
    q.limbs_[j] = static_cast<uint64_t>(qhat);
  }
  q.trim();
  u.trim();
  return {q, shr(u, shift)};
}

Bignum Bignum::mod_add(const Bignum& a, const Bignum& b, const Bignum& m) {
  Bignum s = add(a, b);
  if (cmp(s, m) >= 0) s = mod(s, m);
  return s;
}

Bignum Bignum::mod_sub(const Bignum& a, const Bignum& b, const Bignum& m) {
  Bignum ar = cmp(a, m) >= 0 ? mod(a, m) : a;
  Bignum br = cmp(b, m) >= 0 ? mod(b, m) : b;
  if (cmp(ar, br) >= 0) return sub(ar, br);
  return sub(add(ar, m), br);
}

Bignum Bignum::mod_mul(const Bignum& a, const Bignum& b, const Bignum& m) {
  return mod(mul(a, b), m);
}

Bignum Bignum::mod_exp(const Bignum& a, const Bignum& e, const Bignum& m) {
  if (m.is_zero()) throw std::invalid_argument("mod_exp modulus zero");
  if (m.is_one()) return Bignum();
  if (m.is_odd()) {
    MontCtx ctx(m);
    return ctx.exp(a, e);
  }
  // Rare path (even modulus): plain square-and-multiply.
  Bignum base = mod(a, m);
  Bignum result(1);
  for (size_t i = e.bit_length(); i-- > 0;) {
    result = mod_mul(result, result, m);
    if (e.bit(i)) result = mod_mul(result, base, m);
  }
  return result;
}

Bignum Bignum::gcd(const Bignum& a, const Bignum& b) {
  Bignum x = a, y = b;
  while (!y.is_zero()) {
    Bignum r = mod(x, y);
    x = y;
    y = r;
  }
  return x;
}

namespace {
// Signed value for the extended-Euclid bookkeeping.
struct SignedBig {
  Bignum mag;
  bool neg = false;

  static SignedBig diff(const SignedBig& a, const SignedBig& b) {
    // a - b
    if (a.neg == b.neg) {
      if (Bignum::cmp(a.mag, b.mag) >= 0)
        return {Bignum::sub(a.mag, b.mag), a.neg};
      return {Bignum::sub(b.mag, a.mag), !a.neg};
    }
    return {Bignum::add(a.mag, b.mag), a.neg};
  }
  static SignedBig mul(const SignedBig& a, const Bignum& b) {
    return {Bignum::mul(a.mag, b), a.neg};
  }
};
}  // namespace

Bignum Bignum::mod_inverse(const Bignum& a, const Bignum& m) {
  if (m.is_zero() || m.is_one()) return Bignum();
  Bignum r0 = m, r1 = mod(a, m);
  SignedBig t0{Bignum(), false}, t1{Bignum(1), false};
  while (!r1.is_zero()) {
    BnDivMod dm = divmod(r0, r1);
    SignedBig t2 = SignedBig::diff(t0, SignedBig::mul(t1, dm.quotient));
    r0 = r1;
    r1 = dm.remainder;
    t0 = t1;
    t1 = t2;
  }
  if (!r0.is_one()) return Bignum();  // not invertible
  if (t0.neg) return sub(m, mod(t0.mag, m));
  return mod(t0.mag, m);
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic
// ---------------------------------------------------------------------------

namespace {
uint64_t neg_inv_mod_2_64(uint64_t n) {
  // Newton iteration: x_{k+1} = x_k (2 - n x_k); 6 iterations suffice for 64
  // bits starting from x ≡ n (mod 8) being its own inverse mod 8 for odd n.
  uint64_t x = n;
  for (int i = 0; i < 6; ++i) x *= 2 - n * x;
  return ~x + 1;  // -n^{-1}
}
}  // namespace

namespace {
asym_impl::Path path_for(size_t limbs) {
  if (limbs == 16 && asym_impl::ifma_available()) return asym_impl::Path::kIfma;
  if (limbs == 4 || limbs == 16 || limbs == 32) return asym_impl::Path::kFixed;
  return asym_impl::Path::kGeneric;
}
}  // namespace

MontCtx::MontCtx(const Bignum& modulus)
    : MontCtx(modulus, path_for(modulus.limb_count())) {}

MontCtx::MontCtx(const Bignum& modulus, asym_impl::Path path)
    : path_(path), n_(modulus) {
  if (!modulus.is_odd())
    throw std::invalid_argument("MontCtx requires odd modulus");
  k_ = n_.limb_count();
  if (path_ == asym_impl::Path::kFixed && k_ != 4 && k_ != 16 && k_ != 32)
    throw std::invalid_argument("fixed-width MontCtx needs 4, 16 or 32 limbs");
  if (path_ == asym_impl::Path::kIfma &&
      (k_ != 16 || !asym_impl::ifma_available()))
    throw std::invalid_argument("IFMA MontCtx needs 16 limbs and IFMA");
  n0inv_ = neg_inv_mod_2_64(n_.limb(0));
  // R^2 mod n, R = 2^(64k).
  Bignum r2 = Bignum::shl(Bignum(1), 64 * k_ * 2);
  rr_ = Bignum::mod(r2, n_);
  if (path_ == asym_impl::Path::kIfma)
    rr_ifma_ = Bignum::mod(Bignum::shl(Bignum(1), 2080), n_);
}

Bignum MontCtx::to_mont(const Bignum& a) const { return mul(a, rr_); }

Bignum MontCtx::from_mont(const Bignum& a) const { return mul(a, Bignum(1)); }

// CIOS Montgomery multiplication.
Bignum MontCtx::mul(const Bignum& a, const Bignum& b) const {
  const size_t k = k_;
  // t has k+2 limbs.
  std::vector<uint64_t> t(k + 2, 0);
  for (size_t i = 0; i < k; ++i) {
    const uint64_t ai = a.limb(i);
    // t += ai * b
    uint64_t carry = 0;
    for (size_t j = 0; j < k; ++j) {
      u128 s = static_cast<u128>(ai) * b.limb(j) + t[j] + carry;
      t[j] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    u128 s = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<uint64_t>(s);
    t[k + 1] = static_cast<uint64_t>(s >> 64);

    // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
    const uint64_t m = t[0] * n0inv_;
    carry = 0;
    {
      u128 s0 = static_cast<u128>(m) * n_.limb(0) + t[0];
      carry = static_cast<uint64_t>(s0 >> 64);
    }
    for (size_t j = 1; j < k; ++j) {
      u128 sj = static_cast<u128>(m) * n_.limb(j) + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(sj);
      carry = static_cast<uint64_t>(sj >> 64);
    }
    u128 sk = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<uint64_t>(sk);
    t[k] = t[k + 1] + static_cast<uint64_t>(sk >> 64);
    t[k + 1] = 0;
  }
  Bignum out;
  out.limbs().assign(t.begin(), t.begin() + static_cast<ptrdiff_t>(k + 1));
  out.trim();
  if (Bignum::cmp(out, n_) >= 0) out = Bignum::sub(out, n_);
  return out;
}

Bignum MontCtx::exp(const Bignum& a, const Bignum& e) const {
  if (path_ == asym_impl::Path::kIfma)
    return asym_impl::ifma_mont_exp(*this, a, e);
  if (path_ == asym_impl::Path::kFixed)
    return asym_impl::fixed_mont_exp(*this, a, e);
  if (e.is_zero()) return Bignum::mod(Bignum(1), n_);
  const Bignum base = to_mont(Bignum::mod(a, n_));

  // Odd powers base^1, base^3, ... for the sliding windows.
  const int w = asym_impl::exp_window_bits(e.bit_length());
  std::vector<Bignum> table(size_t{1} << (w - 1));
  table[0] = base;
  if (table.size() > 1) {
    const Bignum base2 = mul(base, base);
    for (size_t i = 1; i < table.size(); ++i)
      table[i] = mul(table[i - 1], base2);
  }
  Bignum acc;
  asym_impl::scan_windows(
      e, w, [&](size_t i) { acc = table[i]; }, [&] { acc = mul(acc, acc); },
      [&](size_t i) { acc = mul(acc, table[i]); });
  return from_mont(acc);
}

}  // namespace qtls
