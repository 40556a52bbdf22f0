// Fixed-width Montgomery exponentiation (path selection:
// crypto/asym_impl.h). Operands, window table and accumulator are stack
// arrays of a compile-time limb count, and the product (or the dedicated
// square) and the reduction are separate passes.
#include <algorithm>
#include <cstring>

#include "crypto/asym_impl.h"

namespace qtls::asym_impl {

namespace {

template <size_t N>
class FixedMont {
 public:
  FixedMont(const uint64_t* n, uint64_t n0inv) : n_(n), n0inv_(n0inv) {}

  // r = a * b * R^-1 mod n for a, b < n. r may alias a or b.
  void mul(uint64_t* r, const uint64_t* a, const uint64_t* b) const {
    uint64_t t[2 * N] = {};
    for (size_t i = 0; i < N; ++i) {
      const uint64_t ai = a[i];
      uint64_t carry = 0;
#pragma GCC unroll 32
      for (size_t j = 0; j < N; ++j) t[i + j] = mac(ai, b[j], t[i + j], carry);
      t[i + N] = carry;
    }
    redc(r, t);
  }

  // r = a^2 * R^-1 mod n for a < n: each cross product a[i] * a[j] (i < j)
  // once, doubled, plus the squares a[i]^2. r may alias a.
  void sqr(uint64_t* r, const uint64_t* a) const {
    uint64_t t[2 * N] = {};
    for (size_t i = 0; i + 1 < N; ++i) {
      const uint64_t ai = a[i];
      uint64_t carry = 0;
#pragma GCC unroll 32
      for (size_t j = i + 1; j < N; ++j)
        t[i + j] = mac(ai, a[j], t[i + j], carry);
      t[i + N] = carry;
    }
    for (size_t i = 2 * N - 1; i > 0; --i)
      t[i] = (t[i] << 1) | (t[i - 1] >> 63);
    t[0] <<= 1;
    uint64_t carry = 0;
#pragma GCC unroll 32
    for (size_t i = 0; i < N; ++i) {
      uint64_t hi = carry;
      t[2 * i] = mac(a[i], a[i], t[2 * i], hi);
      t[2 * i + 1] += hi;
      carry = t[2 * i + 1] < hi;
    }
    redc(r, t);
  }

  // r = t * R^-1 mod n for t < n * R. Clobbers t.
  void redc(uint64_t* r, uint64_t* t) const {
    uint64_t top = 0;
    for (size_t i = 0; i < N; ++i) {
      const uint64_t m = t[i] * n0inv_;
      uint64_t carry = 0;
#pragma GCC unroll 32
      for (size_t j = 0; j < N; ++j) t[i + j] = mac(m, n_[j], t[i + j], carry);
      uint64_t x = t[i + N] + carry;
      uint64_t c = x < carry;
      x += top;
      c += x < top;
      t[i + N] = x;
      top = c;
    }
    // top:t[N..2N) is below 2n; subtract n once if it reaches n.
    const uint64_t* x = t + N;
    uint64_t d[N];
    uint64_t borrow = 0;
    for (size_t j = 0; j < N; ++j) d[j] = sbb(x[j], n_[j], borrow);
    std::memcpy(r, top != 0 || borrow == 0 ? d : x, N * sizeof(uint64_t));
  }

 private:
  const uint64_t* n_;
  uint64_t n0inv_;
};

// Copies v (at most N limbs) into N limbs.
template <size_t N>
void load(uint64_t* out, const Bignum& v) {
  const auto& limbs = v.limbs();
  std::fill(std::copy(limbs.begin(), limbs.end(), out), out + N, 0);
}

template <size_t N>
Bignum exp_n(const MontCtx& ctx, const Bignum& a, const Bignum& e) {
  const Bignum& n = ctx.modulus();
  if (e.is_zero()) return Bignum(1);  // n > 1 for every 4-, 16- or 32-limb n
  const FixedMont<N> m(n.limbs().data(), Access::n0inv(ctx));

  uint64_t rr[N];
  load<N>(rr, Access::rr(ctx));
  uint64_t base[N];
  if (Bignum::cmp(a, n) >= 0)
    load<N>(base, Bignum::mod(a, n));
  else
    load<N>(base, a);

  // Odd powers base^1, base^3, ... in the Montgomery domain.
  const int w = exp_window_bits(e.bit_length());
  const size_t entries = size_t{1} << (w - 1);
  uint64_t table[32][N] = {};
  m.mul(table[0], base, rr);
  if (entries > 1) {
    uint64_t base2[N];
    m.sqr(base2, table[0]);
    for (size_t i = 1; i < entries; ++i) m.mul(table[i], table[i - 1], base2);
  }

  uint64_t acc[N] = {};
  scan_windows(
      e, w, [&](size_t i) { std::memcpy(acc, table[i], sizeof(acc)); },
      [&] { m.sqr(acc, acc); }, [&](size_t i) { m.mul(acc, acc, table[i]); });

  // Out of the Montgomery domain: one reduction of acc.
  uint64_t t[2 * N] = {};
  std::memcpy(t, acc, sizeof(acc));
  m.redc(acc, t);
  Bignum out;
  out.limbs().assign(acc, acc + N);
  out.trim();
  return out;
}

}  // namespace

Bignum fixed_mont_exp(const MontCtx& ctx, const Bignum& a, const Bignum& e) {
  switch (ctx.limbs()) {
    case 4: return exp_n<4>(ctx, a, e);
    case 16: return exp_n<16>(ctx, a, e);
    default: return exp_n<32>(ctx, a, e);
  }
}

}  // namespace qtls::asym_impl
