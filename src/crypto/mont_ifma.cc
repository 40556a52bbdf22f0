// The kIfma path of crypto/asym_impl.h: Montgomery exponentiation modulo a
// 16-limb (at most 1024-bit) odd modulus on AVX-512 IFMA, after Drucker and
// Gueron, "Fast modular squaring with AVX512IFMA" (2019).
//
// Operands are 20 digits of 52 bits (R = 2^1040), five 256-bit lanes of
// vpmadd52luq/vpmadd52huq. Products are almost-Montgomery: inputs and
// outputs stay below 2n, not fully reduced, which 4n < R allows. Every
// kernel takes H independent operand sets and interleaves their steps, so
// one set's multiply latency hides behind the other's: H = 2 runs both CRT
// halves of an RSA-2048 private op in one pass.
//
// The exponentiation scans a fixed number of 5-bit windows from the top:
// five squarings and one multiply per window whatever its value, a table
// read that scans all 32 entries under a mask, and a branch-free final
// subtraction. No branch or memory address depends on the exponent or the
// base; the conversions in and out (Bignum reduction of the base, radix
// changes) are outside that guarantee.
//
// This file is compiled for the baseline ISA. Only the functions marked
// QTLS_IFMA_TARGET use AVX-512, and they all have internal linkage (see
// aes_ni.cc for why).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "crypto/asym_impl.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace qtls::asym_impl {

#if defined(__x86_64__)

#define QTLS_IFMA_TARGET \
  __attribute__((target("avx512f,avx512vl,avx512ifma")))

bool ifma_available() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512ifma");
  }();
  return available;
}

namespace {

constexpr int kDigits = 20;  // 52-bit digits of a 1040-bit operand
constexpr int kVecs = 5;     // 256-bit registers per operand
constexpr int kLimbs = 16;   // 64-bit limbs of a 1024-bit operand
constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;
constexpr int kWindow = 5;
constexpr int kEntries = 1 << kWindow;

// One operand in radix 2^52, each digit below 2^52.
struct alignas(32) Digits {
  uint64_t d[kDigits];
};

// What one half needs besides its operands: the modulus and -n^-1 mod 2^52.
struct Modulus {
  Digits n;
  uint64_t k0;
};

// 16 little-endian limbs to 20 digits.
void to_digits(Digits& out, const uint64_t* limbs) {
  unsigned __int128 buf = 0;
  int have = 0;
  int next = 0;
  for (int i = 0; i < kDigits; ++i) {
    if (have < 52 && next < kLimbs) {
      buf |= static_cast<unsigned __int128>(limbs[next++]) << have;
      have += 64;
    }
    out.d[i] = static_cast<uint64_t>(buf) & kMask52;
    buf >>= 52;
    have -= 52;
  }
}

// 20 digits of a value below 2^1024 to 16 limbs.
void from_digits(uint64_t* limbs, const Digits& in) {
  unsigned __int128 buf = 0;
  int have = 0;
  int next = 0;
  for (int i = 0; i < kLimbs; ++i) {
    while (have < 64 && next < kDigits) {
      buf |= static_cast<unsigned __int128>(in.d[next++]) << have;
      have += 52;
    }
    limbs[i] = static_cast<uint64_t>(buf);
    buf >>= 64;
    have -= 64;
  }
}

// A Bignum of at most 16 limbs, zero-extended.
void load_limbs(uint64_t* out, const Bignum& v) {
  const auto& limbs = v.limbs();
  std::fill(std::copy(limbs.begin(), limbs.end(), out), out + kLimbs, 0);
}

void to_digits(Digits& out, const Bignum& v) {
  uint64_t limbs[kLimbs];
  load_limbs(limbs, v);
  to_digits(out, limbs);
}

Modulus make_modulus(const MontCtx& ctx) {
  Modulus m;
  to_digits(m.n, ctx.modulus());
  m.k0 = Access::n0inv(ctx) & kMask52;
  return m;
}

QTLS_IFMA_TARGET inline __m256i load(const uint64_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}

QTLS_IFMA_TARGET inline void store(uint64_t* p, __m256i v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
}

QTLS_IFMA_TARGET inline uint64_t lane0(__m256i v) {
  return static_cast<uint64_t>(_mm_cvtsi128_si64(_mm256_castsi256_si128(v)));
}

// acc holds digits i .. i+19 of a running sum whose digit i is now
// divisible by 2^52: move digit i's carry into digit i+1 and slide the
// window up one digit (acc then holds digits i+1 .. i+20).
QTLS_IFMA_TARGET inline void shift_out_digit(__m256i acc[kVecs]) {
  const __m256i carry = _mm256_maskz_srli_epi64(1, acc[0], 52);
#pragma GCC unroll 32
  for (int k = 0; k + 1 < kVecs; ++k)
    acc[k] = _mm256_alignr_epi64(acc[k + 1], acc[k], 1);
  acc[kVecs - 1] =
      _mm256_alignr_epi64(_mm256_setzero_si256(), acc[kVecs - 1], 1);
  acc[0] = _mm256_add_epi64(acc[0], carry);
}

// Stores acc (lanes of up to 64 bits, value below 2^1040) as digits.
QTLS_IFMA_TARGET inline void normalize(Digits& r, const __m256i acc[kVecs]) {
  Digits t;
#pragma GCC unroll 32
  for (int k = 0; k < kVecs; ++k) store(t.d + 4 * k, acc[k]);
  uint64_t carry = 0;
#pragma GCC unroll 32
  for (int j = 0; j < kDigits; ++j) {
    const uint64_t v = t.d[j] + carry;
    r.d[j] = v & kMask52;
    carry = v >> 52;
  }
}

// r[h] = a[h] * b[h] / R mod n[h], below 2 n[h] for a[h], b[h] below
// 2 n[h]. Word-serial: each step adds a * b_i and y_i * n, where y_i makes
// the low digit vanish, and shifts that digit out. r may alias a or b.
template <int H>
QTLS_IFMA_TARGET void amm(Digits* r, const Digits* a, const Digits* b,
                          const Modulus* mod) {
  __m256i acc[H][kVecs], av[H][kVecs], nv[H][kVecs];
#pragma GCC unroll 32
  for (int h = 0; h < H; ++h)
#pragma GCC unroll 32
    for (int k = 0; k < kVecs; ++k) {
      acc[h][k] = _mm256_setzero_si256();
      av[h][k] = load(a[h].d + 4 * k);
      nv[h][k] = load(mod[h].n.d + 4 * k);
    }
  for (int i = 0; i < kDigits; ++i) {
    __m256i bi[H], yi[H];
    uint64_t t0[H];
#pragma GCC unroll 32
    for (int h = 0; h < H; ++h) {
      // Digit 0 after adding a_0 b_i, summed in a scalar register so the
      // vector product below is off the path to y.
      t0[h] = lane0(acc[h][0]) + ((a[h].d[0] * b[h].d[i]) & kMask52);
      bi[h] = _mm256_set1_epi64x(static_cast<long long>(b[h].d[i]));
#pragma GCC unroll 32
      for (int k = 0; k < kVecs; ++k)
        acc[h][k] = _mm256_madd52lo_epu64(acc[h][k], av[h][k], bi[h]);
    }
#pragma GCC unroll 32
    for (int h = 0; h < H; ++h) {
      const uint64_t y = (t0[h] * mod[h].k0) & kMask52;
      yi[h] = _mm256_set1_epi64x(static_cast<long long>(y));
#pragma GCC unroll 32
      for (int k = 0; k < kVecs; ++k)
        acc[h][k] = _mm256_madd52lo_epu64(acc[h][k], nv[h][k], yi[h]);
    }
#pragma GCC unroll 32
    for (int h = 0; h < H; ++h) {
      shift_out_digit(acc[h]);
#pragma GCC unroll 32
      for (int k = 0; k < kVecs; ++k) {
        acc[h][k] = _mm256_madd52hi_epu64(acc[h][k], av[h][k], bi[h]);
        acc[h][k] = _mm256_madd52hi_epu64(acc[h][k], nv[h][k], yi[h]);
      }
    }
  }
#pragma GCC unroll 32
  for (int h = 0; h < H; ++h) normalize(r[h], acc[h]);
}

// r[h] = a[h]^2 / R mod n[h], below 2 n[h] for a[h] below 2 n[h]: the
// product first, each cross product a_i a_j (i < j) once, doubled, plus the
// squares a_i^2; then the word-serial reduction. r may alias a.
template <int H>
QTLS_IFMA_TARGET void ams(Digits* r, const Digits* a, const Modulus* mod) {
  constexpr int kProd = 2 * kVecs;  // the 40-digit product
  __m256i t[H][kProd];
#pragma GCC unroll 32
  for (int h = 0; h < H; ++h) {
    __m256i av[kVecs + 1];
#pragma GCC unroll 32
    for (int k = 0; k < kVecs; ++k) av[k] = load(a[h].d + 4 * k);
    av[kVecs] = _mm256_setzero_si256();
    // up[s][k] lane l holds digit 4k + l - s: a shifted up s digits, so a
    // row's digits land on the product's lanes without moving the sum.
    __m256i up[4][kVecs + 1];
#pragma GCC unroll 32
    for (int k = 0; k <= kVecs; ++k) up[0][k] = av[k];
#pragma GCC unroll 32
    for (int k = 0; k <= kVecs; ++k) {
      const __m256i below = k > 0 ? av[k - 1] : _mm256_setzero_si256();
      up[1][k] = _mm256_alignr_epi64(av[k], below, 3);
      up[2][k] = _mm256_alignr_epi64(av[k], below, 2);
      up[3][k] = _mm256_alignr_epi64(av[k], below, 1);
    }
#pragma GCC unroll 32
    for (int v = 0; v < kProd; ++v) t[h][v] = _mm256_setzero_si256();
    // Row i adds a_i * a_j for j > i: the low half at digit i + j, the high
    // half at i + j + 1. Digit p of the product is lane p % 4 of t[p / 4].
#pragma GCC unroll 20
    for (int i = 0; i + 1 < kDigits; ++i) {
      const __m256i ai =
          _mm256_set1_epi64x(static_cast<long long>(a[h].d[i]));
#pragma GCC unroll 6
      for (int v = (2 * i + 1) / 4; v <= (i + kDigits - 1) / 4; ++v) {
        // Lanes at digit 2i+1 and up: j = 4v + l - i runs over i+1 .. 19.
        const int first = 2 * i + 1 - 4 * v;
        const __mmask8 keep =
            static_cast<__mmask8>(first <= 0 ? 0xf : (0xf << first) & 0xf);
        t[h][v] = _mm256_mask_madd52lo_epu64(t[h][v], keep,
                                             up[i % 4][v - i / 4], ai);
      }
#pragma GCC unroll 6
      for (int v = (2 * i + 2) / 4; v <= (i + kDigits) / 4; ++v) {
        const int first = 2 * i + 2 - 4 * v;
        const __mmask8 keep =
            static_cast<__mmask8>(first <= 0 ? 0xf : (0xf << first) & 0xf);
        const int s = i + 1;  // the high half sits one digit further up
        t[h][v] = _mm256_mask_madd52hi_epu64(t[h][v], keep,
                                             up[s % 4][v - s / 4], ai);
      }
    }
    // Double the cross products and add the squares: a_j^2 goes to digits
    // 2j (low half) and 2j + 1 (high half).
#pragma GCC unroll 32
    for (int k = 0; k < kVecs; ++k) {
      const __m256i lo = _mm256_madd52lo_epu64(_mm256_setzero_si256(), av[k],
                                               av[k]);
      const __m256i hi = _mm256_madd52hi_epu64(_mm256_setzero_si256(), av[k],
                                               av[k]);
      // The halves of a_4k^2 and a_4k+2^2, then of a_4k+1^2 and a_4k+3^2.
      const __m256i even = _mm256_unpacklo_epi64(lo, hi);
      const __m256i odd = _mm256_unpackhi_epi64(lo, hi);
      t[h][2 * k] = _mm256_add_epi64(
          _mm256_add_epi64(t[h][2 * k], t[h][2 * k]),
          _mm256_permute2x128_si256(even, odd, 0x20));
      t[h][2 * k + 1] = _mm256_add_epi64(
          _mm256_add_epi64(t[h][2 * k + 1], t[h][2 * k + 1]),
          _mm256_permute2x128_si256(even, odd, 0x31));
    }
  }
  // Reduce: the window t[h][0..4] slides up over the low 20 digits; the high
  // 20 digits join it at the end.
  __m256i nv[H][kVecs];
#pragma GCC unroll 32
  for (int h = 0; h < H; ++h)
#pragma GCC unroll 32
    for (int k = 0; k < kVecs; ++k) nv[h][k] = load(mod[h].n.d + 4 * k);
  for (int i = 0; i < kDigits; ++i) {
    __m256i yi[H];
#pragma GCC unroll 32
    for (int h = 0; h < H; ++h) {
      const uint64_t y = (lane0(t[h][0]) * mod[h].k0) & kMask52;
      yi[h] = _mm256_set1_epi64x(static_cast<long long>(y));
#pragma GCC unroll 32
      for (int k = 0; k < kVecs; ++k)
        t[h][k] = _mm256_madd52lo_epu64(t[h][k], nv[h][k], yi[h]);
    }
#pragma GCC unroll 32
    for (int h = 0; h < H; ++h) {
      shift_out_digit(t[h]);
#pragma GCC unroll 32
      for (int k = 0; k < kVecs; ++k)
        t[h][k] = _mm256_madd52hi_epu64(t[h][k], nv[h][k], yi[h]);
    }
  }
#pragma GCC unroll 32
  for (int h = 0; h < H; ++h) {
#pragma GCC unroll 32
    for (int k = 0; k < kVecs; ++k)
      t[h][k] = _mm256_add_epi64(t[h][k], t[h][kVecs + k]);
    normalize(r[h], t[h]);
  }
}

// r = table[index] for a secret index: every entry is read, and a mask
// keeps the one asked for.
QTLS_IFMA_TARGET inline void select(Digits& r, const Digits* table,
                                    int stride, uint64_t index) {
  __m256i acc[kVecs];
#pragma GCC unroll 32
  for (int k = 0; k < kVecs; ++k) acc[k] = _mm256_setzero_si256();
  const __m256i want = _mm256_set1_epi64x(static_cast<long long>(index));
#pragma GCC unroll 32
  for (int e = 0; e < kEntries; ++e) {
    const __mmask8 hit =
        _mm256_cmpeq_epi64_mask(_mm256_set1_epi64x(e), want);
    const Digits& entry = table[e * stride];
#pragma GCC unroll 32
    for (int k = 0; k < kVecs; ++k)
      acc[k] = _mm256_mask_mov_epi64(acc[k], hit, load(entry.d + 4 * k));
  }
#pragma GCC unroll 32
  for (int k = 0; k < kVecs; ++k) store(r.d + 4 * k, acc[k]);
}

// Bits [pos, pos + 5) of a little-endian exponent of kLimbs + 1 limbs.
inline uint64_t window_at(const uint64_t* e, int pos) {
  const int limb = pos / 64;
  const unsigned __int128 two =
      (static_cast<unsigned __int128>(e[limb + 1]) << 64) | e[limb];
  return static_cast<uint64_t>(two >> (pos % 64)) & (kEntries - 1);
}

// out[h] = base[h]^e[h] mod n[h] over `windows` 5-bit windows of each
// exponent (the top one first), for base[h] < n[h] and e[h] below
// 2^(5 windows). rr[h] is 2^2080 mod n[h]. Each out[h] is below n[h].
template <int H>
QTLS_IFMA_TARGET void exp_windows(uint64_t (*out)[kLimbs], const Digits* base,
                                  const uint64_t (*e)[kLimbs + 1], int windows,
                                  const Digits* rr, const Modulus* mod) {
  // table[i * H + h] = base[h]^i * R mod n[h] (below 2 n[h]).
  Digits table[kEntries * H];
  Digits one[H];
  for (int h = 0; h < H; ++h) {
    one[h] = Digits{};
    one[h].d[0] = 1;
  }
  amm<H>(table, rr, one, mod);       // R
  amm<H>(table + H, base, rr, mod);  // base R
  for (int i = 2; i < kEntries; ++i) {
    if (i % 2 == 0)
      ams<H>(table + i * H, table + (i / 2) * H, mod);
    else
      amm<H>(table + i * H, table + (i - 1) * H, table + H, mod);
  }

  Digits acc[H];
  Digits pick[H];
  int pos = (windows - 1) * kWindow;
  for (int h = 0; h < H; ++h)
    select(acc[h], table + h, H, window_at(e[h], pos));
  for (int w = windows - 1; w-- > 0;) {
    pos -= kWindow;
    for (int s = 0; s < kWindow; ++s) ams<H>(acc, acc, mod);
    for (int h = 0; h < H; ++h)
      select(pick[h], table + h, H, window_at(e[h], pos));
    amm<H>(acc, acc, pick, mod);
  }
  amm<H>(acc, acc, one, mod);  // out of the Montgomery domain: at most n

  // Subtract n once unless that borrows, choosing by mask.
  for (int h = 0; h < H; ++h) {
    uint64_t x[kLimbs], n[kLimbs], d[kLimbs];
    from_digits(x, acc[h]);
    from_digits(n, mod[h].n);
    uint64_t borrow = 0;
    for (int j = 0; j < kLimbs; ++j) d[j] = sbb(x[j], n[j], borrow);
    const uint64_t keep_x = 0 - borrow;  // all ones when x < n
    for (int j = 0; j < kLimbs; ++j)
      out[h][j] = (x[j] & keep_x) | (d[j] & ~keep_x);
  }
}

// The windows a fixed schedule needs to cover an exponent of `bits` bits.
int windows_for(size_t bits) {
  return static_cast<int>(std::max<size_t>(bits, 1) + kWindow - 1) / kWindow;
}

// Runs exp_windows over H (context, base, exponent) triples and converts
// the results to Bignums.
template <int H>
void exp_n(const MontCtx* const* ctx, const Bignum* const* a,
           const Bignum* const* e, int windows, Bignum* const* out) {
  Modulus mod[H];
  Digits base[H], rr[H];
  uint64_t exps[H][kLimbs + 1];
  uint64_t res[H][kLimbs];
  for (int h = 0; h < H; ++h) {
    mod[h] = make_modulus(*ctx[h]);
    const Bignum& n = ctx[h]->modulus();
    if (Bignum::cmp(*a[h], n) >= 0)
      to_digits(base[h], Bignum::mod(*a[h], n));
    else
      to_digits(base[h], *a[h]);
    to_digits(rr[h], Access::rr_ifma(*ctx[h]));
    load_limbs(exps[h], *e[h]);
    exps[h][kLimbs] = 0;
  }
  exp_windows<H>(res, base, exps, windows, rr, mod);
  for (int h = 0; h < H; ++h) {
    out[h]->limbs().assign(res[h], res[h] + kLimbs);
    out[h]->trim();
  }
}

}  // namespace

Bignum ifma_mont_exp(const MontCtx& ctx, const Bignum& a, const Bignum& e) {
  // The schedule covers the exponent's length: a public exponent such as
  // 65537 takes four windows, not 205.
  if (e.bit_length() > kLimbs * 64) return fixed_mont_exp(ctx, a, e);
  Bignum out;
  const MontCtx* c[1] = {&ctx};
  const Bignum* base[1] = {&a};
  const Bignum* exp[1] = {&e};
  Bignum* res[1] = {&out};
  exp_n<1>(c, base, exp, windows_for(e.bit_length()), res);
  return out;
}

void ifma_mont_exp_x2(const MontCtx& ctx_p, const Bignum& ep,
                      const MontCtx& ctx_q, const Bignum& eq, const Bignum& a,
                      Bignum& out_p, Bignum& out_q) {
  const MontCtx* c[2] = {&ctx_p, &ctx_q};
  const Bignum* base[2] = {&a, &a};
  const Bignum* exp[2] = {&ep, &eq};
  Bignum* res[2] = {&out_p, &out_q};
  exp_n<2>(c, base, exp, windows_for(kLimbs * 64), res);
}

#else  // !__x86_64__: no IFMA path.

bool ifma_available() { return false; }

Bignum ifma_mont_exp(const MontCtx&, const Bignum&, const Bignum&) {
  std::abort();
}

void ifma_mont_exp_x2(const MontCtx&, const Bignum&, const MontCtx&,
                      const Bignum&, const Bignum&, Bignum&, Bignum&) {
  std::abort();
}

#endif

}  // namespace qtls::asym_impl
