// The kHardware path of crypto/aes_impl.h: AES-NI rounds and key schedule,
// an 8-block-interleaved CTR loop and a 4-block-aggregated PCLMULQDQ GHASH.
//
// This file is compiled for the baseline ISA. Only the functions marked
// QTLS_HW_TARGET may use AES-NI/PCLMULQDQ/SSSE3/SSE4.1, and they all have
// internal linkage, so no inline library code instantiated here can carry
// those instructions onto a CPU without them. Every helper that calls an
// intrinsic needs the marker itself: a lambda would not inherit it.
#include <cstdlib>
#include <cstring>

#include "crypto/aes_impl.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace qtls::aes_impl {

#if defined(__x86_64__)

#define QTLS_HW_TARGET __attribute__((target("aes,pclmul,ssse3,sse4.1")))

bool hw_available() {
  static const bool available = [] {
    // Aes can be built from a static initializer, before the runtime has
    // read CPUID for __builtin_cpu_supports.
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("ssse3") && __builtin_cpu_supports("sse4.1");
  }();
  return available;
}

namespace {

QTLS_HW_TARGET inline __m128i load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

QTLS_HW_TARGET inline void store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// ---------------------------------------------------------------- AES ----

// One FIPS-197 key-expansion step over a whole round key: each word is the
// previous key's word XORed with the word before it, and `assist` (the
// SubWord/RotWord/Rcon word, broadcast) enters through word 0.
QTLS_HW_TARGET inline __m128i expand_step(__m128i prev, __m128i assist) {
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  prev = _mm_xor_si128(prev, _mm_slli_si128(prev, 4));
  return _mm_xor_si128(prev, assist);
}

// Round key i from key i-1 (AES-128), or from keys i-2 and i-1 (AES-256,
// even i). aeskeygenassist takes Rcon as an immediate, hence the template.
template <int kRcon>
QTLS_HW_TARGET inline __m128i rot_step(__m128i prev, __m128i last) {
  return expand_step(
      prev, _mm_shuffle_epi32(_mm_aeskeygenassist_si128(last, kRcon), 0xff));
}

// AES-256 odd round keys: SubWord without RotWord or Rcon.
QTLS_HW_TARGET inline __m128i sub_step(__m128i prev, __m128i last) {
  return expand_step(
      prev, _mm_shuffle_epi32(_mm_aeskeygenassist_si128(last, 0), 0xaa));
}

QTLS_HW_TARGET void expand_key_impl(BytesView key, uint8_t enc[240],
                                    uint8_t dec[240]) {
  __m128i k[15];
  int rounds = 10;
  k[0] = load(key.data());
  if (key.size() == 16) {
    k[1] = rot_step<0x01>(k[0], k[0]);
    k[2] = rot_step<0x02>(k[1], k[1]);
    k[3] = rot_step<0x04>(k[2], k[2]);
    k[4] = rot_step<0x08>(k[3], k[3]);
    k[5] = rot_step<0x10>(k[4], k[4]);
    k[6] = rot_step<0x20>(k[5], k[5]);
    k[7] = rot_step<0x40>(k[6], k[6]);
    k[8] = rot_step<0x80>(k[7], k[7]);
    k[9] = rot_step<0x1b>(k[8], k[8]);
    k[10] = rot_step<0x36>(k[9], k[9]);
  } else {
    rounds = 14;
    k[1] = load(key.data() + 16);
    k[2] = rot_step<0x01>(k[0], k[1]);
    k[3] = sub_step(k[1], k[2]);
    k[4] = rot_step<0x02>(k[2], k[3]);
    k[5] = sub_step(k[3], k[4]);
    k[6] = rot_step<0x04>(k[4], k[5]);
    k[7] = sub_step(k[5], k[6]);
    k[8] = rot_step<0x08>(k[6], k[7]);
    k[9] = sub_step(k[7], k[8]);
    k[10] = rot_step<0x10>(k[8], k[9]);
    k[11] = sub_step(k[9], k[10]);
    k[12] = rot_step<0x20>(k[10], k[11]);
    k[13] = sub_step(k[11], k[12]);
    k[14] = rot_step<0x40>(k[12], k[13]);
  }
  for (int i = 0; i <= rounds; ++i) store(enc + 16 * i, k[i]);
  // Equivalent inverse cipher: reversed order, InvMixColumns on the inner
  // keys so aesdec can apply them directly.
  store(dec, k[rounds]);
  for (int i = 1; i < rounds; ++i)
    store(dec + 16 * i, _mm_aesimc_si128(k[rounds - i]));
  store(dec + 16 * rounds, k[0]);
}

QTLS_HW_TARGET inline __m128i encrypt(const uint8_t* enc, int rounds,
                                      __m128i b) {
  b = _mm_xor_si128(b, load(enc));
  for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, load(enc + 16 * r));
  return _mm_aesenclast_si128(b, load(enc + 16 * rounds));
}

QTLS_HW_TARGET void encrypt_block_impl(const uint8_t* enc, int rounds,
                                       const uint8_t in[16],
                                       uint8_t out[16]) {
  store(out, encrypt(enc, rounds, load(in)));
}

QTLS_HW_TARGET void decrypt_block_impl(const uint8_t* dec, int rounds,
                                       const uint8_t in[16],
                                       uint8_t out[16]) {
  __m128i b = _mm_xor_si128(load(in), load(dec));
  for (int r = 1; r < rounds; ++r) b = _mm_aesdec_si128(b, load(dec + 16 * r));
  store(out, _mm_aesdeclast_si128(b, load(dec + 16 * rounds)));
}

// ---------------------------------------------------------------- CTR ----

// The GCM counter block for 32-bit counter value c: J0's first 12 bytes,
// then c big-endian.
QTLS_HW_TARGET inline __m128i counter_block(__m128i j0, uint32_t c) {
  return _mm_insert_epi32(j0, static_cast<int>(__builtin_bswap32(c)), 3);
}

QTLS_HW_TARGET void ctr_xor_impl(const uint8_t* enc, int rounds,
                                 const uint8_t j0[16], const uint8_t* in,
                                 size_t len, uint8_t* out) {
  __m128i rk[15];
  for (int r = 0; r <= rounds; ++r) rk[r] = load(enc + 16 * r);
  const __m128i base = load(j0);
  uint32_t ctr;
  std::memcpy(&ctr, j0 + 12, 4);
  ctr = __builtin_bswap32(ctr);

  size_t off = 0;
  // Eight independent blocks hide aesenc's latency behind its throughput.
  for (; len - off >= 128; off += 128) {
    __m128i b[8];
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i)
      b[i] = _mm_xor_si128(counter_block(base, ++ctr), rk[0]);
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) b[i] = _mm_aesenc_si128(b[i], rk[r]);
    }
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      b[i] = _mm_aesenclast_si128(b[i], rk[rounds]);
      store(out + off + 16 * i,
            _mm_xor_si128(b[i], load(in + off + 16 * i)));
    }
  }
  for (; len - off >= 16; off += 16) {
    const __m128i ks = encrypt(enc, rounds, counter_block(base, ++ctr));
    store(out + off, _mm_xor_si128(ks, load(in + off)));
  }
  if (off < len) {
    uint8_t ks[16];
    store(ks, encrypt(enc, rounds, counter_block(base, ++ctr)));
    for (size_t i = 0; off + i < len; ++i) out[off + i] = in[off + i] ^ ks[i];
  }
}

// -------------------------------------------------------------- GHASH ----
//
// Field elements are held byte-reversed (pshufb), which makes GCM's
// bit-reflected polynomial a plain 128-bit integer. The carry-less product
// of two such values is the reflected product shifted right by one, so the
// reduction shifts left by one before folding modulo
// x^128 + x^7 + x^2 + x + 1 (Gueron and Kounavis, "Intel Carry-Less
// Multiplication Instruction and its Usage for Computing the GCM Mode").

QTLS_HW_TARGET inline __m128i byte_reverse(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

// An unreduced 256-bit product: lo + mid * x^64 + hi * x^128. Products
// XORed into one Wide reduce together, which is what makes aggregation pay.
struct Wide {
  __m128i lo, mid, hi;
};

QTLS_HW_TARGET inline void mul_add(Wide* w, __m128i a, __m128i b) {
  w->lo = _mm_xor_si128(w->lo, _mm_clmulepi64_si128(a, b, 0x00));
  w->hi = _mm_xor_si128(w->hi, _mm_clmulepi64_si128(a, b, 0x11));
  w->mid = _mm_xor_si128(w->mid, _mm_clmulepi64_si128(a, b, 0x01));
  w->mid = _mm_xor_si128(w->mid, _mm_clmulepi64_si128(a, b, 0x10));
}

QTLS_HW_TARGET inline __m128i reduce(const Wide& w) {
  __m128i lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
  __m128i hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));

  // [hi:lo] <<= 1.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));

  // Fold lo into hi modulo the GCM polynomial, in two phases.
  __m128i t = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  const __m128i spill = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  t = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), spill));
  lo = _mm_xor_si128(lo, t);
  return _mm_xor_si128(hi, lo);
}

QTLS_HW_TARGET inline __m128i gf_mul(__m128i a, __m128i b) {
  Wide w{_mm_setzero_si128(), _mm_setzero_si128(), _mm_setzero_si128()};
  mul_add(&w, a, b);
  return reduce(w);
}

// y <- (y ^ X1)*H^4 ^ X2*H^3 ^ X3*H^2 ^ X4*H per 64 bytes, then one block
// at a time, then the zero-padded tail. h[i] holds H^(i+1).
QTLS_HW_TARGET __m128i ghash_absorb(const __m128i h[4], __m128i y,
                                    BytesView data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 64; p += 64, n -= 64) {
    Wide w{_mm_setzero_si128(), _mm_setzero_si128(), _mm_setzero_si128()};
    mul_add(&w, _mm_xor_si128(y, byte_reverse(load(p))), h[3]);
    mul_add(&w, byte_reverse(load(p + 16)), h[2]);
    mul_add(&w, byte_reverse(load(p + 32)), h[1]);
    mul_add(&w, byte_reverse(load(p + 48)), h[0]);
    y = reduce(w);
  }
  for (; n >= 16; p += 16, n -= 16)
    y = gf_mul(_mm_xor_si128(y, byte_reverse(load(p))), h[0]);
  if (n > 0) {
    uint8_t block[16] = {0};
    std::memcpy(block, p, n);
    y = gf_mul(_mm_xor_si128(y, byte_reverse(load(block))), h[0]);
  }
  return y;
}

QTLS_HW_TARGET void ghash_impl(const uint8_t h_bytes[16], BytesView aad,
                               BytesView ct, uint8_t s[16]) {
  __m128i h[4];
  h[0] = byte_reverse(load(h_bytes));
  for (int i = 1; i < 4; ++i) h[i] = gf_mul(h[i - 1], h[0]);

  __m128i y = _mm_setzero_si128();
  y = ghash_absorb(h, y, aad);
  y = ghash_absorb(h, y, ct);
  // The length block, already in the byte-reversed domain: len(aad) in the
  // high quadword, len(ct) in the low one, both in bits.
  const __m128i lengths =
      _mm_set_epi64x(static_cast<long long>(aad.size() * 8),
                     static_cast<long long>(ct.size() * 8));
  y = gf_mul(_mm_xor_si128(y, lengths), h[0]);
  store(s, byte_reverse(y));
}

}  // namespace

namespace hw {

void expand_key(BytesView key, uint8_t enc[240], uint8_t dec[240]) {
  expand_key_impl(key, enc, dec);
}

void encrypt_block(const uint8_t* enc, int rounds, const uint8_t in[16],
                   uint8_t out[16]) {
  encrypt_block_impl(enc, rounds, in, out);
}

void decrypt_block(const uint8_t* dec, int rounds, const uint8_t in[16],
                   uint8_t out[16]) {
  decrypt_block_impl(dec, rounds, in, out);
}

void ctr_xor(const uint8_t* enc, int rounds, const uint8_t j0[16],
             const uint8_t* in, size_t len, uint8_t* out) {
  ctr_xor_impl(enc, rounds, j0, in, len, out);
}

void ghash(const uint8_t h[16], BytesView aad, BytesView ct, uint8_t s[16]) {
  ghash_impl(h, aad, ct, s);
}

}  // namespace hw

#else  // !__x86_64__: the portable path is the only one.

bool hw_available() { return false; }

namespace hw {
void expand_key(BytesView, uint8_t*, uint8_t*) { std::abort(); }
void encrypt_block(const uint8_t*, int, const uint8_t*, uint8_t*) {
  std::abort();
}
void decrypt_block(const uint8_t*, int, const uint8_t*, uint8_t*) {
  std::abort();
}
void ctr_xor(const uint8_t*, int, const uint8_t*, const uint8_t*, size_t,
             uint8_t*) {
  std::abort();
}
void ghash(const uint8_t*, BytesView, BytesView, uint8_t*) { std::abort(); }
}  // namespace hw

#endif

}  // namespace qtls::aes_impl
