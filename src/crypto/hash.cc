#include "crypto/hash.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace qtls {

namespace {

inline uint32_t rotl32(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }
inline uint32_t rotr32(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline uint64_t rotr64(uint64_t x, int n) { return (x >> n) | (x << (64 - n)); }

// ---------------------------------------------------------------- SHA-1 ----

class Sha1Ctx final : public HashCtx {
 public:
  Sha1Ctx() { reset(); }

  void update(BytesView data) override {
    total_ += data.size();
    size_t off = 0;
    // An empty view may have a null data(), which memcpy must not see.
    if (buf_len_ > 0 && !data.empty()) {
      const size_t take = std::min<size_t>(64 - buf_len_, data.size());
      std::memcpy(buf_ + buf_len_, data.data(), take);
      buf_len_ += take;
      off = take;
      if (buf_len_ == 64) {
        process(buf_);
        buf_len_ = 0;
      }
    }
    while (off + 64 <= data.size()) {
      process(data.data() + off);
      off += 64;
    }
    if (off < data.size()) {
      std::memcpy(buf_, data.data() + off, data.size() - off);
      buf_len_ = data.size() - off;
    }
  }

  Bytes finish() override {
    const uint64_t bits = total_ * 8;
    uint8_t pad = 0x80;
    update(BytesView(&pad, 1));
    const uint8_t zero = 0;
    while (buf_len_ != 56) update(BytesView(&zero, 1));
    uint8_t len[8];
    for (int i = 0; i < 8; ++i) len[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
    update(BytesView(len, 8));
    Bytes out(20);
    for (int i = 0; i < 5; ++i)
      for (int b = 0; b < 4; ++b)
        out[i * 4 + b] = static_cast<uint8_t>(h_[i] >> (24 - 8 * b));
    return out;
  }

  std::unique_ptr<HashCtx> clone() const override {
    return std::make_unique<Sha1Ctx>(*this);
  }

 private:
  void reset() {
    h_[0] = 0x67452301;
    h_[1] = 0xEFCDAB89;
    h_[2] = 0x98BADCFE;
    h_[3] = 0x10325476;
    h_[4] = 0xC3D2E1F0;
    total_ = 0;
    buf_len_ = 0;
  }

  void process(const uint8_t* block) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i)
      w[i] = static_cast<uint32_t>(block[i * 4]) << 24 |
             static_cast<uint32_t>(block[i * 4 + 1]) << 16 |
             static_cast<uint32_t>(block[i * 4 + 2]) << 8 |
             static_cast<uint32_t>(block[i * 4 + 3]);
    for (int i = 16; i < 80; ++i)
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
    for (int i = 0; i < 80; ++i) {
      uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
  }

  uint32_t h_[5];
  uint64_t total_;
  uint8_t buf_[64];
  size_t buf_len_;
};

// -------------------------------------------------------------- SHA-256 ----

constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

class Sha256Ctx final : public HashCtx {
 public:
  Sha256Ctx() { reset(); }

  void update(BytesView data) override {
    total_ += data.size();
    size_t off = 0;
    // An empty view may have a null data(), which memcpy must not see.
    if (buf_len_ > 0 && !data.empty()) {
      const size_t take = std::min<size_t>(64 - buf_len_, data.size());
      std::memcpy(buf_ + buf_len_, data.data(), take);
      buf_len_ += take;
      off = take;
      if (buf_len_ == 64) {
        process(buf_);
        buf_len_ = 0;
      }
    }
    while (off + 64 <= data.size()) {
      process(data.data() + off);
      off += 64;
    }
    if (off < data.size()) {
      std::memcpy(buf_, data.data() + off, data.size() - off);
      buf_len_ = data.size() - off;
    }
  }

  Bytes finish() override {
    const uint64_t bits = total_ * 8;
    uint8_t pad = 0x80;
    update(BytesView(&pad, 1));
    const uint8_t zero = 0;
    while (buf_len_ != 56) update(BytesView(&zero, 1));
    uint8_t len[8];
    for (int i = 0; i < 8; ++i) len[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
    update(BytesView(len, 8));
    Bytes out(32);
    for (int i = 0; i < 8; ++i)
      for (int b = 0; b < 4; ++b)
        out[i * 4 + b] = static_cast<uint8_t>(h_[i] >> (24 - 8 * b));
    return out;
  }

  std::unique_ptr<HashCtx> clone() const override {
    return std::make_unique<Sha256Ctx>(*this);
  }

 private:
  void reset() {
    static constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                          0xa54ff53a, 0x510e527f, 0x9b05688c,
                                          0x1f83d9ab, 0x5be0cd19};
    std::memcpy(h_, kInit, sizeof(h_));
    total_ = 0;
    buf_len_ = 0;
  }

  void process(const uint8_t* block) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i)
      w[i] = static_cast<uint32_t>(block[i * 4]) << 24 |
             static_cast<uint32_t>(block[i * 4 + 1]) << 16 |
             static_cast<uint32_t>(block[i * 4 + 2]) << 8 |
             static_cast<uint32_t>(block[i * 4 + 3]);
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
    uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      const uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
  }

  uint32_t h_[8];
  uint64_t total_;
  uint8_t buf_[64];
  size_t buf_len_;
};

// -------------------------------------------------------- SHA-512 / 384 ----

constexpr uint64_t kSha512K[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL,
    0xe9b5dba58189dbbcULL, 0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL,
    0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL, 0xd807aa98a3030242ULL,
    0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL,
    0xc19bf174cf692694ULL, 0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL,
    0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL, 0x2de92c6f592b0275ULL,
    0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL,
    0xbf597fc7beef0ee4ULL, 0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL,
    0x06ca6351e003826fULL, 0x142929670a0e6e70ULL, 0x27b70a8546d22ffcULL,
    0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL,
    0x92722c851482353bULL, 0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL,
    0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL, 0xd192e819d6ef5218ULL,
    0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL,
    0x34b0bcb5e19b48a8ULL, 0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL,
    0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL, 0x748f82ee5defb2fcULL,
    0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL,
    0xc67178f2e372532bULL, 0xca273eceea26619cULL, 0xd186b8c721c0c207ULL,
    0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL, 0x06f067aa72176fbaULL,
    0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL,
    0x431d67c49c100d4cULL, 0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL,
    0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

class Sha512Ctx final : public HashCtx {
 public:
  explicit Sha512Ctx(bool is384) : is384_(is384) { reset(); }

  void update(BytesView data) override {
    total_ += data.size();
    size_t off = 0;
    // An empty view may have a null data(), which memcpy must not see.
    if (buf_len_ > 0 && !data.empty()) {
      const size_t take = std::min<size_t>(128 - buf_len_, data.size());
      std::memcpy(buf_ + buf_len_, data.data(), take);
      buf_len_ += take;
      off = take;
      if (buf_len_ == 128) {
        process(buf_);
        buf_len_ = 0;
      }
    }
    while (off + 128 <= data.size()) {
      process(data.data() + off);
      off += 128;
    }
    if (off < data.size()) {
      std::memcpy(buf_, data.data() + off, data.size() - off);
      buf_len_ = data.size() - off;
    }
  }

  Bytes finish() override {
    const uint64_t bits = total_ * 8;  // message lengths < 2^64 bits here
    uint8_t pad = 0x80;
    update(BytesView(&pad, 1));
    const uint8_t zero = 0;
    while (buf_len_ != 112) update(BytesView(&zero, 1));
    uint8_t len[16] = {0};
    for (int i = 0; i < 8; ++i)
      len[8 + i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
    update(BytesView(len, 16));
    const size_t out_words = is384_ ? 6 : 8;
    Bytes out(out_words * 8);
    for (size_t i = 0; i < out_words; ++i)
      for (int b = 0; b < 8; ++b)
        out[i * 8 + static_cast<size_t>(b)] =
            static_cast<uint8_t>(h_[i] >> (56 - 8 * b));
    return out;
  }

  std::unique_ptr<HashCtx> clone() const override {
    return std::make_unique<Sha512Ctx>(*this);
  }

 private:
  void reset() {
    static constexpr uint64_t kInit512[8] = {
        0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
        0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
        0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};
    static constexpr uint64_t kInit384[8] = {
        0xcbbb9d5dc1059ed8ULL, 0x629a292a367cd507ULL, 0x9159015a3070dd17ULL,
        0x152fecd8f70e5939ULL, 0x67332667ffc00b31ULL, 0x8eb44a8768581511ULL,
        0xdb0c2e0d64f98fa7ULL, 0x47b5481dbefa4fa4ULL};
    std::memcpy(h_, is384_ ? kInit384 : kInit512, sizeof(h_));
    total_ = 0;
    buf_len_ = 0;
  }

  void process(const uint8_t* block) {
    uint64_t w[80];
    for (int i = 0; i < 16; ++i) {
      uint64_t v = 0;
      for (int b = 0; b < 8; ++b) v = v << 8 | block[i * 8 + b];
      w[i] = v;
    }
    for (int i = 16; i < 80; ++i) {
      const uint64_t s0 =
          rotr64(w[i - 15], 1) ^ rotr64(w[i - 15], 8) ^ (w[i - 15] >> 7);
      const uint64_t s1 =
          rotr64(w[i - 2], 19) ^ rotr64(w[i - 2], 61) ^ (w[i - 2] >> 6);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint64_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
    uint64_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
    for (int i = 0; i < 80; ++i) {
      const uint64_t s1 = rotr64(e, 14) ^ rotr64(e, 18) ^ rotr64(e, 41);
      const uint64_t ch = (e & f) ^ (~e & g);
      const uint64_t t1 = h + s1 + ch + kSha512K[i] + w[i];
      const uint64_t s0 = rotr64(a, 28) ^ rotr64(a, 34) ^ rotr64(a, 39);
      const uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint64_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
    h_[5] += f;
    h_[6] += g;
    h_[7] += h;
  }

  bool is384_;
  uint64_t h_[8];
  uint64_t total_;
  uint8_t buf_[128];
  size_t buf_len_;
};

}  // namespace

size_t hash_digest_size(HashAlg alg) {
  switch (alg) {
    case HashAlg::kSha1: return 20;
    case HashAlg::kSha256: return 32;
    case HashAlg::kSha384: return 48;
    case HashAlg::kSha512: return 64;
  }
  return 0;
}

size_t hash_block_size(HashAlg alg) {
  switch (alg) {
    case HashAlg::kSha1:
    case HashAlg::kSha256: return 64;
    case HashAlg::kSha384:
    case HashAlg::kSha512: return 128;
  }
  return 0;
}

const char* hash_name(HashAlg alg) {
  switch (alg) {
    case HashAlg::kSha1: return "SHA1";
    case HashAlg::kSha256: return "SHA256";
    case HashAlg::kSha384: return "SHA384";
    case HashAlg::kSha512: return "SHA512";
  }
  return "?";
}

std::unique_ptr<HashCtx> make_hash(HashAlg alg) {
  switch (alg) {
    case HashAlg::kSha1: return std::make_unique<Sha1Ctx>();
    case HashAlg::kSha256: return std::make_unique<Sha256Ctx>();
    case HashAlg::kSha384: return std::make_unique<Sha512Ctx>(true);
    case HashAlg::kSha512: return std::make_unique<Sha512Ctx>(false);
  }
  return nullptr;
}

Bytes hash(HashAlg alg, BytesView data) {
  auto ctx = make_hash(alg);
  ctx->update(data);
  return ctx->finish();
}

Bytes sha1(BytesView data) { return hash(HashAlg::kSha1, data); }
Bytes sha256(BytesView data) { return hash(HashAlg::kSha256, data); }
Bytes sha384(BytesView data) { return hash(HashAlg::kSha384, data); }
Bytes sha512(BytesView data) { return hash(HashAlg::kSha512, data); }

HmacCtx::HmacCtx(HashAlg alg, BytesView key) : alg_(alg) {
  const size_t block = hash_block_size(alg);
  Bytes k(key.begin(), key.end());
  if (k.size() > block) k = hash(alg, k);
  k.resize(block, 0);
  Bytes ipad_key(block);
  opad_key_.resize(block);
  for (size_t i = 0; i < block; ++i) {
    ipad_key[i] = k[i] ^ 0x36;
    opad_key_[i] = k[i] ^ 0x5c;
  }
  inner_ = make_hash(alg);
  inner_->update(ipad_key);
  secure_wipe(k.data(), k.size());
}

void HmacCtx::update(BytesView data) { inner_->update(data); }

Bytes HmacCtx::finish() {
  Bytes inner_digest = inner_->finish();
  auto outer = make_hash(alg_);
  outer->update(opad_key_);
  outer->update(inner_digest);
  return outer->finish();
}

Bytes hmac(HashAlg alg, BytesView key, BytesView data) {
  HmacCtx ctx(alg, key);
  ctx.update(data);
  return ctx.finish();
}

}  // namespace qtls
