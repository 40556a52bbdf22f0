#include "crypto/gcm.h"

#include <cstring>

#include "crypto/aes_impl.h"

namespace qtls {

namespace {

struct Block {
  uint64_t hi = 0;  // bits 127..64 (big-endian view)
  uint64_t lo = 0;

  static Block from_bytes(const uint8_t* b) {
    Block out;
    for (int i = 0; i < 8; ++i) out.hi = out.hi << 8 | b[i];
    for (int i = 8; i < 16; ++i) out.lo = out.lo << 8 | b[i];
    return out;
  }
  void to_bytes(uint8_t* b) const {
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(hi >> (56 - 8 * i));
    for (int i = 0; i < 8; ++i)
      b[8 + i] = static_cast<uint8_t>(lo >> (56 - 8 * i));
  }
  Block operator^(const Block& o) const { return Block{hi ^ o.hi, lo ^ o.lo}; }
};

// GF(2^128) multiplication per SP 800-38D algorithm 1 (bit-reflected
// convention folded into the shift direction).
Block gf_mult(const Block& x, const Block& y) {
  Block z{0, 0};
  Block v = y;
  for (int i = 0; i < 128; ++i) {
    const uint64_t bit =
        i < 64 ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    if (bit) z = z ^ v;
    const bool lsb = v.lo & 1;
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi >>= 1;
    if (lsb) v.hi ^= 0xe100000000000000ULL;  // R = 11100001 || 0^120
  }
  return z;
}

class Ghash {
 public:
  explicit Ghash(const Block& h) : h_(h) {}

  void update(BytesView data) {
    size_t off = 0;
    while (off < data.size()) {
      uint8_t block[16] = {0};
      const size_t take = std::min<size_t>(16, data.size() - off);
      std::memcpy(block, data.data() + off, take);
      absorb(Block::from_bytes(block));
      off += take;
    }
  }

  void absorb(const Block& b) { y_ = gf_mult(y_ ^ b, h_); }
  Block digest() const { return y_; }

 private:
  Block h_;
  Block y_{0, 0};
};

void inc32(uint8_t counter[16]) {
  for (int i = 15; i >= 12; --i) {
    if (++counter[i] != 0) break;
  }
}

// CTR keystream XOR, starting from the given counter block (pre-incremented
// by the caller for the first data block).
void ctr_xor(const Aes& aes, uint8_t counter[16], BytesView in, uint8_t* out) {
  size_t off = 0;
  uint8_t keystream[16];
  while (off < in.size()) {
    inc32(counter);
    aes.encrypt_block(counter, keystream);
    const size_t take = std::min<size_t>(16, in.size() - off);
    for (size_t i = 0; i < take; ++i) out[off + i] = in[off + i] ^ keystream[i];
    off += take;
  }
}

bool on_hardware(const Aes& aes) {
  return aes_impl::Access::path(aes) == aes_impl::Path::kHardware;
}

// CTR over `in` from J0, on the key's implementation.
void gcm_ctr(const Aes& aes, const uint8_t j0[16], BytesView in,
             uint8_t* out) {
  if (on_hardware(aes))
    return aes_impl::hw::ctr_xor(aes_impl::Access::round_keys(aes),
                                 aes_impl::Access::rounds(aes), j0, in.data(),
                                 in.size(), out);
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  ctr_xor(aes, counter, in, out);
}

Block compute_tag_block(const Aes& aes, BytesView nonce12, BytesView aad,
                        BytesView ciphertext) {
  // H = AES_K(0^128)
  uint8_t zero[16] = {0};
  uint8_t h_bytes[16];
  aes.encrypt_block(zero, h_bytes);

  Block s;
  if (on_hardware(aes)) {
    uint8_t s_bytes[16];
    aes_impl::hw::ghash(h_bytes, aad, ciphertext, s_bytes);
    s = Block::from_bytes(s_bytes);
  } else {
    Ghash ghash(Block::from_bytes(h_bytes));
    ghash.update(aad);
    ghash.update(ciphertext);
    Block lengths;
    lengths.hi = static_cast<uint64_t>(aad.size()) * 8;
    lengths.lo = static_cast<uint64_t>(ciphertext.size()) * 8;
    ghash.absorb(lengths);
    s = ghash.digest();
  }

  // J0 = nonce || 0^31 || 1 ; tag = AES_K(J0) xor S
  uint8_t j0[16] = {0};
  std::memcpy(j0, nonce12.data(), kGcmNonceSize);
  j0[15] = 1;
  uint8_t ej0[16];
  aes.encrypt_block(j0, ej0);
  return Block::from_bytes(ej0) ^ s;
}

}  // namespace

void gcm_seal_into(const Aes& aes, BytesView nonce12, BytesView aad,
                   BytesView plaintext, Bytes* out) {
  const size_t base = out->size();
  out->resize(base + plaintext.size() + kGcmTagSize);
  uint8_t* dst = out->data() + base;
  uint8_t j0[16] = {0};
  std::memcpy(j0, nonce12.data(), kGcmNonceSize);
  j0[15] = 1;  // data blocks start at inc32(J0)
  gcm_ctr(aes, j0, plaintext, dst);

  const Block tag =
      compute_tag_block(aes, nonce12, aad, BytesView(dst, plaintext.size()));
  tag.to_bytes(dst + plaintext.size());
}

Bytes gcm_seal(const Aes& aes, BytesView nonce12, BytesView aad,
               BytesView plaintext) {
  Bytes out;
  gcm_seal_into(aes, nonce12, aad, plaintext, &out);
  return out;
}

Result<Bytes> gcm_open(const Aes& aes, BytesView nonce12, BytesView aad,
                       BytesView ciphertext_and_tag) {
  if (ciphertext_and_tag.size() < kGcmTagSize)
    return err(Code::kCryptoError, "GCM input shorter than the tag");
  const size_t ct_len = ciphertext_and_tag.size() - kGcmTagSize;
  BytesView ciphertext = ciphertext_and_tag.subspan(0, ct_len);
  BytesView tag = ciphertext_and_tag.subspan(ct_len);

  const Block expect = compute_tag_block(aes, nonce12, aad, ciphertext);
  uint8_t expect_bytes[16];
  expect.to_bytes(expect_bytes);
  if (!ct_equal(BytesView(expect_bytes, kGcmTagSize), tag))
    return err(Code::kCryptoError, "GCM tag mismatch");

  Bytes out(ct_len);
  uint8_t j0[16] = {0};
  std::memcpy(j0, nonce12.data(), kGcmNonceSize);
  j0[15] = 1;
  gcm_ctr(aes, j0, ciphertext, out.data());
  return out;
}

Bytes gcm_seal(BytesView key, BytesView nonce12, BytesView aad,
               BytesView plaintext) {
  Aes aes(key);
  return gcm_seal(aes, nonce12, aad, plaintext);
}

void gcm_seal_into(BytesView key, BytesView nonce12, BytesView aad,
                   BytesView plaintext, Bytes* out) {
  Aes aes(key);
  gcm_seal_into(aes, nonce12, aad, plaintext, out);
}

Result<Bytes> gcm_open(BytesView key, BytesView nonce12, BytesView aad,
                       BytesView ciphertext_and_tag) {
  Aes aes(key);
  return gcm_open(aes, nonce12, aad, ciphertext_and_tag);
}

}  // namespace qtls
