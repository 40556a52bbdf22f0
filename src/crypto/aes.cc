#include "crypto/aes.h"

#include <cstring>
#include <stdexcept>

#include "crypto/aes_impl.h"

namespace qtls {

namespace {

// The S-box is generated (GF(2^8) inverse + affine map) rather than typed in,
// trading a few microseconds at startup for zero transcription risk.
struct SboxTables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];

  SboxTables() {
    // Build log/antilog tables over GF(2^8) with generator 3.
    uint8_t pow_tab[256];
    uint8_t log_tab[256] = {0};
    uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      pow_tab[i] = x;
      log_tab[x] = static_cast<uint8_t>(i);
      // multiply x by 3 = x ^ xtime(x)
      uint8_t xt = static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
      x = static_cast<uint8_t>(x ^ xt);
    }
    pow_tab[255] = pow_tab[0];
    auto inv = [&](uint8_t v) -> uint8_t {
      if (v == 0) return 0;
      return pow_tab[255 - log_tab[v]];
    };
    for (int i = 0; i < 256; ++i) {
      uint8_t v = inv(static_cast<uint8_t>(i));
      // affine transform: bit b = v_b ^ v_{b+4} ^ v_{b+5} ^ v_{b+6} ^ v_{b+7}
      // ^ c_b with c = 0x63 (indices mod 8)
      uint8_t affine = 0;
      for (int b = 0; b < 8; ++b) {
        uint8_t bit = static_cast<uint8_t>(
            ((v >> b) ^ (v >> ((b + 4) & 7)) ^ (v >> ((b + 5) & 7)) ^
             (v >> ((b + 6) & 7)) ^ (v >> ((b + 7) & 7)) ^ (0x63 >> b)) &
            1);
        affine |= static_cast<uint8_t>(bit << b);
      }
      sbox[i] = affine;
    }
    for (int i = 0; i < 256; ++i) inv_sbox[sbox[i]] = static_cast<uint8_t>(i);
  }
};

const SboxTables& tables() {
  static const SboxTables t;
  return t;
}

inline uint8_t xtime(uint8_t v) {
  return static_cast<uint8_t>((v << 1) ^ ((v & 0x80) ? 0x1b : 0));
}

inline uint8_t gmul(uint8_t a, uint8_t b) {
  uint8_t r = 0;
  while (b) {
    if (b & 1) r ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return r;
}

void sub_bytes(uint8_t s[16]) {
  const auto& t = tables();
  for (int i = 0; i < 16; ++i) s[i] = t.sbox[s[i]];
}

void inv_sub_bytes(uint8_t s[16]) {
  const auto& t = tables();
  for (int i = 0; i < 16; ++i) s[i] = t.inv_sbox[s[i]];
}

// State is column-major: s[4*c + r] is row r, column c.
void shift_rows(uint8_t s[16]) {
  uint8_t tmp[16];
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) tmp[4 * c + r] = s[4 * ((c + r) % 4) + r];
  std::memcpy(s, tmp, 16);
}

void inv_shift_rows(uint8_t s[16]) {
  uint8_t tmp[16];
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) tmp[4 * ((c + r) % 4) + r] = s[4 * c + r];
  std::memcpy(s, tmp, 16);
}

void mix_columns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void inv_mix_columns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
    col[1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
    col[2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
    col[3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
  }
}

}  // namespace

Aes::Aes(BytesView key)
    : Aes(key, aes_impl::hw_available() ? aes_impl::Path::kHardware
                                        : aes_impl::Path::kPortable) {}

Aes::Aes(BytesView key, aes_impl::Path path) : path_(path) {
  const size_t nk = key.size() / 4;  // words
  if (key.size() != 16 && key.size() != 32)
    throw std::invalid_argument("AES key must be 16 or 32 bytes");
  rounds_ = key.size() == 16 ? 10 : 14;
  if (path_ == aes_impl::Path::kHardware) {
    if (!aes_impl::hw_available())
      throw std::invalid_argument("AES: no AES-NI/PCLMULQDQ on this CPU");
    aes_impl::hw::expand_key(key, round_keys_.data(), dec_round_keys_.data());
    return;
  }
  const size_t total_words = 4 * (static_cast<size_t>(rounds_) + 1);
  const auto& t = tables();

  uint8_t w[60][4];
  for (size_t i = 0; i < nk; ++i)
    for (int b = 0; b < 4; ++b) w[i][b] = key[4 * i + static_cast<size_t>(b)];

  uint8_t rcon = 1;
  for (size_t i = nk; i < total_words; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, w[i - 1], 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(t.sbox[temp[1]] ^ rcon);
      temp[1] = t.sbox[temp[2]];
      temp[2] = t.sbox[temp[3]];
      temp[3] = t.sbox[t0];
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      for (int b = 0; b < 4; ++b) temp[b] = t.sbox[temp[b]];
    }
    for (int b = 0; b < 4; ++b) w[i][b] = w[i - nk][b] ^ temp[b];
  }
  for (size_t i = 0; i < total_words; ++i)
    std::memcpy(&round_keys_[4 * i], w[i], 4);
}

void Aes::encrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  if (path_ == aes_impl::Path::kHardware)
    return aes_impl::hw::encrypt_block(round_keys_.data(), rounds_, in, out);
  uint8_t s[16];
  std::memcpy(s, in, 16);
  for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[i];
  for (int round = 1; round < rounds_; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    const uint8_t* rk = &round_keys_[16 * static_cast<size_t>(round)];
    for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  }
  sub_bytes(s);
  shift_rows(s);
  const uint8_t* rk = &round_keys_[16 * static_cast<size_t>(rounds_)];
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
  std::memcpy(out, s, 16);
}

void Aes::decrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  if (path_ == aes_impl::Path::kHardware)
    return aes_impl::hw::decrypt_block(dec_round_keys_.data(), rounds_, in,
                                       out);
  uint8_t s[16];
  std::memcpy(s, in, 16);
  const uint8_t* rk_last = &round_keys_[16 * static_cast<size_t>(rounds_)];
  for (int i = 0; i < 16; ++i) s[i] ^= rk_last[i];
  for (int round = rounds_ - 1; round >= 1; --round) {
    inv_shift_rows(s);
    inv_sub_bytes(s);
    const uint8_t* rk = &round_keys_[16 * static_cast<size_t>(round)];
    for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
    inv_mix_columns(s);
  }
  inv_shift_rows(s);
  inv_sub_bytes(s);
  for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[i];
  std::memcpy(out, s, 16);
}

void aes_cbc_encrypt_into(const Aes& aes, BytesView iv, BytesView plaintext,
                          uint8_t* out) {
  if (iv.size() != 16 || plaintext.size() % 16 != 0)
    throw std::invalid_argument("CBC: bad iv/plaintext size");
  uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  for (size_t off = 0; off < plaintext.size(); off += 16) {
    uint8_t block[16];
    for (int i = 0; i < 16; ++i)
      block[i] = plaintext[off + static_cast<size_t>(i)] ^ chain[i];
    aes.encrypt_block(block, out + off);
    std::memcpy(chain, out + off, 16);
  }
}

Bytes aes_cbc_encrypt(const Aes& aes, BytesView iv, BytesView plaintext) {
  Bytes out(plaintext.size());
  aes_cbc_encrypt_into(aes, iv, plaintext, out.data());
  return out;
}

Result<Bytes> aes_cbc_decrypt(const Aes& aes, BytesView iv,
                              BytesView ciphertext) {
  if (iv.size() != 16) return err(Code::kInvalidArgument, "CBC: bad iv");
  if (ciphertext.empty() || ciphertext.size() % 16 != 0)
    return err(Code::kInvalidArgument, "CBC: ciphertext not block-aligned");
  Bytes out(ciphertext.size());
  uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  for (size_t off = 0; off < ciphertext.size(); off += 16) {
    uint8_t block[16];
    aes.decrypt_block(&ciphertext[off], block);
    for (int i = 0; i < 16; ++i)
      out[off + static_cast<size_t>(i)] = block[i] ^ chain[i];
    std::memcpy(chain, &ciphertext[off], 16);
  }
  return out;
}

void cbc_hmac_seal_into(const CbcHmacKeys& keys, uint64_t seq,
                        BytesView header, BytesView iv, BytesView fragment,
                        Bytes* out) {
  // MAC over seq || header(with true fragment length) || fragment.
  HmacCtx mac(keys.mac_alg, keys.mac_key);
  Bytes seq_bytes;
  append_u64(seq_bytes, seq);
  mac.update(seq_bytes);
  mac.update(header);
  mac.update(fragment);
  Bytes tag = mac.finish();

  Bytes padded(fragment.begin(), fragment.end());
  append(padded, tag);
  const size_t pad_len = 16 - (padded.size() + 1) % 16;
  padded.insert(padded.end(), pad_len + 1, static_cast<uint8_t>(pad_len));

  Aes aes(keys.enc_key);
  // `iv` may alias *out (the record layer seals after the explicit IV it
  // wrote into the output block) — copy it before the resize can relocate.
  uint8_t iv_copy[16];
  if (iv.size() == 16) std::memcpy(iv_copy, iv.data(), 16);
  const size_t base = out->size();
  out->resize(base + padded.size());
  aes_cbc_encrypt_into(aes, BytesView(iv_copy, iv.size() == 16 ? 16 : 0),
                       padded, out->data() + base);
}

Bytes cbc_hmac_seal(const CbcHmacKeys& keys, uint64_t seq, BytesView header,
                    BytesView iv, BytesView fragment) {
  Bytes out;
  cbc_hmac_seal_into(keys, seq, header, iv, fragment, &out);
  return out;
}

Result<Bytes> cbc_hmac_open(const CbcHmacKeys& keys, uint64_t seq,
                            BytesView header_without_len, BytesView iv,
                            BytesView ciphertext) {
  Aes aes(keys.enc_key);
  QTLS_ASSIGN_OR_RETURN(Bytes padded, aes_cbc_decrypt(aes, iv, ciphertext));
  const size_t mac_len = hash_digest_size(keys.mac_alg);
  if (padded.empty()) return err(Code::kCryptoError, "empty record");
  const uint8_t pad_len = padded.back();
  if (padded.size() < static_cast<size_t>(pad_len) + 1 + mac_len)
    return err(Code::kCryptoError, "bad padding length");
  // All padding bytes must equal pad_len.
  uint8_t bad = 0;
  for (size_t i = padded.size() - 1 - pad_len; i < padded.size(); ++i)
    bad |= padded[i] ^ pad_len;
  if (bad) return err(Code::kCryptoError, "bad padding");
  const size_t frag_len = padded.size() - pad_len - 1 - mac_len;

  BytesView fragment(padded.data(), frag_len);
  BytesView tag(padded.data() + frag_len, mac_len);

  HmacCtx mac(keys.mac_alg, keys.mac_key);
  Bytes seq_bytes;
  append_u64(seq_bytes, seq);
  mac.update(seq_bytes);
  mac.update(header_without_len);
  Bytes len_bytes;
  append_u16(len_bytes, static_cast<uint16_t>(frag_len));
  mac.update(len_bytes);
  mac.update(fragment);
  Bytes expected = mac.finish();
  if (!ct_equal(tag, expected)) return err(Code::kCryptoError, "bad MAC");
  return Bytes(fragment.begin(), fragment.end());
}

}  // namespace qtls
