// AES-128/256 block cipher (FIPS 197) with CBC mode, plus the TLS
// "chained cipher" transform (AES-CBC + HMAC, MAC-then-encrypt) used by the
// AES128-SHA record protection the paper benchmarks in §5.4.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/hash.h"

namespace qtls {

namespace aes_impl {
enum class Path : uint8_t;
struct Access;
}  // namespace aes_impl (crypto/aes_impl.h)

class Aes {
 public:
  // key.size() must be 16 or 32. Runs on AES-NI when the CPU has it, else on
  // the portable byte-wise rounds (crypto/aes_impl.h).
  explicit Aes(BytesView key);

  void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;
  void decrypt_block(const uint8_t in[16], uint8_t out[16]) const;

 private:
  friend struct aes_impl::Access;
  Aes(BytesView key, aes_impl::Path path);

  aes_impl::Path path_;
  int rounds_;
  // (rounds_ + 1) 16-byte round keys, column-major as in FIPS 197.
  alignas(16) std::array<uint8_t, 240> round_keys_;
  // The hardware path's decryption keys (aesimc, reversed); the portable
  // path leaves them zero.
  alignas(16) std::array<uint8_t, 240> dec_round_keys_{};
};

// CBC with explicit IV; input must be a multiple of 16 (TLS pads first).
Bytes aes_cbc_encrypt(const Aes& aes, BytesView iv, BytesView plaintext);
// Same, writing into caller storage (out must hold plaintext.size() bytes).
void aes_cbc_encrypt_into(const Aes& aes, BytesView iv, BytesView plaintext,
                          uint8_t* out);
Result<Bytes> aes_cbc_decrypt(const Aes& aes, BytesView iv, BytesView ciphertext);

// TLS 1.2 CBC record protection, MAC-then-encrypt (RFC 5246 §6.2.3.2):
//   mac = HMAC(mac_key, seq || header || fragment)
//   padded = fragment || mac || pad bytes (each = pad_len) || pad_len
//   out = CBC-Encrypt(enc_key, iv, padded)
struct CbcHmacKeys {
  Bytes enc_key;
  Bytes mac_key;
  HashAlg mac_alg = HashAlg::kSha1;
};

Bytes cbc_hmac_seal(const CbcHmacKeys& keys, uint64_t seq, BytesView header,
                    BytesView iv, BytesView fragment);
// Appends the sealed record (same bytes as cbc_hmac_seal) to *out — the
// zero-copy path: ciphertext is encrypted directly into the output block.
void cbc_hmac_seal_into(const CbcHmacKeys& keys, uint64_t seq,
                        BytesView header, BytesView iv, BytesView fragment,
                        Bytes* out);
Result<Bytes> cbc_hmac_open(const CbcHmacKeys& keys, uint64_t seq,
                            BytesView header_without_len, BytesView iv,
                            BytesView ciphertext);

}  // namespace qtls
