#include <gtest/gtest.h>

#include "aes_paths.h"
#include "common/rng.h"
#include "crypto/aes.h"

namespace qtls {
namespace {

using aes_impl::Path;

// FIPS-197 Appendix C vectors, on every implementation this CPU runs.
class AesKat : public ::testing::TestWithParam<Path> {};

INSTANTIATE_TEST_SUITE_P(Paths, AesKat,
                         ::testing::ValuesIn(testutil::runnable_aes_paths()),
                         [](const auto& info) {
                           return testutil::aes_path_name(info.param);
                         });

TEST_P(AesKat, Fips197Aes128Vector) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes aes = aes_impl::Access::make(key, GetParam());
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(BytesView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex(BytesView(back, 16)), to_hex(pt));
}

TEST_P(AesKat, Fips197Aes256Vector) {
  const Bytes key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes aes = aes_impl::Access::make(key, GetParam());
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(BytesView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex(BytesView(back, 16)), to_hex(pt));
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(10, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(24, 0)), std::invalid_argument);
}

TEST(Aes, EncryptDecryptRandomRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Bytes key = rng.bytes(i % 2 ? 16 : 32);
    const Bytes pt = rng.bytes(16);
    Aes aes(key);
    uint8_t ct[16], back[16];
    aes.encrypt_block(pt.data(), ct);
    aes.decrypt_block(ct, back);
    EXPECT_EQ(Bytes(back, back + 16), pt);
  }
}

TEST(AesCbc, RoundTrip) {
  Rng rng(2);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  const Bytes pt = rng.bytes(160);
  Aes aes(key);
  const Bytes ct = aes_cbc_encrypt(aes, iv, pt);
  EXPECT_EQ(ct.size(), pt.size());
  EXPECT_NE(ct, pt);
  auto back = aes_cbc_decrypt(aes, iv, ct);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), pt);
}

TEST(AesCbc, ChainingPropagates) {
  // Same plaintext blocks must produce different ciphertext blocks.
  Rng rng(3);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(16);
  Bytes pt(64, 0x42);
  Aes aes(key);
  const Bytes ct = aes_cbc_encrypt(aes, iv, pt);
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 16),
            Bytes(ct.begin() + 16, ct.begin() + 32));
}

TEST(AesCbc, RejectsUnalignedInput) {
  Aes aes(Bytes(16, 1));
  const Bytes iv(16, 0);
  EXPECT_THROW(aes_cbc_encrypt(aes, iv, Bytes(15, 0)), std::invalid_argument);
  EXPECT_FALSE(aes_cbc_decrypt(aes, iv, Bytes(17, 0)).is_ok());
  EXPECT_FALSE(aes_cbc_decrypt(aes, Bytes(8, 0), Bytes(16, 0)).is_ok());
}

CbcHmacKeys test_keys() {
  CbcHmacKeys keys;
  keys.enc_key = Bytes(16, 0x11);
  keys.mac_key = Bytes(20, 0x22);
  keys.mac_alg = HashAlg::kSha1;
  return keys;
}

Bytes record_header(uint8_t type, size_t len) {
  Bytes h;
  append_u8(h, type);
  append_u16(h, 0x0303);
  append_u16(h, static_cast<uint16_t>(len));
  return h;
}

TEST(CbcHmac, SealOpenRoundTrip) {
  const CbcHmacKeys keys = test_keys();
  Rng rng(4);
  for (size_t len : {0u, 1u, 15u, 16u, 100u, 1000u}) {
    const Bytes fragment = rng.bytes(len);
    const Bytes iv = rng.bytes(16);
    const Bytes header = record_header(23, fragment.size());
    const Bytes sealed = cbc_hmac_seal(keys, 7, header, iv, fragment);
    EXPECT_EQ(sealed.size() % 16, 0u);

    const Bytes header3(header.begin(), header.begin() + 3);
    auto opened = cbc_hmac_open(keys, 7, header3, iv, sealed);
    ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
    EXPECT_EQ(opened.value(), fragment);
  }
}

TEST(CbcHmac, WrongSequenceFailsMac) {
  const CbcHmacKeys keys = test_keys();
  Rng rng(5);
  const Bytes fragment = rng.bytes(64);
  const Bytes iv = rng.bytes(16);
  const Bytes header = record_header(23, fragment.size());
  const Bytes sealed = cbc_hmac_seal(keys, 1, header, iv, fragment);
  const Bytes header3(header.begin(), header.begin() + 3);
  EXPECT_FALSE(cbc_hmac_open(keys, 2, header3, iv, sealed).is_ok());
}

TEST(CbcHmac, TamperedCiphertextFails) {
  const CbcHmacKeys keys = test_keys();
  Rng rng(6);
  const Bytes fragment = rng.bytes(64);
  const Bytes iv = rng.bytes(16);
  const Bytes header = record_header(23, fragment.size());
  Bytes sealed = cbc_hmac_seal(keys, 1, header, iv, fragment);
  sealed[10] ^= 0x01;
  const Bytes header3(header.begin(), header.begin() + 3);
  EXPECT_FALSE(cbc_hmac_open(keys, 1, header3, iv, sealed).is_ok());
}

TEST(CbcHmac, WrongKeyFails) {
  const CbcHmacKeys keys = test_keys();
  CbcHmacKeys other = keys;
  other.mac_key = Bytes(20, 0x33);
  Rng rng(7);
  const Bytes fragment = rng.bytes(32);
  const Bytes iv = rng.bytes(16);
  const Bytes header = record_header(23, fragment.size());
  const Bytes sealed = cbc_hmac_seal(keys, 0, header, iv, fragment);
  const Bytes header3(header.begin(), header.begin() + 3);
  EXPECT_FALSE(cbc_hmac_open(other, 0, header3, iv, sealed).is_ok());
}

}  // namespace
}  // namespace qtls
