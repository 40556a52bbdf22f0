// Differential test of the two AES/GHASH implementations
// (crypto/aes_impl.h): the hardware path must produce byte-identical output
// to the portable reference for every key size, AAD length and plaintext
// length that exercises a different branch of its loops (8-block CTR
// batches, 4-block GHASH aggregation, single blocks, partial tails).
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "crypto/aes_impl.h"
#include "crypto/gcm.h"

namespace qtls {
namespace {

using aes_impl::Access;
using aes_impl::Path;

constexpr size_t kAadLens[] = {0, 1, 13, 16, 17, 40};
constexpr size_t kPlaintextLens[] = {0,   1,   15,  16,   17,    127,  128,
                                     129, 255, 256, 1000, 16384, 16401};

class AesPaths : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!aes_impl::hw_available())
      GTEST_SKIP() << "this CPU lacks AES-NI/PCLMULQDQ: only the portable "
                      "path runs, so there is nothing to compare";
  }
};

TEST_F(AesPaths, KeyScheduleAndBlocksMatch) {
  Rng rng(0xae5);
  for (size_t key_size : {16u, 32u}) {
    for (int k = 0; k < 20; ++k) {
      const Bytes key = rng.bytes(key_size);
      const Aes sw = Access::make(key, Path::kPortable);
      const Aes hw = Access::make(key, Path::kHardware);
      ASSERT_EQ(Access::rounds(sw), Access::rounds(hw));
      const size_t schedule = 16 * static_cast<size_t>(Access::rounds(sw) + 1);
      EXPECT_EQ(0, std::memcmp(Access::round_keys(sw), Access::round_keys(hw),
                               schedule))
          << "key " << to_hex(key);
      for (int b = 0; b < 20; ++b) {
        const Bytes in = rng.bytes(16);
        uint8_t out_sw[16], out_hw[16];
        sw.encrypt_block(in.data(), out_sw);
        hw.encrypt_block(in.data(), out_hw);
        ASSERT_EQ(0, std::memcmp(out_sw, out_hw, 16)) << "key " << to_hex(key);
        sw.decrypt_block(in.data(), out_sw);
        hw.decrypt_block(in.data(), out_hw);
        ASSERT_EQ(0, std::memcmp(out_sw, out_hw, 16)) << "key " << to_hex(key);
      }
    }
  }
}

TEST_F(AesPaths, GcmSealOpenMatch) {
  Rng rng(0x6c6d);
  for (size_t key_size : {16u, 32u}) {
    const Bytes key = rng.bytes(key_size);
    const Aes sw = Access::make(key, Path::kPortable);
    const Aes hw = Access::make(key, Path::kHardware);
    for (size_t aad_len : kAadLens) {
      for (size_t pt_len : kPlaintextLens) {
        SCOPED_TRACE(testing::Message() << "key " << key_size * 8 << " aad "
                                        << aad_len << " pt " << pt_len);
        const Bytes nonce = rng.bytes(kGcmNonceSize);
        const Bytes aad = rng.bytes(aad_len);
        const Bytes pt = rng.bytes(pt_len);
        const Bytes sealed = gcm_seal(sw, nonce, aad, pt);
        ASSERT_EQ(gcm_seal(hw, nonce, aad, pt), sealed);

        for (const Aes* aes : {&sw, &hw}) {
          auto opened = gcm_open(*aes, nonce, aad, sealed);
          ASSERT_TRUE(opened.is_ok());
          EXPECT_EQ(opened.value(), pt);
          // One flipped bit anywhere fails authentication on both paths.
          Bytes bad = sealed;
          bad[rng.uniform(bad.size())] ^= 0x80;
          EXPECT_FALSE(gcm_open(*aes, nonce, aad, bad).is_ok());
        }
      }
    }
  }
}

TEST_F(AesPaths, CbcEncryptDecryptMatch) {
  Rng rng(0xcbc);
  for (size_t key_size : {16u, 32u}) {
    const Bytes key = rng.bytes(key_size);
    const Aes sw = Access::make(key, Path::kPortable);
    const Aes hw = Access::make(key, Path::kHardware);
    for (size_t pt_len : kPlaintextLens) {
      // CBC takes whole blocks (TLS pads first); round each length up.
      const size_t len = (pt_len + 16) / 16 * 16;
      SCOPED_TRACE(testing::Message() << "key " << key_size * 8 << " len "
                                      << len);
      const Bytes iv = rng.bytes(16);
      const Bytes pt = rng.bytes(len);
      const Bytes ct = aes_cbc_encrypt(sw, iv, pt);
      ASSERT_EQ(aes_cbc_encrypt(hw, iv, pt), ct);
      for (const Aes* aes : {&sw, &hw}) {
        auto back = aes_cbc_decrypt(*aes, iv, ct);
        ASSERT_TRUE(back.is_ok());
        EXPECT_EQ(back.value(), pt);
      }
    }
  }
}

}  // namespace
}  // namespace qtls
