#include <gtest/gtest.h>

#include "aes_paths.h"
#include "common/rng.h"
#include "crypto/gcm.h"

namespace qtls {
namespace {

using aes_impl::Path;

// NIST SP 800-38D / McGrew-Viega known answers, on every implementation
// this CPU runs.
class GcmKat : public ::testing::TestWithParam<Path> {
 protected:
  // Seals, checks ciphertext || tag against the expected hex, and opens the
  // expected bytes back to the plaintext.
  void expect_kat(BytesView key, BytesView iv, BytesView aad, BytesView pt,
                  const std::string& ct_hex, const std::string& tag_hex) {
    const Aes aes = aes_impl::Access::make(key, GetParam());
    const Bytes sealed = gcm_seal(aes, iv, aad, pt);
    ASSERT_EQ(sealed.size(), pt.size() + kGcmTagSize);
    EXPECT_EQ(to_hex(BytesView(sealed.data(), pt.size())), ct_hex);
    EXPECT_EQ(to_hex(BytesView(sealed.data() + pt.size(), kGcmTagSize)),
              tag_hex);
    auto opened = gcm_open(aes, iv, aad, from_hex(ct_hex + tag_hex));
    ASSERT_TRUE(opened.is_ok());
    EXPECT_EQ(opened.value(), Bytes(pt.begin(), pt.end()));
  }
};

INSTANTIATE_TEST_SUITE_P(Paths, GcmKat,
                         ::testing::ValuesIn(testutil::runnable_aes_paths()),
                         [](const auto& info) {
                           return testutil::aes_path_name(info.param);
                         });

// Test case 1: empty plaintext, empty AAD.
TEST_P(GcmKat, NistTestCase1) {
  expect_kat(Bytes(16, 0x00), Bytes(12, 0x00), {}, {}, "",
             "58e2fccefa7e3061367f1d57a4e7455a");
}

// Test case 2: one zero block.
TEST_P(GcmKat, NistTestCase2) {
  expect_kat(Bytes(16, 0x00), Bytes(12, 0x00), {}, Bytes(16, 0x00),
             "0388dace60b6a392f328c2b971b2fe78",
             "ab6e47d42cec13bdf53a67b21257bddf");
}

// Test cases 3/4 (AES-128) and 15/16 (AES-256) share IV and plaintext;
// 4 and 16 drop the last 4 plaintext bytes and add AAD.
const Bytes kKatKey128 = from_hex("feffe9928665731c6d6a8f9467308308");
const Bytes kKatIv = from_hex("cafebabefacedbaddecaf888");
const Bytes kKatPlaintext = from_hex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
const Bytes kKatAad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
const std::string kTc3Ciphertext =
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985";
const std::string kTc15Ciphertext =
    "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad";

Bytes kat_key256() {
  Bytes key = kKatKey128;
  append(key, kKatKey128);
  return key;
}

BytesView first60(const Bytes& b) { return BytesView(b.data(), 60); }

TEST_P(GcmKat, NistTestCase3) {
  expect_kat(kKatKey128, kKatIv, {}, kKatPlaintext, kTc3Ciphertext,
             "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST_P(GcmKat, NistTestCase4) {
  expect_kat(kKatKey128, kKatIv, kKatAad, first60(kKatPlaintext),
             kTc3Ciphertext.substr(0, 120),
             "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST_P(GcmKat, NistTestCase15) {
  expect_kat(kat_key256(), kKatIv, {}, kKatPlaintext, kTc15Ciphertext,
             "b094dac5d93471bdec1a502270e3cc6c");
}

TEST_P(GcmKat, NistTestCase16) {
  expect_kat(kat_key256(), kKatIv, kKatAad, first60(kKatPlaintext),
             kTc15Ciphertext.substr(0, 120),
             "76fc6ece0f4e1768cddf8853bb2d551b");
}

TEST(Gcm, RoundTripVariousSizes) {
  Rng rng(0x6763);
  const Bytes key = rng.bytes(16);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u, 16384u}) {
    const Bytes nonce = rng.bytes(kGcmNonceSize);
    const Bytes aad = rng.bytes(13);
    const Bytes pt = rng.bytes(len);
    const Bytes sealed = gcm_seal(key, nonce, aad, pt);
    EXPECT_EQ(sealed.size(), len + kGcmTagSize);
    auto opened = gcm_open(key, nonce, aad, sealed);
    ASSERT_TRUE(opened.is_ok()) << "len=" << len;
    EXPECT_EQ(opened.value(), pt) << "len=" << len;
  }
}

TEST(Gcm, Aes256KeysWork) {
  Rng rng(0x6764);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(kGcmNonceSize);
  const Bytes pt = rng.bytes(64);
  auto opened = gcm_open(key, nonce, {}, gcm_seal(key, nonce, {}, pt));
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value(), pt);
}

TEST(Gcm, TamperDetection) {
  Rng rng(0x6765);
  const Bytes key = rng.bytes(16);
  const Bytes nonce = rng.bytes(kGcmNonceSize);
  const Bytes aad = to_bytes("header");
  const Bytes pt = rng.bytes(48);
  const Bytes sealed = gcm_seal(key, nonce, aad, pt);

  // Flip a ciphertext byte.
  Bytes bad = sealed;
  bad[5] ^= 0x01;
  EXPECT_FALSE(gcm_open(key, nonce, aad, bad).is_ok());
  // Flip a tag byte.
  bad = sealed;
  bad[bad.size() - 1] ^= 0x01;
  EXPECT_FALSE(gcm_open(key, nonce, aad, bad).is_ok());
  // Wrong AAD.
  EXPECT_FALSE(gcm_open(key, nonce, to_bytes("headex"), sealed).is_ok());
  // Wrong nonce.
  Bytes other_nonce = nonce;
  other_nonce[0] ^= 1;
  EXPECT_FALSE(gcm_open(key, other_nonce, aad, sealed).is_ok());
  // Truncated input.
  EXPECT_FALSE(gcm_open(key, nonce, aad, BytesView(sealed.data(), 8)).is_ok());
}

TEST(Gcm, DistinctNoncesDistinctCiphertexts) {
  const Bytes key(16, 0x11);
  const Bytes pt(32, 0x22);
  Bytes n1(12, 0x00), n2(12, 0x00);
  n2[11] = 1;
  EXPECT_NE(gcm_seal(key, n1, {}, pt), gcm_seal(key, n2, {}, pt));
}

TEST(Gcm, AadAuthenticatedButNotEncrypted) {
  // Same plaintext, different AAD: ciphertext bytes equal, tags differ.
  const Bytes key(16, 0x31);
  const Bytes nonce(12, 0x32);
  const Bytes pt(40, 0x33);
  const Bytes s1 = gcm_seal(key, nonce, to_bytes("a"), pt);
  const Bytes s2 = gcm_seal(key, nonce, to_bytes("b"), pt);
  EXPECT_EQ(Bytes(s1.begin(), s1.end() - 16), Bytes(s2.begin(), s2.end() - 16));
  EXPECT_NE(Bytes(s1.end() - 16, s1.end()), Bytes(s2.end() - 16, s2.end()));
}

}  // namespace
}  // namespace qtls
