// Differential tests of the asymmetric paths (crypto/asym_impl.h): the
// fixed-width and IFMA Montgomery exponentiations and the dedicated P-256
// code must give exactly what the generic Bignum code gives, on random
// operands and on the edges of each kernel (zero and all-ones exponents,
// bases at and past the modulus, scalars at and past the group order,
// scalars whose top windows are zero, coordinates at and past p). The IFMA
// tests skip, with a message, on a CPU without AVX-512 IFMA.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/asym_impl.h"
#include "crypto/hash.h"
#include "crypto/kdf.h"
#include "crypto/keystore.h"
#include "crypto/primes.h"
#include "crypto/rsa.h"

namespace qtls {
namespace {

using asym_impl::Access;
using asym_impl::Path;

// A random odd modulus of exactly `limbs` limbs; top_limb != 0 pins the top.
Bignum random_modulus(Rng& rng, size_t limbs, uint64_t top_limb = 0) {
  Bignum n = Bignum::from_bytes_be(rng.bytes(limbs * 8));
  n.limbs().resize(limbs);
  n.limbs()[0] |= 1;
  n.limbs()[limbs - 1] = top_limb != 0 ? top_limb : n.limbs()[limbs - 1] | 1;
  return n;
}

Bignum random_bits_of(Rng& rng, size_t bits) {
  Bignum v = Bignum::from_bytes_be(rng.bytes((bits + 7) / 8));
  return Bignum::shr(v, (bits + 7) / 8 * 8 - bits);
}

Bignum all_ones(size_t bits) {
  return Bignum::sub(Bignum::shl(Bignum(1), bits), Bignum(1));
}

// The fixed and generic results always; the IFMA result too for a 16-limb
// modulus on a CPU that has it.
void expect_exp_agrees(const Bignum& n, const Bignum& a, const Bignum& e) {
  const MontCtx fixed = Access::make_mont(n, Path::kFixed);
  const MontCtx generic = Access::make_mont(n, Path::kGeneric);
  const Bignum want = generic.exp(a, e);
  EXPECT_EQ(fixed.exp(a, e), want)
      << "n=" << n.to_hex() << " a=" << a.to_hex() << " e=" << e.to_hex();
  if (n.limb_count() == 16 && asym_impl::ifma_available()) {
    const MontCtx ifma = Access::make_mont(n, Path::kIfma);
    EXPECT_EQ(ifma.exp(a, e), want)
        << "ifma n=" << n.to_hex() << " a=" << a.to_hex()
        << " e=" << e.to_hex();
  }
}

// The path a 16-limb modulus takes on this CPU.
Path path_16() {
  return asym_impl::ifma_available() ? Path::kIfma : Path::kFixed;
}

#define SKIP_WITHOUT_IFMA()                                              \
  if (!asym_impl::ifma_available())                                      \
  GTEST_SKIP() << "CPU lacks AVX512F/VL/IFMA: the kIfma path is absent " \
                  "here and the fixed path runs instead"

TEST(AsymPaths, ShapeAlonePicksThePath) {
  Rng rng(0x5a);
  for (size_t limbs : {1u, 4u, 8u, 15u, 16u, 17u, 24u, 31u, 32u, 33u, 48u}) {
    const MontCtx ctx(random_modulus(rng, limbs));
    const Path want = limbs == 16                ? path_16()
                      : limbs == 4 || limbs == 32 ? Path::kFixed
                                                  : Path::kGeneric;
    EXPECT_EQ(Access::path(ctx), want) << limbs << " limbs";
  }
  const Bignum n16 = random_modulus(rng, 16);
  EXPECT_THROW((void)Access::make_mont(random_modulus(rng, 8), Path::kFixed),
               std::invalid_argument);
  EXPECT_THROW((void)Access::make_mont(random_modulus(rng, 32), Path::kIfma),
               std::invalid_argument);
  if (!asym_impl::ifma_available()) {
    EXPECT_THROW((void)Access::make_mont(n16, Path::kIfma),
                 std::invalid_argument);
  }
  EXPECT_EQ(Access::path(curve_p256()), Path::kFixed);
  EXPECT_EQ(Access::path(curve_p384()), Path::kGeneric);
  EXPECT_EQ(Access::path(Access::p256(Path::kGeneric)), Path::kGeneric);
}

TEST(AsymPaths, MontExpRandomFullWidth) {
  Rng rng(0x4d4f4e54);
  for (size_t limbs : {4u, 16u, 32u}) {
    for (int m = 0; m < 6; ++m) {
      // One modulus with a one-word top limb: R^2 mod n and the final
      // subtraction see their widest spread there.
      const Bignum n = random_modulus(rng, limbs, m == 0 ? 1 : 0);
      for (int k = 0; k < 3; ++k) {
        const Bignum a = Bignum::mod(random_bits_of(rng, limbs * 64), n);
        const Bignum e = random_bits_of(rng, limbs * 64);
        expect_exp_agrees(n, a, e);
      }
    }
  }
}

TEST(AsymPaths, MontExpEdgeExponentsAndBases) {
  Rng rng(0xed6e);
  for (size_t limbs : {4u, 16u, 32u}) {
    const Bignum n = random_modulus(rng, limbs);
    const Bignum n_minus_1 = Bignum::sub(n, Bignum(1));
    // Exponents at each window-width boundary as well as the named edges.
    const Bignum exponents[] = {Bignum(0),
                                Bignum(1),
                                Bignum(2),
                                Bignum(65537),
                                all_ones(limbs * 64),
                                all_ones(23),
                                all_ones(24),
                                random_bits_of(rng, 80),
                                random_bits_of(rng, 240),
                                random_bits_of(rng, 672),
                                Bignum::shl(Bignum(1), limbs * 64 - 1)};
    const Bignum bases[] = {Bignum(0),
                            Bignum(1),
                            n_minus_1,
                            n,
                            Bignum::add(n, Bignum(1)),
                            Bignum::add(Bignum::mul(n, Bignum(3)), Bignum(5)),
                            random_bits_of(rng, limbs * 128),
                            Bignum::mod(random_bits_of(rng, limbs * 64), n)};
    for (const Bignum& e : exponents)
      for (const Bignum& a : bases) expect_exp_agrees(n, a, e);
  }
}

// -------------------------------------------------------------- IFMA ----

TEST(AsymPaths, IfmaEdgesOnModuliFromSeveralSeeds) {
  SKIP_WITHOUT_IFMA();
  for (uint64_t seed : {0x1f3au, 0x2b7cu, 0x3d01u, 0x4e55u}) {
    Rng rng(seed);
    // A random odd modulus, one whose top limb is 1 (961 bits) and one whose
    // top limb is all ones.
    for (uint64_t top : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
      const Bignum n = random_modulus(rng, 16, top);
      const Bignum exponents[] = {
          Bignum(0), Bignum(1), Bignum(2), Bignum(65537), all_ones(1024),
          // Leading zero windows under the full-width schedule of x2, and a
          // 1024-bit exponent whose top windows are zero.
          random_bits_of(rng, 300), Bignum::shl(Bignum(1), 1023),
          Bignum::add(Bignum::shl(Bignum(1), 1000), Bignum(1)),
          random_bits_of(rng, 1024)};
      const Bignum bases[] = {Bignum(0),
                              Bignum(1),
                              Bignum::sub(n, Bignum(1)),
                              n,
                              Bignum::add(n, Bignum(7)),
                              random_bits_of(rng, 2048),
                              Bignum::mod(random_bits_of(rng, 1024), n)};
      for (const Bignum& e : exponents)
        for (const Bignum& a : bases) expect_exp_agrees(n, a, e);
    }
  }
}

TEST(AsymPaths, IfmaX2MatchesTwoSingles) {
  SKIP_WITHOUT_IFMA();
  Rng rng(0x7832);
  for (int round = 0; round < 6; ++round) {
    const Bignum p = random_modulus(rng, 16, round == 0 ? 1 : 0);
    const Bignum q = random_modulus(rng, 16);
    const MontCtx cp = Access::make_mont(p, Path::kIfma);
    const MontCtx cq = Access::make_mont(q, Path::kIfma);
    const MontCtx gp = Access::make_mont(p, Path::kGeneric);
    const MontCtx gq = Access::make_mont(q, Path::kGeneric);
    // Exponents of different lengths, and the edges, in either half.
    const Bignum ep = round == 1   ? Bignum(0)
                      : round == 2 ? all_ones(1024)
                                   : random_bits_of(rng, 1024 - 97 * round);
    const Bignum eq = round == 3 ? Bignum(1) : random_bits_of(rng, 1024);
    const Bignum a = round == 4 ? Bignum(0) : random_bits_of(rng, 2048);
    Bignum mp, mq;
    asym_impl::ifma_mont_exp_x2(cp, ep, cq, eq, a, mp, mq);
    EXPECT_EQ(mp, cp.exp(a, ep)) << "round " << round;
    EXPECT_EQ(mq, cq.exp(a, eq)) << "round " << round;
    EXPECT_EQ(mp, gp.exp(a, ep)) << "round " << round;
    EXPECT_EQ(mq, gq.exp(a, eq)) << "round " << round;
  }
}

// ------------------------------------------------------------- P-256 ----

const EcCurve& fixed_p256() { return Access::p256(Path::kFixed); }
const EcCurve& generic_p256() { return Access::p256(Path::kGeneric); }

void expect_same_point(const EcPoint& a, const EcPoint& b) {
  ASSERT_EQ(a.infinity, b.infinity);
  if (a.infinity) return;
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
}

std::vector<EcPoint> test_points(HmacDrbg& rng) {
  std::vector<EcPoint> points{fixed_p256().generator()};
  for (int i = 0; i < 3; ++i)
    points.push_back(
        generic_p256().mul(random_below(generic_p256().order(), rng),
                           generic_p256().generator()));
  return points;
}

void expect_mul_agrees(const Bignum& k, const EcPoint& pt) {
  SCOPED_TRACE("k=" + k.to_hex());
  expect_same_point(fixed_p256().mul(k, pt), generic_p256().mul(k, pt));
}

void expect_mul_base_agrees(const Bignum& k) {
  SCOPED_TRACE("k=" + k.to_hex());
  expect_same_point(fixed_p256().mul_base(k), generic_p256().mul_base(k));
}

TEST(AsymPaths, P256MulRandomScalars) {
  HmacDrbg rng = make_test_drbg(0x256);
  for (const EcPoint& pt : test_points(rng)) {
    for (int i = 0; i < 8; ++i) {
      const Bignum k = random_below(fixed_p256().order(), rng);
      expect_mul_agrees(k, pt);
    }
  }
  for (int i = 0; i < 16; ++i)
    expect_mul_base_agrees(random_below(fixed_p256().order(), rng));
}

TEST(AsymPaths, P256MulEdgeScalars) {
  HmacDrbg rng = make_test_drbg(0x257);
  const Bignum& n = fixed_p256().order();
  std::vector<Bignum> scalars = {Bignum(0),
                                 Bignum(1),
                                 Bignum(2),
                                 Bignum(3),
                                 Bignum::sub(n, Bignum(2)),
                                 Bignum::sub(n, Bignum(1)),
                                 n,
                                 Bignum::add(n, Bignum(1)),
                                 Bignum::shl(Bignum(1), 255),
                                 Bignum::add(Bignum::mul(n, Bignum(2)), Bignum(7))};
  // Top windows zero: short scalars and a long run of zero windows.
  for (size_t bits : {4u, 8u, 60u, 64u, 65u, 128u, 200u, 252u})
    scalars.push_back(random_bits(bits, rng));
  scalars.push_back(Bignum::add(Bignum::shl(Bignum(1), 64), Bignum(1)));
  for (const EcPoint& pt : test_points(rng))
    for (const Bignum& k : scalars) expect_mul_agrees(k, pt);
  for (const Bignum& k : scalars) expect_mul_base_agrees(k);
  EXPECT_TRUE(fixed_p256().mul(Bignum(5), EcPoint::at_infinity()).infinity);
}

TEST(AsymPaths, P256OnCurveAgrees) {
  HmacDrbg rng = make_test_drbg(0x258);
  const Bignum& p = fixed_p256().p();
  std::vector<std::pair<EcPoint, bool>> cases{{EcPoint::at_infinity(), true}};
  for (const EcPoint& pt : test_points(rng)) {
    cases.push_back({pt, true});
    // One coordinate perturbed.
    cases.push_back({EcPoint::affine(Bignum::mod_add(pt.x, Bignum(1), p), pt.y),
                     false});
    cases.push_back({EcPoint::affine(pt.x, Bignum::mod_add(pt.y, Bignum(1), p)),
                     false});
    cases.push_back({EcPoint::affine(pt.x, Bignum::sub(p, pt.y)), true});
    // A coordinate at or past p, including the same point shifted by p.
    cases.push_back({EcPoint::affine(Bignum::add(pt.x, p), pt.y), false});
    cases.push_back({EcPoint::affine(pt.x, Bignum::add(pt.y, p)), false});
    cases.push_back({EcPoint::affine(p, pt.y), false});
    cases.push_back({EcPoint::affine(pt.x, p), false});
    cases.push_back({EcPoint::affine(all_ones(256), pt.y), false});
    cases.push_back({EcPoint::affine(all_ones(320), pt.y), false});
  }
  cases.push_back({EcPoint::affine(Bignum(0), Bignum(0)), false});
  for (const auto& [pt, valid] : cases) {
    SCOPED_TRACE("x=" + pt.x.to_hex() + " y=" + pt.y.to_hex());
    EXPECT_EQ(fixed_p256().on_curve(pt), valid);
    EXPECT_EQ(generic_p256().on_curve(pt), valid);
  }
}

// ---------------------------------------------------------- whole ops ----

TEST(AsymPaths, EcOpsByteIdentical) {
  const Bytes digest = sha256(to_bytes("asym paths"));
  for (uint64_t seed : {1u, 2u, 3u, 16u}) {
    HmacDrbg rf = make_test_drbg(seed);
    HmacDrbg rg = make_test_drbg(seed);
    const EcKeyPair af = ec_generate_key(fixed_p256(), rf);
    const EcKeyPair ag = ec_generate_key(generic_p256(), rg);
    ASSERT_EQ(af.priv, ag.priv);
    ASSERT_EQ(fixed_p256().encode_point(af.pub),
              generic_p256().encode_point(ag.pub));
    const EcKeyPair bf = ec_generate_key(fixed_p256(), rf);
    const EcKeyPair bg = ec_generate_key(generic_p256(), rg);
    const auto sf = ecdh_shared_secret(fixed_p256(), af.priv, bg.pub);
    const auto sg = ecdh_shared_secret(generic_p256(), ag.priv, bf.pub);
    ASSERT_TRUE(sf.is_ok());
    ASSERT_TRUE(sg.is_ok());
    EXPECT_EQ(sf.value(), sg.value());
    const Bytes sig_f = ecdsa_sign(fixed_p256(), af.priv, digest, rf).encode();
    const Bytes sig_g =
        ecdsa_sign(generic_p256(), ag.priv, digest, rg).encode();
    EXPECT_EQ(sig_f, sig_g);
    if (seed == 16) {
      // Known answers from the generic code.
      EXPECT_EQ(to_hex(sf.value()),
                "58407d1b94df1e13b8f876c8e85b6efb"
                "0a7d44797943b804c7a6f6a750eabc2f");
      EXPECT_EQ(to_hex(sha256(sig_f)),
                "871276ba616a946562c006f4a920eacd"
                "a184c7d3e330c56ff17636d4582ba707");
    }
  }
}

// The tests from here on use the keystore keys. RSA-2048 keygen runs
// Miller-Rabin on the IFMA or fixed path, so a broken kernel hangs it: the
// differential tests above run first and name the fault before that.
TEST(AsymPaths, RsaOpsByteIdentical) {
  const RsaPrivateKey& key = test_rsa2048();
  EXPECT_EQ(Access::path(*key.mont_p), path_16());
  EXPECT_EQ(Access::path(*key.pub.mont_n), Path::kFixed);
  RsaPrivateKey generic = key;
  generic.mont_p = std::make_shared<const MontCtx>(
      Access::make_mont(key.p, Path::kGeneric));
  generic.mont_q = std::make_shared<const MontCtx>(
      Access::make_mont(key.q, Path::kGeneric));
  generic.pub.mont_n = std::make_shared<const MontCtx>(
      Access::make_mont(key.pub.n, Path::kGeneric));
  for (const char* msg : {"asym paths", "", "a third digest"}) {
    const Bytes digest = sha256(to_bytes(msg));
    const Bytes sig = rsa_sign_pkcs1(key, digest);
    EXPECT_EQ(sig, rsa_sign_pkcs1(generic, digest));
    EXPECT_TRUE(rsa_verify_pkcs1(key.pub, digest, sig).is_ok());
    EXPECT_TRUE(rsa_verify_pkcs1(generic.pub, digest, sig).is_ok());
    HmacDrbg rf = make_test_drbg(7);
    HmacDrbg rg = make_test_drbg(7);
    const auto cf = rsa_encrypt_pkcs1(key.pub, digest, rf);
    const auto cg = rsa_encrypt_pkcs1(generic.pub, digest, rg);
    ASSERT_TRUE(cf.is_ok());
    ASSERT_TRUE(cg.is_ok());
    EXPECT_EQ(cf.value(), cg.value());
  }
  EXPECT_EQ(to_hex(sha256(rsa_sign_pkcs1(key, sha256(to_bytes("asym paths"))))),
            "dfa7e510d6a908ebd054cce0c7fc6741"
            "2acb3e3b9a718a3d3d2cd4dcd1ca2498");
}

// The same key on each CRT path: signatures and decryptions byte for byte.
TEST(AsymPaths, RsaPrivateOpsByteIdenticalOnEveryPath) {
  const RsaPrivateKey& key = test_rsa2048();
  std::vector<Path> paths{Path::kGeneric, Path::kFixed};
  if (asym_impl::ifma_available()) paths.push_back(Path::kIfma);
  std::vector<RsaPrivateKey> keys;
  for (Path path : paths) {
    RsaPrivateKey k = key;
    k.mont_p =
        std::make_shared<const MontCtx>(Access::make_mont(key.p, path));
    k.mont_q =
        std::make_shared<const MontCtx>(Access::make_mont(key.q, path));
    keys.push_back(k);
  }
  HmacDrbg rng = make_test_drbg(21);
  for (const char* msg : {"asym paths", "", "every path"}) {
    const Bytes digest = sha256(to_bytes(msg));
    const Bytes sig = rsa_sign_pkcs1(keys[0], digest);
    const auto ct = rsa_encrypt_pkcs1(key.pub, digest, rng);
    ASSERT_TRUE(ct.is_ok());
    for (size_t i = 0; i < keys.size(); ++i) {
      SCOPED_TRACE("path " + std::to_string(static_cast<int>(paths[i])));
      EXPECT_EQ(rsa_sign_pkcs1(keys[i], digest), sig);
      const auto pt = rsa_decrypt_pkcs1(keys[i], ct.value());
      ASSERT_TRUE(pt.is_ok());
      EXPECT_EQ(pt.value(), digest);
    }
  }
  // Raw private ops on inputs at the edges: 0, 1, n - 1.
  const Bignum edges[] = {Bignum(0), Bignum(1),
                          Bignum::sub(key.pub.n, Bignum(1))};
  for (const Bignum& c : edges)
    for (size_t i = 1; i < keys.size(); ++i)
      EXPECT_EQ(rsa_private_op(keys[i], c), rsa_private_op(keys[0], c));
}

TEST(AsymPaths, KeystoreKeysKeepTheirValues) {
  // RSA-2048 keygen runs Miller-Rabin on the IFMA or fixed path (1024-bit
  // candidates are 16 limbs); the keys must be the generic code's.
  EXPECT_EQ(to_hex(sha256(to_bytes(test_rsa2048().serialize()))),
            "4af88cae673f973a94b85855a9226794"
            "eb30f1d7a4257af77852546140e17cf2");
  EXPECT_EQ(to_hex(sha256(to_bytes(test_rsa1024().serialize()))),
            "55af62ed0d68b7e1e4caf8f2369e9869"
            "3af92aba75901599babc8d2718d3df51");
  EXPECT_EQ(
      to_hex(sha256(curve_p256().encode_point(test_ec_key_p256().pub))),
      "4f1df60d9d881b22c691d80a1a826251"
      "8a903b8eb3d6844150c8c0e0407e3587");
}

}  // namespace
}  // namespace qtls
