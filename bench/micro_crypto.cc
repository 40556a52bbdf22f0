// Microbenchmarks of the crypto substrate (google-benchmark): the measured
// software costs that inform the cost model's SW column (sim/costs.h) —
// note this machine's absolute numbers differ from the paper's E5-2699 v4,
// which is why the simulator uses the paper-anchored constants instead.
// The asymmetric rows also report allocs_per_op: operator new calls inside
// the timed loop, per iteration.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "crypto/aes.h"
#include "crypto/asym_impl.h"
#include "crypto/ec.h"
#include "crypto/ec2m.h"
#include "crypto/gcm.h"
#include "crypto/keystore.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// Replacements of the global allocation functions (noinline keeps GCC from
// pairing an inlined malloc with an inlined free across them).
__attribute__((noinline)) void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace qtls {
namespace {

// Sets the allocs_per_op counter from the operator new calls made between
// its construction (just before the timed loop) and its destruction.
class AllocsPerOp {
 public:
  explicit AllocsPerOp(benchmark::State& state)
      : state_(state), start_(g_allocs.load(std::memory_order_relaxed)) {}
  ~AllocsPerOp() {
    const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - start_;
    state_.counters["allocs_per_op"] =
        static_cast<double>(allocs) /
        static_cast<double>(std::max<benchmark::IterationCount>(
            state_.iterations(), 1));
  }

 private:
  benchmark::State& state_;
  uint64_t start_;
};

void BM_RsaSign2048(benchmark::State& state) {
  const RsaPrivateKey& key = test_rsa2048();
  const Bytes digest = sha256(to_bytes("bench"));
  const AllocsPerOp allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign_pkcs1(key, digest));
  }
}
BENCHMARK(BM_RsaSign2048)->Unit(benchmark::kMicrosecond);

// The RSA-2048 sign and one 1024-bit CRT-half exponentiation on each
// exponentiation path (crypto/asym_impl.h), whichever one dispatch picks:
// rows BM_RsaSign2048_<path> and BM_MontExp1024_<path>. The ifma rows are
// absent on a CPU without AVX-512 IFMA.
void BM_RsaSign2048OnPath(benchmark::State& state, asym_impl::Path path) {
  RsaPrivateKey key = test_rsa2048();
  key.mont_p = std::make_shared<const MontCtx>(
      asym_impl::Access::make_mont(key.p, path));
  key.mont_q = std::make_shared<const MontCtx>(
      asym_impl::Access::make_mont(key.q, path));
  const Bytes digest = sha256(to_bytes("bench"));
  const AllocsPerOp allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign_pkcs1(key, digest));
  }
}

void BM_MontExp1024OnPath(benchmark::State& state, asym_impl::Path path) {
  const RsaPrivateKey& key = test_rsa2048();
  const MontCtx ctx = asym_impl::Access::make_mont(key.p, path);
  const Bignum base =
      Bignum::mod(Bignum::from_bytes_be(Bytes(256, 0x5c)), key.p);
  const AllocsPerOp allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.exp(base, key.dp));
  }
}

const bool kPathRowsRegistered = [] {
  using asym_impl::Path;
  const std::pair<const char*, Path> paths[] = {{"generic", Path::kGeneric},
                                                {"fixed", Path::kFixed},
                                                {"ifma", Path::kIfma}};
  for (const auto& [name, path] : paths) {
    if (path == Path::kIfma && !asym_impl::ifma_available()) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_RsaSign2048_") + name).c_str(), BM_RsaSign2048OnPath,
        path)->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_MontExp1024_") + name).c_str(), BM_MontExp1024OnPath,
        path)->Unit(benchmark::kMicrosecond);
  }
  return true;
}();

void BM_RsaVerify2048(benchmark::State& state) {
  const RsaPrivateKey& key = test_rsa2048();
  const Bytes digest = sha256(to_bytes("bench"));
  const Bytes sig = rsa_sign_pkcs1(key, digest);
  const AllocsPerOp allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify_pkcs1(key.pub, digest, sig).is_ok());
  }
}
BENCHMARK(BM_RsaVerify2048)->Unit(benchmark::kMicrosecond);

void BM_EcdsaSignP256(benchmark::State& state) {
  HmacDrbg rng = make_test_drbg(1);
  const EcKeyPair& key = test_ec_key_p256();
  const Bytes digest = sha256(to_bytes("bench"));
  const AllocsPerOp allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ecdsa_sign(curve_p256(), key.priv, digest, rng));
  }
}
BENCHMARK(BM_EcdsaSignP256)->Unit(benchmark::kMicrosecond);

void BM_EcdhP256(benchmark::State& state) {
  HmacDrbg rng = make_test_drbg(2);
  const EcKeyPair a = ec_generate_key(curve_p256(), rng);
  const EcKeyPair b = ec_generate_key(curve_p256(), rng);
  const AllocsPerOp allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdh_shared_secret(curve_p256(), a.priv, b.pub));
  }
}
BENCHMARK(BM_EcdhP256)->Unit(benchmark::kMicrosecond);

// The ECDHE keygen every full handshake runs (a fresh ephemeral key).
void BM_EcKeygenP256(benchmark::State& state) {
  HmacDrbg rng = make_test_drbg(5);
  const AllocsPerOp allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec_generate_key(curve_p256(), rng));
  }
}
BENCHMARK(BM_EcKeygenP256)->Unit(benchmark::kMicrosecond);

void BM_EcdhP384(benchmark::State& state) {
  HmacDrbg rng = make_test_drbg(3);
  const EcKeyPair a = ec_generate_key(curve_p384(), rng);
  const EcKeyPair b = ec_generate_key(curve_p384(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdh_shared_secret(curve_p384(), a.priv, b.pub));
  }
}
BENCHMARK(BM_EcdhP384)->Unit(benchmark::kMicrosecond);

void BM_EcdhBinary(benchmark::State& state) {
  const Ec2mCurve& curve =
      state.range(0) == 283 ? curve_k283() : curve_k409();
  HmacDrbg rng = make_test_drbg(4);
  const Ec2mKeyPair a = ec2m_generate_key(curve, rng);
  const Ec2mKeyPair b = ec2m_generate_key(curve, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec2m_shared_secret(curve, a.priv, b.pub));
  }
}
BENCHMARK(BM_EcdhBinary)->Arg(283)->Arg(409)->Unit(benchmark::kMicrosecond);

void BM_Tls12Prf(benchmark::State& state) {
  const Bytes secret(48, 0x5a);
  const Bytes seed(64, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tls12_prf(HashAlg::kSha256, secret, "key expansion", seed, 104));
  }
}
BENCHMARK(BM_Tls12Prf)->Unit(benchmark::kMicrosecond);

void BM_HkdfExpandLabel(benchmark::State& state) {
  const Bytes secret(32, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hkdf_expand_label(HashAlg::kSha256, secret, "key", {}, 16));
  }
}
BENCHMARK(BM_HkdfExpandLabel)->Unit(benchmark::kMicrosecond);

void BM_CbcHmacSeal16K(benchmark::State& state) {
  CbcHmacKeys keys;
  keys.enc_key = Bytes(16, 0x01);
  keys.mac_key = Bytes(20, 0x02);
  const Bytes iv(16, 0x03);
  const Bytes fragment(static_cast<size_t>(state.range(0)), 0x42);
  Bytes header = {23, 3, 3, 0, 0};
  header[3] = static_cast<uint8_t>(fragment.size() >> 8);
  header[4] = static_cast<uint8_t>(fragment.size());
  uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbc_hmac_seal(keys, seq++, header, iv, fragment));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CbcHmacSeal16K)->Arg(4096)->Arg(16384)->Unit(benchmark::kMicrosecond);

void BM_CbcHmacOpen(benchmark::State& state) {
  CbcHmacKeys keys;
  keys.enc_key = Bytes(16, 0x01);
  keys.mac_key = Bytes(20, 0x02);
  const Bytes iv(16, 0x03);
  const Bytes fragment(static_cast<size_t>(state.range(0)), 0x42);
  Bytes header = {23, 3, 3, 0, 0};
  header[3] = static_cast<uint8_t>(fragment.size() >> 8);
  header[4] = static_cast<uint8_t>(fragment.size());
  const Bytes sealed = cbc_hmac_seal(keys, 0, header, iv, fragment);
  const Bytes header3(header.begin(), header.begin() + 3);
  for (auto _ : state) {
    auto opened = cbc_hmac_open(keys, 0, header3, iv, sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CbcHmacOpen)->Arg(16384)->Unit(benchmark::kMicrosecond);

void BM_GcmSeal(benchmark::State& state) {
  const Bytes key(16, 0x01);
  const Bytes nonce(12, 0x02);
  const Bytes aad(5, 0x03);
  const Bytes pt(static_cast<size_t>(state.range(0)), 0x42);
  Aes aes(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm_seal(aes, nonce, aad, pt));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GcmSeal)->Arg(4096)->Arg(16384)->Unit(benchmark::kMicrosecond);

void BM_GcmOpen(benchmark::State& state) {
  const Bytes key(16, 0x01);
  const Bytes nonce(12, 0x02);
  const Bytes aad(5, 0x03);
  const Bytes pt(static_cast<size_t>(state.range(0)), 0x42);
  Aes aes(key);
  const Bytes sealed = gcm_seal(aes, nonce, aad, pt);
  for (auto _ : state) {
    auto opened = gcm_open(aes, nonce, aad, sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GcmOpen)->Arg(16384)->Unit(benchmark::kMicrosecond);

void BM_Sha256_1K(benchmark::State& state) {
  const Bytes data(1024, 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1K);

void BM_AesBlock(benchmark::State& state) {
  Aes aes(Bytes(16, 0x01));
  uint8_t in[16] = {0};
  uint8_t out[16];
  for (auto _ : state) {
    aes.encrypt_block(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesBlock);

}  // namespace
}  // namespace qtls

BENCHMARK_MAIN();
