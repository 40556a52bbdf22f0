// Internal to src/crypto: the two implementations behind Aes and the gcm_*
// functions.
//
//   kPortable  byte-wise FIPS-197 rounds (aes.cc) and the bit-serial
//              SP 800-38D GHASH (gcm.cc). Table-based, so not constant-time.
//              The only path on CPUs without AES-NI/PCLMULQDQ, and the
//              reference the tests compare the other path against.
//   kHardware  AES-NI rounds and key schedule, an 8-block-interleaved CTR
//              loop and a 4-block-aggregated PCLMULQDQ GHASH (aes_ni.cc).
//
// Aes(BytesView) picks kHardware exactly when hw_available() — a CPUID read,
// cached per process — and kPortable otherwise. Nothing else selects a path:
// Access::make exists so tests can run both paths side by side.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/aes.h"

namespace qtls::aes_impl {

enum class Path : uint8_t { kPortable, kHardware };

// True when the CPU has AES-NI, PCLMULQDQ, SSSE3 and SSE4.1.
bool hw_available();

// Reaches Aes internals for gcm.cc and the tests.
struct Access {
  // Throws std::invalid_argument for kHardware when !hw_available().
  static Aes make(BytesView key, Path path) { return Aes(key, path); }
  static Path path(const Aes& aes) { return aes.path_; }
  static int rounds(const Aes& aes) { return aes.rounds_; }
  static const uint8_t* round_keys(const Aes& aes) {
    return aes.round_keys_.data();
  }
};

// The kHardware entry points (aes_ni.cc). Call only when hw_available().
// Round keys are (rounds + 1) 16-byte blocks in FIPS-197 byte order.
namespace hw {

// Fills enc with the FIPS-197 schedule and dec with the equivalent inverse
// cipher's keys (aesimc) in decryption order. key.size() is 16 or 32.
void expand_key(BytesView key, uint8_t enc[240], uint8_t dec[240]);
void encrypt_block(const uint8_t* enc, int rounds, const uint8_t in[16],
                   uint8_t out[16]);
void decrypt_block(const uint8_t* dec, int rounds, const uint8_t in[16],
                   uint8_t out[16]);
// GCM CTR: out = in XOR keystream, counter blocks inc32(j0), inc32^2(j0), ...
void ctr_xor(const uint8_t* enc, int rounds, const uint8_t j0[16],
             const uint8_t* in, size_t len, uint8_t* out);
// s = GHASH_H(aad || 0-pad || ct || 0-pad || [len(aad)]64 || [len(ct)]64).
void ghash(const uint8_t h[16], BytesView aad, BytesView ct, uint8_t s[16]);

}  // namespace hw
}  // namespace qtls::aes_impl
