// The AES/GHASH implementations this CPU can run (crypto/aes_impl.h), for
// tests that check each one: portable always, hardware when CPUID reports
// AES-NI and PCLMULQDQ.
#pragma once

#include <string>
#include <vector>

#include "crypto/aes_impl.h"

namespace qtls::testutil {

inline std::vector<aes_impl::Path> runnable_aes_paths() {
  std::vector<aes_impl::Path> paths{aes_impl::Path::kPortable};
  if (aes_impl::hw_available()) paths.push_back(aes_impl::Path::kHardware);
  return paths;
}

inline std::string aes_path_name(aes_impl::Path path) {
  return path == aes_impl::Path::kHardware ? "Hardware" : "Portable";
}

}  // namespace qtls::testutil
