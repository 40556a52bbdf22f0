#include "tls/context.h"

#include <chrono>

namespace qtls::tls {

namespace {
Bytes seed_bytes(uint64_t seed, const char* tag) {
  Bytes out;
  append_u64(out, seed);
  append(out, to_bytes(tag));
  return out;
}

uint64_t steady_now_ms() {
  using namespace std::chrono;
  return static_cast<uint64_t>(
      duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

TlsContext::TlsContext(TlsContextConfig config,
                       engine::CryptoProvider* provider)
    : config_(std::move(config)),
      provider_(provider),
      creds_(std::make_shared<ServerCredentials>()),
      owned_plane_(std::make_unique<SessionPlane>(
          SessionPlaneConfig{.seed = config_.drbg_seed})),
      plane_(owned_plane_.get()),
      rng_(HashAlg::kSha256, seed_bytes(config_.drbg_seed, "ctx-rng")),
      clock_(steady_now_ms) {}

std::optional<CipherSuite> TlsContext::select_suite(
    const std::vector<CipherSuite>& client_offer) const {
  for (CipherSuite mine : config_.cipher_suites) {
    for (CipherSuite theirs : client_offer) {
      if (mine == theirs) return mine;
    }
  }
  return std::nullopt;
}

const CipherSuiteInfo& cipher_suite_info(CipherSuite suite) {
  static const CipherSuiteInfo kTable[] = {
      {CipherSuite::kTlsRsaWithAes128CbcSha, "TLS-RSA-AES128-SHA",
       KeyExchange::kRsa, HashAlg::kSha256, HashAlg::kSha1, 16, 20, false},
      {CipherSuite::kEcdheRsaWithAes128CbcSha, "ECDHE-RSA-AES128-SHA",
       KeyExchange::kEcdheRsa, HashAlg::kSha256, HashAlg::kSha1, 16, 20,
       false},
      {CipherSuite::kEcdheEcdsaWithAes128CbcSha, "ECDHE-ECDSA-AES128-SHA",
       KeyExchange::kEcdheEcdsa, HashAlg::kSha256, HashAlg::kSha1, 16, 20,
       false},
      {CipherSuite::kTls13Aes128Sha256, "TLS13-ECDHE-RSA-AES128",
       KeyExchange::kEcdheRsa, HashAlg::kSha256, HashAlg::kSha1, 16, 20,
       true},
  };
  for (const auto& info : kTable) {
    if (info.id == suite) return info;
  }
  return kTable[0];
}

const char* tls_result_name(TlsResult r) {
  switch (r) {
    case TlsResult::kOk: return "OK";
    case TlsResult::kWantRead: return "WANT_READ";
    case TlsResult::kWantWrite: return "WANT_WRITE";
    case TlsResult::kWantAsync: return "WANT_ASYNC";
    case TlsResult::kClosed: return "CLOSED";
    case TlsResult::kError: return "ERROR";
  }
  return "?";
}

const char* alert_description_name(AlertDescription d) {
  switch (d) {
    case AlertDescription::kCloseNotify: return "close_notify";
    case AlertDescription::kUnexpectedMessage: return "unexpected_message";
    case AlertDescription::kBadRecordMac: return "bad_record_mac";
    case AlertDescription::kRecordOverflow: return "record_overflow";
    case AlertDescription::kDecodeError: return "decode_error";
    case AlertDescription::kInternalError: return "internal_error";
    case AlertDescription::kUserCanceled: return "user_canceled";
  }
  return "?";
}

}  // namespace qtls::tls
