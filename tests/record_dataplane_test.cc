// Record data-plane regressions (DESIGN.md §11, `ctest -L dataplane`):
//  * wire parity — the iovec-chain batched TX plane must emit byte-for-byte
//    what a reference sealer emits (each <= 16 KB fragment sealed on its own
//    through the provider's single-record seal, records framed back to
//    back), under random interleavings of queue/queue_many/flush against a
//    partial-write transport, for both CBC-HMAC and AEAD record protection;
//  * copy meter — with a provider that seals in place, the plane must
//    memcpy no payload byte at all;
//  * RX compaction — many small records must not shift or reallocate the
//    receive buffer per record;
//  * QAT batching — a multi-fragment payload must reach the engine as ONE
//    submit_batch dispatch carrying all of its records, wake a parked fiber
//    once, copy no payload byte when its owner rides the jobs, and put the
//    software provider's wire on the pipe;
//  * abandoned batch — a batch expired at its deadline stays memory-safe
//    when its writer lets go before the device computes it (run it in the
//    ASan+UBSan tree);
//  * static-file streaming — the worker's file_root path serves files in
//    bounded chunks, 404s misses, and rejects traversal.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <random>

#include "crypto/gcm.h"
#include "crypto/keystore.h"
#include "engine/provider.h"
#include "engine/qat_engine.h"
#include "net/memory_transport.h"
#include "obs/metrics.h"
#include "qat/fault.h"
#include "server_test_util.h"
#include "tls/record.h"

namespace qtls::tls {
namespace {

CbcHmacKeys test_cbc_keys() {
  CbcHmacKeys k;
  k.enc_key = Bytes(16, 0x42);
  k.mac_key = Bytes(20, 0x24);
  return k;
}

AeadKeys test_aead_keys() {
  AeadKeys k;
  k.key = Bytes(16, 0x51);
  k.iv = Bytes(12, 0x52);
  return k;
}

void append_header(Bytes& out, ContentType type, size_t len) {
  append_u8(out, static_cast<uint8_t>(type));
  append_u16(out, static_cast<uint16_t>(ProtocolVersion::kTls12));
  append_u16(out, static_cast<uint16_t>(len));
}

// The batch plane under test, on a paced pipe, next to the reference wire:
// every payload it queues is also sealed fragment by fragment through the
// provider's single-record seal, CBC IVs drawn from a DRBG with the layer's
// seed, and framed back to back.
struct WireRig {
  explicit WireRig(bool use_aead) : aead(use_aead) {
    if (aead) {
      layer.enable_encryption_tx(test_aead_keys());
    } else {
      layer.enable_encryption_tx(test_cbc_keys());
    }
  }

  bool aead;
  net::MemoryPipe pipe;
  engine::SoftwareProvider provider{1};
  HmacDrbg rng{HashAlg::kSha256, to_bytes("dataplane")};
  RecordLayer layer{&pipe.a(), &provider, &rng};
  Bytes wire;

  HmacDrbg ref_rng{HashAlg::kSha256, to_bytes("dataplane")};
  uint64_t ref_seq = 0;
  uint64_t ref_records = 0;
  Bytes ref_wire;

  void reference_seal(ContentType type, BytesView fragment) {
    Bytes body;
    if (aead) {
      const AeadKeys keys = test_aead_keys();
      Bytes nonce = keys.iv;
      for (int i = 0; i < 8; ++i)
        nonce[nonce.size() - 1 - static_cast<size_t>(i)] ^=
            static_cast<uint8_t>(ref_seq >> (8 * i));
      Bytes aad;
      append_header(aad, type, fragment.size() + kGcmTagSize);
      auto sealed = provider.aead_seal(keys.key, nonce, aad, fragment);
      ASSERT_TRUE(sealed.is_ok());
      body = std::move(sealed).take();
    } else {
      Bytes header;
      append_header(header, type, fragment.size());
      body = ref_rng.generate(16);  // explicit IV prefixes the payload
      auto sealed = provider.cipher_seal(test_cbc_keys(), ref_seq, header,
                                         body, fragment);
      ASSERT_TRUE(sealed.is_ok());
      append(body, sealed.value());
    }
    append_header(ref_wire, type, body.size());
    append(ref_wire, body);
    ++ref_seq;
    ++ref_records;
  }

  // Same fragmentation as RecordLayer::queue: an empty payload is one empty
  // record, anything else splits at 16 KB.
  void reference_queue(ContentType type, BytesView payload) {
    size_t off = 0;
    do {
      const size_t take =
          std::min(kMaxPlaintextFragment, payload.size() - off);
      reference_seal(type, payload.subspan(off, take));
      off += take;
    } while (off < payload.size());
  }

  void set_pacing(size_t chunk_limit, size_t capacity) {
    pipe.set_chunk_limit(chunk_limit);
    pipe.set_capacity(capacity);
  }

  void drain() {
    uint8_t buf[256];
    for (;;) {
      const auto io = pipe.b().read(buf, sizeof(buf));
      if (io.status != IoStatus::kOk || io.bytes == 0) break;
      wire.insert(wire.end(), buf, buf + io.bytes);
    }
  }

  // Flush to completion, draining the reader side between passes (the
  // capacity cap forces kWantWrite).
  void flush_all() {
    for (int guard = 0; guard < 100000; ++guard) {
      const TlsResult r = layer.flush();
      drain();
      if (r == TlsResult::kOk) return;
    }
    FAIL() << "flush_all did not converge";
  }
};

// Random interleaving of queue / queue_many / flush against a partial-write
// transport; asserts wire parity with the reference, a working RX round trip
// of the stream, and a zero copy meter.
void run_wire_parity(bool aead, uint64_t seed) {
  WireRig rig(aead);
  rig.set_pacing(/*chunk_limit=*/97, /*capacity=*/4096);

  std::mt19937_64 prng(seed);
  Bytes expected;  // every queued plaintext byte, in order

  const auto make_payload = [&](size_t max_len) {
    const size_t len = prng() % (max_len + 1);
    Bytes p(len);
    for (auto& b : p) b = static_cast<uint8_t>(prng());
    return p;
  };

  for (int step = 0; step < 48; ++step) {
    switch (prng() % 4) {
      case 0: {  // small payload (single record, possibly empty)
        const Bytes p = make_payload(5000);
        ASSERT_TRUE(rig.layer.queue(ContentType::kApplicationData, p).is_ok());
        rig.reference_queue(ContentType::kApplicationData, p);
        append(expected, p);
        break;
      }
      case 1: {  // fragmenting payload (> 16 KB)
        Bytes p = make_payload(24 * 1024);
        p.resize(p.size() + kMaxPlaintextFragment + 1,
                 static_cast<uint8_t>(prng()));
        ASSERT_TRUE(rig.layer.queue(ContentType::kApplicationData, p).is_ok());
        rig.reference_queue(ContentType::kApplicationData, p);
        append(expected, p);
        break;
      }
      case 2: {  // queue_many: one batch spanning several payloads
        std::vector<Bytes> storage;
        const size_t n = 2 + prng() % 3;
        for (size_t i = 0; i < n; ++i) storage.push_back(make_payload(8000));
        std::vector<BytesView> views;
        for (const Bytes& p : storage) {
          views.emplace_back(p);
          append(expected, p);
        }
        ASSERT_TRUE(
            rig.layer.queue_many(ContentType::kApplicationData, views).is_ok());
        // One batch over several payloads is defined as the same records,
        // in the same order, as queueing each payload on its own.
        for (const BytesView& v : views)
          rig.reference_queue(ContentType::kApplicationData, v);
        break;
      }
      case 3: {  // partial flush + drain
        (void)rig.layer.flush();
        rig.drain();
        break;
      }
    }
  }
  rig.flush_all();

  ASSERT_EQ(rig.wire.size(), rig.ref_wire.size());
  EXPECT_EQ(rig.wire, rig.ref_wire)
      << "wire divergence between the batch plane and the reference sealer";
  EXPECT_EQ(rig.layer.records_sent(), rig.ref_records);
  EXPECT_EQ(rig.layer.bytes_sent(), rig.ref_wire.size());
  // Copy meter: the provider seals straight into each record's payload
  // block, so the plane stages no payload byte.
  EXPECT_EQ(rig.layer.bytes_copied(), 0u);

  // RX round trip: the stream decodes back to the queued bytes.
  net::MemoryPipe rx_pipe;
  engine::SoftwareProvider rx_provider{2};
  HmacDrbg rx_rng{HashAlg::kSha256, to_bytes("rx")};
  RecordLayer rx{&rx_pipe.b(), &rx_provider, &rx_rng};
  if (aead) {
    rx.enable_encryption_rx(test_aead_keys());
  } else {
    rx.enable_encryption_rx(test_cbc_keys());
  }
  size_t fed = 0;
  Bytes decoded;
  int guard = 0;
  while (decoded.size() < expected.size() && guard++ < 1000000) {
    if (fed < rig.wire.size()) {
      const size_t n = std::min<size_t>(1024, rig.wire.size() - fed);
      const auto io = rx_pipe.a().write(rig.wire.data() + fed, n);
      ASSERT_EQ(io.status, IoStatus::kOk);
      fed += io.bytes;
    }
    for (;;) {
      const auto outcome = rx.read_record();
      if (!outcome.record.has_value()) {
        ASSERT_EQ(outcome.result, TlsResult::kWantRead);
        break;
      }
      append(decoded, outcome.record->payload);
    }
  }
  EXPECT_EQ(decoded, expected);
}

TEST(RecordDataPlane, WireParityCbcHmac) { run_wire_parity(false, 1); }
TEST(RecordDataPlane, WireParityCbcHmacAltSeed) { run_wire_parity(false, 7); }
TEST(RecordDataPlane, WireParityAead) { run_wire_parity(true, 2); }
TEST(RecordDataPlane, WireParityAeadAltSeed) { run_wire_parity(true, 9); }

// Many small records: the receive buffer must consume via the offset cursor
// (amortized compaction), not shift or reallocate per record.
TEST(RecordDataPlane, RxCompactionAmortized) {
  net::MemoryPipe pipe;
  engine::SoftwareProvider provider{1};
  HmacDrbg rng_a{HashAlg::kSha256, to_bytes("a")};
  HmacDrbg rng_b{HashAlg::kSha256, to_bytes("b")};
  RecordLayer a{&pipe.a(), &provider, &rng_a};
  RecordLayer b{&pipe.b(), &provider, &rng_b};

  constexpr int kRecords = 2000;
  const Bytes payload(32, 0x5c);
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(a.queue(ContentType::kApplicationData, payload).is_ok());
    ASSERT_EQ(a.flush(), TlsResult::kOk);
    const auto outcome = b.read_record();
    ASSERT_TRUE(outcome.record.has_value()) << i;
    ASSERT_EQ(outcome.record->payload, payload);
  }
  EXPECT_EQ(b.records_received(), static_cast<uint64_t>(kRecords));
  // 2000 × 37-byte records ≈ 74 KB of wire; the 16 KB compaction threshold
  // allows a handful of prefix erasures, never one per record.
  EXPECT_LE(b.rx_compactions(), 16u);
  // No per-record reallocation either: capacity stays near the threshold,
  // nowhere near the total stream size.
  EXPECT_LE(b.recv_buffer_capacity(), 64u * 1024);
}

uint64_t registry_bytes_copied() {
  return obs::MetricsRegistry::global().snapshot().counter_value(
      "record.bytes_copied");
}

// Runs `fn` in an async job driven the way a worker drives one: poll the
// engine, and resume the fiber only when its WaitCtx was notified. Returns
// the number of notifications; fails the test when the job does not finish.
int run_like_worker(engine::QatEngineProvider& qat,
                    const std::function<void()>& fn) {
  struct Wakes {
    int count = 0;
    bool pending = false;
  } wakes;
  asyncx::WaitCtx wctx;
  wctx.set_callback(
      [](void* arg) {
        auto* w = static_cast<Wakes*>(arg);
        ++w->count;
        w->pending = true;
      },
      &wakes);
  asyncx::AsyncJob* job = nullptr;
  int ret = 0;
  asyncx::JobStatus status = asyncx::start_job(&job, &wctx, &ret, [&] {
    fn();
    return 1;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (status == asyncx::JobStatus::kPaused &&
         std::chrono::steady_clock::now() < deadline) {
    qat.poll();
    if (!wakes.pending) continue;
    wakes.pending = false;
    status = asyncx::start_job(&job, &wctx, &ret, nullptr);
  }
  EXPECT_EQ(status, asyncx::JobStatus::kFinished);
  return wakes.count;
}

Bytes drain_pipe(net::MemoryPipe& pipe) {
  Bytes wire;
  uint8_t buf[4096];
  for (;;) {
    const auto io = pipe.b().read(buf, sizeof(buf));
    if (io.status != IoStatus::kOk || io.bytes == 0) return wire;
    wire.insert(wire.end(), buf, buf + io.bytes);
  }
}

// A 64 KB payload fragments into four records, which must reach the QAT
// engine as ONE submit_batch dispatch, in both suites and both offload
// modes. The async rows run like the worker: the dispatch wakes the parked
// fiber once, not once per record. The payload's owner rides the jobs, so
// the engine borrows the plaintext and hands its sealed buffers over as
// the output blocks: the registry's copy meter does not move. (Under
// -DQTLS_OBS=OFF the registry reads 0 before and after, so that check
// holds trivially there.) The wire is byte-identical to the
// SoftwareProvider rig's and decodes back to the payload.
void run_qat_seal_batch(bool aead, engine::OffloadMode mode) {
  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 8;
  qat::QatDevice device(dcfg);
  engine::QatEngineConfig qcfg;
  qcfg.offload_mode = mode;  // kSync self-polls, no fibers
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);

  // The layer under test and the software reference share keys and the
  // CBC IV seed, so their wires must match byte for byte.
  net::MemoryPipe qat_pipe, sw_pipe;
  engine::SoftwareProvider sw{7};
  HmacDrbg qat_rng{HashAlg::kSha256, to_bytes("qa")};
  HmacDrbg sw_rng{HashAlg::kSha256, to_bytes("qa")};
  RecordLayer a{&qat_pipe.a(), &qat, &qat_rng};
  RecordLayer ref{&sw_pipe.a(), &sw, &sw_rng};
  if (aead) {
    a.enable_encryption_tx(test_aead_keys());
    ref.enable_encryption_tx(test_aead_keys());
  } else {
    a.enable_encryption_tx(test_cbc_keys());
    ref.enable_encryption_tx(test_cbc_keys());
  }

  auto big = std::make_shared<Bytes>(64 * 1024);  // exactly 4 × 16 KB
  for (size_t i = 0; i < big->size(); ++i)
    (*big)[i] = static_cast<uint8_t>(i * 7 + 1);

  const uint64_t copied_before = registry_bytes_copied();
  if (mode == engine::OffloadMode::kSync) {
    ASSERT_TRUE(a.queue(ContentType::kApplicationData, *big, big).is_ok());
  } else {
    Status st = err(Code::kInternal, "not run");
    const int wakes = run_like_worker(qat, [&] {
      st = a.queue(ContentType::kApplicationData, *big, big);
    });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(wakes, 1) << "one dispatch, one wake";
  }
  EXPECT_EQ(registry_bytes_copied(), copied_before)
      << "an owned payload is borrowed, and sealed buffers are handed over";
  EXPECT_EQ(a.bytes_copied(), 0u);

  const engine::QatEngineStats& stats = qat.stats();
  EXPECT_EQ(stats.seal_batches, 1u);
  EXPECT_EQ(stats.max_seal_batch, 4u);
  EXPECT_EQ(stats.seal_batch_ops, 4u);
  EXPECT_EQ(stats.sw_fallbacks, 0u);

  ASSERT_TRUE(ref.queue(ContentType::kApplicationData, *big).is_ok());
  ASSERT_EQ(a.flush(), TlsResult::kOk);
  ASSERT_EQ(ref.flush(), TlsResult::kOk);
  const Bytes wire = drain_pipe(qat_pipe);
  EXPECT_EQ(wire, drain_pipe(sw_pipe))
      << "wire divergence between the QAT and software seal";

  net::MemoryPipe rx_pipe;
  HmacDrbg rx_rng{HashAlg::kSha256, to_bytes("qb")};
  RecordLayer b{&rx_pipe.b(), &sw, &rx_rng};
  if (aead) {
    b.enable_encryption_rx(test_aead_keys());
  } else {
    b.enable_encryption_rx(test_cbc_keys());
  }
  ASSERT_EQ(rx_pipe.a().write(wire.data(), wire.size()).status, IoStatus::kOk);
  Bytes decoded;
  while (decoded.size() < big->size()) {
    const auto outcome = b.read_record();
    ASSERT_TRUE(outcome.record.has_value());
    append(decoded, outcome.record->payload);
  }
  EXPECT_EQ(decoded, *big);
}

TEST(RecordDataPlane, QatSealBatchCarriesAllFragments) {
  for (const bool aead : {false, true}) {
    for (const auto mode :
         {engine::OffloadMode::kSync, engine::OffloadMode::kAsync}) {
      SCOPED_TRACE(std::string(aead ? "AEAD" : "CBC-HMAC") +
                   (mode == engine::OffloadMode::kSync ? " sync" : " async"));
      run_qat_seal_batch(aead, mode);
    }
  }
}

// A seal batch abandoned at its deadline, whose writer lets go before the
// device computes it: the one engine stalls on the batch's second record
// (a one-shot FaultPlan stall) far past the 5 ms op deadline, the batch
// fails (no software fallback), and the writer drops its payload and its
// record layer, pending blocks included. The engine then computes the
// stalled records, reading plaintext the ops still own; ASan would report a
// use-after-free if they had borrowed it without the owner. The engine's
// books balance once the late responses are drained.
TEST(RecordDataPlane, AbandonedSealBatchOutlivesItsWriter) {
  qat::FaultPlan plan;
  plan.schedule(qat::OpKind::kCipher16k, 2, qat::FaultKind::kStall,
                /*stall_ns=*/100'000'000);
  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 1;
  dcfg.fault_plan = &plan;
  qat::QatDevice device(dcfg);
  engine::QatEngineConfig qcfg;
  qcfg.offload_mode = engine::OffloadMode::kAsync;
  qcfg.op_deadline_us = 5'000;
  qcfg.sw_fallback_on_device_error = false;
  engine::QatEngineProvider qat(device.allocate_instance(), qcfg);

  net::MemoryPipe pipe;
  HmacDrbg rng{HashAlg::kSha256, to_bytes("abandon")};
  auto layer = std::make_unique<RecordLayer>(&pipe.a(), &qat, &rng);
  layer->enable_encryption_tx(test_aead_keys());
  auto payload = std::make_shared<Bytes>(64 * 1024, 0x5a);
  const std::weak_ptr<Bytes> watch = payload;

  Status st = Status::ok();
  run_like_worker(qat, [&] {
    st = layer->queue(ContentType::kApplicationData, *payload, payload);
  });
  EXPECT_EQ(st.code(), Code::kUnavailable) << st.to_string();
  EXPECT_GE(qat.stats().deadline_expiries, 1u);
  EXPECT_TRUE(layer->send_buffer_empty()) << "a failed batch queues nothing";

  // The writer lets go while the engine is still stalled.
  layer.reset();
  payload.reset();
  EXPECT_FALSE(watch.expired()) << "the abandoned ops keep the payload alive";

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((plan.ops_seen(qat::OpKind::kCipher16k) < 4 ||
          qat.instance()->inflight() > 0) &&
         std::chrono::steady_clock::now() < deadline)
    qat.poll();
  EXPECT_EQ(plan.ops_seen(qat::OpKind::kCipher16k), 4u);
  EXPECT_EQ(qat.instance()->inflight(), 0u);
  // Every response is drained, and the engine dropped each request's
  // closures before answering it: nothing is left holding the payload.
  EXPECT_TRUE(watch.expired()) << "a served request pins the payload";

  const engine::QatEngineStats& stats = qat.stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.deadline_expiries);
  EXPECT_EQ(qat.inflight_total(), 0u);
  EXPECT_EQ(qat.pending_deadline_ops(), 0u);
}

}  // namespace
}  // namespace qtls::tls

namespace qtls::server {
namespace {

using testutil::run_to_completion;
using testutil::socketpair_connector;

struct FileRig {
  engine::SoftwareProvider server_provider{3};
  engine::SoftwareProvider client_provider{99};
  std::unique_ptr<tls::TlsContext> server_ctx;
  std::unique_ptr<tls::TlsContext> client_ctx;
  std::unique_ptr<Worker> worker;

  explicit FileRig(WorkerConfig wcfg) {
    tls::TlsContextConfig scfg;
    scfg.is_server = true;
    scfg.drbg_seed = 1;
    server_ctx = std::make_unique<tls::TlsContext>(scfg, &server_provider);
    server_ctx->credentials().rsa_key = &test_rsa2048();
    tls::TlsContextConfig ccfg;
    ccfg.drbg_seed = 2;
    client_ctx = std::make_unique<tls::TlsContext>(ccfg, &client_provider);
    worker = std::make_unique<Worker>(server_ctx.get(), nullptr, wcfg);
  }

  Bytes fetch(const std::string& path) {
    client::Pool pool;
    client::ClientOptions copts;
    copts.path = path;
    copts.max_requests = 1;
    pool.add(std::make_unique<client::HttpsClient>(
        client_ctx.get(), socketpair_connector(worker.get()), copts));
    EXPECT_TRUE(run_to_completion(worker.get(), &pool));
    EXPECT_EQ(pool.aggregate().errors, 0u);
    return static_cast<client::HttpsClient*>(pool.clients()[0].get())
        ->last_body();
  }

  // The stock client treats any non-200 as a connection failure (and would
  // retry forever); a rejected path is observed as exactly that failure.
  void expect_rejected(const std::string& path) {
    client::Pool pool;
    client::ClientOptions copts;
    copts.path = path;
    copts.max_requests = 1;
    pool.add(std::make_unique<client::HttpsClient>(
        client_ctx.get(), socketpair_connector(worker.get()), copts));
    auto& c = pool.clients()[0];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (c->stats().errors == 0 && c->step()) {
      worker->run_once(0);
      if (std::chrono::steady_clock::now() > deadline) break;
    }
    EXPECT_GE(c->stats().errors, 1u) << path;
    EXPECT_EQ(c->stats().requests, 0u) << path;
  }
};

TEST(WorkerStaticFile, StreamsServesAndRejects) {
  char tmpl[] = "/tmp/qtls_fileroot_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  // 150 KB: spans multiple 64 KB staging chunks, so the pread loop and the
  // mid-file resume path both run.
  Bytes content(150 * 1024);
  for (size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<uint8_t>(i % 251);
  const std::string file_path = root + "/data.bin";
  {
    std::FILE* f = std::fopen(file_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
              content.size());
    std::fclose(f);
  }

  WorkerConfig wcfg;
  wcfg.file_root = root;
  FileRig rig(wcfg);

  // Hit: streamed byte-for-byte.
  EXPECT_EQ(rig.fetch("/data.bin"), content);
  // Miss: the worker answers 404 (the client surfaces it as a rejected
  // request, never a completed one).
  rig.expect_rejected("/missing.bin");
  // Traversal: never resolved outside the root.
  rig.expect_rejected("/../data.bin");
  rig.expect_rejected("/subdir/../../data.bin");
  // /stats keeps working with file_root set and reports the copy meter.
  const Bytes stats = rig.fetch("/stats");
  const std::string json(stats.begin(), stats.end());
  EXPECT_NE(json.find("\"record\":{"), std::string::npos);
  EXPECT_NE(json.find("\"copied_per_byte\""), std::string::npos);
  // Both 200s (data.bin + /stats) complete cleanly; the rejected fetches
  // tear down abruptly on the client side, so don't assert errors == 0.
  EXPECT_GE(rig.worker->stats().requests_served, 2u);

  ::unlink(file_path.c_str());
  ::rmdir(root.c_str());
}

}  // namespace
}  // namespace qtls::server
