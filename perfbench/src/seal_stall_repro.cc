// Repro of a seal-batch stall found while sizing the benchmark (see
// perfbench/NOTES.md). One aead_seal_batch of N 16 KB records goes through
// QatEngineProvider in straight (sync, self-polling) mode on a 1 x 1 device
// with the given request-ring capacity. Each case runs in a child process;
// a case that has not returned after 3 s is reported as a hang.
//
//   seal_stall_repro [records ring_capacity offload_cipher(0|1)]...
//   (no arguments: the table in NOTES.md)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "engine/qat_engine.h"
#include "qat/device.h"

namespace {

using namespace qtls;

int seal_once(size_t records, size_t ring, bool offload_cipher) {
  qat::DeviceConfig dcfg;
  dcfg.num_endpoints = 1;
  dcfg.engines_per_endpoint = 1;
  dcfg.ring_capacity = ring;
  qat::QatDevice device(dcfg);
  engine::QatEngineConfig ecfg;
  ecfg.offload_mode = engine::OffloadMode::kSync;
  ecfg.offload_cipher = offload_cipher;
  engine::QatEngineProvider qat(device.allocate_instance(), ecfg);

  const Bytes key(16, 0x11), aad(5, 0x17), plaintext(16384, 0x42);
  std::vector<Bytes> nonces(records, Bytes(12, 0));
  std::vector<Bytes> outs(records);
  std::vector<engine::AeadSealJob> jobs(records);
  for (size_t i = 0; i < records; ++i) {
    nonces[i][11] = static_cast<uint8_t>(i);
    jobs[i] = {nonces[i], aad, plaintext, &outs[i]};
  }
  return qat.aead_seal_batch(key, jobs).is_ok() ? 0 : 1;
}

const char* run_case(size_t records, size_t ring, bool offload_cipher) {
  const pid_t pid = fork();
  if (pid == 0) _exit(seal_once(records, ring, offload_cipher));
  for (int waited_ms = 0; waited_ms < 3000; waited_ms += 10) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid)
      return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? "ok" : "error";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  return "HANG";
}

}  // namespace

int main(int argc, char** argv) {
  struct Case {
    size_t records, ring;
    bool offload_cipher;
  };
  std::vector<Case> cases;
  for (int i = 1; i + 2 < argc; i += 3)
    cases.push_back({std::strtoul(argv[i], nullptr, 10),
                     std::strtoul(argv[i + 1], nullptr, 10),
                     std::atoi(argv[i + 2]) != 0});
  if (cases.empty())
    cases = {{64, 64, true},  {65, 64, true},  {31, 32, true},
             {33, 32, true},  {65, 128, true}, {65, 64, false}};
  int hangs = 0;
  for (const Case& c : cases) {
    const char* verdict = run_case(c.records, c.ring, c.offload_cipher);
    hangs += verdict[0] == 'H';
    std::printf("records=%zu ring=%zu offload_cipher=%d: %s\n", c.records,
                c.ring, c.offload_cipher ? 1 : 0, verdict);
  }
  return hangs == 0 ? 0 : 1;
}
