// qtls_bench serve|load --workload W --seed N [--trace 0|1] --out FILE ...
// perfbench/run.py starts one server process and one load process and
// relays their stdio protocols; see server.cc and load.cc.
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  using namespace qbench;
  if (argc < 2) return fail("usage: qtls_bench serve|load [options]");
  Options opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      if (!parse_workload(v, &opt.workload))
        return fail(std::string("unknown workload ") + v);
    } else if (std::strcmp(k, "--seed") == 0) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--trace") == 0) {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (std::strcmp(k, "--out") == 0) {
      opt.out = v;
    } else if (std::strcmp(k, "--file-root") == 0) {
      opt.file_root = v;
    } else if (std::strcmp(k, "--object") == 0) {
      opt.object = v;
    } else if (std::strcmp(k, "--probe") == 0) {
      opt.probe = v;
    } else if (std::strcmp(k, "--seconds") == 0) {
      opt.seconds = std::atof(v);
    } else if (std::strcmp(k, "--warmup") == 0) {
      opt.warmup = std::atof(v);
    } else if (std::strcmp(k, "--requests") == 0) {
      opt.requests = std::strtoull(v, nullptr, 10);
    } else {
      return fail(std::string("unknown option ") + k);
    }
  }
  if (opt.out.empty()) return fail("--out is required");
  if (std::strcmp(argv[1], "serve") == 0) return run_server(opt);
  if (std::strcmp(argv[1], "load") == 0) return run_load(opt);
  return fail(std::string("unknown mode ") + argv[1]);
}
