// Command-line options and entry points of the qtls_bench binary.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "workload.h"

namespace qbench {

struct Options {
  Workload workload = Workload::kFullHandshake;
  uint64_t seed = 1;
  bool trace = false;
  std::string out;        // JSON result file
  std::string file_root;  // server: static-file root (bulk_download)
  std::string object;     // load: path of the bulk_download object
  std::string probe;      // load: path of the set-up probe object
  double seconds = 10;    // load: measurement window
  double warmup = 1;      // load: closed-loop warm-up before the window
  // load: when > 0, each client stops after this many responses and the
  // window spans the whole run (exact op counts for the self-tests).
  uint64_t requests = 0;
};

int run_server(const Options& opt);
int run_load(const Options& opt);

inline int fail(const std::string& why) {
  std::fprintf(stderr, "qtls_bench: %s\n", why.c_str());
  return 2;
}

inline bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace qbench
