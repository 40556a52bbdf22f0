// Figure 10: secure data transfer throughput vs requested file size
// (4 KB – 1024 KB), AES128-SHA, 8 workers, 400 keepalive ApacheBench
// clients (paper §5.4). Expected shapes: near-parity at 4 KB (request
// overhead dominates), growing to >2x for QTLS at large sizes; QAT+A ~1.6x
// at 128 KB.
//
// Also the record-data-plane gate (DESIGN.md §11). The bench FAILS (non-zero
// exit) unless QTLS's iovec-chain plane copies at most 1.0 payload bytes per
// wire byte at every size and QTLS/SW is at least 2.0 at 128 KB and above
// (the paper's §5.4 claim) — this is the regression tripwire
// `ctest -L bench-smoke` runs.
#include "figlib.h"

using namespace qtls;
using namespace qtls::bench;

int main() {
  print_header("Figure 10", "secure data transfer throughput (Gbps)");

  const std::vector<size_t> sizes_kb = {4, 16, 32, 64, 128, 256, 512, 1024};
  TextTable table({"file", "SW", "QAT+S", "QAT+A", "QAT+AH", "QTLS",
                   "QTLS/SW"});
  double sw128 = 0, qtls128 = 0, qata128 = 0, sw1m = 0, qtls1m = 0;
  bool gate_ok = true;

  for (size_t kb : sizes_kb) {
    std::vector<std::string> row = {std::to_string(kb) + "KB"};
    double sw = 0, qtls = 0, qtls_copies = 0;
    for (Config cfg : all_configs()) {
      RunParams p = base_params();
      p.config = cfg;
      p.workers = 8;
      p.clients = 400;
      p.transfer_mode = true;
      p.file_bytes = kb * 1024;
      const RunResult r = sim::run_simulation(p);
      row.push_back(format_double(r.throughput_gbps, 1));
      std::printf(
          "BENCH_JSON {\"metric\":\"fig10.throughput_gbps\",\"config\":"
          "\"%s\",\"file_kb\":%zu,\"gbps\":%.3f,"
          "\"bytes_copied_per_byte\":%.3f}\n",
          sim::config_name(cfg), kb, r.throughput_gbps,
          r.bytes_copied_per_byte);
      if (cfg == Config::kSW) sw = r.throughput_gbps;
      if (cfg == Config::kQtls) {
        qtls = r.throughput_gbps;
        qtls_copies = r.bytes_copied_per_byte;
      }
      if (kb == 128 && cfg == Config::kQatA) qata128 = r.throughput_gbps;
    }
    // Data-plane gate: one copy pass at most everywhere, and the paper's
    // >= 2x over SW at the sizes the batched plane targets (128 KB+).
    if (qtls_copies > 1.0) {
      std::printf("GATE FAIL at %zuKB: QTLS copies/byte %.3f > 1.0\n", kb,
                  qtls_copies);
      gate_ok = false;
    }
    if (kb >= 128 && qtls < 2.0 * sw) {
      std::printf("GATE FAIL at %zuKB: QTLS/SW %.2f < 2.0\n", kb, qtls / sw);
      gate_ok = false;
    }

    if (kb == 128) {
      sw128 = sw;
      qtls128 = qtls;
    }
    if (kb == 1024) {
      sw1m = sw;
      qtls1m = qtls;
    }
    row.push_back(format_double(qtls / sw, 2) + "x");
    table.add_row(row);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Throughput in Gbps (40 GbE NIC cap). Paper anchors:\n");
  print_ratio("QAT+A / SW at 128KB (~1.6x)", qata128 / sw128, 1.6);
  print_ratio("QTLS / SW at 128KB (>2x)", qtls128 / sw128, 2.0);
  print_ratio("QTLS / SW at 1024KB (>2x)", qtls1m / sw1m, 2.2);
  std::printf("data-plane gate: %s\n", gate_ok ? "PASS" : "FAIL");
  return gate_ok ? 0 : 1;
}
