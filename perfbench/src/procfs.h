// /proc readers and a minimal JSON writer shared by the server and load
// processes. Each process samples itself, and the load process also samples
// the server's CPU time; perfbench/run.py only collects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qbench {

uint64_t now_ns();  // CLOCK_MONOTONIC, comparable across processes

struct ThreadSample {
  int tid = 0;
  std::string comm;
  uint64_t cpu_ns = 0;        // schedstat: time on CPU
  uint64_t runq_wait_ns = 0;  // schedstat: time runnable but waiting
  uint64_t nivcsw = 0;        // nonvoluntary context switches
};

struct ProcSample {
  uint64_t t_ns = 0;
  uint64_t peak_rss_kb = 0;     // VmHWM
  uint64_t host_steal = 0;      // /proc/stat "cpu" line, clock ticks
  uint64_t host_total = 0;
  std::vector<ThreadSample> threads;
};

ProcSample sample_proc();
// /proc/stat "cpu" line: steal and total (user .. steal) clock ticks.
void sample_host(uint64_t* steal, uint64_t* total);
// On-CPU time (schedstat) summed over the live threads of process `pid`.
uint64_t process_cpu_ns(int pid);

// Appends `"key":value` pairs to a JSON object under construction.
class JsonObject {
 public:
  JsonObject& num(const char* key, uint64_t v);
  JsonObject& num(const char* key, double v);
  JsonObject& str(const char* key, const std::string& v);
  JsonObject& raw(const char* key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const char* k);
  std::string body_;
};

std::string to_json(const ProcSample& s);
std::string json_escape(const std::string& s);
// A JSON array of already-encoded items, or of strings to quote.
std::string json_array(const std::vector<std::string>& items);
std::string json_strings(const std::vector<std::string>& items);

}  // namespace qbench
