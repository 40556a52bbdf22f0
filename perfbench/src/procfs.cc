#include "procfs.h"

#include <dirent.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

namespace qbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Value of a "Key:   value" line, as in /proc/<pid>/status.
uint64_t field(const std::string& text, const char* key) {
  const std::string k = std::string(key) + ":";
  size_t pos = 0;
  while ((pos = text.find(k, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n')
      return std::strtoull(text.c_str() + pos + k.size(), nullptr, 10);
    pos += k.size();
  }
  return 0;
}

// Thread ids under /proc/<pid>/task ("self" for this process).
std::vector<int> task_ids(const std::string& pid) {
  std::vector<int> tids;
  if (DIR* d = opendir(("/proc/" + pid + "/task").c_str())) {
    while (dirent* e = readdir(d))
      if (e->d_name[0] != '.') tids.push_back(std::atoi(e->d_name));
    closedir(d);
  }
  return tids;
}

ThreadSample sample_thread(int tid) {
  const std::string dir = "/proc/self/task/" + std::to_string(tid) + "/";
  ThreadSample t;
  t.tid = tid;
  t.comm = read_file(dir + "comm");
  while (!t.comm.empty() && t.comm.back() == '\n') t.comm.pop_back();
  std::istringstream sched(read_file(dir + "schedstat"));
  sched >> t.cpu_ns >> t.runq_wait_ns;
  t.nivcsw = field(read_file(dir + "status"), "nonvoluntary_ctxt_switches");
  return t;
}

}  // namespace

uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

void sample_host(uint64_t* steal, uint64_t* total) {
  std::istringstream host(read_file("/proc/stat"));
  std::string label;
  host >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  uint64_t v = 0;
  *steal = *total = 0;
  for (int i = 0; i < 8 && host >> v; ++i) {
    *total += v;
    if (i == 7) *steal = v;
  }
}

ProcSample sample_proc() {
  ProcSample s;
  s.t_ns = now_ns();
  s.peak_rss_kb = field(read_file("/proc/self/status"), "VmHWM");
  sample_host(&s.host_steal, &s.host_total);

  for (int tid : task_ids("self")) s.threads.push_back(sample_thread(tid));
  return s;
}

uint64_t process_cpu_ns(int pid) {
  const std::string task = "/proc/" + std::to_string(pid) + "/task/";
  uint64_t sum = 0;
  for (int tid : task_ids(std::to_string(pid))) {
    std::istringstream sched(
        read_file(task + std::to_string(tid) + "/schedstat"));
    uint64_t cpu = 0;
    if (sched >> cpu) sum += cpu;
  }
  return sum;
}

void JsonObject::key(const char* k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"";
  body_ += k;
  body_ += "\":";
}

JsonObject& JsonObject::num(const char* k, uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::num(const char* k, double v) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::str(const char* k, const std::string& v) {
  key(k);
  body_ += "\"" + json_escape(v) + "\"";
  return *this;
}

JsonObject& JsonObject::raw(const char* k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ",";
    out += item;
  }
  return out + "]";
}

std::string json_strings(const std::vector<std::string>& items) {
  std::vector<std::string> quoted;
  for (const std::string& item : items)
    quoted.push_back("\"" + json_escape(item) + "\"");
  return json_array(quoted);
}

std::string to_json(const ProcSample& s) {
  std::vector<std::string> threads;
  for (const ThreadSample& t : s.threads)
    threads.push_back(JsonObject()
                          .num("tid", static_cast<uint64_t>(t.tid))
                          .str("comm", t.comm)
                          .num("cpu_ns", t.cpu_ns)
                          .num("runq_wait_ns", t.runq_wait_ns)
                          .num("nivcsw", t.nivcsw)
                          .done());
  return JsonObject()
      .num("t_ns", s.t_ns)
      .num("peak_rss_kb", s.peak_rss_kb)
      .num("host_steal", s.host_steal)
      .num("host_total", s.host_total)
      .raw("threads", json_array(threads))
      .done();
}

}  // namespace qbench
