#include "support.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <unordered_map>

namespace xeebench {

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = k == 0 ? 0 : k - 1;
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

ZipfPicker::ZipfPicker(size_t n, double s, xee::Rng& rng)
    : cdf_(n), perm_(n) {
  double acc = 0;
  for (size_t k = 0; k < n; ++k) {
    acc += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = acc;
  }
  for (double& c : cdf_) c /= acc;
  std::iota(perm_.begin(), perm_.end(), 0u);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng.UniformInt(0, i - 1)]);
  }
}

size_t ZipfPicker::Next(xee::Rng& rng) const {
  const double u = rng.UniformDouble();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return perm_[std::min(rank, perm_.size() - 1)];
}

uint64_t Fnv(uint64_t h, std::string_view data) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t v) {
  return Fnv(h, std::string_view(reinterpret_cast<const char*>(&v), 8));
}

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void SetThreadCpus(pid_t tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

void SetOtherThreadsCpus(pid_t pid, pid_t skip, const std::vector<int>& avoid) {
  std::vector<int> cpus;
  for (int c : AllowedCpus()) {
    if (std::find(avoid.begin(), avoid.end(), c) == avoid.end()) {
      cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus = AllowedCpus();
  std::error_code ec;
  const std::filesystem::path dir =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const pid_t tid =
        static_cast<pid_t>(std::strtol(entry.path().filename().c_str(), nullptr, 10));
    if (tid != skip) SetThreadCpus(tid, cpus);
  }
}

int IsolateClient() {
  const std::vector<int>& all = AllowedCpus();
  if (all.size() < 2) return all.empty() ? -1 : all.back();
  const int cpu = all.back();
  SetThreadCpus(0, {cpu});
  SetOtherThreadsCpus(getpid(), gettid(), {cpu});
  return cpu;
}

void ReleaseCpus() {
  SetThreadCpus(0, AllowedCpus());
  SetOtherThreadsCpus(getpid(), gettid(), {});
}

double PeakRssMib(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double ReferenceLoopNs() {
  std::unordered_map<std::string, uint64_t> map;
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 2000; ++i) {
    keys.push_back("//site/regions/item" + std::to_string(i * 7919) + "/name");
    map[keys.back()] = i;
  }
  constexpr size_t kProbes = 200'000;
  std::vector<double> ns;
  uint64_t sum = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < kProbes; ++i) sum += map.find(keys[i * 31 % keys.size()])->second;
    ns.push_back(static_cast<double>(NowNs() - t0) / kProbes);
  }
  return sum == 0 ? 0 : Median(ns);
}

std::string BoxStampJson(const CpuTimes& start, const CpuTimes& end,
                         double ref_start_ns, double ref_end_ns) {
  std::string model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::string escaped;
  for (char c : model) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  const uint64_t total = end.total - start.total;
  const double steal =
      total == 0 ? 0.0
                 : static_cast<double>(end.steal - start.steal) /
                       static_cast<double>(total);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"box\":{\"nproc\":%u,\"cpu_model\":\"%s\","
                "\"steal_share\":%.5f,\"ref_loop_ns\":[%.2f,%.2f]}}",
                std::thread::hardware_concurrency(), escaped.c_str(), steal,
                ref_start_ns, ref_end_ns);
  return buf;
}

uint16_t Tracer::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

uint32_t Tracer::Begin(std::string_view name, uint32_t parent,
                       uint32_t request) {
  return Add(name, parent, request, NowNs(), 0);
}

void Tracer::End(uint32_t span) {
  if (span >= spans_.size()) return;
  spans_[span].dur_ns = NowNs() - spans_[span].start_ns;
}

uint32_t Tracer::Add(std::string_view name, uint32_t parent, uint32_t request,
                     uint64_t start_ns, uint64_t dur_ns) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return kDropped;
  }
  Span s;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  s.parent = parent;
  s.request = request;
  s.name = Intern(name);
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesNs() const {
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= spans_.size()) continue;
    const Span& p = spans_[s.parent];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi =
        std::min(s.start_ns + s.dur_ns, p.start_ns + p.dur_ns);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t self = s.dur_ns > covered[i] ? s.dur_ns - covered[i] : 0;
    out[names_[s.name]].push_back(static_cast<double>(self));
  }
  return out;
}

void LatencyLog::CloseWindow(size_t n, uint64_t wall_ns) {
  n = std::min(n, ns.size());
  std::vector<double> last(ns.end() - static_cast<ptrdiff_t>(n), ns.end());
  window_p99_ns.push_back(Quantile(last, 0.99));
  window_qps.push_back(static_cast<double>(n) * 1e9 /
                       static_cast<double>(std::max<uint64_t>(wall_ns, 1)));
}

double LatencyLog::P50Us() const {
  if (ns.empty()) return 0;
  std::vector<uint32_t> v = ns;  // nearest rank, as Quantile
  const size_t k = (v.size() + 1) / 2 - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]) / 1e3;
}

double LatencyLog::P99Us() const { return Median(window_p99_ns) / 1e3; }

double LatencyLog::MedianQps() const { return Median(window_qps); }

}  // namespace xeebench
