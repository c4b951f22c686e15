// Measurement plumbing shared by the benchmark's workloads: clocks,
// quantiles, the seeded Zipf sampler, the box stamp, in-memory spans and
// the metric sink the final JSON line is printed from.
#ifndef XEEBENCH_SUPPORT_H_
#define XEEBENCH_SUPPORT_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace xeebench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The q-quantile (0 <= q <= 1) of `v` by nearest rank; reorders `v`.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

/// Zipf(s) over ranks 1..n mapped through a seeded permutation, so the
/// hottest items are a random subset rather than the first ones listed.
/// Draws are a binary search over the precomputed CDF.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double s, xee::Rng& rng);
  size_t Next(xee::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> perm_;
};

inline constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/// FNV-1a over the bytes of `data`, folded into `h`.
uint64_t Fnv(uint64_t h, std::string_view data);
uint64_t FnvU64(uint64_t h, uint64_t v);

/// The CPUs this process may run on, as found at the first call.
const std::vector<int>& AllowedCpus();
/// Restricts thread `tid` (0 = the calling thread) to `cpus`.
void SetThreadCpus(pid_t tid, const std::vector<int>& cpus);
/// Restricts every thread of process `pid` except `skip` to the allowed
/// CPUs minus `avoid`.
void SetOtherThreadsCpus(pid_t pid, pid_t skip, const std::vector<int>& avoid);

/// Pins the calling (client) thread to the last allowed CPU and moves
/// every other thread of this process (the service's pool workers, busy
/// with shadow evaluations) off it, so single-call latency depends on
/// neither where the scheduler parks the client nor what the pool is
/// doing. Returns the client's CPU.
int IsolateClient();
/// Lets every thread, the client included, run on all allowed CPUs
/// again (batch phases and layer probes use the whole pool).
void ReleaseCpus();

/// Peak resident set of process `pid` (0 = this process) in MiB, from
/// VmHWM in /proc/<pid>/status; 0 when unreadable.
double PeakRssMib(pid_t pid = 0);

/// Aggregate CPU time counters from the first line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Median ns per lookup of a fixed string hash-map probe loop on the
/// calling thread: a yardstick of how fast the box is right now. On a
/// shared virtual machine it drifts by tens of percent within minutes
/// while steal time stays near zero.
double ReferenceLoopNs();

/// nproc, the CPU model string, the steal share over the run, and the
/// reference loop timed at the start and at the end of the run.
std::string BoxStampJson(const CpuTimes& start, const CpuTimes& end,
                         double ref_start_ns, double ref_end_ns);

/// One recorded span. `parent` is an index into the tracer's span list
/// (kNoParent at the root); `request` groups the spans of one request.
struct Span {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t parent = 0;
  uint32_t request = 0;
  uint16_t name = 0;
};

/// In-memory span recorder for the traced run. Spans are appended in
/// completion order and only read after the run; `Begin`/`End` pair up
/// through the returned index. A full buffer stops recording and counts
/// the spans it dropped.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = 0xffffffffu;
  static constexpr uint32_t kDropped = 0xfffffffeu;

  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  uint16_t Intern(std::string_view name);

  uint32_t Begin(std::string_view name, uint32_t parent, uint32_t request);
  void End(uint32_t span);

  /// Records a finished interval directly.
  uint32_t Add(std::string_view name, uint32_t parent, uint32_t request,
               uint64_t start_ns, uint64_t dur_ns);

  uint32_t NextRequestId() { return ++request_ids_; }

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Self time of every span (its duration minus the part of it that
  /// its children cover), grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesNs() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  uint32_t request_ids_ = 0;
  uint64_t dropped_ = 0;
};

/// RAII span on a tracer; inert when the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string_view name, uint32_t parent,
             uint32_t request)
      : t_(t != nullptr && t->enabled() ? t : nullptr),
        id_(t_ != nullptr ? t_->Begin(name, parent, request)
                          : Tracer::kDropped) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  uint32_t id_;
};

/// Named metric values with units, plus free-form report lines printed
/// before the final result line.
struct Report {
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> metrics;
  std::vector<std::string> lines;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Value{value, unit};
  }
  void Line(std::string s) { lines.push_back(std::move(s)); }
};

/// Per-request latency samples of one phase, cut into fixed-size
/// windows. The p99 and the throughput are medians over windows, so a
/// burst of host steal time spoils one window rather than the run.
struct LatencyLog {
  std::vector<uint32_t> ns;           ///< one sample per request
  std::vector<double> window_qps;     ///< one value per window
  std::vector<double> window_p99_ns;  ///< one value per window

  /// Closes a window made of the last `n` samples, which took `wall_ns`.
  void CloseWindow(size_t n, uint64_t wall_ns);
  /// Median over all samples, µs.
  double P50Us() const;
  /// Median over windows of each window's p99, µs.
  double P99Us() const;
  /// Median over windows of each window's requests per second.
  double MedianQps() const;
};

}  // namespace xeebench

#endif  // XEEBENCH_SUPPORT_H_
