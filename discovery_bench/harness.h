// Plumbing shared by every part of bench_discovery: clocks and quantiles,
// the metrics a run reports, the span recorder of traced runs, the host
// facts each result records, and a scratch directory that cleans up after
// itself. Nothing here knows about workloads or the system under test.

#ifndef JOINMI_DISCOVERY_BENCH_HARNESS_H_
#define JOINMI_DISCOVERY_BENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace joinmi {
namespace dbench {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point from, Clock::time_point to);
double MillisSince(Clock::time_point start);
double SecondsSince(Clock::time_point start);

/// \brief Nearest-rank quantile: the smallest value with at least a share
/// `q` (in (0, 1]) of the values at or below it. 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// \brief One reported metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief In-memory spans of a traced run. Every span has a name, its
/// request id, its parent span (or none) and steady-clock bounds; nothing
/// is written until ToJson() at exit. Thread-safe.
class Tracer {
 public:
  static constexpr size_t kNoParent = static_cast<size_t>(-1);

  /// Opens a span and returns its id.
  size_t Begin(uint64_t request_id, std::string name,
               size_t parent = kNoParent);
  void End(size_t span);

  /// Durations of every closed span called `name`, in ms.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// The time child spans cover inside the closed spans called `name`, as
  /// a share of those spans' total duration.
  double ChildShare(const std::string& name) const;

  /// {"spans": [...], "summary": {name: {count, median_ms,
  /// self_median_ms}}}. Self time is a span's duration minus the part of
  /// it its child spans cover.
  std::string ToJson() const;

 private:
  struct Span {
    uint64_t request_id = 0;
    std::string name;
    size_t parent = kNoParent;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };

  int64_t NowNs() const;
  /// Per span, the nanoseconds its children cover. Caller holds mutex_.
  std::vector<int64_t> CoveredNs() const;

  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// \brief Times `fn`, records it as a span when `tracer` is set, and
/// returns the elapsed milliseconds.
template <typename Fn>
double TimeSpan(Tracer* tracer, uint64_t request_id, const char* name,
                Fn&& fn) {
  const size_t span = tracer != nullptr ? tracer->Begin(request_id, name) : 0;
  const Clock::time_point start = Clock::now();
  fn();
  const double ms = MillisSince(start);
  if (tracer != nullptr) tracer->End(span);
  return ms;
}

/// \brief Facts about the machine a result came from.
struct HostFacts {
  size_t nproc = 0;
  std::string compiler;
  std::string build_type;
  /// File system type holding the benchmark's data directory.
  std::string filesystem;
};

HostFacts ReadHostFacts(const std::string& data_dir);

/// \brief The process's peak resident set size (VmHWM), in MB.
double PeakRssMb();

/// \brief Machine-wide CPU time from /proc/stat, in clock ticks: all of
/// it, and the part a hypervisor gave to other guests (steal).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// \brief Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// \brief A fresh directory, removed with everything in it when the
/// object dies.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// \brief `text` as a quoted JSON string.
std::string JsonString(const std::string& text);
/// \brief `value` as a JSON number with every significant digit.
std::string JsonNumber(double value);

}  // namespace dbench
}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_BENCH_HARNESS_H_
