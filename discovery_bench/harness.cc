#include "harness.h"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

namespace joinmi {
namespace dbench {

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MillisSince(Clock::time_point start) {
  return MillisBetween(start, Clock::now());
}

double SecondsSince(Clock::time_point start) {
  return MillisSince(start) / 1000.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

size_t Tracer::Begin(uint64_t request_id, std::string name, size_t parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{request_id, std::move(name), parent, now, -1});
  return spans_.size() - 1;
}

void Tracer::End(size_t span) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[span].end_ns = now;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<int64_t> Tracer::CoveredNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent == kNoParent || span.end_ns < 0) continue;
    const Span& parent = spans_[span.parent];
    children[span.parent].emplace_back(std::max(span.start_ns, parent.start_ns),
                                       std::min(span.end_ns, parent.end_ns));
  }
  std::vector<int64_t> covered(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t reach = spans_[i].start_ns;
    for (const auto& [begin, end] : intervals) {
      const int64_t from = std::max(begin, reach);
      if (end > from) covered[i] += end - from;
      reach = std::max(reach, end);
    }
  }
  return covered;
}

double Tracer::ChildShare(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<int64_t> covered = CoveredNs();
  int64_t total = 0;
  int64_t children = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name || spans_[i].end_ns < 0) continue;
    total += spans_[i].end_ns - spans_[i].start_ns;
    children += covered[i];
  }
  return total > 0 ? static_cast<double>(children) / static_cast<double>(total)
                   : 0.0;
}

std::string Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<int64_t> covered = CoveredNs();
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ",";
    out += "\n  {\"id\": " + std::to_string(i) +
           ", \"request_id\": " + std::to_string(span.request_id) +
           ", \"name\": " + JsonString(span.name) + ", \"parent\": " +
           (span.parent == kNoParent ? std::string("null")
                                     : std::to_string(span.parent)) +
           ", \"start_ns\": " + std::to_string(span.start_ns) +
           ", \"end_ns\": " + std::to_string(span.end_ns) + "}";
    if (span.end_ns < 0) continue;
    const int64_t duration = span.end_ns - span.start_ns;
    by_name[span.name].first.push_back(static_cast<double>(duration) / 1e6);
    by_name[span.name].second.push_back(
        static_cast<double>(duration - covered[i]) / 1e6);
  }
  out += "\n], \"summary\": {";
  bool first = true;
  for (auto& [name, durations] : by_name) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += JsonString(name) +
           ": {\"count\": " + std::to_string(durations.first.size()) +
           ", \"median_ms\": " + JsonNumber(Median(durations.first)) +
           ", \"self_median_ms\": " + JsonNumber(Median(durations.second)) +
           "}";
  }
  out += "\n}}\n";
  return out;
}

namespace {

std::string FileSystemName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x2FC12FC1:
      return "zfs";
    case 0x6969:
      return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return hex;
    }
  }
}

}  // namespace

HostFacts ReadHostFacts(const std::string& data_dir) {
  HostFacts facts;
  facts.nproc = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  facts.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  facts.compiler = "gcc " __VERSION__;
#else
  facts.compiler = "unknown";
#endif
#ifdef DBENCH_BUILD_TYPE
  facts.build_type = DBENCH_BUILD_TYPE;
#else
  facts.build_type = "unknown";
#endif
  facts.filesystem = FileSystemName(data_dir);
  return facts;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  stat >> label;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) total += entry.file_size(error);
  }
  return total;
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code error;
  std::filesystem::remove_all(path_, error);
  std::filesystem::create_directories(path_, error);
}

ScratchDir::~ScratchDir() {
  std::error_code error;
  std::filesystem::remove_all(path_, error);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace dbench
}  // namespace joinmi
