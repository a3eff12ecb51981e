#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir, const std::string& suffix) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += e.file_size();
    }
  }
  return total;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Work(const std::string& name, double value) {
  work_.push_back({name, value});
}

void Report::Attempt(const std::string& kind, bool ok) {
  OpCount& c = ops_[kind];
  ++c.attempted;
  if (!ok) ++c.failed;
}

void Report::Attempts(const std::string& kind, uint64_t attempted,
                      uint64_t failed) {
  OpCount& c = ops_[kind];
  c.attempted += attempted;
  c.failed += failed;
}

void Report::CheckFailed(const std::string& what) {
  ++check_failures_;
  if (check_failures_ <= 20) notes_.push_back("CHECK FAILED: " + what);
}

uint64_t Report::attempted() const {
  uint64_t n = 0;
  for (const auto& [kind, c] : ops_) n += c.attempted;
  return n;
}

uint64_t Report::failed() const {
  uint64_t n = 0;
  for (const auto& [kind, c] : ops_) n += c.failed;
  return n;
}

void Report::Print() const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const auto& [kind, c] : ops_) {
    std::printf("ops  %-12s attempted %llu failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  for (const auto& [name, v] : work_) {
    std::printf("work %-36s %.6g\n", name.c_str(), v);
  }
  for (const auto& [name, vu] : metrics_) {
    std::printf("metric %-36s %.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted()),
              static_cast<unsigned long long>(failed()));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].second.first)
                         ? metrics_[i].second.first
                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].first.c_str(), v,
                metrics_[i].second.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

/// ns per element of `passes` summing passes over `n` 32-bit integers
/// (`n` a power of two).
double TimeLoop(size_t n, size_t passes) {
  std::vector<uint32_t> buf(n);
  for (size_t i = 0; i < n; ++i) buf[i] = static_cast<uint32_t>(i % 7);
  volatile uint32_t sink = 0;
  const double t0 = Now();
  for (size_t p = 0; p < passes; ++p) {
    buf[p & (n - 1)] ^= 1u;  // keeps the pass from being hoisted
    uint32_t acc = static_cast<uint32_t>(p);
    for (size_t i = 0; i < n; ++i) acc += buf[i];
    sink = sink + acc;
  }
  const double t1 = Now();
  return (t1 - t0) * 1e9 / static_cast<double>(n * passes);
}

}  // namespace

void HostReference(const char* when) {
  // 16 KiB sits in L1; 2 MiB spills to L2/L3 on this class of host. Both do
  // the same 64 Mi element visits.
  const double l1 = TimeLoop(4096, 16384);
  const double l2mb = TimeLoop(512 * 1024, 128);
  std::printf("host-ref %-6s l1_loop %.4f ns/elem  2mb_loop %.4f ns/elem\n",
              when, l1, l2mb);
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

void PrintHostSteal(const HostTicks& from) {
  const HostTicks now = ReadHostTicks();
  const uint64_t total = now.total - from.total;
  std::printf("host-steal %.2f%% of host CPU time during the run\n",
              total > 0 ? 100.0 * static_cast<double>(now.steal - from.steal) /
                              static_cast<double>(total)
                        : 0.0);
}

}  // namespace perfbench
