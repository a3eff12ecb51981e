// Shared plumbing of the end-to-end benchmark: arguments, clocks, order
// statistics, the per-run report (metrics, operation counts, work counts)
// and its final JSON line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory for snapshots and lakes; removed at exit.
  std::string work_dir;
  /// Where a traced run writes its spans.
  std::string trace_path;
};

/// Monotonic seconds since an arbitrary origin.
double Now();

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty vector.
double Quantile(std::vector<double> v, double q);

double Median(std::vector<double> v);

/// Peak resident set of this process (VmHWM), in bytes.
uint64_t PeakRssBytes();

/// Total bytes of regular files under `dir` whose name ends in `suffix`.
uint64_t DirBytes(const std::string& dir, const std::string& suffix);

/// Derives an independent 64-bit seed for stream `salt` of run seed `seed`.
uint64_t Mix(uint64_t seed, uint64_t salt);

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Everything one run prints: metrics by name with units, operation
/// counts by kind, work counts, and the answer-check failures.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Work(const std::string& name, double value);
  void Attempt(const std::string& kind, bool ok);
  void Attempts(const std::string& kind, uint64_t attempted, uint64_t failed);
  /// Records a failed answer check (an operation that completed but whose
  /// answer is wrong). The run is then incorrect and exits non-zero.
  void CheckFailed(const std::string& what);

  bool correct() const { return check_failures_ == 0; }
  uint64_t attempted() const;
  uint64_t failed() const;

  /// Prints the human-readable summary, then the final JSON line.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> work_;
  std::map<std::string, OpCount> ops_;
  std::vector<std::string> notes_;
  uint64_t check_failures_ = 0;
};

/// Times a fixed L1-resident loop and a fixed ~2 MB loop and prints their
/// ns per element, so host drift shows beside the metrics. Not a metric.
void HostReference(const char* when);

/// Host-wide CPU time counters from /proc/stat, in clock ticks.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;  ///< time the hypervisor ran something else
};

HostTicks ReadHostTicks();

/// Prints the share of the host's CPU time stolen between `from` and now.
void PrintHostSteal(const HostTicks& from);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
