// perfbench: the end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-path FILE]
//
// Runs one workload (lwdc-sharded-serve, open-cosine-topk, swdc-live-ooc)
// against the library and in-process loopback servers, checks every answer,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced replay (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A run whose answers
// fail a check exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "oracle.h"
#include "workload.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload lwdc-sharded-serve|"
               "open-cosine-topk|swdc-live-ooc --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-path FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (argc % 2 == 0) return Usage();  // every flag takes one value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else if (key == "--trace-path") {
      args.trace_path = val;
    } else {
      return Usage();
    }
  }
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "lwdc-sharded-serve") run = RunShardedServe;
  if (args.workload == "open-cosine-topk") run = RunCosineTopK;
  if (args.workload == "swdc-live-ooc") run = RunLiveOoc;
  if (run == nullptr || args.seconds <= 0.0) return Usage();
  if (args.work_dir.empty()) {
    args.work_dir = ".bench_build/perfbench-work";
  }
  if (args.trace_path.empty()) {
    args.trace_path = args.work_dir + "-trace.json";
  }
  namespace fs = std::filesystem;
  fs::remove_all(args.work_dir);
  fs::create_directories(args.work_dir);
  if (args.trace) {
    fs::create_directories(fs::path(args.trace_path).parent_path());
  }

  std::printf("perfbench %s seed %llu seconds %.1f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Report report;
  for (const std::string& miss : CheckerSelfTest()) {
    report.CheckFailed("checker self-test: " + miss);
  }
  HostReference("before");
  const HostTicks ticks = ReadHostTicks();
  if (report.correct()) run(args, &report);
  PrintHostSteal(ticks);
  HostReference("after");
  fs::remove_all(args.work_dir);
  if (args.trace) std::printf("trace file: %s\n", args.trace_path.c_str());
  report.Print();
  return report.correct() ? 0 : 1;
}
