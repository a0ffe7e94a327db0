// perfbench_workload: runs one benchmark workload in this process and
// prints its report as one JSON line on stdout.
//
//   perfbench_workload --workload fabric_poll|lirtss_service --seed N
//                      [--traced] [--trace-out FILE]
//   perfbench_workload --build-info
//
// perfbench/run.py is the entry point; it spawns this program once per
// measured run and aggregates the reports.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kTimingBuild = true;
#else
constexpr bool kTimingBuild = false;
#endif

// Exit status of a run that completed but failed an output check; the
// report is still printed.
constexpr int kChecksFailed = 4;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload NAME --seed N "
               "[--traced] [--trace-out F]\n"
               "       perfbench_workload --build-info\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.start_ns = perfbench::host_ns();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--build-info") {
      std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\","
                  "\"timing_build\":%s}\n",
                  PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                  kTimingBuild ? "true" : "false");
      return 0;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--traced") {
      options.traced = true;
    } else {
      return usage();
    }
  }
  if (!kTimingBuild) {
    std::fprintf(stderr,
                 "perfbench_workload: built without NDEBUG and optimisation; "
                 "refusing to report timings\n");
    return 3;
  }

  perfbench::Report report;
  try {
    if (options.workload == "fabric_poll") {
      perfbench::run_fabric_poll(options, report);
    } else if (options.workload == "lirtss_service") {
      perfbench::run_lirtss_service(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
  report.write_json(std::cout);
  std::cout.flush();
  if (!std::cout) return 1;
  return report.ok() ? 0 : kChecksFailed;
}
