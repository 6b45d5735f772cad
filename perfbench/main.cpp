// apks_perfbench — one workload of the end-to-end benchmark per process.
//
//   apks_perfbench --workload search-cold|search-hot|ingest-reload
//                  --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--git-sha SHA]
//   apks_perfbench --selftest
//
// Prints human-readable lines starting with '#', then one JSON line:
// {"correct", "attempted", "failed", "metrics"}. End-to-end metrics come
// from --trace 0 runs, per-layer metrics from --trace 1 runs.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "apks_perfbench: %s\nusage: apks_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--git-sha SHA] | --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::Options opt;
  opt.work_dir = ".bench_build";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--git-sha") {
        opt.git_sha = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (selftest) return perfbench::run_selftest() == 0 ? 0 : 1;
  if (opt.seconds <= 0) usage("--seconds must be positive");

  perfbench::Report report;
  try {
    if (opt.workload == "search-cold") {
      perfbench::run_search_cold(opt, report, process_start);
    } else if (opt.workload == "search-hot") {
      perfbench::run_search_hot(opt, report, process_start);
    } else if (opt.workload == "ingest-reload") {
      perfbench::run_ingest_reload(opt, report, process_start);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& ex) {
    // A workload that cannot finish prints no result line.
    std::fprintf(stderr, "apks_perfbench: %s aborted: %s\n",
                 opt.workload.c_str(), ex.what());
    return 1;
  }
  // The verdict travels in the JSON line ("correct"); a printed result
  // always exits 0.
  report.print(opt);
  return 0;
}
