// Benchmark binary: runs one named workload for a fixed wall time and
// writes its raw samples, counters, spans and output checks as JSON.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out FILE --work-dir DIR [--setup-reps K]
//
// perfbench/run.py builds this binary, runs it and reduces the raw
// record to the metrics named in BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "nightly_load|plan_service|durable_feed|tenant_overlap "
               "--seed N --seconds S --trace 0|1 --out FILE --work-dir DIR "
               "[--setup-reps K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_path = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--setup-reps") {
      args.setup_reps = std::atoi(value.c_str());
    } else {
      return Usage();
    }
  }
  if (args.out_path.empty() || args.work_dir.empty() || args.seconds <= 0 ||
      args.setup_reps < 1) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 1;
  }

  perfbench::Raw raw;
  int rc = 0;
  if (args.workload == "nightly_load") {
    rc = perfbench::RunNightlyLoad(args, raw);
  } else if (args.workload == "plan_service") {
    rc = perfbench::RunPlanService(args, raw);
  } else if (args.workload == "durable_feed") {
    rc = perfbench::RunDurableFeed(args, raw);
  } else if (args.workload == "tenant_overlap") {
    rc = perfbench::RunTenantOverlap(args, raw);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  if (!raw.Write(args.out_path, args)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.out_path.c_str());
    return 1;
  }
  return 0;
}
