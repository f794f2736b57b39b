// servebench — the serving benchmark's driver binary.
//
//   servebench --workload <replay-grid|durable-grid|online-city>
//              --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints `info key=value` lines, a `host` line, and as its last line the
// JSON result {"correct", "attempted", "failed", "metrics"}. Exits non-zero
// without a result when the run cannot be made at all.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload <replay-grid|durable-grid|"
               "online-city> --seed <n> --seconds <s> --trace <0|1> "
               "--out-dir <dir>\n");
}

}  // namespace

int main(int argc, char** argv) {
  servebench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (args.workload.empty() || args.out_dir.empty() || args.seconds <= 0.0) {
    Usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "servebench: cannot create %s\n", args.out_dir.c_str());
    return 2;
  }

#if defined(__clang__)
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf(
      "host {\"compiler\": \"%s %s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"TBF_METRICS\": \"%s\", \"TBF_FAULTS\": "
      "\"%s\", \"nproc\": %u}\n",
      compiler, __VERSION__, SERVEBENCH_BUILD_TYPE, SERVEBENCH_CXX_FLAGS,
      SERVEBENCH_TBF_METRICS, SERVEBENCH_TBF_FAULTS,
      std::thread::hardware_concurrency());

  servebench::RunResult result;
  int code = 2;
  if (args.workload == "replay-grid") {
    code = servebench::RunReplayGrid(args, &result);
  } else if (args.workload == "durable-grid") {
    code = servebench::RunDurableGrid(args, &result);
  } else if (args.workload == "online-city") {
    code = servebench::RunOnlineCity(args, &result);
  } else {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
  }
  if (code != 0) return code;
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
