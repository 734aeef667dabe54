// tlsharm_bench: one workload per process.
//
//   tlsharm_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> --metrics <name:unit,...> [--rev <id>]
//
// run.py builds this binary and runs it, passing the metrics BENCHMARK.json
// lists for the kind of run; README.md documents the workloads, the metrics
// and how to read a traced run.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "crypto/tuning.h"
#include "obs/prof.h"
#include "workloads.h"

namespace {

// Every knob the library reads from the environment is TLSHARM_-prefixed.
// The workloads set each one they need in code, so the ambient environment
// cannot change a run.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (eq != nullptr && std::strncmp(*e, "TLSHARM_", 8) == 0) {
      names.emplace_back(*e, static_cast<std::size_t>(eq - *e));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  tlsharm::crypto::SetReferenceCrypto(false);
  tlsharm::obs::SetProfilingEnabled(false);
  tlsharm::obs::SetProfTraceEnabled(false);
}

int Usage() {
  std::fprintf(stderr,
               "usage: tlsharm_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "--metrics <name:unit,...> [--rev <id>]\n"
               "workloads:");
  for (const std::string& name : tlsharm::bench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  PinEnvironment();
  tlsharm::bench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--rev") {
      options.source_rev = value;
    } else if (flag == "--metrics") {
      if (!tlsharm::bench::ParseMetricList(value, &options.metrics)) {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.workdir.empty() ||
      options.metrics.empty() || options.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const int code = tlsharm::bench::RunBenchmark(options);
  std::filesystem::remove_all(options.workdir, ec);
  return code;
}
