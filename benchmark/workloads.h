// The benchmark's three workloads and the runner that times them. Each
// workload drives the library's public entry points from outside; README.md
// says what each one stresses and why.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.h"

namespace tlsharm::bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string workdir;     // scratch directory for on-disk artifacts
  std::string source_rev;  // identity of the code under test, for the header
  // The metrics this kind of run prints, from BENCHMARK.json: end_to_end
  // for an untraced run, per_layer for a traced one.
  std::vector<MetricSpec> metrics;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload: prints the header, the check lines and, as the last
// line of standard output, the result JSON. Returns the exit code: 0 when a
// result was printed (correct or not), 2 on a usage or environment error.
int RunBenchmark(const RunOptions& options);

}  // namespace tlsharm::bench
