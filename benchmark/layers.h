// The per-layer side of the traced run: metrics derived from the
// in-program spans and the benchmark's own spans, and isolated layer probes
// on fixed samples. BENCHMARK.json names them; a layer that a workload
// bypasses has no value and reads 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/prof.h"
#include "simnet/internet.h"

namespace tlsharm::bench {

using LayerValues = std::map<std::string, double>;

struct SpanTotal {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
// Sums every span whose name equals `name`, or starts with it when it ends
// in '.' (a prefix such as "crypto.").
SpanTotal SpanOf(const obs::ProfSnapshot& snap, std::string_view name);

// What the traced phase did, as counted by the workload.
struct TracedWork {
  std::uint64_t wall_ns = 0;   // traced pass wall on the main thread
  std::uint64_t ops = 0;
  std::uint64_t obs_rows = 0;        // observations the sinks received
  std::uint64_t sink_rows = 0;       // rows of the artifacts written or read
  std::uint64_t sink_bytes = 0;      // bytes of those artifacts
  std::uint64_t probe_attempts = 0;  // engine registry probe.attempts
  std::uint64_t probe_probes = 0;    // engine registry probe.probes
  std::uint64_t materializations = 0;  // Internet::Fleet() after each pass
  std::uint64_t evictions = 0;
  std::uint64_t resident_bytes = 0;    // at the end of the last pass
};

// Metrics read from the traced passes' spans plus `work`.
void DeriveTracedLayers(const obs::ProfSnapshot& snap, const TracedWork& work,
                        LayerValues* out);

// Benchmark spans around the public calls a workload makes. Their sites
// all start with "bench." and are the main thread's outermost spans, so the
// in-program spans nested in them are their total minus their self time.
inline constexpr std::string_view kBenchSpanPrefix = "bench.";

// Isolated layer probes on fixed samples: crypto primitives, TLS
// handshakes and prober calls against `world` at virtual time `at` (faults
// are switched off first), and cold terminator derivation on `fresh`, a
// lazily built world nothing has touched yet.
void MeasureIsolatedLayers(simnet::Internet& world, simnet::Internet& fresh,
                           std::uint64_t seed, SimTime at, LayerValues* out);

}  // namespace tlsharm::bench
