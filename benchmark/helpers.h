// Helpers of the tlsharm benchmark that carry no workload logic: seed
// derivation, the percentile rule, output digests, the reconciliation
// arithmetic behind the traced run, and the result line. helpers_test.cc
// covers each of them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "scanner/experiments.h"
#include "util/bytes.h"

namespace tlsharm::bench {

// --- seeds ----------------------------------------------------------------

// The seed that golden digests are recorded for, and the held-out seed that
// a later performance claim must also hold on (README.md, "Seeds").
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 20160302;

std::uint64_t SplitMix64(std::uint64_t x);

// Everything random in a run comes from one --seed: the world seed builds
// the simulated Internet, the scan seed drives probers and query samples.
struct Seeds {
  std::uint64_t world = 0;
  std::uint64_t scan = 0;
};
Seeds DeriveSeeds(std::uint64_t seed);

// --- the percentile rule ----------------------------------------------------

// Nearest-rank percentile of `samples`: the smallest sample such that at
// least a fraction q of all samples are at or below it. `beyond` counts the
// samples ranked after it — the rule is that a reported percentile has at
// least ten of them.
struct Percentile {
  double value = 0;
  std::size_t count = 0;   // samples
  std::size_t beyond = 0;  // samples ranked after the percentile
};
Percentile NearestRank(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

// --- digests ----------------------------------------------------------------

// FNV-1a, 64-bit. Self-contained on purpose: a digest that checks the
// library's output must not be computed by the library under test.
class Fnv64 {
 public:
  void Add(ByteView bytes);
  void Add(std::string_view text);
  void AddU64(std::uint64_t value);  // little-endian, 8 bytes
  std::string Hex() const;  // 16 lowercase hex digits

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

// Digest of a daily-scan result: the three secret-span trackers, the core
// domain set and counters, and (with_loss) the per-day loss ledger. A cold
// warehouse fold reproduces everything but the loss ledger.
std::string DigestScanResult(const scanner::DailyScanResult& result,
                             bool with_loss);

// --- reconciliation arithmetic -------------------------------------------------

// 100 * part / whole; 0 when whole is not positive.
double SharePct(double part, double whole);

// Share of `wall_ns` that no in-program span explains. `covered_ns` is the
// in-program span time nested inside the benchmark's own spans (their total
// minus their self time); it is clamped to the wall, so the result lies in
// [0, 100].
double UnattributedPct(std::uint64_t wall_ns, std::uint64_t covered_ns);

// How much tracing slowed the workload: the relative drop of the traced
// throughput against the untraced one, in percent (negative when the
// traced half happened to run faster).
double OverheadPct(double untraced_ops_per_s, double traced_ops_per_s);

// --- the result line ----------------------------------------------------------

// A metric BENCHMARK.json lists: run.py passes the list for the kind of run
// as "name:unit,name:unit,...", so the names and units live in one place.
struct MetricSpec {
  std::string name;
  std::string unit;
};
// False on an empty list, an entry without ':' or an empty name or unit.
bool ParseMetricList(std::string_view list, std::vector<MetricSpec>* out);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The listed metrics, in list order, with their values from `values`. A
// listed name with no value reads 0 when `missing_is_zero` (a layer the
// workload bypasses) and is an error otherwise; a value whose name is not
// listed is always an error, so the code and the list cannot drift apart.
bool SelectMetrics(const std::map<std::string, double>& values,
                   const std::vector<MetricSpec>& wanted, bool missing_is_zero,
                   std::vector<Metric>* out, std::string* error);

// Shortest round-trip decimal form of `value` (all its digits).
std::string FormatNumber(double value);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string RenderResultJson(bool correct, std::uint64_t attempted,
                             std::uint64_t failed,
                             const std::vector<Metric>& metrics);

// --- process accounting -------------------------------------------------------

double NowSeconds();           // steady clock
// CPU time of the calling thread. Single-thread query loops that never
// block are timed with it, so time the host gives other tenants stays out.
double ThreadCpuSeconds();
double ProcessCpuSeconds();    // user + system CPU of this process
double PeakRssMb();            // VmHWM, MiB

}  // namespace tlsharm::bench
