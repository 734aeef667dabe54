#include "helpers.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tlsharm::bench {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Seeds DeriveSeeds(std::uint64_t seed) {
  return Seeds{SplitMix64(seed ^ 0x776f726c64ull),   // "world"
               SplitMix64(seed ^ 0x7363616e00ull)};  // "scan"
}

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // 1-based rank ceil(q * n), kept within [1, n]. The epsilon keeps an
  // exact product such as 0.99 * 1000 from rounding up to the next rank.
  const double exact = q * static_cast<double>(p.count);
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, p.count);
  p.value = samples[rank - 1];
  p.beyond = p.count - rank;
  return p;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

void Fnv64::Add(ByteView bytes) {
  for (std::uint8_t b : bytes) {
    state_ ^= b;
    state_ *= 0x100000001b3ull;
  }
}

void Fnv64::Add(std::string_view text) {
  Add(ByteView(reinterpret_cast<const std::uint8_t*>(text.data()),
               text.size()));
}

void Fnv64::AddU64(std::uint64_t value) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(value >> (8 * i));
  Add(ByteView(le, sizeof(le)));
}

std::string Fnv64::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

std::string DigestScanResult(const scanner::DailyScanResult& result,
                             bool with_loss) {
  Fnv64 h;
  Bytes spans;
  result.stek_spans.EncodeState(spans);
  result.ecdhe_spans.EncodeState(spans);
  result.dhe_spans.EncodeState(spans);
  h.Add(spans);
  h.AddU64(result.core_domains.size());
  for (scanner::DomainIndex d : result.core_domains) h.AddU64(d);
  h.AddU64(result.core_ever_ticket);
  h.AddU64(result.core_ever_ecdhe);
  h.AddU64(result.core_ever_dhe_connect);
  h.AddU64(result.core_any_mechanism);
  if (with_loss) {
    h.AddU64(result.loss.size());
    for (const scanner::DayLoss& day : result.loss) {
      h.AddU64(day.scheduled);
      h.AddU64(day.recovered);
      h.AddU64(day.lost);
      for (std::size_t lost : day.lost_by_class) h.AddU64(lost);
    }
  }
  return h.Hex();
}

double SharePct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

double UnattributedPct(std::uint64_t wall_ns, std::uint64_t covered_ns) {
  if (wall_ns == 0) return 0.0;
  const std::uint64_t covered = std::min(covered_ns, wall_ns);
  return SharePct(static_cast<double>(wall_ns - covered),
                  static_cast<double>(wall_ns));
}

double OverheadPct(double untraced_ops_per_s, double traced_ops_per_s) {
  if (untraced_ops_per_s <= 0) return 0.0;
  return 100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s;
}

bool ParseMetricList(std::string_view list, std::vector<MetricSpec>* out) {
  out->clear();
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view entry = list.substr(0, comma);
    list = comma == std::string_view::npos ? std::string_view()
                                           : list.substr(comma + 1);
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return false;
    }
    out->push_back({std::string(entry.substr(0, colon)),
                    std::string(entry.substr(colon + 1))});
  }
  return !out->empty();
}

bool SelectMetrics(const std::map<std::string, double>& values,
                   const std::vector<MetricSpec>& wanted, bool missing_is_zero,
                   std::vector<Metric>* out, std::string* error) {
  out->clear();
  for (const MetricSpec& spec : wanted) {
    const auto it = values.find(spec.name);
    if (it == values.end() && !missing_is_zero) {
      *error = "no value for listed metric " + spec.name;
      return false;
    }
    out->push_back(
        {spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  }
  for (const auto& [name, value] : values) {
    const bool listed =
        std::any_of(wanted.begin(), wanted.end(),
                    [&](const MetricSpec& spec) { return spec.name == name; });
    if (!listed) {
      *error = "metric " + name + " is not listed";
      return false;
    }
  }
  return true;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string RenderResultJson(bool correct, std::uint64_t attempted,
                             std::uint64_t failed,
                             const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::atof(line + 6) / 1024.0;  // the kernel reports kB
      break;
    }
  }
  std::fclose(f);
  return mb;
}

}  // namespace tlsharm::bench
