#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "adversary/compromise.h"
#include "adversary/replay.h"
#include "campaign/campaign.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "scanner/experiments.h"
#include "scanner/prober.h"
#include "scanner/scan_engine.h"
#include "scanner/store.h"
#include "simnet/faults.h"
#include "simnet/internet.h"
#include "util/crc32.h"
#include "warehouse/capture.h"
#include "warehouse/fold.h"
#include "warehouse/warehouse.h"

#ifndef TLSHARM_BENCH_BUILD_TYPE
#define TLSHARM_BENCH_BUILD_TYPE "unknown"
#endif

namespace tlsharm::bench {
namespace {

namespace fs = std::filesystem;

// Benchmark spans around the public calls each workload makes (layers.h:
// kBenchSpanPrefix). None of them nests inside another.
const obs::ProfSite kSpanCampaign("bench.campaign.run");
const obs::ProfSite kSpanScan("bench.scanner.scan");
const obs::ProfSite kSpanDecodeIngest("bench.adversary.decode_ingest");
const obs::ProfSite kSpanSeal("bench.adversary.seal");
const obs::ProfSite kSpanSweep("bench.adversary.sweep");
const obs::ProfSite kSpanRender("bench.adversary.render");
const obs::ProfSite kSpanFold("bench.warehouse.fold");

// A fleet budget no working set here comes near: the lazy fleet never
// evicts under it.
constexpr std::size_t kUnboundedBudgetMb = std::size_t{1} << 16;
constexpr std::size_t kScanBatch = 65536;
constexpr double kQuantile = 0.99;
constexpr std::size_t kTailSamples = 10;  // samples required beyond p99
constexpr std::uint64_t kQuerySalt = 0x7175657279ull;  // "query"
constexpr int kStudyAttempts = 3;  // per-probe attempts of a recorded study

// Scan threads of the recorded studies: two, not one per core. On a shared
// host other tenants often hold a core or two, and a scan that needs every
// core then measures their load rather than the code (4 threads moved
// ops_per_s by 0.44 between runs where CPU per probe held within 0.07).
int WorkerThreads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(2u, hw));
}

simnet::PopulationSpec WorldSpec(std::size_t top_list, std::size_t budget_mb) {
  simnet::PopulationSpec spec = simnet::PaperPopulationSpec(top_list);
  spec.fleet_mode = simnet::FleetMode::kLazy;
  spec.fleet_budget_mb = budget_mb;
  return spec;
}

campaign::CampaignSpec StudySpec(const std::string& dir, int days,
                                 const Seeds& seeds) {
  campaign::CampaignSpec spec;
  spec.dir = dir;
  spec.days = days;
  spec.seed = seeds.scan;
  spec.threads = WorkerThreads();
  spec.robustness.retry.max_attempts = kStudyAttempts;
  spec.robustness.requeue_failures = true;
  spec.world_digest = seeds.world;
  spec.record_captures = true;
  return spec;
}

std::string Hex32(std::uint32_t value) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", value);
  return buf;
}

std::string FileCrc(const std::string& path) {
  Bytes bytes;
  std::string error;
  if (!warehouse::ReadWarehouseFile(path, &bytes, &error)) return "missing";
  return Hex32(Crc32(bytes));
}

std::uint64_t TreeBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// Adds the counters a finished scan left in `registry` to `work`.
void AddRegistry(const obs::MetricsRegistry& registry, TracedWork* work) {
  const obs::MetricsSnapshot snap = registry.Snapshot();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    return 0;
  };
  work->probe_attempts += counter("probe.attempts");
  work->probe_probes += counter("probe.probes");
}

void AddFleet(const simnet::Internet& net, TracedWork* work) {
  const simnet::Internet::FleetStats fleet = net.Fleet();
  work->materializations += fleet.materializations;
  work->evictions += fleet.evictions;
  work->resident_bytes = fleet.resident_bytes;
}

// A seeded stream of indices in [0, bound).
class IndexStream {
 public:
  explicit IndexStream(std::uint64_t seed) : state_(seed) {}
  std::size_t Next(std::size_t bound) {
    state_ = SplitMix64(state_);
    return static_cast<std::size_t>(state_ % bound);
  }

 private:
  std::uint64_t state_;
};

// The checked outputs of the last pass.
struct Verdict {
  std::string digest;  // the pass's deterministic outputs
  std::string error;   // "" when every invariant holds
};

struct QueryOutcome {
  std::vector<double> latencies_ms;
  std::string digest;
  std::string error;
};

using Header = std::vector<std::pair<std::string, std::string>>;

class Workload {
 public:
  Workload(const Seeds& seeds, std::string workdir)
      : seeds_(seeds), workdir_(std::move(workdir)) {}
  virtual ~Workload() = default;

  // Population, days, threads and fleet budget, for the header.
  virtual Header Describe() const = 0;
  // Untimed, before every Setup: frees the last set-up's world and removes
  // its files, so set-up time is construction alone and does not depend on
  // what the last pass left behind.
  virtual void Release() = 0;
  // Builds fresh inputs; timed as set-up. False + `error` on failure.
  virtual bool Setup(std::string* error) = 0;
  // True when every pass needs a fresh Setup (a world's virtual time only
  // moves forward); false when passes repeat over one set-up.
  virtual bool FreshSetupPerPass() const { return true; }
  // One timed pass; returns the operations it performed and keeps its
  // outputs for Verify.
  virtual std::uint64_t Pass() = 0;
  // Untimed: digests and invariants of the last pass's outputs.
  virtual Verdict Verify() = 0;
  // Untimed, after a traced pass: what it did, for the per-layer metrics.
  virtual void CollectTraced(TracedWork* work) = 0;
  // One round of closed-loop, single-thread point queries. Untimed as a
  // pass; each query is timed. Every round of a run asks the same queries
  // of an identical world, so every round must answer alike.
  virtual QueryOutcome Queries() = 0;
  // A query round follows the first pass and then every this many passes,
  // so rounds are spread over the whole run.
  virtual std::size_t PassesPerQueryRound() const { return 1; }
  // Which world the last Setup built. A workload may build a different
  // world (a seed derived from the run's) at each set-up; passes and query
  // rounds must repeat exactly only on the same world, and the golden
  // digests are of world 0, the run's own seed.
  virtual std::size_t WorldIndex() const { return 0; }
  // Untimed run-level invariants; "" when they hold. `traced` runs the
  // checks too expensive for every run.
  virtual std::string RunChecks(bool traced, std::vector<std::string>* notes) {
    (void)traced;
    (void)notes;
    return "";
  }
  // Per-layer metrics only this workload has (traced run): from the traced
  // passes' spans, its queries and its own isolated probes.
  virtual void MeasureLayers(const obs::ProfSnapshot& passes,
                             LayerValues* out) {
    (void)passes;
    (void)out;
  }
  // The world the isolated layer probes use, and a virtual time after all
  // of the workload's own traffic on it.
  virtual simnet::Internet& World() = 0;
  virtual SimTime IdleTime() const = 0;
  virtual simnet::PopulationSpec Spec() const = 0;

 protected:
  Seeds seeds_;
  std::string workdir_;
};

// --- point queries on a scanned world ---------------------------------------

// One on-demand probe of a listed HTTPS domain per query, the way an
// operator re-checks a single site after the daily scan. Times increase,
// so every query sees the world's state moving forward.
QueryOutcome ProbeQueries(simnet::Internet& net, std::uint64_t seed, int day,
                          int max_attempts, std::size_t n) {
  QueryOutcome out;
  scanner::Prober prober(net, seed);
  scanner::RetryPolicy retry;
  retry.max_attempts = max_attempts;
  prober.SetRetryPolicy(retry);
  scanner::ProbeOptions options;
  options.ciphers = scanner::CipherSelection::kEcdheAndStatic;
  IndexStream pick(seed);
  std::vector<scanner::StoredObservation> observed;
  observed.reserve(n);
  const SimTime start = scanner::ScanDayStart(day);
  for (std::size_t i = 0; i < n; ++i) {
    simnet::DomainId id = 0;
    do {
      id = static_cast<simnet::DomainId>(pick.Next(net.DomainCount()));
    } while (!net.DomainHttps(id));
    const SimTime at = start + 2 * static_cast<SimTime>(i);
    const double t0 = ThreadCpuSeconds();
    scanner::ProbeResult result = prober.Probe(id, at, options);
    out.latencies_ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
    observed.push_back({day, std::move(result.observation)});
  }
  Fnv64 digest;
  digest.Add(scanner::SerializeObservations(observed));
  out.digest = digest.Hex();
  return out;
}

// --- campaign_scan ------------------------------------------------------------

class CampaignScan final : public Workload {
 public:
  static constexpr std::size_t kTopList = 16000;
  static constexpr int kDays = 2;
  static constexpr std::size_t kQueries = 8000;

  using Workload::Workload;

  Header Describe() const override {
    return {{"population", std::to_string(kTopList)},
            {"domains", std::to_string(domains_)},
            {"days", std::to_string(kDays)},
            {"threads", std::to_string(WorkerThreads())},
            {"fleet_budget_mb", std::to_string(kUnboundedBudgetMb)},
            {"faults", "default x1.0, 3 attempts, requeue"},
            {"sinks", "text store, warehouse, capture tape"}};
  }

  simnet::PopulationSpec Spec() const override {
    return WorldSpec(kTopList, kUnboundedBudgetMb);
  }

  void Release() override {
    net_.reset();
    std::error_code ec;
    fs::remove_all(Dir(), ec);
  }

  bool Setup(std::string*) override {
    net_ = std::make_unique<simnet::Internet>(Spec(), seeds_.world);
    net_->SetFaultSpec(simnet::DefaultFaultSpec(1.0));
    domains_ = net_->DomainCount();
    return true;
  }

  std::uint64_t Pass() override {
    registry_ = std::make_unique<obs::MetricsRegistry>();
    campaign::CampaignSpec spec = StudySpec(Dir(), kDays, seeds_);
    spec.metrics = registry_.get();
    std::uint64_t ops = 0;
    spec.progress = [&ops](const scanner::ScanProgress& p) {
      ops += p.day_probes;
    };
    result_ = campaign::CampaignResult{};
    error_.clear();
    obs::ProfScope span(kSpanCampaign);
    ok_ = campaign::RunCampaign(*net_, spec, &result_, &error_);
    return ops;
  }

  Verdict Verify() override {
    if (!ok_) return {"", "RunCampaign failed: " + error_};
    Fnv64 metrics;
    metrics.Add(result_.metrics_json);
    return {"metrics=" + metrics.Hex() + ",warehouse=" +
                FileCrc(WarehouseDir() + "/MANIFEST") + ",capture=" +
                FileCrc(Dir() + "/" + campaign::kCaptureTapeDirName +
                        "/MANIFEST"),
            ""};
  }

  void CollectTraced(TracedWork* work) override {
    AddRegistry(*registry_, work);
    AddFleet(*net_, work);
    std::string error;
    const auto wh = warehouse::Warehouse::Open(WarehouseDir(), &error);
    const std::uint64_t rows = wh.has_value() ? wh->TotalRows() : 0;
    work->obs_rows += rows;
    work->sink_rows += rows;
    work->sink_bytes += TreeBytes(Dir());
  }

  QueryOutcome Queries() override {
    return ProbeQueries(*net_, seeds_.scan ^ kQuerySalt, kDays, kStudyAttempts,
                        kQueries);
  }

  // A cold fold of the campaign's warehouse must reproduce the aggregates
  // the campaign computed live.
  std::string RunChecks(bool, std::vector<std::string>* notes) override {
    std::string error;
    const auto wh = warehouse::Warehouse::Open(WarehouseDir(), &error);
    if (!wh.has_value()) return "warehouse unreadable: " + error;
    scanner::DailyScanResult folded;
    warehouse::FoldOptions options;
    options.use_checkpoints = false;
    if (!warehouse::FoldDailyScans(*wh, *net_, options, &folded, &error)) {
      return "cold fold failed: " + error;
    }
    const bool same = DigestScanResult(folded, false) ==
                      DigestScanResult(result_.scan, false);
    notes->push_back(std::string("fold_equals_campaign=") + (same ? "yes" : "NO"));
    return same ? "" : "cold fold != campaign aggregates";
  }

  simnet::Internet& World() override { return *net_; }
  SimTime IdleTime() const override { return scanner::ScanDayStart(kDays + 1); }

 private:
  std::string Dir() const { return workdir_ + "/campaign"; }
  std::string WarehouseDir() const {
    return Dir() + "/" + campaign::kWarehouseDirName;
  }

  std::unique_ptr<simnet::Internet> net_;
  std::size_t domains_ = 0;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  campaign::CampaignResult result_;
  bool ok_ = false;
  std::string error_;
};

// --- fleet_churn ----------------------------------------------------------------

class FleetChurn final : public Workload {
 public:
  static constexpr std::size_t kTopList = 8000;
  static constexpr int kDays = 2;
  // About half the working set an unbounded fleet keeps resident after
  // this scan (the traced run prints it as unbounded_resident_mb), so
  // terminators are derived, evicted and derived again.
  static constexpr std::size_t kBudgetMb = 3;
  // One worker: with two, a shard preempted by the host while it held the
  // fleet lock, or late at the merge barrier, stalled the other, and
  // ops_per_s moved by half between sets of runs while CPU per probe held.
  static constexpr int kThreads = 1;
  static constexpr std::size_t kQueries = 3000;

  using Workload::Workload;

  Header Describe() const override {
    return {{"population", std::to_string(kTopList)},
            {"domains", std::to_string(domains_)},
            {"days", std::to_string(kDays)},
            {"threads", std::to_string(kThreads)},
            {"fleet_budget_mb", std::to_string(kBudgetMb)},
            {"faults", "none"},
            {"sinks", "none"}};
  }

  simnet::PopulationSpec Spec() const override {
    return WorldSpec(kTopList, kBudgetMb);
  }

  void Release() override { net_.reset(); }

  bool Setup(std::string*) override {
    net_ = std::make_unique<simnet::Internet>(Spec(), seeds_.world);
    domains_ = net_->DomainCount();
    return true;
  }

  std::uint64_t Pass() override {
    registry_ = std::make_unique<obs::MetricsRegistry>();
    std::uint64_t ops = 0;
    obs::ProfScope span(kSpanScan);
    result_ = Scan(*net_, registry_.get(), &ops);
    return ops;
  }

  // A pass that evicted nothing did not test what this workload is for.
  Verdict Verify() override {
    if (net_->Fleet().evictions == 0) {
      return {"", "the fleet budget evicted nothing; the working set fits"};
    }
    return {DigestScanResult(result_, true), ""};
  }

  void CollectTraced(TracedWork* work) override {
    AddRegistry(*registry_, work);
    AddFleet(*net_, work);
  }

  QueryOutcome Queries() override {
    return ProbeQueries(*net_, seeds_.scan ^ kQuerySalt, kDays, 1, kQueries);
  }

  // The budget may change only timing, never a byte: the same world under
  // an unbounded budget must scan to the same digest. That is a second full
  // scan, so only the traced run (once per set of runs) makes it.
  std::string RunChecks(bool traced, std::vector<std::string>* notes) override {
    if (!traced) return "";
    simnet::Internet unbounded(WorldSpec(kTopList, kUnboundedBudgetMb),
                               seeds_.world);
    std::uint64_t ops = 0;
    const bool same =
        DigestScanResult(Scan(unbounded, nullptr, &ops), true) ==
        DigestScanResult(result_, true);
    notes->push_back(
        "unbounded_resident_mb=" +
        FormatNumber(static_cast<double>(unbounded.Fleet().resident_bytes) /
                     (1024.0 * 1024.0)));
    notes->push_back(std::string("budget_equivalent=") + (same ? "yes" : "NO"));
    return same ? "" : "bounded-budget digest != unbounded-budget digest";
  }

  simnet::Internet& World() override { return *net_; }
  SimTime IdleTime() const override { return scanner::ScanDayStart(kDays + 1); }

 private:
  scanner::DailyScanResult Scan(simnet::Internet& net,
                                obs::MetricsRegistry* registry,
                                std::uint64_t* ops) const {
    scanner::ScanEngineOptions options;
    options.threads = kThreads;
    options.batch_size = kScanBatch;
    options.metrics = registry;
    options.progress = [ops](const scanner::ScanProgress& p) {
      *ops += p.day_probes;
    };
    return scanner::RunShardedDailyScans(net, kDays, seeds_.scan, options);
  }

  std::unique_ptr<simnet::Internet> net_;
  std::size_t domains_ = 0;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  scanner::DailyScanResult result_;
};

// --- harm_replay ----------------------------------------------------------------

class HarmReplay final : public Workload {
 public:
  static constexpr std::size_t kTopList = 16000;
  static constexpr int kDays = 3;
  static constexpr std::size_t kQueries = 3000;

  using Workload::Workload;

  Header Describe() const override {
    return {{"population", std::to_string(kTopList)},
            {"domains", std::to_string(domains_)},
            {"days", std::to_string(kDays)},
            {"threads", std::to_string(WorkerThreads()) +
                            " recording, 1 replay and queries"},
            {"fleet_budget_mb", std::to_string(kUnboundedBudgetMb)},
            {"faults", "none"},
            {"worlds", "one per set-up, seeds derived from the run's"},
            {"records", std::to_string(tape_ ? tape_->TotalRows() : 0)}};
  }

  simnet::PopulationSpec Spec() const override {
    return WorldSpec(kTopList, kUnboundedBudgetMb);
  }

  bool FreshSetupPerPass() const override { return false; }
  std::size_t PassesPerQueryRound() const override { return 4; }
  std::size_t WorldIndex() const override { return world_; }

  // Records the study through the code under test (capture tape and
  // warehouse), then builds the fresh world the replay reads its metadata
  // from. Each set-up records another world: how costly an explain query
  // is depends on the world's largest operators, so one world per run
  // would make the query percentiles a property of the seed.
  void Release() override {
    net_.reset();
    tape_.reset();
    warehouse_.reset();
    std::error_code ec;
    fs::remove_all(Dir(), ec);
  }

  bool Setup(std::string* error) override {
    world_ = setups_++;
    world_seeds_ = world_ == 0 ? seeds_ : DeriveSeeds(seeds_.world + world_);
    {
      simnet::Internet recorder(Spec(), world_seeds_.world);
      campaign::CampaignResult result;
      if (!campaign::RunCampaign(recorder,
                                 StudySpec(Dir(), kDays, world_seeds_),
                                 &result, error)) {
        return false;
      }
      campaign_digest_ = DigestScanResult(result.scan, /*with_loss=*/false);
    }
    net_ = std::make_unique<simnet::Internet>(Spec(), world_seeds_.world);
    domains_ = net_->DomainCount();
    tape_ = warehouse::CaptureTape::Open(
        Dir() + "/" + campaign::kCaptureTapeDirName, error);
    warehouse_ = warehouse::Warehouse::Open(
        Dir() + "/" + campaign::kWarehouseDirName, error);
    return tape_.has_value() && warehouse_.has_value();
  }

  // Releasing the engine at the end is part of the pass.
  std::uint64_t Pass() override {
    error_.clear();
    adversary::HarmEngine engine(*net_);
    {
      obs::ProfScope span(kSpanDecodeIngest);
      read_ok_ = tape_->ForEachCapture(
          0, kDays - 1,
          [&](int day, const attack::CaptureRecord& record) {
            engine.Ingest(day, record);
          },
          &error_);
    }
    {
      obs::ProfScope span(kSpanSeal);
      engine.Seal();
    }
    {
      obs::ProfScope span(kSpanSweep);
      curves_ = engine.Sweep();
    }
    {
      obs::ProfScope span(kSpanRender);
      jsonl_ = adversary::RenderHarmCurvesJsonl(curves_);
    }
    {
      obs::ProfScope span(kSpanFold);
      folded_ = scanner::DailyScanResult{};
      warehouse::FoldOptions options;
      options.use_checkpoints = false;
      fold_ok_ = warehouse::FoldDailyScans(*warehouse_, *net_, options,
                                           &folded_, &error_);
    }
    return engine.RowCount();
  }

  Verdict Verify() override {
    if (!read_ok_ || !fold_ok_) return {"", "archive unreadable: " + error_};
    Verdict verdict;
    // Every point partitions its connections: decryptable + survivors.
    for (const adversary::HarmCurve& curve : curves_) {
      for (const adversary::HarmPoint& point : curve.points) {
        std::uint64_t sum = point.decryptable;
        for (std::uint64_t s : point.survivors) sum += s;
        if (sum != point.connections) {
          verdict.error = "harm point does not partition its connections";
        }
      }
    }
    const std::string fold_digest = DigestScanResult(folded_, false);
    if (fold_digest != campaign_digest_) {
      verdict.error = "cold fold != recorded campaign aggregates";
    }
    Fnv64 curves_digest;
    curves_digest.Add(jsonl_);
    verdict.digest = "curves=" + curves_digest.Hex() + ",fold=" + fold_digest;
    return verdict;
  }

  void CollectTraced(TracedWork* work) override {
    work->sink_rows += tape_->TotalRows() + warehouse_->TotalRows();
    work->sink_bytes += TreeBytes(Dir() + "/" + campaign::kCaptureTapeDirName) +
                        TreeBytes(Dir() + "/" + campaign::kWarehouseDirName);
  }

  // `explain` queries on a fresh world built for the round (untimed): steal
  // the record's operator's STEKs and reused DH values at the start of its
  // capture day and replay the record against them. The sample is drawn in
  // archive order, so compromise times only move forward.
  QueryOutcome Queries() override {
    QueryOutcome out;
    simnet::Internet world(Spec(), world_seeds_.world);
    std::vector<std::pair<int, attack::CaptureRecord>> sample;
    {
      IndexStream pick(world_seeds_.scan ^ kQuerySalt);
      std::vector<std::uint64_t> wanted;
      for (std::size_t i = 0; i < kQueries; ++i) {
        wanted.push_back(pick.Next(static_cast<std::size_t>(tape_->TotalRows())));
      }
      std::sort(wanted.begin(), wanted.end());
      std::uint64_t index = 0;
      std::size_t next = 0;
      std::string error;
      tape_->ForEachCapture(
          0, kDays - 1,
          [&](int day, const attack::CaptureRecord& record) {
            while (next < wanted.size() && wanted[next] == index) {
              sample.emplace_back(day, record);
              ++next;
            }
            ++index;
          },
          &error);
      if (sample.size() != kQueries) {
        out.error = "query sample incomplete: " + error;
        return out;
      }
    }
    Fnv64 digest;
    for (const auto& [day, record] : sample) {
      const std::string& profile = world.DomainOperator(record.domain);
      const SimTime t = scanner::ScanDayStart(day);
      const double t0 = ThreadCpuSeconds();
      const adversary::CompromisedSecrets stek = adversary::TakeSnapshot(
          world, {adversary::CompromiseVector::kStek, profile, t});
      const adversary::CompromisedSecrets dh = adversary::TakeSnapshot(
          world, {adversary::CompromiseVector::kDh, profile, t});
      const double t1 = ThreadCpuSeconds();
      const adversary::ReplayOutcome by_stek =
          adversary::ReplaySnapshot(stek, record);
      const adversary::ReplayOutcome by_dh = adversary::ReplaySnapshot(dh, record);
      const double t2 = ThreadCpuSeconds();
      out.latencies_ms.push_back((t2 - t0) * 1e3);
      snapshot_s_ += t1 - t0;
      replay_s_ += t2 - t1;
      explain_calls_ += 2;  // one STEK and one DH call of each
      digest.AddU64(record.domain);
      digest.AddU64(static_cast<std::uint64_t>(record.time));
      for (const adversary::ReplayOutcome* o : {&by_stek, &by_dh}) {
        digest.Add(o->ok ? std::string_view("DECRYPTABLE")
                         : std::string_view(attack::ToString(o->failure)));
      }
    }
    out.digest = digest.Hex();
    return out;
  }

  // Seal, sweep and render come from the benchmark's spans, the explain
  // calls from the queries' own timing; tape decode (no-op visitor), ingest
  // fed from memory and a cold fold are isolated probes.
  void MeasureLayers(const obs::ProfSnapshot& passes,
                     LayerValues* out) override {
    LayerValues& v = *out;
    auto mean_ms = [&](std::string_view name) {
      const SpanTotal s = SpanOf(passes, name);
      return s.count > 0 ? static_cast<double>(s.total_ns) / 1e6 /
                               static_cast<double>(s.count)
                         : 0.0;
    };
    v["adversary.seal_ms"] = mean_ms("bench.adversary.seal");
    v["adversary.sweep_ms"] = mean_ms("bench.adversary.sweep");
    v["adversary.render_ms"] = mean_ms("bench.adversary.render");
    if (explain_calls_ > 0) {
      const double calls = static_cast<double>(explain_calls_);
      v["adversary.snapshot_us"] = snapshot_s_ * 1e6 / calls;
      v["attack.replay_us"] = replay_s_ * 1e6 / calls;
    }

    std::string error;
    double t0 = NowSeconds();
    std::uint64_t decoded = 0;
    tape_->ForEachCapture(
        0, kDays - 1, [&](int, const attack::CaptureRecord&) { ++decoded; },
        &error);
    v["tape.decode_us_per_record"] =
        decoded > 0 ? (NowSeconds() - t0) * 1e6 / static_cast<double>(decoded)
                    : 0;

    std::vector<std::pair<int, attack::CaptureRecord>> records;
    tape_->ForEachCapture(
        0, kDays - 1,
        [&](int day, const attack::CaptureRecord& record) {
          records.emplace_back(day, record);
        },
        &error);
    {
      adversary::HarmEngine engine(*net_);
      t0 = NowSeconds();
      for (const auto& [day, record] : records) engine.Ingest(day, record);
      v["adversary.ingest_us_per_record"] =
          records.empty() ? 0
                          : (NowSeconds() - t0) * 1e6 /
                                static_cast<double>(records.size());
    }

    scanner::DailyScanResult folded;
    warehouse::FoldOptions options;
    options.use_checkpoints = false;
    t0 = NowSeconds();
    warehouse::FoldDailyScans(*warehouse_, *net_, options, &folded, &error);
    const std::uint64_t rows = warehouse_->TotalRows();
    v["warehouse.fold_us_per_row"] =
        rows > 0 ? (NowSeconds() - t0) * 1e6 / static_cast<double>(rows) : 0;
  }

  simnet::Internet& World() override { return *net_; }
  SimTime IdleTime() const override { return scanner::ScanDayStart(kDays + 1); }

 private:
  std::string Dir() const { return workdir_ + "/harm"; }

  std::size_t setups_ = 0;
  std::size_t world_ = 0;
  Seeds world_seeds_;
  std::unique_ptr<simnet::Internet> net_;
  std::size_t domains_ = 0;
  std::optional<warehouse::CaptureTape> tape_;
  std::optional<warehouse::Warehouse> warehouse_;
  std::string campaign_digest_;
  // The last pass's outputs.
  bool read_ok_ = false;
  bool fold_ok_ = false;
  std::string error_;
  std::vector<adversary::HarmCurve> curves_;
  std::string jsonl_;
  scanner::DailyScanResult folded_;
  // Explain-call timing across every query round.
  double snapshot_s_ = 0;
  double replay_s_ = 0;
  std::uint64_t explain_calls_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Seeds& seeds,
                                       const std::string& workdir) {
  if (name == "campaign_scan") {
    return std::make_unique<CampaignScan>(seeds, workdir);
  }
  if (name == "fleet_churn") return std::make_unique<FleetChurn>(seeds, workdir);
  if (name == "harm_replay") return std::make_unique<HarmReplay>(seeds, workdir);
  return nullptr;
}

// --- golden digests -----------------------------------------------------------

struct Golden {
  const char* workload;
  std::uint64_t seed;
  const char* pass;
  const char* queries;
};

// Recorded from this benchmark's own runs. A mismatch means the library
// now computes something else for the same inputs.
const Golden kGoldens[] = {
    {"campaign_scan", kDefaultSeed,
     "metrics=6473c165c235885f,warehouse=bd1fa432,capture=3742a32b",
     "8160e187e062db82"},
    {"campaign_scan", kHeldOutSeed,
     "metrics=54cb93dc4ba1e676,warehouse=75b3f677,capture=d0b669a9",
     "c2909b2b7e6a3543"},
    {"fleet_churn", kDefaultSeed, "5f31334fe7e2c1c2", "50ae730f26182b2b"},
    {"fleet_churn", kHeldOutSeed, "950aed50845276c8", "33b29338b9988d80"},
    {"harm_replay", kDefaultSeed,
     "curves=2114b5fdf205c3fa,fold=bf7a4fda4309b825", "8ea836c82752e3dc"},
    {"harm_replay", kHeldOutSeed,
     "curves=2529ac086f39070b,fold=c71e14d65b230de1", "602502fbf5b313a0"},
};

const Golden* FindGolden(const std::string& workload, std::uint64_t seed) {
  for (const Golden& g : kGoldens) {
    if (workload == g.workload && seed == g.seed) return &g;
  }
  return nullptr;
}

// --- the runner ---------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

struct PassSample {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;
};

double MedianRate(const std::vector<PassSample>& passes) {
  std::vector<double> rates;
  for (const PassSample& p : passes) {
    if (p.wall_s > 0) rates.push_back(static_cast<double>(p.ops) / p.wall_s);
  }
  return Median(rates);
}

double MedianCpuUsPerOp(const std::vector<PassSample>& passes) {
  std::vector<double> costs;
  for (const PassSample& p : passes) {
    if (p.ops > 0) costs.push_back(p.cpu_s * 1e6 / static_cast<double>(p.ops));
  }
  return Median(costs);
}

class Runner {
 public:
  Runner(const RunOptions& options, const Seeds& seeds, Workload& workload)
      : options_(options), seeds_(seeds), workload_(workload) {}

  int Run() {
    PrintHeader();
    TracedWork work;
    if (!RunPasses(&work)) return 1;
    std::printf("#");
    for (const auto& [key, value] : workload_.Describe()) {
      std::printf(" %s=\"%s\"", key.c_str(), value.c_str());
    }
    std::printf("\n");
    const obs::ProfSnapshot pass_snap =
        options_.trace ? obs::ProfSnapshotNow() : obs::ProfSnapshot{};
    // Percentiles of every round's latencies pooled: rounds come from
    // several moments of the run, so a disturbed round weighs as one of many.
    std::vector<double> pooled;
    for (const std::vector<double>& round : rounds_ms_) {
      pooled.insert(pooled.end(), round.begin(), round.end());
    }
    const Percentile p50 = NearestRank(pooled, 0.5);
    const Percentile p99 = NearestRank(pooled, kQuantile);
    if (p99.beyond < kTailSamples) {
      Fail("too few queries beyond p99: " + std::to_string(p99.beyond));
    }

    std::vector<std::string> notes;
    const std::string run_error = workload_.RunChecks(options_.trace, &notes);
    if (!run_error.empty()) Fail(run_error);

    const Golden* golden = FindGolden(options_.workload, options_.seed);
    std::string golden_state = "none for this seed";
    if (golden != nullptr) {
      const bool match = pass_digests_[0] == golden->pass &&
                         query_digests_[0] == golden->queries;
      golden_state = match ? "match" : "MISMATCH";
      if (!match) Fail("outputs differ from the golden digests");
    }
    std::printf("digest=%s query_digest=%s golden=%s\n",
                pass_digests_[0].c_str(), query_digests_[0].c_str(),
                golden_state.c_str());
    for (const auto& [world, digest] : pass_digests_) {
      if (world == 0) continue;
      std::printf("world=%zu digest=%s query_digest=%s\n", world,
                  digest.c_str(), query_digests_[world].c_str());
    }
    for (const std::string& note : notes) std::printf("%s\n", note.c_str());
    std::printf("queries=%zu query_rounds=%zu p99_beyond=%zu passes=%zu "
                "traced_passes=%zu setups=%zu\n",
                pooled.size(), rounds_ms_.size(), p99.beyond, untraced_.size(),
                traced_.size(), setup_s_.size());
    std::printf("query_deciles_ms=");
    for (int d = 1; d <= 9; ++d) {
      std::printf("%s%s", d > 1 ? "," : "",
                  FormatNumber(NearestRank(pooled, d / 10.0).value)
                      .c_str());
    }
    // Per-round medians, per-pass rates and set-up times show drift within
    // the run.
    std::printf("\nquery_round_p50_ms=");
    for (std::size_t r = 0; r < rounds_ms_.size(); ++r) {
      std::printf("%s%s", r > 0 ? "," : "",
                  FormatNumber(NearestRank(rounds_ms_[r], 0.5).value).c_str());
    }
    std::printf("\npass_ops_per_s=");
    for (std::size_t i = 0; i < untraced_.size(); ++i) {
      std::printf("%s%.0f", i > 0 ? "," : "",
                  static_cast<double>(untraced_[i].ops) / untraced_[i].wall_s);
    }
    std::printf("\nsetups_s=");
    for (std::size_t i = 0; i < setup_s_.size(); ++i) {
      std::printf("%s%s", i > 0 ? "," : "", FormatNumber(setup_s_[i]).c_str());
    }
    std::printf("\ncheck=%s\n", correct_ ? "ok" : "FAIL");

    LayerValues values;
    if (!options_.trace) {
      values = {
          {"setup_s", Median(setup_s_)},
          {"ops_per_s", MedianRate(untraced_)},
          {"cpu_us_per_op", MedianCpuUsPerOp(untraced_)},
          {"peak_rss_mb", PeakRssMb()},
          {"query_p50_ms", p50.value},
          {"query_p99_ms", p99.value},
      };
    } else {
      DeriveTracedLayers(pass_snap, work, &values);
      values["trace.overhead_pct"] =
          OverheadPct(MedianRate(untraced_), MedianRate(traced_));
      workload_.MeasureLayers(pass_snap, &values);
      {
        simnet::Internet fresh(workload_.Spec(), seeds_.world);
        MeasureIsolatedLayers(workload_.World(), fresh, seeds_.scan,
                              workload_.IdleTime(), &values);
      }
      PrintSpanTable(pass_snap);
    }
    std::vector<Metric> metrics;
    std::string metric_error;
    if (!SelectMetrics(values, options_.metrics, options_.trace, &metrics,
                       &metric_error)) {
      std::fprintf(stderr, "BENCHMARK.json and the benchmark disagree: %s\n",
                   metric_error.c_str());
      return 2;
    }
    for (const Metric& m : metrics) {
      std::printf("metric %s=%s %s\n", m.name.c_str(),
                  FormatNumber(m.value).c_str(), m.unit.c_str());
    }
    std::printf("%s\n",
                RenderResultJson(correct_, attempted_, failed_, metrics).c_str());
    std::fflush(stdout);
    return 0;
  }

 private:
  // Set-ups and timed passes until `seconds` of pass wall are measured.
  // Workloads that need a fresh world set up before every pass; the others
  // set up kSetups times, spread evenly over the measured time. A traced
  // run alternates untraced and traced passes, so drift in host speed hits
  // both alike.
  bool RunPasses(TracedWork* work) {
    constexpr std::size_t kSetups = 3;
    const bool fresh = workload_.FreshSetupPerPass();
    const std::size_t min_passes = options_.trace ? 4 : 3;
    double wall = 0;
    std::size_t passes = 0;
    if (options_.trace) obs::ProfReset();
    while (wall < options_.seconds || passes < min_passes ||
           (!fresh && setup_s_.size() < kSetups)) {
      const std::size_t setups = setup_s_.size();
      if (fresh || setups == 0 ||
          (setups < kSetups && wall >= options_.seconds * setups / kSetups)) {
        std::string error;
        workload_.Release();
        const double s0 = NowSeconds();
        if (!workload_.Setup(&error)) {
          std::printf("check=FAIL setup: %s\n", error.c_str());
          return false;
        }
        setup_s_.push_back(NowSeconds() - s0);
      }
      const bool traced = options_.trace && passes % 2 == 1;
      if (traced) obs::SetProfilingEnabled(true);
      PassSample sample;
      const double c0 = ProcessCpuSeconds();
      const double w0 = NowSeconds();
      sample.ops = workload_.Pass();
      sample.wall_s = NowSeconds() - w0;
      sample.cpu_s = ProcessCpuSeconds() - c0;
      obs::SetProfilingEnabled(false);
      if (traced) {
        work->wall_ns += static_cast<std::uint64_t>(sample.wall_s * 1e9);
        work->ops += sample.ops;
        workload_.CollectTraced(work);
        traced_.push_back(sample);
      } else {
        untraced_.push_back(sample);
      }
      wall += sample.wall_s;
      ++passes;
      Account(sample.ops, workload_.Verify());
      if ((passes - 1) % workload_.PassesPerQueryRound() == 0) {
        RunQueryRound();
      }
    }
    return true;
  }

  // A round of point queries, closed loop on one thread, untraced; every
  // round on a world must answer exactly as the first did.
  void RunQueryRound() {
    QueryOutcome round = workload_.Queries();
    attempted_ += round.latencies_ms.size();
    query_ops_ += round.latencies_ms.size();
    if (!correct_) failed_ += round.latencies_ms.size();
    rounds_ms_.push_back(std::move(round.latencies_ms));
    if (!round.error.empty()) {
      Fail(round.error);
    } else {
      Repeats(query_digests_, round.digest, "query round");
    }
  }

  // Records the first digest of the current world, or fails when `digest`
  // differs from it.
  void Repeats(std::map<std::size_t, std::string>& firsts,
               const std::string& digest, const char* what) {
    const auto [it, first] = firsts.emplace(workload_.WorldIndex(), digest);
    if (!first && it->second != digest) {
      Fail(std::string(what) + " digest " + digest + " != first " + it->second +
           " on world " + std::to_string(it->first));
    }
  }

  void Fail(const std::string& why) {
    if (correct_) failed_ += pass_ops_ + query_ops_;
    correct_ = false;
    std::printf("check=FAIL %s\n", why.c_str());
  }

  // Every pass on a world must reproduce the first pass's outputs exactly.
  void Account(std::uint64_t ops, const Verdict& verdict) {
    attempted_ += ops;
    pass_ops_ += ops;
    if (!correct_) failed_ += ops;
    if (!verdict.error.empty()) {
      Fail(verdict.error);
    } else {
      Repeats(pass_digests_, verdict.digest, "pass");
    }
  }

  void PrintHeader() const {
    std::printf("# tlsharm benchmark workload=%s seed=%llu seconds=%s trace=%d\n",
                options_.workload.c_str(),
                static_cast<unsigned long long>(options_.seed),
                FormatNumber(options_.seconds).c_str(), options_.trace ? 1 : 0);
    std::printf("# nproc=%u cpu=\"%s\" build=%s compiler=\"g++ %s\" rev=%s\n",
                std::thread::hardware_concurrency(), CpuModel().c_str(),
                TLSHARM_BENCH_BUILD_TYPE, __VERSION__,
                options_.source_rev.empty() ? "unknown"
                                            : options_.source_rev.c_str());
    std::printf("# world_seed=%016llx scan_seed=%016llx\n",
                static_cast<unsigned long long>(seeds_.world),
                static_cast<unsigned long long>(seeds_.scan));
  }

  // The traced passes' span table, largest self time first: where the
  // thread-time went, the opaque scan.probe.* bucket included.
  static void PrintSpanTable(const obs::ProfSnapshot& snap) {
    std::vector<const obs::ProfSpanStats*> spans;
    for (const obs::ProfSpanStats& s : snap.spans) {
      if (s.count > 0) spans.push_back(&s);
    }
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->self_ns > b->self_ns;
    });
    std::printf("span name self_pct total_ms self_ms count (of %s ms "
                "thread-time)\n",
                FormatNumber(static_cast<double>(snap.root_total_ns) / 1e6).c_str());
    for (const obs::ProfSpanStats* s : spans) {
      std::printf("span %s %.2f %.3f %.3f %llu\n", s->name.c_str(),
                  SharePct(static_cast<double>(s->self_ns),
                           static_cast<double>(snap.root_total_ns)),
                  static_cast<double>(s->total_ns) / 1e6,
                  static_cast<double>(s->self_ns) / 1e6,
                  static_cast<unsigned long long>(s->count));
    }
  }

  const RunOptions& options_;
  const Seeds seeds_;
  Workload& workload_;
  std::vector<double> setup_s_;
  std::vector<PassSample> untraced_;
  std::vector<PassSample> traced_;
  std::map<std::size_t, std::string> pass_digests_;  // first, by world
  std::vector<std::vector<double>> rounds_ms_;  // query latencies by round
  std::map<std::size_t, std::string> query_digests_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t pass_ops_ = 0;
  std::uint64_t query_ops_ = 0;
  bool correct_ = true;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "campaign_scan", "fleet_churn", "harm_replay"};
  return kNames;
}

int RunBenchmark(const RunOptions& options) {
  const Seeds seeds = DeriveSeeds(options.seed);
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, seeds, options.workdir);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  return Runner(options, seeds, *workload).Run();
}

}  // namespace tlsharm::bench
