// Tests of the benchmark's own helpers: the percentile rule, the digest
// functions and the reconciliation arithmetic. Built and run by
// `python3 benchmark/run.py --test`.
#include "helpers.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "layers.h"

namespace tlsharm::bench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NearestRankOnARamp) {
  const Percentile p99 = NearestRank(Ramp(1000), 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.count, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = NearestRank(Ramp(1000), 0.5);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(PercentileRule, IgnoresInputOrder) {
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  EXPECT_EQ(NearestRank(shuffled, 0.5).value, 3);
  EXPECT_EQ(NearestRank(shuffled, 1.0).value, 5);
  EXPECT_EQ(NearestRank(shuffled, 0.0).value, 1);
}

TEST(PercentileRule, TenBeyondP99NeedsAThousandSamples) {
  EXPECT_EQ(NearestRank(Ramp(1000), 0.99).beyond, 10u);
  EXPECT_EQ(NearestRank(Ramp(999), 0.99).beyond, 9u);
  EXPECT_EQ(NearestRank({}, 0.99).count, 0u);
}

TEST(PercentileRule, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Digest, FnvMatchesPublishedVectors) {
  Fnv64 empty;
  EXPECT_EQ(empty.Hex(), "cbf29ce484222325");
  Fnv64 a;
  a.Add(std::string_view("a"));
  EXPECT_EQ(a.Hex(), "af63dc4c8601ec8c");
  Fnv64 foobar;
  foobar.Add(std::string_view("foobar"));
  EXPECT_EQ(foobar.Hex(), "85944171f73967e8");
}

TEST(Digest, U64IsLittleEndianBytes) {
  Fnv64 by_value;
  by_value.AddU64(0x0102030405060708ull);
  Fnv64 by_bytes;
  const Bytes le = {8, 7, 6, 5, 4, 3, 2, 1};
  by_bytes.Add(le);
  EXPECT_EQ(by_value.Hex(), by_bytes.Hex());
}

scanner::DailyScanResult SampleResult() {
  scanner::DailyScanResult r;
  r.stek_spans.Observe(3, 77, 0);
  r.stek_spans.Observe(3, 77, 1);
  r.ecdhe_spans.Observe(5, 9, 1);
  r.core_domains = {3, 5, 8};
  r.core_ever_ticket = 1;
  r.core_ever_ecdhe = 1;
  r.loss.resize(2);
  r.loss[0].scheduled = 10;
  r.loss[1].scheduled = 12;
  r.loss[1].lost = 1;
  r.loss[1].lost_by_class[2] = 1;
  return r;
}

TEST(Digest, ScanResultIsStableAndSensitive) {
  const scanner::DailyScanResult base = SampleResult();
  EXPECT_EQ(DigestScanResult(base, true), DigestScanResult(SampleResult(), true));

  scanner::DailyScanResult span = SampleResult();
  span.dhe_spans.Observe(8, 1, 0);
  EXPECT_NE(DigestScanResult(span, true), DigestScanResult(base, true));

  scanner::DailyScanResult core = SampleResult();
  core.core_domains.back() = 9;
  EXPECT_NE(DigestScanResult(core, false), DigestScanResult(base, false));
}

TEST(Digest, LossLedgerCountsOnlyWithLoss) {
  const scanner::DailyScanResult base = SampleResult();
  scanner::DailyScanResult loss = SampleResult();
  loss.loss[1].lost_by_class[2] = 0;
  loss.loss[1].lost_by_class[3] = 1;
  EXPECT_NE(DigestScanResult(loss, true), DigestScanResult(base, true));
  // A warehouse fold cannot rebuild the loss ledger; without it the
  // digests agree.
  loss.loss.clear();
  EXPECT_EQ(DigestScanResult(loss, false), DigestScanResult(base, false));
}

TEST(Reconciliation, UnattributedShareOfWall) {
  EXPECT_DOUBLE_EQ(UnattributedPct(1000, 900), 10.0);
  EXPECT_DOUBLE_EQ(UnattributedPct(1000, 1000), 0.0);
  // Covered time can exceed the wall only through clock granularity.
  EXPECT_DOUBLE_EQ(UnattributedPct(1000, 1200), 0.0);
  EXPECT_DOUBLE_EQ(UnattributedPct(0, 5), 0.0);
}

TEST(Reconciliation, OverheadAndShares) {
  EXPECT_DOUBLE_EQ(OverheadPct(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(OverheadPct(100, 110), -10.0);
  EXPECT_DOUBLE_EQ(OverheadPct(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(SharePct(1, 4), 25.0);
  EXPECT_DOUBLE_EQ(SharePct(1, 0), 0.0);
}

TEST(Reconciliation, InProgramSpansExplainTheWall) {
  // A 1000 ns traced pass: two benchmark spans of 300 ns and 600 ns, with
  // in-program spans covering 250 ns of the first and 350 ns of the second.
  // Unexplained: the spans' self time (50 + 250) plus the 100 ns outside
  // them, 40% of the wall.
  obs::ProfSnapshot snap;
  obs::ProfSpanStats a;
  a.name = "bench.campaign.run";
  a.count = 1;
  a.total_ns = 300;
  a.self_ns = 50;
  obs::ProfSpanStats b = a;
  b.name = "bench.warehouse.fold";
  b.total_ns = 600;
  b.self_ns = 250;
  obs::ProfSpanStats inner = a;
  inner.name = "scan.day";
  inner.total_ns = 250;
  inner.self_ns = 250;
  snap.spans = {a, b, inner};
  TracedWork work;
  work.wall_ns = 1000;
  LayerValues values;
  DeriveTracedLayers(snap, work, &values);
  EXPECT_DOUBLE_EQ(values.at("trace.unattributed_pct"), 40.0);
  EXPECT_EQ(SpanOf(snap, "bench.").total_ns, 900u);
  EXPECT_EQ(SpanOf(snap, "bench.warehouse.fold").count, 1u);

  // A benchmark span with no in-program span inside explains nothing.
  b.self_ns = b.total_ns;
  a.self_ns = a.total_ns;
  snap.spans = {a, b};
  DeriveTracedLayers(snap, work, &values);
  EXPECT_DOUBLE_EQ(values.at("trace.unattributed_pct"), 100.0);
}

TEST(Reconciliation, SelfSharesAreOfThreadTime) {
  obs::ProfSnapshot snap;
  snap.root_total_ns = 2000;
  obs::ProfSpanStats probe;
  probe.name = "scan.probe.main";
  probe.count = 4;
  probe.self_ns = 1000;
  obs::ProfSpanStats crypto = probe;
  crypto.name = "crypto.sign";
  crypto.self_ns = 500;
  snap.spans = {crypto, probe};
  TracedWork work;
  work.ops = 4;
  LayerValues values;
  DeriveTracedLayers(snap, work, &values);
  EXPECT_DOUBLE_EQ(values.at("prober.self_pct"), 50.0);
  EXPECT_DOUBLE_EQ(values.at("crypto.self_pct"), 25.0);
  EXPECT_DOUBLE_EQ(values.at("crypto.sign_per_op"), 1.0);
}

TEST(Seeds, DerivedSeedsAreDistinctAndStable) {
  const Seeds a = DeriveSeeds(kDefaultSeed);
  const Seeds b = DeriveSeeds(kDefaultSeed);
  EXPECT_EQ(a.world, b.world);
  EXPECT_EQ(a.scan, b.scan);
  EXPECT_NE(a.world, a.scan);
  EXPECT_NE(DeriveSeeds(kHeldOutSeed).world, a.world);
}

TEST(MetricList, ParsesNamesAndUnits) {
  std::vector<MetricSpec> list;
  ASSERT_TRUE(ParseMetricList("setup_s:s,ops_per_s:1/s,crypto.self_pct:%",
                              &list));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].name, "ops_per_s");
  EXPECT_EQ(list[1].unit, "1/s");
  EXPECT_EQ(list[2].unit, "%");
  EXPECT_FALSE(ParseMetricList("", &list));
  EXPECT_FALSE(ParseMetricList("setup_s", &list));
  EXPECT_FALSE(ParseMetricList("setup_s:s,:ms", &list));
  EXPECT_FALSE(ParseMetricList("setup_s:", &list));
}

TEST(MetricList, SelectsInListOrderAndCatchesDrift) {
  const std::vector<MetricSpec> wanted = {{"b", "ms"}, {"a", "s"}};
  std::vector<Metric> out;
  std::string error;
  ASSERT_TRUE(SelectMetrics({{"a", 1.5}, {"b", 2}}, wanted, false, &out,
                            &error));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "b");
  EXPECT_EQ(out[0].unit, "ms");
  EXPECT_EQ(out[1].value, 1.5);
  // A listed metric without a value: 0 for a bypassed layer, else an error.
  EXPECT_FALSE(SelectMetrics({{"a", 1}}, wanted, false, &out, &error));
  ASSERT_TRUE(SelectMetrics({{"a", 1}}, wanted, true, &out, &error));
  EXPECT_EQ(out[0].value, 0);
  // A value the list does not name is always an error.
  EXPECT_FALSE(SelectMetrics({{"a", 1}, {"c", 3}}, wanted, true, &out, &error));
  EXPECT_NE(error.find("c"), std::string::npos);
}

TEST(ResultLine, RendersExactKeysAndAllDigits) {
  const std::string line =
      RenderResultJson(true, 10, 0, {{"latency_ms", 1.2034, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}}}");
  EXPECT_EQ(FormatNumber(0.1 + 0.2), "0.30000000000000004");
}

}  // namespace
}  // namespace tlsharm::bench
