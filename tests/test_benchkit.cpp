// Benchmark harness unit tests: robust statistics (median/MAD/bootstrap),
// the unified suite schema round trip, and the noise-aware compare gate —
// baseline matching, threshold boundaries, and malformed-input errors.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "benchkit/compare.h"
#include "benchkit/stats.h"
#include "benchkit/suite.h"

namespace xgw::bench {
namespace {

// ---------------------------------------------------------------- stats --

TEST(BenchStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchStats, MedianDoesNotMutateCaller) {
  const std::vector<double> v{9.0, 1.0, 5.0};
  std::vector<double> copy = v;
  (void)median(copy);
  // Taken by value: the caller's vector is untouched by the selection.
  EXPECT_EQ(copy, v);
}

TEST(BenchStats, MadKnownDistribution) {
  // Deviations from 3: {2, 1, 0, 1, 97} -> median deviation 1. The outlier
  // moves a mean-based spread by ~20x but the MAD not at all.
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 100.0};
  EXPECT_DOUBLE_EQ(mad(v, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(mad({5.0, 5.0, 5.0}, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(mad({}, 0.0), 0.0);
}

TEST(BenchStats, BootstrapCiDeterministicAndOrdered) {
  std::vector<double> v;
  for (int i = 0; i < 25; ++i) v.push_back(1.0 + 0.01 * (i % 7));
  const ConfidenceInterval a = bootstrap_ci_median(v);
  const ConfidenceInterval b = bootstrap_ci_median(v);
  // Seeded resampling: bit-identical across calls, so baselines reproduce.
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  const double m = median(v);
  EXPECT_LE(a.lo, m);
  EXPECT_GE(a.hi, m);
}

TEST(BenchStats, BootstrapCiDegenerateCases) {
  const ConfidenceInterval single = bootstrap_ci_median({2.5});
  EXPECT_DOUBLE_EQ(single.lo, 2.5);
  EXPECT_DOUBLE_EQ(single.hi, 2.5);
  const ConfidenceInterval constant =
      bootstrap_ci_median({3.0, 3.0, 3.0, 3.0});
  EXPECT_DOUBLE_EQ(constant.lo, 3.0);
  EXPECT_DOUBLE_EQ(constant.hi, 3.0);
}

TEST(BenchStats, SummarizeFields) {
  const TimingStats s = summarize({0.5, 0.1, 0.3, 0.2, 0.4});
  EXPECT_EQ(s.samples.size(), 5u);
  EXPECT_DOUBLE_EQ(s.median_s, 0.3);
  EXPECT_DOUBLE_EQ(s.mad_s, 0.1);
  EXPECT_DOUBLE_EQ(s.min_s, 0.1);
  EXPECT_DOUBLE_EQ(s.max_s, 0.5);
  EXPECT_LE(s.ci_lo_s, s.median_s);
  EXPECT_GE(s.ci_hi_s, s.median_s);
}

// ---------------------------------------------- suite -> file -> loader --

class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  void write(const std::string& text) const {
    std::ofstream out(path_, std::ios::binary);
    out << text;
  }

 private:
  std::string path_;
};

TEST(BenchSuite, WriteLoadRoundTrip) {
  Suite suite("roundtrip");
  suite.series("kernel/n=64")
      .counter("flops", 1234567.0)
      .value("gflops", 3.25)
      .info("variant", "split")
      .time(summarize({0.11, 0.12, 0.10, 0.13, 0.12}));
  suite.series("kernel/n=128").counter("flops", 7.0);

  const TempFile f("test_benchkit_roundtrip.json");
  ASSERT_TRUE(suite.write(f.path()));

  BenchDoc doc;
  std::string err;
  ASSERT_TRUE(load_bench_doc(f.path(), doc, err)) << err;
  EXPECT_EQ(doc.bench, "roundtrip");
  ASSERT_EQ(doc.series.size(), 2u);

  const SeriesData* s = doc.find("kernel/n=64");
  ASSERT_NE(s, nullptr);
  const double* flops = s->find_counter("flops");
  ASSERT_NE(flops, nullptr);
  EXPECT_DOUBLE_EQ(*flops, 1234567.0);
  ASSERT_EQ(s->values.size(), 1u);
  EXPECT_EQ(s->values[0].first, "gflops");
  EXPECT_DOUBLE_EQ(s->values[0].second, 3.25);
  ASSERT_EQ(s->info.size(), 1u);
  EXPECT_EQ(s->info[0].second, "split");
  ASSERT_TRUE(s->has_time);
  EXPECT_EQ(s->time_samples, 5);
  EXPECT_DOUBLE_EQ(s->median_s, 0.12);
  EXPECT_LE(s->ci_lo_s, s->median_s);
  EXPECT_GE(s->ci_hi_s, s->median_s);

  // The fingerprint must carry the identity fields the report prints.
  auto has_key = [&](const char* k) {
    for (const auto& [key, v] : doc.machine)
      if (key == k) return !v.empty();
    return false;
  };
  EXPECT_TRUE(has_key("cpu_model"));
  EXPECT_TRUE(has_key("compiler"));
  EXPECT_TRUE(has_key("git_sha"));
}

TEST(BenchSuite, SeriesLookupByKeyMergesWrites) {
  Suite suite("merge");
  suite.series("a").counter("x", 1.0);
  suite.series("a").value("y", 2.0);
  const obs::json::Value v = suite.to_value();
  const obs::json::Value* series = v.find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->arr.size(), 1u);
}

// -------------------------------------------------------------- compare --

SeriesData make_series(const std::string& key, double flops) {
  SeriesData s;
  s.key = key;
  s.counters.emplace_back("flops", flops);
  return s;
}

void set_time(SeriesData& s, double med, double lo, double hi) {
  s.has_time = true;
  s.time_samples = 5;
  s.median_s = med;
  s.ci_lo_s = lo;
  s.ci_hi_s = hi;
}

BenchDoc make_doc(std::vector<SeriesData> series) {
  BenchDoc d;
  d.path = "<memory>";
  d.bench = "unit";
  d.series = std::move(series);
  return d;
}

TEST(BenchCompare, IdenticalDocumentsPass) {
  SeriesData s = make_series("k/a", 100.0);
  set_time(s, 1.0, 0.98, 1.02);
  const BenchDoc doc = make_doc({s});
  const BenchComparison r = compare(doc, doc, CompareOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.failures(), 0);
}

TEST(BenchCompare, DoubledFlopCountFailsNamingSeries) {
  const BenchDoc base = make_doc({make_series("gpp/diag", 100.0)});
  const BenchDoc cur = make_doc({make_series("gpp/diag", 200.0)});
  const BenchComparison r = compare(base, cur, CompareOptions{});
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].key, "gpp/diag");
  EXPECT_EQ(r.series[0].status, SeriesStatus::kCounterMismatch);
  EXPECT_TRUE(r.series[0].fails);
  ASSERT_FALSE(r.series[0].notes.empty());
  EXPECT_NE(r.series[0].notes[0].find("flops"), std::string::npos);
  EXPECT_NE(r.series[0].notes[0].find("2x"), std::string::npos);

  // And the markdown report names the failing series under a FAIL gate.
  const std::string md = markdown_report({r}, CompareOptions{});
  EXPECT_NE(md.find("**Gate: FAIL**"), std::string::npos);
  EXPECT_NE(md.find("gpp/diag"), std::string::npos);
}

TEST(BenchCompare, MissingCounterFails) {
  const BenchDoc base = make_doc({make_series("k", 100.0)});
  SeriesData cur = make_series("k", 100.0);
  cur.counters.clear();
  const BenchComparison r = compare(base, make_doc({cur}), CompareOptions{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.series[0].status, SeriesStatus::kCounterMismatch);
}

TEST(BenchCompare, CounterWithinTolerancePasses) {
  const BenchDoc base = make_doc({make_series("k", 100.0)});
  const BenchDoc cur = make_doc({make_series("k", 100.5)});
  CompareOptions opt;
  opt.counter_rel_tol = 0.01;
  EXPECT_TRUE(compare(base, cur, opt).ok());
  opt.counter_rel_tol = 0.0;
  EXPECT_FALSE(compare(base, cur, opt).ok());
}

TEST(BenchCompare, TimeGateIsStrictAtThreshold) {
  // threshold 0.5 with exactly-representable medians: rel == 0.5 exactly.
  CompareOptions opt;
  opt.time_rel_threshold = 0.5;

  SeriesData b = make_series("k", 1.0);
  set_time(b, 1.0, 0.99, 1.01);
  SeriesData c = make_series("k", 1.0);
  set_time(c, 1.5, 1.49, 1.51);  // CIs disjoint, rel at the boundary
  EXPECT_TRUE(compare(make_doc({b}), make_doc({c}), opt).ok());

  set_time(c, 2.0, 1.99, 2.01);  // strictly beyond threshold
  const BenchComparison r = compare(make_doc({b}), make_doc({c}), opt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.series[0].status, SeriesStatus::kTimeRegression);
}

TEST(BenchCompare, OverlappingCisSuppressTimeFailure) {
  SeriesData b = make_series("k", 1.0);
  set_time(b, 1.0, 0.90, 1.30);  // wide, noisy baseline
  SeriesData c = make_series("k", 1.0);
  set_time(c, 1.2, 1.10, 1.35);  // +20% median but CIs overlap
  const BenchComparison r =
      compare(make_doc({b}), make_doc({c}), CompareOptions{});
  EXPECT_TRUE(r.ok());
  ASSERT_FALSE(r.series[0].notes.empty());
  EXPECT_NE(r.series[0].notes[0].find("within noise"), std::string::npos);
}

TEST(BenchCompare, AdvisoryModeReportsButNeverFails) {
  SeriesData b = make_series("k", 1.0);
  set_time(b, 1.0, 0.99, 1.01);
  SeriesData c = make_series("k", 1.0);
  set_time(c, 2.0, 1.98, 2.02);
  CompareOptions opt;
  opt.time_advisory = true;
  const BenchComparison r = compare(make_doc({b}), make_doc({c}), opt);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.series[0].status, SeriesStatus::kTimeRegression);
  EXPECT_FALSE(r.series[0].fails);
}

TEST(BenchCompare, ImprovementReportedNotGated) {
  SeriesData b = make_series("k", 1.0);
  set_time(b, 2.0, 1.98, 2.02);
  SeriesData c = make_series("k", 1.0);
  set_time(c, 1.0, 0.99, 1.01);
  const BenchComparison r =
      compare(make_doc({b}), make_doc({c}), CompareOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.series[0].status, SeriesStatus::kTimeImproved);
}

TEST(BenchCompare, AddedRemovedRenamedSeries) {
  // Rename k/old -> k/new: one removed + one new entry, neither failing.
  const BenchDoc base = make_doc({make_series("k/old", 1.0),
                                  make_series("k/same", 2.0)});
  const BenchDoc cur = make_doc({make_series("k/new", 1.0),
                                 make_series("k/same", 2.0)});
  const BenchComparison r = compare(base, cur, CompareOptions{});
  EXPECT_TRUE(r.ok());

  const SeriesComparison* removed = nullptr;
  const SeriesComparison* added = nullptr;
  for (const SeriesComparison& s : r.series) {
    if (s.key == "k/old") removed = &s;
    if (s.key == "k/new") added = &s;
  }
  ASSERT_NE(removed, nullptr);
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(removed->status, SeriesStatus::kRemoved);
  EXPECT_FALSE(removed->fails);
  EXPECT_EQ(added->status, SeriesStatus::kNew);
  EXPECT_FALSE(added->fails);
  ASSERT_FALSE(added->notes.empty());
  EXPECT_NE(added->notes[0].find("no baseline"), std::string::npos);
}

// ----------------------------------------------- malformed-input errors --

TEST(BenchCompare, LoaderNamesFileOnParseError) {
  const TempFile f("test_benchkit_badjson.json");
  f.write("this is not json{");
  BenchDoc doc;
  std::string err;
  EXPECT_FALSE(load_bench_doc(f.path(), doc, err));
  EXPECT_NE(err.find(f.path()), std::string::npos);
}

TEST(BenchCompare, LoaderRejectsWrongSchema) {
  const TempFile f("test_benchkit_badschema.json");
  f.write("{\"schema\": \"something-else\", \"bench\": \"x\", \"series\": []}");
  BenchDoc doc;
  std::string err;
  EXPECT_FALSE(load_bench_doc(f.path(), doc, err));
  EXPECT_NE(err.find(f.path()), std::string::npos);
  EXPECT_NE(err.find("xgw-bench-result-v1"), std::string::npos);
}

TEST(BenchCompare, LoaderNamesFileAndSeriesOnBadCounter) {
  const TempFile f("test_benchkit_badcounter.json");
  f.write(
      "{\"schema\": \"xgw-bench-result-v1\", \"bench\": \"x\", \"series\": "
      "[{\"key\": \"zgemm/n=64\", \"counters\": {\"flops\": \"oops\"}}]}");
  BenchDoc doc;
  std::string err;
  EXPECT_FALSE(load_bench_doc(f.path(), doc, err));
  EXPECT_NE(err.find(f.path()), std::string::npos);
  EXPECT_NE(err.find("zgemm/n=64"), std::string::npos);
  EXPECT_NE(err.find("flops"), std::string::npos);
}

TEST(BenchCompare, LoaderRejectsDuplicateSeriesKeys) {
  const TempFile f("test_benchkit_dup.json");
  f.write(
      "{\"schema\": \"xgw-bench-result-v1\", \"bench\": \"x\", \"series\": "
      "[{\"key\": \"a\"}, {\"key\": \"a\"}]}");
  BenchDoc doc;
  std::string err;
  EXPECT_FALSE(load_bench_doc(f.path(), doc, err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
  EXPECT_NE(err.find("\"a\""), std::string::npos);
}

TEST(BenchCompare, LoaderNamesMissingTimeField) {
  const TempFile f("test_benchkit_badtime.json");
  f.write(
      "{\"schema\": \"xgw-bench-result-v1\", \"bench\": \"x\", \"series\": "
      "[{\"key\": \"a\", \"time\": {\"samples\": 5, \"median_s\": 0.1}}]}");
  BenchDoc doc;
  std::string err;
  EXPECT_FALSE(load_bench_doc(f.path(), doc, err));
  EXPECT_NE(err.find("mad_s"), std::string::npos);
  EXPECT_NE(err.find("\"a\""), std::string::npos);
}

}  // namespace
}  // namespace xgw::bench
