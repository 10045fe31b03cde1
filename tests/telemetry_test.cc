// The obs/ telemetry substrate: exact counting under concurrency, histogram
// quantiles on known distributions, span nesting + ring overflow, Chrome
// trace / metrics JSON export parsed back through the util/json.h reader,
// and the reader itself (round-trip with the writer, malformed input).

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "util/check.h"
#include "util/json.h"

namespace alphaevolve::obs {
namespace {

/// Every test starts from a clean, fully-enabled slate and leaves telemetry
/// off, so suites sharing the process (and the process-global flags) cannot
/// leak state into each other.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TelemetryConfig config;
    config.enabled = true;
    config.tracing = true;
    Configure(config);
    MetricsRegistry::Default().Reset();
    TraceRecorder::Default().Clear();
  }
  void TearDown() override {
    Configure(TelemetryConfig{});  // default off
    MetricsRegistry::Default().Reset();
    TraceRecorder::Default().Clear();
  }
};

TEST_F(TelemetryTest, ConcurrentCounterIncrementsSumExactly) {
  Counter& counter = MetricsRegistry::Default().GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kPerThread);

  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
  counter.Add(41);
  counter.Add(1);
  EXPECT_EQ(counter.Value(), 42);
}

TEST_F(TelemetryTest, DisabledCounterIsInert) {
  Counter& counter = MetricsRegistry::Default().GetCounter("test.disabled");
  Configure(TelemetryConfig{});  // off
  counter.Add(1000);
  EXPECT_EQ(counter.Value(), 0);
}

TEST_F(TelemetryTest, GaugeTracksValueAndHighWater) {
  Gauge& gauge = MetricsRegistry::Default().GetGauge("test.gauge");
  gauge.Set(3);
  gauge.Add(4);
  gauge.Add(-5);
  EXPECT_EQ(gauge.Value(), 2);
  EXPECT_EQ(gauge.Max(), 7);
  gauge.Set(1);
  EXPECT_EQ(gauge.Max(), 7);  // high water survives lower sets
}

TEST_F(TelemetryTest, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(-5), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);  // [2, 4)
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  // Bucket b >= 1 covers [2^(b-1), 2^b).
  EXPECT_DOUBLE_EQ(Histogram::BucketLower(10), 512.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpper(10), 1024.0);
}

TEST_F(TelemetryTest, HistogramQuantilesOnUniformDistribution) {
  Histogram& h = MetricsRegistry::Default().GetHistogram("test.uniform");
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  const Histogram::Stats stats = h.GetStats();
  EXPECT_EQ(stats.count, 1000);
  EXPECT_EQ(stats.sum, 500500);  // sums are exact, not bucketed
  EXPECT_DOUBLE_EQ(stats.mean, 500.5);
  // Quantiles interpolate within a power-of-two bucket: accurate to within
  // one octave, and on this smooth distribution much better.
  EXPECT_NEAR(stats.p50, 500.0, 64.0);
  EXPECT_NEAR(stats.p95, 950.0, 128.0);
  EXPECT_NEAR(stats.p99, 990.0, 128.0);
  EXPECT_DOUBLE_EQ(stats.max_bound, 1024.0);  // top hit bucket is [512,1024)
  EXPECT_LE(h.Quantile(0.0), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.5), h.Quantile(1.0));
}

TEST_F(TelemetryTest, HistogramQuantilesOnPointMass) {
  Histogram& h = MetricsRegistry::Default().GetHistogram("test.point");
  for (int i = 0; i < 100; ++i) h.Record(100);  // all in bucket [64, 128)
  EXPECT_GE(h.Quantile(0.5), 64.0);
  EXPECT_LE(h.Quantile(0.5), 128.0);
  EXPECT_GE(h.Quantile(0.99), 64.0);
  EXPECT_LE(h.Quantile(0.99), 128.0);
  EXPECT_EQ(h.Count(), 100);
  EXPECT_EQ(h.Sum(), 10000);
}

TEST_F(TelemetryTest, HistogramConcurrentRecordsCountExactly) {
  Histogram& h = MetricsRegistry::Default().GetHistogram("test.hconcurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(t + 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), int64_t{kThreads} * kPerThread);
  // sum = kPerThread * (1 + 2 + ... + kThreads)
  EXPECT_EQ(h.Sum(), int64_t{kPerThread} * kThreads * (kThreads + 1) / 2);
}

TEST_F(TelemetryTest, SpansNestAndRecordDepth) {
  {
    AE_SPAN("test.outer");
    {
      AE_SPAN("test.inner");
    }
  }
  const auto events = TraceRecorder::Default().Collect();
  ASSERT_EQ(events.size(), 2u);
  // Rings record completion order: inner closes first.
  EXPECT_STREQ(events[0].event.name, "test.inner");
  EXPECT_EQ(events[0].event.depth, 1);
  EXPECT_STREQ(events[1].event.name, "test.outer");
  EXPECT_EQ(events[1].event.depth, 0);
  // The outer span encloses the inner one in time.
  EXPECT_LE(events[1].event.start_ns, events[0].event.start_ns);
  EXPECT_GE(events[1].event.start_ns + events[1].event.dur_ns,
            events[0].event.start_ns + events[0].event.dur_ns);
  // Spans also feed their latency histograms when metrics are on.
  EXPECT_EQ(
      MetricsRegistry::Default().GetHistogram("span.test.outer").Count(), 1);
}

TEST_F(TelemetryTest, RingOverflowKeepsNewestAndCountsDrops) {
  TraceRecorder& recorder = TraceRecorder::Default();
  recorder.set_ring_capacity(8);
  // A fresh thread gets a fresh ring with the new capacity (the calling
  // thread's ring, if any, keeps its old one).
  std::thread recordor([] {
    for (int i = 0; i < 20; ++i) {
      AE_SPAN("test.ring");
    }
  });
  recordor.join();
  recorder.set_ring_capacity(1 << 14);  // restore for later tests

  int ring_events = 0;
  for (const auto& ce : recorder.Collect()) {
    if (std::string(ce.event.name) == "test.ring") ++ring_events;
  }
  EXPECT_EQ(ring_events, 8);
  EXPECT_GE(recorder.DroppedCount(), 12);
}

TEST_F(TelemetryTest, ChromeTraceExportIsValidAndLoadable) {
  {
    AE_SPAN("test.export_outer");
    AE_SPAN("test.export_inner");
  }
  const std::string json = ToChromeTraceJson(TraceRecorder::Default());
  const JsonValue doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.is_object());
  const auto& events = doc.At("traceEvents").AsArray();
  ASSERT_EQ(events.size(), 2u);
  bool saw_outer = false, saw_inner = false;
  for (const JsonValue& e : events) {
    EXPECT_EQ(e.At("ph").AsString(), "X");
    EXPECT_GE(e.At("ts").AsDouble(), 0.0);
    EXPECT_GE(e.At("dur").AsDouble(), 0.0);
    EXPECT_EQ(e.At("pid").AsInt(), 0);
    EXPECT_TRUE(e.Contains("tid"));
    const std::string& name = e.At("name").AsString();
    saw_outer |= name == "test.export_outer";
    saw_inner |= name == "test.export_inner";
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST_F(TelemetryTest, MetricsRegistryJsonHasQuantileKeys) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("test.json_counter").Add(7);
  reg.GetGauge("test.json_gauge").Set(3);
  Histogram& h = reg.GetHistogram("test.json_hist");
  for (int i = 1; i <= 100; ++i) h.Record(i);

  const JsonValue doc = JsonValue::Parse(reg.ToJson());
  EXPECT_EQ(doc.At("counters").At("test.json_counter").AsInt(), 7);
  EXPECT_EQ(doc.At("gauges").At("test.json_gauge").At("value").AsInt(), 3);
  EXPECT_EQ(doc.At("gauges").At("test.json_gauge").At("max").AsInt(), 3);
  const JsonValue& hist = doc.At("histograms").At("test.json_hist");
  EXPECT_EQ(hist.At("count").AsInt(), 100);
  EXPECT_EQ(hist.At("sum").AsInt(), 5050);
  for (const char* key : {"mean", "p50", "p95", "p99", "max_bound"}) {
    EXPECT_TRUE(hist.Contains(key)) << key;
    EXPECT_GT(hist.At(key).AsDouble(), 0.0) << key;
  }
}

TEST_F(TelemetryTest, SpanSummaryTableListsSpans) {
  {
    AE_SPAN("test.summary_span");
  }
  std::ostringstream os;
  PrintSpanSummary(TraceRecorder::Default(), os);
  EXPECT_NE(os.str().find("test.summary_span"), std::string::npos);
  EXPECT_NE(os.str().find("count"), std::string::npos);
}

TEST_F(TelemetryTest, ProgressReporterEmitsFinalSnapshot) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("evolution.candidates").Add(120);
  reg.GetCounter("evolution.evaluated").Add(90);
  reg.GetCounter("evolution.cache_hits").Add(30);

  const std::string path =
      ::testing::TempDir() + "/telemetry_progress_test.jsonl";
  std::ostringstream lines;
  {
    ProgressReporter::Options options;
    options.interval_seconds = 0.0;  // no background thread: final tick only
    options.stream = &lines;
    options.json_path = path;
    ProgressReporter reporter(reg, options);
    reporter.Stop();
  }
  EXPECT_NE(lines.str().find("cands=120"), std::string::npos);

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue record = JsonValue::Parse(line);
  EXPECT_EQ(record.At("candidates").AsInt(), 120);
  EXPECT_EQ(record.At("evaluated").AsInt(), 90);
  EXPECT_DOUBLE_EQ(record.At("cache_hit_rate").AsDouble(), 0.25);
  EXPECT_TRUE(record.Contains("stage_p99_us"));
}

// ------------------------------------------------------- util/json.h reader

TEST(JsonReaderTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("int").Value(static_cast<int64_t>(-42));
  w.Key("pi").Value(3.5);
  w.Key("text").Value("line\n\"quoted\"\tand \\ control\x01");
  w.Key("yes").Value(true);
  w.Key("no").Value(false);
  w.Key("nested").BeginObject().Key("arr").BeginArray();
  w.Value(1).Value(2.25).Value("three");
  w.EndArray().EndObject();
  w.Key("empty_arr").BeginArray().EndArray();
  w.Key("empty_obj").BeginObject().EndObject();
  w.EndObject();

  const JsonValue doc = JsonValue::Parse(w.TakeString());
  EXPECT_EQ(doc.At("int").AsInt(), -42);
  EXPECT_DOUBLE_EQ(doc.At("pi").AsDouble(), 3.5);
  EXPECT_EQ(doc.At("text").AsString(),
            "line\n\"quoted\"\tand \\ control\x01");
  EXPECT_TRUE(doc.At("yes").AsBool());
  EXPECT_FALSE(doc.At("no").AsBool());
  const auto& arr = doc.At("nested").At("arr").AsArray();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(arr[1].AsDouble(), 2.25);
  EXPECT_EQ(arr[2].AsString(), "three");
  EXPECT_TRUE(doc.At("empty_arr").AsArray().empty());
  EXPECT_TRUE(doc.At("empty_obj").AsObject().empty());
  EXPECT_FALSE(doc.Contains("missing"));
}

TEST(JsonReaderTest, ParsesWhitespaceNullAndExponents) {
  const JsonValue doc =
      JsonValue::Parse("  { \"a\" : null , \"b\" : [ 1e3 , -2.5E-1 ] }  ");
  EXPECT_TRUE(doc.At("a").is_null());
  EXPECT_DOUBLE_EQ(doc.At("b").AsArray()[0].AsDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(doc.At("b").AsArray()[1].AsDouble(), -0.25);
}

TEST(JsonReaderTest, MalformedInputThrows) {
  EXPECT_THROW(JsonValue::Parse(""), CheckError);
  EXPECT_THROW(JsonValue::Parse("{"), CheckError);
  EXPECT_THROW(JsonValue::Parse("{\"a\":1,}"), CheckError);
  EXPECT_THROW(JsonValue::Parse("[1 2]"), CheckError);
  EXPECT_THROW(JsonValue::Parse("tru"), CheckError);
  EXPECT_THROW(JsonValue::Parse("\"unterminated"), CheckError);
  EXPECT_THROW(JsonValue::Parse("{} garbage"), CheckError);
  EXPECT_THROW(JsonValue::Parse("1.2.3"), CheckError);
  EXPECT_THROW(JsonValue::Parse("{\"a\":1}").At("b"), CheckError);
  EXPECT_THROW(JsonValue::Parse("[1]").AsObject(), CheckError);
}

}  // namespace
}  // namespace alphaevolve::obs
