// Tests for the observability layer (src/obs): sharded counters under
// contention, histogram quantile accuracy, registry sources and their
// fold-on-unregister semantics, trace span trees, and the slow-query log.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_codec.h"

namespace just::obs {
namespace {

// --- Counter ---

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIters; ++i) counter.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(CounterTest, RegistryPointersAreStable) {
  Counter* a = Registry::Global().GetCounter("test_obs_stable_total");
  Counter* b = Registry::Global().GetCounter("test_obs_stable_total");
  EXPECT_EQ(a, b);
  a->Add(7);
  EXPECT_EQ(Registry::Global().CounterValue("test_obs_stable_total"), 7u);
}

// --- Histogram ---

TEST(HistogramTest, ExactStatsAndSingleValueQuantiles) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(7);
  auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 700u);
  EXPECT_EQ(snap.min, 7u);
  EXPECT_EQ(snap.max, 7u);
  // All mass sits in bucket [4, 8); interpolation stays inside it.
  EXPECT_GE(snap.p50, 4.0);
  EXPECT_LE(snap.p50, 8.0);
  EXPECT_GE(snap.p99, 4.0);
  EXPECT_LE(snap.p99, 8.0);
}

TEST(HistogramTest, QuantilesWithinBucketErrorBounds) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  // Power-of-two buckets bound relative error by 2x: the true p50 of the
  // uniform 1..1000 distribution is 500, inside bucket [256, 512).
  EXPECT_GE(snap.p50, 250.0);
  EXPECT_LE(snap.p50, 1000.0);
  // True p95 = 950 and p99 = 990 both land in bucket [512, 1024).
  EXPECT_GE(snap.p95, 500.0);
  EXPECT_LE(snap.p95, 1024.0);
  EXPECT_GE(snap.p99, 500.0);
  EXPECT_LE(snap.p99, 1024.0);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
}

TEST(HistogramTest, ConcurrentRecordsCountExactly) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kIters; ++i) {
        h.Record(static_cast<uint64_t>(i % 1000));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kIters);
}

// --- Registry sources ---

TEST(RegistryTest, CounterValueSumsOwnedCounterAndSources) {
  Registry registry;
  registry.GetCounter("x_total")->Add(5);
  uint64_t id1 = registry.RegisterSource(
      "x_total", Registry::SourceKind::kCumulative, [] { return 10u; });
  EXPECT_EQ(registry.CounterValue("x_total"), 15u);
  uint64_t id2 = registry.RegisterSource(
      "x_total", Registry::SourceKind::kCumulative, [] { return 7u; });
  EXPECT_EQ(registry.CounterValue("x_total"), 22u);
  // Unregistering a cumulative source folds its last value into a retained
  // base: the total never goes backwards.
  registry.Unregister(id1);
  EXPECT_EQ(registry.CounterValue("x_total"), 22u);
  registry.Unregister(id2);
  EXPECT_EQ(registry.CounterValue("x_total"), 22u);
  auto snap = registry.GetSnapshot();
  EXPECT_EQ(snap.counter("x_total"), 22u);
}

TEST(RegistryTest, LiveSourcesDropOutOnUnregister) {
  Registry registry;
  uint64_t id = registry.RegisterSource(
      "mem_bytes", Registry::SourceKind::kLive, [] { return 4096u; });
  EXPECT_EQ(registry.GetSnapshot().gauge("mem_bytes"), 4096);
  registry.Unregister(id);
  EXPECT_EQ(registry.GetSnapshot().gauge("mem_bytes"), 0);
}

TEST(RegistryTest, ScopedSourceFoldsOnDestruction) {
  const std::string name = "test_obs_fold_total";
  uint64_t before = Registry::Global().CounterValue(name);
  {
    ScopedSource source(name, Registry::SourceKind::kCumulative,
                        [] { return 42u; });
    EXPECT_EQ(Registry::Global().CounterValue(name), before + 42);
  }
  EXPECT_EQ(Registry::Global().CounterValue(name), before + 42);
}

TEST(RegistryTest, SnapshotAndExpositionContainMetrics) {
  auto& registry = Registry::Global();
  registry.GetCounter("test_obs_expo_total")->Add(3);
  registry.GetGauge("test_obs_expo_gauge")->Set(-4);
  registry.GetHistogram("test_obs_expo_us")->Record(100);

  auto snap = registry.GetSnapshot();
  EXPECT_GE(snap.counter("test_obs_expo_total"), 3u);
  EXPECT_EQ(snap.gauge("test_obs_expo_gauge"), -4);
  ASSERT_TRUE(snap.histograms.count("test_obs_expo_us"));
  EXPECT_GE(snap.histograms["test_obs_expo_us"].count, 1u);

  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE test_obs_expo_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_expo_gauge -4"), std::string::npos);
  EXPECT_NE(text.find("test_obs_expo_us_count"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);

  std::string json = registry.JsonDump();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test_obs_expo_total\""), std::string::npos);
}

TEST(RegistryTest, ConcurrentGetAndSnapshot) {
  Registry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 2000; ++i) {
        registry.GetCounter("c" + std::to_string(i % 8))->Increment();
        if (t == 0 && i % 100 == 0) registry.GetSnapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t total = 0;
  for (int i = 0; i < 8; ++i) {
    total += registry.CounterValue("c" + std::to_string(i));
  }
  EXPECT_EQ(total, 4u * 2000u);
}

// --- Labeled metrics & exposition edge cases ---

TEST(ExpositionTest, LabeledNameEscapesValues) {
  EXPECT_EQ(LabeledName("rpc_us", {{"type", "get"}}), "rpc_us{type=\"get\"}");
  EXPECT_EQ(LabeledName("m", {{"a", "1"}, {"b", "2"}}),
            "m{a=\"1\",b=\"2\"}");
  // Backslash, quote, and newline in label values per the exposition spec.
  EXPECT_EQ(LabeledName("m", {{"k", "a\\b"}}), "m{k=\"a\\\\b\"}");
  EXPECT_EQ(LabeledName("m", {{"k", "a\"b"}}), "m{k=\"a\\\"b\"}");
  EXPECT_EQ(LabeledName("m", {{"k", "a\nb"}}), "m{k=\"a\\nb\"}");
  EXPECT_EQ(LabeledName("m", {}), "m");
}

TEST(ExpositionTest, LabeledSeriesShareOneTypeFamily) {
  Registry registry;
  registry.GetCounter(LabeledName("test_rpc_total", {{"type", "get"}}))
      ->Add(3);
  registry.GetCounter(LabeledName("test_rpc_total", {{"type", "scan"}}))
      ->Add(5);
  registry.GetCounter("test_rpc_total")->Add(1);  // unlabeled sibling
  std::string text = registry.TextExposition();
  // Exactly one TYPE line for the family, covering all three series.
  size_t first = text.find("# TYPE test_rpc_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE test_rpc_total counter", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("test_rpc_total{type=\"get\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_rpc_total{type=\"scan\"} 5"), std::string::npos);
  EXPECT_NE(text.find("test_rpc_total 1"), std::string::npos);
}

TEST(ExpositionTest, LabeledHistogramMergesLabelsWithSuffixes) {
  Registry registry;
  Histogram* h =
      registry.GetHistogram(LabeledName("test_lat_us", {{"type", "put"}}));
  h->Record(3);
  h->Record(100);
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE test_lat_us histogram"), std::string::npos);
  // The le= bucket label merges with the series label inside one brace set.
  EXPECT_NE(text.find("test_lat_us_bucket{type=\"put\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_us_sum{type=\"put\"} 103"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_us_count{type=\"put\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_us{type=\"put\",quantile=\"0.99\"}"),
            std::string::npos);
}

TEST(ExpositionTest, EmptyHistogramExposesZeroSumAndCount) {
  Registry registry;
  registry.GetHistogram("test_empty_us");
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE test_empty_us histogram"), std::string::npos);
  EXPECT_NE(text.find("test_empty_us_sum 0"), std::string::npos);
  EXPECT_NE(text.find("test_empty_us_count 0"), std::string::npos);
  EXPECT_NE(text.find("test_empty_us_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
}

TEST(ExpositionTest, SumAndCountMatchRecordedValues) {
  Registry registry;
  Histogram* h = registry.GetHistogram("test_sum_us");
  uint64_t want_sum = 0;
  for (uint64_t v = 1; v <= 200; ++v) {
    h->Record(v);
    want_sum += v;
  }
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("test_sum_us_sum " + std::to_string(want_sum)),
            std::string::npos);
  EXPECT_NE(text.find("test_sum_us_count 200"), std::string::npos);
  // +Inf bucket must equal _count (cumulative buckets end at totality).
  EXPECT_NE(text.find("test_sum_us_bucket{le=\"+Inf\"} 200"),
            std::string::npos);
}

TEST(ExpositionTest, ConcurrentUpdatesDuringExposition) {
  // Snapshot/exposition while writers hammer the same metrics: must be
  // data-race free (the tsan job enforces this) and every exposition must
  // be well-formed enough to contain the family headers.
  Registry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    // Register in the main thread so every exposition below sees the
    // families; the workers race only on updates (and GetCounter lookups).
    registry.GetCounter(
        LabeledName("test_conc_total", {{"w", std::to_string(t)}}));
    registry.GetHistogram("test_conc_us");
    writers.emplace_back([&registry, &stop, t] {
      Counter* c = registry.GetCounter(
          LabeledName("test_conc_total", {{"w", std::to_string(t)}}));
      Histogram* h = registry.GetHistogram("test_conc_us");
      while (!stop.load(std::memory_order_relaxed)) {
        c->Increment();
        h->Record(17);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    std::string text = registry.TextExposition();
    EXPECT_NE(text.find("# TYPE test_conc_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE test_conc_us histogram"),
              std::string::npos);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

// --- Trace codec ---

TEST(TraceCodecTest, RoundTripsTreeWithCountersAndAttrs) {
  Trace trace("rpc.scan");
  {
    SpanScope scope(trace.root());
    trace.root()->AddAttr("queue_us", "12");
    TraceBytesRead(4096);
    TraceRowsScanned(50);
    TraceKeyRanges(2);
    TraceDecodeNs(1500000);
    {
      ScopedSpan child("sst_read");
      child.span()->AddAttr("level", "1");
      TraceCacheHit();
      TraceCacheMiss();
    }
  }
  trace.root()->End();

  std::string blob = EncodeSpanTree(*trace.root());
  Trace host("caller");
  Status st;
  TraceSpan* grafted = DecodeSpanTree(blob, host.root(), &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_NE(grafted, nullptr);
  EXPECT_EQ(grafted->name(), "rpc.scan");
  EXPECT_EQ(grafted->TotalBytesRead(), 4096u);
  EXPECT_EQ(grafted->TotalRowsScanned(), 50u);
  EXPECT_EQ(grafted->TotalKeyRanges(), 2u);
  EXPECT_EQ(grafted->TotalCacheHits(), 1u);
  EXPECT_EQ(grafted->counters().decode_ns.load(), 1500000u);
  ASSERT_EQ(grafted->children().size(), 1u);
  EXPECT_EQ(grafted->children()[0]->name(), "sst_read");
  // Attrs and wall time survive, so the rendered tree shows remote timing.
  std::string text = host.ToString();
  EXPECT_NE(text.find("rpc.scan"), std::string::npos);
  EXPECT_NE(text.find("queue_us=12"), std::string::npos);
  EXPECT_NE(text.find(" decode=1.500ms"), std::string::npos) << text;
  EXPECT_NE(text.find("sst_read level=1"), std::string::npos);
}

TEST(TraceCodecTest, MalformedBlobGraftsNothing) {
  Trace trace("rpc.get");
  trace.root()->End();
  std::string blob = EncodeSpanTree(*trace.root());
  // Every strict prefix must fail cleanly and leave the host untouched —
  // partial grafts would render half a remote tree without any marker.
  for (size_t len = 0; len < blob.size(); ++len) {
    Trace host("caller");
    Status st;
    TraceSpan* grafted =
        DecodeSpanTree(std::string_view(blob.data(), len), host.root(), &st);
    EXPECT_EQ(grafted, nullptr) << "len=" << len;
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_TRUE(host.root()->children().empty()) << "len=" << len;
  }
  // Trailing garbage after a valid tree is also rejected outright.
  Trace host("caller");
  Status st;
  EXPECT_EQ(DecodeSpanTree(blob + "x", host.root(), &st), nullptr);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(TraceCodecTest, DepthLimitRejectsPathologicalNesting) {
  Trace trace("deep");
  TraceSpan* cur = trace.root();
  for (uint32_t i = 0; i < kTraceCodecMaxDepth + 8; ++i) {
    cur = cur->StartChild("d" + std::to_string(i));
  }
  trace.root()->End();
  std::string blob = EncodeSpanTree(*trace.root());
  Trace host("caller");
  Status st;
  EXPECT_EQ(DecodeSpanTree(blob, host.root(), &st), nullptr);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(host.root()->children().empty());
}

TEST(TraceCodecTest, SpanCountLimitRejectsHugeTrees) {
  Trace trace("wide");
  for (uint32_t i = 0; i < kTraceCodecMaxSpans; ++i) {
    trace.root()->StartChild("c");
  }
  trace.root()->End();
  std::string blob = EncodeSpanTree(*trace.root());
  Trace host("caller");
  Status st;
  // root + kTraceCodecMaxSpans children exceeds the span budget.
  EXPECT_EQ(DecodeSpanTree(blob, host.root(), &st), nullptr);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// --- Trace spans ---

TEST(TraceTest, HelpersAreNoopsWithoutActiveTrace) {
  EXPECT_EQ(CurrentSpan(), nullptr);
  ScopedSpan scoped("orphan");
  EXPECT_EQ(scoped.span(), nullptr);
  TraceBytesRead(10);  // must not crash
  TraceCacheHit();
  EXPECT_EQ(CurrentSpan(), nullptr);
}

TEST(TraceTest, SpanTreeCountersAndRendering) {
  Trace trace("Query");
  {
    SpanScope root_scope(trace.root());
    ScopedSpan scan("Scan orders");
    ASSERT_NE(scan.span(), nullptr);
    scan.span()->AddAttr("access", "st_range");
    TraceBytesRead(100);
    TraceCacheHit();
    TraceCacheMiss();
    TraceKeyRanges(4);
    TraceRowsScanned(20);
    TraceRowsMatched(12);
  }
  trace.root()->End();

  auto children = trace.root()->children();
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->name(), "Scan orders");
  EXPECT_EQ(trace.root()->TotalBytesRead(), 100u);
  EXPECT_EQ(trace.root()->TotalKeyRanges(), 4u);
  EXPECT_EQ(trace.root()->TotalCacheHits(), 1u);
  EXPECT_EQ(trace.root()->TotalRowsScanned(), 20u);

  std::string text = trace.ToString();
  EXPECT_NE(text.find("Query"), std::string::npos);
  EXPECT_NE(text.find("Scan orders access=st_range"), std::string::npos);
  EXPECT_NE(text.find("bytes_read=100"), std::string::npos);
  EXPECT_NE(text.find("ranges=4"), std::string::npos);
  EXPECT_NE(text.find("rows_scanned=20"), std::string::npos);
  EXPECT_NE(text.find("rows_matched=12"), std::string::npos);
  EXPECT_NE(text.find("cache_hit_rate=0.50"), std::string::npos);
  EXPECT_NE(text.find("time="), std::string::npos);

  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"Query\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes_read\":100"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

TEST(TraceTest, EndIsIdempotent) {
  Trace trace("q");
  trace.root()->End();
  uint64_t first = trace.root()->wall_ns();
  trace.root()->End();
  EXPECT_EQ(trace.root()->wall_ns(), first);
}

TEST(TraceTest, WorkerThreadsAttributeToHandedOffSpan) {
  Trace trace("Query");
  // The ParallelScan handoff pattern: capture the span before dispatch,
  // SpanScope inside each worker.
  TraceSpan* parent = trace.root();
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([parent] {
      SpanScope scope(parent);
      for (int i = 0; i < kIters; ++i) TraceRowsScanned(1);
    });
  }
  for (auto& t : workers) t.join();
  trace.root()->End();
  EXPECT_EQ(trace.root()->TotalRowsScanned(),
            static_cast<uint64_t>(kThreads) * kIters);
}

// --- Slow-query log ---

TEST(SlowQueryLogTest, ThresholdGatesRecording) {
  SlowQueryLog log(/*threshold_us=*/100, /*capacity=*/16,
                   /*log_to_stderr=*/false);
  log.MaybeRecord({"u", "fast", /*wall_us=*/99, 0, 0, 0});
  EXPECT_EQ(log.size(), 0u);
  log.MaybeRecord({"u", "slow", /*wall_us=*/100, 5, 50, 2});
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.Entries()[0].sql, "slow");
  EXPECT_EQ(log.Entries()[0].rows, 5u);
}

TEST(SlowQueryLogTest, NegativeThresholdDisables) {
  SlowQueryLog log(/*threshold_us=*/-1, /*capacity=*/16,
                   /*log_to_stderr=*/false);
  log.MaybeRecord({"u", "q", /*wall_us=*/1000000, 0, 0, 0});
  EXPECT_EQ(log.size(), 0u);
}

TEST(SlowQueryLogTest, ZeroCapturesAllAndBoundsCapacity) {
  uint64_t before =
      Registry::Global().CounterValue("just_sql_slow_queries_total");
  SlowQueryLog log(/*threshold_us=*/0, /*capacity=*/3,
                   /*log_to_stderr=*/false);
  for (int i = 0; i < 5; ++i) {
    log.MaybeRecord({"u", "q" + std::to_string(i),
                     /*wall_us=*/static_cast<uint64_t>(i), 0, 0, 0});
  }
  ASSERT_EQ(log.size(), 3u);
  auto entries = log.Entries();
  EXPECT_EQ(entries.front().sql, "q2");  // oldest surviving
  EXPECT_EQ(entries.back().sql, "q4");   // newest last
  EXPECT_EQ(
      Registry::Global().CounterValue("just_sql_slow_queries_total") - before,
      5u);
}

}  // namespace
}  // namespace just::obs
