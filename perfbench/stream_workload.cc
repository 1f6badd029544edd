// stream_mixed: an Order-schema table preloaded, then a fixed total of rows
// streamed through InsertStream by one closed-loop ingest client while one
// closed-loop query client reads the most recent data. Standing geofence
// alerts and a sliding-window count evaluate every committed batch.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "justbench.h"
#include "sql/parser.h"
#include "workload/generators.h"

namespace justbench {

namespace core = just::core;
namespace exec = just::exec;
namespace geo = just::geo;
namespace workload = just::workload;
using just::kMillisPerDay;
using just::Result;
using just::Status;

namespace {

constexpr int kPreloadRows = 60000;
constexpr int kStreamRows = 80000;  ///< fixed, so readers scan the same data
constexpr int kStreamBatch = 256;
constexpr int64_t kStreamStepMs = 2000;   ///< event time between rows
constexpr int64_t kRecentMs = 3600 * 1000;  ///< "most recent hour"
constexpr int kFences = 4;
constexpr double kFenceKm = 2.0;
constexpr int64_t kWindowMs = 3600 * 1000;
/// Small memtables, so the stream flushes and compacts.
constexpr size_t kMemtableBytes = 256 << 10;

/// Reader mix per cycle (OpType values): the recent-hour st_range and the
/// all-history range often enough for a p99, one recent-hour sql_time.
constexpr int kReaderCycle[] = {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 3,
                                1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
constexpr size_t kReplayOps[kNumOpTypes] = {8, 16, 0, 4};

struct ReaderOp {
  Op op;
  bool ok = false;
  double at_s = 0;  ///< start, in seconds of streaming over all epochs
  double ms = 0;
  size_t acked_before = 0;  ///< records committed before the query began
  size_t issued_after = 0;  ///< records whose write began before it ended
  Answer answer;
  std::string error;
};

}  // namespace

int RunStreamWorkload(const Args& args, const std::string& data_dir,
                      Tracer* tracer, RunResult* result) {
  // Inputs: preloaded history, then a stream whose event times increase
  // row by row from the end of that history.
  const just::meta::TableMeta meta = OrderTableMeta();
  const workload::OrderOptions pre_opts;  // area and dates of MixedOrders
  const TimestampMs stream_t0 =
      just::ParseTimestamp(pre_opts.start_date).value() +
      static_cast<int64_t>(pre_opts.num_days) * kMillisPerDay;

  std::vector<exec::Row> preload;
  std::vector<OracleRecord> records;
  uint64_t raw_bytes = 0;
  for (const workload::OrderRecord& o :
       MixedOrders(args.seed, kPreloadRows)) {
    preload.push_back(OrderRow(o));
    records.push_back({o.fid, geo::Mbr::Of(o.point.lng, o.point.lat,
                                           o.point.lng, o.point.lat),
                       o.time});
    raw_bytes += kOrderRawBytes;
  }
  std::vector<std::vector<exec::Row>> batches;
  std::vector<geo::Point> stream_points;
  {
    auto stream = MixedOrders(args.seed * 7919 + 1, kStreamRows);
    for (size_t i = 0; i < stream.size(); ++i) {
      workload::OrderRecord& o = stream[i];
      o.fid = "s" + std::to_string(i);
      o.time = stream_t0 + static_cast<int64_t>(i) * kStreamStepMs;
      if (i % kStreamBatch == 0) batches.emplace_back();
      batches.back().push_back(OrderRow(o));
      records.push_back({o.fid, geo::Mbr::Of(o.point.lng, o.point.lat,
                                             o.point.lng, o.point.lat),
                         o.time});
      stream_points.push_back(o.point);
      raw_bytes += kOrderRawBytes;
    }
  }
  Oracle oracle(records);

  // Geofences centred on streamed points, so each one sees traffic.
  std::vector<geo::Mbr> fences;
  std::vector<just::sql::Statement> fence_stmts;
  for (int f = 0; f < kFences; ++f) {
    fences.push_back(geo::SquareWindowKm(
        stream_points[static_cast<size_t>(f) * stream_points.size() / kFences],
        kFenceKm));
    auto stmt = just::sql::ParseStatement("SELECT * FROM orders WHERE geom "
                                          "WITHIN " + MbrSql(fences.back()));
    if (!stmt.ok()) {
      std::fprintf(stderr, "fence: %s\n", stmt.status().ToString().c_str());
      return 1;
    }
    fence_stmts.push_back(std::move(stmt).value());
  }

  just::meta::TenantQuotaConfig quota;  // high enough never to shed
  quota.write_rows_per_sec = 1000000000;
  quota.write_burst_rows = 1000000000;
  quota.scan_bytes_per_sec = uint64_t{1} << 50;
  quota.scan_burst_bytes = uint64_t{1} << 50;
  // As many distinct boxes as the query workloads: with 256, the reader's
  // p90 hung on which few boxes covered a hotspot.
  auto centers = workload::SampleQueryCenters(
      pre_opts.area, pre_opts.start_date, pre_opts.num_days, 1024,
      args.seed * 1000003 + 17);

  // Epochs: each preloads a fresh engine (timed as set-up), registers the
  // standing queries, then streams the fixed total while the reader runs.
  // Epochs repeat until --seconds of streaming have been measured, so every
  // read is taken beside writes and the data never outgrows one epoch.
  std::vector<double> setup_s;
  std::vector<ReaderOp> reads;
  std::vector<double> ingest_ms, notify_ms;
  std::vector<uint64_t> notified(kFences, 0);
  std::vector<uint64_t> epoch_alerts;  // outlives every engine's probes
  std::atomic<int64_t> armed_ns{0};
  uint64_t ingest_failed = 0;
  std::string ingest_error;
  double timed_s = 0;
  int epochs = 0;
  uint64_t reader_n = 0;
  std::map<std::string, int64_t> write_delta;
  std::map<std::string, int64_t> write_end;
  std::unique_ptr<core::JustEngine> engine;
  std::unique_ptr<just::sql::JustQL> ql;
  Target target;
  double setup_total = 0;
  while (epochs < kSetupRepeats || setup_total < kSetupSeconds ||
         timed_s < args.seconds) {
    std::string dir = data_dir + "/epoch" + std::to_string(epochs);
    ql.reset();
    engine.reset();
    int64_t setup_start = NowNs();
    core::EngineOptions options;
    options.data_dir = dir;
    options.num_servers = kServers;
    options.num_shards = kShards;
    options.store.memtable_bytes = kMemtableBytes;
    options.store.block_cache_bytes = kHotCacheBytes;
    auto opened = core::JustEngine::Open(options);
    Status st = opened.status();
    if (st.ok()) engine = std::move(opened).value();
    if (st.ok()) st = engine->CreateTable(meta);
    for (size_t i = 0; st.ok() && i < preload.size(); i += 2048) {
      std::vector<exec::Row> chunk(
          preload.begin() + static_cast<long>(i),
          preload.begin() +
              static_cast<long>(std::min(preload.size(), i + 2048)));
      st = engine->InsertBatch(kUser, meta.name, chunk);
    }
    if (st.ok()) st = engine->Finalize();
    if (!st.ok()) {
      std::fprintf(stderr, "preload failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MsSince(setup_start) / 1000);
    setup_total += setup_s.back();

    st = engine->SetTenantQuota(kUser, quota);
    auto described = engine->DescribeTable(kUser, meta.name);
    if (!st.ok() || !described.ok()) {
      std::fprintf(stderr, "quota/describe failed\n");
      return 1;
    }
    const std::string cache_tag = std::to_string(described->table_id) + ":" +
                                  std::to_string(described->generation);
    const int fid_col = described->ColumnIndex("fid");
    const int time_col = described->ColumnIndex("time");
    epoch_alerts.assign(kFences, 0);
    for (int f = 0; st.ok() && f < kFences; ++f) {
      // The alert probe: the ingest thread arms the clock just before each
      // InsertStream, and the hub calls on_notify synchronously inside it.
      just::stream::ContinuousQuerySpec spec;
      spec.name = "fence" + std::to_string(f);
      spec.user = kUser;
      spec.table = meta.name;
      spec.predicate_sql =
          fence_stmts[static_cast<size_t>(f)].select->where->ToString();
      spec.on_notify = [&, f](const just::stream::Notification&) {
        notify_ms.push_back(MsSince(armed_ns.load(std::memory_order_relaxed)));
        ++epoch_alerts[static_cast<size_t>(f)];
      };
      st = engine->stream_hub()->Register(
          std::move(spec), described->MakeSchema(),
          fence_stmts[static_cast<size_t>(f)].select->where.get(), cache_tag,
          fid_col, time_col);
    }
    if (st.ok()) {
      just::stream::ContinuousQuerySpec window;
      window.name = "recent_count";
      window.user = kUser;
      window.table = meta.name;
      window.window_ms = kWindowMs;
      st = engine->stream_hub()->Register(std::move(window),
                                          described->MakeSchema(), nullptr,
                                          cache_tag, fid_col, time_col);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "register: %s\n", st.ToString().c_str());
      return 1;
    }
    ql = std::make_unique<just::sql::JustQL>(engine.get());
    target = Target{engine.get(), ql.get(), "orders", "fid", "geom", "time"};

    // Timed: the ingest client sends every batch; the reader runs beside it.
    std::atomic<size_t> acked{kPreloadRows};   // records visible to readers
    std::atomic<size_t> issued{kPreloadRows};  // records whose write began
    std::atomic<bool> ingest_done{false};
    const bool trace_ingest = args.trace && epochs == 0;
    auto before = RegistryValues();
    const int64_t start = NowNs();
    std::thread ingest([&] {
      size_t root = trace_ingest ? tracer->BeginRoot("ingest") : 0;
      for (const std::vector<exec::Row>& batch : batches) {
        issued.fetch_add(batch.size());
        int64_t t0 = NowNs();
        armed_ns.store(t0, std::memory_order_relaxed);
        Status s;
        if (trace_ingest) {
          tracer->Call(root, "engine.InsertStream", [&] {
            s = engine->InsertStream(kUser, meta.name, batch);
          });
        } else {
          s = engine->InsertStream(kUser, meta.name, batch);
        }
        double ms = MsSince(t0);
        if (!s.ok()) {
          ++ingest_failed;
          if (ingest_error.empty()) ingest_error = s.ToString();
          ingest_ms.push_back(std::numeric_limits<double>::infinity());
          continue;
        }
        ingest_ms.push_back(ms);
        acked.fetch_add(batch.size());
        // Consume the alerts as a subscriber would, so none is dropped.
        for (int f = 0; f < kFences; ++f) {
          auto taken = engine->stream_hub()->TakeNotifications(
              kUser, "fence" + std::to_string(f),
              just::stream::StreamHub::kMaxPendingNotifications);
          (void)taken;
        }
      }
      if (trace_ingest) tracer->EndRoot(root);
      ingest_done.store(true);
    });
    std::thread reader([&] {
      while (!ingest_done.load()) {
        ReaderOp r;
        uint64_t n = reader_n++;
        r.op.type = static_cast<OpType>(
            kReaderCycle[n % (sizeof(kReaderCycle) / sizeof(kReaderCycle[0]))]);
        r.op.param = n;
        r.op.box = geo::SquareWindowKm(
            centers.centers[n % centers.centers.size()], kWindowKm);
        r.acked_before = acked.load();
        // The newest committed event time bounds the window, so the rows a
        // time-bounded query may see are exactly the committed ones.
        r.op.t_max = stream_t0 +
                     static_cast<int64_t>(r.acked_before - kPreloadRows) *
                         kStreamStepMs -
                     kStreamStepMs;
        r.op.t_min = r.op.t_max - kRecentMs + 1000;
        core::QueryStats stats;
        int64_t t0 = NowNs();
        r.at_s = timed_s + static_cast<double>(t0 - start) / 1e9;
        // A range read is not time-bounded: its fids are checked against
        // what was committed before it began and sent before it ended.
        Result<Answer> got =
            RunOp(target, r.op, &stats, r.op.type == OpType::kRange);
        r.ms = MsSince(t0);
        r.issued_after = issued.load();
        r.ok = got.ok();
        if (got.ok()) {
          r.answer = std::move(got).value();
        } else {
          r.error = got.status().ToString();
        }
        reads.push_back(std::move(r));
      }
    });
    ingest.join();
    reader.join();
    timed_s += MsSince(start) / 1000;
    write_end = RegistryValues();
    for (const auto& [name, d] : Delta(before, write_end)) {
      write_delta[name] += d;
    }
    for (int f = 0; f < kFences; ++f) {
      notified[static_cast<size_t>(f)] += epoch_alerts[static_cast<size_t>(f)];
    }
    ++epochs;
  }
  // Checks, after the timed region.
  LatencyLog latencies;
  for (const ReaderOp& r : reads) {
    ++result->attempted;
    std::string name = OpName(r.op.type);
    std::string err = r.error;
    if (r.ok && r.op.type == OpType::kRange) {
      err = oracle.CheckBetween(r.op, r.answer, r.acked_before,
                                r.issued_after);
    } else if (r.ok) {
      Answer want = oracle.Expect(r.op, r.acked_before);
      if (want.rows != r.answer.rows || want.fid_hash != r.answer.fid_hash) {
        err = "got " + std::to_string(r.answer.rows) + " rows, want " +
              std::to_string(want.rows);
      }
    }
    if (!err.empty()) {
      result->Fail(name + " read #" + std::to_string(r.op.param) + ": " + err);
      latencies.Add(r.op.type, r.at_s,
                    std::numeric_limits<double>::infinity());
      continue;
    }
    latencies.Add(r.op.type, r.at_s, r.ms);
  }
  result->attempted += batches.size() * static_cast<size_t>(epochs);
  for (uint64_t i = 0; i < ingest_failed; ++i) {
    result->Fail("InsertStream: " + ingest_error);
  }
  // Every streamed row inside a fence raises exactly one alert per epoch.
  uint64_t expected_alerts = 0;
  for (int f = 0; f < kFences; ++f) {
    uint64_t want = 0;
    for (const geo::Point& p : stream_points) {
      want += fences[static_cast<size_t>(f)].Contains(p) ? 1 : 0;
    }
    want *= static_cast<uint64_t>(epochs);
    uint64_t got = notified[static_cast<size_t>(f)];
    expected_alerts += want;
    result->attempted += want;
    if (got != want) {
      uint64_t missing = want > got ? want - got : 1;
      for (uint64_t i = 0; i < missing; ++i) {
        result->Fail("fence" + std::to_string(f) + ": " +
                     std::to_string(got) + " alerts, want " +
                     std::to_string(want));
      }
    }
    result->counts["stream.fence" + std::to_string(f) + ".alerts_per_epoch"] =
        got / static_cast<uint64_t>(epochs);
  }
  uint64_t dropped = static_cast<uint64_t>(
      SumPrefix(write_delta, "just_cq_dropped_total"));
  uint64_t write_shed = static_cast<uint64_t>(
      SumPrefix(write_delta, "just_tenant_write_shed_total"));
  uint64_t scan_shed = static_cast<uint64_t>(
      SumPrefix(write_delta, "just_tenant_scan_shed_total"));
  for (uint64_t i = 0; i < dropped + write_shed + scan_shed; ++i) {
    result->Fail("dropped notification or quota shed");
  }
  // The last epoch's sliding-window count, against the hub's own bucket
  // arithmetic: rows whose event-time bucket ends after
  // (watermark - window).
  {
    ++result->attempted;
    auto snap = engine->stream_hub()->WindowSnapshot(kUser, "recent_count");
    TimestampMs watermark = stream_t0 + (kStreamRows - 1) * kStreamStepMs;
    int64_t width = kWindowMs / 10;
    uint64_t want = 0;
    for (int i = 0; i < kStreamRows; ++i) {
      TimestampMs t = stream_t0 + static_cast<int64_t>(i) * kStreamStepMs;
      if (t - t % width + width > watermark - kWindowMs) ++want;
    }
    uint64_t got = snap.ok() && snap->size() == 1 ? (*snap)[0].count : 0;
    result->counts["stream.window_count"] = got;
    if (got != want) {
      result->Fail("window count " + std::to_string(got) + ", want " +
                   std::to_string(want));
    }
  }
  result->counts["stream.rows_per_epoch"] = static_cast<uint64_t>(kStreamRows);
  result->counts["stream.expected_alerts_per_epoch"] =
      expected_alerts / static_cast<uint64_t>(epochs);

  double ingest_rows_per_s =
      static_cast<double>(kStreamRows) * epochs / timed_s;
  double ingest_p99 = Percentile(ingest_ms, 0.99);
  double notify_p99 = Percentile(notify_ms, 0.99);
  std::fprintf(stderr,
               "stream: %d epochs of %d rows in %zu batches, %.2f s "
               "streaming; reader %zu queries\n",
               epochs, kStreamRows, batches.size(), timed_s, reads.size());
  latencies.Report(timed_s, result);
  std::fprintf(stderr,
               "  ingest    %.0f rows/s, batch p50=%.3f ms p99=%.3f ms; "
               "notify p50=%.3f ms p99=%.3f ms (n=%zu)\n",
               ingest_rows_per_s, Percentile(ingest_ms, 0.5), ingest_p99,
               Percentile(notify_ms, 0.5), notify_p99, notify_ms.size());
  result->end_to_end["setup_s"] = Metric{Median(setup_s), "s"};

  if (args.trace) {
    // Reader queries replayed top-down on the data as the last epoch's
    // stream left it (memtables and young SSTables).
    ReplayTotals totals;
    for (int t = 0; t < kNumOpTypes; ++t) {
      for (size_t p = 0; p < kReplayOps[t]; ++p) {
        Op op;
        op.type = static_cast<OpType>(t);
        op.param = p;
        op.box = geo::SquareWindowKm(centers.centers[p], kWindowKm);
        op.t_max = stream_t0 + (kStreamRows - 1) * kStreamStepMs;
        op.t_min = op.t_max - kRecentMs + 1000;
        ReplayOp(target, op, oracle, tracer, &totals, result);
      }
    }
    FinishReplay(totals, result);
    std::map<std::string, int64_t> summed = write_delta;
    summed["just_kv_sstables"] = write_end["just_kv_sstables"];
    ReportWriteSide({}, summed, result);
    MeasureCodec(meta, batches.front(), result);
    int64_t eval_count = write_delta["just_cq_eval_us.count"];
    auto set = [&](const char* name, double v) {
      result->per_layer.at(name).value = v;
    };
    set("stream.eval_us_per_batch",
        eval_count > 0
            ? static_cast<double>(write_delta["just_cq_eval_us.sum"]) /
                  static_cast<double>(eval_count)
            : 0);
    set("stream.eval_rows",
        static_cast<double>(write_delta["just_cq_eval_rows_total"]));
    set("stream.matches", static_cast<double>(
                              SumPrefix(write_delta, "just_cq_matches_total")));
    set("stream.notifications",
        static_cast<double>(
            SumPrefix(write_delta, "just_cq_notifications_total")));
    set("stream.dropped", static_cast<double>(dropped));
    set("stream.tenant_write_shed", static_cast<double>(write_shed));
    set("stream.tenant_scan_shed", static_cast<double>(scan_shed));
    set("stream.ingest_rows_per_s", ingest_rows_per_s);
    set("stream.ingest_p99_ms", ingest_p99);
    set("stream.notify_p99_ms", notify_p99);
  }

  Status fin = engine->Finalize();
  if (!fin.ok()) {
    std::fprintf(stderr, "finalize: %s\n", fin.ToString().c_str());
    return 1;
  }
  auto storage = engine->GetStorageStats();
  result->end_to_end["storage_bytes_per_raw_byte"] =
      Metric{static_cast<double>(storage.disk_bytes) /
                 static_cast<double>(raw_bytes),
             "ratio"};
  result->context["rows"] = static_cast<double>(records.size());
  result->context["raw_bytes"] = static_cast<double>(raw_bytes);
  result->context["disk_bytes"] = static_cast<double>(storage.disk_bytes);
  result->context["cache_bytes_per_server"] =
      static_cast<double>(kHotCacheBytes);
  result->context["cache_to_data"] = static_cast<double>(kHotCacheBytes) *
                                     kServers /
                                     static_cast<double>(storage.disk_bytes);
  result->context["epochs"] = epochs;
  result->context["ingest_rows_per_s"] = ingest_rows_per_s;
  result->context["ingest_p99_ms"] = ingest_p99;
  result->context["notify_p99_ms"] = notify_p99;
  result->counts["data.rows"] = records.size();
  return 0;
}

}  // namespace justbench
