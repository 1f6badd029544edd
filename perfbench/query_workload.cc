// order_cold and traj_cold: a loaded table queried by a closed loop of
// kClients clients, each waiting for a result before sending its next query.

#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "justbench.h"
#include "workload/generators.h"

namespace justbench {

namespace core = just::core;
namespace exec = just::exec;
namespace geo = just::geo;
namespace meta = just::meta;
namespace workload = just::workload;
using just::kMillisPerDay;
using just::Status;

namespace {

constexpr int kOrderRows = 120000;
constexpr int kTrajBaseRecords = 800;
constexpr int kTrajCopies = 2;  ///< copy-and-sample factor (Synthetic)
constexpr int kTrajPointsPerRecord = 300;
constexpr int64_t kMillisPerHour = 3600 * 1000;

/// The generated table: rows to insert, their oracle records, and where
/// queries are aimed.
struct Dataset {
  meta::TableMeta meta;
  Target target;
  std::vector<exec::Row> rows;
  std::vector<OracleRecord> oracle;
  size_t insert_batch = 0;
  uint64_t raw_bytes = 0;  ///< logical input size (Fig 10's "raw size")
  geo::Mbr area;
  std::string start_date;
  int num_days = 0;
};

Dataset MakeOrders(uint64_t seed) {
  Dataset d;
  d.meta = OrderTableMeta();
  d.target = {nullptr, nullptr, "orders", "fid", "geom", "time"};
  const workload::OrderOptions opts;  // area and dates of MixedOrders
  for (const workload::OrderRecord& o : MixedOrders(seed, kOrderRows)) {
    d.raw_bytes += kOrderRawBytes;
    d.rows.push_back(OrderRow(o));
    d.oracle.push_back(
        {o.fid, geo::Mbr::Of(o.point.lng, o.point.lat, o.point.lng,
                             o.point.lat),
         o.time});
  }
  d.insert_batch = 2048;
  d.area = opts.area;
  d.start_date = opts.start_date;
  d.num_days = opts.num_days;
  return d;
}

Dataset MakeTrajectories(uint64_t seed) {
  Dataset d;
  d.meta.user = kUser;
  d.meta.name = "traj";
  d.meta.columns = {
      {"tid", exec::DataType::kString, true, "", ""},
      {"oid", exec::DataType::kString, false, "", ""},
      {"start_time", exec::DataType::kTimestamp, false, "", ""},
      {"end_time", exec::DataType::kTimestamp, false, "", ""},
      {"item", exec::DataType::kTrajectory, false, "", "gzip"},
  };
  d.meta.kind = meta::TableKind::kPlugin;
  d.meta.plugin = "trajectory";
  d.meta.fid_column = "tid";
  d.meta.geom_column = "item";
  d.meta.time_column = "start_time";
  d.meta.indexes = {{just::curve::IndexType::kXz2, kMillisPerDay},
                    {just::curve::IndexType::kXz2T, kMillisPerDay}};
  d.target = {nullptr, nullptr, "traj", "tid", "item", "start_time"};
  // The base set mixes kDataParts generator runs (each with its own
  // depots), as MixedOrders does for points. Copies only jitter positions,
  // so the spread of query costs between seeds follows the base set: with
  // 400 base trajectories from 4 runs, copied 4 times, range_p50_ms spread
  // 0.17 over ten seeds.
  workload::TrajOptions opts;
  opts.num_trajectories = kTrajBaseRecords / kDataParts;
  opts.points_per_traj = kTrajPointsPerRecord;
  std::vector<just::traj::Trajectory> base;
  for (int part = 0; part < kDataParts; ++part) {
    opts.seed = seed * kDataParts + static_cast<uint64_t>(part);
    for (const just::traj::Trajectory& t :
         workload::GenerateTrajectories(opts)) {
      base.emplace_back(t.oid() + "_" + std::to_string(part), t.points());
    }
  }
  auto all = workload::CopyAndSample(base, kTrajCopies, seed * 31 + 7);
  for (const just::traj::Trajectory& t : all) {
    d.raw_bytes += 16 + t.size() * 24;  // as bench_common counts Traj
    d.rows.push_back(
        {exec::Value::String(t.oid()), exec::Value::String("c_" + t.oid()),
         exec::Value::Timestamp(t.start_time()),
         exec::Value::Timestamp(t.end_time()),
         exec::Value::TrajectoryVal(
             std::make_shared<const just::traj::Trajectory>(t))});
    // The gzip column stores the delta encoding, which quantizes
    // coordinates; the oracle judges the trajectory as stored.
    auto stored = just::traj::Trajectory::DeserializeDelta(t.oid(),
                                                           t.SerializeDelta());
    d.oracle.push_back(
        {t.oid(), stored.ok() ? stored->Bounds() : t.Bounds(), t.start_time()});
  }
  d.insert_batch = 256;
  d.area = opts.area;
  d.start_date = opts.start_date;
  d.num_days = opts.num_days * kTrajCopies;  // copies shift by 31 days
  return d;
}

/// Opens a fresh engine in `dir`, loads every row and finalizes.
just::Result<std::unique_ptr<core::JustEngine>> Load(const Dataset& d,
                                                     const std::string& dir,
                                                     size_t cache_bytes) {
  core::EngineOptions options;
  options.data_dir = dir;
  options.num_servers = kServers;
  options.num_shards = kShards;
  options.store.memtable_bytes = 8 << 20;
  options.store.block_cache_bytes = cache_bytes;
  JUST_ASSIGN_OR_RETURN(auto engine, core::JustEngine::Open(options));
  JUST_RETURN_NOT_OK(engine->CreateTable(d.meta));
  for (size_t i = 0; i < d.rows.size(); i += d.insert_batch) {
    size_t end = std::min(d.rows.size(), i + d.insert_batch);
    std::vector<exec::Row> chunk(d.rows.begin() + static_cast<long>(i),
                                 d.rows.begin() + static_cast<long>(end));
    JUST_RETURN_NOT_OK(engine->InsertBatch(kUser, d.meta.name, chunk));
  }
  JUST_RETURN_NOT_OK(engine->Finalize());
  return engine;
}

/// The closed loop's query mix. Each client repeats its own cycle of types
/// (weight = occurrences per cycle); each type walks its own list of
/// distinct queries, every one of which runs at least once per run. One
/// client sends the whole mix. With a second client sending k-NN and the
/// full-scan SQL beside the cheap index queries, a cheap query's scan tasks
/// queued behind the heavy query's in the shared scan pool, and that wait
/// grew with the host's load: on a busy host, st_range_p90_ms spread 0.24
/// and 0.39 over ten seeds in two such runs, st_range_p50_ms 0.10 and 0.15.
struct Mix {
  int weight[kClients][kNumOpTypes];
  size_t distinct[kNumOpTypes];
  size_t replay[kNumOpTypes];  ///< ops of each type in the traced replay
};

constexpr Mix kOrderMix = {{{16, 16, 1, 1}},
                           {1024, 1024, 64, 32},
                           {16, 16, 6, 4}};
constexpr Mix kTrajMix = {{{8, 8, 0, 1}},
                          {1024, 1024, 0, 32},
                          {12, 12, 0, 4}};
constexpr size_t kCenters = 1024;  ///< >= every distinct count above

/// Maps a client's closed-loop ordinal to its operation: the client's cycle
/// of types interleaved by smooth weighted round-robin.
class Schedule {
 public:
  Schedule(const Dataset& d, const Mix& mix, uint64_t seed) : mix_(mix) {
    centers_ = workload::SampleQueryCenters(d.area, d.start_date, d.num_days,
                                            kCenters, seed * 1000003 + 17);
    t_hi_ = just::ParseTimestamp(d.start_date).value() +
            static_cast<int64_t>(d.num_days) * kMillisPerDay;
    for (int c = 0; c < kClients; ++c) {
      const int* weight = mix.weight[c];
      int credit[kNumOpTypes] = {0, 0, 0, 0};
      int seen[kNumOpTypes] = {0, 0, 0, 0};
      int total = 0;
      for (int t = 0; t < kNumOpTypes; ++t) total += weight[t];
      for (int slot = 0; slot < total; ++slot) {
        int best = -1;
        for (int t = 0; t < kNumOpTypes; ++t) {
          credit[t] += weight[t];
          if (weight[t] > 0 && (best < 0 || credit[t] > credit[best])) {
            best = t;
          }
        }
        credit[best] -= total;
        cycles_[c].push_back({best, seen[best]++});
      }
    }
  }

  Op At(int client, uint64_t n) const {
    const auto& cycle = cycles_[client];
    uint64_t c = n / cycle.size();
    auto [type, j] = cycle[n % cycle.size()];
    size_t param = (c * static_cast<uint64_t>(mix_.weight[client][type]) +
                    static_cast<uint64_t>(j)) %
                   mix_.distinct[type];
    return Make(static_cast<OpType>(type), param);
  }

  Op Make(OpType type, size_t param) const {
    Op op;
    op.type = type;
    op.param = param;
    size_t i = param % centers_.centers.size();
    op.q = centers_.centers[i];
    op.box = geo::SquareWindowKm(op.q, kWindowKm);
    TimestampMs t = centers_.times[i];
    if (type == OpType::kStRange) {
      // Table IV's 1-day window, starting on a period boundary so it stays
      // within one Z2T/XZ2T period; bounds are whole seconds so the SQL
      // form of the query selects the same rows.
      if (t + kMillisPerDay > t_hi_) t = t_hi_ - kMillisPerDay;
      op.t_min = just::TimePeriodStart(just::TimePeriodNumber(t, kMillisPerDay),
                                       kMillisPerDay);
      op.t_max = op.t_min + kMillisPerDay - 1000;
    } else if (type == OpType::kSqlTime) {
      op.t_min = t - t % kMillisPerHour;
      op.t_max = op.t_min + kMillisPerHour - 1000;
    }
    return op;
  }

 private:
  Mix mix_;
  workload::QueryCenters centers_;
  TimestampMs t_hi_ = 0;
  /// Per client: (type, occurrence of the type in the cycle).
  std::vector<std::pair<int, int>> cycles_[kClients];
};

struct Completed {
  Op op;
  bool ok = false;
  double at_s = 0;  ///< start, in seconds into the timed region
  double ms = 0;
  Answer answer;
  core::QueryStats stats;
  std::string error;
};

}  // namespace

int RunQueryWorkload(const Args& args, const std::string& data_dir,
                     Tracer* tracer, RunResult* result) {
  const bool traj = args.workload == "traj_cold";
  const size_t cache_bytes = kColdCacheBytes;
  const Mix& mix = traj ? kTrajMix : kOrderMix;

  Dataset d = traj ? MakeTrajectories(args.seed) : MakeOrders(args.seed);

  // Set-up: fresh loads, each in its own directory; the last one serves
  // the queries.
  std::vector<double> setup_s;
  std::unique_ptr<core::JustEngine> engine;
  std::map<std::string, int64_t> load_before, load_after;
  double setup_total = 0;
  for (int r = 0;; ++r) {
    std::string dir = data_dir + "/load" + std::to_string(r);
    engine.reset();
    load_before = RegistryValues();
    int64_t start = NowNs();
    auto loaded = Load(d, dir, cache_bytes);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(MsSince(start) / 1000);
    setup_total += setup_s.back();
    load_after = RegistryValues();
    engine = std::move(loaded).value();
    if (r + 1 >= kSetupRepeats && setup_total >= kSetupSeconds) break;
    engine.reset();
    std::filesystem::remove_all(dir);
  }
  result->context["setup_loads"] = static_cast<double>(setup_s.size());
  just::sql::JustQL ql(engine.get());
  Target target = d.target;
  target.engine = engine.get();
  target.ql = &ql;
  target.small_cache = true;

  auto storage = engine->GetStorageStats();
  result->end_to_end["setup_s"] = Metric{Median(setup_s), "s"};
  result->end_to_end["storage_bytes_per_raw_byte"] =
      Metric{static_cast<double>(storage.disk_bytes) /
                 static_cast<double>(d.raw_bytes),
             "ratio"};
  result->context["rows"] = static_cast<double>(d.rows.size());
  result->context["raw_bytes"] = static_cast<double>(d.raw_bytes);
  result->context["disk_bytes"] = static_cast<double>(storage.disk_bytes);
  result->context["cache_bytes_per_server"] = static_cast<double>(cache_bytes);
  result->context["cache_to_data"] =
      static_cast<double>(cache_bytes) * kServers /
      static_cast<double>(storage.disk_bytes);
  result->counts["data.rows"] = d.rows.size();
  result->counts["data.entries"] = storage.entries;

  Schedule schedule(d, mix, args.seed);
  Oracle oracle(d.oracle);

  // Timed closed loop.
  std::vector<std::vector<Completed>> per_client(kClients);
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (uint64_t n = 0; NowNs() < deadline; ++n) {
        Completed done;
        done.op = schedule.At(c, n);
        int64_t t0 = NowNs();
        auto answer = RunOp(target, done.op, &done.stats);
        done.at_s = static_cast<double>(t0 - start) / 1e9;
        done.ms = MsSince(t0);
        done.ok = answer.ok();
        if (answer.ok()) {
          done.answer = std::move(answer).value();
        } else {
          done.error = answer.status().ToString();
        }
        per_client[static_cast<size_t>(c)].push_back(std::move(done));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed_s = MsSince(start) / 1000;

  // Answer check, after the timed region.
  LatencyLog latencies;
  std::map<std::pair<int, size_t>, Answer> expected;
  std::set<std::pair<int, size_t>> seen;
  for (const auto& list : per_client) {
    for (const Completed& done : list) {
      int type = static_cast<int>(done.op.type);
      std::string name = OpName(done.op.type);
      ++result->attempted;
      std::string err;
      if (!done.ok) {
        err = done.error;
      } else if (done.op.type == OpType::kKnn) {
        err = oracle.CheckKnn(done.op, done.answer);
      } else {
        auto key = std::make_pair(type, done.op.param);
        auto it = expected.find(key);
        if (it == expected.end()) {
          it = expected.emplace(key, oracle.Expect(done.op)).first;
        }
        if (done.answer.rows != it->second.rows ||
            done.answer.fid_hash != it->second.fid_hash) {
          err = "got " + std::to_string(done.answer.rows) + " rows, want " +
                std::to_string(it->second.rows);
        }
      }
      if (!err.empty()) {
        result->Fail(name + " #" + std::to_string(done.op.param) + ": " + err);
        latencies.Add(done.op.type, done.at_s,
                      std::numeric_limits<double>::infinity());
        continue;
      }
      latencies.Add(done.op.type, done.at_s, done.ms);
      if (seen.insert({type, done.op.param}).second) {
        result->counts["loop." + name + ".distinct"] += 1;
        result->counts["loop." + name + ".rows"] += done.answer.rows;
        result->counts["loop." + name + ".rows_scanned"] +=
            done.stats.rows_scanned;
        result->counts["loop." + name + ".key_ranges"] += done.stats.key_ranges;
      }
    }
  }
  std::fprintf(stderr, "closed loop: %d clients, %.2f s, %llu queries\n",
               kClients, elapsed_s,
               static_cast<unsigned long long>(result->attempted));
  latencies.Report(elapsed_s, result);

  if (!args.trace) return 0;

  // Traced replay: a fixed sample of each type, one client, top-down.
  ReplayTotals totals;
  for (int t = 0; t < kNumOpTypes; ++t) {
    for (size_t p = 0; p < mix.replay[t]; ++p) {
      ReplayOp(target, schedule.Make(static_cast<OpType>(t), p), oracle,
               tracer, &totals, result);
    }
  }
  FinishReplay(totals, result);
  ReportWriteSide(load_before, load_after, result);
  size_t sample_rows = std::min<size_t>(d.rows.size(), 4096);
  std::vector<exec::Row> sample(
      d.rows.begin(), d.rows.begin() + static_cast<long>(sample_rows));
  MeasureCodec(d.meta, sample, result);
  return 0;
}

}  // namespace justbench
