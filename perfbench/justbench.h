// Shared pieces of the end-to-end JUST benchmark: command-line options, the
// query operations every workload issues, the brute-force answer oracle,
// latency statistics, the registry-delta tracer and the metric report.
//
// The benchmark drives the engine only through its public entry points
// (JustQL, JustEngine, StTable, IndexStrategy, RegionCluster, StreamHub,
// the codec) and reads layer counters from obs::Registry::Global().

#ifndef JUST_PERFBENCH_JUSTBENCH_H_
#define JUST_PERFBENCH_JUSTBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time_util.h"
#include "core/engine.h"
#include "geo/point.h"
#include "obs/metrics.h"
#include "sql/justql.h"
#include "workload/generators.h"

namespace justbench {

using just::TimestampMs;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_root;    ///< parent of the per-run data directory
  std::string spans_path;  ///< trace mode: where the span file goes
  std::string git_sha = "unknown";
};

// ---------------------------------------------------------------------------
// Fixed settings shared by every workload (see README.md for the reasons).

constexpr double kDiskMBps = 300.0;       ///< simulated disk, every workload
constexpr int kServers = 4;               ///< region servers
constexpr int kShards = 8;                ///< key shard prefixes
constexpr size_t kColdCacheBytes = 64 << 10;   ///< per server
constexpr size_t kHotCacheBytes = 32 << 20;    ///< per server
constexpr int kClients = 1;               ///< closed-loop query clients
/// Set-up repeats until at least kSetupRepeats loads and kSetupSeconds of
/// loading are done; setup_s is the median load.
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 2.0;
constexpr double kWindowKm = 3.0;         ///< Table IV default window
constexpr int kKnnK = 100;                ///< Table IV default k
constexpr int kDataParts = 8;             ///< generator runs mixed per table
constexpr const char* kUser = "bench";

// ---------------------------------------------------------------------------
// Query operations.

enum class OpType { kRange = 0, kStRange = 1, kKnn = 2, kSqlTime = 3 };
constexpr int kNumOpTypes = 4;
const char* OpName(OpType type);

/// One query with its parameters. `param` identifies the distinct query
/// (operations with the same type and param are the same query).
struct Op {
  OpType type = OpType::kRange;
  size_t param = 0;
  just::geo::Mbr box;
  TimestampMs t_min = 0;
  TimestampMs t_max = 0;
  just::geo::Point q;
};

/// The table an operation runs against and how its columns are named.
struct Target {
  just::core::JustEngine* engine = nullptr;
  just::sql::JustQL* ql = nullptr;
  std::string table;
  std::string fid_col;
  std::string geom_col;
  std::string time_col;
  /// The block cache is too small to keep a query's blocks: the traced
  /// replay evicts it before each level, so every level reads cold.
  bool small_cache = false;
};

/// The JustQL text of an operation (the form a SQL client would send).
std::string OpSql(const Target& target, const Op& op);
/// `st_makeMBR(...)` with every digit of the box's corners.
std::string MbrSql(const just::geo::Mbr& box);

/// What one executed query returned, reduced to what the oracle checks.
struct Answer {
  uint64_t rows = 0;
  uint64_t fid_hash = 0;  ///< order-independent hash of the returned fids
  std::vector<std::string> fids;  ///< kept only when asked for
};

/// Adds a result's fids to `answer`. `keep` retains the fid strings.
void AddFid(std::string_view fid, bool keep, Answer* answer);
Answer AnswerOf(const just::exec::DataFrame& frame, int fid_col, bool keep);
Answer AnswerOf(const just::exec::BatchVector& batches, int fid_col,
                bool keep);

/// Runs `op` through the entry point an application uses for it: the SDK
/// (JustEngine DataFrame calls) for range, st_range and knn; a JustQL
/// statement for sql_time. k-NN answers always keep their fids (for the
/// distance check), others when `keep_fids` is set.
just::Result<Answer> RunOp(const Target& target, const Op& op,
                           just::core::QueryStats* stats,
                           bool keep_fids = false);

// ---------------------------------------------------------------------------
// Brute-force oracle over the generated records.

struct OracleRecord {
  std::string fid;
  just::geo::Mbr box;  ///< a point record has a degenerate box
  TimestampMs t = 0;   ///< the table's time column
};

class Oracle {
 public:
  explicit Oracle(std::vector<OracleRecord> records);

  /// Expected answer of a range / st_range / sql_time operation over the
  /// first `limit` records (all when limit is SIZE_MAX).
  Answer Expect(const Op& op, size_t limit = SIZE_MAX) const;
  /// Distance of the k-th nearest record to `q` (the k-NN check).
  double KthDistance(const just::geo::Point& q, int k) const;
  /// Checks a k-NN answer: k distinct known fids, none farther than the
  /// true k-th distance. Returns an empty string when correct.
  std::string CheckKnn(const Op& op, const Answer& answer) const;
  /// Checks an answer (with fids) taken while records were being appended:
  /// it must hold every matching record among the first `lo` and nothing
  /// outside the first `hi`.
  std::string CheckBetween(const Op& op, const Answer& answer, size_t lo,
                           size_t hi) const;

  const std::vector<OracleRecord>& records() const { return records_; }

 private:
  static bool Matches(const OracleRecord& r, const Op& op);
  std::vector<OracleRecord> records_;
  std::unordered_map<std::string, size_t> by_fid_;
};

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile (p in [0, 1]); failed samples are +inf, so a
/// failure misses every latency limit.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
int64_t NowNs();
double MsSince(int64_t start_ns);

// ---------------------------------------------------------------------------
// Registry deltas and spans.

/// Counter values plus histogram sums/counts, flattened by name
/// (histograms as "<name>.sum" / "<name>.count"); gauges as-is.
std::map<std::string, int64_t> RegistryValues();
/// after - before for every entry, nonzero differences only.
std::map<std::string, int64_t> Delta(const std::map<std::string, int64_t>& a,
                                     const std::map<std::string, int64_t>& b);
/// Sum of every entry whose name starts with `prefix` (labeled families).
int64_t SumPrefix(const std::map<std::string, int64_t>& values,
                  const std::string& prefix);

/// In-memory span recorder for the traced run. One operation is one trace
/// id; each public entry-point call is a span whose parent is the
/// operation's root span and which carries the registry deltas taken
/// around the call.
class Tracer {
 public:
  struct Span {
    uint64_t trace = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 for a root span
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::map<std::string, int64_t> deltas;
    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  /// Opens a root span; returns its index.
  size_t BeginRoot(const std::string& name);
  void EndRoot(size_t root);
  /// Runs `fn` as a child span of `root`, recording registry deltas.
  template <typename Fn>
  size_t Call(size_t root, const std::string& name, Fn&& fn) {
    auto before = RegistryValues();
    Span span;
    span.trace = spans_[root].trace;
    span.id = next_id_++;
    span.parent = spans_[root].id;
    span.name = name;
    span.start_ns = NowNs();
    fn();
    span.end_ns = NowNs();
    span.deltas = Delta(before, RegistryValues());
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
  }
  const Span& span(size_t i) const { return spans_[i]; }
  size_t size() const { return spans_.size(); }
  /// Writes every span as one JSON object per line after a context line.
  bool Write(const std::string& path, const std::string& context_json) const;

 private:
  std::vector<Span> spans_;
  uint64_t next_trace_ = 1;
  uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------------
// Results of one run.

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Counts that repeat exactly for a workload and seed.
  std::map<std::string, uint64_t> counts;
  /// Run context (data sizes, cache ratio); printed, not gated.
  std::map<std::string, double> context;
  std::vector<std::string> errors;  ///< first few failures, for stderr

  void Fail(const std::string& what);
};

int RunQueryWorkload(const Args& args, const std::string& data_dir,
                     Tracer* tracer, RunResult* result);
int RunStreamWorkload(const Args& args, const std::string& data_dir,
                      Tracer* tracer, RunResult* result);

// ---------------------------------------------------------------------------
// Shared workload steps.

/// Sets every per-layer metric to 0 with its unit, so each run reports the
/// full list; a workload overwrites what it exercises.
void InitPerLayer(RunResult* result);

/// Read-side accumulators of the traced replay, turned into the
/// per-layer metrics by FinishReplay.
struct ReplayTotals {
  // Per statement, over every sampled op.
  size_t ops = 0;
  double execute_ms = 0, sql_self_ms = 0, plan_us = 0;
  uint64_t sql_rows_returned = 0, rows_scanned = 0;
  uint64_t plan_hits = 0, plan_misses = 0, sql_batches = 0, sql_batch_rows = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  std::vector<double> entry_untraced_ms, entry_traced_ms;
  /// Per op type, summed over its sampled ops.
  struct PerType {
    size_t ops = 0;
    double execute_ms = 0, sql_self_ms = 0, materialise_ms = 0, core_ms = 0,
           core_self_ms = 0, cluster_ms = 0, curve_us = 0;
    uint64_t ranges = 0, rows_scanned = 0, rows_matched = 0,
             parallel_scans = 0, rows_fetched = 0, bytes_read = 0,
             block_reads = 0;
  };
  PerType per_type[kNumOpTypes];
};

/// Replays `op` top-down through JustQL::Execute, the JustEngine DataFrame
/// call, the *Batch call and IndexStrategy::QueryRanges, one traced span
/// each, checks every level's answer with `oracle` (for sql_time the two
/// lower levels are full scans, checked for the table's row count), and
/// accumulates the layer split.
void ReplayOp(const Target& target, const Op& op, const Oracle& oracle,
              Tracer* tracer, ReplayTotals* totals, RunResult* result);
void FinishReplay(const ReplayTotals& totals, RunResult* result);

/// Times compress::DecodeCell over every cell of the given rows as the
/// table stores them (core::EncodeRow framing) and reports the codec ratio.
void MeasureCodec(const just::meta::TableMeta& meta,
                  const std::vector<just::exec::Row>& rows,
                  RunResult* result);

/// Write-side kvstore metrics from registry values taken around the
/// workload's write phase.
void ReportWriteSide(const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after,
                     RunResult* result);

/// The Order table (fid, time, point geometry; Z2 + Z2T) and one row of it.
just::meta::TableMeta OrderTableMeta();
just::exec::Row OrderRow(const just::workload::OrderRecord& order);
/// Logical size of one Order record (fid + time + point), as bench_common
/// counts it for Fig 10.
constexpr uint64_t kOrderRawBytes = 8 + 8 + 16;

/// Order-like points for `seed`: the union of kDataParts generator runs
/// with seeds derived from `seed`, each contributing its own hotspots, so a
/// run's data has kDataParts times the hotspots of one generator run and
/// its density, and with it the query costs, vary less from seed to seed.
/// Area and dates are workload::OrderOptions' defaults.
std::vector<just::workload::OrderRecord> MixedOrders(uint64_t seed, int rows);

/// Completed queries of a run's timed region, by type. Each statistic is
/// taken per slice (kSlices equal slices of the timed region, by start
/// time) and reported as the median over the slices, so a stretch of the
/// run on a busy host moves at most the slices it falls in: a pooled p90
/// took its whole tail from such a stretch.
class LatencyLog {
 public:
  static constexpr int kSlices = 5;
  /// `at_s`: when the query began, in seconds into the timed region;
  /// `ms`: latency, +inf for a failed query (it misses every limit).
  void Add(OpType type, double at_s, double ms) {
    samples_[static_cast<int>(type)].push_back({at_s, ms});
  }
  /// Sets <type>_p50_ms, <type>_p90_ms and queries_per_s.
  void Report(double elapsed_s, RunResult* result) const;

 private:
  struct Sample {
    double at_s;
    double ms;
  };
  std::vector<Sample> samples_[kNumOpTypes];
};

}  // namespace justbench

#endif  // JUST_PERFBENCH_JUSTBENCH_H_
