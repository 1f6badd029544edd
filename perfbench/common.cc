#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "common/bytes.h"
#include "compress/codec.h"
#include "core/row_codec.h"
#include "justbench.h"

namespace justbench {

using just::Result;
using just::Status;
namespace core = just::core;
namespace exec = just::exec;
namespace geo = just::geo;

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kRange:
      return "range";
    case OpType::kStRange:
      return "st_range";
    case OpType::kKnn:
      return "knn";
    case OpType::kSqlTime:
      return "sql_time";
  }
  return "?";
}

namespace {

std::string Quoted(TimestampMs t) {
  return "'" + just::FormatTimestamp(t) + "'";
}

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t FidHash(std::string_view fid) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a, then a finalizer
  for (char c : fid) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return Mix64(h);
}

}  // namespace

std::string MbrSql(const geo::Mbr& b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "st_makeMBR(%.17g, %.17g, %.17g, %.17g)",
                b.lng_min, b.lat_min, b.lng_max, b.lat_max);
  return buf;
}

std::string OpSql(const Target& target, const Op& op) {
  std::string select = "SELECT " + target.fid_col + " FROM " + target.table +
                       " WHERE ";
  switch (op.type) {
    case OpType::kRange:
      return select + target.geom_col + " WITHIN " + MbrSql(op.box);
    case OpType::kStRange:
      return select + target.geom_col + " WITHIN " + MbrSql(op.box) + " AND " +
             target.time_col + " BETWEEN " + Quoted(op.t_min) + " AND " +
             Quoted(op.t_max);
    case OpType::kKnn: {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    " IN st_knn(st_makePoint(%.17g, %.17g), %d)", op.q.lng,
                    op.q.lat, kKnnK);
      return select + target.geom_col + buf;
    }
    case OpType::kSqlTime:
      // Two comparisons instead of BETWEEN: the access-path chooser only
      // turns BETWEEN into a time-index range, so this statement is the
      // full scan plus residual filter that a plain SQL client produces.
      // Bounds are epoch-millisecond literals: a residual comparison of a
      // timestamp column with a date-string literal compares by type, not
      // by value, and drops rows (see README.md, "Known engine defect").
      return select + target.time_col + " >= " + std::to_string(op.t_min) +
             " AND " + target.time_col + " <= " + std::to_string(op.t_max);
  }
  return "";
}

void AddFid(std::string_view fid, bool keep, Answer* answer) {
  answer->rows += 1;
  answer->fid_hash += FidHash(fid);
  if (keep) answer->fids.emplace_back(fid);
}

Answer AnswerOf(const exec::DataFrame& frame, int fid_col, bool keep) {
  Answer answer;
  for (const exec::Row& row : frame.rows()) {
    const exec::Value& v = row[static_cast<size_t>(fid_col)];
    AddFid(v.type() == exec::DataType::kString
               ? std::string_view(v.string_value())
               : std::string_view(),
           keep, &answer);
  }
  return answer;
}

Answer AnswerOf(const exec::BatchVector& batches, int fid_col, bool keep) {
  Answer answer;
  for (const exec::ColumnBatch& batch : batches) {
    const exec::ColumnVector& col = batch.column(static_cast<size_t>(fid_col));
    const uint32_t* sel = batch.selection_data();
    for (size_t i = 0; i < batch.num_active(); ++i) {
      size_t row = sel != nullptr ? sel[i] : i;
      if (col.storage() == exec::ColumnVector::Storage::kString) {
        AddFid(col.StringAt(row), keep, &answer);
      } else {
        exec::Value v = col.ValueAt(row);
        AddFid(v.type() == exec::DataType::kString
                   ? std::string_view(v.string_value())
                   : std::string_view(),
               keep, &answer);
      }
    }
  }
  return answer;
}

Result<Answer> RunOp(const Target& target, const Op& op,
                     core::QueryStats* stats, bool keep_fids) {
  core::JustEngine* engine = target.engine;
  Result<exec::DataFrame> frame = Status::OK();
  switch (op.type) {
    case OpType::kRange:
      frame = engine->SpatialRangeQuery(kUser, target.table, op.box, stats);
      break;
    case OpType::kStRange:
      frame = engine->StRangeQuery(kUser, target.table, op.box, op.t_min,
                                   op.t_max, stats);
      break;
    case OpType::kKnn:
      frame = engine->KnnQuery(kUser, target.table, op.q, kKnnK, stats);
      break;
    case OpType::kSqlTime: {
      auto r = target.ql->Execute(kUser, OpSql(target, op));
      if (!r.ok()) return r.status();
      return AnswerOf(r->frame, 0, keep_fids);
    }
  }
  if (!frame.ok()) return frame.status();
  int fid_col = frame->schema().IndexOf(target.fid_col);
  if (fid_col < 0) return Status::Internal("result has no fid column");
  return AnswerOf(*frame, fid_col, keep_fids || op.type == OpType::kKnn);
}

// ---------------------------------------------------------------------------

Oracle::Oracle(std::vector<OracleRecord> records)
    : records_(std::move(records)) {
  for (size_t i = 0; i < records_.size(); ++i) by_fid_[records_[i].fid] = i;
}

bool Oracle::Matches(const OracleRecord& r, const Op& op) {
  switch (op.type) {
    case OpType::kRange:
      return op.box.Intersects(r.box);
    case OpType::kStRange:
      return op.box.Intersects(r.box) && r.t >= op.t_min && r.t <= op.t_max;
    case OpType::kSqlTime:
      return r.t >= op.t_min && r.t <= op.t_max;
    case OpType::kKnn:
      return false;
  }
  return false;
}

Answer Oracle::Expect(const Op& op, size_t limit) const {
  Answer answer;
  size_t n = std::min(limit, records_.size());
  for (size_t i = 0; i < n; ++i) {
    if (Matches(records_[i], op)) AddFid(records_[i].fid, false, &answer);
  }
  return answer;
}

double Oracle::KthDistance(const geo::Point& q, int k) const {
  std::vector<double> d;
  d.reserve(records_.size());
  for (const OracleRecord& r : records_) d.push_back(r.box.MinDistance(q));
  size_t kk = std::min(d.size(), static_cast<size_t>(k));
  if (kk == 0) return 0;
  std::nth_element(d.begin(), d.begin() + static_cast<long>(kk - 1), d.end());
  return d[kk - 1];
}

std::string Oracle::CheckKnn(const Op& op, const Answer& answer) const {
  size_t want = std::min(records_.size(), static_cast<size_t>(kKnnK));
  if (answer.rows != want) {
    return "knn returned " + std::to_string(answer.rows) + " rows, want " +
           std::to_string(want);
  }
  double kth = KthDistance(op.q, kKnnK);
  std::vector<size_t> seen;
  seen.reserve(answer.fids.size());
  for (const std::string& fid : answer.fids) {
    auto it = by_fid_.find(fid);
    if (it == by_fid_.end()) return "knn returned unknown fid " + fid;
    seen.push_back(it->second);
    double d = records_[it->second].box.MinDistance(op.q);
    if (d > kth * (1 + 1e-12) + 1e-15) {
      return "knn returned " + fid + " beyond the k-th distance";
    }
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "knn returned a fid twice";
  }
  return "";
}

std::string Oracle::CheckBetween(const Op& op, const Answer& answer,
                                 size_t lo, size_t hi) const {
  std::vector<bool> in_answer(records_.size(), false);
  for (const std::string& fid : answer.fids) {
    auto it = by_fid_.find(fid);
    if (it == by_fid_.end()) return "returned unknown fid " + fid;
    size_t i = it->second;
    if (i >= hi || !Matches(records_[i], op)) {
      return "returned " + fid + ", which does not match or was not written";
    }
    if (in_answer[i]) return "returned " + fid + " twice";
    in_answer[i] = true;
  }
  for (size_t i = 0; i < std::min(lo, records_.size()); ++i) {
    if (!in_answer[i] && Matches(records_[i], op)) {
      return "missed acknowledged " + records_[i].fid;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p * static_cast<double>(samples.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// ---------------------------------------------------------------------------

std::map<std::string, int64_t> RegistryValues() {
  just::obs::RegistrySnapshot snap =
      just::obs::Registry::Global().GetSnapshot();
  std::map<std::string, int64_t> out;
  for (const auto& [name, v] : snap.counters) {
    out[name] = static_cast<int64_t>(v);
  }
  for (const auto& [name, v] : snap.gauges) out[name] = v;
  for (const auto& [name, h] : snap.histograms) {
    out[name + ".sum"] = static_cast<int64_t>(h.sum);
    out[name + ".count"] = static_cast<int64_t>(h.count);
  }
  return out;
}

std::map<std::string, int64_t> Delta(const std::map<std::string, int64_t>& a,
                                     const std::map<std::string, int64_t>& b) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, after] : b) {
    auto it = a.find(name);
    int64_t d = after - (it == a.end() ? 0 : it->second);
    if (d != 0) out[name] = d;
  }
  return out;
}

int64_t SumPrefix(const std::map<std::string, int64_t>& values,
                  const std::string& prefix) {
  int64_t sum = 0;
  for (auto it = values.lower_bound(prefix);
       it != values.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += it->second;
  }
  return sum;
}

namespace {

int64_t Get(const std::map<std::string, int64_t>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

size_t Tracer::BeginRoot(const std::string& name) {
  Span span;
  span.trace = next_trace_++;
  span.id = next_id_++;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Tracer::EndRoot(size_t root) { spans_[root].end_ns = NowNs(); }

bool Tracer::Write(const std::string& path,
                   const std::string& context_json) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << context_json << "\n";
  int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << "{\"trace\":" << s.trace << ",\"span\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << JsonEscape(s.name)
        << "\",\"start_us\":" << (s.start_ns - t0) / 1000
        << ",\"end_us\":" << (s.end_ns - t0) / 1000 << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : s.deltas) {
      out << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << v;
      first = false;
    }
    out << "}}\n";
  }
  return out.good();
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  ++failed;
  if (errors.size() < 10) errors.push_back(what);
}

// ---------------------------------------------------------------------------

namespace {

/// Op types with per-type layer metrics: the ones every workload runs.
constexpr OpType kLayerTypes[] = {OpType::kRange, OpType::kStRange,
                                  OpType::kSqlTime};

bool HasRanges(OpType t) {
  return t == OpType::kRange || t == OpType::kStRange;
}

}  // namespace

void InitPerLayer(RunResult* result) {
  static const std::pair<const char*, const char*> kPooled[] = {
      {"sql.plan_us", "us"},
      {"sql.execute_ms", "ms"},
      {"sql.self_ms", "ms"},
      {"sql.rows_scanned_per_row", "ratio"},
      {"sql.plan_cache_hit_ratio", "ratio"},
      {"exec.rows_per_batch", "count"},
      {"cluster.retries", "count"},
      {"kvstore.block_cache_hit_ratio", "ratio"},
      {"kvstore.write_amp", "ratio"},
      {"kvstore.flushes", "count"},
      {"kvstore.compactions", "count"},
      {"kvstore.compaction_ms", "ms"},
      {"kvstore.write_stalls", "count"},
      {"kvstore.write_stall_ms", "ms"},
      {"kvstore.group_commit_ops", "count"},
      {"kvstore.sstables_end", "count"},
      {"compress.decode_us_per_cell", "us"},
      {"compress.ratio", "ratio"},
      {"stream.eval_us_per_batch", "us"},
      {"stream.eval_rows", "count"},
      {"stream.matches", "count"},
      {"stream.notifications", "count"},
      {"stream.dropped", "count"},
      {"stream.tenant_write_shed", "count"},
      {"stream.tenant_scan_shed", "count"},
      {"stream.ingest_rows_per_s", "1/s"},
      {"stream.ingest_p99_ms", "ms"},
      {"stream.notify_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  static const std::pair<const char*, const char*> kPerType[] = {
      {"exec.materialise_ms", "ms"},      {"core.scan_refine_ms", "ms"},
      {"core.self_ms", "ms"},             {"core.rows_scanned", "count"},
      {"core.match_ratio", "ratio"},      {"cluster.parallel_scan_ms", "ms"},
      {"cluster.parallel_scans", "count"}, {"cluster.rows_fetched", "count"},
      {"kvstore.bytes_read", "bytes"},    {"kvstore.block_reads", "count"},
      {"kvstore.disk_wait_ms", "ms"},     {"curve.decompose_us", "us"},
      {"curve.ranges", "count"},
  };
  for (const auto& [name, unit] : kPooled) {
    result->per_layer[name] = Metric{0, unit};
  }
  for (OpType t : kLayerTypes) {
    for (const auto& [name, unit] : kPerType) {
      bool curve = std::string_view(name).substr(0, 6) == "curve.";
      if (curve && !HasRanges(t)) continue;
      result->per_layer[std::string(name) + "." + OpName(t)] =
          Metric{0, unit};
    }
  }
}

namespace {

void SetLayer(RunResult* result, const std::string& name, double value) {
  result->per_layer.at(name).value = value;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Fills the block caches with blocks `op` never reads: ~kEvictBytes of
/// every shard of the index slot it does not scan (slot 0 is the spatial
/// index, slot 1 the spatio-temporal one; sql_time scans slot 0).
void EvictCache(const Target& target, const Op& op) {
  constexpr size_t kEvictBytes = 4 * kColdCacheBytes;
  auto table = target.engine->GetTable(kUser, target.table);
  if (!table.ok()) return;
  std::string prefix =
      (*table)->IndexPrefix(op.type == OpType::kStRange ? 0 : 1);
  for (int shard = 0; shard < (*table)->num_shards(); ++shard) {
    std::string start(1, static_cast<char>(shard));
    start += prefix;
    std::string end(1, static_cast<char>(shard + 1));
    size_t bytes = 0;
    Status st = target.engine->cluster()->Scan(
        start, end, [&](std::string_view k, std::string_view v) {
          bytes += k.size() + v.size();
          return bytes < kEvictBytes;
        });
    (void)st;  // a failed eviction only leaves the cache warmer
  }
}

}  // namespace

void ReplayOp(const Target& target, const Op& op, const Oracle& oracle,
              Tracer* tracer, ReplayTotals* totals, RunResult* result) {
  const std::string sql = OpSql(target, op);
  const std::string type = OpName(op.type);
  const bool has_batch = op.type != OpType::kKnn;
  core::JustEngine* engine = target.engine;
  Answer expected;
  if (op.type != OpType::kKnn) expected = oracle.Expect(op);

  auto check = [&](const std::string& level, const Result<Answer>& got,
                   bool full_table) {
    ++result->attempted;
    if (!got.ok()) {
      result->Fail(type + " " + level + ": " + got.status().ToString());
      return;
    }
    std::string err;
    if (op.type == OpType::kKnn) {
      err = oracle.CheckKnn(op, *got);
    } else if (full_table) {
      if (got->rows != oracle.records().size()) err = "full scan row count";
    } else if (got->rows != expected.rows ||
               got->fid_hash != expected.fid_hash) {
      err = "got " + std::to_string(got->rows) + " rows, want " +
            std::to_string(expected.rows);
    }
    if (!err.empty()) result->Fail(type + " " + level + ": " + err);
  };

  // The level an application calls: the SDK, or JustQL for sql_time.
  auto entry = [&] { return RunOp(target, op, nullptr); };

  size_t root = tracer->BeginRoot("op." + type);
  size_t plan = tracer->Call(root, "sql.ExplainSelect", [&] {
    auto r = target.ql->ExplainSelect(kUser, sql);
    if (!r.ok()) result->Fail(type + " explain: " + r.status().ToString());
  });
  Result<Answer> sql_answer = Status::OK();
  auto evict = [&] {
    if (target.small_cache) EvictCache(target, op);
  };
  evict();
  size_t exec_span = tracer->Call(root, "sql.Execute", [&] {
    auto r = target.ql->Execute(kUser, sql);
    if (!r.ok()) {
      sql_answer = r.status();
    } else {
      sql_answer = AnswerOf(r->frame, 0, op.type == OpType::kKnn);
    }
  });
  check("sql", sql_answer, false);

  // Scan statistics of the core-level call: its QueryStats, because the
  // registry's just_query_* counters leave unbudgeted full scans out.
  core::QueryStats df_stats, batch_stats;
  Result<Answer> df_answer = Status::OK();
  evict();
  size_t df_span = tracer->Call(root, "engine." + type, [&] {
    Result<exec::DataFrame> frame = Status::OK();
    switch (op.type) {
      case OpType::kRange:
        frame = engine->SpatialRangeQuery(kUser, target.table, op.box,
                                          &df_stats);
        break;
      case OpType::kStRange:
        frame = engine->StRangeQuery(kUser, target.table, op.box, op.t_min,
                                     op.t_max, &df_stats);
        break;
      case OpType::kKnn:
        frame = engine->KnnQuery(kUser, target.table, op.q, kKnnK, &df_stats);
        break;
      case OpType::kSqlTime:
        frame = engine->FullScan(kUser, target.table);
        break;
    }
    int fid_col = frame.ok() ? frame->schema().IndexOf(target.fid_col) : -1;
    if (!frame.ok()) {
      df_answer = frame.status();
    } else if (fid_col < 0) {
      df_answer = Status::Internal("result has no fid column");
    } else {
      df_answer = AnswerOf(*frame, fid_col, op.type == OpType::kKnn);
    }
  });
  check("dataframe", df_answer, op.type == OpType::kSqlTime);

  size_t core_span = df_span;
  if (has_batch) {
    Result<Answer> batch_answer = Status::OK();
    evict();
    core_span = tracer->Call(root, "core." + type + "_batch", [&] {
      Result<exec::BatchVector> batches = Status::OK();
      if (op.type == OpType::kRange) {
        batches = engine->SpatialRangeQueryBatch(kUser, target.table, op.box,
                                                 &batch_stats);
      } else if (op.type == OpType::kStRange) {
        batches = engine->StRangeQueryBatch(kUser, target.table, op.box,
                                            op.t_min, op.t_max, &batch_stats);
      } else {
        batches = engine->FullScanBatch(kUser, target.table, &batch_stats);
      }
      if (!batches.ok()) {
        batch_answer = batches.status();
        return;
      }
      auto table = engine->GetTable(kUser, target.table);
      int fid_col = table.ok() ? (*table)->meta().ColumnIndex(target.fid_col)
                               : -1;
      batch_answer = fid_col < 0 ? Result<Answer>(Status::Internal("no fid"))
                                 : AnswerOf(*batches, fid_col, false);
    });
    check("batch", batch_answer, op.type == OpType::kSqlTime);
  }

  double curve_us = 0;
  size_t ranges = 0;
  if (HasRanges(op.type)) {
    auto table = engine->GetTable(kUser, target.table);
    if (!table.ok()) {
      result->Fail(type + " GetTable: " + table.status().ToString());
    } else {
      bool temporal = op.type == OpType::kStRange;
      auto strategy = (*table)->PickIndex(temporal);
      if (!strategy.ok()) {
        result->Fail(type + " PickIndex: " + strategy.status().ToString());
      } else {
        size_t span = tracer->Call(root, "curve.QueryRanges", [&] {
          ranges = temporal ? (*strategy)
                                  ->QueryRanges(op.box, op.t_min, op.t_max)
                                  .size()
                            : (*strategy)
                                  ->QueryRanges(op.box, INT64_MIN, INT64_MAX)
                                  .size();
        });
        curve_us = tracer->span(span).ms() * 1000;
        result->counts["replay." + type + ".ranges"] += ranges;
      }
    }
  }

  // Tracing overhead: the entry point once more with a span and once
  // without, in alternating order so neither always runs on a warmer cache.
  Result<Answer> untraced_answer = Status::OK(), traced_answer = Status::OK();
  for (int pass = 0; pass < 2; ++pass) {
    evict();
    if ((pass == 0) == (op.param % 2 == 0)) {
      int64_t start = NowNs();
      untraced_answer = entry();
      totals->entry_untraced_ms.push_back(MsSince(start));
    } else {
      size_t span = tracer->Call(root, "overhead." + type,
                                 [&] { traced_answer = entry(); });
      totals->entry_traced_ms.push_back(tracer->span(span).ms());
    }
  }
  check("untraced", untraced_answer, false);
  check("traced", traced_answer, false);
  tracer->EndRoot(root);

  // Layer split: each level's time minus the next-lower level's.
  const auto& ex = tracer->span(exec_span);
  const auto& df = tracer->span(df_span);
  const auto& cs = tracer->span(core_span);
  double cluster_ms =
      static_cast<double>(Get(cs.deltas, "just_cluster_parallel_scan_us.sum")) /
      1000.0;
  double sql_self = ex.ms() - df.ms();
  double materialise = has_batch ? df.ms() - cs.ms() : 0;
  double core_self = cs.ms() - cluster_ms - curve_us / 1000.0;

  const core::QueryStats& core_stats = has_batch ? batch_stats : df_stats;
  ++totals->ops;
  totals->execute_ms += ex.ms();
  totals->sql_self_ms += sql_self;
  totals->plan_us += tracer->span(plan).ms() * 1000;
  totals->sql_rows_returned += sql_answer.ok() ? sql_answer->rows : 0;
  totals->rows_scanned += core_stats.rows_scanned;
  totals->plan_hits +=
      static_cast<uint64_t>(Get(ex.deltas, "just_sql_plan_cache_hits_total"));
  totals->plan_misses += static_cast<uint64_t>(
      Get(ex.deltas, "just_sql_plan_cache_misses_total"));
  totals->sql_batches +=
      static_cast<uint64_t>(Get(ex.deltas, "just_sql_batches_total"));
  totals->sql_batch_rows +=
      static_cast<uint64_t>(Get(ex.deltas, "just_sql_batch_rows_total"));
  totals->cache_hits +=
      static_cast<uint64_t>(Get(cs.deltas, "just_kv_block_cache_hits_total"));
  totals->cache_misses += static_cast<uint64_t>(
      Get(cs.deltas, "just_kv_block_cache_misses_total"));

  ReplayTotals::PerType& pt = totals->per_type[static_cast<int>(op.type)];
  ++pt.ops;
  pt.execute_ms += ex.ms();
  pt.sql_self_ms += sql_self;
  pt.materialise_ms += materialise;
  pt.core_ms += cs.ms();
  pt.core_self_ms += core_self;
  pt.cluster_ms += cluster_ms;
  pt.curve_us += curve_us;
  pt.ranges += ranges;
  pt.rows_scanned += core_stats.rows_scanned;
  pt.rows_matched += core_stats.rows_matched;
  pt.parallel_scans += static_cast<uint64_t>(
      Get(cs.deltas, "just_cluster_parallel_scan_us.count"));
  pt.rows_fetched += static_cast<uint64_t>(
      Get(cs.deltas, "just_cluster_scan_rows_fetched_total"));
  pt.bytes_read +=
      static_cast<uint64_t>(Get(cs.deltas, "just_kv_bytes_read_total"));
  pt.block_reads +=
      static_cast<uint64_t>(Get(cs.deltas, "just_kv_read_ops_total"));

  result->counts["replay." + type + ".ops"] += 1;
  result->counts["replay." + type + ".rows"] +=
      sql_answer.ok() ? sql_answer->rows : 0;
  result->counts["replay." + type + ".rows_scanned"] +=
      core_stats.rows_scanned;
  result->counts["replay." + type + ".key_ranges"] += core_stats.key_ranges;
}

void FinishReplay(const ReplayTotals& t, RunResult* result) {
  double n = static_cast<double>(std::max<size_t>(1, t.ops));
  SetLayer(result, "sql.plan_us", t.plan_us / n);
  SetLayer(result, "sql.execute_ms", t.execute_ms / n);
  SetLayer(result, "sql.self_ms", t.sql_self_ms / n);
  SetLayer(result, "sql.rows_scanned_per_row",
           static_cast<double>(t.rows_scanned) /
               static_cast<double>(std::max<uint64_t>(1, t.sql_rows_returned)));
  SetLayer(result, "sql.plan_cache_hit_ratio",
           Ratio(static_cast<double>(t.plan_hits),
                 static_cast<double>(t.plan_hits + t.plan_misses)));
  SetLayer(result, "exec.rows_per_batch",
           Ratio(static_cast<double>(t.sql_batch_rows),
                 static_cast<double>(t.sql_batches)));
  SetLayer(result, "kvstore.block_cache_hit_ratio",
           Ratio(static_cast<double>(t.cache_hits),
                 static_cast<double>(t.cache_hits + t.cache_misses)));
  double untraced = Median(t.entry_untraced_ms);
  double traced = Median(t.entry_traced_ms);
  SetLayer(result, "trace.overhead_pct",
           untraced > 0 ? (traced / untraced - 1) * 100 : 0);

  auto disk_ms = [](uint64_t bytes) {
    return static_cast<double>(bytes) / (kDiskMBps * 1e6) * 1e3;
  };
  for (OpType type : kLayerTypes) {
    const ReplayTotals::PerType& pt = t.per_type[static_cast<int>(type)];
    double k = static_cast<double>(std::max<size_t>(1, pt.ops));
    std::string sfx = std::string(".") + OpName(type);
    SetLayer(result, "exec.materialise_ms" + sfx, pt.materialise_ms / k);
    SetLayer(result, "core.scan_refine_ms" + sfx, pt.core_ms / k);
    SetLayer(result, "core.self_ms" + sfx, pt.core_self_ms / k);
    SetLayer(result, "core.rows_scanned" + sfx,
             static_cast<double>(pt.rows_scanned) / k);
    SetLayer(result, "core.match_ratio" + sfx,
             Ratio(static_cast<double>(pt.rows_matched),
                   static_cast<double>(pt.rows_scanned)));
    SetLayer(result, "cluster.parallel_scan_ms" + sfx, pt.cluster_ms / k);
    SetLayer(result, "cluster.parallel_scans" + sfx,
             static_cast<double>(pt.parallel_scans) / k);
    SetLayer(result, "cluster.rows_fetched" + sfx,
             static_cast<double>(pt.rows_fetched) / k);
    SetLayer(result, "kvstore.bytes_read" + sfx,
             static_cast<double>(pt.bytes_read) / k);
    SetLayer(result, "kvstore.block_reads" + sfx,
             static_cast<double>(pt.block_reads) / k);
    SetLayer(result, "kvstore.disk_wait_ms" + sfx, disk_ms(pt.bytes_read) / k);
    if (HasRanges(type)) {
      SetLayer(result, "curve.decompose_us" + sfx, pt.curve_us / k);
      SetLayer(result, "curve.ranges" + sfx,
               static_cast<double>(pt.ranges) / k);
    }
  }

  std::fprintf(stderr,
               "layer split per op type (mean per traced op, ms unless "
               "noted; self = a level's time minus the next-lower level's):\n"
               "  %-9s %4s %8s %8s %11s %8s %9s %8s %8s %8s %9s\n",
               "type", "ops", "execute", "sql_self", "materialise", "core",
               "core_self", "cluster", "curve", "disk", "scanned");
  for (int i = 0; i < kNumOpTypes; ++i) {
    const ReplayTotals::PerType& pt = t.per_type[i];
    if (pt.ops == 0) continue;
    double k = static_cast<double>(pt.ops);
    std::fprintf(stderr,
                 "  %-9s %4zu %8.3f %8.3f %11.3f %8.3f %9.3f %8.3f %8.4f "
                 "%8.3f %9.0f\n",
                 OpName(static_cast<OpType>(i)), pt.ops, pt.execute_ms / k,
                 pt.sql_self_ms / k, pt.materialise_ms / k, pt.core_ms / k,
                 pt.core_self_ms / k, pt.cluster_ms / k, pt.curve_us / k / 1000,
                 disk_ms(pt.bytes_read) / k,
                 static_cast<double>(pt.rows_scanned) / k);
  }
  std::fprintf(stderr,
               "tracing overhead: entry point p50 %.3f ms with a span vs "
               "%.3f ms without, on the same %zu ops (%+.1f%%)\n",
               traced, untraced, t.entry_traced_ms.size(),
               untraced > 0 ? (traced / untraced - 1) * 100 : 0.0);
}

void MeasureCodec(const just::meta::TableMeta& meta,
                  const std::vector<exec::Row>& rows, RunResult* result) {
  std::vector<std::string> cells;
  uint64_t encoded_bytes = 0, raw_bytes = 0;
  for (const exec::Row& row : rows) {
    auto encoded = just::core::EncodeRow(meta, row);
    if (!encoded.ok()) {
      result->Fail("EncodeRow: " + encoded.status().ToString());
      return;
    }
    const char* p = encoded->data();
    const char* limit = p + encoded->size();
    std::string_view cell;
    while (p < limit && just::GetLengthPrefixed(&p, limit, &cell)) {
      cells.emplace_back(cell);
    }
  }
  for (const std::string& cell : cells) {
    auto raw = just::compress::DecodeCell(cell);
    if (!raw.ok()) {
      result->Fail("DecodeCell: " + raw.status().ToString());
      return;
    }
    encoded_bytes += cell.size();
    raw_bytes += raw->size();
  }
  // Repeat the pass until the timed region is long enough to read.
  size_t decoded = 0;
  int64_t start = NowNs();
  do {
    for (const std::string& cell : cells) {
      auto raw = just::compress::DecodeCell(cell);
      decoded += raw.ok() ? 1 : 0;
    }
  } while (MsSince(start) < 50 && !cells.empty());
  double us = MsSince(start) * 1000;
  SetLayer(result, "compress.decode_us_per_cell",
           Ratio(us, static_cast<double>(decoded)));
  SetLayer(result, "compress.ratio",
           Ratio(static_cast<double>(raw_bytes),
                 static_cast<double>(encoded_bytes)));
}

void ReportWriteSide(const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after,
                     RunResult* result) {
  auto d = Delta(before, after);
  double flushed =
      static_cast<double>(Get(d, "just_kv_flush_output_bytes_total"));
  double compacted =
      static_cast<double>(Get(d, "just_kv_compaction_output_bytes_total"));
  SetLayer(result, "kvstore.write_amp", Ratio(flushed + compacted, flushed));
  SetLayer(result, "kvstore.flushes",
           static_cast<double>(Get(d, "just_kv_flushes_total")));
  SetLayer(result, "kvstore.compactions",
           static_cast<double>(Get(d, "just_kv_compactions_total")));
  SetLayer(result, "kvstore.compaction_ms",
           static_cast<double>(Get(d, "just_kv_compaction_us.sum")) / 1000);
  SetLayer(result, "kvstore.write_stalls",
           static_cast<double>(Get(d, "just_kv_write_stalls_total")));
  SetLayer(result, "kvstore.write_stall_ms",
           static_cast<double>(Get(d, "just_kv_write_stall_us.sum")) / 1000);
  SetLayer(result, "kvstore.group_commit_ops",
           Ratio(static_cast<double>(
                     Get(d, "just_kv_group_commit_batch_ops.sum")),
                 static_cast<double>(
                     Get(d, "just_kv_group_commit_batch_ops.count"))));
  SetLayer(result, "kvstore.sstables_end",
           static_cast<double>(Get(after, "just_kv_sstables")));
}

just::meta::TableMeta OrderTableMeta() {
  just::meta::TableMeta meta;
  meta.user = kUser;
  meta.name = "orders";
  meta.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "4326", ""},
  };
  meta.indexes = {{just::curve::IndexType::kZ2, just::kMillisPerDay},
                  {just::curve::IndexType::kZ2T, just::kMillisPerDay}};
  return meta;
}

exec::Row OrderRow(const just::workload::OrderRecord& order) {
  return {exec::Value::String(order.fid), exec::Value::Timestamp(order.time),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(order.point))};
}

std::vector<just::workload::OrderRecord> MixedOrders(uint64_t seed, int rows) {
  std::vector<just::workload::OrderRecord> out;
  for (int part = 0; part < kDataParts; ++part) {
    just::workload::OrderOptions opts;
    opts.num_orders = rows / kDataParts + (part < rows % kDataParts ? 1 : 0);
    opts.seed = seed * kDataParts + static_cast<uint64_t>(part);
    for (auto& o : just::workload::GenerateOrders(opts)) {
      o.fid += "_" + std::to_string(part);
      out.push_back(std::move(o));
    }
  }
  return out;
}

void LatencyLog::Report(double elapsed_s, RunResult* result) const {
  auto slice_of = [&](double at_s) {
    int i = static_cast<int>(at_s / elapsed_s * kSlices);
    return std::clamp(i, 0, kSlices - 1);
  };
  std::vector<double> completed(kSlices, 0);
  for (int t = 0; t < kNumOpTypes; ++t) {
    std::vector<double> all;
    std::vector<std::vector<double>> sliced(kSlices);
    for (const Sample& s : samples_[t]) {
      all.push_back(s.ms);
      sliced[static_cast<size_t>(slice_of(s.at_s))].push_back(s.ms);
      completed[static_cast<size_t>(slice_of(s.at_s))] +=
          std::isinf(s.ms) ? 0 : 1;
    }
    std::vector<double> p50s, p90s;
    for (const std::vector<double>& slice : sliced) {
      if (slice.empty()) continue;
      p50s.push_back(Percentile(slice, 0.5));
      p90s.push_back(Percentile(slice, 0.9));
    }
    std::string name = OpName(static_cast<OpType>(t));
    // p90 is the tail for every type: between runs of one seed the p99 of
    // range moved by a third (with both clients running the whole mix, its
    // tail was whichever heavy query it overlapped), too unsteady to gate.
    double p50 = Median(p50s), p90 = Median(p90s);
    std::fprintf(stderr,
                 "  %-9s n=%-6zu p50=%.3f ms p90=%.3f ms (median of %zu "
                 "slices) pooled p99=%.3f ms\n",
                 name.c_str(), all.size(), p50, p90, p50s.size(),
                 Percentile(all, 0.99));
    result->context[name + ".samples"] = static_cast<double>(all.size());
    if (static_cast<OpType>(t) == OpType::kKnn) {
      // Not an end-to-end metric: traj_cold runs no k-NN (see README.md).
      result->context["knn_p50_ms"] = p50;
      result->context["knn_p90_ms"] = p90;
      continue;
    }
    result->end_to_end[name + "_p50_ms"] = Metric{p50, "ms"};
    result->end_to_end[name + "_p90_ms"] = Metric{p90, "ms"};
  }
  for (double& n : completed) n /= elapsed_s / kSlices;
  result->end_to_end["queries_per_s"] = Metric{Median(completed), "1/s"};
}

}  // namespace justbench
