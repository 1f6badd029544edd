#include "core/table.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <queue>
#include <unordered_set>

#include "common/bytes.h"
#include "core/row_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace just::core {

namespace {
/// Dual attribution of per-query stats: the process-wide registry counters
/// and (when a trace is active) the current span.
void RecordQueryCounters(size_t ranges, size_t scanned, size_t matched) {
  static obs::Counter* key_ranges =
      obs::Registry::Global().GetCounter("just_query_key_ranges_total");
  static obs::Counter* rows_scanned =
      obs::Registry::Global().GetCounter("just_query_rows_scanned_total");
  static obs::Counter* rows_matched =
      obs::Registry::Global().GetCounter("just_query_rows_matched_total");
  key_ranges->Add(ranges);
  rows_scanned->Add(scanned);
  rows_matched->Add(matched);
  obs::TraceKeyRanges(ranges);
  obs::TraceRowsScanned(scanned);
  obs::TraceRowsMatched(matched);
}

/// Minimum expansion-area size for Algorithm 1 (the paper's g = 1km x 1km
/// system parameter, expressed in degrees at mid latitudes).
constexpr double kMinKnnAreaDeg = 0.01;

/// Smallest byte string strictly greater than every string with prefix `s`.
std::string PrefixSuccessor(std::string s) {
  while (!s.empty()) {
    if (static_cast<unsigned char>(s.back()) != 0xFF) {
      s.back() = static_cast<char>(s.back() + 1);
      return s;
    }
    s.pop_back();
  }
  return s;  // empty: no upper bound
}

/// Appends `s` with every 0x00 escaped as 0x00 0xFF, then a 0x00 0x01
/// terminator: lexicographic order over the escaped bytes matches the order
/// of the raw strings, and the terminator keeps values prefix-free so the
/// fid suffix never bleeds into the comparison.
void AppendEscapedTerminated(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '\0') {
      out->push_back('\0');
      out->push_back('\xFF');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('\0');
  out->push_back('\x01');
}

constexpr uint64_t kSignFlip = 1ull << 63;

/// Secondary-index cell: a type-class tag byte followed by a representation
/// whose byte order matches value order, so range predicates on the indexed
/// column translate to key ranges. Int and double share one ordered domain
/// (double bits); int64s beyond 2^53 may collide with a neighbor, which the
/// exact recheck on the decoded row resolves — the key order only has to be
/// *no more selective than* value order, never wrong about it.
std::string EncodeOrderedAttrKeyPart(const exec::Value& value) {
  std::string out;
  switch (value.type()) {
    case exec::DataType::kNull:
      out.push_back('\x00');
      return out;
    case exec::DataType::kBool:
      out.push_back('\x01');
      out.push_back(value.bool_value() ? '\x01' : '\x00');
      return out;
    case exec::DataType::kInt:
      out.push_back('\x02');
      PutFixed64BE(&out, OrderedDoubleBits(
                             static_cast<double>(value.int_value())));
      return out;
    case exec::DataType::kDouble:
      out.push_back('\x02');
      PutFixed64BE(&out, OrderedDoubleBits(value.double_value()));
      return out;
    case exec::DataType::kTimestamp:
      out.push_back('\x04');
      PutFixed64BE(&out,
                   static_cast<uint64_t>(value.timestamp_value()) ^ kSignFlip);
      return out;
    case exec::DataType::kString:
      out.push_back('\x05');
      AppendEscapedTerminated(&out, value.string_value());
      return out;
    default: {
      // Geometry/trajectory: equality-usable only (serialized bytes carry
      // no meaningful order), but entries stay well-formed and prefix-free.
      out.push_back('\x06');
      std::string raw;
      value.SerializeTo(&raw);
      AppendEscapedTerminated(&out, raw);
      return out;
    }
  }
}

/// Decode-and-refine time of one unbudgeted scan, summed over its ranges.
obs::Histogram* ScanDecodeHistogram() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("just_scan_decode_us");
  return h;
}

obs::Counter* IdxLookupsCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_idx_lookups_total");
  return c;
}

obs::Counter* IdxEntriesWrittenCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_idx_entries_written_total");
  return c;
}

obs::Counter* IdxIntersectionsCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_idx_intersections_total");
  return c;
}
}  // namespace

StTable::StTable(meta::TableMeta meta, cluster::RegionCluster* cluster,
                 const curve::IndexOptions& index_options)
    : meta_(std::move(meta)), cluster_(cluster) {
  for (const meta::IndexConfig& config : meta_.indexes) {
    curve::IndexOptions options = index_options;
    options.period_len_ms = config.period_len_ms;
    strategies_.push_back(curve::IndexStrategy::Create(config.type, options));
  }
  fid_col_ = meta_.ColumnIndex(meta_.fid_column);
  geom_col_ = meta_.ColumnIndex(meta_.geom_column);
  time_col_ = meta_.ColumnIndex(meta_.time_column);
}

std::string StTable::IndexPrefix(size_t index_slot) const {
  std::string prefix;
  PutFixed32BE(&prefix, static_cast<uint32_t>(meta_.table_id));
  prefix.push_back(static_cast<char>(index_slot));
  return prefix;
}

std::string StTable::WrapKey(size_t index_slot,
                             std::string_view strategy_key) const {
  std::string key;
  key.push_back(strategy_key[0]);  // shard byte stays first for routing
  key += IndexPrefix(index_slot);
  key.append(strategy_key.data() + 1, strategy_key.size() - 1);
  return key;
}

std::vector<curve::KeyRange> StTable::WrapRanges(
    size_t index_slot, std::vector<curve::KeyRange> ranges) const {
  for (curve::KeyRange& range : ranges) {
    range.start = WrapKey(index_slot, range.start);
    range.end = WrapKey(index_slot, range.end);
  }
  return ranges;
}

Result<curve::RecordRef> StTable::MakeRecordRef(const exec::Row& row) const {
  curve::RecordRef ref;
  if (fid_col_ >= 0 && !row[fid_col_].is_null()) {
    ref.fid = row[fid_col_].ToString();
  }
  if (geom_col_ < 0) {
    return Status::InvalidArgument("table " + meta_.name +
                                   " has no geometry column");
  }
  const exec::Value& g = row[geom_col_];
  if (g.type() == exec::DataType::kGeometry) {
    ref.mbr = g.geometry_value().Bounds();
  } else if (g.type() == exec::DataType::kTrajectory &&
             g.trajectory_value() != nullptr) {
    ref.mbr = g.trajectory_value()->Bounds();
    ref.t_min = g.trajectory_value()->start_time();
    ref.t_max = g.trajectory_value()->end_time();
  } else {
    return Status::InvalidArgument("row has no geometry value");
  }
  if (time_col_ >= 0 && !row[time_col_].is_null() &&
      row[time_col_].type() == exec::DataType::kTimestamp) {
    ref.t_min = row[time_col_].timestamp_value();
    if (ref.t_max < ref.t_min) ref.t_max = ref.t_min;
  }
  return ref;
}

Status StTable::AppendWriteOps(const exec::Row& row, bool delete_instead,
                               std::vector<kv::WriteOp>* ops) const {
  JUST_ASSIGN_OR_RETURN(auto ref, MakeRecordRef(row));
  std::string value;
  if (!delete_instead) {
    JUST_ASSIGN_OR_RETURN(value, EncodeRow(meta_, row));
  }
  for (size_t slot = 0; slot < strategies_.size(); ++slot) {
    std::string key = WrapKey(slot, strategies_[slot]->EncodeKey(ref));
    ops->push_back(kv::WriteOp{std::move(key), value, delete_instead});
  }
  // CREATE INDEX secondary indexes: shard :: table/slot :: value :: fid, on
  // the same shard as the base row (index lookups stay shard-local), with
  // an order-preserving value encoding and the covering row as the value.
  // Ops for a `building` index are mirrored into the build's catch-up
  // journal *before* the storage write (see IndexBuildJournal).
  int shard = strategies_.empty() ? 0 : strategies_[0]->ShardOf(ref.fid);
  for (const meta::SecondaryIndexDef& def : meta_.secondary_indexes) {
    int col = meta_.ColumnIndex(def.column);
    if (col < 0) continue;
    std::string key(1, static_cast<char>(shard));
    key += IndexPrefix(def.slot);
    key += EncodeOrderedAttrKeyPart(row[col]);
    key += ref.fid;
    ops->push_back(kv::WriteOp{std::move(key), value, delete_instead});
    IdxEntriesWrittenCounter()->Add(1);
  }
  return Status::OK();
}

void StTable::MirrorOpsToBuildJournals(
    const std::vector<kv::WriteOp>& ops) const {
  if (build_journals_.empty()) return;
  for (const meta::SecondaryIndexDef& def : meta_.secondary_indexes) {
    if (def.state != meta::IndexState::kBuilding) continue;
    auto it = build_journals_.find(def.name);
    if (it == build_journals_.end()) continue;
    std::string prefix = IndexPrefix(def.slot);
    for (const kv::WriteOp& op : ops) {
      if (op.key.size() > prefix.size() &&
          op.key.compare(1, prefix.size(), prefix) == 0) {
        it->second->Append(op);
      }
    }
  }
}

Result<kv::WriteOp> StTable::MakeSecondaryEntryOp(
    const meta::SecondaryIndexDef& def, const exec::Row& row,
    bool delete_instead) const {
  JUST_ASSIGN_OR_RETURN(auto ref, MakeRecordRef(row));
  int col = meta_.ColumnIndex(def.column);
  if (col < 0) {
    return Status::InvalidArgument("index column not in table: " + def.column);
  }
  std::string value;
  if (!delete_instead) {
    JUST_ASSIGN_OR_RETURN(value, EncodeRow(meta_, row));
  }
  int shard = strategies_.empty() ? 0 : strategies_[0]->ShardOf(ref.fid);
  std::string key(1, static_cast<char>(shard));
  key += IndexPrefix(def.slot);
  key += EncodeOrderedAttrKeyPart(row[col]);
  key += ref.fid;
  return kv::WriteOp{std::move(key), std::move(value), delete_instead};
}

Status StTable::WriteKeys(const exec::Row& row, bool delete_instead) {
  std::vector<kv::WriteOp> ops;
  JUST_RETURN_NOT_OK(AppendWriteOps(row, delete_instead, &ops));
  MirrorOpsToBuildJournals(ops);
  return cluster_->WriteBatch(std::move(ops));
}

Result<exec::BatchVector> StTable::ScanRangesToBatches(
    const std::vector<curve::KeyRange>& ranges,
    const std::function<void(exec::ColumnBatch*)>& refine, QueryStats* stats,
    const ScanBudget* budget, int fid_offset,
    const std::unordered_set<std::string>* skip_fids) const {
  // The ranges never overlap (every strategy emits sorted, disjoint ranges)
  // and a retried scan never re-delivers a row, so no key repeats.
  auto schema = meta_.MakeSchema();
  BatchRowDecoder decoder(meta_);
  // Rows already delivered by an earlier k-NN expansion area. The set is
  // only read during a scan: KnnQueryBatch grows it after the scan returns.
  auto skipped = [&](std::string_view key) {
    return skip_fids != nullptr &&
           key.size() > static_cast<size_t>(fid_offset) &&
           skip_fids->count(std::string(key.substr(fid_offset))) != 0;
  };
  exec::BatchVector batches;
  size_t ranges_run = 0;
  size_t scanned = 0;
  size_t matched = 0;
  size_t bytes = 0;

  if (budget == nullptr) {
    // Every range is decoded and refined on the pool worker that scans it,
    // into batches of its own. The worker appends the values of the server
    // part it is scanning back to back into the range's buffer (no
    // allocation per row) and decodes them in one timed pass per kBatchRows
    // rows, so a retried part only drops its buffer and its batches. A
    // range's output is created on its first row: most planned ranges are
    // empty, and those allocate nothing.
    struct RangeOutput {
      exec::BatchVector batches;  ///< committed parts', then the open part's
      size_t committed_batches = 0;
      size_t scanned = 0, matched = 0, bytes = 0;  ///< committed parts
      size_t part_scanned = 0, part_matched = 0, part_bytes = 0;
      std::string values;              ///< the open part's undecoded values
      std::vector<size_t> value_ends;  ///< end offset of each in `values`
      uint64_t decode_ns = 0;
    };
    std::vector<std::unique_ptr<RangeOutput>> outputs(ranges.size());
    auto decode_buffered = [&](RangeOutput& out) -> Status {
      if (out.value_ends.empty()) return Status::OK();
      const auto start = std::chrono::steady_clock::now();
      exec::ColumnBatch batch(schema);
      size_t begin = 0;
      for (size_t end : out.value_ends) {
        JUST_RETURN_NOT_OK(decoder.DecodeInto(
            std::string_view(out.values).substr(begin, end - begin), &batch));
        begin = end;
      }
      out.values.clear();
      out.value_ends.clear();
      if (refine) refine(&batch);
      out.part_matched += batch.num_active();
      if (batch.num_active() > 0) out.batches.push_back(std::move(batch));
      const auto ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      out.decode_ns += ns;
      obs::TraceDecodeNs(ns);
      return Status::OK();
    };
    cluster::RegionCluster::RangeConsumer consumer;
    consumer.begin = [&](size_t i) {
      if (outputs[i] == nullptr) return;
      RangeOutput& out = *outputs[i];
      out.batches.resize(out.committed_batches);
      out.part_scanned = out.part_matched = out.part_bytes = 0;
      out.values.clear();
      out.value_ends.clear();
    };
    consumer.row = [&](size_t i, std::string_view key,
                       std::string_view value) -> Status {
      if (outputs[i] == nullptr) outputs[i] = std::make_unique<RangeOutput>();
      RangeOutput& out = *outputs[i];
      ++out.part_scanned;
      out.part_bytes += key.size() + value.size();
      if (skipped(key)) return Status::OK();
      if (out.value_ends.size() >= exec::kBatchRows) {
        JUST_RETURN_NOT_OK(decode_buffered(out));
      }
      out.values.append(value);
      out.value_ends.push_back(out.values.size());
      return Status::OK();
    };
    consumer.commit = [&](size_t i) -> Status {
      if (outputs[i] == nullptr) return Status::OK();
      RangeOutput& out = *outputs[i];
      JUST_RETURN_NOT_OK(decode_buffered(out));
      out.scanned += out.part_scanned;
      out.matched += out.part_matched;
      out.bytes += out.part_bytes;
      out.committed_batches = out.batches.size();
      out.values = std::string();
      out.value_ends = std::vector<size_t>();
      return Status::OK();
    };
    JUST_RETURN_NOT_OK(cluster_->ParallelScan(ranges, consumer));
    ranges_run = ranges.size();
    uint64_t decode_ns = 0;
    for (const std::unique_ptr<RangeOutput>& out : outputs) {
      if (out == nullptr) continue;
      scanned += out->scanned;
      matched += out->matched;
      bytes += out->bytes;
      decode_ns += out->decode_ns;
      for (exec::ColumnBatch& batch : out->batches) {
        batches.push_back(std::move(batch));
      }
    }
    ScanDecodeHistogram()->Record(decode_ns / 1000);
  } else {
    // Budgeted (LIMIT): ranges run sequentially with streaming early stop,
    // flushing (and re-checking the budget) on batches small enough that a
    // tiny LIMIT stops within ~one streaming scan batch.
    const size_t batch_cap = std::min<size_t>(
        exec::kBatchRows, std::max<size_t>(budget->limit, 512));
    exec::ColumnBatch current(schema);
    Status inner;  // first error raised inside a scan callback
    auto flush = [&]() -> Status {
      if (current.num_rows() == 0) return Status::OK();
      if (refine) refine(&current);
      if (budget->residual) JUST_RETURN_NOT_OK(budget->residual(&current));
      matched += current.num_active();
      batches.push_back(std::move(current));
      current = exec::ColumnBatch(schema);
      return Status::OK();
    };
    // Returns false to stop the scan (budget met or error; `inner` tells).
    auto consume = [&](std::string_view key, std::string_view value) -> bool {
      ++scanned;
      bytes += key.size() + value.size();
      if (skipped(key)) return true;
      if (current.num_rows() >= batch_cap) {
        inner = flush();
        if (!inner.ok() || matched >= budget->limit) return false;
      }
      inner = decoder.DecodeInto(value, &current);
      return inner.ok();
    };
    for (const curve::KeyRange& range : ranges) {
      if (matched >= budget->limit) break;
      ++ranges_run;
      JUST_RETURN_NOT_OK(cluster_->Scan(range.start, range.end, consume));
      JUST_RETURN_NOT_OK(inner);
    }
    JUST_RETURN_NOT_OK(flush());
  }
  if (stats != nullptr) {
    stats->key_ranges += ranges_run;
    stats->rows_scanned += scanned;
    stats->rows_matched += matched;
    stats->bytes_scanned += bytes;
  }
  RecordQueryCounters(ranges_run, scanned, matched);
  return batches;
}

std::vector<curve::KeyRange> StTable::SecondaryIndexRanges(
    const meta::SecondaryIndexDef& def, const AttrBound& lower,
    const AttrBound& upper) const {
  std::string prefix = IndexPrefix(def.slot);
  std::vector<curve::KeyRange> ranges;
  for (int shard = 0; shard < num_shards(); ++shard) {
    std::string base(1, static_cast<char>(shard));
    base += prefix;
    curve::KeyRange range;
    if (lower.present) {
      std::string start = base + EncodeOrderedAttrKeyPart(lower.value);
      // Exclusive lower: skip every entry whose value-part equals the bound.
      range.start = lower.inclusive ? start : PrefixSuccessor(start);
    } else {
      range.start = base;
    }
    if (upper.present) {
      std::string end = base + EncodeOrderedAttrKeyPart(upper.value);
      range.end = upper.inclusive ? PrefixSuccessor(end) : end;
    } else {
      range.end = PrefixSuccessor(base);
    }
    if (!range.end.empty() && range.start < range.end) {
      ranges.push_back(std::move(range));
    }
  }
  return ranges;
}

Result<exec::BatchVector> StTable::SecondaryIndexQueryBatch(
    const meta::SecondaryIndexDef& def, const AttrBound& lower,
    const AttrBound& upper, const geo::Mbr* box, bool temporal,
    TimestampMs t_min, TimestampMs t_max, QueryStats* stats,
    const ScanBudget* budget) const {
  int col = meta_.ColumnIndex(def.column);
  if (col < 0) {
    return Status::InvalidArgument("index column not in table: " + def.column);
  }
  auto ranges = SecondaryIndexRanges(def, lower, upper);
  IdxLookupsCounter()->Add(1);
  if (box != nullptr || temporal) IdxIntersectionsCounter()->Add(1);
  // Exact recheck of the attribute bounds on the decoded (covering) rows —
  // the numeric key encoding may admit boundary neighbors — composed with
  // spatio-temporal refinement when this is the intersection path.
  auto refine = [this, col, &lower, &upper, box, temporal, t_min,
                 t_max](exec::ColumnBatch* batch) {
    if (box != nullptr || temporal) {
      RefineBatch(batch, box != nullptr ? *box : geo::Mbr::World(), temporal,
                  t_min, t_max);
    }
    if (batch->num_rows() == 0) return;
    const exec::ColumnVector& c = batch->column(static_cast<size_t>(col));
    std::vector<uint32_t> sel;
    sel.reserve(batch->num_active());
    auto in_bounds = [&](uint32_t row) {
      exec::Value v = c.ValueAt(row);
      if (v.is_null()) {
        // NULL orders against nothing: only `col = NULL` holds for it.
        return lower.present && upper.present && lower.value.is_null() &&
               upper.value.is_null();
      }
      if (lower.present) {
        int cmp = v.Compare(lower.value);
        if (cmp < 0 || (cmp == 0 && !lower.inclusive)) return false;
      }
      if (upper.present) {
        int cmp = v.Compare(upper.value);
        if (cmp > 0 || (cmp == 0 && !upper.inclusive)) return false;
      }
      return true;
    };
    if (batch->has_selection()) {
      for (uint32_t row : batch->selection()) {
        if (in_bounds(row)) sel.push_back(row);
      }
    } else {
      for (uint32_t row = 0; row < batch->num_rows(); ++row) {
        if (in_bounds(row)) sel.push_back(row);
      }
    }
    batch->SetSelection(std::move(sel));
  };
  return ScanRangesToBatches(ranges, refine, stats, budget,
                             /*fid_offset=*/0, /*skip_fids=*/nullptr);
}

Result<size_t> StTable::SecondaryIndexProbe(const meta::SecondaryIndexDef& def,
                                            const AttrBound& lower,
                                            const AttrBound& upper,
                                            size_t limit) const {
  auto ranges = SecondaryIndexRanges(def, lower, upper);
  IdxLookupsCounter()->Add(1);
  size_t count = 0;
  for (const curve::KeyRange& range : ranges) {
    if (count >= limit) break;
    JUST_RETURN_NOT_OK(cluster_->Scan(
        range.start, range.end,
        [&](std::string_view, std::string_view) {
          return ++count < limit;
        }));
  }
  return count;
}

Status StTable::Insert(const exec::Row& row) {
  if (strategies_.empty()) {
    return Status::InvalidArgument("table " + meta_.name + " has no indexes");
  }
  return WriteKeys(row, /*delete_instead=*/false);
}

Status StTable::InsertBatch(const std::vector<exec::Row>& rows) {
  return InsertBatchImpl(rows, /*stream=*/false);
}

Status StTable::InsertBatchStream(const std::vector<exec::Row>& rows) {
  return InsertBatchImpl(rows, /*stream=*/true);
}

Status StTable::InsertBatchImpl(const std::vector<exec::Row>& rows,
                                bool stream) {
  if (strategies_.empty()) {
    return Status::InvalidArgument("table " + meta_.name + " has no indexes");
  }
  // Bound the staged batch: index fan-out multiplies rows into keys, and a
  // loader chunk should translate into a handful of group commits, not an
  // unbounded buffer.
  constexpr size_t kMaxOpsPerBatch = 4096;
  std::vector<kv::WriteOp> ops;
  auto commit = [&](std::vector<kv::WriteOp> chunk) -> Status {
    MirrorOpsToBuildJournals(chunk);
    if (stream) {
      return cluster_->IngestBatch(meta_.user, std::move(chunk));
    }
    return cluster_->WriteBatch(std::move(chunk));
  };
  for (const exec::Row& row : rows) {
    JUST_RETURN_NOT_OK(AppendWriteOps(row, /*delete_instead=*/false, &ops));
    if (ops.size() >= kMaxOpsPerBatch) {
      JUST_RETURN_NOT_OK(commit(std::move(ops)));
      ops.clear();
    }
  }
  return commit(std::move(ops));
}

Status StTable::Remove(const exec::Row& row) {
  return WriteKeys(row, /*delete_instead=*/true);
}

Status StTable::Replace(const exec::Row& old_row, const exec::Row& new_row) {
  std::vector<kv::WriteOp> ops;
  JUST_RETURN_NOT_OK(AppendWriteOps(new_row, /*delete_instead=*/false, &ops));
  // Tombstone only the old entries the new row does not overwrite, so the
  // batch is correct regardless of per-key application order within it.
  std::unordered_set<std::string> new_keys;
  new_keys.reserve(ops.size());
  for (const kv::WriteOp& op : ops) new_keys.insert(op.key);
  std::vector<kv::WriteOp> old_ops;
  JUST_RETURN_NOT_OK(
      AppendWriteOps(old_row, /*delete_instead=*/true, &old_ops));
  for (kv::WriteOp& op : old_ops) {
    if (new_keys.count(op.key) == 0) ops.push_back(std::move(op));
  }
  MirrorOpsToBuildJournals(ops);
  return cluster_->WriteBatch(std::move(ops));
}

Result<const curve::IndexStrategy*> StTable::PickIndex(bool temporal) const {
  if (strategies_.empty()) {
    return Status::InvalidArgument("table " + meta_.name + " has no indexes");
  }
  // Exact category first; otherwise any index can answer (with weaker
  // filtering).
  for (const auto& strategy : strategies_) {
    if (curve::IsSpatioTemporal(strategy->type()) == temporal) {
      return strategy.get();
    }
  }
  return strategies_.front().get();
}

void StTable::RefineBatch(exec::ColumnBatch* batch, const geo::Mbr& box,
                          bool temporal, TimestampMs t_min,
                          TimestampMs t_max) const {
  using Storage = exec::ColumnVector::Storage;
  const exec::ColumnVector* gcol =
      geom_col_ >= 0 ? &batch->column(static_cast<size_t>(geom_col_))
                     : nullptr;
  // Geometry and trajectory cells live in object storage; a non-object
  // geometry column means runtime values of a non-geometry type, which the
  // refinement passes through (same as the row-at-a-time check).
  if (gcol != nullptr && gcol->storage() != Storage::kObject) gcol = nullptr;
  const exec::ColumnVector* tcol =
      time_col_ >= 0 ? &batch->column(static_cast<size_t>(time_col_))
                     : nullptr;
  const bool t_typed = tcol != nullptr && tcol->storage() == Storage::kInt64 &&
                       tcol->declared_type() == exec::DataType::kTimestamp;
  const int64_t* t_data = t_typed ? tcol->i64_data() : nullptr;

  std::vector<uint32_t> sel;
  sel.reserve(batch->num_rows());
  for (uint32_t row = 0; row < batch->num_rows(); ++row) {
    // Exact refinement (contained ranges still need the time check for
    // extent indexes; cheap relative to decode).
    bool keep = true;
    const traj::Trajectory* traj = nullptr;
    if (gcol != nullptr) {
      const exec::Value& g = gcol->ObjectAt(row);
      if (g.type() == exec::DataType::kGeometry) {
        keep = g.geometry_value().Within(box);
      } else if (g.type() == exec::DataType::kTrajectory &&
                 g.trajectory_value() != nullptr) {
        traj = g.trajectory_value().get();
        keep = box.Intersects(traj->Bounds());
      }
    }
    if (keep && temporal) {
      // A NULL time never matches a window; a table without a time column
      // is windowed by its trajectories' start times.
      bool have_t = false;
      TimestampMs t = 0;
      if (t_typed) {
        have_t = !tcol->IsNull(row);
        if (have_t) t = t_data[row];
      } else if (tcol != nullptr) {
        have_t = tcol->storage() == Storage::kObject &&
                 tcol->ObjectAt(row).type() == exec::DataType::kTimestamp;
        if (have_t) t = tcol->ObjectAt(row).timestamp_value();
      } else if (traj != nullptr) {
        have_t = true;
        t = traj->start_time();
      }
      keep = have_t && t >= t_min && t <= t_max;
    }
    if (keep) sel.push_back(row);
  }
  batch->SetSelection(std::move(sel));
}

Result<exec::BatchVector> StTable::RunRangesBatch(
    const std::vector<curve::KeyRange>& ranges, const geo::Mbr& box,
    bool temporal, TimestampMs t_min, TimestampMs t_max, QueryStats* stats,
    int fid_offset, const std::unordered_set<std::string>* skip_fids,
    const ScanBudget* budget) const {
  auto refine = [this, &box, temporal, t_min, t_max](exec::ColumnBatch* b) {
    RefineBatch(b, box, temporal, t_min, t_max);
  };
  return ScanRangesToBatches(ranges, refine, stats, budget, fid_offset,
                             skip_fids);
}

Result<exec::BatchVector> StTable::SpatialRangeQueryBatch(
    const geo::Mbr& box, QueryStats* stats, const ScanBudget* budget) const {
  return SpatialRangeQueryInternalBatch(box, stats, nullptr, budget);
}

Result<exec::BatchVector> StTable::SpatialRangeQueryInternalBatch(
    const geo::Mbr& box, QueryStats* stats,
    const std::unordered_set<std::string>* skip_fids,
    const ScanBudget* budget) const {
  JUST_ASSIGN_OR_RETURN(const curve::IndexStrategy* strategy,
                        PickIndex(/*temporal=*/false));
  size_t slot = 0;
  for (size_t i = 0; i < strategies_.size(); ++i) {
    if (strategies_[i].get() == strategy) slot = i;
  }
  auto ranges = WrapRanges(slot, strategy->QueryRanges(box, INT64_MIN,
                                                       INT64_MAX));
  // Table/index prefix (5 bytes) is spliced in after the shard byte.
  int fid_offset = strategy->FidOffset() + 5;
  return RunRangesBatch(ranges, box, /*temporal=*/false, 0, 0, stats,
                        fid_offset, skip_fids, budget);
}

Result<exec::BatchVector> StTable::StRangeQueryBatch(
    const geo::Mbr& box, TimestampMs t_min, TimestampMs t_max,
    QueryStats* stats, const ScanBudget* budget) const {
  JUST_ASSIGN_OR_RETURN(const curve::IndexStrategy* strategy,
                        PickIndex(/*temporal=*/true));
  size_t slot = 0;
  for (size_t i = 0; i < strategies_.size(); ++i) {
    if (strategies_[i].get() == strategy) slot = i;
  }
  auto ranges = WrapRanges(slot, strategy->QueryRanges(box, t_min, t_max));
  return RunRangesBatch(ranges, box, /*temporal=*/true, t_min, t_max, stats,
                        strategy->FidOffset() + 5, nullptr, budget);
}

Result<exec::BatchVector> StTable::KnnQueryBatch(const geo::Point& q, int k,
                                                 QueryStats* stats) const {
  // Algorithm 1. cq: max-heap of (distance, row) keeping the k nearest;
  // aq: min-heap of areas ordered by dA(q, a) (Eq. 4).
  struct Candidate {
    double dist;
    exec::Row row;
    bool operator<(const Candidate& o) const { return dist < o.dist; }
  };
  std::vector<Candidate> cq;  // max-heap: front = farthest kept
  struct Area {
    double dist;
    geo::Mbr box;
    bool operator<(const Area& o) const { return dist > o.dist; }  // min-heap
  };
  std::priority_queue<Area> aq;
  if (k > 0) aq.push(Area{0.0, geo::Mbr::World()});
  double dmax = 0;
  std::unordered_set<std::string> seen_fids;

  // Offers every active row of `batches` to cq. Fid and geometry are read
  // from the columns; a row is materialized only when it enters cq. A fid
  // already offered (by an earlier area) is skipped.
  auto offer = [&](const exec::BatchVector& batches) {
    using Storage = exec::ColumnVector::Storage;
    for (const exec::ColumnBatch& batch : batches) {
      const exec::ColumnVector* fcol =
          fid_col_ >= 0 ? &batch.column(static_cast<size_t>(fid_col_))
                        : nullptr;
      const exec::ColumnVector* gcol =
          geom_col_ >= 0 ? &batch.column(static_cast<size_t>(geom_col_))
                         : nullptr;
      // A non-object geometry column holds no geometry: distance 0.
      if (gcol != nullptr && gcol->storage() != Storage::kObject) {
        gcol = nullptr;
      }
      auto offer_row = [&](uint32_t row) {
        if (fcol != nullptr) {
          std::string fid =
              fcol->storage() == Storage::kString && !fcol->IsNull(row)
                  ? fcol->StringAt(row)
                  : fcol->ValueAt(row).ToString();
          if (!fid.empty() && !seen_fids.insert(std::move(fid)).second) {
            return;
          }
        }
        double dist = 0;
        if (gcol != nullptr) {
          const exec::Value& g = gcol->ObjectAt(row);
          if (g.type() == exec::DataType::kGeometry) {
            dist = g.geometry_value().Distance(q);
          } else if (g.type() == exec::DataType::kTrajectory &&
                     g.trajectory_value() != nullptr) {
            dist = g.trajectory_value()->Bounds().MinDistance(q);
          }
        }
        if (static_cast<int>(cq.size()) == k) {
          if (dist >= cq.front().dist) return;
          std::pop_heap(cq.begin(), cq.end());
          cq.pop_back();
        }
        cq.push_back(Candidate{dist, batch.MaterializeRow(row)});
        std::push_heap(cq.begin(), cq.end());
        dmax = cq.front().dist;
      };
      if (batch.has_selection()) {
        for (uint32_t row : batch.selection()) offer_row(row);
      } else {
        for (uint32_t row = 0; row < batch.num_rows(); ++row) offer_row(row);
      }
    }
  };

  // Degenerate-input guard: when k approaches the table size the expansion
  // cannot prune and would enumerate the whole quadtree; fall back to a
  // sequential scan after a bounded number of area queries.
  constexpr size_t kMaxAreaQueries = 1024;
  size_t area_queries = 0;

  while (!aq.empty()) {
    Area a = aq.top();
    aq.pop();
    if (static_cast<int>(cq.size()) == k && a.dist > dmax) {
      break;  // Lemma 1: area pruning
    }
    if (area_queries >= kMaxAreaQueries) {
      JUST_ASSIGN_OR_RETURN(auto all, FullScanBatch(stats));
      offer(all);
      break;
    }
    if (a.box.Width() > kMinKnnAreaDeg || a.box.Height() > kMinKnnAreaDeg) {
      double lng_mid = (a.box.lng_min + a.box.lng_max) / 2;
      double lat_mid = (a.box.lat_min + a.box.lat_max) / 2;
      geo::Mbr children[4] = {
          {a.box.lng_min, a.box.lat_min, lng_mid, lat_mid},
          {lng_mid, a.box.lat_min, a.box.lng_max, lat_mid},
          {a.box.lng_min, lat_mid, lng_mid, a.box.lat_max},
          {lng_mid, lat_mid, a.box.lng_max, a.box.lat_max},
      };
      for (const geo::Mbr& child : children) {
        aq.push(Area{child.MinDistance(q), child});
      }
      continue;
    }
    ++area_queries;
    JUST_ASSIGN_OR_RETURN(
        auto partial,
        SpatialRangeQueryInternalBatch(a.box, stats, &seen_fids));
    offer(partial);
  }

  std::sort_heap(cq.begin(), cq.end());  // nearest first
  exec::ColumnBatch out(meta_.MakeSchema());
  for (Candidate& c : cq) out.AppendRow(std::move(c.row));
  exec::BatchVector result;
  result.push_back(std::move(out));
  return result;
}

Result<exec::BatchVector> StTable::FullScanBatch(
    QueryStats* stats, const ScanBudget* budget) const {
  if (strategies_.empty()) {
    return Status::InvalidArgument("table " + meta_.name + " has no indexes");
  }
  std::vector<curve::KeyRange> ranges;
  int shards = strategies_[0]->options().num_shards;
  for (int shard = 0; shard < shards; ++shard) {
    curve::KeyRange range;
    range.start.push_back(static_cast<char>(shard));
    range.start += IndexPrefix(0);
    range.end.push_back(static_cast<char>(shard));
    std::string end_prefix = IndexPrefix(0);
    // Successor of the 5-byte prefix: bump the index-slot byte.
    end_prefix.back() = static_cast<char>(end_prefix.back() + 1);
    range.end += end_prefix;
    ranges.push_back(std::move(range));
  }
  return ScanRangesToBatches(ranges, /*refine=*/nullptr, stats, budget,
                             /*fid_offset=*/0, /*skip_fids=*/nullptr);
}

}  // namespace just::core
