#include "curve/index_strategy.h"

#include <algorithm>
#include <cctype>

#include "common/bytes.h"

namespace just::curve {

namespace {

constexpr uint32_t kPeriodBias = 1u << 31;
// Periods the 4-byte period field can hold (AppendPeriod biases by 2^31).
constexpr int64_t kMinPeriod = -static_cast<int64_t>(kPeriodBias);
constexpr int64_t kMaxPeriod = static_cast<int64_t>(kPeriodBias) - 1;
// Most key ranges a box with a closed window may plan, bounding periods x
// shards x max_ranges_per_period. A day-long window plans at most two
// periods (three with XZ2T's leading one); past the cap the query scans
// its per-shard period spans and refinement applies the box.
constexpr int64_t kMaxPlannedRanges = int64_t{1} << 16;

// FNV-1a over the fid; stable across runs so shards are deterministic.
uint64_t HashFid(const std::string& fid) {
  uint64_t h = 14695981039346656037ull;
  for (char c : fid) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Appends an SFC value range for one shard (and optional period) as a byte
// KeyRange. `hi` is inclusive; the end key is computed as hi + 1 in the
// 8-byte big-endian space, or the prefix successor on overflow.
void AppendRangesForPrefix(const std::string& prefix,
                           const std::vector<SfcRange>& sfc_ranges,
                           std::vector<KeyRange>* out) {
  for (const SfcRange& r : sfc_ranges) {
    KeyRange kr;
    kr.contained = r.contained;
    kr.start = prefix;
    PutFixed64BE(&kr.start, r.lo);
    kr.end = prefix;
    if (r.hi == UINT64_MAX) {
      // End = prefix successor: bump the last prefix byte (prefix is never
      // empty here: it includes at least the shard byte).
      PutFixed64BE(&kr.end, r.hi);
      kr.end.push_back('\xff');  // just past any key with this sfc value
    } else {
      PutFixed64BE(&kr.end, r.hi + 1);
    }
    out->push_back(std::move(kr));
  }
}

class Z2Strategy : public IndexStrategy {
 public:
  explicit Z2Strategy(const IndexOptions& options)
      : IndexStrategy(IndexType::kZ2, options), sfc_(options.z2_bits) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key;
    key.push_back(static_cast<char>(ShardOf(record.fid)));
    PutFixed64BE(&key, sfc_.Index(record.mbr.Center()));
    key += record.fid;
    return key;
  }

  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs,
                                    TimestampMs) const override {
    auto sfc_ranges = sfc_.Ranges(box, options_.max_ranges_per_period);
    std::vector<KeyRange> out;
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      std::string prefix(1, static_cast<char>(shard));
      AppendRangesForPrefix(prefix, sfc_ranges, &out);
    }
    return out;
  }

 private:
  Z2Sfc sfc_;
};

class Xz2Strategy : public IndexStrategy {
 public:
  explicit Xz2Strategy(const IndexOptions& options)
      : IndexStrategy(IndexType::kXz2, options),
        sfc_(options.xz2_resolution) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key;
    key.push_back(static_cast<char>(ShardOf(record.fid)));
    PutFixed64BE(&key, sfc_.Index(record.mbr));
    key += record.fid;
    return key;
  }

  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs,
                                    TimestampMs) const override {
    auto sfc_ranges = sfc_.Ranges(box, options_.max_ranges_per_period);
    std::vector<KeyRange> out;
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      std::string prefix(1, static_cast<char>(shard));
      AppendRangesForPrefix(prefix, sfc_ranges, &out);
    }
    return out;
  }

 private:
  Xz2Sfc sfc_;
};

// Shared period plumbing for the four time-aware strategies. QueryRanges
// emits shard-major, period-ascending ranges, so the output is sorted and
// disjoint.
class TimeAwareStrategy : public IndexStrategy {
 public:
  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs t_min,
                                    TimestampMs t_max) const final {
    std::vector<KeyRange> out;
    if (t_min > t_max) return out;  // empty window
    const int64_t first = PeriodOf(t_min) - LeadingPeriods();
    const int64_t last = PeriodOf(t_max);
    // A window reaching past the period field (an open end, INT64_MIN /
    // INT64_MAX, or a far date) would plan billions of periods, and a long
    // closed one more ranges than kMaxPlannedRanges, so it scans its period
    // span per shard and refinement applies the box. So does a whole-earth
    // box when time is not in the curve: one shard's keys of the qualifying
    // periods are contiguous. The bound is checked before any period is
    // decomposed, since Z3/XZ3 decompose each one.
    const int64_t ranges_per_period =
        int64_t{options_.num_shards} *
        std::max(1, options_.max_ranges_per_period);
    if (first < kMinPeriod || last > kMaxPeriod ||
        last - first + 1 > kMaxPlannedRanges / ranges_per_period ||
        (!TimeInCurve() && box.Contains(geo::Mbr::World()))) {
      for (int shard = 0; shard < options_.num_shards; ++shard) {
        out.push_back(PeriodSpan(shard, first, last));
      }
      return out;
    }
    // Without time in the curve one decomposition serves every period.
    const int64_t window_first = PeriodOf(t_min);
    const int64_t decomposed_last = TimeInCurve() ? last : first;
    std::vector<std::vector<SfcRange>> per_period;
    for (int64_t period = first; period <= decomposed_last; ++period) {
      double t0 = period == window_first ? FracOf(t_min, period) : 0.0;
      double t1 = period == last ? FracOf(t_max, period) : 1.0;
      per_period.push_back(PeriodRanges(box, t0, t1));
    }
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      for (int64_t period = first; period <= last; ++period) {
        const int64_t i = std::min(period, decomposed_last) - first;
        AppendRangesForPrefix(PrefixFor(shard, period),
                              per_period[static_cast<size_t>(i)], &out);
      }
    }
    return out;
  }

 protected:
  using IndexStrategy::IndexStrategy;

  /// SFC ranges of `box` within one qualified period; [t0, t1] is the
  /// window's fraction of that period.
  virtual std::vector<SfcRange> PeriodRanges(const geo::Mbr& box, double t0,
                                             double t1) const = 0;
  /// True when the curve encodes time within the period (Z3/XZ3), so each
  /// period needs its own decomposition.
  virtual bool TimeInCurve() const { return false; }
  /// Periods scanned before the window's first one.
  virtual int64_t LeadingPeriods() const { return 0; }

  int64_t PeriodOf(TimestampMs t) const {
    return TimePeriodNumber(t, options_.period_len_ms);
  }

  // Within-period fraction of t, clamped to [0, 1].
  double FracOf(TimestampMs t, int64_t period) const {
    TimestampMs start = TimePeriodStart(period, options_.period_len_ms);
    double f = static_cast<double>(t - start) /
               static_cast<double>(options_.period_len_ms);
    return std::clamp(f, 0.0, 1.0);
  }

  std::string PrefixFor(int shard, int64_t period) const {
    std::string prefix(1, static_cast<char>(shard));
    AppendPeriod(&prefix, period);
    return prefix;
  }

  // Every key of `shard` whose period lies in [first, last], each end
  // saturated to the period field; the end is past any key of `last`, as
  // AppendRangesForPrefix ends an sfc range at UINT64_MAX.
  KeyRange PeriodSpan(int shard, int64_t first, int64_t last) const {
    KeyRange kr;
    kr.start = PrefixFor(shard, first);
    kr.end = PrefixFor(shard, last);
    kr.end.append(sizeof(uint64_t) + 1, '\xff');
    return kr;
  }
};

class Z3Strategy : public TimeAwareStrategy {
 public:
  explicit Z3Strategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kZ3, options), sfc_(options.z3_bits) {}

  std::string EncodeKey(const RecordRef& record) const override {
    int64_t period = PeriodOf(record.t_min);
    std::string key = PrefixFor(ShardOf(record.fid), period);
    PutFixed64BE(&key,
                 sfc_.Index(record.mbr.Center(), FracOf(record.t_min, period)));
    key += record.fid;
    return key;
  }

 protected:
  std::vector<SfcRange> PeriodRanges(const geo::Mbr& box, double t0,
                                     double t1) const override {
    return sfc_.Ranges(box, t0, t1, options_.max_ranges_per_period);
  }
  bool TimeInCurve() const override { return true; }

 private:
  Z3Sfc sfc_;
};

class Xz3Strategy : public TimeAwareStrategy {
 public:
  explicit Xz3Strategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kXz3, options),
        sfc_(options.xz3_resolution) {}

  std::string EncodeKey(const RecordRef& record) const override {
    // XZ3 bins the record by its start time (as XZ2T does, Section IV-C).
    int64_t period = PeriodOf(record.t_min);
    std::string key = PrefixFor(ShardOf(record.fid), period);
    PutFixed64BE(&key, sfc_.Index(record.mbr, FracOf(record.t_min, period),
                                  FracOf(record.t_max, period)));
    key += record.fid;
    return key;
  }

 protected:
  std::vector<SfcRange> PeriodRanges(const geo::Mbr& box, double t0,
                                     double t1) const override {
    return sfc_.Ranges(box, t0, t1, options_.max_ranges_per_period);
  }
  bool TimeInCurve() const override { return true; }

 private:
  Xz3Sfc sfc_;
};

/// Z2T (Eq. 2): Num(t) :: Z2(lng, lat). A full-resolution Z2 curve inside
/// each time period keeps spatial filtering effective regardless of the
/// time-window / period-length ratio.
class Z2TStrategy : public TimeAwareStrategy {
 public:
  explicit Z2TStrategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kZ2T, options), sfc_(options.z2_bits) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key =
        PrefixFor(ShardOf(record.fid), PeriodOf(record.t_min));
    PutFixed64BE(&key, sfc_.Index(record.mbr.Center()));
    key += record.fid;
    return key;
  }

 protected:
  // The spatial decomposition is shared by every qualified period.
  std::vector<SfcRange> PeriodRanges(const geo::Mbr& box, double,
                                     double) const override {
    return sfc_.Ranges(box, options_.max_ranges_per_period);
  }

 private:
  Z2Sfc sfc_;
};

/// XZ2T (Eq. 3): Num(t_min) :: XZ2(mbr). The non-point analogue of Z2T.
class Xz2TStrategy : public TimeAwareStrategy {
 public:
  explicit Xz2TStrategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kXz2T, options),
        sfc_(options.xz2_resolution) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key =
        PrefixFor(ShardOf(record.fid), PeriodOf(record.t_min));
    PutFixed64BE(&key, sfc_.Index(record.mbr));
    key += record.fid;
    return key;
  }

 protected:
  std::vector<SfcRange> PeriodRanges(const geo::Mbr& box, double,
                                     double) const override {
    auto ranges = sfc_.Ranges(box, options_.max_ranges_per_period);
    // Extent ranges always require refinement against the time window.
    for (SfcRange& r : ranges) r.contained = false;
    return ranges;
  }
  // A record binned by its start time can satisfy a query whose window
  // begins up to one record-duration later; scanning one extra leading
  // period covers records that started in the previous period (the paper
  // stores by Time_start; trajectories are within-day in the datasets).
  int64_t LeadingPeriods() const override { return 1; }

 private:
  Xz2Sfc sfc_;
};

}  // namespace

Result<IndexType> ParseIndexType(const std::string& name) {
  std::string lower;
  for (char c : name) lower += static_cast<char>(std::tolower(c));
  if (lower == "z2") return IndexType::kZ2;
  if (lower == "z3") return IndexType::kZ3;
  if (lower == "xz2") return IndexType::kXz2;
  if (lower == "xz3") return IndexType::kXz3;
  if (lower == "z2t") return IndexType::kZ2T;
  if (lower == "xz2t") return IndexType::kXz2T;
  return Status::InvalidArgument("unknown index type: " + name);
}

std::string IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kZ2:
      return "z2";
    case IndexType::kZ3:
      return "z3";
    case IndexType::kXz2:
      return "xz2";
    case IndexType::kXz3:
      return "xz3";
    case IndexType::kZ2T:
      return "z2t";
    case IndexType::kXz2T:
      return "xz2t";
  }
  return "?";
}

bool IsSpatioTemporal(IndexType type) {
  return type == IndexType::kZ3 || type == IndexType::kXz3 ||
         type == IndexType::kZ2T || type == IndexType::kXz2T;
}

bool IsExtentIndex(IndexType type) {
  return type == IndexType::kXz2 || type == IndexType::kXz3 ||
         type == IndexType::kXz2T;
}

int IndexStrategy::ShardOf(const std::string& fid) const {
  return static_cast<int>(HashFid(fid) % options_.num_shards);
}

void IndexStrategy::AppendPeriod(std::string* key, int64_t period) {
  // A period the field cannot hold saturates, so keys stay in time order:
  // a far date shares the first or last period.
  period = std::clamp(period, kMinPeriod, kMaxPeriod);
  PutFixed32BE(key, static_cast<uint32_t>(period + kPeriodBias));
}

std::unique_ptr<IndexStrategy> IndexStrategy::Create(
    IndexType type, const IndexOptions& options) {
  switch (type) {
    case IndexType::kZ2:
      return std::make_unique<Z2Strategy>(options);
    case IndexType::kZ3:
      return std::make_unique<Z3Strategy>(options);
    case IndexType::kXz2:
      return std::make_unique<Xz2Strategy>(options);
    case IndexType::kXz3:
      return std::make_unique<Xz3Strategy>(options);
    case IndexType::kZ2T:
      return std::make_unique<Z2TStrategy>(options);
    case IndexType::kXz2T:
      return std::make_unique<Xz2TStrategy>(options);
  }
  return nullptr;
}

}  // namespace just::curve
