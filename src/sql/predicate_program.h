#ifndef JUST_SQL_PREDICATE_PROGRAM_H_
#define JUST_SQL_PREDICATE_PROGRAM_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "exec/column_batch.h"
#include "geo/geometry.h"
#include "sql/ast.h"
#include "sql/expr_eval.h"

namespace just::sql {

/// Timing/accounting for one program execution, split by evaluation mode so
/// EXPLAIN ANALYZE can show interpreted vs specialized time per operator.
struct PredicateStats {
  uint64_t specialized_ns = 0;  ///< time in flat type-specialized kernels
  uint64_t interpreted_ns = 0;  ///< time in the EvaluateExpr fallback
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

/// A predicate compiled once per query into a flat sequence of vectorized
/// steps (the retrieved JIT papers' lever: stop re-interpreting the
/// expression tree per tuple, without shipping LLVM). Compilation:
///   - splits the conjunction and compiles each conjunct separately,
///   - constant-folds column-free subtrees (constant conjuncts drop out or
///     collapse the program to "select nothing"),
///   - type-specializes each conjunct against the input schema with column
///     offsets bound at compile time,
///   - orders steps cheapest-kernel-first so expensive work (geometry,
///     interpreted fallback) runs on the smallest surviving selection,
///   - keeps any conjunct it cannot specialize as an interpreted fallback
///     step over the same selection pipeline (EvaluateExpr per surviving
///     row, with bound column offsets) — the differential-test oracle and
///     the guarantee that every expression shape still executes.
///
/// A program owns clones of the expressions it needs, so it can outlive the
/// query that compiled it (plan cache). Run() filters a batch's selection
/// vector in place; rows whose evaluation errors are dropped, matching the
/// row-at-a-time Filter convention.
class PredicateProgram {
 public:
  /// Compiles `conjuncts` (implicitly ANDed) against `schema`. A string
  /// literal compared with a timestamp column compiles to a timestamp
  /// constant; one that is not a date fails the compile.
  static Result<std::shared_ptr<const PredicateProgram>> Compile(
      const std::vector<const Expr*>& conjuncts, const exec::Schema& schema);
  /// Splits `predicate` into conjuncts and compiles them.
  static Result<std::shared_ptr<const PredicateProgram>> Compile(
      const Expr& predicate, const exec::Schema& schema);

  /// Filters `batch`'s selection vector in place.
  Status Run(exec::ColumnBatch* batch, PredicateStats* stats = nullptr) const;

  size_t num_steps() const { return steps_.size(); }
  size_t num_fallback_steps() const { return fallback_steps_; }
  bool fully_specialized() const { return fallback_steps_ == 0; }
  /// "specialized", "partial", or "interpreted" — the EXPLAIN attribute.
  const char* ModeLabel() const;

  std::string DebugString() const;

  PredicateProgram(const PredicateProgram&) = delete;
  PredicateProgram& operator=(const PredicateProgram&) = delete;

 private:
  friend struct PredicateCompiler;
  PredicateProgram() = default;

  enum class CmpKind : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

  struct Step {
    enum class Op : uint8_t {
      kConstFalse,      ///< whole predicate folded to false
      kNumericCmp,      ///< numeric column vs non-null numeric constant
      kNumericBetween,  ///< numeric column BETWEEN numeric constants
      kStringCmp,       ///< string column vs string constant
      kValueCmp,        ///< any column vs constant via Value::Compare
      kValueBetween,    ///< any column BETWEEN constants via Value::Compare
      kColumnCmp,       ///< column vs column via Value::Compare
      kWithinBox,       ///< geometry/trajectory column WITHIN a constant box
      kFallback,        ///< interpreted EvaluateExpr over surviving rows
    };

    Op op = Op::kFallback;
    CmpKind cmp = CmpKind::kEq;
    int col = -1;
    int col2 = -1;
    double num_lo = 0;  ///< kNumericCmp constant / kNumericBetween low
    double num_hi = 0;
    exec::Value value_lo;  ///< kValueCmp constant / kValueBetween low
    exec::Value value_hi;
    std::string str_const;
    geo::Mbr box{};
    /// kFallback: the cloned conjunct plus its bound column offsets.
    std::unique_ptr<Expr> fallback;
    BoundExpr bound;
    int cost = 0;  ///< ordering key; higher = run later on fewer rows
  };

  /// cmp(c, 0) for a three-way compare result c.
  static bool CmpHolds(CmpKind cmp, int c);
  /// `a cmp b` by Value::Compare, except that an ordering comparison with a
  /// NULL operand never holds (= and != compare NULL as a value).
  static bool ValueCmpHolds(CmpKind cmp, const exec::Value& a,
                            const exec::Value& b);

  void RunStep(const Step& step, const exec::ColumnBatch& batch,
               const std::vector<uint32_t>& in,
               std::vector<uint32_t>* out) const;

  std::vector<Step> steps_;
  size_t fallback_steps_ = 0;
};

/// Process-wide cache of compiled predicate programs, keyed by
/// (catalog tag, schema shape, normalized predicate text). Entry-capped LRU
/// with hit/miss/eviction counters in the metrics registry
/// (just_sql_plan_cache_{hits,misses,evictions}_total).
class PredicateProgramCache {
 public:
  static PredicateProgramCache& Global();

  explicit PredicateProgramCache(size_t capacity = 128);

  /// Returns the cached program for (cache_tag, schema, conjuncts),
  /// compiling and inserting on miss. `cache_tag` folds the source table's
  /// identity and catalog generation into the key ("table_id:generation"),
  /// so dropping and recreating a same-shaped table — or any index DDL —
  /// can never serve a program compiled against the old catalog entry.
  /// Scans without a catalog-backed source (views, derived inputs) pass "".
  Result<std::shared_ptr<const PredicateProgram>> GetOrCompile(
      const std::vector<const Expr*>& conjuncts, const exec::Schema& schema,
      const std::string& cache_tag = "");

  size_t size() const;
  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }
  uint64_t evictions() const { return evictions_.load(); }
  void Clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const PredicateProgram> program;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> map_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace just::sql

#endif  // JUST_SQL_PREDICATE_PROGRAM_H_
