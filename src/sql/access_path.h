#ifndef JUST_SQL_ACCESS_PATH_H_
#define JUST_SQL_ACCESS_PATH_H_

#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/ast.h"

namespace just::sql {

/// The physical access path chosen for one table scan. Shared by the
/// executor and by EXPLAIN's plan annotation, so the path the plan prints is
/// the path the executor runs.
struct AccessPath {
  enum class Kind {
    kKnn,               ///< geom IN st_KNN(...) expansion
    kStRange,           ///< curve index, box + time window
    kSpatialRange,      ///< curve index, box only
    kTemporalRange,     ///< curve index, whole-earth + time window
    kSecondaryIndex,    ///< secondary index point/range lookup drives alone
    kIndexIntersection, ///< secondary index drives, spatio-temporal refines
    kFullScan,
  };

  Kind kind = Kind::kFullScan;
  /// EXPLAIN's `access` attribute / plan annotation.
  const char* label = "full_scan";

  bool have_box = false;
  geo::Mbr box{};
  /// The time window folded from BETWEEN and comparison conjuncts on the
  /// time column; INT64_MIN / INT64_MAX mark an open end, and t_min > t_max
  /// an empty window.
  bool have_time = false;
  TimestampMs t_min = std::numeric_limits<TimestampMs>::min();
  TimestampMs t_max = std::numeric_limits<TimestampMs>::max();
  geo::Point knn_query{};
  int knn_k = 0;
  /// kSecondaryIndex / kIndexIntersection: the indexed column + bounds.
  std::string index_column;
  core::AttrBound lower, upper;
  /// Conjuncts the chosen path does not answer; the executor runs them as a
  /// residual filter.
  std::vector<const Expr*> residual;
};

/// Flattens an AND tree into conjuncts (borrowed pointers).
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out);

/// Chooses the access path for `conjuncts` over `table_meta`. Priorities:
/// k-NN first (its expansion protocol subsumes everything), then a `ready`
/// secondary index over a bounded column — alone when no spatio-temporal
/// predicate competes, otherwise decided by a cardinality probe against
/// `index_intersection_threshold` (few index entries: the index drives and
/// spatio-temporal refinement filters; many: the curve index drives and the
/// attribute bounds demote to residual work) — then the curve paths, and
/// finally a full scan.
///
/// Every BETWEEN and `=`/`<`/`<=`/`>`/`>=` comparison of the time column with
/// a time literal (either side; int, timestamp or date string) intersects
/// into one window, so `time >= a AND time <= b` runs on Z2T/XZ2T like
/// BETWEEN. Comparisons stay residual when the time column has a ready
/// secondary index (they bound it instead); the whole window stays residual
/// beside a box when an end is open (the box drives alone).
Result<AccessPath> ChooseAccessPath(core::JustEngine* engine,
                                    const std::string& user,
                                    const meta::TableMeta& table_meta,
                                    const std::vector<const Expr*>& conjuncts);

}  // namespace just::sql

#endif  // JUST_SQL_ACCESS_PATH_H_
