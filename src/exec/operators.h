#ifndef JUST_EXEC_OPERATORS_H_
#define JUST_EXEC_OPERATORS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/dataframe.h"

namespace just::exec {

/// Relational operators over DataFrames: the Spark SQL subset JUST pushes
/// complex predicates, aggregates, and joins to (Section VI, SQL Execute).
/// All operators are pure: they build a new DataFrame.

/// Keeps rows for which `pred` returns true.
DataFrame Filter(const DataFrame& input,
                 const std::function<bool(const Row&)>& pred);

/// Keeps the named columns, in order.
Result<DataFrame> Project(const DataFrame& input,
                          const std::vector<std::string>& columns);

struct SortKey {
  std::string column;
  bool ascending = true;
};

/// Stable multi-key sort.
Result<DataFrame> Sort(const DataFrame& input,
                       const std::vector<SortKey>& keys);

DataFrame Limit(const DataFrame& input, size_t n);

/// Aggregate functions for GROUP BY.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

struct Aggregate {
  AggFunc func = AggFunc::kCount;
  std::string column;  ///< ignored for COUNT(*) — pass ""
  std::string output_name;
};

/// Hash aggregation; with empty `group_by` produces one global row.
Result<DataFrame> GroupBy(const DataFrame& input,
                          const std::vector<std::string>& group_by,
                          const std::vector<Aggregate>& aggregates);

/// Inner hash join on `left_col` == `right_col`. Right columns that clash
/// with left names get a "_r" suffix.
Result<DataFrame> HashJoin(const DataFrame& left, const DataFrame& right,
                           const std::string& left_col,
                           const std::string& right_col);

}  // namespace just::exec

#endif  // JUST_EXEC_OPERATORS_H_
