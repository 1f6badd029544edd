// Differential tests of the columnar execution path against row-at-a-time
// references. Two layers:
//
//  1. PredicateProgram vs BoundExpr::EvalBool on hand-built and randomized
//     frames (NULLs, mixed int/double columns, strings, constant folding,
//     interpreted fallback shapes) — the program must keep exactly the rows
//     the tree-walking evaluator keeps.
//  2. Full SQL statements run through the executor and through a test-local
//     reference that walks the same optimized plan with the DataFrame
//     operators over full scans — the results must match, whatever access
//     path the executor chose.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/time_util.h"
#include "core/engine.h"
#include "exec/column_batch.h"
#include "exec/operators.h"
#include "sql/access_path.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/expr_eval.h"
#include "sql/justql.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/predicate_program.h"
#include "test_util.h"
#include "workload/generators.h"

namespace just::sql {
namespace {

using just::testing::FrameBuilder;
using just::testing::TempDir;

Statement ParsePred(const std::string& pred) {
  auto stmt = ParseStatement("SELECT * FROM t WHERE " + pred);
  EXPECT_TRUE(stmt.ok()) << pred << " -> " << stmt.status().ToString();
  return std::move(*stmt);
}

/// Row-at-a-time oracle: EvaluateExpr with the Filter conventions (NULL is
/// false, evaluation errors drop the row).
std::vector<uint32_t> OracleFilter(const Expr& pred,
                                   const exec::DataFrame& frame) {
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < frame.num_rows(); ++i) {
    auto v = EvaluateExpr(pred, frame.schema(), frame.rows()[i]);
    if (v.ok() && !v->is_null() && v->type() == exec::DataType::kBool &&
        v->bool_value()) {
      kept.push_back(static_cast<uint32_t>(i));
    }
  }
  return kept;
}

/// Vectorized path: compile once, run over the batched frame, flatten the
/// surviving selections back to global row numbers.
std::vector<uint32_t> VectorizedFilter(const Expr& pred,
                                       const exec::DataFrame& frame) {
  auto program = PredicateProgram::Compile(pred, frame.schema());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  exec::BatchVector batches = exec::BatchesFromDataFrame(frame);
  std::vector<uint32_t> kept;
  uint32_t base = 0;
  for (exec::ColumnBatch& batch : batches) {
    uint32_t rows = static_cast<uint32_t>(batch.num_rows());
    EXPECT_TRUE((*program)->Run(&batch).ok());
    if (batch.has_selection()) {
      for (uint32_t row : batch.selection()) kept.push_back(base + row);
    } else {
      for (uint32_t row = 0; row < rows; ++row) kept.push_back(base + row);
    }
    base += rows;
  }
  return kept;
}

void ExpectParity(const std::string& pred, const exec::DataFrame& frame) {
  Statement stmt = ParsePred(pred);
  const Expr& where = *stmt.select->where;
  EXPECT_EQ(OracleFilter(where, frame), VectorizedFilter(where, frame))
      << "predicate: " << pred;
}

exec::DataFrame TypedFrame() {
  FrameBuilder b;
  b.Col("id", exec::DataType::kInt)
      .Col("score", exec::DataType::kDouble)
      .Col("name", exec::DataType::kString)
      .Col("t", exec::DataType::kTimestamp);
  for (int i = 0; i < 50; ++i) {
    exec::Value id = (i % 7 == 3) ? exec::Value::Null() : exec::Value::Int(i);
    exec::Value score = (i % 11 == 5) ? exec::Value::Null()
                                      : exec::Value::Double(i * 0.5 - 3.0);
    b.Row({std::move(id), std::move(score),
           exec::Value::String(i % 2 ? "odd" : "even"),
           exec::Value::Timestamp(1000 + i * 10)});
  }
  return b.Frame();
}

TEST(PredicateParityTest, NumericComparisonsWithNulls) {
  exec::DataFrame frame = TypedFrame();
  for (const char* pred :
       {"id = 21", "id != 21", "id < 10", "id <= 10", "id > 40", "id >= 40",
        "score < 0.0", "score >= 12.5", "id BETWEEN 5 AND 15",
        "score BETWEEN -1.0 AND 4.0", "id > 3 AND score < 20.0",
        "id >= 0 AND id <= 49 AND score > -100.0"}) {
    ExpectParity(pred, frame);
  }
}

TEST(PredicateParityTest, StringAndCrossColumn) {
  exec::DataFrame frame = TypedFrame();
  for (const char* pred :
       {"name = 'odd'", "name != 'even'", "name < 'f'", "id = score",
        "id < score", "name = 'odd' AND id > 25"}) {
    ExpectParity(pred, frame);
  }
}

TEST(PredicateParityTest, ConstantFolding) {
  exec::DataFrame frame = TypedFrame();
  ExpectParity("1 = 1 AND id > 10", frame);   // const-true conjunct drops out
  ExpectParity("1 = 2 AND id > 10", frame);   // whole program folds to false
  ExpectParity("id = 2 + 3 * 4", frame);      // constant subtree folds
  Statement stmt = ParsePred("1 = 2");
  auto program = PredicateProgram::Compile(*stmt.select->where,
                                           frame.schema());
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE((*program)->fully_specialized());
}

TEST(PredicateParityTest, FallbackShapesStayCorrect) {
  exec::DataFrame frame = TypedFrame();
  // Arithmetic over columns has no specialized kernel: it must run through
  // the interpreted fallback step and still agree with the oracle.
  Statement stmt = ParsePred("id + 1 > 10");
  auto program =
      PredicateProgram::Compile(*stmt.select->where, frame.schema());
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE((*program)->fully_specialized());
  EXPECT_STREQ((*program)->ModeLabel(), "interpreted");
  for (const char* pred :
       {"id + 1 > 10", "score * 2.0 < id", "id / 2 = 5 AND score > 0.0"}) {
    ExpectParity(pred, frame);
  }
  // Mixed specialized + fallback steps -> "partial".
  Statement mixed = ParsePred("id > 3 AND id + 1 > 10");
  auto partial =
      PredicateProgram::Compile(*mixed.select->where, frame.schema());
  ASSERT_TRUE(partial.ok());
  EXPECT_STREQ((*partial)->ModeLabel(), "partial");
}

TEST(PredicateParityTest, MixedIntDoubleColumnDegradesAndAgrees) {
  // A column whose runtime values mix int and double degrades to object
  // storage; comparisons must match Value::Compare's cross-type ordering.
  FrameBuilder b;
  b.Col("x", exec::DataType::kInt);
  for (int i = 0; i < 30; ++i) {
    if (i % 5 == 0) {
      b.Row({exec::Value::Null()});
    } else if (i % 2 == 0) {
      b.Row({exec::Value::Int(i - 10)});
    } else {
      b.Row({exec::Value::Double(i * 0.7 - 9.5)});
    }
  }
  exec::DataFrame frame = b.Frame();
  for (const char* pred : {"x = 2", "x < 0", "x >= 2.5", "x != 4",
                           "x BETWEEN -3 AND 6", "x BETWEEN -2.5 AND 5.5"}) {
    ExpectParity(pred, frame);
  }
}

TEST(PredicateParityTest, RandomizedDifferential) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> val(-20, 20);
  std::uniform_int_distribution<int> pick(0, 9);
  FrameBuilder b;
  b.Col("a", exec::DataType::kInt).Col("b", exec::DataType::kDouble);
  for (int i = 0; i < 500; ++i) {
    exec::Value a =
        pick(rng) == 0 ? exec::Value::Null() : exec::Value::Int(val(rng));
    exec::Value bv = pick(rng) == 0 ? exec::Value::Null()
                                    : exec::Value::Double(val(rng) * 0.25);
    b.Row({std::move(a), std::move(bv)});
  }
  exec::DataFrame frame = b.Frame();
  const char* cmps[] = {"=", "!=", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 40; ++trial) {
    std::string pred = std::string("a ") + cmps[trial % 6] + " " +
                       std::to_string(val(rng));
    if (trial % 2) {
      pred += " AND b " + std::string(cmps[(trial + 3) % 6]) + " " +
              std::to_string(val(rng) * 0.25);
    }
    ExpectParity(pred, frame);
  }
}

TEST(PredicateProgramCacheTest, HitsMissesEvictions) {
  PredicateProgramCache cache(2);
  exec::DataFrame frame = TypedFrame();
  Statement s1 = ParsePred("id > 1");
  Statement s2 = ParsePred("id > 2");
  Statement s3 = ParsePred("id > 3");
  std::vector<const Expr*> c1 = {s1.select->where.get()};
  std::vector<const Expr*> c2 = {s2.select->where.get()};
  std::vector<const Expr*> c3 = {s3.select->where.get()};
  ASSERT_TRUE(cache.GetOrCompile(c1, frame.schema()).ok());
  ASSERT_TRUE(cache.GetOrCompile(c1, frame.schema()).ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_TRUE(cache.GetOrCompile(c2, frame.schema()).ok());
  ASSERT_TRUE(cache.GetOrCompile(c3, frame.schema()).ok());  // evicts c1
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrCompile(c1, frame.schema()).ok());  // miss again
  EXPECT_EQ(cache.misses(), 4u);
}

// --- End-to-end: executor vs a full-scan row-at-a-time reference ---

/// The FilterRows convention: NULL and evaluation errors drop the row.
bool Holds(const Expr& pred, const exec::Schema& schema, const exec::Row& row) {
  auto v = EvaluateExpr(pred, schema, row);
  return v.ok() && v->type() == exec::DataType::kBool && v->bool_value();
}

/// A row's cells rendered in order: the multiset comparison key.
std::string RowKey(const exec::Row& row) {
  std::string key;
  for (const exec::Value& v : row) key += v.ToString() + "\x1f";
  return key;
}

bool HasOrderBy(const PlanNode& plan) {
  if (plan.kind == PlanNode::Kind::kSort) return true;
  for (const auto& child : plan.children) {
    if (HasOrderBy(*child)) return true;
  }
  return false;
}

class ExecutorParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("batch_parity");
    OpenEngine(core::EngineOptions{}.index_intersection_threshold);

    JustQL ql(engine_.get());
    auto created = ql.Execute(
        "tester",
        "CREATE TABLE orders (fid string:primary key, city string, "
        "time date, geom point:srid=4326) "
        "USERDATA {'just.attr.indexes':'city'}");
    ASSERT_TRUE(created.ok()) << created.status().ToString();

    workload::OrderOptions opts;
    opts.num_orders = 600;
    int i = 0;
    for (const auto& order : workload::GenerateOrders(opts)) {
      exec::Row row = {
          exec::Value::String(order.fid),
          exec::Value::String("city" + std::to_string(i++ % 4)),
          exec::Value::Timestamp(order.time),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(order.point))};
      ASSERT_TRUE(engine_->Insert("tester", "orders", row).ok());
    }
    ASSERT_TRUE(engine_->Finalize().ok());
  }

  void OpenEngine(size_t intersection_threshold) {
    engine_.reset();
    core::EngineOptions options;
    options.data_dir = dir_->path();
    options.num_servers = 2;
    options.num_shards = 4;
    options.index_intersection_threshold = intersection_threshold;
    auto engine = core::JustEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  /// Row-at-a-time reference: walks the optimized plan with the DataFrame
  /// operators and EvaluateExpr over a full scan of every table. It never
  /// calls ChooseAccessPath, so each indexed path the executor picks is
  /// checked against the full-scan answer.
  Result<exec::DataFrame> Reference(const PlanNode& plan) {
    switch (plan.kind) {
      case PlanNode::Kind::kScanTable:
        return ReferenceScan(plan, nullptr);
      case PlanNode::Kind::kFilter: {
        const PlanNode& child = *plan.children[0];
        if (child.kind == PlanNode::Kind::kScanTable) {
          return ReferenceScan(child, plan.predicate.get());
        }
        JUST_ASSIGN_OR_RETURN(auto input, Reference(child));
        return exec::Filter(input, [&](const exec::Row& row) {
          return Holds(*plan.predicate, input.schema(), row);
        });
      }
      case PlanNode::Kind::kProject: {
        JUST_ASSIGN_OR_RETURN(auto input, Reference(*plan.children[0]));
        exec::DataFrame out(plan.schema);
        for (const exec::Row& row : input.rows()) {
          exec::Row projected;
          for (const auto& item : plan.items) {
            JUST_ASSIGN_OR_RETURN(auto v,
                                  EvaluateExpr(*item.expr, input.schema(), row));
            projected.push_back(std::move(v));
          }
          out.AddRow(std::move(projected));
        }
        return out;
      }
      case PlanNode::Kind::kAggregate: {
        JUST_ASSIGN_OR_RETURN(auto input, Reference(*plan.children[0]));
        return exec::GroupBy(input, plan.group_by, plan.aggregates);
      }
      case PlanNode::Kind::kSort: {
        JUST_ASSIGN_OR_RETURN(auto input, Reference(*plan.children[0]));
        std::vector<exec::SortKey> keys;
        for (const auto& item : plan.order_by) {
          keys.push_back({item.column, item.ascending});
        }
        return exec::Sort(input, keys);
      }
      case PlanNode::Kind::kLimit: {
        JUST_ASSIGN_OR_RETURN(auto input, Reference(*plan.children[0]));
        return exec::Limit(input, static_cast<size_t>(plan.limit));
      }
      case PlanNode::Kind::kJoin: {
        JUST_ASSIGN_OR_RETURN(auto left, Reference(*plan.children[0]));
        JUST_ASSIGN_OR_RETURN(auto right, Reference(*plan.children[1]));
        return exec::HashJoin(left, right, plan.join_left_col,
                              plan.join_right_col);
      }
      default:
        return Status::NotSupported("reference: unsupported plan node");
    }
  }

  /// Full scan, filter, then the scan's column pushdown. A
  /// `geom IN st_KNN(p, k)` conjunct keeps the k rows nearest to p.
  Result<exec::DataFrame> ReferenceScan(const PlanNode& scan,
                                        const Expr* predicate) {
    JUST_ASSIGN_OR_RETURN(auto frame, engine_->FullScan("tester", scan.name));
    std::vector<const Expr*> conjuncts;
    if (predicate != nullptr) SplitConjuncts(predicate, &conjuncts);
    for (const Expr* c : conjuncts) {
      if (c->kind == Expr::Kind::kBinary && c->op == BinaryOp::kIn) {
        JUST_ASSIGN_OR_RETURN(frame, NearestRows(frame, *c));
        continue;
      }
      frame = exec::Filter(frame, [&](const exec::Row& row) {
        return Holds(*c, frame.schema(), row);
      });
    }
    if (scan.required_columns.empty()) return frame;
    return exec::Project(frame, scan.required_columns);
  }

  Result<exec::DataFrame> NearestRows(const exec::DataFrame& frame,
                                      const Expr& knn) {
    const Expr& call = *knn.args[1];
    JUST_ASSIGN_OR_RETURN(auto point, EvaluateConstant(*call.args[0]));
    JUST_ASSIGN_OR_RETURN(auto k, EvaluateConstant(*call.args[1]));
    const geo::Point q = point.geometry_value().Bounds().Center();
    int geom = frame.schema().IndexOf(knn.args[0]->column);
    std::vector<std::pair<double, size_t>> by_distance;
    for (size_t r = 0; r < frame.num_rows(); ++r) {
      by_distance.emplace_back(
          frame.rows()[r][static_cast<size_t>(geom)].geometry_value().Distance(
              q),
          r);
    }
    std::sort(by_distance.begin(), by_distance.end());
    by_distance.resize(std::min<size_t>(by_distance.size(),
                                        static_cast<size_t>(k.int_value())));
    exec::DataFrame out(frame.schema_ptr());
    for (const auto& [d, r] : by_distance) out.AddRow(frame.rows()[r]);
    return out;
  }

  /// Runs `sql` through the executor and the reference and requires the
  /// same rows: as multisets, or in order under ORDER BY.
  void ExpectSameResult(const std::string& sql) {
    auto stmt = ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << sql << " -> " << stmt.status().ToString();
    Analyzer analyzer(engine_.get(), "tester");
    auto plan = analyzer.Analyze(*stmt->select);
    ASSERT_TRUE(plan.ok()) << sql << " -> " << plan.status().ToString();
    auto optimized = Optimize(std::move(*plan));
    ASSERT_TRUE(optimized.ok()) << sql;
    Executor executor(engine_.get(), "tester");
    auto actual = executor.Execute(**optimized);
    auto expected = Reference(**optimized);
    ASSERT_TRUE(actual.ok()) << sql << " -> " << actual.status().ToString();
    ASSERT_TRUE(expected.ok()) << sql << " -> "
                               << expected.status().ToString();
    ASSERT_EQ(expected->schema().ToString(), actual->schema().ToString())
        << sql;
    std::vector<std::string> want, got;
    for (const exec::Row& row : expected->rows()) want.push_back(RowKey(row));
    for (const exec::Row& row : actual->rows()) got.push_back(RowKey(row));
    if (!HasOrderBy(**optimized)) {
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
    }
    EXPECT_EQ(want, got) << sql;
  }

  /// ExpectSameResult, after asserting the access path EXPLAIN reports.
  void ExpectPathMatchesFullScan(const std::string& sql,
                                 const std::string& label) {
    JustQL ql(engine_.get());
    auto plan = ql.ExplainSelect("tester", sql);
    ASSERT_TRUE(plan.ok()) << sql << " -> " << plan.status().ToString();
    EXPECT_NE(plan->find("access: " + label + "]"), std::string::npos)
        << sql << "\n" << *plan;
    ExpectSameResult(sql);
  }

  static std::string Millis(const char* date) {
    return std::to_string(ParseTimestamp(date).value());
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<core::JustEngine> engine_;
};

constexpr const char* kBox = "st_makeMBR(116.30, 39.80, 116.45, 39.95)";

TEST_F(ExecutorParityTest, ScansFiltersProjectionsAggregates) {
  ExpectSameResult("SELECT * FROM orders");
  ExpectSameResult("SELECT fid, city FROM orders");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.30, 39.80, 116.45, 39.95)");
  ExpectSameResult(
      "SELECT fid, time FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.30, 39.80, 116.45, 39.95) AND city = 'city1'");
  ExpectSameResult("SELECT fid FROM orders WHERE city = 'city2'");
  ExpectSameResult("SELECT count(*) AS n FROM orders");
  ExpectSameResult(
      "SELECT count(*) AS n, min(time) AS lo, max(time) AS hi FROM orders "
      "WHERE city = 'city3'");
  ExpectSameResult("SELECT fid FROM orders WHERE city != 'city0'");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE city = 'city1' AND fid < 'order_0005'");
}

TEST_F(ExecutorParityTest, RowOnlyOperatorsStillWork) {
  // Sort/limit and grouped aggregation cross the batch->row boundary.
  ExpectSameResult("SELECT fid FROM orders ORDER BY time LIMIT 10");
  ExpectSameResult(
      "SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city");
}

TEST_F(ExecutorParityTest, EveryAccessPathMatchesFullScan) {
  const std::string window = " time BETWEEN " + Millis("2018-10-10") +
                             " AND " + Millis("2018-10-20");
  ExpectPathMatchesFullScan(
      std::string("SELECT fid, city FROM orders WHERE geom WITHIN ") + kBox,
      "spatial_range");
  ExpectPathMatchesFullScan(std::string("SELECT fid FROM orders WHERE geom "
                                        "WITHIN ") +
                                kBox + " AND" + window,
                            "st_range");
  ExpectPathMatchesFullScan("SELECT fid, time FROM orders WHERE" + window,
                            "temporal_range");
  ExpectPathMatchesFullScan(
      "SELECT fid FROM orders WHERE geom IN "
      "st_KNN(st_makePoint(116.40, 39.90), 25)",
      "knn");
  // The expansion answers only the k-NN conjunct; the box and the window
  // filter its k rows.
  ExpectPathMatchesFullScan(std::string("SELECT fid FROM orders WHERE geom IN "
                                        "st_KNN(st_makePoint(116.40, 39.90), "
                                        "25) AND geom WITHIN ") +
                                kBox + " AND" + window,
                            "knn");
  ExpectPathMatchesFullScan(
      "SELECT fid FROM orders WHERE city >= 'city1' AND city < 'city3'",
      "secondary_index");
  // 150 city1 entries is under the default intersection threshold: the
  // index drives and the box refines.
  ExpectPathMatchesFullScan(
      std::string("SELECT fid, city FROM orders WHERE city = 'city1' AND "
                  "geom WITHIN ") +
          kBox,
      "index_intersection");
  ExpectPathMatchesFullScan("SELECT fid FROM orders WHERE fid = 'order_0007'",
                            "full_scan");
}

// The scan workers decode and refine ranges concurrently, and the caller
// assembles their batches in range order: every run of a query returns the
// same rows in the same order, and that answer is the full-scan one.
TEST_F(ExecutorParityTest, RepeatedRunsReturnTheSameRowsInTheSameOrder) {
  const std::string window = " time BETWEEN " + Millis("2018-10-10") +
                             " AND " + Millis("2018-10-20");
  const std::pair<std::string, std::string> queries[] = {
      {std::string("SELECT fid, city FROM orders WHERE geom WITHIN ") + kBox,
       "spatial_range"},
      {std::string("SELECT fid, time FROM orders WHERE geom WITHIN ") + kBox +
           " AND" + window,
       "st_range"},
      {"SELECT fid FROM orders WHERE geom IN "
       "st_KNN(st_makePoint(116.40, 39.90), 25)",
       "knn"},
      {std::string("SELECT fid, city FROM orders WHERE city = 'city1' AND "
                   "geom WITHIN ") +
           kBox,
       "index_intersection"},
  };
  JustQL ql(engine_.get());
  for (const auto& [sql, label] : queries) {
    ExpectPathMatchesFullScan(sql, label);
    std::vector<std::string> first;
    for (int run = 0; run < 20; ++run) {
      auto result = ql.Execute("tester", sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
      std::vector<std::string> rows;
      for (const exec::Row& row : result->frame.rows()) {
        rows.push_back(RowKey(row));
      }
      if (run == 0) {
        ASSERT_FALSE(rows.empty()) << sql;
        first = std::move(rows);
      } else {
        ASSERT_EQ(rows, first) << sql << " run " << run;
      }
    }
  }
}

// Comparisons on the time column fold into one window that drives the
// Z2T index, whatever their form.
TEST_F(ExecutorParityTest, TimeComparisonsRunOnTheTemporalIndex) {
  const std::string lo = Millis("2018-10-10");
  const std::string hi = Millis("2018-10-20");
  const std::string windows[] = {
      "time >= " + lo + " AND time <= " + hi,
      "time > " + lo + " AND time < " + hi,
      "'2018-10-10' <= time AND time <= '2018-10-10 12:00:00'",
      "time < " + lo,
      "time >= " + hi,
      "time BETWEEN " + lo + " AND " + hi + " AND time < '2018-10-15'",
      "time > " + hi + " AND time < " + lo,             // empty window
      "time >= '2018-10-03' AND time < '2018-11-27'",   // many periods
      "time = '2018-10-12' AND city != 'city0'",
  };
  for (const std::string& where : windows) {
    ExpectPathMatchesFullScan("SELECT fid, time FROM orders WHERE " + where,
                              "temporal_range");
  }
  // Beside a box a closed window joins it; a one-sided one filters.
  ExpectPathMatchesFullScan(std::string("SELECT fid FROM orders WHERE geom "
                                        "WITHIN ") +
                                kBox + " AND time >= " + lo +
                                " AND time <= " + hi,
                            "st_range");
  ExpectPathMatchesFullScan(std::string("SELECT fid FROM orders WHERE geom "
                                        "WITHIN ") +
                                kBox + " AND time > " + lo,
                            "spatial_range");
}

// A ready secondary index on the time column keeps the comparisons.
TEST_F(ExecutorParityTest, TimeSecondaryIndexKeepsComparisons) {
  JustQL ql(engine_.get());
  auto created = ql.Execute("tester", "CREATE INDEX idx_time ON orders (time)");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const std::string lo = Millis("2018-10-10");
  const std::string hi = Millis("2018-10-20");
  ExpectPathMatchesFullScan(
      "SELECT fid FROM orders WHERE time >= " + lo + " AND time <= " + hi,
      "secondary_index");
  ExpectPathMatchesFullScan("SELECT fid FROM orders WHERE time > " + hi,
                            "secondary_index");
}

TEST_F(ExecutorParityTest, DemotedIntersectionMatchesFullScan) {
  // Threshold 0: every probe is over it, so the curve index drives and the
  // attribute bound runs as residual refinement.
  OpenEngine(0);
  ExpectPathMatchesFullScan(
      std::string("SELECT fid, city FROM orders WHERE city = 'city1' AND "
                  "geom WITHIN ") +
          kBox,
      "spatial_range");
}

}  // namespace
}  // namespace just::sql
