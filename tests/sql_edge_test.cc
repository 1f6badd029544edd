// Edge cases and failure-path tests for the SQL layer: analyzer rejections,
// type errors, odd-but-legal syntax, optimizer safety (no pushdown through
// computed columns), and function misuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/justql.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace just::sql {
namespace {

using just::testing::TempDir;

class SqlEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("sql_edge");
    core::EngineOptions options;
    options.data_dir = dir_->path();
    options.num_servers = 1;
    options.num_shards = 2;
    auto engine = core::JustEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).value();
    ql_ = std::make_unique<JustQL>(engine_.get());
    ASSERT_TRUE(ql_->Execute("u",
                             "CREATE TABLE t (fid string:primary key, "
                             "n integer, time date, geom point)")
                    .ok());
    ASSERT_TRUE(ql_->Execute("u",
                             "INSERT INTO t VALUES "
                             "('a', 1, '2018-10-01 00:00:00', "
                             "st_makePoint(116.4, 39.9)), "
                             "('b', 2, '2018-10-02 00:00:00', "
                             "st_makePoint(116.5, 39.8))")
                    .ok());
  }

  Result<QueryResult> Run(const std::string& sql) {
    return ql_->Execute("u", sql);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<core::JustEngine> engine_;
  std::unique_ptr<JustQL> ql_;
};

// --- analyzer rejections ---

TEST_F(SqlEdgeTest, UnknownColumnRejectedEverywhere) {
  EXPECT_FALSE(Run("SELECT ghost FROM t").ok());
  EXPECT_FALSE(Run("SELECT fid FROM t WHERE ghost = 1").ok());
  EXPECT_FALSE(Run("SELECT fid FROM t ORDER BY ghost").ok());
  EXPECT_FALSE(Run("SELECT ghost, count(*) c FROM t GROUP BY ghost").ok());
}

TEST_F(SqlEdgeTest, UnknownTableAndFunction) {
  EXPECT_TRUE(Run("SELECT * FROM nope").status().IsNotFound());
  EXPECT_FALSE(Run("SELECT st_imaginary(fid) FROM t").ok());
}

TEST_F(SqlEdgeTest, NonBooleanWhereRejected) {
  EXPECT_FALSE(Run("SELECT fid FROM t WHERE n + 1").ok());
}

TEST_F(SqlEdgeTest, NonGroupedColumnRejected) {
  EXPECT_FALSE(Run("SELECT fid, count(*) c FROM t GROUP BY n").ok());
}

TEST_F(SqlEdgeTest, TableFunctionMustBeAlone) {
  ASSERT_TRUE(Run("CREATE TABLE traj AS trajectory").ok());
  EXPECT_FALSE(Run("SELECT st_trajNoiseFilter(item), tid FROM traj").ok());
}

// --- odd but legal ---

TEST_F(SqlEdgeTest, KeywordsAndColumnsAreCaseInsensitive) {
  // Table names stay case-sensitive (they are namespace entries, as in
  // HBase); keywords and column references are not.
  auto r = Run("select FID from t where N = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->frame.num_rows(), 1u);
  EXPECT_TRUE(Run("select fid from T").status().IsNotFound());
}

TEST_F(SqlEdgeTest, TrailingSemicolonAndComments) {
  auto r = Run("SELECT fid FROM t -- trailing comment\n;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->frame.num_rows(), 2u);
}

TEST_F(SqlEdgeTest, LimitZeroAndHugeLimit) {
  EXPECT_EQ(Run("SELECT fid FROM t LIMIT 0")->frame.num_rows(), 0u);
  EXPECT_EQ(Run("SELECT fid FROM t LIMIT 9999")->frame.num_rows(), 2u);
}

TEST_F(SqlEdgeTest, ArithmeticPrecedence) {
  auto r = Run("SELECT fid FROM t WHERE n = 8 - 3 * 2 - 1");  // n = 1
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->frame.num_rows(), 1u);
  EXPECT_EQ(r->frame.rows()[0][0].string_value(), "a");
  auto r2 = Run("SELECT fid FROM t WHERE n = (8 - 3) * (2 - 1) - 3");  // 2
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->frame.rows()[0][0].string_value(), "b");
}

TEST_F(SqlEdgeTest, UnaryMinus) {
  auto r = Run("SELECT fid FROM t WHERE n = -1 + 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->frame.num_rows(), 1u);
}

TEST_F(SqlEdgeTest, BetweenOnStringsAndDates) {
  auto r = Run("SELECT fid FROM t WHERE fid BETWEEN 'a' AND 'a'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->frame.num_rows(), 1u);
  auto r2 = Run(
      "SELECT fid FROM t WHERE time BETWEEN '2018-10-01' AND "
      "'2018-10-01 23:59:59'");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->frame.num_rows(), 1u);
}

// A residual comparison of the timestamp column with a date string compares
// by value, from either side; a string that is not a date is an error.
TEST_F(SqlEdgeTest, TimestampComparedWithDateStringByValue) {
  auto fids = [&](const std::string& where) {
    auto r = Run("SELECT fid FROM t WHERE " + where);
    EXPECT_TRUE(r.ok()) << where << " -> " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const auto& row : r->frame.rows()) out.push_back(row[0].ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  using Fids = std::vector<std::string>;
  EXPECT_EQ(fids("time < '2018-10-02 00:00:00'"), Fids{"a"});
  EXPECT_EQ(fids("'2018-10-02' <= time"), Fids{"b"});
  EXPECT_EQ(fids("time = '2018-10-02 00:00:00'"), Fids{"b"});
  EXPECT_EQ(fids("time >= '2018-10-01' AND n < 5"), (Fids{"a", "b"}));
  // Beside an index-answerable box, the comparison stays a residual.
  EXPECT_EQ(fids("geom WITHIN st_makeMBR(116.0, 39.0, 117.0, 40.0) AND "
                 "time > '2018-10-01 12:00:00'"),
            Fids{"b"});
  auto bad = Run("SELECT fid FROM t WHERE time < 'yesterday'");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("'yesterday'"), std::string::npos)
      << bad.status().ToString();
}

// Inside an OR the comparison has no specialized kernel and runs through
// the interpreted fallback, which must also compare a date string by value;
// a NULL time satisfies no ordering comparison on either path.
TEST_F(SqlEdgeTest, FallbackComparesDateStringByValue) {
  ASSERT_TRUE(Run("INSERT INTO t VALUES ('c', 3, NULL, "
                  "st_makePoint(116.4, 39.9))")
                  .ok());
  auto fids = [&](const std::string& where) {
    auto r = Run("SELECT fid FROM t WHERE " + where);
    EXPECT_TRUE(r.ok()) << where << " -> " << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const auto& row : r->frame.rows()) out.push_back(row[0].ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  using Fids = std::vector<std::string>;
  EXPECT_EQ(fids("time < '2018-10-02 00:00:00' OR n > 5"), Fids{"a"});
  EXPECT_EQ(fids("'2018-10-02' <= time OR n > 5"), Fids{"b"});
  EXPECT_EQ(fids("time = '2018-10-02 00:00:00' OR n > 5"), Fids{"b"});
  EXPECT_EQ(fids("time < '2018-10-02 00:00:00'"), Fids{"a"});
  EXPECT_EQ(fids("time BETWEEN '2018-09-01' AND '2018-10-01' OR n > 5"),
            Fids{"a"});
  // Only a literal reads as a date: a string column compares by type on
  // both paths.
  for (const char* cmp : {"time < fid", "time > fid", "fid <= time"}) {
    EXPECT_EQ(fids(std::string(cmp) + " OR n > 5"), fids(cmp)) << cmp;
  }
}

// A NULL time matches no window, whether BETWEEN or comparisons build it,
// and whichever side of the epoch (where a NULL time's key lands) it spans.
TEST_F(SqlEdgeTest, NullTimeNeverMatchesAWindow) {
  ASSERT_TRUE(Run("INSERT INTO t VALUES ('c', 3, NULL, "
                  "st_makePoint(116.4, 39.9))")
                  .ok());
  for (const char* where :
       {"time BETWEEN -1000 AND 1000", "time >= -1000 AND time <= 1000",
        "time < 1000", "time <= '2018-10-01 00:00:00' AND n = 3",
        "time >= -1000"}) {
    auto r = Run(std::string("SELECT fid FROM t WHERE ") + where);
    ASSERT_TRUE(r.ok()) << where << " -> " << r.status().ToString();
    for (const auto& row : r->frame.rows()) {
      EXPECT_NE(row[0].ToString(), "c") << where;
    }
  }
}

// A table whose only curve index is time-aware answers a spatial query
// through that index with an open window: one range per shard, no period
// enumeration.
TEST_F(SqlEdgeTest, SpatialQueryOnTimeAwareOnlyTable) {
  ASSERT_TRUE(Run("CREATE TABLE z (fid string:primary key, time date, "
                  "geom point) USERDATA {'geomesa.indices.enabled':'z2t'}")
                  .ok());
  ASSERT_TRUE(Run("INSERT INTO z VALUES "
                  "('p', '2018-10-01 00:00:00', st_makePoint(116.4, 39.9)), "
                  "('q', '1969-12-31 12:00:00', st_makePoint(116.41, 39.91)), "
                  "('r', '2018-10-02 00:00:00', st_makePoint(10.0, 10.0))")
                  .ok());
  auto key_ranges = [] {
    return obs::Registry::Global().CounterValue("just_query_key_ranges_total");
  };
  const uint64_t ranges_before = key_ranges();
  auto r = Run(
      "SELECT fid FROM z WHERE geom WITHIN "
      "st_makeMBR(116.0, 39.0, 117.0, 40.0)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(key_ranges() - ranges_before, 2u);  // num_shards
  std::vector<std::string> got;
  for (const auto& row : r->frame.rows()) got.push_back(row[0].ToString());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"p", "q"}));
}

// A box beside a closed window of about 1.2e9 daily periods used to plan
// ranges for every period and shard until memory ran out. Past the planner's
// cap of 65,536 ranges the window scans its per-shard period spans and
// refinement applies the box, so the answer is still the full-scan one.
TEST_F(SqlEdgeTest, BoxWithVeryLongWindowPlansBoundedRanges) {
  constexpr uint64_t kMaxPlannedRanges = 1 << 16;
  const std::string where =
      "geom WITHIN st_makeMBR(116.0, 39.0, 117.0, 40.0) AND "
      "time BETWEEN 0 AND 100000000000000000";
  for (const std::string index : {"z2t", "xz2t", "z3"}) {
    SCOPED_TRACE(index);
    const std::string table = "long_" + index;
    ASSERT_TRUE(Run("CREATE TABLE " + table +
                    " (fid string:primary key, time date, geom point) "
                    "USERDATA {'geomesa.indices.enabled':'" + index + "'}")
                    .ok());
    ASSERT_TRUE(
        Run("INSERT INTO " + table + " VALUES "
            "('p', '2018-10-01 00:00:00', st_makePoint(116.4, 39.9)), "
            "('q', '1969-12-31 12:00:00', st_makePoint(116.41, 39.91)), "
            "('r', '2018-10-02 00:00:00', st_makePoint(10.0, 10.0)), "
            "('s', '2031-05-17 08:00:00', st_makePoint(116.9, 39.1))")
            .ok());
    auto fids = [](const QueryResult& result) {
      std::vector<std::string> out;
      for (const auto& row : result.frame.rows()) {
        out.push_back(row[0].ToString());
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    const uint64_t ranges_before =
        obs::Registry::Global().CounterValue("just_query_key_ranges_total");
    auto r = Run("SELECT fid FROM " + table + " WHERE " + where);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LE(obs::Registry::Global().CounterValue(
                  "just_query_key_ranges_total") -
                  ranges_before,
              kMaxPlannedRanges);
    // An OR is never pushed to an index: this one full-scans and filters.
    auto full = Run("SELECT fid FROM " + table + " WHERE (" + where +
                    ") OR fid = 'none'");
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_EQ(fids(*full), (std::vector<std::string>{"p", "s"}));
    EXPECT_EQ(fids(*r), fids(*full));
  }
}

TEST_F(SqlEdgeTest, DivisionByZeroIsAnError) {
  EXPECT_FALSE(Run("SELECT fid FROM t WHERE n = 1 / 0").ok());
}

TEST_F(SqlEdgeTest, EmptyTableQueries) {
  ASSERT_TRUE(Run("CREATE TABLE empty (fid string:primary key, time date, "
                  "geom point)")
                  .ok());
  EXPECT_EQ(Run("SELECT * FROM empty")->frame.num_rows(), 0u);
  EXPECT_EQ(Run("SELECT count(*) c FROM empty")->frame.rows()[0][0]
                .int_value(),
            0);
  auto knn = Run(
      "SELECT fid FROM empty WHERE geom IN "
      "st_KNN(st_makePoint(116.4, 39.9), 5)");
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  EXPECT_EQ(knn->frame.num_rows(), 0u);
}

TEST_F(SqlEdgeTest, KnnWithMoreKThanRows) {
  auto r = Run(
      "SELECT fid FROM t WHERE geom IN st_KNN(st_makePoint(116.4, 39.9), "
      "100)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->frame.num_rows(), 2u);  // all rows, gracefully
  auto none = Run(
      "SELECT fid FROM t WHERE geom IN st_KNN(st_makePoint(116.4, 39.9), 0)");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->frame.num_rows(), 0u);
}

TEST_F(SqlEdgeTest, SelectLiteralOnly) {
  auto r = Run("SELECT 1 + 1 AS two FROM t LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->frame.rows()[0][0].int_value(), 2);
}

// --- optimizer safety ---

TEST_F(SqlEdgeTest, NoPushdownThroughComputedColumns) {
  // The filter references a computed alias: pushing it below the project
  // would break; the optimizer must keep it above, and the query must
  // still be correct.
  auto r = Run(
      "SELECT fid FROM (SELECT fid, n * 10 AS big FROM t) x "
      "WHERE big = 20");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->frame.num_rows(), 1u);
  EXPECT_EQ(r->frame.rows()[0][0].string_value(), "b");
}

TEST_F(SqlEdgeTest, AliasRenamePushdownStillCorrect) {
  auto r = Run(
      "SELECT renamed FROM (SELECT fid AS renamed, geom FROM t) x "
      "WHERE geom WITHIN st_makeMBR(116.0, 39.0, 116.45, 40.0)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->frame.num_rows(), 1u);
  EXPECT_EQ(r->frame.rows()[0][0].string_value(), "a");
}

TEST_F(SqlEdgeTest, DoubleNestedSubqueries) {
  auto r = Run(
      "SELECT fid FROM (SELECT * FROM (SELECT * FROM t) a) b WHERE n = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->frame.num_rows(), 1u);
}

TEST_F(SqlEdgeTest, OrPredicateNotPushedAsIndexQuery) {
  // OR between spatial and attribute predicates cannot use the index alone;
  // results must still be exact.
  auto r = Run(
      "SELECT fid FROM t WHERE geom WITHIN "
      "st_makeMBR(116.45, 39.75, 116.55, 39.85) OR n = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->frame.num_rows(), 2u);  // 'b' spatially, 'a' by n
}

// --- DDL edges ---

TEST_F(SqlEdgeTest, BadUserdataRejected) {
  EXPECT_FALSE(Run("CREATE TABLE bad (fid string:primary key, time date, "
                   "geom point) USERDATA {'geomesa.indices.enabled':'rtree'}")
                   .ok());
  EXPECT_FALSE(Run("CREATE TABLE bad2 (fid string:primary key, time date, "
                   "geom point) USERDATA {'just.period':'fortnight'}")
                   .ok());
}

TEST_F(SqlEdgeTest, InsertWidthMismatch) {
  EXPECT_FALSE(Run("INSERT INTO t VALUES ('only-one-value')").ok());
}

TEST_F(SqlEdgeTest, InsertTypeCoercionDateString) {
  ASSERT_TRUE(Run("INSERT INTO t VALUES ('c', 3, '2018-10-03', "
                  "st_makePoint(116.6, 39.7))")
                  .ok());
  auto r = Run("SELECT time FROM t WHERE fid = 'c'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->frame.num_rows(), 1u);
  EXPECT_EQ(r->frame.rows()[0][0].type(), exec::DataType::kTimestamp);
}

TEST_F(SqlEdgeTest, LoadUnsupportedSourceExplains) {
  Status st =
      Run("LOAD hive:db.tbl TO geomesa:t CONFIG {'fid': 'x'}").status();
  EXPECT_EQ(st.code(), StatusCode::kNotSupported);
  EXPECT_NE(st.message().find("csv"), std::string::npos);
}

}  // namespace
}  // namespace just::sql
