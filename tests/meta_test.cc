#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "meta/catalog.h"
#include "test_util.h"

namespace just::meta {
namespace {

using just::testing::TempDir;

TableMeta SampleTable(const std::string& user, const std::string& name) {
  TableMeta table;
  table.user = user;
  table.name = name;
  table.kind = TableKind::kCommon;
  table.columns = {
      {"fid", exec::DataType::kInt, true, "", ""},
      {"name", exec::DataType::kString, false, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "4326", ""},
      {"gpsList", exec::DataType::kTrajectory, false, "", "gzip"},
  };
  table.fid_column = "fid";
  table.geom_column = "geom";
  table.time_column = "time";
  table.indexes = {{curve::IndexType::kZ3, kMillisPerDay}};
  return table;
}

TEST(CatalogTest, CreateGetList) {
  TempDir dir("catalog");
  auto catalog = Catalog::Open(dir.path() + "/meta.jsonl");
  ASSERT_TRUE(catalog.ok());
  TableMeta t1 = SampleTable("alice", "orders");
  ASSERT_TRUE((*catalog)->CreateTable(&t1).ok());
  EXPECT_GT(t1.table_id, 0u);
  auto fetched = (*catalog)->GetTable("alice", "orders");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->columns.size(), 5u);
  EXPECT_EQ(fetched->columns[4].compress, "gzip");
  EXPECT_EQ(fetched->indexes[0].type, curve::IndexType::kZ3);
  EXPECT_EQ((*catalog)->ListTables("alice").size(), 1u);
  EXPECT_TRUE((*catalog)->ListTables("bob").empty());
}

TEST(CatalogTest, DuplicateRejected) {
  TempDir dir("catalog_dup");
  auto catalog = Catalog::Open(dir.path() + "/meta.jsonl");
  ASSERT_TRUE(catalog.ok());
  TableMeta t1 = SampleTable("u", "t");
  ASSERT_TRUE((*catalog)->CreateTable(&t1).ok());
  TableMeta t2 = SampleTable("u", "t");
  EXPECT_EQ((*catalog)->CreateTable(&t2).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, NamespaceIsolation) {
  TempDir dir("catalog_ns");
  auto catalog = Catalog::Open(dir.path() + "/meta.jsonl");
  ASSERT_TRUE(catalog.ok());
  TableMeta a = SampleTable("alice", "t");
  TableMeta b = SampleTable("bob", "t");  // same name, different user
  ASSERT_TRUE((*catalog)->CreateTable(&a).ok());
  ASSERT_TRUE((*catalog)->CreateTable(&b).ok());
  EXPECT_NE(a.table_id, b.table_id);
  EXPECT_TRUE((*catalog)->TableExists("alice", "t"));
  ASSERT_TRUE((*catalog)->DropTable("alice", "t").ok());
  EXPECT_FALSE((*catalog)->TableExists("alice", "t"));
  EXPECT_TRUE((*catalog)->TableExists("bob", "t"));
}

TEST(CatalogTest, PersistsAcrossReopen) {
  TempDir dir("catalog_persist");
  std::string path = dir.path() + "/meta.jsonl";
  uint64_t id;
  {
    auto catalog = Catalog::Open(path);
    ASSERT_TRUE(catalog.ok());
    TableMeta t = SampleTable("alice", "orders");
    ASSERT_TRUE((*catalog)->CreateTable(&t).ok());
    id = t.table_id;
  }
  auto catalog = Catalog::Open(path);
  ASSERT_TRUE(catalog.ok());
  auto fetched = (*catalog)->GetTable("alice", "orders");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->table_id, id);
  EXPECT_EQ(fetched->columns[3].srid, "4326");
  // New tables get fresh ids after reopen.
  TableMeta t2 = SampleTable("alice", "more");
  ASSERT_TRUE((*catalog)->CreateTable(&t2).ok());
  EXPECT_GT(t2.table_id, id);
}

TEST(CatalogTest, LegacyAttributeIndexEntryFailsToOpen) {
  // A catalog entry listing the removed equality-only attribute index must
  // not load: dropping the list silently would let a new index's slot alias
  // its stale entries.
  TempDir dir("catalog_attrs");
  std::string path = dir.path() + "/meta.jsonl";
  {
    auto catalog = Catalog::Open(path);
    ASSERT_TRUE(catalog.ok());
    TableMeta t = SampleTable("alice", "orders");
    ASSERT_TRUE((*catalog)->CreateTable(&t).ok());
  }
  std::string content;
  {
    std::ifstream in(path);
    content.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(content.rfind("{\"", 0), 0u) << content;
  content.insert(1, "\"attrs\":[\"city\"],");
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  auto catalog = Catalog::Open(path);
  ASSERT_FALSE(catalog.ok());
  EXPECT_NE(catalog.status().ToString().find("alice.orders"),
            std::string::npos)
      << catalog.status().ToString();
  EXPECT_NE(catalog.status().ToString().find("CREATE INDEX"),
            std::string::npos);
}

TEST(CatalogTest, DropMissingTableFails) {
  TempDir dir("catalog_missing");
  auto catalog = Catalog::Open(dir.path() + "/meta.jsonl");
  ASSERT_TRUE(catalog.ok());
  EXPECT_TRUE((*catalog)->DropTable("u", "ghost").IsNotFound());
  EXPECT_TRUE((*catalog)->GetTable("u", "ghost").status().IsNotFound());
}

TEST(TableMetaTest, SchemaAndColumnIndex) {
  TableMeta t = SampleTable("u", "t");
  auto schema = t.MakeSchema();
  EXPECT_EQ(schema->num_fields(), 5u);
  EXPECT_EQ(schema->field(3).type, exec::DataType::kGeometry);
  EXPECT_EQ(t.ColumnIndex("geom"), 3);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
}

}  // namespace
}  // namespace just::meta
