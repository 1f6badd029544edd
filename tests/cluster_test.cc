#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cluster/region_cluster.h"
#include "cluster_scan_util.h"
#include "common/bytes.h"
#include "net_harness.h"
#include "test_util.h"

namespace just::cluster {
namespace {

using just::testing::CollectParallelScan;
using just::testing::ServerProcess;
using just::testing::TempDir;

std::string ShardKey(int shard, const std::string& rest) {
  std::string key(1, static_cast<char>(shard));
  return key + rest;
}

/// Runs the whole suite against both deployments of the cluster:
///  - "inproc": every region server is an LSM store in this process (the
///    historical single-binary mode);
///  - "socket": every region server is a real spawned `just_region_server`
///    process reached over the wire protocol.
/// Identical behaviour across the two is the point of the RegionBackend
/// seam, so the assertions are byte-for-byte the same.
class RegionClusterTest : public ::testing::TestWithParam<std::string> {
 protected:
  Result<std::unique_ptr<RegionCluster>> OpenCluster(int num_servers = 3) {
    dir_ = std::make_unique<TempDir>("cluster_" + GetParam());
    ClusterOptions opts;
    opts.dir = dir_->path();
    opts.num_servers = num_servers;
    opts.store.memtable_bytes = 32 << 10;
    if (GetParam() == "socket") {
      for (int i = 0; i < num_servers; ++i) {
        ServerProcess::Options po;
        po.dir = dir_->path() + "/rs" + std::to_string(i);
        std::filesystem::create_directories(po.dir);
        // No crash tests here, so skip the per-commit fsync; keep the tiny
        // memtable so flush/compaction paths run just like inproc.
        po.sync_wal = false;
        po.memtable_bytes = 32 << 10;
        auto server = std::make_unique<ServerProcess>(po);
        if (!server->Start()) {
          return Status::Internal("failed to start region server process");
        }
        opts.server_addrs.push_back(server->addr());
        servers_.push_back(std::move(server));
      }
    }
    return RegionCluster::Open(opts);
  }

  void TearDown() override {
    for (auto& server : servers_) server->Terminate();
    servers_.clear();
  }

  std::unique_ptr<TempDir> dir_;
  std::vector<std::unique_ptr<ServerProcess>> servers_;
};

TEST_P(RegionClusterTest, RoutesByShardByte) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (int shard = 0; shard < 8; ++shard) {
    ASSERT_TRUE(
        (*cluster)->Put(ShardKey(shard, "key"), "v" + std::to_string(shard))
            .ok());
  }
  for (int shard = 0; shard < 8; ++shard) {
    std::string v;
    ASSERT_TRUE((*cluster)->Get(ShardKey(shard, "key"), &v).ok());
    EXPECT_EQ(v, "v" + std::to_string(shard));
  }
}

TEST_P(RegionClusterTest, ParallelScanHonorsRangeBounds) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  // Shard 1: keys 000..099.
  for (int i = 0; i < 100; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%03d", i);
    ASSERT_TRUE((*cluster)->Put(ShardKey(1, buf), "v").ok());
  }
  std::vector<curve::KeyRange> ranges;
  curve::KeyRange r1{ShardKey(1, "010"), ShardKey(1, "020"), true};
  curve::KeyRange r2{ShardKey(1, "050"), ShardKey(1, "055"), false};
  ranges.push_back(r1);
  ranges.push_back(r2);
  auto results = CollectParallelScan(**cluster, ranges);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  // Each range's rows reach the consumer under that range's index.
  ASSERT_EQ((*results)[0].rows.size(), 10u);
  EXPECT_EQ((*results)[0].rows.front().first, ShardKey(1, "010"));
  ASSERT_EQ((*results)[1].rows.size(), 5u);
  EXPECT_EQ((*results)[1].rows.front().first, ShardKey(1, "050"));
}

TEST_P(RegionClusterTest, ParallelScanManyRanges) {
  auto cluster = OpenCluster(4);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (int shard = 0; shard < 8; ++shard) {
    for (int i = 0; i < 50; ++i) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%03d", i);
      ASSERT_TRUE((*cluster)->Put(ShardKey(shard, buf), "v").ok());
    }
  }
  std::vector<curve::KeyRange> ranges;
  for (int shard = 0; shard < 8; ++shard) {
    ranges.push_back(curve::KeyRange{ShardKey(shard, "000"),
                                     ShardKey(shard, "025"), false});
  }
  auto results = CollectParallelScan(**cluster, ranges);
  ASSERT_TRUE(results.ok());
  size_t total = 0;
  for (const auto& rr : *results) {
    EXPECT_EQ(rr.rows.size(), 25u);
    total += rr.rows.size();
  }
  EXPECT_EQ(total, 8u * 25u);
}

TEST_P(RegionClusterTest, WriteBatchRoutesAcrossServers) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  std::vector<kv::WriteOp> ops;
  for (int shard = 0; shard < 8; ++shard) {
    for (int i = 0; i < 20; ++i) {
      ops.push_back(kv::WriteOp{ShardKey(shard, "b" + std::to_string(i)),
                                "v" + std::to_string(shard), false});
    }
  }
  ASSERT_TRUE((*cluster)->WriteBatch(std::move(ops)).ok());
  for (int shard = 0; shard < 8; ++shard) {
    std::string v;
    ASSERT_TRUE((*cluster)->Get(ShardKey(shard, "b0"), &v).ok());
    EXPECT_EQ(v, "v" + std::to_string(shard));
  }
}

TEST_P(RegionClusterTest, StatsAggregateAcrossServers) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (int shard = 0; shard < 6; ++shard) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*cluster)
                      ->Put(ShardKey(shard, "key" + std::to_string(i)),
                            std::string(100, 'x'))
                      .ok());
    }
  }
  ASSERT_TRUE((*cluster)->FlushAll().ok());
  auto stats = (*cluster)->GetStats();
  EXPECT_EQ(stats.entries, 6u * 200u);
  EXPECT_GT(stats.disk_bytes, 0u);
}

TEST_P(RegionClusterTest, CompactAllReducesSstables) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*cluster)->Put(ShardKey(0, "key" + std::to_string(i)), "v").ok());
    }
    ASSERT_TRUE((*cluster)->FlushAll().ok());
  }
  ASSERT_TRUE((*cluster)->CompactAll().ok());
  auto stats = (*cluster)->GetStats();
  EXPECT_LE(stats.num_sstables, 3u);  // at most one per server
}

INSTANTIATE_TEST_SUITE_P(Backends, RegionClusterTest,
                         ::testing::Values("inproc", "socket"),
                         [](const auto& info) { return info.param; });

TEST(RegionClusterOpenTest, RejectsZeroServers) {
  ClusterOptions opts;
  opts.dir = "/tmp/never";
  opts.num_servers = 0;
  EXPECT_FALSE(RegionCluster::Open(opts).ok());
}

TEST(RegionClusterOpenTest, RejectsUnreachableServerAddr) {
  ClusterOptions opts;
  // Nothing listens here; Open must fail with a transient status rather
  // than hang or crash.
  opts.server_addrs = {"127.0.0.1:1"};
  auto cluster = RegionCluster::Open(opts);
  ASSERT_FALSE(cluster.ok());
  EXPECT_TRUE(cluster.status().IsTransient());
}

TEST(RegionClusterOpenTest, RejectsMalformedServerAddr) {
  ClusterOptions opts;
  opts.server_addrs = {"no-port-here"};
  EXPECT_FALSE(RegionCluster::Open(opts).ok());
}

}  // namespace
}  // namespace just::cluster
