#ifndef JUST_TESTS_CLUSTER_SCAN_UTIL_H_
#define JUST_TESTS_CLUSTER_SCAN_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "cluster/region_cluster.h"

namespace just::testing {

/// What one range of a RegionCluster::ParallelScan delivered.
struct CollectedRange {
  /// Committed rows, in delivery order.
  std::vector<std::pair<std::string, std::string>> rows;
  int begins = 0;   ///< attempts at a part, retries included
  int commits = 0;  ///< parts that succeeded
  /// Rows an attempt delivered before a later `begin` dropped them.
  size_t dropped = 0;
};

/// Runs ParallelScan with a consumer that keeps each part's rows until its
/// commit, as RangeConsumer's contract requires: a part's `begin` drops
/// what the part's failed attempt delivered.
inline Result<std::vector<CollectedRange>> CollectParallelScan(
    const cluster::RegionCluster& cluster,
    const std::vector<curve::KeyRange>& ranges) {
  std::vector<CollectedRange> out(ranges.size());
  std::vector<std::vector<std::pair<std::string, std::string>>> open(
      ranges.size());
  cluster::RegionCluster::RangeConsumer consumer;
  consumer.begin = [&](size_t i) {
    ++out[i].begins;
    out[i].dropped += open[i].size();
    open[i].clear();
  };
  consumer.row = [&](size_t i, std::string_view key, std::string_view value) {
    open[i].emplace_back(key, value);
    return Status::OK();
  };
  consumer.commit = [&](size_t i) {
    ++out[i].commits;
    for (auto& row : open[i]) out[i].rows.push_back(std::move(row));
    open[i].clear();
    return Status::OK();
  };
  JUST_RETURN_NOT_OK(cluster.ParallelScan(ranges, consumer));
  return out;
}

}  // namespace just::testing

#endif  // JUST_TESTS_CLUSTER_SCAN_UTIL_H_
