#include "cluster/region_cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace just::cluster {

namespace {
/// True when every key in [start, end) shares start's first byte, i.e. the
/// range cannot cross a shard boundary. Covers both planner shapes: equal
/// first bytes, and an exclusive end that is exactly the next byte value
/// (["\x04...", "\x05") holds only keys starting with 0x04).
bool SingleShardByte(std::string_view start, std::string_view end) {
  if (start.empty() || end.empty()) return false;
  auto s = static_cast<unsigned char>(start[0]);
  auto e = static_cast<unsigned char>(end[0]);
  if (s == e) return true;
  return end.size() == 1 && e == s + 1;
}

/// KV rows the cluster handed to a scan consumer, by Scan and ParallelScan.
obs::Counter* RowsFetchedCounter() {
  static obs::Counter* counter = obs::Registry::Global().GetCounter(
      "just_cluster_scan_rows_fetched_total");
  return counter;
}
}  // namespace

Result<std::unique_ptr<RegionCluster>> RegionCluster::Open(
    const ClusterOptions& options) {
  if (!options.server_addrs.empty()) {
    // Out-of-process deployment: one socket backend per running
    // `just_region_server`; this process owns no stores.
    auto cluster = std::unique_ptr<RegionCluster>(new RegionCluster(options));
    for (const auto& addr : options.server_addrs) {
      JUST_ASSIGN_OR_RETURN(
          auto backend,
          OpenSocketBackend(
              addr, static_cast<uint32_t>(options.scan_batch_rows)));
      cluster->servers_.push_back(std::move(backend));
    }
    return cluster;
  }
  if (options.num_servers < 1) {
    return Status::InvalidArgument("cluster needs at least one server");
  }
  auto cluster = std::unique_ptr<RegionCluster>(new RegionCluster(options));
  for (int i = 0; i < options.num_servers; ++i) {
    kv::StoreOptions store_options = options.store;
    store_options.dir = options.dir + "/rs" + std::to_string(i);
    JUST_ASSIGN_OR_RETURN(auto backend, OpenLocalBackend(store_options));
    cluster->servers_.push_back(std::move(backend));
  }
  return cluster;
}

int RegionCluster::ServerFor(std::string_view key) const {
  if (key.empty()) return 0;
  return static_cast<unsigned char>(key[0]) %
         static_cast<int>(servers_.size());
}

Status RegionCluster::WithRetry(const std::function<Status()>& op) const {
  // Stable pointer into the registry; fetched once per process.
  static obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");
  Status st = op();
  for (int attempt = 0; !st.ok() && st.IsTransient() &&
                        attempt < options_.max_retries;
       ++attempt) {
    retries->Increment();
    // Exponential backoff: a region server mid-restart needs a moment, and
    // hammering it would only extend the brownout.
    int delay_ms = options_.retry_backoff_ms << attempt;
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    st = op();
  }
  return st;
}

Status RegionCluster::Put(std::string_view key, std::string_view value) {
  RegionBackend* server = servers_[ServerFor(key)].get();
  return WithRetry([&] { return server->Put(key, value); });
}

Status RegionCluster::Delete(std::string_view key) {
  RegionBackend* server = servers_[ServerFor(key)].get();
  return WithRetry([&] { return server->Delete(key); });
}

Status RegionCluster::Get(std::string_view key, std::string* value) const {
  RegionBackend* server = servers_[ServerFor(key)].get();
  return WithRetry([&] { return server->Get(key, value); });
}

Status RegionCluster::DispatchBatch(
    std::vector<kv::WriteOp> ops,
    const std::function<Status(RegionBackend*, const std::vector<kv::WriteOp>&)>&
        apply) {
  if (ops.empty()) return Status::OK();
  std::vector<std::vector<kv::WriteOp>> per_server(servers_.size());
  for (auto& op : ops) {
    per_server[ServerFor(op.key)].push_back(std::move(op));
  }
  size_t busy_servers = 0;
  for (const auto& slice : per_server) busy_servers += slice.empty() ? 0 : 1;
  // Small batches (or one-server batches) are not worth pool dispatch.
  if (busy_servers <= 1 || ops.size() < 64) {
    for (size_t s = 0; s < per_server.size(); ++s) {
      if (per_server[s].empty()) continue;
      RegionBackend* server = servers_[s].get();
      JUST_RETURN_NOT_OK(
          WithRetry([&] { return apply(server, per_server[s]); }));
    }
    return Status::OK();
  }
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mu;
  DefaultPool().ParallelFor(per_server.size(), [&](size_t s) {
    if (per_server[s].empty()) return;
    RegionBackend* server = servers_[s].get();
    Status st = WithRetry([&] { return apply(server, per_server[s]); });
    if (!st.ok()) {
      failed.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = st;
    }
  });
  if (failed.load()) {
    return first_error.ok() ? Status::Internal("batch write failed")
                            : first_error;
  }
  return Status::OK();
}

Status RegionCluster::WriteBatch(std::vector<kv::WriteOp> ops) {
  return DispatchBatch(std::move(ops),
                       [](RegionBackend* server,
                          const std::vector<kv::WriteOp>& slice) {
                         return server->WriteBatch(slice);
                       });
}

Status RegionCluster::IngestBatch(const std::string& tenant,
                                  std::vector<kv::WriteOp> ops) {
  // Per-tenant quota sheds come back as kResourceExhausted, which is not
  // transient — WithRetry passes it straight through, so a throttled tenant
  // sees the shed immediately instead of burning the retry budget.
  return DispatchBatch(std::move(ops),
                       [&tenant](RegionBackend* server,
                                 const std::vector<kv::WriteOp>& slice) {
                         return server->IngestBatch(tenant, slice);
                       });
}

Status RegionCluster::ParallelScan(const std::vector<curve::KeyRange>& ranges,
                                   const RangeConsumer& consumer) const {
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mu;
  static obs::Histogram* scan_hist =
      obs::Registry::Global().GetHistogram("just_cluster_parallel_scan_us");
  obs::Counter* rows_fetched = RowsFetchedCounter();
  obs::ScopedSpan span("cluster.ParallelScan");
  if (span.span() != nullptr) {
    span.span()->AddAttr("ranges", std::to_string(ranges.size()));
  }
  const auto scan_start = std::chrono::steady_clock::now();
  // Pool workers have their own thread-local state: hand them the span
  // explicitly so their I/O counters attribute to this scan.
  obs::TraceSpan* parent_span = obs::CurrentSpan();
  DefaultPool().ParallelFor(ranges.size(), [&](size_t i) {
    obs::SpanScope scope(parent_span);
    const curve::KeyRange& range = ranges[i];
    // Routing is first_byte % num_servers — NOT a contiguous partition: a
    // range spanning multiple shard bytes can land on every server (e.g.
    // bytes 0x04..0x06 with 5 servers hit servers 4, 0 and 1, which the old
    // `[ServerFor(start), ServerFor(end)]` guess silently skipped). Only a
    // range confined to a single shard byte maps to a single server; the
    // ranges the index strategies emit are of exactly that shape, so the
    // fast path still covers the common case.
    int first = 0;
    int last = num_servers() - 1;
    if (SingleShardByte(range.start, range.end)) {
      first = last = ServerFor(range.start);
    }
    for (int server = first; server <= last; ++server) {
      if (failed.load(std::memory_order_relaxed)) return;
      // One part's attempt state. The callbacks capture only a reference to
      // it, which fits std::function's inline storage: no allocation per
      // part. A consumer error stops the server's scan (the callback
      // returns false, which the backend reports as success) and is not
      // retried.
      struct Part {
        const RangeConsumer& consumer;
        size_t i;
        RegionBackend* backend;
        const curve::KeyRange& range;
        size_t rows = 0;
        Status consumer_st = Status::OK();
      } part{consumer, i, servers_[server].get(), range};
      Status st = WithRetry([&part] {
        part.consumer.begin(part.i);
        part.rows = 0;
        part.consumer_st = Status::OK();
        return part.backend->Scan(
            part.range.start, part.range.end,
            [&part](std::string_view key, std::string_view value) {
              ++part.rows;
              part.consumer_st = part.consumer.row(part.i, key, value);
              return part.consumer_st.ok();
            });
      });
      if (st.ok()) st = part.consumer_st;
      if (st.ok()) st = consumer.commit(i);
      if (!st.ok()) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = st;
        return;
      }
      if (part.rows > 0) rows_fetched->Add(part.rows);
    }
  });
  scan_hist->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - scan_start)
          .count()));
  if (failed.load()) {
    return first_error.ok() ? Status::Internal("parallel scan failed")
                            : first_error;
  }
  return Status::OK();
}

Status RegionCluster::Scan(
    std::string_view start, std::string_view end,
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  // Servers are scanned one after another, each in key order. Routing is
  // first byte % num_servers, so one server holds several interleaved shard
  // bytes: the output is sorted when [start, end) lies within one shard
  // byte (every range the index strategies plan), and a wider range comes
  // out sorted per server, not globally — no caller relies on the order
  // across servers.
  obs::Counter* rows_fetched = RowsFetchedCounter();
  const size_t batch_rows = std::max<size_t>(1, options_.scan_batch_rows);
  for (const auto& server : servers_) {
    // Stream the server's range in bounded batches instead of buffering it
    // whole: an early-stopping consumer (LIMIT-style) used to pay for the
    // entire range before the first row reached it. Each batch is buffered
    // so a transient failure can be retried without re-emitting rows the
    // callback already consumed; the cursor only advances once a batch is
    // delivered, so a retried batch restarts cleanly.
    std::string cursor(start);
    for (;;) {
      std::vector<std::pair<std::string, std::string>> rows;
      Status st = WithRetry([&] {
        rows.clear();
        return server->Scan(cursor, end,
                            [&](std::string_view k, std::string_view v) {
                              rows.emplace_back(k, v);
                              return rows.size() < batch_rows;
                            });
      });
      JUST_RETURN_NOT_OK(st);
      rows_fetched->Add(rows.size());
      for (const auto& [key, value] : rows) {
        if (!fn(key, value)) return Status::OK();
      }
      if (rows.size() < batch_rows) break;  // server range exhausted
      // Next batch resumes just past the last delivered key.
      cursor = rows.back().first + '\0';
    }
  }
  return Status::OK();
}

Status RegionCluster::FlushAll() {
  for (const auto& server : servers_) {
    JUST_RETURN_NOT_OK(server->Flush());
  }
  return Status::OK();
}

Status RegionCluster::CompactAll() {
  for (const auto& server : servers_) {
    JUST_RETURN_NOT_OK(server->CompactAll());
  }
  return Status::OK();
}

RegionCluster::Stats RegionCluster::GetStats() const {
  Stats stats;
  for (const auto& server : servers_) {
    BackendStats s;
    if (!server->GetStats(&s).ok()) continue;  // best-effort aggregate
    stats.disk_bytes += s.disk_bytes;
    stats.entries += s.entries;
    stats.num_sstables += s.num_sstables;
  }
  return stats;
}

}  // namespace just::cluster
