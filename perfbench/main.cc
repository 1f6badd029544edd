// justbench: runs one workload of the end-to-end JUST benchmark and prints
// its metrics as the last line of standard output. Normally started by
// run.py, which builds it first:
//
//   justbench --workload order_cold --seed 1 --seconds 10 --trace 0
//             --run-root <dir> [--spans <file>] [--git-sha <sha>]
//
// A human-readable report (run context, per-type latencies, the layer split
// of the traced run, the first failures) goes to standard error.

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>

#include "justbench.h"
#include "kvstore/sstable.h"

namespace {

using namespace justbench;  // NOLINT

constexpr const char* kWorkloads[] = {"order_cold", "traj_cold",
                                      "stream_mixed"};

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--run-root") {
      args->run_root = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flags take one value each\n");
    return false;
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || args->workload == w;
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return false;
  }
  if (args->run_root.empty() || !(args->seconds > 0)) {
    std::fprintf(stderr, "--run-root and a positive --seconds are required\n");
    return false;
  }
  return true;
}

/// Removes the per-run data directory however the run ends.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {}
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string Number(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::string ContextJson(const Args& args, const RunResult& result) {
  std::string out = "{\"workload\": \"" + args.workload +
                    "\", \"seed\": " + std::to_string(args.seed) +
                    ", \"optimized\": " + (kOptimized ? "true" : "false") +
                    ", \"git_sha\": \"" + args.git_sha +
                    "\", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"disk_mbps\": " +
                    Number(just::kv::SimulatedReadBandwidthMBps()) +
                    ", \"servers\": " + std::to_string(kServers) +
                    ", \"clients\": " + std::to_string(kClients);
  for (const auto& [name, v] : result.context) {
    out += ", \"" + name + "\": " + Number(v);
  }
  return out + "}";
}

std::string CountsJson(const RunResult& result) {
  std::string out = "{";
  for (const auto& [name, v] : result.counts) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + std::to_string(v);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (!kOptimized) {
    std::fprintf(stderr,
                 "refusing to report timings from an unoptimized build "
                 "(needs __OPTIMIZE__ and NDEBUG)\n");
    return 3;
  }

  // A fresh data directory per run, so concurrent runs never share one and
  // set-up is always a fresh load.
  std::error_code ec;
  std::filesystem::create_directories(args.run_root, ec);
  std::string tmpl = args.run_root + "/" + args.workload + "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp under %s: %s\n", args.run_root.c_str(),
                 std::strerror(errno));
    return 1;
  }
  RunDir run_dir(buf.data());

  just::kv::SetSimulatedReadBandwidthMBps(kDiskMBps);
  RunResult result;
  InitPerLayer(&result);
  Tracer tracer;
  auto registry_start = RegistryValues();
  int rc = args.workload == "stream_mixed"
               ? RunStreamWorkload(args, run_dir.path(), &tracer, &result)
               : RunQueryWorkload(args, run_dir.path(), &tracer, &result);
  if (rc != 0) return rc;
  auto run_delta = Delta(registry_start, RegistryValues());
  result.per_layer.at("cluster.retries").value =
      static_cast<double>(run_delta["just_cluster_retries_total"]);

  std::string context = ContextJson(args, result);
  std::fprintf(stderr, "context %s\n", context.c_str());
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }
  if (args.trace && !args.spans_path.empty()) {
    if (!tracer.Write(args.spans_path, context)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans: %zu written to %s\n", tracer.size(),
                 args.spans_path.c_str());
  }
  std::printf("counts %s\n", CountsJson(result).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  1, result.attempted)),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(args.trace ? result.per_layer : result.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
