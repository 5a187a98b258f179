// perfbench — the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// Runs one named workload through the library's public API, checks a
// fixed sample of its answers against an oracle, and prints as the
// last line of stdout one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is the run-environment record. A
// trace run also writes every recorded span to
// <workdir>/trace-<workload>.csv. See README.md for the workloads.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  Result (*run)(const RunConfig&);
  /// Pool participants (SEPSP_THREADS) — with the workload's generator
  /// and dispatcher threads, never more than the machine's cores.
  unsigned pool_threads;
};

const Workload kWorkloads[] = {
    {"update-neg3d", run_update_neg3d, 2},
    {"serve-mixed", run_serve_mixed, 1},
    {"prep-mesh", run_prep_mesh, 3},
};

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer leaves its metrics at 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"query.batch_call_ms", "ms"},
    {"query.single_call_ms", "ms"},
    {"query.scans_per_source", "count"},
    {"query.ns_per_scan", "ns"},
    {"query.lane_occupancy", "ratio"},
    {"query.negcheck_ms", "ms"},
    {"baseline.dijkstra_us_per_source", "us"},
    {"query.over_dijkstra", "ratio"},
    {"service.apply_updates_ms", "ms"},
    {"service.swap_us_mean", "us"},
    {"service.cache_invalidations", "count"},
    {"update_ms_p50", "ms"},
    {"update_ms_tail", "ms"},
    {"service.submit_ready_us", "us"},
    {"service.ss_miss_ms", "ms"},
    {"service.hit_rate", "ratio"},
    {"service.st_hit_rate", "ratio"},
    {"service.approx_hit_rate", "ratio"},
    {"service.batch_occupancy", "ratio"},
    {"service.coalesce_us_mean", "us"},
    {"service.ss_p50", "us"},
    {"service.approx_ss_p50", "us"},
    {"service.st_distance_p50", "us"},
    {"service.st_path_p50", "us"},
    {"labels.merge_ns_mean", "ns"},
    {"labels.build_ms", "ms"},
    {"build.exact_ms", "ms"},
    {"build.eplus_edges", "count"},
    {"build.kernel_cells", "count"},
    {"approx.build_ms", "ms"},
    {"approx.eplus_kept_ratio", "ratio"},
    {"approx.certified_error", "ratio"},
    {"store.write_ms", "ms"},
    {"store.open_ms", "ms"},
    {"store.query_ms", "ms"},
    {"store.faults_per_op", "count"},
    {"store.evictions_per_op", "count"},
    {"store.image_mb", "MiB"},
    {"pool.participants", "count"},
    {"pool.steals", "count"},
    {"trace.throughput_ratio", "ratio"},
    {"trace.latency_p50_ratio", "ratio"},
};

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void write_trace(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "name,start_ns,end_ns,parent,thread,op\n";
  for (const Span& s : Tracer::get().spans()) {
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
        << ',' << s.thread << ',' << s.op << '\n';
  }
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("every flag takes a value");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args["--workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");

  RunConfig cfg;
  cfg.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  cfg.seconds = args.count("--seconds") ? std::atof(args["--seconds"].c_str())
                                        : 10.0;
  cfg.trace = args["--trace"] == "1";
  if (args.count("--workdir")) cfg.workdir = args["--workdir"];
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  // Pin the pool before anything touches it (it is sized once, at first
  // use, from SEPSP_THREADS).
  setenv("SEPSP_THREADS", std::to_string(workload->pool_threads).c_str(), 1);

  Result result = workload->run(cfg);

  const unsigned nproc = std::thread::hardware_concurrency();
  result.env.insert(
      result.env.begin(),
      {{"workload", workload->name, true},
       {"seed", std::to_string(cfg.seed), false},
       {"trace", cfg.trace ? "1" : "0", false},
       {"nproc", std::to_string(nproc), false},
       {"l2_bytes_per_core", std::to_string(l2_bytes_per_core()), false},
       {"pool_participants",
        std::to_string(sepsp::pram::ThreadPool::global().concurrency()), false},
       {"simd_tier",
        sepsp::simd::tier_name(sepsp::simd::active_tier()), true}});

  std::string env = "{\"env\": {";
  for (std::size_t i = 0; i < result.env.size(); ++i) {
    const EnvEntry& e = result.env[i];
    env += (i ? ", " : "") + quoted(e.key) + ": " +
           (e.quoted ? quoted(e.value) : e.value);
  }
  std::cout << env << "}}\n";

  std::string metrics;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    metrics += (metrics.empty() ? "" : ", ") + quoted(name) +
               ": {\"value\": " + number(value) +
               ", \"unit\": " + quoted(unit) + "}";
  };
  if (cfg.trace) {
    write_trace(cfg.workdir + "/trace-" + workload->name + ".csv");
    for (const auto& [name, unit] : kLayerMetrics) {
      double value = 0.0;
      for (const auto& [have, v] : result.per_layer) {
        if (have == name) value = v;
      }
      add(name, value, unit);
    }
  } else {
    for (const Metric& m : result.end_to_end) add(m.name, m.value, m.unit);
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
