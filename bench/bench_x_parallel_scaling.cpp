// X2 — PRAM simulation: thread scaling of the exact build and of a
// batched 64-source query on the fork-join pool.
//
// The library runs on the process-wide pool, which SEPSP_THREADS sizes
// once per process. So every row runs in a child process of its own:
// the bench re-executes itself with SEPSP_THREADS=t and `--row=<file>`, and the
// child times SeparatorShortestPaths::build (Algorithm 4.1 with
// Floyd–Warshall closures, then one fused pass that writes every slot's
// minimum into the query buckets) over >= 5 repetitions after one
// warm-up build. Each row reports the median, min and max build time,
// the two phases' shares — the tree pass (the `build.nodes` span, JSON
// fields `tree_pass_ms_median` and `tree_pass_ms_min`) and the
// post-pass (the `build.buckets` span, `post_pass_ms_median` and
// `post_pass_ms_min`); all 0 when built with SEPSP_OBS=OFF —
// and the batch time, and the speedups of the medians against one
// thread. E+ must be
// bit-identical at every thread count: each child writes its E+ bytes
// to a temporary file, which the parent memcmps against the one-thread
// row's (`eplus_parity`); the rows also show an FNV-1a digest of them.
//
// Scale 0 runs the 33x33 grid, scale >= 1 the 65x65 one. On a host
// with fewer cores than a row's threads the speedup is flat by
// hardware limitation; the work/depth counters elsewhere carry the
// PRAM-model claims.
//
//   bench_x_parallel_scaling [--json[=path]]
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "obs/trace.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

/// What one child process measured at its thread count.
struct RowResult {
  unsigned threads = 0;
  double build_median = 0, build_min = 0, build_max = 0;
  double tree_pass_median = 0, tree_pass_min = 0;
  double post_pass_median = 0, post_pass_min = 0;
  double batch_median = 0;
  std::uint64_t eplus = 0;
  std::uint64_t digest = 0;
};

std::size_t grid_side() { return scale() == 0 ? 33 : 65; }
int repetitions() { return scale() >= 2 ? 11 : 7; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The child: times the builds and the batch on the global pool, which
/// SEPSP_THREADS sized, writes E+ to `eplus_path` and prints one line
/// for the parent.
int run_row(const std::string& eplus_path) {
  Rng rng(1);
  const std::size_t side = grid_side();
  const Instance inst = grid2d(side, WeightModel::uniform(1, 10), rng);
  std::vector<Vertex> sources(64);
  Rng pick(3);
  for (auto& s : sources) s = static_cast<Vertex>(pick.next_below(inst.n()));

  RowResult r;
  r.threads = pram::ThreadPool::global().concurrency();
  std::vector<double> build_ms, tree_pass_ms, post_pass_ms, batch_ms;
  for (int rep = 0; rep <= repetitions(); ++rep) {
    obs::trace_reset();
    WallTimer t_build;
    const auto engine =
        SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
    const double b = t_build.millis();
    const obs::TraceSnapshotNode snap = obs::trace_snapshot();
    const auto span_ms = [&](const char* name) {
      const obs::TraceSnapshotNode* node = obs::find_trace_node(snap, name);
      return node != nullptr ? node->total_ns / 1e6 : 0.0;
    };
    WallTimer t_batch;
    const auto results = engine.distances_batch(sources);
    const double q = t_batch.millis();
    if (rep == 0) {  // warm-up: fixes the digest, times nothing
      const std::string sc = eplus_bytes(engine);
      r.eplus = engine.stats().eplus_edges;
      r.digest = fnv1a(sc);
      std::ofstream(eplus_path, std::ios::binary)
          .write(sc.data(), static_cast<std::streamsize>(sc.size()));
      continue;
    }
    build_ms.push_back(b);
    tree_pass_ms.push_back(span_ms("build.nodes"));
    post_pass_ms.push_back(span_ms("build.buckets"));
    batch_ms.push_back(q);
    if (results.size() != sources.size()) return 1;
  }
  r.build_median = median(build_ms);
  r.build_min = *std::min_element(build_ms.begin(), build_ms.end());
  r.build_max = *std::max_element(build_ms.begin(), build_ms.end());
  r.tree_pass_median = median(tree_pass_ms);
  r.tree_pass_min = *std::min_element(tree_pass_ms.begin(), tree_pass_ms.end());
  r.post_pass_median = median(post_pass_ms);
  r.post_pass_min = *std::min_element(post_pass_ms.begin(), post_pass_ms.end());
  r.batch_median = median(batch_ms);
  std::printf("row %u %.6f %.6f %.6f %.6f %.6f %.6f %.6f %.6f %" PRIu64
              " %016" PRIx64 "\n",
              r.threads, r.build_median, r.build_min, r.build_max,
              r.tree_pass_median, r.tree_pass_min, r.post_pass_median,
              r.post_pass_min, r.batch_median, r.eplus, r.digest);
  return 0;
}

/// Path of this executable, for re-running it as a child.
std::string self_path() {
  char buf[4096];
  const ssize_t len = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) return {};
  buf[len] = '\0';
  return buf;
}

bool run_child(const std::string& exe, unsigned threads,
               const std::string& eplus_path, RowResult* out) {
  const std::string cmd = "SEPSP_THREADS=" + std::to_string(threads) +
                          " '" + exe + "' --row='" + eplus_path + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string text;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) text += buf;
  if (pclose(pipe) != 0) return false;
  const std::size_t at = text.rfind("row ");
  if (at == std::string::npos) return false;
  std::istringstream in(text.substr(at));
  std::string tag, digest;
  in >> tag >> out->threads >> out->build_median >> out->build_min >>
      out->build_max >> out->tree_pass_median >> out->tree_pass_min >>
      out->post_pass_median >> out->post_pass_min >> out->batch_median >>
      out->eplus >> digest;
  out->digest = std::stoull(digest, nullptr, 16);
  return static_cast<bool>(in) && out->threads == threads;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--row=", 6) == 0) return run_row(argv[i] + 6);
  }
  parse_args(argc, argv, "x_parallel_scaling");
  const std::size_t side = grid_side();
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "hardware_concurrency = " << hw << "\n";
  const std::string exe = self_path();
  if (exe.empty()) {
    std::cerr << "bench_x_parallel_scaling: cannot locate its own binary\n";
    return 1;
  }

  Table table("X2 — thread scaling of the exact build (grid " +
              std::to_string(side) + "x" + std::to_string(side) + ", " +
              std::to_string(repetitions()) + " reps per row)");
  table.set_header({"threads", "build ms (median)", "min", "max",
                    "build speedup", "tree pass ms", "min",
                    "post-pass ms", "min",
                    "64-source batch ms",
                    "batch speedup", "|E+|", "E+ = 1-thread"});
  std::vector<RowResult> rows;
  std::vector<char> one_eplus;  // the one-thread row's E+ bytes
  bool parity = true;
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    const std::string eplus_path =
        (std::filesystem::temp_directory_path() /
         ("sepsp_scaling_" + std::to_string(getpid()) + "_" +
          std::to_string(threads) + ".eplus"))
            .string();
    RowResult r;
    const bool ok = run_child(exe, threads, eplus_path, &r);
    std::ifstream in(eplus_path, std::ios::binary);
    const std::vector<char> eplus((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    std::filesystem::remove(eplus_path);
    if (!ok) {
      std::cerr << "bench_x_parallel_scaling: row at " << threads
                << " threads failed\n";
      return 1;
    }
    if (rows.empty()) one_eplus = eplus;
    rows.push_back(r);
    const RowResult& one = rows.front();
    const bool same =
        r.eplus == one.eplus && !eplus.empty() &&
        eplus.size() == one_eplus.size() &&
        std::memcmp(eplus.data(), one_eplus.data(), eplus.size()) == 0;
    parity = parity && same;
    table.add_row()
        .cell(static_cast<std::uint64_t>(threads))
        .cell(r.build_median, 2)
        .cell(r.build_min, 2)
        .cell(r.build_max, 2)
        .cell(one.build_median / r.build_median, 2)
        .cell(r.tree_pass_median, 2)
        .cell(r.tree_pass_min, 2)
        .cell(r.post_pass_median, 2)
        .cell(r.post_pass_min, 2)
        .cell(r.batch_median, 2)
        .cell(one.batch_median / r.batch_median, 2)
        .cell(r.eplus)
        .cell(same ? "yes" : "NO");
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, r.digest);
    json()
        .row("parallel_scaling")
        .field("side", static_cast<std::uint64_t>(side))
        .field("threads", static_cast<std::uint64_t>(threads))
        .field("hardware_threads", static_cast<std::uint64_t>(hw))
        .field("reps", repetitions())
        .field("build_ms_median", r.build_median)
        .field("build_ms_min", r.build_min)
        .field("build_ms_max", r.build_max)
        .field("build_speedup", one.build_median / r.build_median)
        .field("tree_pass_ms_median", r.tree_pass_median)
        .field("tree_pass_ms_min", r.tree_pass_min)
        .field("post_pass_ms_median", r.post_pass_median)
        .field("post_pass_ms_min", r.post_pass_min)
        .field("batch_ms_median", r.batch_median)
        .field("batch_speedup", one.batch_median / r.batch_median)
        .field("eplus_edges", r.eplus)
        .field("eplus_digest", digest)
        .field("eplus_parity", same ? 1 : 0);
  }
  table.print(std::cout);
  json()
      .row("parallel_scaling_summary")
      .field("side", static_cast<std::uint64_t>(side))
      .field("rows", static_cast<std::uint64_t>(rows.size()))
      .field("eplus_parity", parity ? 1 : 0);
  json().write();
  std::cout << "E+ bit-identical across thread counts: "
            << (parity ? "yes" : "NO") << "\n"
            << "note: speedups are bounded by hardware_concurrency; see\n"
               "DESIGN.md substitution 1 (the work/depth counters are the\n"
               "PRAM-model evidence).\n";
  return parity ? 0 : 1;
}
