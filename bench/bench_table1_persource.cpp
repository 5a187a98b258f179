// T1b — Table 1, work-per-source rows.
//
// Paper claim: after preprocessing, one source costs O(n + n^{2 mu}) work
// (O(n log n) at mu = 1/2) using the leveled schedule of Section 3.2,
// versus O((|E| + |E+|) * diam) for diameter-bounded Bellman–Ford on G+
// and O(|E| * diam(G)) for Bellman–Ford on the raw graph.
#include <cmath>
#include <iostream>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "bench_common.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

void run_family(const std::string& header, double mu,
                const std::vector<Instance>& instances) {
  Table table(header);
  table.set_header({"n", "sched scans", "scans/(n+n^2mu)", "naive-G+ scans",
                    "raw-BF scans", "dijkstra heap ops"});
  std::vector<double> ns, scans;
  for (const Instance& inst : instances) {
    const auto engine =
        SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
    // Average over a few sources.
    Rng pick(3);
    std::uint64_t sched = 0, naive = 0, raw = 0, heap = 0;
    const int kSources = 3;
    for (int i = 0; i < kSources; ++i) {
      const auto src = static_cast<Vertex>(pick.next_below(inst.n()));
      sched += engine.distances(src).edges_scanned;
      naive += engine.distances_unscheduled(src).edges_scanned;
      raw += bellman_ford_phases(inst.gg.graph, src).edges_scanned;
      heap += dijkstra(inst.gg.graph, src).heap_ops;
    }
    sched /= kSources;
    naive /= kSources;
    raw /= kSources;
    heap /= kSources;
    const double n = static_cast<double>(inst.n());
    const double predicted = n + std::pow(n, 2.0 * mu);
    table.add_row()
        .cell(static_cast<std::uint64_t>(inst.n()))
        .cell(with_commas(sched))
        .cell(static_cast<double>(sched) / predicted, 2)
        .cell(with_commas(naive))
        .cell(with_commas(raw))
        .cell(with_commas(heap));
    json()
        .row("per_source_scans")
        .field("family", inst.family)
        .field("mu", mu)
        .field("n", inst.n())
        .field("sched_scans", sched)
        .field("naive_gplus_scans", naive)
        .field("raw_bf_scans", raw)
        .field("dijkstra_heap_ops", heap);
    ns.push_back(n);
    scans.push_back(static_cast<double>(sched));
  }
  table.print(std::cout);
  const double slope = fit_log_log_slope(ns, scans);
  std::cout << "fitted per-source scan exponent: " << slope
            << "  (paper: max(1, " << 2.0 * mu << "))\n";
  json()
      .row("scan_exponent_fit")
      .field("header", header)
      .field("mu", mu)
      .field("fitted_exponent", slope)
      .field("paper_exponent", std::max(1.0, 2.0 * mu));
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv, "table1_persource");
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int s = scale();

  {
    std::vector<Instance> v;
    for (std::size_t side : {17u, 25u, 33u, 49u, 65u, 97u}) {
      if (s == 0 && side > 33) break;
      v.push_back(grid2d(side, wm, rng));
    }
    run_family("T1b — per-source work, mu = 1/2 (2-D grids); bound n log n",
               0.5, v);
  }
  {
    std::vector<Instance> v;
    for (std::size_t side : {5u, 7u, 9u, 11u, 13u}) {
      if (s == 0 && side > 9) break;
      v.push_back(grid3d(side, wm, rng));
    }
    run_family("T1b — per-source work, mu = 2/3 (3-D grids); bound n^{4/3}",
               2.0 / 3.0, v);
  }
  {
    std::vector<Instance> v;
    for (std::size_t n : {1000u, 2000u, 4000u, 8000u, 16000u}) {
      if (s == 0 && n > 4000) break;
      v.push_back(tree_family(n, wm, rng));
    }
    run_family("T1b — per-source work, mu -> 0 (trees); bound n", 0.0, v);
  }
  json().write();
  return 0;
}
