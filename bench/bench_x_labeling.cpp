// X4 — distance labeling: the paper's "compact representation of
// all-pairs shortest-paths" realized as separator-based hub labels.
//
// Shape claims: total label entries grow like n^{1+mu} (for grids,
// n^1.5 — far below the n^2 of an explicit APSP table), and
// point-to-point queries are microsecond-scale label merges, versus a
// full Dijkstra per query.
#include <cmath>
#include <iostream>

#include "baseline/dijkstra.hpp"
#include "bench_common.hpp"
#include "core/labeling.hpp"

using namespace sepsp;
using namespace sepsp::bench;

int main(int argc, char** argv) {
  parse_args(argc, argv, "x_labeling");
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int sc = scale();

  Table table("X4 — hub labeling on 2-D grids (compact APSP)");
  table.set_header({"n", "build ms", "entries", "entries/n^1.5", "vs n^2",
                    "avg label", "query us", "dijkstra us/query"});
  std::vector<double> ns, entries;
  for (const std::size_t side : {9u, 13u, 17u, 25u, 33u}) {
    if (sc == 0 && side > 17) break;
    const Instance inst = grid2d(side, wm, rng);
    WallTimer t_build;
    const auto labeling =
        HubLabeling<TropicalD>::build(inst.gg.graph, inst.tree);
    const double build_ms = t_build.millis();

    // Query throughput over random pairs.
    const std::size_t kPairs = 2000;
    std::vector<std::pair<Vertex, Vertex>> pairs;
    Rng pick(3);
    for (std::size_t i = 0; i < kPairs; ++i) {
      pairs.emplace_back(static_cast<Vertex>(pick.next_below(inst.n())),
                         static_cast<Vertex>(pick.next_below(inst.n())));
    }
    WallTimer t_query;
    double checksum = 0;
    for (const auto& [u, v] : pairs) checksum += labeling.value(u, v);
    const double query_us = t_query.micros() / static_cast<double>(kPairs);

    // Dijkstra per query (distinct sources) for comparison.
    WallTimer t_dj;
    const std::size_t kDijkstra = 20;
    for (std::size_t i = 0; i < kDijkstra; ++i) {
      checksum += dijkstra(inst.gg.graph, pairs[i].first).dist[pairs[i].second];
    }
    const double dj_us = t_dj.micros() / static_cast<double>(kDijkstra);

    const double n = static_cast<double>(inst.n());
    table.add_row()
        .cell(static_cast<std::uint64_t>(inst.n()))
        .cell(build_ms, 1)
        .cell(with_commas(labeling.total_label_entries()))
        .cell(static_cast<double>(labeling.total_label_entries()) /
                  std::pow(n, 1.5),
              3)
        .cell(static_cast<double>(labeling.total_label_entries()) / (n * n),
              3)
        .cell(labeling.average_label_size(), 1)
        .cell(query_us, 2)
        .cell(dj_us, 1);
    json()
        .row("labeling")
        .field("n", static_cast<std::uint64_t>(inst.n()))
        .field("build_ms", build_ms)
        .field("entries", labeling.total_label_entries())
        .field("entries_per_n15",
               static_cast<double>(labeling.total_label_entries()) /
                   std::pow(n, 1.5))
        .field("avg_label", labeling.average_label_size())
        .field("query_us", query_us)
        .field("merge_ns", query_us * 1e3)
        .field("dijkstra_us", dj_us);
    ns.push_back(n);
    entries.push_back(static_cast<double>(labeling.total_label_entries()));
    if (!std::isfinite(checksum)) std::cout << "";  // keep work observable
  }
  table.print(std::cout);
  const double exponent = fit_log_log_slope(ns, entries);
  std::cout << "fitted label-entry exponent: " << exponent
            << "  (paper shape: 1 + mu = 1.5 for grids; an explicit APSP\n"
               "   table is exponent 2)\n";
  json().row("summary").field("label_entry_exponent", exponent);
  json().write();
  return 0;
}
