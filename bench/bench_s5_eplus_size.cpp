// S5a — Section 5: |E+| = O(n + n^{2 mu}) (log factor at mu = 1/2).
//
// Measures the deduplicated shortcut count across sizes per family and
// fits the growth exponent.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

void run_family(const std::string& header, double mu,
                const std::vector<Instance>& instances) {
  Table table(header);
  table.set_header(
      {"n", "|E|", "|E+|", "|E+|/(n+n^2mu)", "|E+|/(n log n)"});
  std::vector<double> ns, sizes;
  for (const Instance& inst : instances) {
    const std::size_t eplus =
        build_augmentation_recursive<TropicalD>(inst.gg.graph, inst.tree)
            .shortcut_edges()
            .size();
    const double n = static_cast<double>(inst.n());
    table.add_row()
        .cell(static_cast<std::uint64_t>(inst.n()))
        .cell(static_cast<std::uint64_t>(inst.m()))
        .cell(eplus)
        .cell(static_cast<double>(eplus) / (n + std::pow(n, 2.0 * mu)), 3)
        .cell(static_cast<double>(eplus) / (n * std::log2(n)), 3);
    ns.push_back(n);
    sizes.push_back(static_cast<double>(eplus));
  }
  table.print(std::cout);
  std::cout << "fitted |E+| exponent: " << fit_log_log_slope(ns, sizes)
            << "  (paper: max(1, " << 2.0 * mu << "), log factor at mu=1/2)\n";
}

}  // namespace

int main() {
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int s = scale();

  {
    std::vector<Instance> v;
    for (std::size_t side : {17u, 25u, 33u, 49u, 65u, 97u, 129u}) {
      if (s == 0 && side > 33) break;
      v.push_back(grid2d(side, wm, rng));
    }
    run_family("S5a — |E+| for mu = 1/2 (2-D grids); bound n log n", 0.5, v);
  }
  {
    std::vector<Instance> v;
    for (std::size_t side : {5u, 7u, 9u, 11u, 13u}) {
      if (s == 0 && side > 9) break;
      v.push_back(grid3d(side, wm, rng));
    }
    run_family("S5a — |E+| for mu = 2/3 (3-D grids); bound n^{4/3}",
               2.0 / 3.0, v);
  }
  {
    std::vector<Instance> v;
    for (std::size_t n : {1000u, 2000u, 4000u, 8000u, 16000u}) {
      if (s == 0 && n > 4000) break;
      v.push_back(tree_family(n, wm, rng));
    }
    run_family("S5a — |E+| for mu -> 0 (trees); bound n", 0.0, v);
  }
  return 0;
}
