// T1a — Table 1, preprocessing-work rows.
//
// Paper claim: computing E+ for a k^mu-separator family costs
//   O(n + n^{3 mu}) work        (mu != 1/3; log factors at mu = 1/3)
// against the transitive-closure-bottleneck baseline of O(n^3 log n)
// (min-plus repeated squaring over the whole graph).
//
// We measure the PRAM work counters of Algorithm 4.1 across sizes for
// mu = 1/2 (2-D grids), mu = 2/3 (3-D grids) and mu -> 0 (trees), fit
// the growth exponent, and measure the NC baseline at small n to show
// the gap.
//
// --json additionally records wall-clock rows (kind="preprocessing":
// family, n, m, height, threads, kernels (vector|scalar), seconds, work,
// critical_depth, eplus) and a kernel_speedup row on the largest
// instance of each family — the ambient SIMD tier against
// simd::force_tier(kScalar) — so the BENCH trajectory tracks build
// throughput across commits.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "pram/cost_model.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"
#include "semiring/simd.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

int pool_threads() {
  return static_cast<int>(pram::ThreadPool::global().concurrency());
}

/// One timed build, on the ambient SIMD tier or forced to the scalar
/// tier; emits the JSON row when --json is active.
EngineStats timed_build(const Instance& inst, bool vector) {
  const simd::Tier ambient = simd::active_tier();
  if (!vector) simd::force_tier(simd::Tier::kScalar);
  WallTimer timer;
  const auto engine =
      build_augmentation_recursive<TropicalD>(inst.gg.graph, inst.tree);
  const double seconds = timer.seconds();
  const EngineStats st = engine.stats();
  simd::force_tier(ambient);
  json()
      .row("preprocessing")
      .field("family", inst.family)
      .field("n", static_cast<std::uint64_t>(inst.n()))
      .field("m", static_cast<std::uint64_t>(inst.m()))
      .field("height", static_cast<std::uint64_t>(inst.tree.height()))
      .field("threads", pool_threads())
      .field("kernels", vector ? "vector" : "scalar")
      .field("seconds", seconds)
      .field("work", st.build_work)
      .field("critical_depth", st.critical_depth)
      .field("eplus", static_cast<std::uint64_t>(st.eplus_edges));
  return st;
}

void run_family(const std::string& header, double mu,
                const std::vector<Instance>& instances,
                std::vector<double>* ns, std::vector<double>* works) {
  Table table(header);
  table.set_header({"n", "m", "height", "build work", "work / n^max(1,3mu)",
                    "E+ size"});
  for (const Instance& inst : instances) {
    const EngineStats st = timed_build(inst, /*vector=*/true);
    const double n = static_cast<double>(inst.n());
    const double predicted = std::pow(n, std::max(1.0, 3.0 * mu));
    table.add_row()
        .cell(static_cast<std::uint64_t>(inst.n()))
        .cell(static_cast<std::uint64_t>(inst.m()))
        .cell(static_cast<std::uint64_t>(inst.tree.height()))
        .cell(with_commas(st.build_work))
        .cell(static_cast<double>(st.build_work) / predicted, 3)
        .cell(st.eplus_edges);
    ns->push_back(n);
    works->push_back(static_cast<double>(st.build_work));
  }
  table.print(std::cout);
  std::cout << "fitted work exponent: " << fit_log_log_slope(*ns, *works)
            << "  (paper: max(1, " << 3.0 * mu << ") plus log factors)\n";

  // Kernel ablation on the family's largest instance: rebuild on the
  // scalar tier and record the speedup the vector kernels deliver.
  const Instance& largest = instances.back();
  WallTimer vector_timer;
  (void)timed_build(largest, /*vector=*/true);
  const double vector_s = vector_timer.seconds();
  WallTimer scalar_timer;
  (void)timed_build(largest, /*vector=*/false);
  const double scalar_s = scalar_timer.seconds();
  std::cout << "largest " << largest.family << " (n=" << largest.n()
            << "): " << simd::tier_name(simd::active_tier()) << " kernels "
            << vector_s << "s vs scalar " << scalar_s << "s — speedup "
            << scalar_s / vector_s << "x at " << pool_threads()
            << " threads\n";
  json()
      .row("kernel_speedup")
      .field("family", largest.family)
      .field("n", static_cast<std::uint64_t>(largest.n()))
      .field("threads", pool_threads())
      .field("vector_seconds", vector_s)
      .field("scalar_seconds", scalar_s)
      .field("speedup", scalar_s / vector_s);
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv, "table1_preprocessing");
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int s = scale();

  {
    std::vector<Instance> v;
    for (std::size_t side : {17u, 25u, 33u, 49u, 65u, 97u}) {
      if (s == 0 && side > 33) break;
      v.push_back(grid2d(side, wm, rng));
    }
    std::vector<double> ns, works;
    run_family("T1a — preprocessing work, mu = 1/2 (2-D grids); bound n^1.5",
               0.5, v, &ns, &works);
  }
  {
    std::vector<Instance> v;
    for (std::size_t side : {5u, 7u, 9u, 11u, 13u}) {
      if (s == 0 && side > 9) break;
      v.push_back(grid3d(side, wm, rng));
    }
    std::vector<double> ns, works;
    run_family("T1a — preprocessing work, mu = 2/3 (3-D grids); bound n^2",
               2.0 / 3.0, v, &ns, &works);
  }
  {
    std::vector<Instance> v;
    for (std::size_t n : {1000u, 2000u, 4000u, 8000u, 16000u}) {
      if (s == 0 && n > 4000) break;
      v.push_back(tree_family(n, wm, rng));
    }
    std::vector<double> ns, works;
    run_family("T1a — preprocessing work, mu -> 0 (trees); bound n", 0.0, v,
               &ns, &works);
  }

  // The transitive-closure bottleneck: dense min-plus repeated squaring
  // over the whole vertex set, the work every general NC algorithm pays.
  {
    Table table("T1a — NC baseline (dense min-plus squaring, O(n^3 log n))");
    table.set_header({"n", "baseline work", "vs grid2d E+ work (ratio)"});
    for (std::size_t side : {9u, 13u, 17u, 23u}) {
      Rng local(7);
      const Instance inst = grid2d(side, wm, local);
      const std::uint64_t eplus_work =
          build_augmentation_recursive<TropicalD>(inst.gg.graph, inst.tree)
              .augmentation()
              .build_cost.work;
      Matrix<TropicalD> dense(inst.n());
      for (Vertex u = 0; u < inst.n(); ++u) {
        dense.at(u, u) = 0;
        for (const Arc& a : inst.gg.graph.out(u)) {
          dense.merge(u, a.to, a.weight);
        }
      }
      const pram::CostScope scope;
      (void)closure_by_squaring(std::move(dense));
      const auto baseline = scope.cost();
      table.add_row()
          .cell(static_cast<std::uint64_t>(inst.n()))
          .cell(with_commas(baseline.work))
          .cell(static_cast<double>(baseline.work) /
                    static_cast<double>(eplus_work),
                1);
    }
    table.print(std::cout);
    std::cout << "shape check: the ratio must grow with n — the separator\n"
                 "preprocessing escapes the transitive-closure bottleneck.\n";
  }
  json().write();
  return 0;
}
