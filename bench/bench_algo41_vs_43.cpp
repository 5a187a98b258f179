// S4 — ablation: Algorithm 4.1 (leaves-up) vs Algorithm 4.3
// (simultaneous path doubling).
//
// Paper trade-off: 4.3 saves a d_G factor of parallel time but pays a
// log factor of work. Also ablates the 4.1 closure kernel (repeated
// squaring vs Floyd–Warshall) and 4.3's early-exit fixpoint detector.
#include <iostream>

#include "bench_common.hpp"
#include "core/builder_compact.hpp"
#include "core/builder_doubling.hpp"

using namespace sepsp;
using namespace sepsp::bench;

int main() {
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int s = scale();

  Table table("S4 — builder ablation on 2-D grids");
  table.set_header({"n", "variant", "work", "critical depth", "wall ms",
                    "|E+|"});
  for (std::size_t side : {17u, 33u, 49u}) {
    if (s == 0 && side > 33) break;
    const Instance inst = grid2d(side, wm, rng);
    struct Variant {
      const char* name;
      EngineStats stats;
      double ms;
    };
    std::vector<Variant> variants;
    {
      WallTimer t;
      const auto engine = build_augmentation_recursive<TropicalD>(
          inst.gg.graph, inst.tree, ClosureKind::kSquaring);
      variants.push_back({"4.1 squaring", engine.stats(), t.millis()});
    }
    {
      WallTimer t;
      const auto engine = build_augmentation_recursive<TropicalD>(
          inst.gg.graph, inst.tree, ClosureKind::kFloydWarshall);
      variants.push_back({"4.1 floyd-warshall", engine.stats(), t.millis()});
    }
    {
      WallTimer t;
      const auto engine =
          build_augmentation_doubling<TropicalD>(inst.gg.graph, inst.tree);
      variants.push_back({"4.3 early-exit", engine.stats(), t.millis()});
    }
    {
      WallTimer t;
      DoublingOptions opts;
      opts.early_exit = false;
      const auto engine = build_augmentation_doubling<TropicalD>(
          inst.gg.graph, inst.tree, opts);
      variants.push_back({"4.3 full-iterations", engine.stats(), t.millis()});
    }
    {
      WallTimer t;
      const auto engine =
          build_augmentation_compact<TropicalD>(inst.gg.graph, inst.tree);
      variants.push_back({"4.3 remark-4.4", engine.stats(), t.millis()});
    }
    for (const Variant& v : variants) {
      table.add_row()
          .cell(static_cast<std::uint64_t>(inst.n()))
          .cell(v.name)
          .cell(with_commas(v.stats.build_work))
          .cell(v.stats.critical_depth)
          .cell(v.ms, 1)
          .cell(v.stats.eplus_edges);
    }
  }
  table.print(std::cout);
  std::cout << "shape check: 4.3 has the smaller critical depth, 4.1 the\n"
               "smaller work; all variants emit identical E+ sizes.\n";
  return 0;
}
