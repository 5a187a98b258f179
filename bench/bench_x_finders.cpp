// X3 — separator-finder ablation.
//
// The paper assumes the decomposition is given; its quality (separator
// sizes, balance, tree height) drives every bound. This bench compares
// the shipped finders on the families they claim: exact grid hyperplanes,
// geometric projections and fundamental cycles on planar meshes,
// geometric on unit-disk (r-overlap) graphs, centroids on trees, and the
// structure-free BFS fallback everywhere, including the null finder that
// exercises the builder's fallback chain.
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "separator/cycle_separator.hpp"
#include "separator/treewidth_separator.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

void report(Table& table, const std::string& graph,
            const std::string& finder_name, const Digraph& g,
            const Skeleton& skel, const SeparatorTree& tree) {
  const auto err = tree.validate(skel);
  if (err) {
    std::cerr << graph << "/" << finder_name << " invalid: " << *err << "\n";
    std::exit(1);
  }
  const auto s = tree.stats();
  const EngineStats st =
      build_augmentation_recursive<TropicalD>(g, tree).stats();
  table.add_row()
      .cell(graph)
      .cell(finder_name)
      .cell(static_cast<std::uint64_t>(s.height))
      .cell(s.max_separator)
      .cell(s.max_boundary)
      .cell(st.eplus_edges)
      .cell(with_commas(st.build_work));
}

}  // namespace

int main() {
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int sc = scale();
  const std::size_t side = sc == 0 ? 15 : 25;

  Table table("X3 — finder quality (smaller separators => smaller E+ and "
              "less preprocessing work)");
  table.set_header({"graph", "finder", "height", "max|S|", "max|B|", "|E+|",
                    "E+ build work"});

  {
    const std::vector<std::size_t> dims = {side, side};
    const GeneratedGraph gg = make_grid(dims, wm, rng);
    const Skeleton skel(gg.graph);
    const std::string name = "grid" + std::to_string(side) + "^2";
    report(table, name, "grid-hyperplane", gg.graph, skel,
           build_separator_tree(skel, make_grid_finder(dims)));
    report(table, name, "geometric", gg.graph, skel,
           build_separator_tree(skel, make_geometric_finder(gg.coords)));
    report(table, name, "bfs-level", gg.graph, skel,
           build_separator_tree(skel, make_bfs_finder()));
    report(table, name, "null(fallbacks)", gg.graph, skel,
           build_separator_tree(skel, make_null_finder()));
  }
  {
    const GeneratedGraph gg = make_triangulated_grid(side, side, wm, rng);
    const Skeleton skel(gg.graph);
    const std::string name = "mesh" + std::to_string(side) + "^2";
    report(table, name, "geometric", gg.graph, skel,
           build_separator_tree(skel, make_geometric_finder(gg.coords)));
    report(table, name, "fundamental-cycle", gg.graph, skel,
           build_separator_tree(skel, make_cycle_finder(gg.coords)));
    report(table, name, "bfs-level", gg.graph, skel,
           build_separator_tree(skel, make_bfs_finder()));
  }
  {
    const GeneratedGraph gg =
        make_unit_disk(sc == 0 ? 400 : 1200, 8.0, wm, rng);
    const Skeleton skel(gg.graph);
    const std::string name =
        "unit-disk" + std::to_string(gg.graph.num_vertices());
    report(table, name, "geometric", gg.graph, skel,
           build_separator_tree(skel, make_geometric_finder(gg.coords)));
    report(table, name, "bfs-level", gg.graph, skel,
           build_separator_tree(skel, make_bfs_finder()));
  }
  {
    const GeneratedGraph gg =
        make_random_tree(sc == 0 ? 500 : 2000, wm, rng);
    const Skeleton skel(gg.graph);
    const std::string name = "tree" + std::to_string(gg.graph.num_vertices());
    report(table, name, "centroid", gg.graph, skel,
           build_separator_tree(skel, make_tree_finder()));
    report(table, name, "bfs-level", gg.graph, skel,
           build_separator_tree(skel, make_bfs_finder()));
  }
  {
    const KTreeWithDecomposition kt = make_partial_ktree_decomposed(
        sc == 0 ? 400 : 1200, 3, 0.6, wm, rng);
    const Skeleton skel(kt.gg.graph);
    const std::string name =
        "3tree" + std::to_string(kt.gg.graph.num_vertices());
    report(table, name, "treewidth-bag", kt.gg.graph, skel,
           build_separator_tree(skel, make_treewidth_finder(kt.td)));
    report(table, name, "bfs-level", kt.gg.graph, skel,
           build_separator_tree(skel, make_bfs_finder()));
  }

  table.print(std::cout);
  std::cout
      << "shape check: every tree passes the full validator; centroid\n"
         "dominates on trees by orders of magnitude and geometric wins on\n"
         "unit-disk graphs, while on grids/meshes the balanced BFS-level\n"
         "cut is already near-optimal (grids are its best case).\n";
  return 0;
}
