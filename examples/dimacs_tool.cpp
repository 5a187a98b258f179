// Command-line utility tying the I/O and persistence layers together:
// generate DIMACS instances, preprocess them, save/load the preprocessed
// artifacts, and answer queries — the workflow a downstream user of the
// library would script.
//
//   ./dimacs_tool generate --out=net --side=24 --seed=1
//       writes net.gr / net.co (triangulated planar mesh)
//   ./dimacs_tool preprocess --graph=net
//       writes net.img (the engine's v8 image, store/format.hpp)
//   ./dimacs_tool query --graph=net --source=0 --target=575
//       opens net.img and answers (validates against Dijkstra);
//       exits 2 on a vertex id outside [0, n)
//   ./dimacs_tool demo [--side=20]
//       runs all three steps in a temp directory
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "separator/finders.hpp"
#include "store/stored_engine.hpp"
#include "store/writer.hpp"
#include "util/cli.hpp"

using namespace sepsp;

namespace {

int generate(const Args& args) {
  const std::string out = args.get_string("out", "net");
  const auto side = args.get_uint("side", 24, 1);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const GeneratedGraph gg =
      make_triangulated_grid(side, side, WeightModel::uniform(1, 10), rng);
  {
    std::ofstream gr(out + ".gr");
    write_dimacs(gr, gg.graph);
  }
  {
    std::ofstream co(out + ".co");
    write_dimacs_coords(co, gg.coords);
  }
  std::printf("wrote %s.gr (%zu vertices, %zu arcs) and %s.co\n", out.c_str(),
              gg.graph.num_vertices(), gg.graph.num_edges(), out.c_str());
  return 0;
}

int preprocess(const Args& args) {
  const std::string name = args.get_string("graph", "net");
  std::ifstream gr(name + ".gr");
  std::string error;
  const auto g = read_dimacs(gr, &error);
  if (!g) {
    std::fprintf(stderr, "cannot read %s.gr: %s\n", name.c_str(),
                 error.c_str());
    return 1;
  }
  std::ifstream co(name + ".co");
  const auto coords = read_dimacs_coords(co, g->num_vertices(), &error);
  const Skeleton skel(*g);
  const SeparatorTree tree = build_separator_tree(
      skel, coords ? make_geometric_finder(*coords) : make_bfs_finder());
  if (const auto err = tree.validate(skel)) {
    std::fprintf(stderr, "decomposition invalid: %s\n", err->c_str());
    return 1;
  }
  const auto engine = SeparatorShortestPaths<>::build(*g, tree);
  const std::string image = name + ".img";
  if (!store::write_engine_image(image, engine, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", image.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("preprocessed %s: height %u, %zu shortcuts -> %s\n",
              name.c_str(), tree.height(),
              engine.stats().eplus_edges, image.c_str());
  return 0;
}

int query(const Args& args) {
  const std::string name = args.get_string("graph", "net");
  std::ifstream gr(name + ".gr");
  std::string error;
  const auto g = read_dimacs(gr, &error);
  if (!g) {
    std::fprintf(stderr, "cannot read %s.gr: %s\n", name.c_str(),
                 error.c_str());
    return 1;
  }
  const auto stored =
      store::StoredEngine<TropicalD>::open(name + ".img", {}, &error);
  if (!stored) {
    std::fprintf(stderr, "cannot open %s.img (run preprocess first): %s\n",
                 name.c_str(), error.c_str());
    return 1;
  }
  const auto& engine = stored->engine();
  const std::size_t n = g->num_vertices();
  if (engine.graph().num_vertices() != n) {
    std::fprintf(stderr, "%s.img was built for %zu vertices, %s.gr has %zu\n",
                 name.c_str(), engine.graph().num_vertices(), name.c_str(), n);
    return 1;
  }
  const std::int64_t source = args.get_int("source", 0);
  const std::int64_t target =
      args.get_int("target", static_cast<std::int64_t>(n) - 1);
  for (const std::int64_t v : {source, target}) {
    if (v < 0 || static_cast<std::uint64_t>(v) >= n) {
      std::fprintf(stderr, "vertex %lld out of range: %s has %zu vertices\n",
                   static_cast<long long>(v), name.c_str(), n);
      return 2;
    }
  }
  const auto s = static_cast<Vertex>(source);
  const auto t = static_cast<Vertex>(target);
  const auto r = engine.distances(s);
  const DijkstraResult check = dijkstra(*g, s);
  std::printf("dist(%u -> %u) = %.6f (dijkstra: %.6f)\n", s, t, r.dist[t],
              check.dist[t]);
  return std::fabs(r.dist[t] - check.dist[t]) < 1e-6 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string mode =
      args.positional().empty() ? "demo" : args.positional().front();
  if (mode == "generate") return generate(args);
  if (mode == "preprocess") return preprocess(args);
  if (mode == "query") return query(args);
  if (mode == "demo") {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "sepsp_dimacs_demo";
    fs::create_directories(dir);
    const std::string base = (dir / "net").string();
    const std::string side = std::to_string(args.get_int("side", 20));
    const char* gen_argv[] = {"tool", "--out", base.c_str(), "--side",
                              side.c_str()};
    const char* pre_argv[] = {"tool", "--graph", base.c_str()};
    if (generate(Args(5, gen_argv)) != 0) return 1;
    if (preprocess(Args(3, pre_argv)) != 0) return 1;
    if (query(Args(3, pre_argv)) != 0) return 1;
    std::printf("OK (artifacts in %s)\n", dir.string().c_str());
    return 0;
  }
  std::fprintf(stderr, "usage: %s generate|preprocess|query|demo [--flags]\n",
               args.program().c_str());
  return 2;
}
