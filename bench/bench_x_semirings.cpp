// X1 — paper remark (iii): the machinery is generic over path-algebra
// semirings. google-benchmark microbenchmarks of the per-source query
// and the matrix kernels across semirings on a fixed 2-D grid: cost
// parity (same asymptotics, constant-factor differences only).
#include <benchmark/benchmark.h>

#include "approx/approx.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "semiring/bitmatrix.hpp"
#include "semiring/matrix.hpp"
#include "separator/finders.hpp"
#include "util/random.hpp"

namespace sepsp {
namespace {

constexpr std::size_t kSide = 33;

struct Shared {
  GeneratedGraph gg;
  SeparatorTree tree;
  Shared() {
    Rng rng(1);
    gg = make_grid({kSide, kSide}, WeightModel::uniform(1, 10), rng);
    tree = build_separator_tree(Skeleton(gg.graph),
                                make_grid_finder({kSide, kSide}));
  }
};

Shared& shared() {
  static Shared s;
  return s;
}

template <Semiring S>
void BM_QueryPerSource(benchmark::State& state) {
  const auto engine =
      SeparatorShortestPaths<S>::build(shared().gg.graph, shared().tree);
  Vertex source = 0;
  for (auto _ : state) {
    auto r = engine.distances(source);
    benchmark::DoNotOptimize(r.dist.data());
    source = (source + 37) % shared().gg.graph.num_vertices();
  }
}
BENCHMARK(BM_QueryPerSource<TropicalD>);
BENCHMARK(BM_QueryPerSource<TropicalI>);
BENCHMARK(BM_QueryPerSource<BooleanSR>);
BENCHMARK(BM_QueryPerSource<BottleneckSR>);

template <Semiring S>
void BM_BuildRecursive(benchmark::State& state) {
  for (auto _ : state) {
    const auto engine = build_augmentation_recursive<S>(shared().gg.graph,
                                                        shared().tree);
    benchmark::DoNotOptimize(engine.shortcut_edges().size());
  }
}
BENCHMARK(BM_BuildRecursive<TropicalD>);
BENCHMARK(BM_BuildRecursive<BooleanSR>);
BENCHMARK(BM_BuildRecursive<BottleneckSR>);

template <Semiring S>
void BM_MatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Matrix<S> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.next_bool(0.3)) {
        a.at(i, j) = S::from_weight(rng.next_double(1, 9));
        b.at(j, i) = S::from_weight(rng.next_double(1, 9));
      }
    }
  }
  for (auto _ : state) {
    auto c = multiply(a, b);
    benchmark::DoNotOptimize(c.at(0, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatrixMultiply<TropicalD>)->Arg(32)->Arg(64)->Arg(128)
    ->Complexity(benchmark::oNCubed);
BENCHMARK(BM_MatrixMultiply<BooleanSR>)->Arg(32)->Arg(64)->Arg(128)
    ->Complexity(benchmark::oNCubed);

void BM_ApproxQuery(benchmark::State& state) {
  // (1 + eps)-approximation over exact integer arithmetic: denominated
  // in the same per-source units as BM_QueryPerSource above.
  ApproxEngine::Options opts;
  opts.build.approx_eps = 1.0 / static_cast<double>(state.range(0));
  const auto engine =
      ApproxEngine::build(shared().gg.graph, shared().tree, opts);
  Vertex source = 0;
  for (auto _ : state) {
    auto d = engine.distances(source);
    benchmark::DoNotOptimize(d.data());
    source = (source + 37) % shared().gg.graph.num_vertices();
  }
}
BENCHMARK(BM_ApproxQuery)->Arg(2)->Arg(10)->Arg(100);

void BM_BitMatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  BitMatrix a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.next_bool(0.3)) {
        a.set(i, j);
        b.set(j, i);
      }
    }
  }
  for (auto _ : state) {
    auto c = a.multiply(b);
    benchmark::DoNotOptimize(c.popcount());
  }
}
// The 64x word-packing advantage over Matrix<BooleanSR> is the M(r)
// substitution of DESIGN.md (compare with BM_MatrixMultiply<BooleanSR>).
BENCHMARK(BM_BitMatrixMultiply)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

}  // namespace
}  // namespace sepsp

BENCHMARK_MAIN();
