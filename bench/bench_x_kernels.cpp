// X — dense-kernel throughput: naive (the element-at-a-time reference
// oracle, detail::multiply_reference_into / floyd_warshall_reference,
// called directly) vs the public cache-blocked min-plus kernels, in
// cell-updates/sec, plus the vertex->index lookup micro-bench (binary
// search vs dense scratch map) that motivated the builders' scratch
// arenas.
//
// JSON rows (--json):
//   kind="simd":        compiled, detected, active
//   kind="kernel":      kernel, n, mode (naive|blocked), threads, seconds,
//                       cells, cells_per_sec, speedup_vs_naive
//   kind="kernel_tier": kernel, n, tier, threads, seconds, cells,
//                       cells_per_sec, speedup_vs_scalar_tier
//   kind="node_shape":  kernel (product|floyd_warshall), shape, rows, mid,
//                       cols, mode (reference|<tier>), cells, ns_per_cell,
//                       speedup_vs_reference
//   kind="index_map":   list_size, lookups, mode, seconds, lookups_per_sec
//   kind="arc_source":  n, arcs, mode (binary_search|memoized), seconds,
//                       arcs_per_sec
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/builder_scratch.hpp"
#include "graph/generators.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"
#include "semiring/simd.hpp"
#include "util/vertex_index.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

Matrix<TropicalD> random_matrix(std::size_t n, Rng& rng) {
  Matrix<TropicalD> m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.next_bool(0.5)) m.at(i, j) = rng.next_double(1.0, 10.0);
    }
  }
  return m;
}

/// Times `body` with enough repetitions to pass ~0.2s, returns seconds
/// per repetition.
template <typename F>
double time_reps(const F& body) {
  std::size_t reps = 1;
  for (;;) {
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r) body();
    const double s = timer.seconds();
    if (s >= 0.2 || reps >= 1u << 14) return s / static_cast<double>(reps);
    reps *= 4;
  }
}

/// out = a (x) b through the public kernel, or through the reference.
void product(const Matrix<TropicalD>& a, const Matrix<TropicalD>& b,
             Matrix<TropicalD>& out, bool naive) {
  if (!naive) {
    multiply_into(a, b, out);
    return;
  }
  out.reset(a.rows(), b.cols());
  detail::multiply_reference_into(a, b, out);
}

/// Floyd–Warshall in place through the public kernel or the reference.
void closure(Matrix<TropicalD>& m, bool naive) {
  if (naive) {
    detail::floyd_warshall_reference(m);
  } else {
    floyd_warshall(m);
  }
}

struct KernelCase {
  std::string name;
  double (*run)(const Matrix<TropicalD>&, bool naive, std::uint64_t* cells);
};

double run_multiply(const Matrix<TropicalD>& input, bool naive,
                    std::uint64_t* cells) {
  const std::size_t n = input.rows();
  *cells = static_cast<std::uint64_t>(n) * n * n;
  Matrix<TropicalD> out;
  return time_reps([&] { product(input, input, out, naive); });
}

double run_fw(const Matrix<TropicalD>& input, bool naive,
              std::uint64_t* cells) {
  const std::size_t n = input.rows();
  *cells = static_cast<std::uint64_t>(n) * n * n;
  Matrix<TropicalD> work;
  return time_reps([&] {
    work = input;
    closure(work, naive);
  });
}

/// The naive squaring step is the reference product followed by a
/// per-cell merge pass.
double run_square(const Matrix<TropicalD>& input, bool naive,
                  std::uint64_t* cells) {
  const std::size_t n = input.rows();
  *cells = static_cast<std::uint64_t>(n) * n * (n + 1);  // product + combine
  Matrix<TropicalD> work, scratch;
  return time_reps([&] {
    work = input;
    if (!naive) {
      (void)square_step(work, scratch);
      return;
    }
    product(work, work, scratch, /*naive=*/true);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) work.merge(i, j, scratch.at(i, j));
    }
  });
}

void kernel_rows(int threads) {
  const int s = scale();
  std::vector<std::size_t> sizes = {64, 128, 256};
  if (s >= 1) sizes.push_back(384);
  if (s >= 2) sizes.push_back(512);
  const KernelCase cases[] = {
      {"multiply", run_multiply}, {"floyd_warshall", run_fw},
      {"square_step", run_square}};

  Table table("X — min-plus kernel throughput (cell updates / sec)");
  table.set_header(
      {"kernel", "n", "naive cells/s", "blocked cells/s", "speedup"});
  Rng rng(23);
  for (const std::size_t n : sizes) {
    const auto input = random_matrix(n, rng);
    for (const KernelCase& kc : cases) {
      std::uint64_t cells = 0;
      const double naive_s = kc.run(input, /*naive=*/true, &cells);
      const double blocked_s = kc.run(input, /*naive=*/false, &cells);
      const double naive_rate = static_cast<double>(cells) / naive_s;
      const double blocked_rate = static_cast<double>(cells) / blocked_s;
      table.add_row()
          .cell(kc.name)
          .cell(static_cast<std::uint64_t>(n))
          .cell(naive_rate / 1e6, 1)
          .cell(blocked_rate / 1e6, 1)
          .cell(naive_s / blocked_s, 2);
      for (const bool blocked : {false, true}) {
        json()
            .row("kernel")
            .field("kernel", kc.name)
            .field("n", static_cast<std::uint64_t>(n))
            .field("mode", blocked ? "blocked" : "naive")
            .field("threads", threads)
            .field("seconds", blocked ? blocked_s : naive_s)
            .field("cells", cells)
            .field("cells_per_sec", blocked ? blocked_rate : naive_rate)
            .field("speedup_vs_naive", blocked ? naive_s / blocked_s : 1.0);
      }
    }
  }
  table.print(std::cout);
  std::cout << "(table rates in M cells/s; naive = element-at-a-time "
               "reference, blocked = tiled kernels on the stealing pool)\n";
}

/// One line + one JSON row describing the SIMD dispatch configuration,
/// so every --json capture records which tier the kernel rows ran on.
void simd_info_row() {
  std::cout << "simd: compiled=" << simd::tier_name(simd::compiled_tier())
            << " detected=" << simd::tier_name(simd::detected_tier())
            << " active=" << simd::tier_name(simd::active_tier()) << "\n";
  json()
      .row("simd")
      .field("compiled", simd::tier_name(simd::compiled_tier()))
      .field("detected", simd::tier_name(simd::detected_tier()))
      .field("active", simd::tier_name(simd::active_tier()));
}

/// Blocked-kernel throughput per dispatch tier. The scalar tier runs the
/// same blocking with simd.hpp's scalar loops, so speedup_vs_scalar_tier
/// reads off exactly what the vector substrate buys at each ISA width.
void tier_rows(int threads) {
  std::vector<std::size_t> sizes = {128, 256};
  if (scale() >= 1) sizes.push_back(512);
  const KernelCase cases[] = {
      {"multiply", run_multiply}, {"floyd_warshall", run_fw},
      {"square_step", run_square}};
  std::vector<simd::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(simd::detected_tier()); ++t) {
    tiers.push_back(static_cast<simd::Tier>(t));
  }

  Table table("X — blocked kernels per SIMD tier (M cell updates / sec)");
  std::vector<std::string> header = {"kernel", "n"};
  for (const simd::Tier t : tiers) header.push_back(simd::tier_name(t));
  header.push_back("best speedup");
  table.set_header(header);

  const simd::Tier ambient = simd::active_tier();
  Rng rng(31);
  for (const std::size_t n : sizes) {
    const auto input = random_matrix(n, rng);
    for (const KernelCase& kc : cases) {
      double scalar_s = 0;
      double best_speedup = 1.0;
      auto row = table.add_row();
      row.cell(kc.name).cell(static_cast<std::uint64_t>(n));
      for (const simd::Tier t : tiers) {
        simd::force_tier(t);
        std::uint64_t cells = 0;
        const double s = kc.run(input, /*naive=*/false, &cells);
        if (t == simd::Tier::kScalar) scalar_s = s;
        const double rate = static_cast<double>(cells) / s;
        const double speedup = scalar_s / s;
        best_speedup = std::max(best_speedup, speedup);
        row.cell(rate / 1e6, 1);
        json()
            .row("kernel_tier")
            .field("kernel", kc.name)
            .field("n", static_cast<std::uint64_t>(n))
            .field("tier", simd::tier_name(t))
            .field("threads", threads)
            .field("seconds", s)
            .field("cells", cells)
            .field("cells_per_sec", rate)
            .field("speedup_vs_scalar_tier", speedup);
      }
      row.cell(best_speedup, 2);
    }
  }
  simd::force_tier(ambient);
  table.print(std::cout);
  std::cout << "(all modes blocked; scalar = simd.hpp's scalar loops, "
               "other columns = explicit vector kernels per ISA)\n";
}

Matrix<TropicalD> random_rect(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix<TropicalD> m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m.at(i, j) = rng.next_double(1.0, 10.0);
    }
  }
  return m;
}

/// The dense kernels at the shapes Algorithm 4.1 runs on a 9x9x9 grid
/// (the update-neg3d instance): |B| x |S| x |S| and |B| x |S| x |B|
/// products and |S|-wide closures (81 at the root, 45 at level 1, 25
/// at levels 2-3). ns per cell update for the element-at-a-time
/// reference and for the dispatched kernel on every tier — the kernel
/// layer of an incremental update batch.
void node_shape_rows() {
  struct Shape {
    const char* kernel;
    std::size_t rows, mid, cols;
  };
  const Shape shapes[] = {
      {"product", 81, 45, 81},    {"product", 81, 45, 45},
      {"product", 81, 25, 81},    {"product", 61, 25, 61},
      {"product", 59, 15, 59},    {"product", 26, 9, 26},
      {"floyd_warshall", 81, 81, 81}, {"floyd_warshall", 45, 45, 45},
      {"floyd_warshall", 25, 25, 25}};
  std::vector<simd::Tier> tiers;
  for (int t = 0; t <= static_cast<int>(simd::detected_tier()); ++t) {
    tiers.push_back(static_cast<simd::Tier>(t));
  }
  Table table("X — kernels at 9x9x9 node shapes (ns per cell update)");
  std::vector<std::string> header = {"kernel", "shape", "reference"};
  for (const simd::Tier t : tiers) header.push_back(simd::tier_name(t));
  table.set_header(header);

  const simd::Tier ambient = simd::active_tier();
  Rng rng(41);
  for (const Shape& sh : shapes) {
    const bool fw = std::string(sh.kernel) == "floyd_warshall";
    const auto a = random_rect(sh.rows, sh.mid, rng);
    const auto b = random_rect(sh.mid, sh.cols, rng);
    const std::uint64_t cells =
        static_cast<std::uint64_t>(sh.rows) * sh.mid * sh.cols;
    Matrix<TropicalD> out;
    const auto run = [&](bool naive) {
      if (fw) {
        out = a;
        closure(out, naive);
      } else {
        product(a, b, out, naive);
      }
    };
    char shape_buf[48];
    std::snprintf(shape_buf, sizeof shape_buf, "%zux%zux%zu", sh.rows, sh.mid,
                  sh.cols);
    const std::string shape = shape_buf;
    auto row = table.add_row();
    row.cell(sh.kernel).cell(shape);
    double reference_ns = 0;
    const auto emit = [&](const char* mode, double seconds) {
      const double ns = seconds * 1e9 / static_cast<double>(cells);
      if (reference_ns == 0) reference_ns = ns;
      row.cell(ns, 3);
      json()
          .row("node_shape")
          .field("kernel", sh.kernel)
          .field("shape", shape)
          .field("rows", static_cast<std::uint64_t>(sh.rows))
          .field("mid", static_cast<std::uint64_t>(sh.mid))
          .field("cols", static_cast<std::uint64_t>(sh.cols))
          .field("mode", mode)
          .field("cells", cells)
          .field("ns_per_cell", ns)
          .field("speedup_vs_reference", reference_ns / ns);
    };
    emit("reference", time_reps([&] { run(/*naive=*/true); }));
    for (const simd::Tier t : tiers) {
      simd::force_tier(t);
      emit(simd::tier_name(t), time_reps([&] { run(/*naive=*/false); }));
    }
  }
  simd::force_tier(ambient);
  table.print(std::cout);
  std::cout << "(reference = element-at-a-time loops; tier columns = the "
               "dispatched product / fw_panel kernels)\n";
}

// The satellite micro-bench: per-arc vertex->index resolution on lists
// shaped like deep-tree boundaries (small sorted lists probed many
// times), binary search vs the epoch-stamped dense map.
void index_map_rows() {
  constexpr std::size_t kUniverse = 1 << 16;
  constexpr std::size_t kLookups = 1 << 15;
  Table table("X — vertex->index lookup (deep-tree boundary lists)");
  table.set_header(
      {"list size", "binary M/s", "dense-map M/s", "speedup"});
  Rng rng(29);
  detail::VertexIndexMap map(kUniverse);
  for (const std::size_t list_size : {4u, 16u, 64u, 256u}) {
    std::vector<Vertex> list;
    list.reserve(list_size);
    for (std::size_t i = 0; i < list_size; ++i) {
      list.push_back(static_cast<Vertex>(rng.next_below(kUniverse)));
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    std::vector<Vertex> probes(kLookups);
    for (auto& p : probes) {
      // Half the probes hit the list (the per-arc common case).
      p = rng.next_bool(0.5)
              ? list[rng.next_below(list.size())]
              : static_cast<Vertex>(rng.next_below(kUniverse));
    }
    volatile std::size_t sink = 0;
    const double binary_s = time_reps([&] {
      std::size_t acc = 0;
      for (const Vertex v : probes) acc += detail::index_of(list, v);
      sink = acc;
    });
    const double dense_s = time_reps([&] {
      map.bind(list);  // re-bound per region, as the builders do
      std::size_t acc = 0;
      for (const Vertex v : probes) acc += map.find(v);
      sink = acc;
    });
    const double binary_rate = static_cast<double>(kLookups) / binary_s;
    const double dense_rate = static_cast<double>(kLookups) / dense_s;
    table.add_row()
        .cell(static_cast<std::uint64_t>(list.size()))
        .cell(binary_rate / 1e6, 1)
        .cell(dense_rate / 1e6, 1)
        .cell(binary_s / dense_s, 2);
    for (const bool dense : {false, true}) {
      json()
          .row("index_map")
          .field("list_size", static_cast<std::uint64_t>(list.size()))
          .field("lookups", static_cast<std::uint64_t>(kLookups))
          .field("mode", dense ? "dense_map" : "binary_search")
          .field("seconds", dense ? dense_s : binary_s)
          .field("lookups_per_sec", dense ? dense_rate : binary_rate);
    }
  }
  table.print(std::cout);
}

/// Arc->source resolution while streaming g.arcs(): the seed's binary
/// search over the CSR offsets vs the memoized arc_sources() index
/// (graph/digraph.hpp) that replaced it.
void arc_source_rows() {
  Rng rng(37);
  const std::size_t side = scale() == 0 ? 64 : 192;
  const auto gg = make_grid({side, side}, WeightModel::uniform(1, 10), rng);
  const Digraph& g = gg.graph;
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();

  // The seed's lookup: upper_bound over the offsets array, rebuilt here
  // from out-degrees (the graph no longer exposes it per arc).
  std::vector<std::size_t> offsets(n + 1, 0);
  for (Vertex u = 0; u < n; ++u) {
    offsets[u + 1] = offsets[u] + g.out_degree(u);
  }
  volatile std::uint64_t sink = 0;
  const double binary_s = time_reps([&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < m; ++i) {
      acc += static_cast<std::uint64_t>(
          std::upper_bound(offsets.begin(), offsets.end(), i) -
          offsets.begin() - 1);
    }
    sink = acc;
  });
  const double memo_s = time_reps([&] {
    const auto sources = g.arc_sources();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < m; ++i) acc += sources[i];
    sink = acc;
  });
  const double binary_rate = static_cast<double>(m) / binary_s;
  const double memo_rate = static_cast<double>(m) / memo_s;

  Table table("X — arc->source resolution while streaming arcs()");
  table.set_header({"n", "arcs", "binary M/s", "memoized M/s", "speedup"});
  table.add_row()
      .cell(static_cast<std::uint64_t>(n))
      .cell(static_cast<std::uint64_t>(m))
      .cell(binary_rate / 1e6, 1)
      .cell(memo_rate / 1e6, 1)
      .cell(binary_s / memo_s, 2);
  table.print(std::cout);
  for (const bool memo : {false, true}) {
    json()
        .row("arc_source")
        .field("n", static_cast<std::uint64_t>(n))
        .field("arcs", static_cast<std::uint64_t>(m))
        .field("mode", memo ? "memoized" : "binary_search")
        .field("seconds", memo ? memo_s : binary_s)
        .field("arcs_per_sec", memo ? memo_rate : binary_rate);
  }
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv, "x_kernels");
  const int threads =
      static_cast<int>(pram::ThreadPool::global().concurrency());
  std::cout << "pool threads: " << threads << "\n";
  simd_info_row();
  kernel_rows(threads);
  tier_rows(threads);
  node_shape_rows();
  index_map_rows();
  arc_source_rows();
  json().write();
  return 0;
}
