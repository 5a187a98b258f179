// X — the out-of-core engine: serve a v7 image larger than
// the buffer-pool budget with a bounded resident set, bit-identically.
//
// What the store stack (src/store/) is supposed to buy, measured:
//   * bounded memory: a pool budget of image/8 serves the full graph —
//     the steady-state RSS growth over the pre-open baseline stays
//     within budget + fixed slack while cold queries fault pages in
//     and the clock hand evicts them (MADV_DONTNEED);
//   * parity: every distance vector served from the file is memcmp-
//     identical to the heap engine's answer, cold and warm;
//   * no warm-path tax: with an ample budget (image fully resident)
//     the stored engine's query throughput stays within a small factor
//     of the heap engine — the external-bucket chunk loop and page
//     pins are bookkeeping, not a second code path.
//
// Rows (--json):
//   outofcore_image    one per scale: build + write cost, image size,
//                      page utilisation (payload / file bytes);
//   outofcore_serve    cold + steady phases under the tight budget:
//                      faults, evictions, resident peak (the CI gate);
//   outofcore_warm     ample-budget qps vs the heap engine;
//   outofcore_service  a read-only QueryService over the snapshot,
//                      replies memcmp-checked against the heap engine.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "core/incremental.hpp"
#include "service/service.hpp"
#include "store/stored_engine.hpp"
#include "store/writer.hpp"
#include "util/aligned.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

std::vector<Vertex> pick_sources(std::size_t n, std::size_t count,
                                 std::uint64_t seed) {
  std::vector<Vertex> sources(count);
  Rng pick(seed);
  for (Vertex& s : sources) s = static_cast<Vertex>(pick.next_below(n));
  return sources;
}

/// memcmp over the value buffers — the parity contract is bit-identity,
/// not epsilon-closeness, so float comparison is deliberately avoided.
bool identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct QueryPass {
  double seconds = 0;
  bool parity = true;
};

/// Runs every source through `engine`, checking each distance vector
/// against the heap oracle.
QueryPass run_pass(const SeparatorShortestPaths<TropicalD>& engine,
                   const std::vector<Vertex>& sources,
                   const std::vector<std::vector<double>>& oracle) {
  QueryPass pass;
  WallTimer t;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto r = engine.distances(sources[i]);
    if (!identical(r.dist, oracle[i])) pass.parity = false;
  }
  pass.seconds = t.seconds();
  return pass;
}

std::string temp_image_path() {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir && *dir ? dir : "/tmp";
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  path += "/sepsp_bench_outofcore_" + std::to_string(pid) + ".sep3";
  return path;
}

void run_scale(std::size_t side, std::size_t num_sources) {
  Rng rng(20260807);
  const WeightModel wm = WeightModel::uniform(1.0, 10.0);
  Instance inst = grid2d(side, wm, rng);

  WallTimer t_build;
  const auto heap =
      SeparatorShortestPaths<TropicalD>::build(inst.gg.graph, inst.tree);
  const double build_s = t_build.seconds();

  const auto sources = pick_sources(inst.n(), num_sources, 7 * side);
  std::vector<std::vector<double>> oracle(sources.size());
  WallTimer t_heap;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    oracle[i] = heap.distances(sources[i]).dist;
  }
  const double heap_s = t_heap.seconds();

  const std::string path = temp_image_path();
  WallTimer t_write;
  std::string error;
  if (!store::write_engine_image(path, heap, &error)) {
    std::cerr << "write_engine_image failed: " << error << "\n";
    std::exit(1);
  }
  const double write_s = t_write.seconds();

  Table img("out-of-core image  side=" + std::to_string(side));
  img.set_header({"n", "m", "image_mb", "build_s", "write_s"});
  double image_mb = 0;

  // --- tight-budget pass: image must be >= 4x the pool budget. -------
  {
    const MemorySample before = MemorySample::now();
    store::StoredEngine<TropicalD>::OpenOptions opts;
    // Placeholder budget; fixed below once the image size is known.
    auto probe = store::StoredEngine<TropicalD>::open(path, opts, &error);
    if (!probe) {
      std::cerr << "open failed: " << error << "\n";
      std::exit(1);
    }
    const std::uint64_t image_bytes = probe->image_bytes();
    image_mb = static_cast<double>(image_bytes) / (1 << 20);
    img.add_row()
        .cell(static_cast<std::uint64_t>(inst.n()))
        .cell(static_cast<std::uint64_t>(inst.m()))
        .cell(image_mb)
        .cell(build_s)
        .cell(write_s);
    img.print(std::cout);
    json()
        .row("outofcore_image")
        .field("side", static_cast<std::uint64_t>(side))
        .field("n", static_cast<std::uint64_t>(inst.n()))
        .field("m", static_cast<std::uint64_t>(inst.m()))
        .field("image_mb", image_mb)
        .field("build_s", build_s)
        .field("write_s", write_s);
    probe.reset();  // drop the probe pool before the measured open

    const std::size_t budget = round_up_to_page(image_bytes / 8);
    opts.pool.budget_bytes = budget;
    opts.hot_levels = 2;
    auto stored = store::StoredEngine<TropicalD>::open(path, opts, &error);
    if (!stored) {
      std::cerr << "tight open failed: " << error << "\n";
      std::exit(1);
    }

    // Cold pass: every page faults in for the first time.
    const QueryPass cold = run_pass(stored->engine(), sources, oracle);
    const auto cold_stats = stored->pool().stats();

    // Steady pass: the working set cycles through the budgeted pool;
    // RSS growth over the pre-open baseline is the CI-gated number.
    double resident_peak_mb = 0;
    QueryPass steady;
    {
      WallTimer t;
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const auto r = stored->engine().distances(sources[i]);
        if (!identical(r.dist, oracle[i])) steady.parity = false;
        const double rss = MemorySample::now().rss_mb - before.rss_mb;
        if (rss > resident_peak_mb) resident_peak_mb = rss;
      }
      steady.seconds = t.seconds();
    }
    const auto steady_stats = stored->pool().stats();

    Table serve("out-of-core serve  budget = image/8");
    serve.set_header({"phase", "budget_mb", "qps", "parity", "faults",
                      "evictions", "resident_peak_mb"});
    const double budget_mb = static_cast<double>(budget) / (1 << 20);
    serve.add_row()
        .cell("cold")
        .cell(budget_mb, 1)
        .cell(static_cast<double>(sources.size()) / cold.seconds, 1)
        .cell(cold.parity ? "1" : "0")
        .cell(cold_stats.faults)
        .cell(cold_stats.evictions)
        .cell("-");
    serve.add_row()
        .cell("steady")
        .cell(budget_mb, 1)
        .cell(static_cast<double>(sources.size()) / steady.seconds, 1)
        .cell(steady.parity ? "1" : "0")
        .cell(steady_stats.faults)
        .cell(steady_stats.evictions)
        .cell(resident_peak_mb, 1);
    serve.print(std::cout);

    json()
        .row("outofcore_serve")
        .field("side", static_cast<std::uint64_t>(side))
        .field("phase", "cold")
        .field("budget_mb", static_cast<double>(budget) / (1 << 20))
        .field("image_mb", image_mb)
        .field("qps", static_cast<double>(sources.size()) / cold.seconds)
        .field("parity", cold.parity ? 1 : 0)
        .field("faults", cold_stats.faults)
        .field("evictions", cold_stats.evictions);
    json()
        .row("outofcore_serve")
        .field("side", static_cast<std::uint64_t>(side))
        .field("phase", "steady")
        .field("budget_mb", static_cast<double>(budget) / (1 << 20))
        .field("image_mb", image_mb)
        .field("qps", static_cast<double>(sources.size()) / steady.seconds)
        .field("parity", steady.parity ? 1 : 0)
        .field("faults", steady_stats.faults)
        .field("evictions", steady_stats.evictions)
        .field("resident_peak_mb", resident_peak_mb);
  }

  // --- ample-budget pass: warm throughput vs the heap engine. --------
  {
    store::StoredEngine<TropicalD>::OpenOptions opts;
    opts.pool.budget_bytes = std::size_t{1} << 32;  // never evicts
    opts.pool.populate = true;
    auto stored = store::StoredEngine<TropicalD>::open(path, opts, &error);
    if (!stored) {
      std::cerr << "ample open failed: " << error << "\n";
      std::exit(1);
    }
    // One warm-up sweep so every page is resident before timing.
    QueryPass warmup = run_pass(stored->engine(), sources, oracle);
    const QueryPass warm = run_pass(stored->engine(), sources, oracle);
    const double heap_qps = static_cast<double>(sources.size()) / heap_s;
    const double warm_qps = static_cast<double>(sources.size()) / warm.seconds;

    Table wt("out-of-core warm (ample budget) vs heap");
    wt.set_header({"engine", "qps", "ratio", "parity"});
    wt.add_row().cell("heap").cell(heap_qps, 1).cell(1.0, 2).cell("1");
    wt.add_row()
        .cell("stored")
        .cell(warm_qps, 1)
        .cell(warm_qps / heap_qps, 2)
        .cell((warm.parity && warmup.parity) ? "1" : "0");
    wt.print(std::cout);

    json()
        .row("outofcore_warm")
        .field("side", static_cast<std::uint64_t>(side))
        .field("heap_qps", heap_qps)
        .field("stored_qps", warm_qps)
        .field("warm_ratio", warm_qps / heap_qps)
        .field("parity", (warm.parity && warmup.parity) ? 1 : 0);

    // --- read-only QueryService over the stored snapshot. ------------
    service::ServiceOptions sopts;
    sopts.point_to_point = false;
    service::QueryService svc(stored->snapshot(), sopts);
    bool svc_parity = true;
    WallTimer t_svc;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const service::Reply r = svc.query(sources[i]);
      if (r.status != service::ReplyStatus::kOk || !r.value ||
          !identical(r.value->dist, oracle[i])) {
        svc_parity = false;
      }
    }
    const double svc_s = t_svc.seconds();
    svc.stop();

    Table st("read-only service over the stored snapshot");
    st.set_header({"qps", "epoch", "parity"});
    st.add_row()
        .cell(static_cast<double>(sources.size()) / svc_s, 1)
        .cell(std::uint64_t{0})
        .cell(svc_parity ? "1" : "0");
    st.print(std::cout);

    json()
        .row("outofcore_service")
        .field("side", static_cast<std::uint64_t>(side))
        .field("qps", static_cast<double>(sources.size()) / svc_s)
        .field("parity", svc_parity ? 1 : 0);
  }

  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv, "x_outofcore");
  const int s = scale();
  // side 96 -> ~9.2k vertices; the v7 image comfortably exceeds 4x a
  // /8 budget at every scale because the E+ segments dominate.
  const std::size_t side = s == 0 ? 96 : s == 1 ? 192 : 320;
  const std::size_t num_sources = s == 0 ? 24 : 48;
  run_scale(side, num_sources);
  json().write();
  return 0;
}
