// X — source-batched vs per-source many-source throughput.
//
// The per-source path re-streams the whole bucketed edge set E u E+ for
// every source, so distances_batch is memory-bandwidth-bound; the
// batched kernel (distances_batch at B lanes) loads each edge once per
// phase and relaxes B lanes, amortizing the traffic. This bench
// measures sources/sec for the per-source baseline (lane width 1, the
// scalar schedule) and for lane widths B in {4, 8, 16} on the usual
// decomposable families.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "semiring/simd.hpp"

using namespace sepsp;
using namespace sepsp::bench;

namespace {

std::vector<Vertex> pick_sources(std::size_t n, std::size_t count) {
  std::vector<Vertex> sources;
  sources.reserve(count);
  Rng pick(17);
  for (std::size_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<Vertex>(pick.next_below(n)));
  }
  return sources;
}

struct Measurement {
  double seconds = 0;
  std::uint64_t checksum = 0;  // keeps the optimizer honest
};

template <typename F>
Measurement measure(F&& run_all) {
  WallTimer timer;
  const auto results = run_all();
  Measurement m;
  m.seconds = timer.seconds();
  for (const auto& r : results) m.checksum += r.edges_scanned;
  return m;
}

void run_instance(const Instance& inst, Table& table) {
  const auto engine = SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
  const std::size_t count =
      std::min<std::size_t>(inst.n(), scale() == 0 ? 64 : 1024);
  const std::vector<Vertex> sources = pick_sources(inst.n(), count);
  const std::span<const Vertex> span(sources);

  const Measurement base = measure(
      [&] { return engine.distances_batch(span, {.lanes = 1}); });
  const double base_rate = static_cast<double>(count) / base.seconds;

  auto report = [&](const char* mode, int lanes, const Measurement& m) {
    const double rate = static_cast<double>(count) / m.seconds;
    table.add_row()
        .cell(inst.family)
        .cell(static_cast<std::uint64_t>(inst.n()))
        .cell(mode)
        .cell(lanes)
        .cell(rate, 1)
        .cell(rate / base_rate, 2);
    json()
        .row("batched_throughput")
        .field("family", inst.family)
        .field("n", inst.n())
        .field("mode", mode)
        .field("lanes", lanes)
        .field("sources", count)
        .field("seconds", m.seconds)
        .field("sources_per_sec", rate)
        .field("speedup_vs_persource", rate / base_rate);
  };

  report("per-source", 1, base);
  for (const std::size_t lanes : {4, 8, 16}) {
    report("batched", static_cast<int>(lanes),
           measure([&] { return engine.distances_batch(span, {.lanes = lanes}); }));
  }

  // Engine observability snapshot for this instance: schedule shape plus
  // the cumulative counters the runs above accrued (filled in every
  // build mode; only the process-wide kernel/SIMD reads need SEPSP_OBS).
  const EngineStats stats = engine.stats();
  json()
      .row("stats")
      .field("family", inst.family)
      .field("n", inst.n())
      .field("obs_compiled_in", obs::compiled_in() ? 1 : 0)
      .field("eplus_edges", stats.eplus_edges)
      .field("bucket_edges", stats.bucket_edges)
      .field("height", static_cast<std::uint64_t>(stats.height))
      .field("ell", stats.ell)
      .field("diameter_bound", stats.diameter_bound)
      .field("build_work", stats.build_work)
      .field("critical_depth", stats.critical_depth)
      .field("cycle_certified", stats.cycle_certified ? 1 : 0)
      .field("queries", stats.queries)
      .field("edges_scanned", stats.edges_scanned)
      .field("phases", stats.phases)
      .field("batch_blocks", stats.batch_blocks)
      .field("lane_occupancy", stats.lane_occupancy())
      .field("simd_tier", stats.simd_tier)
      .field("simd_cells", stats.simd_cells);
  for (const EngineLevelStats& l : stats.levels) {
    json()
        .row("stats_level")
        .field("family", inst.family)
        .field("n", inst.n())
        .field("level", static_cast<std::uint64_t>(l.level))
        .field("same", l.same_edges)
        .field("down", l.down_edges)
        .field("up", l.up_edges)
        .field("edges_scanned", l.edges_scanned);
  }
}

/// Batched throughput per SIMD dispatch tier at B = 1, 8 and 16: the
/// scalar tier is simd::bucket_sweep's run loop, which takes the width
/// at run time, so the speedup column is the vector substrate's gain on
/// the bucket sweeps over that loop. B = 1 is the per-source walk, which
/// never dispatches (a one-lane pass runs the run loop at every tier),
/// so its rows read about 1.0x.
void run_tier_instance(const Instance& inst, Table& table) {
  const auto engine = SeparatorShortestPaths<>::build(inst.gg.graph, inst.tree);
  const std::size_t count =
      std::min<std::size_t>(inst.n(), scale() == 0 ? 64 : 1024);
  const std::vector<Vertex> sources = pick_sources(inst.n(), count);
  const std::span<const Vertex> span(sources);

  const simd::Tier ambient = simd::active_tier();
  for (const std::size_t lanes : {1, 8, 16}) {
    double scalar_rate = 0;
    for (int t = 0; t <= static_cast<int>(simd::detected_tier()); ++t) {
      const simd::Tier tier = static_cast<simd::Tier>(t);
      simd::force_tier(tier);
      const Measurement m =
          measure([&] { return engine.distances_batch(span, {.lanes = lanes}); });
      const double rate = static_cast<double>(count) / m.seconds;
      if (tier == simd::Tier::kScalar) scalar_rate = rate;
      table.add_row()
          .cell(inst.family)
          .cell(static_cast<std::uint64_t>(inst.n()))
          .cell(simd::tier_name(tier))
          .cell(static_cast<int>(lanes))
          .cell(rate, 1)
          .cell(rate / scalar_rate, 2);
      json()
          .row("batched_tier")
          .field("family", inst.family)
          .field("n", inst.n())
          .field("tier", simd::tier_name(tier))
          .field("lanes", static_cast<int>(lanes))
          .field("sources", count)
          .field("seconds", m.seconds)
          .field("sources_per_sec", rate)
          .field("speedup_vs_scalar_tier", rate / scalar_rate);
    }
  }
  simd::force_tier(ambient);
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv, "x_batched");
  Rng rng(1);
  const WeightModel wm = WeightModel::uniform(1, 10);
  const int s = scale();

  Table table("X — batched vs per-source distances_batch throughput");
  table.set_header(
      {"family", "n", "mode", "lanes", "sources/sec", "vs per-source"});

  run_instance(grid2d(s == 0 ? 16 : 64, wm, rng), table);
  run_instance(grid3d(s == 0 ? 5 : 12, wm, rng), table);
  run_instance(mesh_family(s == 0 ? 9 : 40, wm, rng), table);

  table.print(std::cout);
  std::cout << "(per-source = lane width 1, one scalar walk per source; "
               "batched = B lanes per edge load)\n";

  Table tier_table("X — batched throughput per SIMD tier");
  tier_table.set_header(
      {"family", "n", "tier", "lanes", "sources/sec", "vs scalar tier"});
  run_tier_instance(grid2d(s == 0 ? 16 : 64, wm, rng), tier_table);
  tier_table.print(std::cout);
  std::cout << "(active simd tier: " << simd::tier_name(simd::active_tier())
            << ", detected " << simd::tier_name(simd::detected_tier())
            << ")\n";
  json().write();
  return 0;
}
