// prep-mesh — the preprocessing pipeline with no query load: each op
// runs the exact build, the (1 + 0.1)-approximate build, writes the
// exact engine as a v3 image, opens it under a 256 KiB buffer-pool
// budget and checks one stored query bitwise against the heap engine.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "approx/approx.hpp"
#include "baseline/dijkstra.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/skeleton.hpp"
#include "pram/thread_pool.hpp"
#include "separator/decomposition.hpp"
#include "separator/finders.hpp"
#include "store/stored_engine.hpp"
#include "store/writer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Engine = sepsp::SeparatorShortestPaths<sepsp::TropicalD>;

constexpr std::size_t kSide = 33;
constexpr double kEps = 0.1;
constexpr std::size_t kPoolBudgetBytes = std::size_t{256} << 10;
constexpr std::size_t kOpsPerRound = 40;
// 40 ops per round: p75 leaves ten.
constexpr double kTailQuantile = 0.75;
constexpr std::size_t kCheckedSources = 4;
constexpr std::size_t kQueryLanes = 16;
constexpr std::size_t kQueryPasses = 4;
constexpr std::size_t kSetups = 11;
// One round takes about this long on the reference machine.
constexpr double kNominalRoundS = 2.0;

struct Instance {
  sepsp::GeneratedGraph gg;
  sepsp::SeparatorTree tree;
  std::vector<Vertex> sources;  // one stored query per op
};

std::unique_ptr<Instance> make_instance(std::uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  Rng rng(seed);
  inst->gg = sepsp::make_triangulated_grid(
      kSide, kSide, sepsp::WeightModel::uniform(1, 10), rng);
  SpanScope span("setup.separator_tree", 0);
  inst->tree = sepsp::build_separator_tree(
      sepsp::Skeleton(inst->gg.graph),
      sepsp::make_geometric_finder(inst->gg.coords));
  inst->sources.resize(kOpsPerRound);
  for (Vertex& s : inst->sources) {
    s = static_cast<Vertex>(rng.next_below(inst->gg.graph.num_vertices()));
  }
  return inst;
}

/// What one op leaves behind for the per-layer report and the checks.
struct OpOutput {
  std::optional<Engine> exact;
  std::optional<sepsp::ApproxEngine> approx;
  sepsp::store::BufferPool::Stats pool;
  std::uint64_t image_bytes = 0;
  bool ok = false;
};

OpOutput run_op(const Instance& inst, Vertex source, const std::string& image,
                std::uint64_t op) {
  SpanScope op_span("op.prep", op);
  OpOutput out;
  const sepsp::Digraph& g = inst.gg.graph;
  {
    SpanScope span("build.exact", op);
    out.exact.emplace(Engine::build(g, inst.tree));
  }
  {
    SpanScope span("approx.build", op);
    sepsp::ApproxEngine::Options opts;
    opts.build.approx_eps = kEps;
    out.approx.emplace(sepsp::ApproxEngine::build(g, inst.tree, opts));
  }
  {
    SpanScope span("store.write", op);
    if (!sepsp::store::write_engine_image(image, *out.exact)) return out;
  }
  std::optional<sepsp::store::StoredEngine<sepsp::TropicalD>> stored;
  {
    SpanScope span("store.open", op);
    sepsp::store::StoredEngine<sepsp::TropicalD>::OpenOptions opts;
    opts.pool.budget_bytes = kPoolBudgetBytes;
    stored = sepsp::store::StoredEngine<sepsp::TropicalD>::open(image, opts);
  }
  if (!stored) return out;
  std::vector<double> got;
  {
    SpanScope span("store.query", op);
    got = stored->engine().distances(source).dist;
  }
  const std::vector<double> want = out.exact->distances(source).dist;
  out.ok = got.size() == want.size() &&
           std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(double)) == 0;
  out.pool = stored->pool().stats();
  out.image_bytes = stored->image_bytes();
  return out;
}

}  // namespace

Result run_prep_mesh(const RunConfig& cfg) {
  Result result;
  std::unique_ptr<Instance> inst;
  const std::string image = cfg.workdir + "/prep-mesh.img";
  OpOutput last;

  Tracer::get().set_enabled(cfg.trace);
  const double setup_s = median_setup_s(kSetups, [&] {
    inst.reset();
    const std::uint64_t t0 = now_ns();
    inst = make_instance(cfg.seed);
    // Warm-up: one full op.
    last = run_op(*inst, inst->sources[0], image, 0);
    if (!last.ok) result.fail();
    return static_cast<double>(now_ns() - t0) / 1e9;
  });
  Tracer::get().set_enabled(false);
  const sepsp::Digraph& g = inst->gg.graph;

  std::vector<double> faults, evictions;
  const std::uint64_t steals_before = last.exact->stats().pool_steals;
  std::uint64_t steals_after = steals_before;
  const auto one_round = [&](std::size_t round, bool) {
    std::vector<double> lat;
    lat.reserve(kOpsPerRound);
    const std::uint64_t r0 = now_ns();
    for (std::size_t i = 0; i < kOpsPerRound; ++i) {
      const std::uint64_t t0 = now_ns();
      last = run_op(*inst, inst->sources[i], image, round * kOpsPerRound + i);
      lat.push_back(ms_between(t0, now_ns()));
      if (!last.ok) result.fail();
      faults.push_back(static_cast<double>(last.pool.faults));
      evictions.push_back(static_cast<double>(last.pool.evictions));
    }
    steals_after = last.exact->stats().pool_steals;
    result.attempted += kOpsPerRound;
    RoundFigures f;
    f.throughput_per_s = static_cast<double>(kOpsPerRound) /
                         (static_cast<double>(now_ns() - r0) / 1e9);
    f.latency_ms_p50 = quantile(lat, 0.5);
    f.latency_ms_tail = quantile(lat, kTailQuantile);
    return f;
  };
  const RoundLog log = run_rounds(cfg, kNominalRoundS, one_round);
  const std::size_t ops = (log.plain.size() + log.traced.size()) * kOpsPerRound;
  std::remove(image.c_str());

  // Oracle beyond the per-op memcmp: the heap engine against Dijkstra,
  // and the approximate engine within dist <= approx <= (1 + eps) dist.
  for (std::size_t i = 0; i < kCheckedSources; ++i) {
    const Vertex s = inst->sources[i];
    const auto want = sepsp::dijkstra(g, s).dist;
    const auto exact = last.exact->distances(s).dist;
    const auto approx = last.approx->distances(s);
    bool ok = true;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const double slack = 1e-9 * std::max(1.0, want[v]);
      ok = ok && rel_error(exact[v], want[v]) <= 1e-9 &&
           approx[v] >= want[v] - slack &&
           approx[v] <= (1.0 + kEps) * want[v] + slack;
    }
    ++result.attempted;
    if (!ok) result.fail();
  }

  report_rounds(result, log, setup_s);
  const sepsp::EngineStats est = last.exact->stats();
  result.env_int("eplus_edges", est.eplus_edges);
  result.env_int("bucket_entries", est.bucket_edges);
  result.env_int("image_bytes", last.image_bytes);
  result.env_int("pool_budget_bytes", kPoolBudgetBytes);
  result.env_int("generator_threads", 1);
  result.env_int("dispatcher_threads", 0);
  result.env_num("tail_quantile", kTailQuantile);
  result.env_int("latency_samples_per_round", kOpsPerRound);

  if (!cfg.trace) return result;

  const Tracer& tr = Tracer::get();
  result.layer("build.exact_ms", tr.median_ms("build.exact"));
  result.layer("build.eplus_edges", static_cast<double>(est.eplus_edges));
  {
    // Kernel cells of one exact build (a process-wide count, so taken
    // around a build of its own).
    const std::uint64_t c0 = est.kernel_cells;
    const std::uint64_t c1 = Engine::build(g, inst->tree).stats().kernel_cells;
    result.layer("build.kernel_cells", static_cast<double>(c1 - c0));
  }
  result.layer("approx.build_ms", tr.median_ms("approx.build"));
  result.layer("approx.eplus_kept_ratio",
               static_cast<double>(last.approx->stats().eplus_edges) /
                   static_cast<double>(est.eplus_edges));
  result.layer("approx.certified_error", last.approx->certified_error());
  result.layer("store.write_ms", tr.median_ms("store.write"));
  result.layer("store.open_ms", tr.median_ms("store.open"));
  result.layer("store.query_ms", tr.median_ms("store.query"));
  result.layer("store.faults_per_op", mean(faults));
  result.layer("store.evictions_per_op", mean(evictions));
  result.layer("store.image_mb",
               static_cast<double>(last.image_bytes) / (1 << 20));
  result.layer("pool.participants",
               sepsp::pram::ThreadPool::global().concurrency());
  result.layer("pool.steals",
               static_cast<double>(steals_after - steals_before) /
                   static_cast<double>(ops));

  // The query kernel on the last op's heap engine: batched calls over
  // the op sources, single-source calls with the negative-cycle pass on
  // and off, and Dijkstra on the same sources as the reference.
  Engine::Options off;
  off.query.detect_negative_cycles = false;
  const Engine nocheck = Engine::build(g, inst->tree, off);
  const Engine& engine = *last.exact;
  std::vector<double> buf(g.num_vertices());
  std::uint64_t scans = 0;
  Tracer::get().set_enabled(true);
  for (std::size_t pass = 0; pass < kQueryPasses; ++pass) {
    {
      SpanScope span("query.batch_call", pass);
      engine.distances_batch(inst->sources, {.lanes = kQueryLanes});
    }
    for (Vertex s : inst->sources) {
      {
        SpanScope span("query.single_call", s);
        scans = engine.distances_into(s, buf).edges_scanned;
      }
      {
        SpanScope span("probe.check_off", s);
        nocheck.distances_into(s, buf);
      }
      SpanScope span("baseline.dijkstra", s);
      sepsp::dijkstra(g, s);
    }
  }
  Tracer::get().set_enabled(false);
  const double single_ms = tr.median_ms("query.single_call");
  const double dijkstra_ms = tr.median_ms("baseline.dijkstra");
  result.layer("query.batch_call_ms", tr.median_ms("query.batch_call"));
  result.layer("query.single_call_ms", single_ms);
  result.layer("query.scans_per_source", static_cast<double>(scans));
  result.layer("query.ns_per_scan",
               single_ms * 1e6 / static_cast<double>(scans));
  result.layer("query.lane_occupancy", engine.stats().lane_occupancy());
  result.layer("query.negcheck_ms",
               single_ms - tr.median_ms("probe.check_off"));
  result.layer("baseline.dijkstra_us_per_source", dijkstra_ms * 1e3);
  result.layer("query.over_dijkstra", single_ms / dijkstra_ms);
  return result;
}

}  // namespace perfbench
