// update-neg3d — writes beside reads: every op applies a small weight
// update through QueryService (a new epoch) and then reads 16 single-
// source answers, all of which miss the freshly invalidated cache and
// run the kernel on mixed-sign weights (the negative-cycle pass always
// runs).
#include <array>
#include <future>
#include <memory>

#include "baseline/bellman_ford.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/skeleton.hpp"
#include "pram/thread_pool.hpp"
#include "separator/decomposition.hpp"
#include "separator/finders.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = sepsp::service;

constexpr std::size_t kSide = 9;
constexpr std::size_t kArcsPerUpdate = 4;
constexpr std::size_t kRequestsPerCycle = 16;
constexpr std::size_t kCyclesPerRound = 200;
// 200 cycles per round: p95 leaves ten.
constexpr double kTailQuantile = 0.95;
constexpr double kZipfTheta = 0.9;
constexpr double kMaxRaise = 5.0;
constexpr std::size_t kCheckEvery = 20;  // oracle-checked cycles of round 0
constexpr std::size_t kSetups = 11;
// One round takes about this long on the reference machine.
constexpr double kNominalRoundS = 2.7;

struct Cycle {
  std::array<std::size_t, kArcsPerUpdate> arcs{};
  std::array<svc::EdgeUpdate, kArcsPerUpdate> updates{};
  std::array<Vertex, kRequestsPerCycle> sources{};
};

struct Instance {
  sepsp::GeneratedGraph gg;
  sepsp::SeparatorTree tree;
  std::unique_ptr<svc::QueryService> service;  // declared last: dies first
};

std::unique_ptr<Instance> make_instance(std::uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  Rng rng(seed);
  inst->gg = sepsp::make_grid({kSide, kSide, kSide},
                              sepsp::WeightModel::mixed_sign(10.0), rng);
  {
    SpanScope span("setup.separator_tree", 0);
    inst->tree = sepsp::build_separator_tree(
        sepsp::Skeleton(inst->gg.graph),
        sepsp::make_grid_finder({kSide, kSide, kSide}));
  }
  std::optional<sepsp::IncrementalEngine> engine;
  {
    SpanScope span("build.exact", 0);
    engine.emplace(sepsp::IncrementalEngine::build(inst->gg.graph, inst->tree));
  }
  svc::ServiceOptions opts;
  opts.point_to_point = false;
  opts.dispatchers = 1;
  SpanScope span("setup.service", 0);
  inst->service =
      std::make_unique<svc::QueryService>(std::move(*engine), opts);
  return inst;
}

/// One round's ops, generated from the seed: each cycle raises four
/// arcs to w0 + delta (delta in [0, 5], so no negative cycle can
/// appear) and reads 16 Zipf-distributed sources.
std::vector<Cycle> make_cycles(const sepsp::Digraph& g, std::uint64_t seed) {
  Rng rng(seed ^ 0xc7c1eULL);
  const Zipf zipf(g.num_vertices(), kZipfTheta, rng);
  const auto sources = g.arc_sources();
  std::vector<Cycle> cycles(kCyclesPerRound);
  for (Cycle& c : cycles) {
    for (std::size_t k = 0; k < kArcsPerUpdate; ++k) {
      const std::size_t arc = rng.next_below(g.num_edges());
      c.arcs[k] = arc;
      c.updates[k] = {sources[arc], g.arcs()[arc].to,
                      g.arcs()[arc].weight + rng.next_double(0.0, kMaxRaise)};
    }
    for (Vertex& s : c.sources) s = zipf(rng);
  }
  return cycles;
}

/// The base graph with the given per-arc weights (the oracle's input).
sepsp::Digraph reweighted(const sepsp::Digraph& g,
                          const std::vector<double>& w) {
  sepsp::GraphBuilder b(g.num_vertices());
  const auto sources = g.arc_sources();
  for (std::size_t arc = 0; arc < g.num_edges(); ++arc) {
    b.add_edge(sources[arc], g.arcs()[arc].to, w[arc]);
  }
  return std::move(b).build();
}

struct Checked {
  std::size_t cycle = 0;
  Vertex source = 0;
  svc::Reply reply;
};

}  // namespace

Result run_update_neg3d(const RunConfig& cfg) {
  Result result;
  std::unique_ptr<Instance> inst;
  std::vector<Cycle> cycles;

  Tracer::get().set_enabled(cfg.trace);
  const double setup_s = median_setup_s(kSetups, [&] {
    inst.reset();
    const std::uint64_t t0 = now_ns();
    inst = make_instance(cfg.seed);
    cycles = make_cycles(inst->gg.graph, cfg.seed);
    // Warm-up: one read of every source of the first cycle.
    for (Vertex s : cycles[0].sources) inst->service->query(s);
    return static_cast<double>(now_ns() - t0) / 1e9;
  });
  Tracer::get().set_enabled(false);
  svc::QueryService& service = *inst->service;
  const sepsp::Digraph& g = inst->gg.graph;
  const std::uint64_t setup_cells =
      service.current_snapshot().engine->stats().kernel_cells;

  // Arcs a round touches, restored to their generated weight after it so
  // every round starts from the same weighting.
  std::vector<svc::EdgeUpdate> reset;
  for (const Cycle& c : cycles) {
    for (std::size_t k = 0; k < kArcsPerUpdate; ++k) {
      reset.push_back({c.updates[k].from, c.updates[k].to,
                       g.arcs()[c.arcs[k]].weight});
    }
  }

  std::vector<Checked> checked;
  std::vector<double> update_p50, update_tail;
  const svc::ServiceStats before = service.stats();
  const auto one_round = [&](std::size_t round, bool traced) {
    std::vector<double> cycle_ms, update_ms;
    cycle_ms.reserve(kCyclesPerRound);
    update_ms.reserve(kCyclesPerRound);
    std::array<std::future<svc::Reply>, kRequestsPerCycle> futures;
    std::array<std::uint64_t, kRequestsPerCycle> started{};
    for (std::size_t ci = 0; ci < cycles.size(); ++ci) {
      const Cycle& c = cycles[ci];
      const std::uint64_t op = round * kCyclesPerRound + ci;
      SpanScope cycle_span("op.cycle", op);
      const std::uint64_t t0 = now_ns();
      std::uint64_t epoch = 0;
      {
        SpanScope span("service.apply_updates", op);
        epoch = service.apply_updates(c.updates);
      }
      const std::uint64_t t1 = now_ns();
      for (std::size_t r = 0; r < kRequestsPerCycle; ++r) {
        started[r] = now_ns();
        futures[r] = service.submit(c.sources[r]);
        if (futures[r].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          trace_interval("service.submit_ready", started[r], now_ns(), op);
        }
      }
      // Poll every outstanding future, so each request is timed to when
      // its own reply is ready rather than to the slowest one before it.
      std::size_t open = kRequestsPerCycle;
      std::array<bool, kRequestsPerCycle> done{};
      while (open > 0) {
        for (std::size_t r = 0; r < kRequestsPerCycle; ++r) {
          if (done[r] || futures[r].wait_for(std::chrono::seconds(0)) !=
                             std::future_status::ready) {
            continue;
          }
          const std::uint64_t seen = now_ns();
          done[r] = true;
          --open;
          svc::Reply reply = futures[r].get();
          if (!reply.ok() || reply.epoch != epoch) result.fail();
          trace_interval(reply.cache_hit ? "service.ss_hit" : "service.ss_miss",
                         started[r], seen, op);
          if (round == 0 && ci % kCheckEvery == 0 && r < 2) {
            checked.push_back({ci, c.sources[r], std::move(reply)});
          }
        }
      }
      const std::uint64_t t2 = now_ns();
      cycle_ms.push_back(ms_between(t0, t2));
      update_ms.push_back(ms_between(t0, t1));
    }
    service.apply_updates(reset);
    result.attempted += kCyclesPerRound;
    if (!traced) {
      update_p50.push_back(quantile(update_ms, 0.5));
      update_tail.push_back(quantile(update_ms, kTailQuantile));
    }
    RoundFigures f;
    const double round_ms =
        std::accumulate(cycle_ms.begin(), cycle_ms.end(), 0.0);
    f.throughput_per_s =
        static_cast<double>(kCyclesPerRound) / (round_ms / 1e3);
    f.latency_ms_p50 = quantile(cycle_ms, 0.5);
    f.latency_ms_tail = quantile(cycle_ms, kTailQuantile);
    return f;
  };
  const RoundLog log = run_rounds(cfg, kNominalRoundS, one_round);
  const svc::ServiceStats after = service.stats();
  const std::size_t total_cycles =
      (log.plain.size() + log.traced.size()) * kCyclesPerRound;

  // Oracle: Bellman–Ford on the weighting of the epoch each sampled
  // reply was computed against (round 0 starts from the generated one).
  {
    std::vector<double> w(g.num_edges());
    for (std::size_t arc = 0; arc < w.size(); ++arc) {
      w[arc] = g.arcs()[arc].weight;
    }
    std::size_t applied = 0;
    for (const Checked& ck : checked) {
      for (; applied <= ck.cycle; ++applied) {
        for (std::size_t k = 0; k < kArcsPerUpdate; ++k) {
          w[cycles[applied].arcs[k]] = cycles[applied].updates[k].weight;
        }
      }
      const sepsp::Digraph current = reweighted(g, w);
      const auto want = sepsp::bellman_ford(current, ck.source);
      double worst = want.negative_cycle ? 1.0 : 0.0;
      const auto& got = ck.reply.dist();
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        worst = std::max(worst, rel_error(got[v], want.dist[v]));
      }
      ++result.attempted;
      if (worst > 1e-9 || ck.reply.value->negative_cycle) result.fail();
    }
  }

  report_rounds(result, log, setup_s);
  const sepsp::EngineStats est = service.current_snapshot().engine->stats();
  result.env_int("eplus_edges", est.eplus_edges);
  result.env_int("bucket_entries", est.bucket_edges);
  const std::size_t lane_matrix_bytes =
      svc::ServiceOptions{}.lanes * g.num_vertices() * sizeof(double);
  result.env_int("working_set_bytes",
                 est.bucket_edges * (2 * sizeof(Vertex) + sizeof(double)) +
                     lane_matrix_bytes);
  result.env_int("cache_budget_bytes", after.cache_capacity_bytes);
  result.env_int("generator_threads", 1);
  result.env_int("dispatcher_threads", 1);
  result.env_int("requests_per_op", kRequestsPerCycle);
  result.env_num("tail_quantile", kTailQuantile);
  result.env_int("latency_samples_per_round", kCyclesPerRound);

  if (!cfg.trace) return result;

  const Tracer& tr = Tracer::get();
  std::vector<double> requests = tr.durations_ms("service.ss_miss");
  const std::vector<double> hits = tr.durations_ms("service.ss_hit");
  requests.insert(requests.end(), hits.begin(), hits.end());
  result.layer("service.apply_updates_ms",
               tr.median_ms("service.apply_updates"));
  result.layer("service.swap_us_mean", after.mean_swap_us());
  result.layer("service.cache_invalidations",
               static_cast<double>(after.cache_invalidations -
                                   before.cache_invalidations) /
                   static_cast<double>(total_cycles));
  result.layer("update_ms_p50", median(update_p50));
  result.layer("update_ms_tail", median(update_tail));
  result.layer("service.submit_ready_us",
               tr.median_ms("service.submit_ready") * 1e3);
  result.layer("service.ss_miss_ms", tr.median_ms("service.ss_miss"));
  result.layer("service.ss_p50", median(requests) * 1e3);
  result.layer("service.hit_rate", after.hit_rate());
  result.layer("service.batch_occupancy", after.batch_occupancy());
  result.layer("service.coalesce_us_mean", after.mean_coalesce_us());
  result.layer("build.exact_ms", tr.median_ms("build.exact"));
  result.layer("build.eplus_edges", static_cast<double>(est.eplus_edges));
  result.layer("build.kernel_cells",
               static_cast<double>(setup_cells) / kSetups);
  result.layer("pool.participants",
               sepsp::pram::ThreadPool::global().concurrency());
  return result;
}

}  // namespace perfbench
