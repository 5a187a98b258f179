// Public facade: preprocess once, query many sources.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto grid   = make_grid({64, 64}, WeightModel::uniform(1, 10), rng);
//   Skeleton sk(grid.graph);
//   auto tree   = build_separator_tree(sk, make_grid_finder({64, 64}));
//
//   SeparatorShortestPaths<>::Options opts;
//   opts.query.detect_negative_cycles = true;  // the only options: queries
//   auto engine = SeparatorShortestPaths<>::build(grid.graph, tree, opts);
//
//   auto result = engine.distances(source);            // one source
//   auto batch  = engine.distances_batch(sources);     // batched kernel
//   auto scalar = engine.distances_batch(sources,      // kernel selection
//                     {.lanes = 16});
//   engine.stats().print(std::cout);                   // observability
//
// The facade is templated on the semiring (paper remark iii); the
// default TropicalD computes real-weight shortest paths.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "core/builder_recursive.hpp"
#include "core/engine_stats.hpp"
#include "core/query.hpp"
#include "obs/obs.hpp"
#include "pram/thread_pool.hpp"

namespace sepsp {

/// Kernel selection for distances_batch(). `lanes` is the number of
/// sources relaxed per edge load (LeveledQuery::run_block<B>,
/// compile-time-dispatched; one of 1, 2, 4, 8, 16, 32, or 0 for
/// SeparatorShortestPaths::kBatchLanes). `{.lanes = 1}` is
/// the per-source path: one independent scalar query per source — the
/// baseline the batched kernel is benchmarked against, and the right
/// choice when sources cannot amortize a shared edge stream.
struct BatchPolicy {
  std::size_t lanes = 0;
};

template <Semiring S = TropicalD>
class SeparatorShortestPaths {
 public:
  using Value = typename S::Value;

  /// Default lane width of the batched many-source path: each edge load
  /// relaxes this many sources at once (see LeveledQuery::run_block).
  static constexpr std::size_t kBatchLanes = 8;

  struct Options {
    /// Query-time knobs (consulted on every query).
    struct Query {
      /// Run the per-query negative-cycle verification pass (one full
      /// E u E+ scan per source) unless the build certified the graph
      /// cycle-free (Augmentation::cycle_free). false skips it always —
      /// sound when the caller knows the input is cycle-free (e.g.
      /// nonnegative weights).
      bool detect_negative_cycles = true;
    };

    Query query;
  };

  /// Preprocesses g against the given decomposition of its skeleton
  /// with Algorithm 4.1, closing each H_S by Floyd–Warshall — the
  /// closure IncrementalEngine uses, so both build one E+ bit for bit.
  /// Algorithm 4.3 (build_augmentation_doubling) builds the same set;
  /// wrap its result with from_augmentation(). Cost: Table 1
  /// preprocessing row (O(n + n^{3 mu}) work for k^mu separator
  /// families). The caller must keep `g` alive (and at a stable
  /// address) for the engine's lifetime; the engine itself is safely
  /// movable (its internal state lives behind unique_ptrs).
  static SeparatorShortestPaths build(const Digraph& g,
                                      const SeparatorTree& tree,
                                      const Options& options = {}) {
    SEPSP_CHECK(tree.num_graph_vertices() == g.num_vertices());
    SEPSP_TRACE_SPAN("engine.build");
    const pram::CostScope scope;
    detail::TreeRun<S> run =
        detail::run_algorithm41<S>(g, tree, ClosureKind::kFloydWarshall);
    run.aug.build_cost = scope.cost();
    SeparatorShortestPaths engine(g, options.query, run.aug.cycle_free);
    engine.aug_ = std::make_shared<const Augmentation<S>>(std::move(run.aug));
    // One pass over the slots writes each slot's minimum straight into
    // the query engine, E+'s one copy.
    const EplusPlan& plan = *engine.aug_->plan;
    engine.query_ = std::make_unique<LeveledQuery<S>>(
        g, *engine.aug_,
        options.query.detect_negative_cycles && !engine.cycle_certified_,
        [&](std::size_t slot) {
          return detail::slot_min<S>(plan, slot, run.entries);
        });
    return engine;
  }

  /// Wraps a precomputed augmentation (e.g. one Algorithm 4.3 built)
  /// without rebuilding E+. `aug` must carry its tree's slot plan and
  /// one value per plan slot, in plan order, as every free builder
  /// leaves it; anything else aborts. The values move into the query
  /// engine, and the engine's augmentation keeps none. The engine
  /// freezes aug.cycle_free: a certified augmentation's queries skip
  /// the verification pass.
  static SeparatorShortestPaths from_augmentation(const Digraph& g,
                                                  Augmentation<S> aug,
                                                  const Options& options = {}) {
    SEPSP_CHECK(aug.levels.level.size() == g.num_vertices());
    SEPSP_CHECK_MSG(aug.plan != nullptr,
                    "from_augmentation: the augmentation has no slot plan");
    SEPSP_CHECK_MSG(aug.values.size() == aug.plan->num_slots(),
                    "from_augmentation: the augmentation's value count "
                    "disagrees with its slot plan");
    SeparatorShortestPaths engine(g, options.query, aug.cycle_free);
    auto frozen = std::make_shared<Augmentation<S>>(std::move(aug));
    engine.query_ = std::make_unique<LeveledQuery<S>>(
        g, *frozen,
        options.query.detect_negative_cycles && !engine.cycle_certified_,
        [&](std::size_t slot) { return frozen->values[slot]; });
    frozen->values = {};
    engine.aug_ = std::move(frozen);
    return engine;
  }

  /// Wraps an already-forked LeveledQuery into a facade without
  /// reconstructing anything: the structurally-shared snapshot path of
  /// IncrementalEngine::snapshot(). `aug` is the (possibly aliasing)
  /// shared handle keeping the query's augmentation alive; `query` must
  /// have been produced by LeveledQuery::fork_shared() or
  /// LeveledQuery::from_store() against that augmentation.
  /// `cycle_certified` is the certificate of the weighting the query
  /// froze, read by the caller at fork time (the aliased augmentation
  /// keeps the build's); the caller forks the query with the pass off
  /// exactly when it is set.
  /// Cost: O(#slabs) pointer moves — no value copies.
  static SeparatorShortestPaths from_forked_query(
      const Digraph& g, std::shared_ptr<const Augmentation<S>> aug,
      LeveledQuery<S> query, bool cycle_certified,
      const Options& options = {}) {
    SeparatorShortestPaths engine(g, options.query, cycle_certified);
    engine.aug_ = std::move(aug);
    engine.query_ = std::make_unique<LeveledQuery<S>>(std::move(query));
    return engine;
  }

  /// Immutable shared handle to an engine: the unit the serving runtime
  /// (src/service/) swaps RCU-style — readers resolve queries against
  /// the snapshot they captured while a successor builds in the
  /// background, and the last reader releases the old engine.
  using Snapshot = std::shared_ptr<const SeparatorShortestPaths>;

  /// Freezes an engine into a shared immutable snapshot handle.
  static Snapshot freeze(SeparatorShortestPaths engine) {
    return std::make_shared<const SeparatorShortestPaths>(std::move(engine));
  }

  const Digraph& graph() const { return *g_; }
  /// Immutable structure with no values: E+'s values are
  /// query_engine().shortcut_edges().
  const Augmentation<S>& augmentation() const { return *aug_; }
  const LeveledQuery<S>& query_engine() const { return *query_; }
  const typename Options::Query& query_options() const { return qopts_; }
  /// The certificate frozen with this engine: true when the build proved
  /// the weighting free of negative cycles, so queries skip the
  /// verification pass (QueryResult::negative_cycle is then false).
  bool cycle_certified() const { return cycle_certified_; }

  /// Distances from one source; O(ell |E| + |E+|) work.
  QueryResult<S> distances(Vertex source) const {
    QueryResult<S> r = query_->run(source);
    note_run(QueryStats{r.negative_cycle, r.edges_scanned, r.phases});
    return r;
  }

  /// Allocation-free distances(): fills the caller's buffer (size must
  /// equal num_vertices; prior contents ignored) and returns the run's
  /// counters. Reuse one buffer across queries to keep a serving hot
  /// path free of per-query heap traffic.
  QueryStats distances_into(Vertex source, std::span<Value> out) const {
    const QueryStats s = query_->run_into(source, out);
    note_run(s);
    return s;
  }

  /// Distances from many sources (the s-source workload of Corollary
  /// 5.2). The BatchPolicy selects the lane width: sources are grouped
  /// into blocks of that many lanes relaxed simultaneously
  /// (LeveledQuery::run_block<B>), blocks running in parallel on the
  /// thread pool; `{.lanes = 1}` runs one scalar query per source.
  /// Per-source results are identical either way — lanes never
  /// interact. This switch is the one place a runtime lane width
  /// becomes a compile-time one.
  std::vector<QueryResult<S>> distances_batch(std::span<const Vertex> sources,
                                              BatchPolicy policy = {}) const {
    switch (policy.lanes == 0 ? kBatchLanes : policy.lanes) {
      case 1:
        return batch_impl<1>(sources);
      case 2:
        return batch_impl<2>(sources);
      case 4:
        return batch_impl<4>(sources);
      case 8:
        return batch_impl<8>(sources);
      case 16:
        return batch_impl<16>(sources);
      case 32:
        return batch_impl<32>(sources);
      default:
        SEPSP_CHECK_MSG(false,
                        "BatchPolicy::lanes must be one of 1, 2, 4, 8, 16, 32 "
                        "(or 0 for the engine default)");
        return {};
    }
  }

  /// All-pairs driver (s = n sources).
  std::vector<QueryResult<S>> all_pairs() const {
    std::vector<Vertex> sources(g_->num_vertices());
    for (Vertex v = 0; v < sources.size(); ++v) sources[v] = v;
    return distances_batch(sources);
  }

  /// Structural schedule statistics plus cumulative query counters.
  /// Every field but the four process-wide kernel/pool/SIMD reads is
  /// populated in every build mode. The query counters (queries,
  /// edges_scanned, phases, lane occupancy, per-level scans) are
  /// per-engine (not process-wide) and cover queries issued through
  /// this facade.
  EngineStats stats() const {
    EngineStats st;
    st.num_vertices = g_->num_vertices();
    st.num_edges = g_->num_edges();
    // Counted through the query engine, not the augmentation: no
    // engine's augmentation has values, and a stored engine's has no
    // plan either (E+ lives in the image's segments).
    st.eplus_edges = query_->shortcut_edges().size();
    st.bucket_edges = query_->bucket_edges();
    st.height = aug_->height;
    st.ell = aug_->ell;
    st.diameter_bound = aug_->diameter_bound();
    st.build_work = aug_->build_cost.work;
    st.build_depth = aug_->build_cost.depth;
    st.critical_depth = aug_->critical_depth;
    st.cycle_certified = cycle_certified_;
    st.simd_tier = simd::tier_name(simd::active_tier());
    st.levels.reserve(aug_->height + 1);
    for (std::uint32_t l = 0; l <= aug_->height; ++l) {
      st.levels.push_back({l, query_->bucket(EplusPlan::kSame, l).size(),
                           query_->bucket(EplusPlan::kDown, l).size(),
                           query_->bucket(EplusPlan::kUp, l).size(),
                           query_->level_edges_scanned(l)});
    }
    st.queries = counters_->queries.load(std::memory_order_relaxed);
    st.edges_scanned = counters_->edges.load(std::memory_order_relaxed);
    st.phases = counters_->phases.load(std::memory_order_relaxed);
    st.batch_blocks = counters_->blocks.load(std::memory_order_relaxed);
    st.batch_lanes_used =
        counters_->lanes_used.load(std::memory_order_relaxed);
    st.batch_lane_capacity =
        counters_->lane_capacity.load(std::memory_order_relaxed);
#if SEPSP_OBS_ENABLED
    // Process-wide kernel/scheduler counters (shared by all engines):
    st.kernel_tiles = obs::counter("kernel.tiles").value();
    st.kernel_cells = obs::counter("kernel.cells").value();
    st.pool_steals = obs::counter("pool.steals").value();
    st.simd_cells = obs::counter("simd.cells").value();
#endif
    return st;
  }

 private:
  SeparatorShortestPaths(const Digraph& g,
                         const typename Options::Query& qopts,
                         bool cycle_certified)
      : g_(&g),
        qopts_(qopts),
        cycle_certified_(cycle_certified),
        counters_(std::make_unique<EngineCounters>()) {}

  template <std::size_t B>
  std::vector<QueryResult<S>> batch_impl(
      std::span<const Vertex> sources) const {
    std::vector<QueryResult<S>> results(sources.size());
    if (sources.empty()) return results;
    const std::size_t blocks = (sources.size() + B - 1) / B;
    pram::ThreadPool::global().parallel_for(
        0, blocks,
        [&](std::size_t blk) {
          const std::size_t lo = blk * B;
          const std::size_t len = std::min(B, sources.size() - lo);
          auto block = query_->template run_block<B>(sources.subspan(lo, len));
          for (std::size_t i = 0; i < len; ++i) {
            results[lo + i] = std::move(block[i]);
          }
          note_block(B, len);
        },
        /*grain=*/1);
    note_results(results);
    return results;
  }

  struct EngineCounters {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> edges{0};
    std::atomic<std::uint64_t> phases{0};
    std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> lanes_used{0};
    std::atomic<std::uint64_t> lane_capacity{0};
  };
  void note_run(const QueryStats& s) const {
    counters_->queries.fetch_add(1, std::memory_order_relaxed);
    counters_->edges.fetch_add(s.edges_scanned, std::memory_order_relaxed);
    counters_->phases.fetch_add(s.phases, std::memory_order_relaxed);
  }
  void note_block(std::size_t width, std::size_t used) const {
    counters_->blocks.fetch_add(1, std::memory_order_relaxed);
    counters_->lanes_used.fetch_add(used, std::memory_order_relaxed);
    counters_->lane_capacity.fetch_add(width, std::memory_order_relaxed);
  }
  void note_results(std::span<const QueryResult<S>> results) const {
    std::uint64_t edges = 0, phases = 0;
    for (const QueryResult<S>& r : results) {
      edges += r.edges_scanned;
      phases += r.phases;
    }
    counters_->queries.fetch_add(results.size(), std::memory_order_relaxed);
    counters_->edges.fetch_add(edges, std::memory_order_relaxed);
    counters_->phases.fetch_add(phases, std::memory_order_relaxed);
  }

  const Digraph* g_;
  typename Options::Query qopts_;
  // Frozen at construction, never re-read from aug_: a snapshot's aug_
  // is its IncrementalEngine's, which keeps the build's certificate.
  bool cycle_certified_;
  // Stable-address handles so the engine can be moved (the query holds
  // a pointer to the augmentation). The augmentation is shared because
  // snapshot engines built via from_forked_query() alias the live
  // IncrementalEngine's (immutable) augmentation.
  std::shared_ptr<const Augmentation<S>> aug_;
  std::unique_ptr<LeveledQuery<S>> query_;
  std::unique_ptr<EngineCounters> counters_;
};

}  // namespace sepsp
