// The engine: preprocess once, query many sources (Section 3.2).
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
//   engine.distances_batch(sources, rows, stats);      // into caller rows
//   auto scalar = engine.distances_batch(sources,      // kernel selection
//                     {.lanes = 16});
//   engine.stats().print(std::cout);                   // observability
//
// The engine is templated on the semiring (paper remark iii); the
// default TropicalD computes real-weight shortest paths. It is the
// augmented graph G+ = (V, E u E+) and its query schedule in one class:
// the base arcs and E+ as edge arrays, the bucket table, the leveled
// walker and one counter ledger. Every E+ builder returns one: build()
// and build_augmentation_recursive (Algorithm 4.1, below),
// build_augmentation_doubling (Algorithm 4.3) and
// build_augmentation_compact (Remark 4.4) all end in the same step,
// which turns the build's entry arena into the engine's E+ values with
// one slot minimum per slot.
//
// Theorem 3.1's witness paths have the form
//   [<= ell edges of E] [shortcuts with a bitonic level sequence]
//   [<= ell edges of E]
// where consecutive equal levels appear at most twice. The prefix runs
// from the source to the path's first vertex with a level, so every
// prefix arc has a tail with no level; every suffix arc, likewise, a
// head with no level. The leveled schedule exploits this: ell passes
// over E_lead (the base arcs whose tail has no level), then one
// descending sweep — the climb — scans, per level L, first the level-L
// same-level edges and then the edges dropping below L; an ascending
// sweep mirrors it; ell passes over E_trail (the arcs whose head has no
// level) finish. Both are ranges of one end-arc array (end_edges()).
// The climb starts from the source and the few vertices E_lead reaches,
// so it skips every `from` run whose tail is still unreached in every
// lane (climb()); the descent does not test. Each bucket is scanned
// O(1) times, so the per-source work is O(ell |E| + |E U E+|) instead of
// the naive O((|E| + |E+|) * diam) of diameter-bounded Bellman–Ford
// (kept for the T1b ablation as distances_unscheduled()).
//
// One walker (walk) runs that schedule for every entry point, at a lane
// width it takes at run time. Its distance array is lane-major,
// dist[v * width + lane]: width 1 is the scalar query (distances,
// distances_into, distances_seeded); a wider walk is the source-batched
// query (distances_batch, Corollary 5.2's s-source workload), which
// relaxes every lane per edge load. The engine owns no relaxation loop:
// every pass at every width is simd::bucket_sweep and the
// verification pass simd::bucket_detect (semiring/simd.hpp). Lanes
// never interact, so every lane's distances and counters equal a
// scalar run of its own source.
//
// Edges are stored struct-of-arrays (EdgeBucket, core/query.hpp). E+ is
// one such array, its slots numbered in sweep order by the tree's slot
// plan (separator/eplus_plan.hpp): every leveled bucket is a range of
// it, (from, to)-sorted, and the sweeps read those ranges in the order
// they lie. The leveled buckets hold E+ alone. Base arcs feed the ell
// E_lead and E_trail passes (through their end-arc copies) and the
// verification pass only: an arc (u, v) whose endpoints both have
// levels lies in some leaf L, so u and v are both in B(L) and the slot
// (u, v) — in the same bucket, valued at most w(u, v) — relaxes
// everything the arc would (docs/ALGORITHMS.md §4). The base array
// keeps CSR order (arc index = position) for the verification pass,
// distances_unscheduled() and the image.
//
// Structural sharing: the pair structure of E+ is tree-only. Every
// engine over the tree aliases the plan's slot array and owns only one
// value per slot, in slab-chunked copy-on-write storage
// (util/slab.hpp); its Augmentation is build metadata. Two owners
// reach behind the public API: IncrementalEngine patches its live
// engine's values in place and freezes O(#slabs) forks of it as
// snapshots, and store::StoredEngine assembles an engine whose arrays
// are views into a mapped image.
//
// Observability: every walk credits the engine's one ledger — queries,
// edges scanned (the schedule's bucket sizes, skipped climb runs
// included), phases, the climb slots skipped, and the per-level bucket
// scans of scheduled walks — in every build mode (stats()). When compiled with SEPSP_OBS
// (see obs/obs.hpp) a walk also records phase timing spans and the
// process-wide simd.cells counter. All hooks sit at phase granularity —
// the inner relaxation loops are identical in both modes.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/builder_recursive.hpp"
#include "core/engine_stats.hpp"
#include "core/query.hpp"
#include "obs/obs.hpp"
#include "pram/cost_model.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/simd.hpp"
#include "util/aligned.hpp"

namespace sepsp {

class IncrementalEngine;  // core/incremental.hpp
namespace store {
template <Semiring S>
class StoredEngine;  // store/stored_engine.hpp
}  // namespace store

template <Semiring S = TropicalD>
class SeparatorShortestPaths;

namespace detail {
/// The last step of every free E+ builder: the engine over `aug` whose
/// E+ values are the slot minima of the build's entry arena.
template <Semiring S>
SeparatorShortestPaths<S> make_engine(
    const Digraph& g, Augmentation aug, bool cycle_certified,
    std::span<const typename S::Value> entries);
}  // namespace detail

/// Kernel selection for distances_batch(). `lanes` is the number of
/// sources relaxed per edge load (a lane width, see is_lane_width, or 0
/// for SeparatorShortestPaths::kBatchLanes). `{.lanes = 1}` is the
/// per-source path: one independent scalar query per source — the
/// baseline the batched kernel is benchmarked against, and the right
/// choice when sources cannot amortize a shared edge stream.
struct BatchPolicy {
  std::size_t lanes = 0;
};

/// The widest lane block; it sizes the walk's per-lane arrays.
inline constexpr std::size_t kMaxLanes = 32;

/// The lane widths a batched query runs (BatchPolicy::lanes,
/// ServiceOptions::lanes): the powers of two up to kMaxLanes, i.e. 1, 2,
/// 4, 8, 16 and 32.
constexpr bool is_lane_width(std::size_t lanes) {
  return lanes != 0 && lanes <= kMaxLanes && (lanes & (lanes - 1)) == 0;
}

template <Semiring S>
class SeparatorShortestPaths {
 public:
  using Value = typename S::Value;

  /// Default lane width of the batched many-source path: each edge load
  /// relaxes this many sources at once.
  static constexpr std::size_t kBatchLanes = 8;

  struct Options {
    /// Query-time knobs.
    struct Query {
      /// Run the per-query negative-cycle verification pass (one full
      /// E u E+ scan per source) unless the build certified the graph
      /// cycle-free (cycle_certified()). false skips it always —
      /// sound when the caller knows the input is cycle-free (e.g.
      /// nonnegative weights).
      bool detect_negative_cycles = true;
    };

    Query query;
  };

  /// Preprocesses g against the given decomposition of its skeleton
  /// with Algorithm 4.1, closing each H_S by Floyd–Warshall — the
  /// closure IncrementalEngine uses, so both build one E+ bit for bit.
  /// Algorithm 4.3 (build_augmentation_doubling) builds the same set.
  /// Cost: Table 1 preprocessing row (O(n + n^{3 mu}) work for k^mu
  /// separator families). The caller must keep `g` alive (and at a
  /// stable address) for the engine's lifetime; the engine itself is
  /// safely movable (its counters live behind a unique_ptr).
  static SeparatorShortestPaths build(const Digraph& g,
                                      const SeparatorTree& tree,
                                      const Options& options = {}) {
    SEPSP_CHECK(tree.num_graph_vertices() == g.num_vertices());
    SEPSP_TRACE_SPAN("engine.build");
    const pram::CostScope scope;
    detail::TreeRun<S> run =
        detail::run_algorithm41<S>(g, tree, ClosureKind::kFloydWarshall);
    run.aug.build_cost = scope.cost();
    return SeparatorShortestPaths(g, std::move(run.aug), options,
                                  run.cycle_free, run.entries);
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
  /// The build's metadata; E+'s values are shortcut_edges().
  const Augmentation& augmentation() const { return *aug_; }
  /// The certificate frozen with this engine: true when the build proved
  /// the weighting free of negative cycles, so queries skip the
  /// verification pass (QueryResult::negative_cycle is then false).
  bool cycle_certified() const { return cycle_certified_; }
  /// Whether queries run the verification pass: decided once, at
  /// construction, as Options::query.detect_negative_cycles && !certified.
  bool detects_negative_cycles() const { return detect_cycles_; }

  // --- the augmented graph (stats, the store writer) ---------------------
  const EdgeBucket<S>& base_edges() const { return base_; }
  /// The end arcs: every base arc with an endpoint that has no level, in
  /// three classes — tail unleveled only, both unleveled, head unleveled
  /// only — each in CSR order. The walk's leading passes scan
  /// lead_edges(), the prefix [0, b) whose tails have no level; its
  /// trailing passes scan trail_edges(), the suffix [a, size) whose
  /// heads have no level.
  const EdgeBucket<S>& end_edges() const { return ends_; }
  EdgeRange lead_edges() const { return lead_; }
  EdgeRange trail_edges() const { return trail_; }
  /// E+ in slot (sweep) order with this engine's own (fork-stable)
  /// values.
  const EdgeBucket<S>& shortcut_edges() const { return shortcut_; }
  /// The bucket table (EplusPlan::bucket_offset) over shortcut_edges().
  std::span<const std::uint64_t> bucket_offsets() const {
    return bucket_offset_;
  }
  /// Kind's level-l bucket as a range of shortcut_edges().
  EdgeRange bucket(EplusPlan::Kind kind, std::uint32_t level) const {
    const std::size_t k = EplusPlan::bucket_rank(kind, level, aug_->height);
    return {bucket_offset_[k], bucket_offset_[k + 1]};
  }
  /// Value slabs shared (pointer-identical) between this engine's
  /// arrays and `other`'s — the structural-sharing test hook.
  std::size_t slabs_shared_with(const SeparatorShortestPaths& other) const {
    return base_.slabs_shared_with(other.base_) +
           ends_.slabs_shared_with(other.ends_) +
           shortcut_.slabs_shared_with(other.shortcut_);
  }
  /// Total value slabs across the three arrays (denominator for sharing
  /// ratios).
  std::size_t total_slabs() const {
    return base_.slab_count() + ends_.slab_count() + shortcut_.slab_count();
  }

  // --- queries -------------------------------------------------------------

  /// Distances from one source; O(ell |E| + |E+|) work. Exact distances
  /// absent negative cycles; negative cycles reachable from `source` are
  /// detected and flagged.
  QueryResult<S> distances(Vertex source) const {
    QueryResult<S> r;
    r.dist.resize(g_->num_vertices());
    static_cast<QueryStats&>(r) = distances_into(source, r.dist);
    return r;
  }

  /// Allocation-free distances(): fills the caller's buffer (size must
  /// equal num_vertices; prior contents ignored) and returns the run's
  /// counters. Reuse one buffer across queries to keep a serving hot
  /// path free of per-query heap traffic.
  QueryStats distances_into(Vertex source, std::span<Value> out) const {
    SEPSP_CHECK(source < g_->num_vertices());
    SEPSP_CHECK(out.size() == g_->num_vertices());
    std::fill(out.begin(), out.end(), S::zero());
    out[source] = S::one();
    QueryStats s;
    walk(out.data(), 1, {&s, 1});
    return s;
  }

  /// Distances from many sources (the s-source workload of Corollary
  /// 5.2). The BatchPolicy selects the lane width: sources are grouped
  /// into blocks of that many lanes relaxed simultaneously, blocks
  /// running in parallel on the thread pool; `{.lanes = 1}` runs one
  /// scalar query per source. Per-source results are identical either
  /// way — distances bit for bit, counters and negative-cycle flag too:
  /// lanes never interact. The rows are allocated here, on the calling
  /// thread, and filled by the output form below.
  std::vector<QueryResult<S>> distances_batch(std::span<const Vertex> sources,
                                              BatchPolicy policy = {}) const {
    std::vector<QueryResult<S>> results(sources.size());
    std::vector<std::span<Value>> rows;
    rows.reserve(sources.size());
    for (QueryResult<S>& r : results) {
      r.dist.resize(g_->num_vertices());
      rows.emplace_back(r.dist);
    }
    std::vector<QueryStats> stats(sources.size());
    distances_batch(sources, rows, stats, policy);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      static_cast<QueryStats&>(results[i]) = stats[i];
    }
    return results;
  }

  /// Output form of distances_batch(): rows[i] (size num_vertices; prior
  /// contents ignored) receives sources[i]'s distances and stats[i] its
  /// counters, bit for bit what the vector form returns. Each block
  /// writes its lanes straight from its lane-major matrix into the rows,
  /// and that matrix is per-thread scratch, so a pool thread allocates
  /// nothing once it has run one block this wide: every answer is
  /// allocated once, by the caller that keeps it.
  void distances_batch(std::span<const Vertex> sources,
                       std::span<const std::span<Value>> rows,
                       std::span<QueryStats> stats,
                       BatchPolicy policy = {}) const {
    const std::size_t width = policy.lanes == 0 ? kBatchLanes : policy.lanes;
    SEPSP_CHECK_MSG(is_lane_width(width),
                    "BatchPolicy::lanes must be one of 1, 2, 4, 8, 16, 32 "
                    "(or 0 for the engine default)");
    SEPSP_CHECK(rows.size() == sources.size() &&
                stats.size() == sources.size());
    const std::size_t blocks = (sources.size() + width - 1) / width;
    pram::ThreadPool::global().parallel_for(
        0, blocks,
        [&](std::size_t blk) {
          const std::size_t lo = blk * width;
          const std::size_t len = std::min(width, sources.size() - lo);
          batch_block(sources.subspan(lo, len), width, rows.subspan(lo, len),
                      stats.subspan(lo, len));
        },
        /*grain=*/1);
  }

  /// Multi-source query with per-seed initial values: equivalent to a
  /// virtual source with an arc of the given value to each seed (the
  /// q-face pipeline enters G' from in-hammock offsets; one() seeds on
  /// every vertex are the super-source of difference-constraint
  /// solving). The schedule's correctness argument is per-path and
  /// source-agnostic.
  QueryResult<S> distances_seeded(
      std::span<const std::pair<Vertex, Value>> seeds) const {
    QueryResult<S> r;
    r.dist.assign(g_->num_vertices(), S::zero());
    for (const auto& [v, value] : seeds) {
      SEPSP_CHECK(v < g_->num_vertices());
      r.dist[v] = S::combine(r.dist[v], value);
    }
    walk(r.dist.data(), 1, {static_cast<QueryStats*>(&r), 1});
    return r;
  }

  /// Ablation baseline: diameter-bounded Bellman–Ford over E u E+,
  /// scanning every edge each phase (the "straightforward" algorithm the
  /// paper improves on in Section 3.2).
  QueryResult<S> distances_unscheduled(Vertex source) const {
    SEPSP_CHECK(source < g_->num_vertices());
    QueryResult<S> r;
    r.dist.assign(g_->num_vertices(), S::zero());
    r.dist[source] = S::one();
    const std::span<QueryStats> acct(static_cast<QueryStats*>(&r), 1);
    const Pass all[] = {{&base_, {0, base_.size()}},
                        {&shortcut_, {0, shortcut_.size()}}};
    passes(all, aug_->diameter_bound(), r.dist.data(), 1, acct);
    detect_negative_cycles(r.dist.data(), 1, acct);
    charge(acct, 0);
    return r;
  }

  /// Structural schedule statistics plus cumulative query counters.
  /// Every field but the four process-wide kernel/pool/SIMD reads is
  /// populated in every build mode. The query counters (queries,
  /// edges_scanned, phases, lane occupancy, per-level scans) are
  /// per-engine (not process-wide) and cover every query entry point.
  EngineStats stats() const {
    EngineStats st;
    st.num_vertices = g_->num_vertices();
    st.num_edges = g_->num_edges();
    // Counted through the engine's arrays: a stored engine's
    // augmentation has no plan (E+ lives in the image's segments).
    st.eplus_edges = shortcut_.size();
    st.bucket_edges = shortcut_.size();
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
      st.levels.push_back(
          {l, bucket(EplusPlan::kSame, l).size(),
           bucket(EplusPlan::kDown, l).size(), bucket(EplusPlan::kUp, l).size(),
           counters_->level_scans[l].load(std::memory_order_relaxed)});
    }
    st.queries = counters_->queries.load(std::memory_order_relaxed);
    st.edges_scanned = counters_->edges.load(std::memory_order_relaxed);
    st.phases = counters_->phases.load(std::memory_order_relaxed);
    st.climb_slots_skipped =
        counters_->climb_skipped.load(std::memory_order_relaxed);
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
  friend class IncrementalEngine;
  template <Semiring>
  friend class store::StoredEngine;
  template <Semiring T>
  friend SeparatorShortestPaths<T> detail::make_engine(
      const Digraph& g, Augmentation aug, bool cycle_certified,
      std::span<const typename T::Value> entries);

  /// The one place the verification-pass decision is made: an engine
  /// with no edge arrays yet, over `aug`, freezing `cycle_certified`.
  SeparatorShortestPaths(const Digraph& g,
                         std::shared_ptr<const Augmentation> aug,
                         const Options& options, bool cycle_certified)
      : g_(&g),
        aug_(std::move(aug)),
        cycle_certified_(cycle_certified),
        detect_cycles_(options.query.detect_negative_cycles &&
                       !cycle_certified),
        counters_(std::make_unique<Counters>(aug_->height + 1)) {}

  /// The slot-value constructor, every build's last step. `entries` is
  /// the build's entry arena, laid out by aug.plan (which must be set):
  /// E+ aliases the plan's slot array, and slot s's value is
  /// slot_min(s) over `entries`, one write per slot in one parallel
  /// pass. The engine's values are E+'s only copy.
  SeparatorShortestPaths(const Digraph& g, Augmentation aug,
                         const Options& options, bool cycle_certified,
                         std::span<const Value> entries)
      : SeparatorShortestPaths(
            g, std::make_shared<const Augmentation>(std::move(aug)), options,
            cycle_certified) {
    SEPSP_TRACE_SPAN("build.buckets");
    plan_ = aug_->plan;
    SEPSP_DCHECK(plan_ != nullptr);
    const EplusPlan& plan = *plan_;
    SEPSP_CHECK(plan.num_levels() == std::size_t{aug_->height} + 1);
    SEPSP_CHECK(entries.size() == plan.num_entries());

    // Base arcs, in CSR order (arc index = position).
    {
      const std::size_t m = g.num_edges();
      auto pairs = std::make_shared<PairBlock>();
      pairs->from.resize(m);
      pairs->to.resize(m);
      SlabVector<Value> values(m);
      std::size_t arc = 0;
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        for (const Arc& a : g.out(u)) {
          pairs->from[arc] = u;
          pairs->to[arc] = a.to;
          values.init(arc, S::from_weight(a.weight));
          ++arc;
        }
      }
      base_ = EdgeBucket<S>(std::move(pairs), std::move(values));
    }

    // End arcs: the base arcs with an unleveled endpoint, tail-only
    // class, then both, then head-only, each in CSR order; and every
    // arc's position among them.
    {
      const std::size_t m = g.num_edges();
      const Vertex* from = base_.from_data();
      const Vertex* to = base_.to_data();
      std::array<std::vector<std::uint32_t>, 3> classes;
      for (std::size_t arc = 0; arc < m; ++arc) {
        const bool tail = !plan.levels.defined(from[arc]);
        const bool head = !plan.levels.defined(to[arc]);
        if (tail || head) {
          classes[tail ? (head ? 1 : 0) : 2].push_back(
              static_cast<std::uint32_t>(arc));
        }
      }
      const std::size_t count =
          classes[0].size() + classes[1].size() + classes[2].size();
      SEPSP_CHECK_MSG(count < kNotEnd, "too many end arcs for u32 positions");
      auto pairs = std::make_shared<PairBlock>();
      pairs->from.resize(count);
      pairs->to.resize(count);
      SlabVector<Value> values(count);
      auto position = std::make_shared<std::vector<std::uint32_t>>(m, kNotEnd);
      std::uint32_t at = 0;
      for (const std::vector<std::uint32_t>& arcs : classes) {
        for (const std::uint32_t arc : arcs) {
          pairs->from[at] = from[arc];
          pairs->to[at] = to[arc];
          values.init(at, base_.value(arc));
          (*position)[arc] = at++;
        }
      }
      ends_ = EdgeBucket<S>(std::move(pairs), std::move(values));
      lead_ = {0, classes[0].size() + classes[1].size()};
      trail_ = {classes[0].size(), count};
      end_position_ = std::move(position);
    }

    // E+'s values, in slot order: every value read resolves here.
    SlabVector<Value> values(plan.num_slots());
    pram::ThreadPool::global().parallel_blocks(
        0, plan.num_slots(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) {
            values.init(s, detail::slot_min<S>(plan, s, entries));
          }
        },
        /*grain=*/std::size_t{1} << 14);
    shortcut_ = EdgeBucket<S>(
        std::shared_ptr<const PairBlock>(plan_, &plan.slots),
        std::move(values));
    bucket_offset_ = plan.bucket_offset;
  }

  /// An engine over a mapped image (store::StoredEngine::open): base and
  /// E+ are external views into the image's segments, scanned through
  /// page pins instead of owned vectors. The segments hold the heap
  /// engine's arrays verbatim, so this engine replays the exact same
  /// edge order and produces bit-identical distances. It is read-only:
  /// the refresh hooks abort on it. `cycle_certified` is the image's
  /// certificate flag. `g`, `aug`, and the mapped image behind `buckets`
  /// must outlive it.
  static SeparatorShortestPaths from_store(
      const Digraph& g, std::shared_ptr<const Augmentation> aug,
      const StoredBuckets<S>& buckets, const Options& options,
      bool cycle_certified) {
    SEPSP_CHECK_MSG(
        buckets.bucket_offset.size() ==
                EplusPlan::num_buckets(aug->height) + 1 &&
            buckets.bucket_offset.back() == buckets.eplus.count,
        "from_store: bucket table disagrees with the augmentation height "
        "or the E+ count");
    SEPSP_CHECK_MSG(buckets.base.count == g.num_edges(),
                    "from_store: base bucket count != num_edges");
    const auto [a, b] = buckets.ends_split;
    SEPSP_CHECK_MSG(a <= b && b <= buckets.ends.count,
                    "from_store: end-arc split out of range");
    SeparatorShortestPaths out(g, std::move(aug), options, cycle_certified);
    out.base_ = EdgeBucket<S>::from_external(buckets.base);
    out.ends_ = EdgeBucket<S>::from_external(buckets.ends);
    out.lead_ = {0, b};
    out.trail_ = {a, buckets.ends.count};
    out.shortcut_ = EdgeBucket<S>::from_external(buckets.eplus);
    out.bucket_offset_ = buckets.bucket_offset;
    // plan_ and end_position_ stay null: stored engines cannot be
    // reweighted.
    return out;
  }

  /// Value patching for incremental reweighting (IncrementalEngine's
  /// live engine): the pair structure of the arrays is fixed by the
  /// tree; these refresh a single entry's value in place. `arc_index`
  /// indexes g.arcs(); `slot` indexes the plan's slots. Never a fork,
  /// never a stored engine. Returns the number of value slabs the write
  /// had to detach from outstanding forks (the unit of
  /// `IncrementalEngine::ApplyStats::slabs_copied`). refresh_base also
  /// patches the arc's end-arc copy, when it has one.
  std::size_t refresh_base(std::size_t arc_index, Value value) {
    SEPSP_CHECK_MSG(plan_ != nullptr,
                    "refresh_base on a stored (read-only) engine");
    std::size_t copied = base_.set_value(arc_index, value) ? 1 : 0;
    const std::uint32_t at = (*end_position_)[arc_index];
    if (at != kNotEnd) copied += ends_.set_value(at, value) ? 1 : 0;
    return copied;
  }
  std::size_t refresh_shortcut(std::size_t slot, Value value) {
    SEPSP_CHECK_MSG(plan_ != nullptr,
                    "refresh_shortcut on a stored (read-only) engine");
    return shortcut_.set_value(slot, value) ? 1 : 0;
  }

  /// Structurally-shared copy (IncrementalEngine::snapshot()): O(#slabs)
  /// pointer copies, no value copies, and a fresh ledger. The fork
  /// answers queries (scalar and batched) bit-identically to this
  /// engine at fork time, from any thread, and stays frozen while this
  /// engine keeps being refreshed — each refresh detaches only the slab
  /// it touches. The fork must never be refreshed. It shares this
  /// engine's augmentation and freezes `cycle_certified`, the
  /// certificate of the weighting it copies.
  SeparatorShortestPaths fork(const Options& options, bool cycle_certified) {
    SeparatorShortestPaths out(*g_, aug_, options, cycle_certified);
    out.plan_ = plan_;
    out.base_ = base_.fork();
    out.ends_ = ends_.fork();
    out.lead_ = lead_;
    out.trail_ = trail_;
    out.end_position_ = end_position_;
    out.shortcut_ = shortcut_.fork();
    out.bucket_offset_ = bucket_offset_;
    return out;
  }

  /// The source-batched schedule: one walk for up to `width` sources
  /// over a lane-major distance matrix, so each edge load relaxes every
  /// lane. `sources.size()` may be short of `width` (ragged last block;
  /// the unused lanes stay unseeded and are not reported). Writes each
  /// lane into its row and its counters into `stats`, in order, each
  /// equal to distances() of that source — distances bit for bit,
  /// counters and negative-cycle flag too.
  void batch_block(std::span<const Vertex> sources, std::size_t width,
                   std::span<const std::span<Value>> rows,
                   std::span<QueryStats> stats) const {
    SEPSP_CHECK(!sources.empty() && sources.size() <= width);
    SEPSP_TRACE_SPAN("query.batch_block");
    const std::size_t n = g_->num_vertices();
    // The matrix is this thread's scratch and keeps its high-water size.
    // thread_local is safe because batch_block forks nothing: no
    // help-first join can run another block on this thread while the
    // matrix is in use. Node tasks do fork, which is why the builders
    // lease their scratch instead (core/builder_scratch.hpp).
    static thread_local AlignedVector<Value> matrix;
    const std::size_t cells = padded_size<Value>(n * width);
    if (matrix.size() < cells) matrix.resize(cells);
    Value* dist = matrix.data();
    std::fill_n(dist, cells, S::zero());
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      SEPSP_CHECK(sources[lane] < n);
      SEPSP_CHECK(rows[lane].size() == n);
      dist[static_cast<std::size_t>(sources[lane]) * width + lane] = S::one();
    }
    std::array<QueryStats, kMaxLanes> acct{};
    walk(dist, width, {acct.data(), sources.size()});
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      Value* row = rows[lane].data();
      for (std::size_t v = 0; v < n; ++v) row[v] = dist[v * width + lane];
      stats[lane] = acct[lane];
    }
    counters_->blocks.fetch_add(1, std::memory_order_relaxed);
    counters_->lanes_used.fetch_add(sources.size(), std::memory_order_relaxed);
    counters_->lane_capacity.fetch_add(width, std::memory_order_relaxed);
  }

  /// The leveled schedule, once for every entry point. `dist` is
  /// lane-major (dist[v * width + lane], width <= kMaxLanes) with one
  /// seeded lane per `acct` entry; lanes past acct.size() stay at zero()
  /// and never move.
  void walk(Value* dist, std::size_t width, std::span<QueryStats> acct) const {
    {
      SEPSP_TRACE_SPAN("query.e_passes");
      const Pass lead[] = {{&ends_, lead_}};
      passes(lead, aug_->ell, dist, width, acct);
    }
    std::uint64_t skipped = 0;
    {
      SEPSP_TRACE_SPAN("query.down_sweep");
      for (std::uint32_t l = aug_->height + 1; l-- > 0;) {
        const EdgeRange same = bucket(EplusPlan::kSame, l);
        const EdgeRange down = bucket(EplusPlan::kDown, l);
        skipped += climb(same, dist, width, acct);
        skipped += climb(down, dist, width, acct);
        note_level_scan(l, (same.size() + down.size()) * acct.size());
      }
    }
    {
      SEPSP_TRACE_SPAN("query.up_sweep");
      for (std::uint32_t l = 0; l <= aug_->height; ++l) {
        const EdgeRange same = bucket(EplusPlan::kSame, l);
        const EdgeRange up = bucket(EplusPlan::kUp, l);
        sweep(same, dist, width, acct);
        sweep(up, dist, width, acct);
        note_level_scan(l, (same.size() + up.size()) * acct.size());
      }
    }
    {
      SEPSP_TRACE_SPAN("query.e_passes");
      const Pass trail[] = {{&ends_, trail_}};
      passes(trail, aug_->ell, dist, width, acct);
    }
    {
      SEPSP_TRACE_SPAN("query.detect_cycles");
      detect_negative_cycles(dist, width, acct);
    }
    charge(acct, skipped);
  }

  /// One range of an edge array, a phase of passes().
  struct Pass {
    const EdgeBucket<S>* edges;
    EdgeRange range;
  };

  /// Up to `rounds` passes, each one phase per part in order, with
  /// per-lane early exit: a lane stops accruing counters after its first
  /// pass that changed nothing (that pass still counts) and rides along
  /// as a no-op, its distances already at these ranges' fixpoint.
  void passes(std::span<const Pass> parts, std::size_t rounds, Value* dist,
              std::size_t width, std::span<QueryStats> acct) const {
    std::array<std::uint8_t, kMaxLanes> active{};
    std::fill_n(active.begin(), acct.size(), std::uint8_t{1});
    std::size_t live = acct.size();
    std::size_t edges = 0;
    for (const Pass& part : parts) edges += part.range.size();
    const auto phases = static_cast<std::uint32_t>(parts.size());
    for (std::size_t round = 0; round < rounds && live != 0; ++round) {
      std::array<std::uint8_t, kMaxLanes> changed{};
      for (const Pass& part : parts) {
        relax<true>(*part.edges, part.range, dist, width, changed.data());
      }
      for (std::size_t lane = 0; lane < acct.size(); ++lane) {
        if (!active[lane]) continue;
        acct[lane].edges_scanned += edges;
        acct[lane].phases += phases;
        if (!changed[lane]) {
          active[lane] = 0;
          --live;
        }
      }
    }
  }

  /// One leveled-sweep bucket pass: every lane is charged the scan (the
  /// sweeps scan their buckets unconditionally).
  void sweep(EdgeRange range, Value* dist, std::size_t width,
             std::span<QueryStats> acct) const {
    relax<false>(shortcut_, range, dist, width, nullptr);
    charge_scan(range, acct);
  }

  /// sweep() for the climb (the first sweep), which starts from the
  /// source and the leading passes' few vertices: a `from` run whose
  /// tail is zero() in every lane is skipped, and the number of skipped
  /// slots returned. Relaxing such a run would change nothing, since
  /// extending zero() gives zero(), so the distances are bit for bit
  /// those of sweep(). A run is tested only after every earlier slot of
  /// the bucket has been relaxed (the pending stretch of live runs is
  /// flushed first, then the run tested again), and each stretch of
  /// consecutive live runs goes to relax() as one range. Every lane is
  /// still charged the whole bucket: the counters keep the schedule's
  /// meaning.
  std::size_t climb(EdgeRange range, Value* dist, std::size_t width,
                    std::span<QueryStats> acct) const {
    const Vertex* from = shortcut_.from_data();
    const auto unreached = [&](Vertex u) {
      const Value* du = dist + static_cast<std::size_t>(u) * width;
      for (std::size_t l = 0; l < width; ++l) {
        if (du[l] != S::zero()) return false;
      }
      return true;
    };
    std::size_t skipped = 0;
    shortcut_.for_each_tails_chunk(
        range.lo, range.hi, [&](std::size_t lo, std::size_t hi) {
          std::size_t live = lo;  // the pending stretch is [live, i)
          for (std::size_t i = lo; i < hi;) {
            const Vertex u = from[i];
            std::size_t end = i + 1;
            while (end < hi && from[end] == u) ++end;
            bool dead = unreached(u);
            if (dead && live < i) {
              relax<false>(shortcut_, {live, i}, dist, width, nullptr);
              live = i;
              dead = unreached(u);
            }
            if (dead) {
              skipped += end - i;
              live = end;
            }
            i = end;
          }
          if (live < hi) {
            relax<false>(shortcut_, {live, hi}, dist, width, nullptr);
          }
        });
    charge_scan(range, acct);
    return skipped;
  }

  /// Charges every lane one bucket scan: the range's size and a phase.
  static void charge_scan(EdgeRange range, std::span<QueryStats> acct) {
    for (QueryStats& s : acct) {
      s.edges_scanned += range.size();
      ++s.phases;
    }
  }

  /// One relaxation pass over edges [range.lo, range.hi) in every lane;
  /// with kTrack, ORs each lane's "improved" flag into changed[0..width).
  /// Values stream run by run (a value slab, or a pinned chunk of a
  /// mapped image segment), each a flat array alongside the shared pair
  /// arrays. Every run goes to simd::bucket_sweep, which takes the width
  /// at run time and stores combine(old, relax_extend(du, w)) in every
  /// lane: the dispatched vector kernel when more than one lane runs on
  /// a vector tier, else its inline lane loop. An unreached lane stays
  /// where it is, since extending zero() gives zero().
  ///
  /// kTrack stays a template parameter although bucket_sweep takes the
  /// change mask as a pointer: a constant null lets the compiler drop
  /// the tracked loop from every untracked sweep it inlines. With the
  /// mask passed at run time, TropicalI's width-1 walk on the 33x33 mesh
  /// took about 10% longer per source (EXPERIMENTS.md note 12).
  template <bool kTrack>
  void relax(const EdgeBucket<S>& edges, EdgeRange range, Value* dist,
             std::size_t width, std::uint8_t* changed) const {
    const Vertex* from = edges.from_data();
    const Vertex* to = edges.to_data();
    edges.for_each_values_run(
        range.lo, range.hi,
        [&](std::size_t lo, std::size_t len, const Value* value) {
          simd::bucket_sweep<S>(dist, from + lo, to + lo, value, len, width,
                                kTrack ? changed : nullptr);
        });
    note_simd_cells(range.size(), width);
  }

  /// Final verification pass over E u E+, per lane: the schedule reaches
  /// a fixpoint when no negative cycle is reachable, so any significant
  /// further improvement certifies one (S::detect_improves tolerates
  /// floating-point drift between equivalent summation orders). One
  /// simd::bucket_detect per values run, at every width.
  void detect_negative_cycles(const Value* dist, std::size_t width,
                              std::span<QueryStats> acct) const {
    if (!detect_cycles_) return;
    if constexpr (S::kDetectNegativeCycles) {
      std::array<bool, kMaxLanes> found{};
      for (const EdgeBucket<S>* edges : {&base_, &shortcut_}) {
        const Vertex* from = edges->from_data();
        const Vertex* to = edges->to_data();
        edges->for_each_values_run(
            [&](std::size_t lo, std::size_t len, const Value* value) {
              simd::bucket_detect<S>(dist, from + lo, to + lo, value, len,
                                     width, acct.size(), found.data());
            });
      }
      for (std::size_t lane = 0; lane < acct.size(); ++lane) {
        acct[lane].negative_cycle = found[lane];
        acct[lane].edges_scanned += base_.size() + shortcut_.size();
        ++acct[lane].phases;
      }
    }
  }

  /// Accounting of one walk, its one path into the ledger: PRAM work per
  /// lane (every lane's updates really happen), depth once (the lanes
  /// share the physical phases), one query per lane with its scans and
  /// phases, and the climb slots the walk skipped (once per walk).
  void charge(std::span<const QueryStats> acct,
              std::uint64_t climb_skipped) const {
    std::uint32_t depth = 0;
    std::uint64_t edges = 0, phases = 0;
    for (const QueryStats& s : acct) {
      pram::CostMeter::charge_work(s.edges_scanned);
      depth = std::max(depth, s.phases);
      edges += s.edges_scanned;
      phases += s.phases;
    }
    pram::CostMeter::charge_depth(depth);
    counters_->queries.fetch_add(acct.size(), std::memory_order_relaxed);
    counters_->edges.fetch_add(edges, std::memory_order_relaxed);
    counters_->phases.fetch_add(phases, std::memory_order_relaxed);
    counters_->climb_skipped.fetch_add(climb_skipped,
                                       std::memory_order_relaxed);
  }

  /// Credits `edges` scans to the level-l buckets.
  void note_level_scan(std::uint32_t level, std::uint64_t edges) const {
    counters_->level_scans[level].fetch_add(edges, std::memory_order_relaxed);
  }

  /// Cells (edge x lane relaxations) of a pass over `edges` edges at
  /// `width` lanes that ran through a vector kernel (see
  /// simd::vector_dispatch_active).
  static void note_simd_cells(std::size_t edges, std::size_t width) {
#if SEPSP_OBS_ENABLED
    if (simd::vector_dispatch_active<S>(width)) {
      static obs::Counter& counter = obs::counter("simd.cells");
      counter.add(edges * width);
    }
#else
    (void)edges, (void)width;
#endif
  }

  /// The engine's one ledger; cumulative over every query of this
  /// engine (a fork starts its own).
  struct Counters {
    explicit Counters(std::size_t levels) : level_scans(levels) {}
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> edges{0};
    std::atomic<std::uint64_t> phases{0};
    std::atomic<std::uint64_t> climb_skipped{0};
    std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> lanes_used{0};
    std::atomic<std::uint64_t> lane_capacity{0};
    /// Scans of the level-l buckets, indexed by bucket level.
    std::vector<std::atomic<std::uint64_t>> level_scans;
  };

  const Digraph* g_;
  /// Shared: a fork aliases its origin's (immutable) augmentation.
  std::shared_ptr<const Augmentation> aug_;
  /// The slot plan whose slot array E+ aliases; null for a stored
  /// engine.
  std::shared_ptr<const EplusPlan> plan_;
  // Frozen at construction: a fork freezes the certificate of the
  // weighting it copies.
  bool cycle_certified_;
  bool detect_cycles_;
  EdgeBucket<S> base_;  ///< CSR order: arc index = position
  /// The end arcs (end_edges()); the walk's base passes scan lead_ and
  /// trail_, ranges of it.
  EdgeBucket<S> ends_;
  EdgeRange lead_;
  EdgeRange trail_;
  /// Every arc's position in ends_, or kNotEnd; shared by forks, null
  /// for a stored engine.
  std::shared_ptr<const std::vector<std::uint32_t>> end_position_;
  static constexpr std::uint32_t kNotEnd = static_cast<std::uint32_t>(-1);
  EdgeBucket<S> shortcut_;  ///< E+, slot (sweep) order
  /// Bucket k is shortcut_[bucket_offset_[k], bucket_offset_[k + 1]).
  std::vector<std::uint64_t> bucket_offset_;
  std::unique_ptr<Counters> counters_;
};

namespace detail {
template <Semiring S>
SeparatorShortestPaths<S> make_engine(
    const Digraph& g, Augmentation aug, bool cycle_certified,
    std::span<const typename S::Value> entries) {
  return SeparatorShortestPaths<S>(g, std::move(aug), {}, cycle_certified,
                                   entries);
}
}  // namespace detail

/// Builds G+ with Algorithm 4.1 and returns the engine over it. The
/// tree must decompose g's skeleton. With Floyd–Warshall closures this
/// is build(g, tree), E+ and certificate bit for bit; the squaring
/// closure never certifies (run_algorithm41).
template <Semiring S>
SeparatorShortestPaths<S> build_augmentation_recursive(
    const Digraph& g, const SeparatorTree& tree,
    ClosureKind closure = ClosureKind::kSquaring) {
  SEPSP_TRACE_SPAN("build.recursive");
  const pram::CostScope scope;
  detail::TreeRun<S> run = detail::run_algorithm41<S>(g, tree, closure);
  run.aug.build_cost = scope.cost();
  return detail::make_engine<S>(g, std::move(run.aug), run.cycle_free,
                                run.entries);
}

/// Measured minimum-weight diameter of the augmented graph from one
/// source: runs full-edge-set phases over the engine's base and E+
/// arrays to convergence; the last phase that updated v is the minimum
/// size of an optimal path to v. Returns the max over reached vertices
/// (Theorem 3.1 / Figure 2 verification).
template <Semiring S>
std::size_t measure_shortcut_radius(const SeparatorShortestPaths<S>& engine,
                                    Vertex source) {
  using Value = typename S::Value;
  const std::size_t n = engine.graph().num_vertices();
  SEPSP_CHECK(source < n);

  // Synchronous (Jacobi) relaxation: after phase k, dist[v] is exactly
  // the best value over walks of at most k edges, so the last phase that
  // updated v equals the minimum size of an optimal path to v.
  std::vector<Value> dist(n, S::zero());
  std::vector<std::size_t> last_update(n, 0);
  dist[source] = S::one();
  // "Significant" improvements only: floating-point polish (the same
  // optimal value reached via a different summation order, differing by
  // ~1e-15) must not count as a phase, or the measured radius reflects
  // rounding instead of path structure.
  auto significant = [](Value current, Value candidate) {
    if constexpr (S::kDetectNegativeCycles) {
      return S::detect_improves(current, candidate);
    } else {
      return S::improves(current, candidate);
    }
  };
  std::vector<Value> next(n);
  const auto relax_all = [&](const EdgeBucket<S>& edges) {
    const Vertex* from = edges.from_data();
    const Vertex* to = edges.to_data();
    edges.for_each_values_run(
        [&](std::size_t lo, std::size_t len, const Value* value) {
          for (std::size_t i = 0; i < len; ++i) {
            const Value du = dist[from[lo + i]];
            if (!S::improves(S::zero(), du)) continue;
            const Value cand = S::extend(du, value[i]);
            if (S::improves(next[to[lo + i]], cand)) next[to[lo + i]] = cand;
          }
        });
  };
  for (std::size_t phase = 1;; ++phase) {
    next.assign(dist.begin(), dist.end());
    relax_all(engine.base_edges());
    relax_all(engine.shortcut_edges());
    bool changed = false;
    for (Vertex v = 0; v < n; ++v) {
      if (significant(dist[v], next[v])) {
        last_update[v] = phase;
        changed = true;
      }
    }
    dist.swap(next);
    if (!changed) break;
    SEPSP_CHECK_MSG(phase <= 4 * n + 4,
                    "radius measurement diverged (negative cycle?)");
  }
  std::size_t radius = 0;
  for (Vertex v = 0; v < n; ++v) radius = std::max(radius, last_update[v]);
  return radius;
}

}  // namespace sepsp
