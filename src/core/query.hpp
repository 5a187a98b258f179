// Single-source queries on the augmented graph (Section 3.2).
//
// Theorem 3.1's witness paths have the form
//   [<= ell edges of E] [shortcuts with a bitonic level sequence]
//   [<= ell edges of E]
// where consecutive equal levels appear at most twice. The leveled
// schedule exploits this: after ell full passes over E, one descending
// sweep scans, per level L, first the level-L same-level edges and then
// the edges dropping below L; an ascending sweep mirrors it; ell full E
// passes finish. Each bucket is scanned O(1) times, so the per-source
// work is O(ell |E| + |E U E+|) instead of the naive
// O((|E| + |E+|) * diam) of diameter-bounded Bellman–Ford (kept for the
// T1b ablation as run_unscheduled()).
//
// One walker (LeveledQuery::walk<B>) runs that schedule for every
// entry point. Its distance array is lane-major, dist[v * B + lane]:
// B = 1 is the scalar query (run, run_into, run_multi, run_weighted)
// with its guarded compare-then-store loop; B > 1 is the source-batched
// query (run_block<B>, Corollary 5.2's s-source workload), which relaxes
// B sources per edge load through the dispatched SIMD kernels
// (semiring/simd.hpp). Lanes never interact, so every lane's distances
// and counters equal a scalar run of its own source.
//
// Edges are stored struct-of-arrays (from[]/to[]/value[]): one
// relaxation pass streams three flat arrays instead of chasing
// interleaved structs, at any lane width. E+ is one such array, its
// slots numbered in sweep order by the tree's slot plan
// (separator/eplus_plan.hpp): every leveled bucket is a range of it,
// (from, to)-sorted, and the sweeps read those ranges in the order they
// lie. The leveled buckets hold E+ alone. Base arcs feed the ell E
// passes and the verification pass only: an arc (u, v) whose endpoints
// both have levels lies in some leaf L, so u and v are both in B(L) and
// the slot (u, v) — in the same bucket, valued at most w(u, v) —
// relaxes everything the arc would (docs/ALGORITHMS.md §4).
//
// Structural sharing: the pair structure of E+ is tree-only. Every
// engine over the tree aliases the plan's slot array and owns only one
// value per slot, in slab-chunked copy-on-write storage
// (util/slab.hpp).
// fork_shared() therefore produces an independent query engine in
// O(#slabs) pointer copies — the representation behind
// IncrementalEngine::snapshot()'s proportional epoch swaps: a fork
// aliases every value slab until the live engine's next refresh_*
// detaches just the touched ones. A fork answers queries from any
// thread while the origin keeps being patched; it must never be
// refreshed itself. All value reads on the query path — including the
// shortcut values of the negative-cycle verification pass — go through
// the engine's own slab store; an engine's Augmentation holds none.
//
// Observability: each run charges the per-bucket-level scan totals
// (level_edges_scanned()) in every build mode; the per-query counters
// live in the facade's EngineStats ledger, not here. When compiled with
// SEPSP_OBS (see obs/obs.hpp) a walk also records phase timing spans
// and the process-wide simd.cells counter. All hooks sit at phase
// granularity — the inner relaxation loops are identical in both
// modes.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/augment.hpp"
#include "graph/digraph.hpp"
#include "obs/obs.hpp"
#include "pram/cost_model.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/simd.hpp"
#include "util/aligned.hpp"
#include "util/page_source.hpp"
#include "util/slab.hpp"

namespace sepsp {

/// The non-distance outcome of one query run: counters plus the
/// negative-cycle verdict. Returned by the allocation-free entry points
/// (LeveledQuery::run_into, SeparatorShortestPaths::distances_into) and
/// embedded in every QueryResult.
struct QueryStats {
  bool negative_cycle = false;  ///< a negative cycle is reachable (tropical)
  std::uint64_t edges_scanned = 0;
  std::uint32_t phases = 0;
};

/// Outcome of one single-source computation.
///
/// Unreachable sentinel contract: dist[v] == S::zero() — the combine()
/// identity, e.g. +infinity for the tropical semirings and 0 for boolean
/// reachability — if and only if no path from the source(s) reached v.
/// Every reached vertex holds a value for which
/// S::improves(S::zero(), dist[v]) is true; use reached()/dist_or()
/// instead of comparing against the sentinel by hand.
template <Semiring S>
struct QueryResult {
  std::vector<typename S::Value> dist;  ///< dist[v]; zero() = unreachable
  bool negative_cycle = false;  ///< a negative cycle is reachable (tropical)
  std::uint64_t edges_scanned = 0;
  std::uint32_t phases = 0;

  /// True when a path from the source(s) reaches v.
  bool reached(Vertex v) const { return S::improves(S::zero(), dist[v]); }

  /// dist[v] when v was reached, else the caller's fallback (ergonomic
  /// alternative to testing the zero() sentinel).
  typename S::Value dist_or(Vertex v, typename S::Value fallback) const {
    return reached(v) ? dist[v] : fallback;
  }
};

/// One bucket's SoA segments inside a page-aligned engine image
/// (store/format.hpp): three parallel arrays mapped read-only, plus the
/// byte offsets the residency accounting pins through. `pages` may be
/// null (all-resident image; pins become no-ops).
template <typename Value>
struct ExternalBucketStore {
  const Vertex* from = nullptr;
  const Vertex* to = nullptr;
  const Value* value = nullptr;
  std::size_t count = 0;
  std::uint64_t from_offset = 0;
  std::uint64_t to_offset = 0;
  std::uint64_t value_offset = 0;
  PageSource* pages = nullptr;
};

/// One edge array in struct-of-arrays layout. The (from, to) pair
/// arrays are an immutable PairBlock shared by every fork (and, for E+,
/// by every engine over the tree); the values sit in slab-chunked
/// copy-on-write storage so set_value() on one copy never disturbs
/// another. Shared by the scalar and lane loops of LeveledQuery and the
/// dispatched vector kernels (semiring/simd.hpp), which tolerate
/// unaligned runs: a range that starts inside a slab streams from there.
///
/// A bucket is either *owned* (the above) or *external*: a read-only
/// view into an mmapped engine image whose residency a PageSource
/// controls. External buckets are immutable — set_value/refresh are
/// fatal — and every kernel reads them through for_each_values_run(),
/// which pins each chunk's pages for the duration of its scan. Edge
/// order is identical in both modes, so results are bit-identical.
template <Semiring S>
class EdgeBucket {
 public:
  using Value = typename S::Value;

  EdgeBucket() = default;

  /// An owned bucket: `values[i]` belongs to the pair (pairs->from[i],
  /// pairs->to[i]).
  EdgeBucket(std::shared_ptr<const PairBlock> pairs, SlabVector<Value> values)
      : pairs_(std::move(pairs)), values_(std::move(values)) {
    SEPSP_CHECK(pairs_->size() == values_.size());
  }

  /// Wraps mapped segments; no bytes are copied or owned.
  static EdgeBucket from_external(const ExternalBucketStore<Value>& store) {
    EdgeBucket out;
    out.ext_ = std::make_shared<const ExternalBucketStore<Value>>(store);
    return out;
  }

  std::size_t size() const {
    if (ext_) return ext_->count;
    return pairs_ ? pairs_->size() : 0;
  }
  bool empty() const { return size() == 0; }

  // --- frozen access ----------------------------------------------------
  const Vertex* from_data() const {
    if (ext_) return ext_->from;
    return pairs_ ? pairs_->from.data() : nullptr;
  }
  const Vertex* to_data() const {
    if (ext_) return ext_->to;
    return pairs_ ? pairs_->to.data() : nullptr;
  }
  /// The mapped segments behind an external bucket; null when owned.
  const ExternalBucketStore<Value>* external() const { return ext_.get(); }
  /// Owned value store (slab introspection, the image writer). External
  /// buckets have no slab store — read through for_each_values_run().
  const SlabVector<Value>& values() const { return values_; }
  Value value(std::size_t i) const {
    return ext_ ? ext_->value[i] : values_[i];
  }

  /// Streams the values of edges [lo, hi) as contiguous runs
  /// f(lo, len, value_ptr) — the single value-access path of every
  /// relaxation kernel. Owned arrays yield one run per value slab
  /// touched; external ones yield fixed-size chunks, each scanned under
  /// a page pin covering the chunk's from/to/value bytes (residency
  /// accounting + eviction protection). Run boundaries differ between
  /// the modes but edge order does not.
  template <typename F>
  void for_each_values_run(std::size_t lo, std::size_t hi, F&& f) const {
    if (!ext_) {
      values_.for_each_run(lo, hi, std::forward<F>(f));
      return;
    }
    // 8 slabs' worth per chunk: large enough that pin bookkeeping
    // vanishes against the scan, small enough that a sweep's pinned
    // working set stays a handful of pages per array.
    constexpr std::size_t kChunk = 8 * SlabVector<Value>::kSlabEntries;
    for (; lo < hi; lo += kChunk) {
      const std::size_t len = std::min(kChunk, hi - lo);
      const PinLease lease = pin_span(lo, len);
      f(lo, len, ext_->value + lo);
    }
  }
  template <typename F>
  void for_each_values_run(F&& f) const {
    for_each_values_run(0, size(), std::forward<F>(f));
  }

  /// In-place value patch (incremental reweighting). Returns true when
  /// the write detached a slab shared with a fork (copy-on-write).
  /// External buckets are read-only.
  bool set_value(std::size_t i, Value v) {
    SEPSP_CHECK_MSG(!ext_, "EdgeBucket: cannot patch an external (stored) "
                           "bucket — the image is read-only");
    return values_.set(i, v);
  }

  /// Structurally-shared copy: aliases the pair block and every value
  /// slab; the origin's next set_value() on a shared slab clones it.
  /// External buckets fork by aliasing the mapped view.
  EdgeBucket fork() {
    EdgeBucket out;
    out.pairs_ = pairs_;
    out.values_ = values_.fork();
    out.ext_ = ext_;
    return out;
  }

  // --- sharing introspection (tests, stats) -----------------------------
  std::size_t slab_count() const { return values_.slab_count(); }
  std::size_t slabs_shared_with(const EdgeBucket& other) const {
    return values_.slabs_shared_with(other.values_);
  }

 private:
  PinLease pin_span(std::size_t lo, std::size_t len) const {
    PinLease lease;
    if (ext_->pages != nullptr && len != 0) {
      lease.add(ext_->pages, ext_->from_offset + lo * sizeof(Vertex),
                len * sizeof(Vertex));
      lease.add(ext_->pages, ext_->to_offset + lo * sizeof(Vertex),
                len * sizeof(Vertex));
      lease.add(ext_->pages, ext_->value_offset + lo * sizeof(Value),
                len * sizeof(Value));
    }
    return lease;
  }

  std::shared_ptr<const PairBlock> pairs_;
  SlabVector<Value> values_;
  std::shared_ptr<const ExternalBucketStore<Value>> ext_;
};

/// Assembled view of one v5 engine image's edge segments, produced by
/// the store subsystem (store/stored_engine.hpp) and consumed by
/// LeveledQuery::from_store(). All pointers reference the mapped image
/// and must outlive the query engine. `eplus` is E+ in sweep order and
/// `bucket_offset` its bucket table (EplusPlan::bucket_offset).
template <Semiring S>
struct StoredBuckets {
  using Value = typename S::Value;
  ExternalBucketStore<Value> base;
  ExternalBucketStore<Value> eplus;
  std::vector<std::uint64_t> bucket_offset;
};

/// Edges [lo, hi) of one edge array; a leveled bucket is such a range
/// of E+.
struct EdgeRange {
  std::size_t lo = 0;
  std::size_t hi = 0;

  std::size_t size() const { return hi - lo; }
};

/// Precomputed edge buckets for the leveled schedule; reusable across
/// any number of sources (thread-safe: run() is const and allocates its
/// own distance array).
template <Semiring S>
class LeveledQuery {
 public:
  using Value = typename S::Value;

  /// `detect_negative_cycles == false` skips the final verification pass
  /// (one full scan of E u E+ per query) — sound when the caller knows
  /// the graph has no negative cycle: the build certified it
  /// (Augmentation::cycle_free; the facade passes the flag through
  /// `detect && !cycle_free`), or the weights are nonnegative.
  ///
  /// `aug` must carry its tree's slot plan. E+ aliases the plan's slot
  /// array; slot s's value is slot_value(s), called once per slot from
  /// the pool's threads in one parallel pass — the engine builds pass
  /// the slot minimum over their entry arena, from_augmentation() the
  /// free builder's value. The engine's values are E+'s only copy.
  template <typename SlotValue>
  LeveledQuery(const Digraph& g, const Augmentation<S>& aug,
               bool detect_negative_cycles, const SlotValue& slot_value)
      : g_(&g),
        aug_(&aug),
        plan_(aug.plan),
        detect_cycles_(detect_negative_cycles) {
    SEPSP_TRACE_SPAN("build.buckets");
    SEPSP_DCHECK(plan_ != nullptr);
    const EplusPlan& plan = *plan_;
    SEPSP_CHECK(plan.num_levels() == std::size_t{aug.height} + 1);
    const std::uint32_t h = aug.height;
    level_scans_.reset(new std::atomic<std::uint64_t>[h + 1]());

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

    // E+'s values, in slot order: every value read resolves here.
    SlabVector<Value> values(plan.num_slots());
    pram::ThreadPool::global().parallel_blocks(
        0, plan.num_slots(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) values.init(s, slot_value(s));
        },
        /*grain=*/std::size_t{1} << 14);
    shortcut_ = EdgeBucket<S>(
        std::shared_ptr<const PairBlock>(plan_, &plan.slots),
        std::move(values));
    bucket_offset_ = plan.bucket_offset;
  }

  /// Assembles a query engine over an mmapped v5 engine image: base and
  /// E+ are external views into the image's segments, scanned through
  /// page pins instead of owned vectors. The segments hold the heap
  /// engine's arrays verbatim, so this engine replays the exact same
  /// edge order and produces bit-identical distances. The resulting
  /// engine is read-only: refresh_* is fatal. `g`, `aug`, and the mapped
  /// image behind `buckets` must outlive it.
  static LeveledQuery from_store(const Digraph& g, const Augmentation<S>& aug,
                                 const StoredBuckets<S>& buckets,
                                 bool detect_negative_cycles = true) {
    const std::uint32_t h = aug.height;
    SEPSP_CHECK_MSG(
        buckets.bucket_offset.size() == EplusPlan::num_buckets(h) + 1 &&
            buckets.bucket_offset.back() == buckets.eplus.count,
        "from_store: bucket table disagrees with the augmentation height "
        "or the E+ count");
    SEPSP_CHECK_MSG(buckets.base.count == g.num_edges(),
                    "from_store: base bucket count != num_edges");
    LeveledQuery out;
    out.g_ = &g;
    out.aug_ = &aug;
    out.detect_cycles_ = detect_negative_cycles;
    out.base_ = EdgeBucket<S>::from_external(buckets.base);
    out.shortcut_ = EdgeBucket<S>::from_external(buckets.eplus);
    out.bucket_offset_ = buckets.bucket_offset;
    // plan_ stays null: stored engines cannot be reweighted.
    out.level_scans_.reset(new std::atomic<std::uint64_t>[h + 1]());
    return out;
  }

  /// Value patching for incremental reweighting: the pair structure of
  /// the buckets is fixed by the tree; these refresh a single entry's
  /// value in place. `arc_index` indexes g.arcs(); `slot` indexes the
  /// plan's slots. Only the live (origin) engine may be refreshed —
  /// never a fork, never a stored (from_store) engine. Returns the
  /// number of value slabs the write had to detach from outstanding
  /// forks (the unit of `IncrementalEngine::ApplyStats::slabs_copied`).
  std::size_t refresh_base(std::size_t arc_index, Value value) {
    SEPSP_CHECK_MSG(plan_ != nullptr,
                    "refresh_base on a stored (read-only) query engine");
    return base_.set_value(arc_index, value) ? 1 : 0;
  }
  std::size_t refresh_shortcut(std::size_t slot, Value value) {
    SEPSP_CHECK_MSG(plan_ != nullptr,
                    "refresh_shortcut on a stored (read-only) query engine");
    return shortcut_.set_value(slot, value) ? 1 : 0;
  }

  /// Structurally-shared snapshot of this query engine: O(#slabs)
  /// pointer copies, no value copies. The fork answers queries (scalar
  /// and batched) bit-identically to this engine at fork time, from any
  /// thread, and stays frozen while this engine keeps being refreshed —
  /// each refresh detaches only the slab it touches. The fork must
  /// never be refreshed. `detect_negative_cycles` overrides the
  /// verification-pass flag for the fork (pure schedule toggle; shares
  /// no state).
  LeveledQuery fork_shared(bool detect_negative_cycles) {
    LeveledQuery out;
    out.g_ = g_;
    out.aug_ = aug_;
    out.detect_cycles_ = detect_negative_cycles;
    out.base_ = base_.fork();
    out.shortcut_ = shortcut_.fork();
    out.bucket_offset_ = bucket_offset_;
    out.plan_ = plan_;
    out.level_scans_.reset(new std::atomic<std::uint64_t>[aug_->height + 1]());
    return out;
  }

  /// Number of bucketed (leveled) edges: |E+|, every plan slot.
  std::size_t bucket_edges() const { return shortcut_.size(); }

  // Read-only access to the frozen schedule (stats, the store writer).
  const Digraph& graph() const { return *g_; }
  /// Immutable structure with no values: read E+ through shortcut_edges().
  const Augmentation<S>& augmentation() const { return *aug_; }
  std::uint32_t height() const { return aug_->height; }
  std::size_t ell() const { return aug_->ell; }
  bool detects_negative_cycles() const { return detect_cycles_; }
  const EdgeBucket<S>& base_edges() const { return base_; }
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
  std::size_t slabs_shared_with(const LeveledQuery& other) const {
    return base_.slabs_shared_with(other.base_) +
           shortcut_.slabs_shared_with(other.shortcut_);
  }
  /// Total value slabs across both arrays (denominator for sharing
  /// ratios).
  std::size_t total_slabs() const {
    return base_.slab_count() + shortcut_.slab_count();
  }

  /// Cumulative edges scanned in level-l buckets across every scheduled
  /// run of this query object (scalar and batched).
  std::uint64_t level_edges_scanned(std::uint32_t level) const {
    return level_scans_[level].load(std::memory_order_relaxed);
  }

  /// The scheduled single-source computation: O(ell|E| + bucket_edges())
  /// scans. Exact distances absent negative cycles; negative cycles
  /// reachable from `source` are detected and flagged.
  QueryResult<S> run(Vertex source) const {
    QueryResult<S> r;
    r.dist.resize(g_->num_vertices());
    apply(run_into(source, r.dist), r);
    return r;
  }

  /// Allocation-free run(): writes distances into the caller's buffer
  /// (which must hold exactly num_vertices() values; prior contents are
  /// ignored) and returns the counters. The hot path touches only the
  /// caller's buffer — no heap traffic per query.
  QueryStats run_into(Vertex source, std::span<Value> dist) const {
    SEPSP_CHECK(source < g_->num_vertices());
    SEPSP_CHECK(dist.size() == g_->num_vertices());
    std::fill(dist.begin(), dist.end(), S::zero());
    dist[source] = S::one();
    QueryStats s;
    walk<1>(dist.data(), {&s, 1});
    return s;
  }

  /// The source-batched schedule: one walk for up to B sources over a
  /// lane-major distance matrix, so each edge load relaxes all B lanes.
  /// `sources.size()` may be short of B (ragged last block; the unused
  /// lanes stay unseeded and are not reported). Returns one QueryResult
  /// per source, in order, each equal to run() of that source —
  /// distances bit for bit, counters and negative-cycle flag too.
  template <std::size_t B>
  std::vector<QueryResult<S>> run_block(
      std::span<const Vertex> sources) const {
    static_assert(B >= 1 && B <= 64, "lane count out of range");
    SEPSP_CHECK(!sources.empty() && sources.size() <= B);
    SEPSP_TRACE_SPAN("query.batch_block");
    const std::size_t n = g_->num_vertices();
    AlignedVector<Value> dist(padded_size<Value>(n * B), S::zero());
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      SEPSP_CHECK(sources[lane] < n);
      dist[static_cast<std::size_t>(sources[lane]) * B + lane] = S::one();
    }
    std::array<QueryStats, B> acct{};
    walk<B>(dist.data(), {acct.data(), sources.size()});
    std::vector<QueryResult<S>> out(sources.size());
    for (std::size_t lane = 0; lane < sources.size(); ++lane) {
      QueryResult<S>& r = out[lane];
      r.dist.resize(n);
      for (std::size_t v = 0; v < n; ++v) r.dist[v] = dist[v * B + lane];
      apply(acct[lane], r);
    }
    return out;
  }

  /// Ablation baseline: diameter-bounded Bellman–Ford over E u E+,
  /// scanning every edge each phase (the "straightforward" algorithm the
  /// paper improves on in Section 3.2).
  QueryResult<S> run_unscheduled(Vertex source) const {
    SEPSP_CHECK(source < g_->num_vertices());
    QueryResult<S> r;
    r.dist.assign(g_->num_vertices(), S::zero());
    r.dist[source] = S::one();
    QueryStats s;
    const std::span<QueryStats> acct(&s, 1);
    passes<1>(base_, &shortcut_, aug_->diameter_bound(), r.dist.data(), acct);
    detect_negative_cycles<1>(r.dist.data(), acct);
    charge(acct);
    apply(s, r);
    return r;
  }

  /// Multi-source variant: every vertex of `sources` starts at one().
  /// Equivalent to a virtual super-source with zero-weight arcs to all
  /// of them (the reduction difference-constraint solving uses); the
  /// schedule's correctness argument is per-path and source-agnostic.
  QueryResult<S> run_multi(std::span<const Vertex> sources) const {
    QueryResult<S> r;
    r.dist.assign(g_->num_vertices(), S::zero());
    for (const Vertex s : sources) {
      SEPSP_CHECK(s < g_->num_vertices());
      r.dist[s] = S::one();
    }
    QueryStats s;
    walk<1>(r.dist.data(), {&s, 1});
    apply(s, r);
    return r;
  }

  /// Generalized multi-source with per-seed initial values: equivalent to
  /// a virtual source with an arc of the given value to each seed (used
  /// by the q-face pipeline to enter G' from in-hammock offsets).
  QueryResult<S> run_weighted(
      std::span<const std::pair<Vertex, Value>> seeds) const {
    QueryResult<S> r;
    r.dist.assign(g_->num_vertices(), S::zero());
    for (const auto& [v, value] : seeds) {
      SEPSP_CHECK(v < g_->num_vertices());
      r.dist[v] = S::combine(r.dist[v], value);
    }
    QueryStats s;
    walk<1>(r.dist.data(), {&s, 1});
    apply(s, r);
    return r;
  }

 private:
  LeveledQuery() = default;  // fork_shared() builds into this

  /// The leveled schedule, once for every entry point. `dist` is
  /// lane-major (dist[v * B + lane]) with one seeded lane per `acct`
  /// entry; lanes past acct.size() stay at zero() and never move.
  template <std::size_t B>
  void walk(Value* dist, std::span<QueryStats> acct) const {
    {
      SEPSP_TRACE_SPAN("query.e_passes");
      passes<B>(base_, nullptr, aug_->ell, dist, acct);
    }
    {
      SEPSP_TRACE_SPAN("query.down_sweep");
      for (std::uint32_t l = aug_->height + 1; l-- > 0;) {
        const EdgeRange same = bucket(EplusPlan::kSame, l);
        const EdgeRange down = bucket(EplusPlan::kDown, l);
        sweep<B>(same, dist, acct);
        sweep<B>(down, dist, acct);
        note_level_scan(l, (same.size() + down.size()) * acct.size());
      }
    }
    {
      SEPSP_TRACE_SPAN("query.up_sweep");
      for (std::uint32_t l = 0; l <= aug_->height; ++l) {
        const EdgeRange same = bucket(EplusPlan::kSame, l);
        const EdgeRange up = bucket(EplusPlan::kUp, l);
        sweep<B>(same, dist, acct);
        sweep<B>(up, dist, acct);
        note_level_scan(l, (same.size() + up.size()) * acct.size());
      }
    }
    {
      SEPSP_TRACE_SPAN("query.e_passes");
      passes<B>(base_, nullptr, aug_->ell, dist, acct);
    }
    {
      SEPSP_TRACE_SPAN("query.detect_cycles");
      detect_negative_cycles<B>(dist, acct);
    }
    charge(acct);
  }

  /// Up to `rounds` passes over `first` (then `second`, when given) with
  /// per-lane early exit: a lane stops accruing counters after its first
  /// pass that changed nothing (that pass still counts) and rides along
  /// as a no-op, its distances already at these buckets' fixpoint.
  template <std::size_t B>
  void passes(const EdgeBucket<S>& first, const EdgeBucket<S>* second,
              std::size_t rounds, Value* dist,
              std::span<QueryStats> acct) const {
    std::array<std::uint8_t, B> active{};
    std::fill_n(active.begin(), acct.size(), std::uint8_t{1});
    std::size_t live = acct.size();
    const std::size_t edges = first.size() + (second ? second->size() : 0);
    const std::uint32_t phases = second ? 2 : 1;
    for (std::size_t round = 0; round < rounds && live != 0; ++round) {
      std::array<std::uint8_t, B> changed{};
      relax<B, true>(first, {0, first.size()}, dist, changed.data());
      if (second) {
        relax<B, true>(*second, {0, second->size()}, dist, changed.data());
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
  template <std::size_t B>
  void sweep(EdgeRange range, Value* dist, std::span<QueryStats> acct) const {
    relax<B, false>(shortcut_, range, dist, nullptr);
    for (QueryStats& s : acct) {
      s.edges_scanned += range.size();
      ++s.phases;
    }
  }

  /// One relaxation pass over edges [range.lo, range.hi) in every lane;
  /// with kTrack, ORs
  /// each lane's "improved" flag into changed[0..B). Values stream run
  /// by run (a value slab, or a pinned chunk of a mapped image segment),
  /// each a flat array alongside the shared pair arrays.
  ///
  /// B == 1 is the scalar loop: an unreached source is skipped and a
  /// distance is stored only when it improves. B > 1 hands each run to
  /// the dispatched vector kernel when the SIMD substrate has a vector
  /// tier active (semiring/simd.hpp, bit-identical to the lane loop
  /// here); on the scalar tier it keeps the compile-time-B lane loop,
  /// the autovectorizable baseline the tiers are measured against.
  /// combine() is a branch-free select and relax_extend() the
  /// semiring's unguarded extend (exact for zero() "no path" slot values
  /// too; an unseeded lane stays at zero(), from which nothing
  /// improves).
  template <std::size_t B, bool kTrack>
  void relax(const EdgeBucket<S>& edges, EdgeRange range, Value* dist,
             std::uint8_t* changed) const {
    const Vertex* from = edges.from_data();
    const Vertex* to = edges.to_data();
    edges.for_each_values_run(
        range.lo, range.hi,
        [&](std::size_t lo, std::size_t len, const Value* value) {
          if constexpr (B == 1) {
            bool any = false;
            for (std::size_t i = 0; i < len; ++i) {
              const Value du = dist[from[lo + i]];
              if (!S::improves(S::zero(), du)) continue;  // unreached
              const Value cand = S::extend(du, value[i]);
              if (S::improves(dist[to[lo + i]], cand)) {
                dist[to[lo + i]] = cand;
                any = true;
              }
            }
            if constexpr (kTrack) changed[0] |= static_cast<std::uint8_t>(any);
          } else {
            if (simd::vector_dispatch_active<S>()) {
              if constexpr (kTrack) {
                simd::bucket_sweep_tracked<S>(dist, from + lo, to + lo, value,
                                              len, B, changed);
              } else {
                simd::bucket_sweep<S>(dist, from + lo, to + lo, value, len, B);
              }
              return;
            }
            for (std::size_t i = 0; i < len; ++i) {
              const Value* du =
                  dist + static_cast<std::size_t>(from[lo + i]) * B;
              Value* dw = dist + static_cast<std::size_t>(to[lo + i]) * B;
              const Value w = value[i];
              // Staging the source row in a local buffer severs the
              // (only apparent) aliasing between the rows, so the lane
              // loop SLP-vectorizes; a self-loop's exact row overlap is
              // lane-independent either way.
              Value src[B];
              for (std::size_t lane = 0; lane < B; ++lane) src[lane] = du[lane];
              for (std::size_t lane = 0; lane < B; ++lane) {
                const Value next =
                    S::combine(dw[lane], relax_extend<S>(src[lane], w));
                if constexpr (kTrack) {
                  changed[lane] |= static_cast<std::uint8_t>(next != dw[lane]);
                }
                dw[lane] = next;
              }
            }
          }
        });
    if constexpr (B > 1) note_simd_cells(range.size() * B);
  }

  /// Final verification pass over E u E+, per lane: the schedule reaches
  /// a fixpoint when no negative cycle is reachable, so any significant
  /// further improvement certifies one (S::detect_improves tolerates
  /// floating-point drift between equivalent summation orders).
  template <std::size_t B>
  void detect_negative_cycles(const Value* dist,
                              std::span<QueryStats> acct) const {
    if (!detect_cycles_) return;
    if constexpr (S::kDetectNegativeCycles) {
      std::array<bool, B> found{};
      find_improvable<B>(base_, dist, acct.size(), found);
      find_improvable<B>(shortcut_, dist, acct.size(), found);
      for (std::size_t lane = 0; lane < acct.size(); ++lane) {
        acct[lane].negative_cycle = found[lane];
        acct[lane].edges_scanned += base_.size() + shortcut_.size();
        ++acct[lane].phases;
      }
    }
  }

  /// Sets found[lane] for each of the first `lanes` lanes in which some
  /// edge of the bucket still improves its head significantly. Like
  /// relax(), B == 1 keeps the scalar loop, which stops at the first hit.
  template <std::size_t B>
  void find_improvable(const EdgeBucket<S>& edges, const Value* dist,
                       std::size_t lanes, std::array<bool, B>& found) const {
    const Vertex* from = edges.from_data();
    const Vertex* to = edges.to_data();
    edges.for_each_values_run(
        [&](std::size_t lo, std::size_t len, const Value* value) {
          if constexpr (B == 1) {
            if (found[0]) return;
            for (std::size_t i = 0; i < len; ++i) {
              const Value du = dist[from[lo + i]];
              if (!S::improves(S::zero(), du)) continue;
              if (S::detect_improves(dist[to[lo + i]],
                                     S::extend(du, value[i]))) {
                found[0] = true;
                return;
              }
            }
          } else {
            for (std::size_t i = 0; i < len; ++i) {
              const Value* du =
                  dist + static_cast<std::size_t>(from[lo + i]) * B;
              const Value* dw = dist + static_cast<std::size_t>(to[lo + i]) * B;
              for (std::size_t lane = 0; lane < lanes; ++lane) {
                if (!S::improves(S::zero(), du[lane])) continue;
                if (S::detect_improves(dw[lane],
                                       S::extend(du[lane], value[i]))) {
                  found[lane] = true;
                }
              }
            }
          }
        });
  }

  /// PRAM accounting of one walk: work per lane (every lane's updates
  /// really happen), depth once (the lanes share the physical phases).
  void charge(std::span<const QueryStats> acct) const {
    std::uint32_t depth = 0;
    for (const QueryStats& s : acct) {
      pram::CostMeter::charge_work(s.edges_scanned);
      depth = std::max(depth, s.phases);
    }
    pram::CostMeter::charge_depth(depth);
  }

  static void apply(const QueryStats& s, QueryResult<S>& r) {
    r.negative_cycle = s.negative_cycle;
    r.edges_scanned = s.edges_scanned;
    r.phases = s.phases;
  }

  /// Credits `edges` scans to the level-l buckets.
  void note_level_scan(std::uint32_t level, std::uint64_t edges) const {
    level_scans_[level].fetch_add(edges, std::memory_order_relaxed);
  }

  /// Cells (edge x lane relaxations) routed through the dispatched
  /// vector kernels. No-op on the scalar tier.
  static void note_simd_cells(std::size_t cells) {
#if SEPSP_OBS_ENABLED
    if (simd::vector_dispatch_active<S>()) {
      static obs::Counter& counter = obs::counter("simd.cells");
      counter.add(cells);
    }
#else
    (void)cells;
#endif
  }

  const Digraph* g_ = nullptr;
  const Augmentation<S>* aug_ = nullptr;
  /// The slot plan whose slot array E+ aliases; null for a stored
  /// engine.
  std::shared_ptr<const EplusPlan> plan_;
  bool detect_cycles_ = true;
  EdgeBucket<S> base_;
  EdgeBucket<S> shortcut_;  ///< E+, slot (sweep) order
  /// Bucket k is shortcut_[bucket_offset_[k], bucket_offset_[k + 1]).
  std::vector<std::uint64_t> bucket_offset_;
  /// Cumulative per-level scan totals; indexed by bucket level.
  std::unique_ptr<std::atomic<std::uint64_t>[]> level_scans_;
};

/// Measured minimum-weight diameter of the augmented graph from one
/// source: runs full-edge-set phases to convergence; the last phase that
/// updated v is the minimum size of an optimal path to v. Returns the
/// max over reached vertices (Theorem 3.1 / Figure 2 verification).
/// Reads `aug.values`, so `aug` must come from a free-function builder:
/// an engine's augmentation has none.
template <Semiring S>
std::size_t measure_shortcut_radius(const Digraph& g,
                                    const Augmentation<S>& aug,
                                    Vertex source) {
  using Value = typename S::Value;
  SEPSP_CHECK_MSG(
      aug.plan != nullptr && aug.values.size() == aug.plan->num_slots(),
      "measure_shortcut_radius: the augmentation has no slot values");
  const PairBlock& slots = aug.plan->slots;

  // Synchronous (Jacobi) relaxation: after phase k, dist[v] is exactly
  // the best value over walks of at most k edges, so the last phase that
  // updated v equals the minimum size of an optimal path to v.
  std::vector<Value> dist(g.num_vertices(), S::zero());
  std::vector<std::size_t> last_update(g.num_vertices(), 0);
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
  std::vector<Value> next(g.num_vertices());
  for (std::size_t phase = 1;; ++phase) {
    next.assign(dist.begin(), dist.end());
    const auto relax = [&](Vertex u, Vertex v, Value w) {
      if (!S::improves(S::zero(), dist[u])) return;
      const Value cand = S::extend(dist[u], w);
      if (S::improves(next[v], cand)) next[v] = cand;
    };
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      for (const Arc& a : g.out(u)) relax(u, a.to, S::from_weight(a.weight));
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      relax(slots.from[s], slots.to[s], aug.values[s]);
    }
    bool changed = false;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (significant(dist[v], next[v])) {
        last_update[v] = phase;
        changed = true;
      }
    }
    dist.swap(next);
    if (!changed) break;
    SEPSP_CHECK_MSG(phase <= 4 * g.num_vertices() + 4,
                    "radius measurement diverged (negative cycle?)");
  }
  std::size_t radius = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    radius = std::max(radius, last_update[v]);
  }
  return radius;
}

}  // namespace sepsp
