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
// Buckets are stored struct-of-arrays (from[]/to[]/value[]), sorted by
// (from, to): one relaxation pass streams three flat arrays instead of
// chasing interleaved structs, at any lane width.
//
// Structural sharing: the pair structure of every bucket is frozen at
// construction behind shared immutable blocks, and the value arrays
// live in slab-chunked copy-on-write storage (util/slab.hpp).
// fork_shared() therefore produces an independent query engine in
// O(#slabs) pointer copies — the representation behind
// IncrementalEngine::snapshot()'s proportional epoch swaps: a fork
// aliases every value slab until the live engine's next refresh_*
// detaches just the touched ones. A fork answers queries from any
// thread while the origin keeps being patched; it must never be
// refreshed itself. All value reads on the query path — including the
// shortcut values of the negative-cycle verification pass — go through
// the engine's own slab store, never through the (possibly live,
// possibly mutating) Augmentation the engine was built from.
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

/// One relaxation bucket in struct-of-arrays layout. The (from, to)
/// pair arrays are frozen at construction into an immutable block
/// shared by every fork; the values sit in slab-chunked copy-on-write
/// storage so set_value() on one copy never disturbs another. Shared by
/// the scalar and lane loops of LeveledQuery and the dispatched vector
/// kernels (semiring/simd.hpp) — all arrays are 64-byte aligned and slab
/// boundaries preserve that alignment, so bucket sweeps stream
/// cache-line-aligned SoA runs.
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

  /// Wraps mapped segments; no bytes are copied or owned.
  static EdgeBucket from_external(const ExternalBucketStore<Value>& store) {
    EdgeBucket out;
    out.ext_ = std::make_shared<const ExternalBucketStore<Value>>(store);
    return out;
  }

  std::size_t size() const {
    if (ext_) return ext_->count;
    return pairs_ ? pairs_->from.size() : 0;
  }
  bool empty() const { return size() == 0; }

  // --- staging (construction only; invalid after freeze()) -------------
  /// Sizes the staged arrays to n entries, to be filled by stage().
  void resize_staged(std::size_t n) {
    staged_from_.resize(n);
    staged_to_.resize(n);
    staged_value_.resize(n);
  }
  void stage(std::size_t i, Vertex f, Vertex t, Value v) {
    staged_from_[i] = f;
    staged_to_[i] = t;
    staged_value_[i] = v;
  }
  /// Freezes the staged entries: the pair arrays become one immutable
  /// shared block, the values move into slab storage. Call exactly once;
  /// the bucket is read-only (plus set_value/fork) afterwards.
  void freeze() {
    auto p = std::make_shared<Pairs>();
    p->from = std::move(staged_from_);
    p->to = std::move(staged_to_);
    pairs_ = std::move(p);
    values_.assign(std::span<const Value>(staged_value_));
    staged_value_.clear();
    staged_value_.shrink_to_fit();
  }

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

  /// Streams the values as contiguous runs f(lo, len, value_ptr) — the
  /// single value-access path of every relaxation kernel. Owned buckets
  /// yield one run per value slab; external buckets yield fixed-size
  /// chunks, each scanned under a page pin covering the chunk's
  /// from/to/value bytes (residency accounting + eviction protection).
  /// Run boundaries differ between the modes but edge order does not.
  template <typename F>
  void for_each_values_run(F&& f) const {
    if (!ext_) {
      values_.for_each_run(std::forward<F>(f));
      return;
    }
    // 8 slabs' worth per chunk: large enough that pin bookkeeping
    // vanishes against the scan, small enough that a sweep's pinned
    // working set stays a handful of pages per array.
    constexpr std::size_t kChunk = 8 * SlabVector<Value>::kSlabEntries;
    for (std::size_t lo = 0; lo < ext_->count; lo += kChunk) {
      const std::size_t len = std::min(kChunk, ext_->count - lo);
      const PinLease lease = pin_span(lo, len);
      f(lo, len, ext_->value + lo);
    }
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
  struct Pairs {
    AlignedVector<Vertex> from, to;
  };

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

  AlignedVector<Vertex> staged_from_, staged_to_;
  AlignedVector<Value> staged_value_;
  std::shared_ptr<const Pairs> pairs_;
  SlabVector<Value> values_;
  std::shared_ptr<const ExternalBucketStore<Value>> ext_;
};

/// Assembled view of one v4 engine image's bucket segments, produced by
/// the store subsystem (store/stored_engine.hpp) and consumed by
/// LeveledQuery::from_store(). All pointers reference the mapped image
/// and must outlive the query engine; `same`/`down`/`up` are indexed by
/// level, size height + 1.
template <Semiring S>
struct StoredBuckets {
  using Value = typename S::Value;
  ExternalBucketStore<Value> base;
  ExternalBucketStore<Value> shortcut;
  std::vector<ExternalBucketStore<Value>> same, down, up;
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
  LeveledQuery(const Digraph& g, const Augmentation<S>& aug,
               bool detect_negative_cycles = true)
      : g_(&g), aug_(&aug), detect_cycles_(detect_negative_cycles) {
    SEPSP_TRACE_SPAN("build.buckets");
    const auto by_pair = [](Vertex af, Vertex at, Vertex bf, Vertex bt) {
      return af != bf ? af < bf : at < bt;
    };
    SEPSP_CHECK_MSG(
        std::is_sorted(aug.shortcuts.begin(), aug.shortcuts.end(),
                       [&](const Shortcut<S>& a, const Shortcut<S>& b) {
                         return by_pair(a.from, a.to, b.from, b.to);
                       }),
        "LeveledQuery: augmentation shortcuts are not (from, to)-sorted");
    const std::uint32_t h = aug.height;
    same_.resize(h + 1);
    down_.resize(h + 1);
    up_.resize(h + 1);
    SlotTable st;
    st.base.assign(g.num_edges(), Slot{});
    st.shortcut.assign(aug.shortcuts.size(), Slot{});
    level_scans_.reset(new std::atomic<std::uint64_t>[h + 1]());

    // Base arcs participate twice: in the E passes (always) and, when
    // both endpoints have defined levels, as 1-edge "shortcuts" in the
    // leveled sweeps (a direct edge can serve as a right shortcut).
    // Base arcs come (from, to)-sorted out of the CSR and the shortcuts
    // come (from, to)-sorted, so a two-way merge of the two streams
    // hands every bucket its entries already in (from, to) order — base
    // arcs first on a tie — and records each entry's slot.
    const auto& lv = aug.levels.level;
    const std::size_t nb = 3 * (h + 1);
    // An entry's bucket, kind-major (same, down, up) over levels, or nb
    // when it participates only in the E passes.
    const auto bucket_of = [&](Vertex from, Vertex to) -> std::size_t {
      const std::uint32_t lu = lv[from];
      const std::uint32_t lw = lv[to];
      if (lu == LevelAssignment::kUndefined ||
          lw == LevelAssignment::kUndefined) {
        return nb;
      }
      return (lu == lw ? 0 : lu > lw ? 1 : 2) * (h + 1) + lu;
    };
    const auto bucket_at = [&](std::size_t b) -> EdgeBucket<S>& {
      const std::size_t l = b % (h + 1);
      return b <= h ? same_[l] : b <= 2 * h + 1 ? down_[l] : up_[l];
    };
    // The merge runs over chunks of source vertices in parallel. Each
    // chunk first counts its entries per bucket; prefix sums over the
    // chunks then fix where every chunk writes, so the buckets come out
    // the same whatever the schedule.
    constexpr std::size_t kChunkVertices = 256;
    const std::size_t n = g.num_vertices();
    const std::size_t chunks = (n + kChunkVertices - 1) / kChunkVertices;
    const std::span<const Shortcut<S>> sc = aug.shortcuts;
    std::vector<std::size_t> sc_begin(chunks + 1, sc.size());
    for (std::size_t c = 0; c < chunks; ++c) {
      sc_begin[c] = static_cast<std::size_t>(
          std::lower_bound(sc.begin(), sc.end(), c * kChunkVertices,
                           [](const Shortcut<S>& e, std::size_t v) {
                             return e.from < v;
                           }) -
          sc.begin());
    }
    const auto chunk_vertices = [&](std::size_t c) {
      return std::pair<Vertex, Vertex>(
          static_cast<Vertex>(c * kChunkVertices),
          static_cast<Vertex>(std::min(n, (c + 1) * kChunkVertices)));
    };
    // Per (chunk, bucket): the chunk's entry count, then its write cursor.
    std::vector<std::uint32_t> cursor(chunks * nb, 0);
    pram::ThreadPool& pool = pram::ThreadPool::global();
    pool.parallel_for(0, chunks, [&](std::size_t c) {
      std::uint32_t* count = cursor.data() + c * nb;
      const auto [lo, hi] = chunk_vertices(c);
      for (Vertex u = lo; u < hi; ++u) {
        for (const Arc& a : g.out(u)) {
          const std::size_t b = bucket_of(u, a.to);
          if (b < nb) ++count[b];
        }
      }
      for (std::size_t j = sc_begin[c]; j < sc_begin[c + 1]; ++j) {
        const std::size_t b = bucket_of(sc[j].from, sc[j].to);
        if (b < nb) ++count[b];
      }
    });
    for (std::size_t b = 0; b < nb; ++b) {
      std::uint32_t total = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        total += std::exchange(cursor[c * nb + b], total);
      }
      bucket_at(b).resize_staged(total);
      leveled_edges_ += total;
    }
    base_.resize_staged(g.num_edges());
    // The engine's own copy of the shortcut values, indexed like
    // aug.shortcuts: every later value read (unscheduled runs, cycle
    // verification) resolves here, so a fork never touches the possibly
    // still-mutating augmentation it was built from.
    shortcut_.resize_staged(sc.size());
    pool.parallel_for(0, chunks, [&](std::size_t c) {
      std::uint32_t* at = cursor.data() + c * nb;
      const auto stage = [&](Vertex from, Vertex to, Value value,
                             Slot* slot) {
        const std::size_t b = bucket_of(from, to);
        if (b == nb) return;
        const std::uint32_t pos = at[b]++;
        bucket_at(b).stage(pos, from, to, value);
        *slot = Slot{static_cast<std::uint8_t>(Slot::kSame + b / (h + 1)),
                     static_cast<std::uint32_t>(b % (h + 1)), pos};
      };
      std::size_t j = sc_begin[c];
      const auto take_shortcut = [&] {
        const Shortcut<S>& e = sc[j];
        shortcut_.stage(j, e.from, e.to, e.value);
        stage(e.from, e.to, e.value, &st.shortcut[j]);
        ++j;
      };
      const auto [lo, hi] = chunk_vertices(c);
      for (Vertex u = lo; u < hi; ++u) {
        const std::span<const Arc> out = g.out(u);
        auto arc = static_cast<std::size_t>(out.data() - g.arcs().data());
        for (const Arc& a : out) {
          while (j < sc_begin[c + 1] &&
                 by_pair(sc[j].from, sc[j].to, u, a.to)) {
            take_shortcut();
          }
          const Value value = S::from_weight(a.weight);
          base_.stage(arc, u, a.to, value);
          stage(u, a.to, value, &st.base[arc]);
          ++arc;
        }
      }
      while (j < sc_begin[c + 1]) take_shortcut();
    });
    std::vector<EdgeBucket<S>*> frozen{&base_, &shortcut_};
    for (std::size_t b = 0; b < nb; ++b) frozen.push_back(&bucket_at(b));
    pool.parallel_for(
        0, frozen.size(), [&](std::size_t i) { frozen[i]->freeze(); },
        /*grain=*/1);
    slots_ = std::make_shared<const SlotTable>(std::move(st));
  }

  /// Assembles a query engine over an mmapped v4 engine image: every
  /// bucket is an external view into the image's segments, scanned
  /// through page pins instead of owned vectors. The segments hold the
  /// heap engine's already-sorted bucket arrays verbatim (the writer
  /// streams them in order), so this engine replays the exact same edge
  /// order and produces bit-identical distances. The resulting engine
  /// is read-only: refresh_* is fatal. `g`, `aug`, and the mapped image
  /// behind `buckets` must outlive it.
  static LeveledQuery from_store(const Digraph& g, const Augmentation<S>& aug,
                                 const StoredBuckets<S>& buckets,
                                 bool detect_negative_cycles = true) {
    const std::uint32_t h = aug.height;
    SEPSP_CHECK_MSG(buckets.same.size() == h + 1 &&
                        buckets.down.size() == h + 1 &&
                        buckets.up.size() == h + 1,
                    "from_store: bucket levels disagree with the "
                    "augmentation height");
    SEPSP_CHECK_MSG(buckets.base.count == g.num_edges(),
                    "from_store: base bucket count != num_edges");
    LeveledQuery out;
    out.g_ = &g;
    out.aug_ = &aug;
    out.detect_cycles_ = detect_negative_cycles;
    out.base_ = EdgeBucket<S>::from_external(buckets.base);
    out.shortcut_ = EdgeBucket<S>::from_external(buckets.shortcut);
    out.same_.reserve(h + 1);
    out.down_.reserve(h + 1);
    out.up_.reserve(h + 1);
    for (std::uint32_t l = 0; l <= h; ++l) {
      out.same_.push_back(EdgeBucket<S>::from_external(buckets.same[l]));
      out.down_.push_back(EdgeBucket<S>::from_external(buckets.down[l]));
      out.up_.push_back(EdgeBucket<S>::from_external(buckets.up[l]));
      out.leveled_edges_ += buckets.same[l].count + buckets.down[l].count +
                            buckets.up[l].count;
    }
    // slots_ stays null: stored engines cannot be reweighted.
    out.level_scans_.reset(new std::atomic<std::uint64_t>[h + 1]());
    return out;
  }

  /// Value patching for incremental reweighting: the pair structure of
  /// the buckets is fixed at construction; these refresh a single
  /// entry's value in place. `arc_index` indexes g.arcs();
  /// `shortcut_index` indexes the augmentation's shortcut list. Only
  /// the live (origin) engine may be refreshed — never a fork, never a
  /// stored (from_store) engine. Returns the number of value slabs the
  /// write had to detach from outstanding forks (the
  /// unit of `IncrementalEngine::ApplyStats::slabs_copied`).
  std::size_t refresh_base(std::size_t arc_index, Value value) {
    SEPSP_CHECK_MSG(slots_ != nullptr,
                    "refresh_base on a stored (read-only) query engine");
    std::size_t cloned = base_.set_value(arc_index, value) ? 1 : 0;
    return cloned + patch(slots_->base[arc_index], value);
  }
  std::size_t refresh_shortcut(std::size_t shortcut_index, Value value) {
    SEPSP_CHECK_MSG(slots_ != nullptr,
                    "refresh_shortcut on a stored (read-only) query engine");
    std::size_t cloned = shortcut_.set_value(shortcut_index, value) ? 1 : 0;
    return cloned + patch(slots_->shortcut[shortcut_index], value);
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
    out.same_.reserve(same_.size());
    out.down_.reserve(down_.size());
    out.up_.reserve(up_.size());
    for (auto& b : same_) out.same_.push_back(b.fork());
    for (auto& b : down_) out.down_.push_back(b.fork());
    for (auto& b : up_) out.up_.push_back(b.fork());
    out.leveled_edges_ = leveled_edges_;
    out.slots_ = slots_;
    out.level_scans_.reset(new std::atomic<std::uint64_t>[aug_->height + 1]());
    return out;
  }
  LeveledQuery fork_shared() { return fork_shared(detect_cycles_); }

  /// Number of bucketed (leveled) edges, |E_leveled| + |E+| (cached at
  /// construction; the buckets' pair structure never changes).
  std::size_t bucket_edges() const { return leveled_edges_; }

  // Read-only access to the frozen schedule (stats, the store writer).
  // Buckets are indexed by level.
  const Digraph& graph() const { return *g_; }
  /// Structural fields only (height, ell, levels, shortcut endpoints).
  /// On a fork the underlying augmentation may belong to a live engine
  /// whose shortcut *values* mutate concurrently — read values through
  /// shortcut_edges() instead, as every internal path does.
  const Augmentation<S>& augmentation() const { return *aug_; }
  std::uint32_t height() const { return aug_->height; }
  std::size_t ell() const { return aug_->ell; }
  bool detects_negative_cycles() const { return detect_cycles_; }
  const EdgeBucket<S>& base_edges() const { return base_; }
  /// E+ in shortcut-index order with this engine's own (fork-stable)
  /// values.
  const EdgeBucket<S>& shortcut_edges() const { return shortcut_; }
  std::span<const EdgeBucket<S>> same_buckets() const { return same_; }
  std::span<const EdgeBucket<S>> down_buckets() const { return down_; }
  std::span<const EdgeBucket<S>> up_buckets() const { return up_; }

  /// Value slabs shared (pointer-identical) between this engine's
  /// buckets and `other`'s — the structural-sharing test hook.
  std::size_t slabs_shared_with(const LeveledQuery& other) const {
    std::size_t shared = base_.slabs_shared_with(other.base_) +
                         shortcut_.slabs_shared_with(other.shortcut_);
    for (std::size_t l = 0; l < same_.size(); ++l) {
      shared += same_[l].slabs_shared_with(other.same_[l]) +
                down_[l].slabs_shared_with(other.down_[l]) +
                up_[l].slabs_shared_with(other.up_[l]);
    }
    return shared;
  }
  /// Total value slabs across all buckets (denominator for sharing
  /// ratios).
  std::size_t total_slabs() const {
    std::size_t slabs = base_.slab_count() + shortcut_.slab_count();
    for (std::size_t l = 0; l < same_.size(); ++l) {
      slabs += same_[l].slab_count() + down_[l].slab_count() +
               up_[l].slab_count();
    }
    return slabs;
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
        sweep<B>(same_[l], dist, acct);
        sweep<B>(down_[l], dist, acct);
        note_level_scan(l, (same_[l].size() + down_[l].size()) * acct.size());
      }
    }
    {
      SEPSP_TRACE_SPAN("query.up_sweep");
      for (std::uint32_t l = 0; l <= aug_->height; ++l) {
        sweep<B>(same_[l], dist, acct);
        sweep<B>(up_[l], dist, acct);
        note_level_scan(l, (same_[l].size() + up_[l].size()) * acct.size());
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
      relax<B, true>(first, dist, changed.data());
      if (second) relax<B, true>(*second, dist, changed.data());
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
  void sweep(const EdgeBucket<S>& edges, Value* dist,
             std::span<QueryStats> acct) const {
    relax<B, false>(edges, dist, nullptr);
    for (QueryStats& s : acct) {
      s.edges_scanned += edges.size();
      ++s.phases;
    }
  }

  /// One relaxation pass over a bucket in every lane; with kTrack, ORs
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
  /// semiring's unguarded extend (bucket values are never zero(); an
  /// unseeded lane stays at zero(), from which nothing improves).
  template <std::size_t B, bool kTrack>
  void relax(const EdgeBucket<S>& edges, Value* dist,
             std::uint8_t* changed) const {
    const Vertex* from = edges.from_data();
    const Vertex* to = edges.to_data();
    edges.for_each_values_run(
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
    if constexpr (B > 1) note_simd_cells(edges.size() * B);
  }

  /// Final verification pass over E u E+, per lane: the schedule reaches
  /// a fixpoint when no negative cycle is reachable, so any significant
  /// further improvement certifies one (S::detect_improves tolerates
  /// floating-point drift between equivalent summation orders). Shortcut
  /// values come from the engine's own store, never the augmentation
  /// (fork safety).
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

  /// A stable handle to one leveled-bucket entry (kNone when the edge
  /// only participates in the E passes).
  struct Slot {
    static constexpr std::uint8_t kNone = 0, kSame = 1, kDown = 2, kUp = 3;
    std::uint8_t kind = kNone;
    std::uint32_t level = 0;
    std::uint32_t pos = 0;
  };
  /// Slot handles per base arc / per shortcut. Immutable after
  /// construction and shared by every fork (pair structure never
  /// changes, so neither do the slots).
  struct SlotTable {
    std::vector<Slot> base;      // per arc index
    std::vector<Slot> shortcut;  // per aug shortcut index
  };

  /// Returns slabs detached by the write (0 or 1).
  std::size_t patch(const Slot& slot, Value value) {
    switch (slot.kind) {
      case Slot::kSame:
        return same_[slot.level].set_value(slot.pos, value) ? 1 : 0;
      case Slot::kDown:
        return down_[slot.level].set_value(slot.pos, value) ? 1 : 0;
      case Slot::kUp:
        return up_[slot.level].set_value(slot.pos, value) ? 1 : 0;
      default:
        return 0;
    }
  }

  const Digraph* g_ = nullptr;
  const Augmentation<S>* aug_ = nullptr;
  bool detect_cycles_ = true;
  EdgeBucket<S> base_;
  EdgeBucket<S> shortcut_;  ///< E+ values, shortcut-index order
  std::vector<EdgeBucket<S>> same_, down_, up_;
  std::size_t leveled_edges_ = 0;
  std::shared_ptr<const SlotTable> slots_;
  /// Cumulative per-level scan totals; indexed by bucket level.
  std::unique_ptr<std::atomic<std::uint64_t>[]> level_scans_;
};

/// Measured minimum-weight diameter of the augmented graph from one
/// source: runs full-edge-set phases to convergence; the last phase that
/// updated v is the minimum size of an optimal path to v. Returns the
/// max over reached vertices (Theorem 3.1 / Figure 2 verification).
/// Reads `aug` values directly — pass an augmentation you own (or one
/// no live engine is concurrently reweighting).
template <Semiring S>
std::size_t measure_shortcut_radius(const Digraph& g,
                                    const Augmentation<S>& aug,
                                    Vertex source) {
  using Value = typename S::Value;
  std::vector<Shortcut<S>> edges;
  edges.reserve(g.num_edges() + aug.shortcuts.size());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Arc& a : g.out(u)) {
      edges.push_back({u, a.to, S::from_weight(a.weight)});
    }
  }
  edges.insert(edges.end(), aug.shortcuts.begin(), aug.shortcuts.end());

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
    for (const Shortcut<S>& e : edges) {
      if (!S::improves(S::zero(), dist[e.from])) continue;
      const Value cand = S::extend(dist[e.from], e.value);
      if (S::improves(next[e.to], cand)) next[e.to] = cand;
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
