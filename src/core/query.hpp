// The types around the engine (core/engine.hpp): the outcome of one
// query (QueryStats, QueryResult), the struct-of-arrays edge array the
// leveled schedule streams (EdgeBucket, with the EdgeRange that names a
// bucket inside it and the mapped-image views StoredBuckets assembles).
//
// Edges are stored struct-of-arrays (from[]/to[]/value[]): one
// relaxation pass streams three flat arrays instead of chasing
// interleaved structs, at any lane width. The (from, to) arrays are
// immutable and shared; the values sit in slab-chunked copy-on-write
// storage (util/slab.hpp), so a fork of an edge array costs O(#slabs)
// pointer copies and a later write detaches just the slab it touches.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "semiring/semiring.hpp"
#include "separator/eplus_plan.hpp"
#include "util/page_source.hpp"
#include "util/slab.hpp"

namespace sepsp {

/// The non-distance outcome of one query run: counters plus the
/// negative-cycle verdict. Returned by the allocation-free entry point
/// (SeparatorShortestPaths::distances_into) and the base of every
/// QueryResult.
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
/// S::improves(S::zero(), dist[v]) is true; use reached() instead of
/// comparing against the sentinel by hand. The run's QueryStats are the
/// base: the walk writes them in place.
template <Semiring S>
struct QueryResult : QueryStats {
  std::vector<typename S::Value> dist;  ///< dist[v]; zero() = unreachable

  /// True when a path from the source(s) reaches v.
  bool reached(Vertex v) const { return S::improves(S::zero(), dist[v]); }
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
/// another. Shared by the scalar and lane loops of the engine's walk and
/// the dispatched vector kernels (semiring/simd.hpp), which tolerate
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

  /// Streams edges [lo, hi) as chunks f(lo, hi) whose tails
  /// (from_data()) may be read: an owned array yields one chunk, an
  /// external one the chunks of for_each_values_run, each under a pin of
  /// its `from` bytes alone. The climb reads tails here and pins a
  /// run's heads and values only when it relaxes the run.
  template <typename F>
  void for_each_tails_chunk(std::size_t lo, std::size_t hi, F&& f) const {
    if (!ext_) {
      if (lo < hi) f(lo, hi);
      return;
    }
    for (; lo < hi; lo += kChunk) {
      const std::size_t len = std::min(kChunk, hi - lo);
      PinLease lease;
      lease.add(ext_->pages, ext_->from_offset + lo * sizeof(Vertex),
                len * sizeof(Vertex));
      f(lo, lo + len);
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
  /// An external bucket's scan unit: 8 slabs' worth per chunk, large
  /// enough that pin bookkeeping vanishes against the scan, small enough
  /// that a sweep's pinned working set stays a handful of pages per
  /// array.
  static constexpr std::size_t kChunk = 8 * SlabVector<Value>::kSlabEntries;

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

/// Assembled view of one v7 engine image's edge segments, produced by
/// the store subsystem (store/stored_engine.hpp), which builds an engine
/// over them. All pointers reference the mapped image and must outlive
/// the engine. `eplus` is E+ in sweep order and
/// `bucket_offset` its bucket table (EplusPlan::bucket_offset); `ends`
/// is the engine's end-arc array and `ends_split` its (a, b) split
/// (SeparatorShortestPaths::end_edges()).
template <Semiring S>
struct StoredBuckets {
  using Value = typename S::Value;
  ExternalBucketStore<Value> base;
  ExternalBucketStore<Value> ends;
  ExternalBucketStore<Value> eplus;
  std::vector<std::uint64_t> bucket_offset;
  std::array<std::uint64_t, 2> ends_split{};
};

/// Edges [lo, hi) of one edge array; a leveled bucket is such a range
/// of E+.
struct EdgeRange {
  std::size_t lo = 0;
  std::size_t hi = 0;

  std::size_t size() const { return hi - lo; }
};

}  // namespace sepsp
