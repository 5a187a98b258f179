// The types around the engine (core/engine.hpp): the outcome of one
// query (QueryStats, QueryResult), the struct-of-arrays edge array the
// leveled schedule streams (EdgeBucket, with the EdgeRange that names a
// bucket inside it and the mapped-image views StoredBuckets assembles).
//
// Edges are stored struct-of-arrays in run form: one (tail, start)
// entry per run of slots that leave one vertex, and to[]/value[] per
// slot (PairBlock, separator/eplus_plan.hpp). One relaxation pass
// streams flat arrays instead of chasing interleaved structs, and loads
// each tail's lanes once per run, at any lane width. The run and head
// arrays are immutable and shared; the values sit in slab-chunked
// copy-on-write storage (util/slab.hpp), so a fork of an edge array
// costs O(#slabs) pointer copies and a later write detaches just the
// slab it touches.
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

/// One edge array's segments inside a page-aligned engine image
/// (store/format.hpp), in run form (PairBlock): the run tails and run
/// starts, the per-slot heads and values, all mapped read-only, plus the
/// byte offsets the residency accounting pins through. `pages` may be
/// null (all-resident image; pins become no-ops). open() has validated
/// the runs (tails < n, starts from 0 to count, strictly increasing, no
/// run across a chunk boundary).
template <typename Value>
struct ExternalBucketStore {
  const Vertex* tail = nullptr;
  const std::uint32_t* start = nullptr;  ///< runs + 1 entries
  const Vertex* to = nullptr;
  const Value* value = nullptr;
  std::size_t count = 0;  ///< slots
  std::size_t runs = 0;
  std::uint64_t tail_offset = 0;
  std::uint64_t start_offset = 0;
  std::uint64_t to_offset = 0;
  std::uint64_t value_offset = 0;
  PageSource* pages = nullptr;
};

/// Slots [lo, hi) of one edge array, whole runs [run_lo, run_hi) of it;
/// a leveled bucket is such a range of E+, E_lead and E_trail such
/// ranges of the end arcs.
struct EdgeRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t run_lo = 0;
  std::size_t run_hi = 0;

  std::size_t size() const { return hi - lo; }
};

/// One edge array in struct-of-arrays run form. The (tail, start, to)
/// structure is an immutable PairBlock shared by every fork (and, for
/// E+, by every engine over the tree); the values sit in slab-chunked
/// copy-on-write storage so set_value() on one copy never disturbs
/// another. Every pass of the engine's walk and the dispatched vector
/// kernels (semiring/simd.hpp) read it in chunks of whole runs
/// (for_each_chunk): no run crosses a slab multiple, so every chunk's
/// values are flat.
///
/// An array is either *owned* (the above) or *external*: a read-only
/// view into an mmapped engine image whose residency a PageSource
/// controls. External arrays are immutable — set_value is fatal — and
/// every kernel reads them through for_each_chunk(), which pins each
/// chunk's pages for the duration of its scan. Edge order and runs are
/// identical in both modes, so results are bit-identical.
template <Semiring S>
class EdgeBucket {
 public:
  using Value = typename S::Value;

  EdgeBucket() = default;

  /// An owned array: `values[i]` belongs to slot i of `pairs`.
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
  std::size_t num_runs() const {
    if (ext_) return ext_->runs;
    return pairs_ ? pairs_->num_runs() : 0;
  }

  // --- frozen access ----------------------------------------------------
  /// Run r's tail; its slots are [start_data()[r], start_data()[r + 1]).
  const Vertex* tail_data() const {
    if (ext_) return ext_->tail;
    return pairs_ ? pairs_->tail.data() : nullptr;
  }
  /// num_runs() + 1 entries, from 0 to size().
  const std::uint32_t* start_data() const {
    if (ext_) return ext_->start;
    return pairs_ ? pairs_->start.data() : kNoRuns;
  }
  const Vertex* to_data() const {
    if (ext_) return ext_->to;
    return pairs_ ? pairs_->to.data() : nullptr;
  }
  /// The mapped segments behind an external array; null when owned.
  const ExternalBucketStore<Value>* external() const { return ext_.get(); }
  /// Owned value store (slab introspection, the image writer). External
  /// arrays have no slab store — read through for_each_chunk().
  const SlabVector<Value>& values() const { return values_; }
  Value value(std::size_t i) const {
    return ext_ ? ext_->value[i] : values_[i];
  }

  /// The range of whole runs covering slots [lo, hi); both must be run
  /// starts (or size()).
  EdgeRange range(std::size_t lo, std::size_t hi) const {
    const std::uint32_t* start = start_data();
    const std::uint32_t* end = start + num_runs() + 1;
    const auto run = [&](std::size_t slot) {
      const std::uint32_t* at = std::lower_bound(start, end, slot);
      SEPSP_CHECK_MSG(at != end && *at == slot,
                      "edge range bound is not a run start");
      return static_cast<std::size_t>(at - start);
    };
    return {lo, hi, run(lo), run(hi)};
  }
  EdgeRange all() const { return {0, size(), 0, num_runs()}; }

  /// Streams runs [r, r_end) as chunks f(r_lo, r_hi, value) of whole
  /// runs whose values are flat: value points at slot
  /// start_data()[r_lo]. The single value-access path of every
  /// relaxation kernel. Owned arrays yield one chunk per value slab
  /// touched; external ones one per kChunk slots, each scanned under a
  /// page pin covering the chunk's run, head and value bytes (residency
  /// accounting + eviction protection). No run crosses either boundary.
  template <typename F>
  void for_each_chunk(std::size_t r, std::size_t r_end, F&& f) const {
    const std::uint32_t* start = start_data();
    const std::size_t unit = ext_ ? kChunk : SlabVector<Value>::kSlabEntries;
    while (r < r_end) {
      const std::size_t lo = start[r];
      const std::size_t cap = (lo / unit + 1) * unit;
      const std::size_t next =
          start[r_end] <= cap
              ? r_end
              : static_cast<std::size_t>(
                    std::lower_bound(start + r + 1, start + r_end, cap) -
                    start);
      if (!ext_) {
        f(r, next, values_.slab_data(lo / unit) + lo % unit);
      } else {
        const PinLease lease = pin_runs(r, next);
        f(r, next, ext_->value + lo);
      }
      r = next;
    }
  }
  template <typename F>
  void for_each_chunk(EdgeRange range, F&& f) const {
    for_each_chunk(range.run_lo, range.run_hi, std::forward<F>(f));
  }

  /// In-place value patch (incremental reweighting). Returns true when
  /// the write detached a slab shared with a fork (copy-on-write).
  /// External arrays are read-only.
  bool set_value(std::size_t i, Value v) {
    SEPSP_CHECK_MSG(!ext_, "EdgeBucket: cannot patch an external (stored) "
                           "bucket — the image is read-only");
    return values_.set(i, v);
  }

  /// Structurally-shared copy: aliases the pair block and every value
  /// slab; the origin's next set_value() on a shared slab clones it.
  /// External arrays fork by aliasing the mapped view.
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
  /// An external array's scan unit: 8 slabs' worth per chunk, large
  /// enough that pin bookkeeping vanishes against the scan, small enough
  /// that a sweep's pinned working set stays a handful of pages per
  /// array. A multiple of the slab, so runs never cross it either.
  static constexpr std::size_t kChunk = 8 * SlabVector<Value>::kSlabEntries;
  static_assert(SlabVector<Value>::kSlabEntries == PairBlock::kRunSlots,
                "runs are cut at the value slab");

  /// The start array of an array with no pair block: no runs.
  static constexpr std::uint32_t kNoRuns[1] = {0};

  /// Pins runs [r, r_end)'s tails and starts, and their slots' heads and
  /// values.
  PinLease pin_runs(std::size_t r, std::size_t r_end) const {
    PinLease lease;
    const std::size_t lo = ext_->start[r];
    const std::size_t hi = ext_->start[r_end];
    if (ext_->pages != nullptr && r < r_end) {
      lease.add(ext_->pages, ext_->tail_offset + r * sizeof(Vertex),
                (r_end - r) * sizeof(Vertex));
      lease.add(ext_->pages, ext_->start_offset + r * sizeof(std::uint32_t),
                (r_end - r + 1) * sizeof(std::uint32_t));
      lease.add(ext_->pages, ext_->to_offset + lo * sizeof(Vertex),
                (hi - lo) * sizeof(Vertex));
      lease.add(ext_->pages, ext_->value_offset + lo * sizeof(Value),
                (hi - lo) * sizeof(Value));
    }
    return lease;
  }

  std::shared_ptr<const PairBlock> pairs_;
  SlabVector<Value> values_;
  std::shared_ptr<const ExternalBucketStore<Value>> ext_;
};

/// Assembled view of one v8 engine image's edge segments, produced by
/// the store subsystem (store/stored_engine.hpp), which builds an engine
/// over them. All pointers reference the mapped image and must outlive
/// the engine. `eplus` is E+ in sweep order and
/// `bucket_offset` its bucket table (EplusPlan::bucket_offset); `ends`
/// is the engine's end-arc array and `ends_split` its (a, b) split
/// (SeparatorShortestPaths::end_edges()). Every bucket offset and both
/// split points are run starts; `bucket_run` (EplusPlan::bucket_run)
/// numbers the run each bucket offset starts.
template <Semiring S>
struct StoredBuckets {
  using Value = typename S::Value;
  ExternalBucketStore<Value> base;
  ExternalBucketStore<Value> ends;
  ExternalBucketStore<Value> eplus;
  std::vector<std::uint64_t> bucket_offset;
  std::vector<std::uint32_t> bucket_run;
  std::array<std::uint64_t, 2> ends_split{};
};

}  // namespace sepsp
