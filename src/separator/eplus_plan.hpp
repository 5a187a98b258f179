// The E+ slot plan: where every cell of Algorithm 4.1's node matrices
// lands, and in which order the query's leveled schedule scans every
// slot.
//
// Node t of the separator tree holds two matrices: its closed H_S over
// S(t) x S(t) and its boundary matrix over B(t) x B(t), row-major over
// the sorted vertex lists. The plan lays both out whole, one after the
// other, in one arena of entries. Their off-diagonal cells are the
// complete S x S and B x B pair sets the node contributes to E+; the
// diagonal cells own no slot. E+ is the union of the pairs, one slot
// per distinct (from, to) pair with the best value of its owners. Which
// entries share a slot depends only on the tree, never on the weights
// or the semiring (the decomposition depends only on the skeleton,
// paper remark iv), so the plan is computed once per tree and read by
// every build over it: the exact engine, the (1 + eps) engine, both
// directions of the hub-label and routing builds, and the incremental
// engine's epochs.
//
// The vertex levels of Section 3.1 depend only on the tree too, and so
// does the bucket every slot falls into in the leveled schedule of
// Section 3.2 (same, down or up, by its endpoints' levels). Section 3.2
// adds no edges: it fixes the order in which E u E+ is scanned. The
// plan therefore numbers the slots in sweep order — for l = h..0 the
// level-l same bucket then the level-l down bucket, then the up
// buckets of levels 0..h — and (from, to) order inside each bucket,
// so the slots that leave one vertex are contiguous: the slot array is
// stored as runs (PairBlock), one (tail, start) entry per run. Every
// bucket is a range of whole runs of the one slot array, so every
// engine over the tree aliases that array and owns one value per slot.
//
// Beside it rides the gather plan: where each internal node's steps
// read its children's boundary matrices. It too depends only on the
// tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/slab.hpp"

namespace sepsp {

class SeparatorTree;

/// Where Algorithm 4.1's node step reads the children's boundary
/// matrices. For internal node t and child c in {0, 1}, key k = 2t + c:
///  - sep_index[sep_offset[k], sep_offset[k + 1]) holds, for each S(t)
///    vertex in order, its index in B(c) (S(t) lies in both children's
///    boundaries, so the list has |S(t)| entries);
///  - bnd_row[bnd_offset[k], bnd_offset[k + 1]) lists the positions p of
///    the B(t) vertices that B(c) contains, ascending, and bnd_index the
///    same vertices' indices in B(c).
/// A leaf's ranges are empty.
struct GatherPlan {
  std::vector<std::uint32_t> sep_offset;  ///< size 2 * num_nodes + 1
  std::vector<std::uint32_t> sep_index;
  std::vector<std::uint32_t> bnd_offset;  ///< size 2 * num_nodes + 1
  std::vector<std::uint32_t> bnd_row;
  std::vector<std::uint32_t> bnd_index;

  std::span<const std::uint32_t> s_in_child(std::size_t id, int c) const {
    return range(sep_index, sep_offset, id, c);
  }
  std::span<const std::uint32_t> b_rows(std::size_t id, int c) const {
    return range(bnd_row, bnd_offset, id, c);
  }
  std::span<const std::uint32_t> b_in_child(std::size_t id, int c) const {
    return range(bnd_index, bnd_offset, id, c);
  }

 private:
  static std::span<const std::uint32_t> range(
      const std::vector<std::uint32_t>& v,
      const std::vector<std::uint32_t>& offset, std::size_t id, int c) {
    const std::size_t k = 2 * id + static_cast<std::size_t>(c);
    return {v.data() + offset[k], v.data() + offset[k + 1]};
  }
};

/// The level labeling of Section 3.1:
///
///   level(v) = min { level(t) : v in S(t) }   (kUndefined if v is in no
///                                              separator)
///
/// It drives both the diameter proof (Theorem 3.1: shortcut paths have
/// bitonic level sequences) and the leveled Bellman–Ford schedule of
/// Section 3.2.
struct LevelAssignment {
  static constexpr std::uint32_t kUndefined = static_cast<std::uint32_t>(-1);

  std::vector<std::uint32_t> level;  ///< level(v) or kUndefined
  std::uint32_t height = 0;          ///< d_G, max tree level

  bool defined(Vertex v) const { return level[v] != kUndefined; }
};

/// The (tail, to) structure of an edge array (E+, the base arcs or the
/// end arcs) in run form, struct-of-arrays and 64-byte aligned. A run is
/// a stretch of slots that leave one vertex: run r's slots are
/// [start[r], start[r + 1]), all with tail tail[r], and slot i's head is
/// to[i]. append() cuts a run at a caller's boundary (a bucket, an
/// end-arc class), at a change of tail, at every multiple of
/// kRunSlots (so no run straddles a value slab or a stored chunk) and
/// right after a self-loop. Under these cuts no slot after a run's first
/// one writes its tail's row, so a sweep may load the tail's lanes once
/// per run (docs/ALGORITHMS.md §4). Immutable once built; engines share
/// it.
struct PairBlock {
  /// The slab size (SlabVector::kSlabEntries): runs never cross one of
  /// its multiples.
  static constexpr std::size_t kRunSlots = SlabVector<Vertex>::kSlabEntries;

  AlignedVector<Vertex> tail;                   ///< one per run
  AlignedVector<std::uint32_t> start = {0};     ///< one per run, then size()
  AlignedVector<Vertex> to;                     ///< one per slot

  std::size_t size() const { return to.size(); }
  std::size_t num_runs() const { return tail.size(); }

  /// Room for `slots` slots in at most `runs` runs plus the slab cuts.
  void reserve(std::size_t slots, std::size_t runs) {
    to.reserve(slots);
    tail.reserve(runs + slots / kRunSlots);
    start.reserve(runs + slots / kRunSlots + 1);
  }

  /// Appends slot (u, v); `cut` opens a new run whatever the tail.
  void append(Vertex u, Vertex v, bool cut) {
    const std::size_t s = to.size();
    if (cut || s % kRunSlots == 0 || tail.back() != u || to.back() == u) {
      // A run holds at most kRunSlots slots, so checking where each run
      // opens keeps every start a u32.
      SEPSP_CHECK_MSG(
          s <= std::numeric_limits<std::uint32_t>::max() - kRunSlots,
          "edge array exceeds 2^32 - 1 slots (u32 run starts)");
      tail.push_back(u);
      start.push_back(static_cast<std::uint32_t>(s));
    }
    to.push_back(v);
    start.back() = static_cast<std::uint32_t>(s + 1);
  }
};

/// Weight-independent layout of E+ over one separator tree.
struct EplusPlan {
  /// Bucket kinds of the leveled schedule: level(from) equal to,
  /// greater than or less than level(to). A slot's bucket level is
  /// level(from).
  enum Kind : std::uint32_t { kSame = 0, kDown = 1, kUp = 2 };

  /// Buckets over a tree of the given height: three per level.
  static std::size_t num_buckets(std::uint32_t height) {
    return 3 * (std::size_t{height} + 1);
  }
  /// The position of kind's level-l bucket in sweep order: the down
  /// sweep's same(h), down(h), ..., same(0), down(0), then up(0..h).
  static std::size_t bucket_rank(Kind kind, std::uint32_t level,
                                 std::uint32_t height) {
    const std::size_t from_top = std::size_t{height} - level;
    switch (kind) {
      case kSame:
        return 2 * from_top;
      case kDown:
        return 2 * from_top + 1;
      default:
        return 2 * (std::size_t{height} + 1) + level;
    }
  }

  /// entry_slot of a diagonal cell, which no pair owns.
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  /// Node id's entries occupy [node_offset[id], node_offset[id + 1]):
  /// its closed H_S (|S|^2 cells, row-major), then its boundary matrix
  /// (|B|^2 cells, row-major), diagonals included. Size num_nodes + 1.
  std::vector<std::size_t> node_offset;
  /// One slot per distinct pair, in sweep order: by bucket rank, then
  /// (from, to); in run form, with a run cut at every bucket boundary.
  PairBlock slots;
  /// Bucket k holds slots [bucket_offset[k], bucket_offset[k + 1]),
  /// k = bucket_rank(kind, level, levels.height). Both endpoints of
  /// every slot have a level (they lie in some S(t)), so every slot sits
  /// in exactly one bucket. Size num_buckets(levels.height) + 1.
  std::vector<std::uint64_t> bucket_offset;
  /// Bucket k's runs of `slots` are [bucket_run[k], bucket_run[k + 1]):
  /// every bucket boundary is a run boundary. Same size.
  std::vector<std::uint32_t> bucket_run;
  /// The slot of every entry; kNoSlot for a diagonal cell.
  std::vector<std::uint32_t> entry_slot;
  /// Owner CSR: slot s's entries are owner_entry[owner_offset[s] ..
  /// owner_offset[s + 1]), in ascending entry order. Every slot has at
  /// least one owner; no diagonal cell is one.
  std::vector<std::uint32_t> owner_offset;
  std::vector<std::uint32_t> owner_entry;
  /// The children's boundary positions every internal node gathers.
  GatherPlan gather;

  /// Vertex levels; levels.height is the tree's height.
  LevelAssignment levels;

  std::size_t num_entries() const { return entry_slot.size(); }
  std::size_t num_slots() const { return slots.size(); }
  std::size_t num_levels() const { return std::size_t{levels.height} + 1; }
};

/// Computes the plan of `tree`: the levels, O(sum |S(t)| + sum_leaf
/// |V(t)|); two stable counting-sort passes over the off-diagonal
/// entries (by `to`, then by `from`), O(entries + n), and one over the
/// distinct pairs by bucket rank, O(slots + height); and the gather
/// plan, one merge of sorted vertex lists per (node, child). Aborts
/// when a vertex lies in no leaf.
EplusPlan build_eplus_plan(const SeparatorTree& tree);

}  // namespace sepsp
