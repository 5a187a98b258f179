// The E+ slot plan: where every Algorithm 4.1 emission entry lands.
//
// Node t of the separator tree emits the complete S(t) x S(t) and
// B(t) x B(t) pair sets (diagonal skipped, i-major over the sorted
// vertex lists). E+ is their union, one slot per distinct (from, to)
// pair with the best value of its owners. Which entries share a slot
// depends only on the tree, never on the weights or the semiring (the
// decomposition depends only on the skeleton, paper remark iv), so the
// plan is computed once per tree and read by every build over it: the
// exact engine, the (1 + eps) engine, both directions of the hub-label
// and routing builds, and the incremental engine's epochs.
//
// Beside it rides the gather plan: where each internal node's steps
// read its children's boundary matrices. It too depends only on the
// tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

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

/// Weight-independent layout of E+ over one separator tree.
struct EplusPlan {
  struct Pair {
    Vertex from = 0;
    Vertex to = 0;
  };

  /// Node id's entries occupy [node_offset[id], node_offset[id + 1]):
  /// its S x S pairs, then its B x B pairs, each i-major without the
  /// diagonal. Size num_nodes + 1.
  std::vector<std::size_t> node_offset;
  /// One slot per distinct pair, in (from, to) order.
  std::vector<Pair> slots;
  /// The slot of every entry.
  std::vector<std::uint32_t> entry_slot;
  /// Owner CSR: slot s's entries are owner_entry[owner_offset[s] ..
  /// owner_offset[s + 1]), in ascending entry order. Every slot has at
  /// least one owner.
  std::vector<std::uint32_t> owner_offset;
  std::vector<std::uint32_t> owner_entry;
  /// The children's boundary positions every internal node gathers.
  GatherPlan gather;

  std::size_t num_entries() const { return entry_slot.size(); }
  std::size_t num_slots() const { return slots.size(); }
};

/// Entries a group of k mutually-connected vertices emits: all ordered
/// pairs minus the diagonal.
inline std::size_t pair_count(std::size_t k) { return k * (k - 1); }

/// Computes the plan of `tree`: two stable counting-sort passes over the
/// emitted pairs (by `to`, then by `from`), O(entries + n), and the
/// gather plan, one merge of sorted vertex lists per (node, child).
EplusPlan build_eplus_plan(const SeparatorTree& tree);

}  // namespace sepsp
