// Separator decomposition trees (paper Section 2.3).
//
// A SeparatorTree is a rooted binary tree; node t carries
//   V(t)  — vertex set of the subgraph G(t) (global ids, sorted)
//   S(t)  — a separator of G(t) (empty at leaves)
//   B(t)  — boundary: B(root) = {}, B(t) = (S(parent) u B(parent)) n V(t)
//
// Children vertex sets are V(t_i) = V_i u S(t) where V_1, V_2 partition
// V(t) \ S(t) with no skeleton edge between them. (The paper uses
// V_i u (S(t) n N(V_i)); we include the whole separator in both children
// so that S(t) is a subset of B(t_1) n B(t_2) holds literally, as the
// correctness proofs assume — see DESIGN.md substitution 6. Same
// asymptotics.)
//
// The tree is built by `build_separator_tree`, which drives a pluggable
// SeparatorFinder, bins the resulting components into two balanced
// groups, and falls back to guaranteed-progress separators when a finder
// underdelivers. `validate` checks every invariant the core algorithms
// rely on (used heavily by tests).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/skeleton.hpp"
#include "separator/eplus_plan.hpp"

namespace sepsp {

/// One node of the decomposition tree.
struct DecompNode {
  std::vector<Vertex> vertices;   ///< V(t), sorted global ids
  std::vector<Vertex> separator;  ///< S(t) subset of V(t), sorted; empty at leaves
  std::vector<Vertex> boundary;   ///< B(t) subset of V(t), sorted
  std::int32_t parent = -1;
  std::array<std::int32_t, 2> child = {-1, -1};
  std::uint32_t level = 0;  ///< depth below the root

  bool is_leaf() const { return child[0] < 0; }
};

/// Immutable decomposition tree. Node 0 is the root; children always have
/// larger ids than their parent (preorder layout), so a forward sweep
/// visits parents first and a backward sweep children first.
class SeparatorTree {
 public:
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_graph_vertices() const { return num_vertices_; }

  const DecompNode& node(std::size_t id) const { return nodes_[id]; }
  const DecompNode& root() const { return nodes_.front(); }

  /// d_G: maximum level over all nodes.
  std::uint32_t height() const { return height_; }

  /// Ids of all leaves.
  std::vector<std::size_t> leaf_ids() const;

  /// Summary statistics used by benches and docs.
  struct Stats {
    std::size_t num_nodes = 0;
    std::size_t num_leaves = 0;
    std::uint32_t height = 0;
    std::size_t max_separator = 0;
    std::size_t max_boundary = 0;
    std::size_t max_leaf_vertices = 0;
    std::uint64_t sum_sep_cubed = 0;   ///< sum |S(t)|^3 (Alg 4.1 work driver)
    std::uint64_t sum_bnd_sq_sep = 0;  ///< sum |B(t)|^2 |S(t)|
    std::uint64_t sum_eplus_upper = 0; ///< sum |S(t)|^2 + |B(t)|^2
  };
  Stats stats() const;

  /// Renders the tree as an indented listing (Figure-1-style).
  void print(std::ostream& os, std::size_t max_nodes = 64) const;

  /// Checks every structural invariant against the skeleton; returns
  /// nullopt on success or a description of the first violation.
  std::optional<std::string> validate(const Skeleton& skeleton) const;

  /// The E+ slot plan (eplus_plan.hpp), computed once when the tree is
  /// built and shared by copies of the tree and by every engine built
  /// over it. Null only for a default-constructed tree.
  const std::shared_ptr<const EplusPlan>& eplus_plan() const {
    return plan_;
  }

 private:
  friend class TreeBuilderImpl;
  std::vector<DecompNode> nodes_;
  std::size_t num_vertices_ = 0;
  std::uint32_t height_ = 0;
  std::shared_ptr<const EplusPlan> plan_;
};

/// Context handed to a separator finder for one tree node.
struct SubgraphContext {
  const Skeleton& skeleton;          ///< whole-graph skeleton
  std::span<const Vertex> vertices;  ///< V(t), sorted global ids
  /// mask[v] != 0 iff v is in V(t); indexed by global vertex id.
  std::span<const std::uint8_t> in_subset;
};

/// A separator finder returns S, a subset of ctx.vertices whose removal
/// disconnects the induced subgraph into components of bounded size.
/// The tree builder handles component grouping, balance and fallbacks.
using SeparatorFinder =
    std::function<std::vector<Vertex>(const SubgraphContext&)>;

/// Options for build_separator_tree.
struct DecompositionOptions {
  /// Nodes with at most this many vertices become leaves. The paper needs
  /// O(1); tests sweep it. Must be >= 1.
  std::size_t leaf_size = 4;
  /// If a finder's separator leaves a component larger than this fraction
  /// of |V(t)|, the builder retries with its guaranteed fallback.
  double max_component_fraction = 0.95;
};

/// Builds the decomposition tree of `skeleton` by recursive application
/// of `finder`. Always succeeds (falls back to BFS-level / degree /
/// clique-split separators that guarantee progress on any graph).
SeparatorTree build_separator_tree(const Skeleton& skeleton,
                                   const SeparatorFinder& finder,
                                   const DecompositionOptions& options = {});

}  // namespace sepsp
