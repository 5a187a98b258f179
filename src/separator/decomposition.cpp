#include "separator/decomposition.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "pram/cost_model.hpp"
#include "separator/finders.hpp"
#include "util/check.hpp"

namespace sepsp {

std::vector<std::size_t> SeparatorTree::leaf_ids() const {
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_leaf()) ids.push_back(i);
  }
  return ids;
}

SeparatorTree::Stats SeparatorTree::stats() const {
  Stats s;
  s.num_nodes = nodes_.size();
  s.height = height_;
  for (const DecompNode& t : nodes_) {
    const std::uint64_t sep = t.separator.size();
    const std::uint64_t bnd = t.boundary.size();
    s.max_separator = std::max<std::size_t>(s.max_separator, sep);
    s.max_boundary = std::max<std::size_t>(s.max_boundary, bnd);
    s.sum_sep_cubed += sep * sep * sep;
    s.sum_bnd_sq_sep += bnd * bnd * sep;
    s.sum_eplus_upper += sep * sep + bnd * bnd;
    if (t.is_leaf()) {
      ++s.num_leaves;
      s.max_leaf_vertices =
          std::max(s.max_leaf_vertices, t.vertices.size());
    }
  }
  return s;
}

void SeparatorTree::print(std::ostream& os, std::size_t max_nodes) const {
  os << "SeparatorTree: " << nodes_.size() << " nodes, height " << height_
     << ", " << num_vertices_ << " graph vertices\n";
  // Depth-first walk so the indentation reads as a tree.
  std::vector<std::size_t> stack{0};
  std::size_t printed = 0;
  while (!stack.empty() && printed < max_nodes) {
    const std::size_t id = stack.back();
    stack.pop_back();
    const DecompNode& t = nodes_[id];
    for (std::uint32_t i = 0; i < t.level; ++i) os << "  ";
    os << (t.is_leaf() ? "leaf" : "node") << " #" << id
       << " |V|=" << t.vertices.size() << " |S|=" << t.separator.size()
       << " |B|=" << t.boundary.size();
    if (t.vertices.size() <= 12) {
      os << "  V={";
      for (std::size_t i = 0; i < t.vertices.size(); ++i) {
        os << (i ? "," : "") << t.vertices[i];
      }
      os << "}";
      if (!t.separator.empty()) {
        os << " S={";
        for (std::size_t i = 0; i < t.separator.size(); ++i) {
          os << (i ? "," : "") << t.separator[i];
        }
        os << "}";
      }
    }
    os << '\n';
    ++printed;
    if (!t.is_leaf()) {
      stack.push_back(static_cast<std::size_t>(t.child[1]));
      stack.push_back(static_cast<std::size_t>(t.child[0]));
    }
  }
  if (printed == max_nodes && nodes_.size() > max_nodes) {
    os << "... (" << nodes_.size() - max_nodes << " more nodes)\n";
  }
}

namespace {

bool is_sorted_unique(std::span<const Vertex> v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

bool is_subset(std::span<const Vertex> sub, std::span<const Vertex> super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

std::vector<Vertex> sorted_union(std::span<const Vertex> a,
                                 std::span<const Vertex> b) {
  std::vector<Vertex> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<Vertex> sorted_difference(std::span<const Vertex> a,
                                      std::span<const Vertex> b) {
  std::vector<Vertex> out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace

std::optional<std::string> SeparatorTree::validate(
    const Skeleton& skeleton) const {
  auto fail = [](std::size_t id, const std::string& what) {
    return std::optional<std::string>("node " + std::to_string(id) + ": " +
                                      what);
  };
  if (nodes_.empty()) return std::optional<std::string>("empty tree");
  if (skeleton.num_vertices() != num_vertices_) {
    return std::optional<std::string>("skeleton size mismatch");
  }
  if (root().vertices.size() != num_vertices_) {
    return fail(0, "root must contain every vertex");
  }
  if (!root().boundary.empty()) return fail(0, "root boundary must be empty");

  std::vector<std::uint8_t> member(num_vertices_, 0);
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const DecompNode& t = nodes_[id];
    if (!is_sorted_unique(t.vertices)) return fail(id, "V not sorted/unique");
    if (!is_sorted_unique(t.separator)) return fail(id, "S not sorted/unique");
    if (!is_sorted_unique(t.boundary)) return fail(id, "B not sorted/unique");
    for (const Vertex v : t.vertices) {
      if (v >= num_vertices_) return fail(id, "vertex id out of range");
    }
    if (!is_subset(t.separator, t.vertices)) return fail(id, "S not in V");
    if (!is_subset(t.boundary, t.vertices)) return fail(id, "B not in V");
    if (t.is_leaf()) {
      if (!t.separator.empty()) return fail(id, "leaf with separator");
      if (t.child[1] >= 0) return fail(id, "half-leaf node");
      continue;
    }
    const auto c0 = static_cast<std::size_t>(t.child[0]);
    const auto c1 = static_cast<std::size_t>(t.child[1]);
    if (c0 <= id || c1 <= id || c0 >= nodes_.size() || c1 >= nodes_.size()) {
      return fail(id, "child ids out of order");
    }
    const DecompNode& left = nodes_[c0];
    const DecompNode& right = nodes_[c1];
    if (left.parent != static_cast<std::int32_t>(id) ||
        right.parent != static_cast<std::int32_t>(id)) {
      return fail(id, "child parent link broken");
    }
    if (left.level != t.level + 1 || right.level != t.level + 1) {
      return fail(id, "child level mismatch");
    }
    if (left.vertices.size() >= t.vertices.size() ||
        right.vertices.size() >= t.vertices.size()) {
      return fail(id, "child not strictly smaller (no progress)");
    }
    // V(t1) u V(t2) == V(t); S(t) in both children.
    if (sorted_union(left.vertices, right.vertices) != t.vertices) {
      return fail(id, "children do not cover V");
    }
    if (!is_subset(t.separator, left.vertices) ||
        !is_subset(t.separator, right.vertices)) {
      return fail(id, "separator not contained in both children");
    }
    // The two sides V(t_i) \ S(t) must be disjoint and non-adjacent.
    const std::vector<Vertex> side1 =
        sorted_difference(left.vertices, t.separator);
    const std::vector<Vertex> side2 =
        sorted_difference(right.vertices, t.separator);
    std::vector<Vertex> overlap;
    std::set_intersection(side1.begin(), side1.end(), side2.begin(),
                          side2.end(), std::back_inserter(overlap));
    if (!overlap.empty()) return fail(id, "children overlap outside S");
    for (const Vertex v : side2) member[v] = 1;
    for (const Vertex u : side1) {
      for (const Vertex w : skeleton.neighbors(u)) {
        if (member[w]) {
          for (const Vertex v : side2) member[v] = 0;
          return fail(id, "edge crosses the separator");
        }
      }
    }
    for (const Vertex v : side2) member[v] = 0;
    // Boundary recurrence.
    const std::vector<Vertex> sb = sorted_union(t.separator, t.boundary);
    for (const DecompNode* ch : {&left, &right}) {
      std::vector<Vertex> expect;
      std::set_intersection(sb.begin(), sb.end(), ch->vertices.begin(),
                            ch->vertices.end(), std::back_inserter(expect));
      if (expect != ch->boundary) return fail(id, "child boundary mismatch");
    }
  }

  // Prop 2.1(ii): B(t) separates V(t) \ B(t) from the rest of the graph.
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const DecompNode& t = nodes_[id];
    for (const Vertex v : t.vertices) member[v] = 1;
    for (const Vertex b : t.boundary) member[b] = 2;
    bool ok = true;
    for (const Vertex u : t.vertices) {
      if (member[u] != 1) continue;  // boundary vertices may touch outside
      for (const Vertex w : skeleton.neighbors(u)) {
        if (member[w] == 0) {
          ok = false;
          break;
        }
      }
      if (!ok) break;
    }
    for (const Vertex v : t.vertices) member[v] = 0;
    if (!ok) return fail(id, "interior vertex adjacent to outside (Prop 2.1)");
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Tree builder
// ---------------------------------------------------------------------------

/// Scratch state reused across nodes so per-node cost is O(|V(t)| + local
/// edges), independent of the global vertex count.
class TreeBuilderImpl {
 public:
  TreeBuilderImpl(const Skeleton& skeleton, const SeparatorFinder& finder,
                  const DecompositionOptions& options)
      : skeleton_(skeleton),
        finder_(finder),
        options_(options),
        mask_(skeleton.num_vertices(), 0),
        stamp_(skeleton.num_vertices(), 0) {
    SEPSP_CHECK(options.leaf_size >= 1);
  }

  SeparatorTree build() {
    SeparatorTree tree;
    tree.num_vertices_ = skeleton_.num_vertices();
    std::vector<Vertex> all(skeleton_.num_vertices());
    std::iota(all.begin(), all.end(), 0);
    tree.nodes_.emplace_back();
    tree.nodes_[0].vertices = std::move(all);

    std::vector<std::size_t> pending{0};
    std::uint64_t work = 0;
    while (!pending.empty()) {
      const std::size_t id = pending.back();
      pending.pop_back();
      work += tree.nodes_[id].vertices.size();
      process(tree, id, pending);
      tree.height_ = std::max(tree.height_, tree.nodes_[id].level);
    }
    pram::CostMeter::charge_work(work);
    pram::CostMeter::charge_depth(tree.height_ + 1);
    tree.plan_ = std::make_shared<const EplusPlan>(build_eplus_plan(tree));
    return tree;
  }

 private:
  /// Splits node `id`; appends children to `pending` unless it is a leaf.
  void process(SeparatorTree& tree, std::size_t id,
               std::vector<std::size_t>& pending) {
    // Note: take copies of the spans we need before mutating tree.nodes_
    // (emplace_back invalidates references).
    const std::vector<Vertex> verts = tree.nodes_[id].vertices;
    if (verts.size() <= options_.leaf_size) return;  // leaf

    for (const Vertex v : verts) mask_[v] = 1;
    std::vector<Vertex> separator;
    std::vector<Vertex> side1, side2;
    const bool ok = split(verts, separator, side1, side2);
    for (const Vertex v : verts) mask_[v] = 0;
    if (!ok) return;  // unsplittable: stays a leaf (e.g. a clique)

    attach_children(tree, id, separator, side1, side2, pending);
  }

  /// Computes S, side1, side2 with side1/side2 both non-empty, no edge
  /// between them, and S u side_i strictly smaller than the node.
  /// Precondition: mask_ marks exactly the node's vertices.
  bool split(const std::vector<Vertex>& verts, std::vector<Vertex>& separator,
             std::vector<Vertex>& side1, std::vector<Vertex>& side2) {
    // 1. Already disconnected? Then the empty separator works.
    if (bin_components(verts, /*exclude=*/{}, side1, side2)) {
      separator.clear();
      return true;
    }
    // 2. The configured finder.
    const SubgraphContext ctx{skeleton_, verts, mask_};
    std::vector<Vertex> s = sanitize(finder_(ctx), verts);
    if (!s.empty() && s.size() < verts.size() &&
        bin_components(verts, s, side1, side2) &&
        balanced(verts.size(), side1.size(), side2.size())) {
      separator = std::move(s);
      return true;
    }
    // 3. BFS-level fallback (works whenever some vertex has eccentricity
    //    >= 2 in the induced subgraph): the BFS finder's separator,
    //    without the balance check.
    s = sanitize(bfs_finder_(ctx), verts);
    if (!s.empty() && bin_components(verts, s, side1, side2)) {
      separator = std::move(s);
      return true;
    }
    // 4. Minimum-degree neighborhood: S = N(v), side1 = {v}.
    s = min_degree_separator(verts, side1, side2);
    if (!s.empty()) {
      separator = std::move(s);
      return true;
    }
    return false;  // complete graph: no separator exists
  }

  /// Keeps only in-subset vertices, sorted and deduplicated.
  std::vector<Vertex> sanitize(std::vector<Vertex> s,
                               const std::vector<Vertex>& verts) const {
    std::erase_if(s, [&](Vertex v) {
      return v >= mask_.size() || !mask_[v];
    });
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    (void)verts;
    return s;
  }

  bool balanced(std::size_t total, std::size_t a, std::size_t b) const {
    const double limit = options_.max_component_fraction *
                         static_cast<double>(total);
    return static_cast<double>(a) <= limit &&
           static_cast<double>(b) <= limit;
  }

  /// Finds connected components of verts \ exclude (within the mask) and
  /// greedily bins them into two groups balancing vertex counts. Returns
  /// false unless both groups end up non-empty.
  bool bin_components(const std::vector<Vertex>& verts,
                      std::span<const Vertex> exclude,
                      std::vector<Vertex>& side1, std::vector<Vertex>& side2) {
    side1.clear();
    side2.clear();
    ++epoch_;
    for (const Vertex v : exclude) {
      stamp_[v] = epoch_;  // marked visited: excluded from components
    }
    // Discover components; each is a contiguous range in comp_vertices_.
    comp_vertices_.clear();
    std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [begin, end)
    for (const Vertex root : verts) {
      if (stamp_[root] == epoch_) continue;
      const std::size_t begin = comp_vertices_.size();
      stamp_[root] = epoch_;
      comp_vertices_.push_back(root);
      for (std::size_t head = begin; head < comp_vertices_.size(); ++head) {
        const Vertex u = comp_vertices_[head];
        for (const Vertex w : skeleton_.neighbors(u)) {
          if (!mask_[w] || stamp_[w] == epoch_) continue;
          stamp_[w] = epoch_;
          comp_vertices_.push_back(w);
        }
      }
      ranges.emplace_back(begin, comp_vertices_.size());
    }
    if (ranges.size() < 2) return false;
    // Largest-first greedy binning into the lighter side.
    std::sort(ranges.begin(), ranges.end(),
              [](const auto& a, const auto& b) {
                return (a.second - a.first) > (b.second - b.first);
              });
    for (const auto& [begin, end] : ranges) {
      auto& side = side1.size() <= side2.size() ? side1 : side2;
      side.insert(side.end(), comp_vertices_.begin() + begin,
                  comp_vertices_.begin() + end);
    }
    std::sort(side1.begin(), side1.end());
    std::sort(side2.begin(), side2.end());
    return !side1.empty() && !side2.empty();
  }

  /// S = N(v) for a minimum-degree vertex v; side1 = {v}, side2 = rest.
  /// Succeeds iff some vertex is not adjacent to every other.
  std::vector<Vertex> min_degree_separator(const std::vector<Vertex>& verts,
                                           std::vector<Vertex>& side1,
                                           std::vector<Vertex>& side2) {
    Vertex best = kInvalidVertex;
    std::size_t best_deg = static_cast<std::size_t>(-1);
    for (const Vertex v : verts) {
      std::size_t deg = 0;
      for (const Vertex w : skeleton_.neighbors(v)) deg += mask_[w];
      if (deg < best_deg) {
        best_deg = deg;
        best = v;
      }
    }
    if (best_deg + 1 >= verts.size()) return {};  // complete graph
    std::vector<Vertex> s;
    for (const Vertex w : skeleton_.neighbors(best)) {
      if (mask_[w]) s.push_back(w);
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    side1 = {best};
    side2.clear();
    ++epoch_;
    stamp_[best] = epoch_;
    for (const Vertex w : s) stamp_[w] = epoch_;
    for (const Vertex v : verts) {
      if (stamp_[v] != epoch_) side2.push_back(v);
    }
    SEPSP_CHECK(!side2.empty());
    return s;
  }

  void attach_children(SeparatorTree& tree, std::size_t id,
                       const std::vector<Vertex>& separator,
                       const std::vector<Vertex>& side1,
                       const std::vector<Vertex>& side2,
                       std::vector<std::size_t>& pending) {
    tree.nodes_[id].separator = separator;
    const std::vector<Vertex> sb =
        sorted_union(separator, tree.nodes_[id].boundary);
    const std::uint32_t child_level = tree.nodes_[id].level + 1;
    for (int which = 0; which < 2; ++which) {
      const std::vector<Vertex>& side = which == 0 ? side1 : side2;
      DecompNode child;
      child.vertices = sorted_union(side, separator);
      std::set_intersection(sb.begin(), sb.end(), child.vertices.begin(),
                            child.vertices.end(),
                            std::back_inserter(child.boundary));
      child.parent = static_cast<std::int32_t>(id);
      child.level = child_level;
      SEPSP_CHECK_MSG(child.vertices.size() < tree.nodes_[id].vertices.size(),
                      "separator split made no progress");
      const std::size_t child_id = tree.nodes_.size();
      tree.nodes_[id].child[which] = static_cast<std::int32_t>(child_id);
      tree.nodes_.push_back(std::move(child));
      pending.push_back(child_id);
    }
  }

  const Skeleton& skeleton_;
  const SeparatorFinder& finder_;
  DecompositionOptions options_;

  std::vector<std::uint8_t> mask_;   // 1 iff vertex in current node
  std::vector<std::uint32_t> stamp_;  // visited epoch per vertex
  std::uint32_t epoch_ = 0;
  std::vector<Vertex> comp_vertices_;
  const SeparatorFinder bfs_finder_ = make_bfs_finder();  // step 3
};

SeparatorTree build_separator_tree(const Skeleton& skeleton,
                                   const SeparatorFinder& finder,
                                   const DecompositionOptions& options) {
  SEPSP_CHECK(skeleton.num_vertices() > 0);
  TreeBuilderImpl impl(skeleton, finder, options);
  return impl.build();
}

}  // namespace sepsp
