// Separator-based hub labeling — the "compact representation of
// all-pairs shortest-paths" the paper produces (Section 6 speaks of
// compact routing tables; hub labels are their modern form). Templated
// over the semiring, so the same construction yields distance labels
// (TropicalD/I), 2-hop reachability labels (BooleanSR) and widest-path
// labels (BottleneckSR); with the next-hop payload it yields the
// routing tables of core/routing.hpp.
//
// Every vertex v designates one leaf containing it; its label stores,
// for every hub h separating a node on that leaf's root path, the
// *global* values v -> h and h -> v. Exactness: let t_c be the deepest
// common node of u's and v's designated paths. An optimal u-v path
// either leaves V(t_c) — then it crosses B(t_c), which consists of
// separator vertices of common ancestors, i.e. common hubs — or stays
// inside V(t_c), where it must cross S(t_c) itself (the designated
// paths split below t_c), again a common hub. The only remaining case
// is u, v sharing the designated *leaf* with the path inside it, which
// a per-leaf closure table covers.
//
// Construction lays every label out first (hub -> the vertices and
// label slots it serves, from the separator tree alone), then runs the
// separator engine's source-batched kernel over the *distinct* hubs in
// chunks (forward on g, backward on the transpose) and scatters each
// hub's two rows on the work-stealing pool. A vertex separating several
// nodes is queried once; every (v, h) slot is written by exactly one
// task, so the scatter is race-free and needs no sort or dedup.
//
// Sizes (k^mu-separator families): O(n^mu) hubs per vertex, O(n^{1+mu})
// total — the query is two sorted-list merges, no graph access.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"
#include "core/path_tree.hpp"
#include "graph/digraph.hpp"
#include "pram/thread_pool.hpp"
#include "separator/decomposition.hpp"
#include "util/vertex_index.hpp"  // detail::index_of

namespace sepsp {

/// What a hub-label build stores per (vertex, hub) entry besides the two
/// hub values.
enum class HubPayload {
  kDistances,  ///< values only (every semiring)
  kNextHops,   ///< plus the first arcs toward / away from the hub
               ///< (TropicalD; core/routing.hpp)
};

/// A built labeling; answers point-to-point value queries.
template <Semiring S>
class HubLabeling {
 public:
  using Value = typename S::Value;
  using Options = typename SeparatorShortestPaths<S>::Options;

  /// Builds labels with 2 * (number of distinct separator vertices)
  /// global single-source queries through the separator engine (forward
  /// on g, backward on the transpose), batched in chunks. `options`
  /// are the two internal engines' query options.
  static HubLabeling build(const Digraph& g, const SeparatorTree& tree,
                           const Options& options = {});

  /// Exact best path value from u to v; zero() when no path exists.
  Value value(Vertex u, Vertex v) const;

  /// Number of hub entries in v's label.
  std::size_t label_size(Vertex v) const {
    return state_->label_begin[v + 1] - state_->label_begin[v];
  }

  /// Total hub entries across all labels (the "compact table" size).
  std::size_t total_label_entries() const { return state_->entries.size(); }

  /// Average label size.
  double average_label_size() const {
    return static_cast<double>(total_label_entries()) /
           static_cast<double>(state_->n);
  }

 protected:
  HubLabeling() = default;

  /// The one hub-label builder behind every labeling and the routing
  /// tables. kNextHops also needs `reversed` — g's transpose, the graph
  /// behind `bwd` — and its weight override, for the path trees that
  /// give the hop fields.
  template <HubPayload P>
  static HubLabeling build_payload(
      const Digraph& g, const SeparatorTree& tree,
      const SeparatorShortestPaths<S>& fwd,
      const SeparatorShortestPaths<S>& bwd,
      std::span<const double> arc_weights,
      const Digraph* reversed = nullptr,
      std::span<const double> reversed_arc_weights = {});

  /// Best value over common hubs and the shared leaf table (u != v).
  /// With `hop` — kNextHops builds only — also the first arc of a path
  /// realizing it (kInvalidVertex when there is none).
  Value best(Vertex u, Vertex v, Vertex* hop) const;

  std::size_t num_vertices() const { return state_->n; }

 private:
  struct Entry {
    Vertex hub;
    Value to_hub;    // value(v, hub)
    Value from_hub;  // value(hub, v)
  };
  struct LeafTable {
    std::vector<Vertex> verts;
    std::vector<Value> dist;   // |verts| x |verts|
    std::vector<Vertex> next;  // next-hop matrix; kNextHops only
  };
  struct State {
    std::size_t n = 0;
    std::vector<std::size_t> label_begin;  // n + 1 offsets into entries
    std::vector<Entry> entries;            // each label ascending by hub
    // Per entry, kNextHops only: first arc of an optimal v -> hub path,
    // and first arc after the hub of an optimal hub -> v path.
    std::vector<Vertex> toward_hub;
    std::vector<Vertex> hub_out;
    std::vector<std::int32_t> leaf_of;  // designated leaf per vertex
    std::vector<LeafTable> leaf_tables;
    std::vector<std::int32_t> table_of_leaf;
  };
  std::shared_ptr<const State> state_;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <Semiring S>
HubLabeling<S> HubLabeling<S>::build(const Digraph& g,
                                     const SeparatorTree& tree,
                                     const Options& options) {
  // Forward and backward engines share the tree (remark iv: the
  // decomposition depends only on the undirected skeleton).
  const Digraph reversed = g.transpose();
  const auto fwd = SeparatorShortestPaths<S>::build(g, tree, options);
  const auto bwd = SeparatorShortestPaths<S>::build(reversed, tree, options);
  return build_payload<HubPayload::kDistances>(g, tree, fwd, bwd, {});
}

template <Semiring S>
template <HubPayload P>
HubLabeling<S> HubLabeling<S>::build_payload(
    const Digraph& g, const SeparatorTree& tree,
    const SeparatorShortestPaths<S>& fwd, const SeparatorShortestPaths<S>& bwd,
    std::span<const double> arc_weights, const Digraph* reversed,
    std::span<const double> reversed_arc_weights) {
  constexpr bool kHops = P == HubPayload::kNextHops;
  static_assert(!kHops || std::is_same_v<S, TropicalD>,
                "next hops need real-weight shortest-path trees");
  using detail::index_of;
  const std::size_t n = g.num_vertices();
  SEPSP_CHECK(arc_weights.empty() || arc_weights.size() == g.num_edges());
  if constexpr (kHops) {
    SEPSP_CHECK(reversed != nullptr && reversed->num_vertices() == n &&
                reversed->num_edges() == g.num_edges());
    SEPSP_CHECK(reversed_arc_weights.empty() ||
                reversed_arc_weights.size() == g.num_edges());
  }
  auto state = std::make_shared<State>();
  State& s = *state;
  s.n = n;

  // Designated leaf per vertex: the smallest-id leaf containing it.
  s.leaf_of.assign(n, -1);
  for (const std::size_t id : tree.leaf_ids()) {
    for (const Vertex v : tree.node(id).vertices) {
      if (s.leaf_of[v] < 0) s.leaf_of[v] = static_cast<std::int32_t>(id);
    }
  }
  // Hubs of every node's root path, ascending and distinct (parents have
  // smaller ids than their children). v's label holds exactly the hubs
  // of its designated leaf's path.
  std::vector<std::vector<Vertex>> path_hubs(tree.num_nodes());
  const std::vector<Vertex> above_root;
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& node = tree.node(id);
    const std::vector<Vertex>& up =
        node.parent < 0 ? above_root
                        : path_hubs[static_cast<std::size_t>(node.parent)];
    std::set_union(up.begin(), up.end(), node.separator.begin(),
                   node.separator.end(), std::back_inserter(path_hubs[id]));
  }
  const auto hubs_of = [&](Vertex v) -> const std::vector<Vertex>& {
    return path_hubs[static_cast<std::size_t>(s.leaf_of[v])];
  };

  // Label layout (CSR over vertices) and its inverse: per hub, the
  // vertices whose label holds it and the slot each one reserves.
  s.label_begin.assign(n + 1, 0);
  std::vector<std::size_t> hub_begin(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    s.label_begin[v + 1] = s.label_begin[v] + hubs_of(v).size();
    for (const Vertex h : hubs_of(v)) ++hub_begin[h + 1];
  }
  for (Vertex h = 0; h < n; ++h) hub_begin[h + 1] += hub_begin[h];
  const std::size_t total = s.label_begin[n];
  s.entries.resize(total);
  std::vector<Vertex> target(total);
  std::vector<std::size_t> target_slot(total);
  std::vector<std::size_t> cursor(hub_begin.begin(), hub_begin.end() - 1);
  for (Vertex v = 0; v < n; ++v) {
    std::size_t slot = s.label_begin[v];
    for (const Vertex h : hubs_of(v)) {
      const std::size_t t = cursor[h]++;
      target[t] = v;
      target_slot[t] = slot++;
    }
  }
  std::vector<Vertex> hubs;  // distinct, ascending
  for (Vertex h = 0; h < n; ++h) {
    if (hub_begin[h + 1] > hub_begin[h]) hubs.push_back(h);
  }
  if constexpr (kHops) {
    s.toward_hub.assign(total, kInvalidVertex);
    s.hub_out.assign(total, kInvalidVertex);
  }

  // One forward + one backward batch per chunk of distinct hubs, then a
  // pooled per-hub scatter into the hub's reserved slots. Chunking bounds
  // the resident rows (sources x n values per direction): two chunk x n
  // buffers, allocated once and refilled by every chunk through the
  // output form. Per-lane parity makes a hub's row independent of the
  // chunk it rides in.
  constexpr std::size_t kMaxChunk = 256;
  const std::size_t rows_per_chunk = std::min(kMaxChunk, hubs.size());
  std::vector<Value> from_buf(rows_per_chunk * n);
  std::vector<Value> to_buf(rows_per_chunk * n);
  std::vector<std::span<Value>> from_rows, to_rows;
  for (std::size_t b = 0; b < rows_per_chunk; ++b) {
    from_rows.emplace_back(from_buf.data() + b * n, n);
    to_rows.emplace_back(to_buf.data() + b * n, n);
  }
  std::vector<QueryStats> from_stats(rows_per_chunk), to_stats(rows_per_chunk);
  pram::ThreadPool& pool = pram::ThreadPool::global();
  for (std::size_t c0 = 0; c0 < hubs.size(); c0 += kMaxChunk) {
    const std::span<const Vertex> chunk = std::span<const Vertex>(hubs).subspan(
        c0, std::min(kMaxChunk, hubs.size() - c0));
    const std::size_t len = chunk.size();
    fwd.distances_batch(chunk, std::span(from_rows).first(len),
                        std::span(from_stats).first(len));
    bwd.distances_batch(chunk, std::span(to_rows).first(len),
                        std::span(to_stats).first(len));
    pool.parallel_for(
        0, len,
        [&](std::size_t b) {
          const Vertex h = chunk[b];
          const std::span<const Value> from_h = from_rows[b];
          const std::span<const Value> to_h = to_rows[b];
          SEPSP_CHECK_MSG(
              !from_stats[b].negative_cycle && !to_stats[b].negative_cycle,
              "hub labels need negative-cycle-free input");
          const std::size_t t0 = hub_begin[h], t1 = hub_begin[h + 1];
          for (std::size_t t = t0; t < t1; ++t) {
            s.entries[target_slot[t]] = {h, to_h[target[t]],
                                         from_h[target[t]]};
          }
          if constexpr (kHops) {
            // Shortest-path trees give the hop fields:
            //  * in g rooted at h: parents point backward along h -> v,
            //    so the first arc after h toward v is found by lifting v
            //    to depth 1;
            //  * in gT rooted at h: the gT-parent of v is the
            //    g-successor of v on an optimal v -> h path, i.e. v's
            //    toward-hub hop.
            const PathTree out_tree =
                extract_path_tree(g, h, from_h, arc_weights);
            const PathTree in_tree = extract_path_tree(
                *reversed, h, to_h, reversed_arc_weights);
            // first[v]: child of h on the tree path to v (memoized lift).
            std::vector<Vertex> first(n, kInvalidVertex);
            std::vector<Vertex> chain;
            for (std::size_t t = t0; t < t1; ++t) {
              Vertex at = target[t];
              chain.clear();
              while (at != h && at != kInvalidVertex &&
                     first[at] == kInvalidVertex) {
                chain.push_back(at);
                const Vertex p = out_tree.parent[at];
                if (p == h) {
                  first[at] = at;
                  break;
                }
                at = p;
              }
              const Vertex resolved =
                  at == kInvalidVertex || at == h ? kInvalidVertex : first[at];
              for (const Vertex c : chain) {
                if (first[c] == kInvalidVertex) first[c] = resolved;
              }
              s.toward_hub[target_slot[t]] = in_tree.parent[target[t]];
              s.hub_out[target_slot[t]] = first[target[t]];
            }
          }
        },
        /*grain=*/1);
  }

  // Per-leaf closure tables (same-designated-leaf queries), one
  // independent pool task per used leaf; kNextHops also records the
  // Floyd–Warshall next hops.
  s.table_of_leaf.assign(tree.num_nodes(), -1);
  std::vector<std::size_t> used_leaves;
  for (Vertex v = 0; v < n; ++v) {
    const auto leaf = static_cast<std::size_t>(s.leaf_of[v]);
    if (s.table_of_leaf[leaf] >= 0) continue;
    s.table_of_leaf[leaf] = static_cast<std::int32_t>(used_leaves.size());
    used_leaves.push_back(leaf);
  }
  s.leaf_tables.resize(used_leaves.size());
  const Arc* arc_base = g.arcs().data();
  pool.parallel_for(
      0, used_leaves.size(),
      [&](std::size_t li) {
        const std::span<const Vertex> verts =
            tree.node(used_leaves[li]).vertices;
        const std::size_t k = verts.size();
        LeafTable& table = s.leaf_tables[li];
        table.verts.assign(verts.begin(), verts.end());
        table.dist.assign(k * k, S::zero());
        if constexpr (kHops) table.next.assign(k * k, kInvalidVertex);
        const auto relax = [&](std::size_t cell, Value via, Vertex hop) {
          if constexpr (kHops) {
            if (S::improves(table.dist[cell], via)) table.next[cell] = hop;
          }
          table.dist[cell] = S::combine(table.dist[cell], via);
        };
        for (std::size_t i = 0; i < k; ++i) {
          table.dist[i * k + i] = S::one();
          for (const Arc& a : g.out(verts[i])) {
            const std::size_t j = index_of(verts, a.to);
            if (j == detail::kNpos) continue;
            const double w =
                arc_weights.empty()
                    ? a.weight
                    : arc_weights[static_cast<std::size_t>(&a - arc_base)];
            relax(i * k + j, S::from_weight(w), a.to);
          }
        }
        for (std::size_t mid = 0; mid < k; ++mid) {
          for (std::size_t i = 0; i < k; ++i) {
            const Value to_mid = table.dist[i * k + mid];
            if (!S::improves(S::zero(), to_mid)) continue;
            const Vertex hop = kHops ? table.next[i * k + mid] : kInvalidVertex;
            for (std::size_t j = 0; j < k; ++j) {
              relax(i * k + j,
                    relax_extend<S>(to_mid, table.dist[mid * k + j]), hop);
            }
          }
        }
      },
      /*grain=*/1);

  HubLabeling out;
  out.state_ = std::move(state);
  return out;
}

template <Semiring S>
typename S::Value HubLabeling<S>::value(Vertex u, Vertex v) const {
  SEPSP_CHECK(u < state_->n && v < state_->n);
  if (u == v) return S::one();
  return best(u, v, nullptr);
}

template <Semiring S>
typename S::Value HubLabeling<S>::best(Vertex u, Vertex v, Vertex* hop) const {
  const State& s = *state_;
  Value best = S::zero();
  Vertex best_hop = kInvalidVertex;
  // Sorted merge over common hubs.
  std::size_t i = s.label_begin[u], j = s.label_begin[v];
  const std::size_t i_end = s.label_begin[u + 1], j_end = s.label_begin[v + 1];
  while (i < i_end && j < j_end) {
    const Entry& eu = s.entries[i];
    const Entry& ev = s.entries[j];
    if (eu.hub < ev.hub) {
      ++i;
    } else if (eu.hub > ev.hub) {
      ++j;
    } else {
      // Either side is zero() when the hub and its vertex are not
      // connected; relax_extend is exact there too (test_semiring pairs
      // zero() on both sides).
      const Value via = relax_extend<S>(eu.to_hub, ev.from_hub);
      // Standing at the hub: leave along the hub's out-arc toward v;
      // otherwise move toward the hub.
      if (hop != nullptr && S::improves(best, via)) {
        best_hop = u == eu.hub ? s.hub_out[j] : s.toward_hub[i];
      }
      best = S::combine(best, via);
      ++i;
      ++j;
    }
  }
  // Same designated leaf: paths that never leave the leaf subgraph.
  if (s.leaf_of[u] == s.leaf_of[v]) {
    const LeafTable& table = s.leaf_tables[static_cast<std::size_t>(
        s.table_of_leaf[static_cast<std::size_t>(s.leaf_of[u])])];
    const auto iu = static_cast<std::size_t>(
        std::lower_bound(table.verts.begin(), table.verts.end(), u) -
        table.verts.begin());
    const auto iv = static_cast<std::size_t>(
        std::lower_bound(table.verts.begin(), table.verts.end(), v) -
        table.verts.begin());
    const std::size_t cell = iu * table.verts.size() + iv;
    if (hop != nullptr && S::improves(best, table.dist[cell])) {
      best_hop = table.next[cell];
    }
    best = S::combine(best, table.dist[cell]);
  }
  if (hop != nullptr) *hop = best_hop;
  return best;
}

}  // namespace sepsp
