#include "separator/eplus_plan.hpp"

#include <algorithm>
#include <span>

#include "obs/trace.hpp"
#include "separator/decomposition.hpp"
#include "util/check.hpp"

namespace sepsp {
namespace {

GatherPlan build_gather_plan(const SeparatorTree& tree) {
  GatherPlan gp;
  const std::size_t num_nodes = tree.num_nodes();
  gp.sep_offset.assign(2 * num_nodes + 1, 0);
  gp.bnd_offset.assign(2 * num_nodes + 1, 0);
  for (std::size_t id = 0; id < num_nodes; ++id) {
    const DecompNode& t = tree.node(id);
    for (int c = 0; c < 2; ++c) {
      const std::size_t k = 2 * id + static_cast<std::size_t>(c);
      if (!t.is_leaf()) {
        // Both lists are sorted: one merge finds every position.
        const std::vector<Vertex>& bc =
            tree.node(static_cast<std::size_t>(t.child[c])).boundary;
        std::size_t j = 0;
        for (const Vertex v : t.separator) {
          while (j < bc.size() && bc[j] < v) ++j;
          SEPSP_CHECK_MSG(j < bc.size() && bc[j] == v,
                          "separator vertex missing from child boundary");
          gp.sep_index.push_back(static_cast<std::uint32_t>(j));
        }
        j = 0;
        for (std::size_t p = 0; p < t.boundary.size(); ++p) {
          while (j < bc.size() && bc[j] < t.boundary[p]) ++j;
          if (j < bc.size() && bc[j] == t.boundary[p]) {
            gp.bnd_row.push_back(static_cast<std::uint32_t>(p));
            gp.bnd_index.push_back(static_cast<std::uint32_t>(j));
          }
        }
      }
      gp.sep_offset[k + 1] = static_cast<std::uint32_t>(gp.sep_index.size());
      gp.bnd_offset[k + 1] = static_cast<std::uint32_t>(gp.bnd_row.size());
    }
  }
  gp.sep_index.shrink_to_fit();
  gp.bnd_row.shrink_to_fit();
  gp.bnd_index.shrink_to_fit();
  return gp;
}

/// level(v) for every vertex: the minimum tree level among the nodes
/// whose separator holds v.
LevelAssignment compute_levels(const SeparatorTree& tree) {
  LevelAssignment out;
  const std::size_t n = tree.num_graph_vertices();
  out.level.assign(n, LevelAssignment::kUndefined);
  out.height = tree.height();
  std::vector<std::uint8_t> in_leaf(n, 0);
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& t = tree.node(id);
    for (const Vertex v : t.separator) {
      out.level[v] = std::min(out.level[v], t.level);
    }
    if (t.is_leaf()) {
      for (const Vertex v : t.vertices) in_leaf[v] = 1;
    }
  }
  // Every vertex reaches a leaf: only separator membership duplicates a
  // vertex into both children, and nothing drops one.
  for (std::size_t v = 0; v < n; ++v) {
    SEPSP_CHECK_MSG(in_leaf[v] != 0, "vertex missing from every leaf");
  }
  return out;
}

}  // namespace

EplusPlan build_eplus_plan(const SeparatorTree& tree) {
  SEPSP_TRACE_SPAN("build.plan");
  EplusPlan plan;
  const std::size_t num_nodes = tree.num_nodes();
  plan.node_offset.resize(num_nodes + 1);
  std::size_t total = 0;
  for (std::size_t id = 0; id < num_nodes; ++id) {
    plan.node_offset[id] = total;
    const DecompNode& t = tree.node(id);
    total += t.separator.size() * t.separator.size() +
             t.boundary.size() * t.boundary.size();
  }
  plan.node_offset[num_nodes] = total;
  SEPSP_CHECK_MSG(total < EplusPlan::kNoSlot,
                  "E+ node matrices exceed 2^32 - 1 entries");

  // Every entry's pair, in arena order, and the off-diagonal entries in
  // ascending order. Every endpoint has a level: it lies in some S(t) or
  // B(t).
  plan.levels = compute_levels(tree);
  const std::vector<std::uint32_t>& level = plan.levels.level;
  std::vector<Vertex> from(total), to(total);
  std::vector<std::uint32_t> order;
  order.reserve(total);
  std::size_t e = 0;
  const auto emit = [&](std::span<const Vertex> verts) {
    for (const Vertex u : verts) {
      SEPSP_CHECK_MSG(level[u] != LevelAssignment::kUndefined,
                      "E+ slot endpoint without a level");
      for (const Vertex v : verts) {
        from[e] = u;
        to[e] = v;
        if (u != v) order.push_back(static_cast<std::uint32_t>(e));
        ++e;
      }
    }
  };
  for (std::size_t id = 0; id < num_nodes; ++id) {
    emit(tree.node(id).separator);
    emit(tree.node(id).boundary);
  }
  SEPSP_DCHECK(e == total);

  // Off-diagonal entries sorted by (from, to), ties in ascending entry
  // order: a stable counting sort by `to`, then one by `from`.
  const std::size_t pairs = order.size();
  const std::size_t n = tree.num_graph_vertices();
  std::vector<std::uint32_t> pos;
  std::vector<std::uint32_t> sorted(pairs);
  const auto sort_by = [&](const std::vector<Vertex>& key) {
    pos.assign(n + 1, 0);
    for (const std::uint32_t entry : order) ++pos[key[entry] + 1];
    for (std::size_t v = 0; v < n; ++v) pos[v + 1] += pos[v];
    for (const std::uint32_t entry : order) sorted[pos[key[entry]]++] = entry;
    order.swap(sorted);
  };
  sort_by(to);
  sort_by(from);

  // The runs of equal pairs in that order, one per slot, and the bucket
  // rank of each.
  const std::uint32_t height = plan.levels.height;
  const std::size_t num_buckets = EplusPlan::num_buckets(height);
  std::vector<std::uint32_t> run_start;
  std::vector<std::uint32_t> run_rank;
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::uint32_t entry = order[k];
    if (k > 0 && from[order[k - 1]] == from[entry] &&
        to[order[k - 1]] == to[entry]) {
      continue;
    }
    const std::uint32_t lu = level[from[entry]];
    const std::uint32_t lw = level[to[entry]];
    const EplusPlan::Kind kind = lu == lw  ? EplusPlan::kSame
                                 : lu > lw ? EplusPlan::kDown
                                           : EplusPlan::kUp;
    run_start.push_back(static_cast<std::uint32_t>(k));
    run_rank.push_back(
        static_cast<std::uint32_t>(EplusPlan::bucket_rank(kind, lu, height)));
  }
  const std::size_t num_slots = run_start.size();
  run_start.push_back(static_cast<std::uint32_t>(pairs));

  // A stable counting sort of the runs by rank numbers the slots, so
  // each bucket keeps (from, to) order. It sorts runs, not entries: a
  // third pass over the entries would read `from` and `to` at random
  // twice more.
  std::vector<std::uint64_t>& bucket = plan.bucket_offset;
  bucket.assign(num_buckets + 1, 0);
  for (const std::uint32_t r : run_rank) ++bucket[r + 1];
  for (std::size_t k = 0; k < num_buckets; ++k) bucket[k + 1] += bucket[k];
  std::vector<std::uint32_t> slot_of_run(num_slots);
  plan.owner_offset.assign(num_slots + 1, 0);
  {
    std::vector<std::uint64_t> next(bucket.begin(), bucket.end() - 1);
    for (std::size_t r = 0; r < num_slots; ++r) {
      const auto s = static_cast<std::uint32_t>(next[run_rank[r]]++);
      slot_of_run[r] = s;
      plan.owner_offset[s + 1] = run_start[r + 1] - run_start[r];
    }
  }
  for (std::size_t s = 0; s < num_slots; ++s) {
    plan.owner_offset[s + 1] += plan.owner_offset[s];
  }

  // Every slot's pair and owners (its run, in ascending entry order),
  // and every off-diagonal entry's slot.
  PairBlock& slots = plan.slots;
  slots.from.resize(num_slots);
  slots.to.resize(num_slots);
  plan.entry_slot.assign(total, EplusPlan::kNoSlot);
  for (std::size_t r = 0; r < num_slots; ++r) {
    const std::uint32_t s = slot_of_run[r];
    slots.from[s] = from[order[run_start[r]]];
    slots.to[s] = to[order[run_start[r]]];
    std::uint32_t o = plan.owner_offset[s];
    for (std::uint32_t k = run_start[r]; k < run_start[r + 1]; ++k) {
      plan.entry_slot[order[k]] = s;
      sorted[o++] = order[k];
    }
  }
  plan.owner_entry = std::move(sorted);
  plan.gather = build_gather_plan(tree);
  return plan;
}

}  // namespace sepsp
