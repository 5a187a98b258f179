#include "separator/eplus_plan.hpp"

#include <algorithm>
#include <limits>
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

/// Assigns every slot its leveled bucket and position, and fills the
/// buckets' pair blocks: one counting pass sizes the buckets, a second
/// places the slots. Slots arrive (from, to)-sorted, so every bucket
/// does too.
void lay_out_buckets(EplusPlan& plan) {
  const std::vector<std::uint32_t>& level = plan.levels.level;
  const std::size_t num_slots = plan.num_slots();
  std::vector<std::uint32_t> cursor(3 * plan.num_levels(), 0);
  plan.slot_bucket.resize(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    const std::uint32_t lu = level[plan.slots.from[s]];
    const std::uint32_t lw = level[plan.slots.to[s]];
    SEPSP_CHECK_MSG(lu != LevelAssignment::kUndefined &&
                        lw != LevelAssignment::kUndefined,
                    "E+ slot endpoint without a level");
    const EplusPlan::Kind kind = lu == lw  ? EplusPlan::kSame
                                 : lu > lw ? EplusPlan::kDown
                                           : EplusPlan::kUp;
    const auto b = static_cast<std::uint32_t>(plan.bucket_index(kind, lu));
    plan.slot_bucket[s] = b;
    ++cursor[b];
  }
  plan.buckets.resize(cursor.size());
  for (std::size_t b = 0; b < cursor.size(); ++b) {
    plan.buckets[b].from.resize(cursor[b]);
    plan.buckets[b].to.resize(cursor[b]);
    cursor[b] = 0;
  }
  plan.slot_pos.resize(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    const std::uint32_t b = plan.slot_bucket[s];
    const std::uint32_t pos = cursor[b]++;
    plan.slot_pos[s] = pos;
    plan.buckets[b].from[pos] = plan.slots.from[s];
    plan.buckets[b].to[pos] = plan.slots.to[s];
  }
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
    total += pair_count(t.separator.size()) + pair_count(t.boundary.size());
  }
  plan.node_offset[num_nodes] = total;
  SEPSP_CHECK_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                  "E+ emission exceeds 2^32 entries");

  // The raw pairs, in emission order.
  std::vector<Vertex> from(total), to(total);
  std::size_t e = 0;
  const auto emit = [&](std::span<const Vertex> verts) {
    for (const Vertex u : verts) {
      for (const Vertex v : verts) {
        if (u == v) continue;
        from[e] = u;
        to[e] = v;
        ++e;
      }
    }
  };
  for (std::size_t id = 0; id < num_nodes; ++id) {
    emit(tree.node(id).separator);
    emit(tree.node(id).boundary);
  }
  SEPSP_DCHECK(e == total);

  // Entry indices sorted by (from, to), ties in ascending entry order:
  // a stable counting sort by `to`, then one by `from`.
  const std::size_t n = tree.num_graph_vertices();
  std::vector<std::uint32_t> pos(n + 1);
  std::vector<std::uint32_t> by_to(total);
  std::vector<std::uint32_t> order(total);
  const auto scatter = [&](const std::vector<Vertex>& key, auto&& source,
                           std::vector<std::uint32_t>& out) {
    std::fill(pos.begin(), pos.end(), 0);
    for (std::size_t i = 0; i < total; ++i) ++pos[key[source(i)] + 1];
    for (std::size_t v = 0; v < n; ++v) pos[v + 1] += pos[v];
    for (std::size_t i = 0; i < total; ++i) {
      const std::uint32_t entry = source(i);
      out[pos[key[entry]]++] = entry;
    }
  };
  scatter(to, [](std::size_t i) { return static_cast<std::uint32_t>(i); },
          by_to);
  scatter(from, [&](std::size_t i) { return by_to[i]; }, order);

  plan.entry_slot.resize(total);
  PairBlock& slots = plan.slots;
  for (std::size_t k = 0; k < total; ++k) {
    const std::uint32_t entry = order[k];
    if (slots.from.empty() || slots.from.back() != from[entry] ||
        slots.to.back() != to[entry]) {
      slots.from.push_back(from[entry]);
      slots.to.push_back(to[entry]);
      plan.owner_offset.push_back(static_cast<std::uint32_t>(k));
    }
    plan.entry_slot[entry] = static_cast<std::uint32_t>(slots.size() - 1);
  }
  plan.owner_offset.push_back(static_cast<std::uint32_t>(total));
  plan.owner_entry = std::move(order);
  slots.from.shrink_to_fit();
  slots.to.shrink_to_fit();
  plan.owner_offset.shrink_to_fit();
  plan.levels = compute_levels(tree);
  lay_out_buckets(plan);
  plan.gather = build_gather_plan(tree);
  return plan;
}

}  // namespace sepsp
