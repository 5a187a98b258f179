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
  for (std::size_t k = 0; k < total; ++k) {
    const std::uint32_t entry = order[k];
    if (plan.slots.empty() || plan.slots.back().from != from[entry] ||
        plan.slots.back().to != to[entry]) {
      plan.slots.push_back({from[entry], to[entry]});
      plan.owner_offset.push_back(static_cast<std::uint32_t>(k));
    }
    plan.entry_slot[entry] = static_cast<std::uint32_t>(plan.slots.size() - 1);
  }
  plan.owner_offset.push_back(static_cast<std::uint32_t>(total));
  plan.owner_entry = std::move(order);
  plan.slots.shrink_to_fit();
  plan.owner_offset.shrink_to_fit();
  plan.gather = build_gather_plan(tree);
  return plan;
}

}  // namespace sepsp
