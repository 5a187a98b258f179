// Properties of the E+ augmentation (Section 3 / Theorem 3.1):
//   (i)  shortcut weights never undercut true distances, and distances
//        in G+ equal distances in G,
//   (ii) the min-weight diameter of G+ respects 4 d_G + 2 ell + 1,
//   plus: every builder returns an engine and they agree (Algorithm 4.1
//   with Floyd–Warshall closures is build() bit for bit on every
//   semiring), every build lays E+ out one shortcut per plan slot with
//   defined endpoint levels, shortcut weights are exactly
//   dist_{G(t)} on the node subgraphs, the E+ slot plan lays out exactly
//   the pairs Algorithm 4.1 emits and its per-slot minimum reproduces a
//   stable sort and per-pair combine of the raw emission bit for bit,
//   every base arc between leveled vertices is dominated by its slot
//   (why the leveled sweeps can leave base arcs out), the gather plan
//   lists every child position, node_step is bit
//   for bit the textbook steps i-v, critical_depth is the level
//   schedule's depth, and the negative-cycle certificate
//   (cycle_certified()) agrees with a Bellman–Ford oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "approx/approx.hpp"
#include "baseline/negative_cycle.hpp"
#include "core/builder_doubling.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"
#include "store/stored_engine.hpp"
#include "store/writer.hpp"

#include "edge_runs.hpp"

namespace sepsp {
namespace {

// An engine's E+ values, in slot order: its edge arrays hold the one
// copy.
template <Semiring S>
std::vector<typename S::Value> eplus_values(
    const SeparatorShortestPaths<S>& engine) {
  const EdgeBucket<S>& eplus = engine.shortcut_edges();
  std::vector<typename S::Value> out(eplus.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = eplus.value(i);
  return out;
}

struct Family {
  std::string name;
  GeneratedGraph gg;
  SeparatorTree tree;
};

std::vector<Family> families() {
  std::vector<Family> out;
  Rng rng(99);
  {
    Family f{"grid8x8",
             make_grid({8, 8}, WeightModel::uniform(1, 10), rng), {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                  make_grid_finder({8, 8}));
    out.push_back(std::move(f));
  }
  {
    Family f{"grid4x4x4",
             make_grid({4, 4, 4}, WeightModel::uniform(1, 5), rng), {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                  make_grid_finder({4, 4, 4}));
    out.push_back(std::move(f));
  }
  {
    Family f{"tree200", make_random_tree(200, WeightModel::uniform(1, 9), rng),
             {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph), make_tree_finder());
    out.push_back(std::move(f));
  }
  {
    Family f{"trimesh", make_triangulated_grid(8, 8,
                                               WeightModel::uniform(1, 4), rng),
             {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                  make_geometric_finder(f.gg.coords));
    out.push_back(std::move(f));
  }
  {
    Family f{"sparse-random",
             make_random_digraph(150, 450, WeightModel::uniform(1, 9), rng),
             {}};
    f.tree = build_separator_tree(Skeleton(f.gg.graph), make_bfs_finder());
    out.push_back(std::move(f));
  }
  return out;
}

TEST(Augmentation, ShortcutsNeverUndercutTrueDistances) {
  for (const Family& f : families()) {
    const auto values = eplus_values(
        build_augmentation_recursive<TropicalD>(f.gg.graph, f.tree));
    // Group slots by source to reuse one Dijkstra per source.
    const PairBlock& slots = f.tree.eplus_plan()->slots;
    const std::vector<Vertex> from = slot_tails(slots);
    std::map<Vertex, std::vector<std::size_t>> by_source;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      by_source[from[s]].push_back(s);
    }
    for (const auto& [source, in_slots] : by_source) {
      const DijkstraResult dj = dijkstra(f.gg.graph, source);
      for (const std::size_t s : in_slots) {
        EXPECT_GE(values[s], dj.dist[slots.to[s]] - 1e-9)
            << f.name << " shortcut " << source << "->" << slots.to[s];
      }
    }
  }
}

TEST(Augmentation, ShortcutEndpointsHaveDefinedLevels) {
  for (const Family& f : families()) {
    const auto engine =
        build_augmentation_recursive<TropicalD>(f.gg.graph, f.tree);
    // One value per plan slot, in plan order; zero() slots included.
    const EplusPlan& plan = *f.tree.eplus_plan();
    ASSERT_EQ(engine.augmentation().plan.get(), &plan) << f.name;
    ASSERT_EQ(engine.shortcut_edges().size(), plan.num_slots()) << f.name;
    const std::vector<Vertex> from = slot_tails(plan.slots);
    for (std::size_t i = 0; i < plan.num_slots(); ++i) {
      const Vertex u = from[i];
      const Vertex v = plan.slots.to[i];
      EXPECT_TRUE(plan.levels.defined(u)) << f.name;
      EXPECT_TRUE(plan.levels.defined(v)) << f.name;
      EXPECT_NE(u, v) << f.name;
    }
  }
}

// EXPECT_NEAR, with two zero() ("no path") values counting as equal.
void expect_same_value(double got, double want, const std::string& what) {
  if (std::isinf(want)) {
    EXPECT_EQ(got, want) << what;
  } else {
    EXPECT_NEAR(got, want, 1e-9) << what;
  }
}

TEST(Augmentation, Theorem31DiameterBound) {
  Rng pick(5);
  for (const Family& f : families()) {
    const auto engine =
        build_augmentation_recursive<TropicalD>(f.gg.graph, f.tree);
    const std::size_t bound = engine.augmentation().diameter_bound();
    // Sample a few sources; the radius from each must respect the bound.
    for (int trial = 0; trial < 3; ++trial) {
      const auto source =
          static_cast<Vertex>(pick.next_below(f.gg.graph.num_vertices()));
      const std::size_t radius = measure_shortcut_radius(engine, source);
      EXPECT_LE(radius, bound) << f.name << " source " << source;
    }
  }
}

TEST(Augmentation, AugmentationShrinksRadiusDramatically) {
  // On a long path graph the raw min-weight diameter is n-1, while G+
  // must stay logarithmic: the sharpest illustration of Theorem 3.1.
  Rng rng(6);
  const GeneratedGraph gg =
      make_path(257, WeightModel::uniform(1, 3), rng, /*bidirectional=*/true);
  const Skeleton skel(gg.graph);
  const SeparatorTree tree = build_separator_tree(skel, make_tree_finder());
  const auto engine = build_augmentation_recursive<TropicalD>(gg.graph, tree);
  const std::size_t radius = measure_shortcut_radius(engine, 0);
  EXPECT_LE(radius, engine.augmentation().diameter_bound());
  EXPECT_LT(radius, 64u);   // log-ish, nowhere near 256
  EXPECT_GE(engine.augmentation().height, 6u);
}

TEST(Augmentation, BothBuildersProduceIdenticalDistances) {
  for (const Family& f : families()) {
    const auto engine = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
    const std::vector<double> rec = eplus_values(engine);
    const auto dbl_engine =
        build_augmentation_doubling<TropicalD>(f.gg.graph, f.tree);
    const std::vector<double> dbl = eplus_values(dbl_engine);
    // The shortcut edge sets coincide (same Et definition, one plan);
    // values match.
    ASSERT_EQ(engine.augmentation().plan, dbl_engine.augmentation().plan)
        << f.name;
    ASSERT_EQ(rec.size(), dbl.size()) << f.name;
    const PairBlock& slots = engine.augmentation().plan->slots;
    const std::vector<Vertex> slot_from = slot_tails(slots);
    for (std::size_t i = 0; i < rec.size(); ++i) {
      expect_same_value(rec[i], dbl[i],
                        f.name + " edge " + std::to_string(slot_from[i]) +
                            "->" + std::to_string(slots.to[i]));
    }
  }
}

TEST(Augmentation, ClosureKindsAgree) {
  for (const Family& f : families()) {
    const auto sq = eplus_values(build_augmentation_recursive<TropicalD>(
        f.gg.graph, f.tree, ClosureKind::kSquaring));
    const auto fw = eplus_values(build_augmentation_recursive<TropicalD>(
        f.gg.graph, f.tree, ClosureKind::kFloydWarshall));
    ASSERT_EQ(sq.size(), fw.size()) << f.name;
    for (std::size_t i = 0; i < sq.size(); ++i) {
      expect_same_value(sq[i], fw[i], f.name);
    }
  }
}

// Algorithm 4.1's depth as a level-synchronous PRAM schedule counts it:
// per tree level the deepest node — a leaf's Floyd–Warshall, one step per
// vertex, or an internal node's closure of H_S (|S| steps by
// Floyd–Warshall, L(L + 2) by squaring, L = ceil(log2 |S|), at least 1)
// plus two products of depth L + 1 — and at least 1, summed over the
// levels.
std::uint64_t level_schedule_depth(const SeparatorTree& tree,
                                   ClosureKind closure) {
  std::vector<std::uint64_t> deepest(tree.height() + 1, 1);
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& t = tree.node(id);
    std::uint64_t d = t.vertices.size();
    if (!t.is_leaf()) {
      const std::uint64_t s = t.separator.size();
      std::uint64_t log_s = 1;
      while (s > 2 && (std::uint64_t{1} << log_s) < s) ++log_s;
      d = (closure == ClosureKind::kSquaring ? log_s * (log_s + 2) : s) +
          2 * (log_s + 1);
    }
    deepest[t.level] = std::max(deepest[t.level], d);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t d : deepest) total += d;
  return total;
}

TEST(Augmentation, CriticalDepthSumsTheDeepestNodePerLevel) {
  for (const Family& f : families()) {
    for (const ClosureKind closure :
         {ClosureKind::kSquaring, ClosureKind::kFloydWarshall}) {
      const std::uint64_t want = level_schedule_depth(f.tree, closure);
      EXPECT_EQ(build_augmentation_recursive<TropicalD>(f.gg.graph, f.tree,
                                                        closure)
                    .augmentation()
                    .critical_depth,
                want)
          << f.name;
    }
    EXPECT_EQ(SeparatorShortestPaths<>::build(f.gg.graph, f.tree)
                  .augmentation()
                  .critical_depth,
              level_schedule_depth(f.tree, ClosureKind::kFloydWarshall))
        << f.name;
  }
}

TEST(Augmentation, DoublingWithoutEarlyExitMatches) {
  Rng rng(7);
  const GeneratedGraph gg = make_grid({7, 7}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({7, 7}));
  DoublingOptions full;
  full.early_exit = false;
  const auto a =
      eplus_values(build_augmentation_doubling<TropicalD>(gg.graph, tree));
  const auto b = eplus_values(
      build_augmentation_doubling<TropicalD>(gg.graph, tree, full));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
}

TEST(Augmentation, ExactIntegerShortcutsEqualSubgraphDistances) {
  // With integer weights, check shortcut values are *exactly* the
  // distances within the owning node subgraph G(t) — Proposition 4.2.
  Rng rng(8);
  const GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  // Round weights to integers via TropicalI and compare with per-node FW.
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  const auto values =
      eplus_values(build_augmentation_recursive<TropicalI>(gg.graph, tree));
  // Reference: the best per-node brute-force subgraph distance of every
  // emitted pair, kInf ("no path") included.
  std::map<std::pair<Vertex, Vertex>, long long> best;
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& t = tree.node(id);
    const Digraph::Induced sub = gg.graph.induced(t.vertices);
    Matrix<TropicalI> m(t.vertices.size());
    for (std::size_t i = 0; i < t.vertices.size(); ++i) {
      m.at(i, i) = 0;
      for (const Arc& a : sub.graph.out(static_cast<Vertex>(i))) {
        m.merge(i, a.to, TropicalI::from_weight(a.weight));
      }
    }
    floyd_warshall(m);
    auto emit = [&](const std::vector<Vertex>& group) {
      for (const Vertex u : group) {
        for (const Vertex v : group) {
          if (u == v) continue;
          const long long d =
              m.at(sub.local_of[u], sub.local_of[v]);
          const auto key = std::make_pair(u, v);
          const auto it = best.find(key);
          if (it == best.end() || d < it->second) best[key] = d;
        }
      }
    };
    emit(t.separator);
    emit(t.boundary);
  }
  const PairBlock& slots = tree.eplus_plan()->slots;
  const std::vector<Vertex> slot_from = slot_tails(slots);
  ASSERT_EQ(values.size(), best.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const auto it = best.find({slot_from[s], slots.to[s]});
    ASSERT_NE(it, best.end());
    EXPECT_EQ(values[s], it->second)
        << slot_from[s] << "->" << slots.to[s];
  }
}

// --- the E+ slot plan ---------------------------------------------------

// Every entry's pair, in arena order: each node's S x S, then its
// B x B, row-major over the sorted vertex lists, diagonal included.
// Written out here independently of the plan.
std::vector<std::pair<Vertex, Vertex>> entry_pairs(const SeparatorTree& tree) {
  std::vector<std::pair<Vertex, Vertex>> out;
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& t = tree.node(id);
    for (const auto* group : {&t.separator, &t.boundary}) {
      for (const Vertex u : *group) {
        for (const Vertex v : *group) out.emplace_back(u, v);
      }
    }
  }
  return out;
}

TEST(SlotPlan, SlotsAreTheDistinctEmittedPairsOnceEach) {
  for (const Family& f : families()) {
    const EplusPlan& plan = *f.tree.eplus_plan();
    const auto pairs = entry_pairs(f.tree);
    ASSERT_EQ(plan.num_entries(), pairs.size()) << f.name;
    ASSERT_EQ(plan.node_offset.size(), f.tree.num_nodes() + 1) << f.name;
    EXPECT_EQ(plan.node_offset.back(), pairs.size()) << f.name;
    for (std::size_t id = 0; id < f.tree.num_nodes(); ++id) {
      const DecompNode& t = f.tree.node(id);
      EXPECT_EQ(plan.node_offset[id + 1] - plan.node_offset[id],
                t.separator.size() * t.separator.size() +
                    t.boundary.size() * t.boundary.size())
          << f.name << " node " << id;
    }
    std::vector<std::pair<Vertex, Vertex>> distinct;
    for (const auto& p : pairs) {
      if (p.first != p.second) distinct.push_back(p);
    }
    const std::size_t off_diagonal = distinct.size();
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    // Slots are in sweep order, not (from, to) order: sorted, they are
    // the distinct off-diagonal pairs, each exactly once.
    ASSERT_EQ(plan.num_slots(), distinct.size()) << f.name;
    const std::vector<Vertex> slot_from = slot_tails(plan.slots);
    std::vector<std::pair<Vertex, Vertex>> slot_pairs;
    for (std::size_t s = 0; s < plan.num_slots(); ++s) {
      slot_pairs.emplace_back(slot_from[s], plan.slots.to[s]);
    }
    std::sort(slot_pairs.begin(), slot_pairs.end());
    EXPECT_EQ(slot_pairs, distinct) << f.name;
    // A diagonal entry has no slot; every other entry's slot carries the
    // entry's own pair.
    for (std::size_t e = 0; e < pairs.size(); ++e) {
      const std::uint32_t slot = plan.entry_slot[e];
      if (pairs[e].first == pairs[e].second) {
        ASSERT_EQ(slot, EplusPlan::kNoSlot) << f.name << " entry " << e;
        continue;
      }
      ASSERT_LT(slot, plan.num_slots()) << f.name << " entry " << e;
      ASSERT_EQ(slot_from[slot], pairs[e].first)
          << f.name << " entry " << e;
      ASSERT_EQ(plan.slots.to[slot], pairs[e].second)
          << f.name << " entry " << e;
    }
    // The owner CSR lists each off-diagonal entry exactly once, under
    // its own slot, in ascending entry order, and no diagonal entry.
    ASSERT_EQ(plan.owner_offset.size(), plan.num_slots() + 1) << f.name;
    ASSERT_EQ(plan.owner_entry.size(), off_diagonal) << f.name;
    std::vector<std::size_t> owned(pairs.size(), 0);
    for (std::size_t s = 0; s < plan.num_slots(); ++s) {
      ASSERT_LT(plan.owner_offset[s], plan.owner_offset[s + 1]) << f.name;
      for (std::uint32_t o = plan.owner_offset[s]; o < plan.owner_offset[s + 1];
           ++o) {
        ASSERT_LT(plan.owner_entry[o], pairs.size()) << f.name;
        ++owned[plan.owner_entry[o]];
        EXPECT_EQ(plan.entry_slot[plan.owner_entry[o]], s) << f.name;
        if (o > plan.owner_offset[s]) {
          EXPECT_LT(plan.owner_entry[o - 1], plan.owner_entry[o]) << f.name;
        }
      }
    }
    for (std::size_t e = 0; e < pairs.size(); ++e) {
      EXPECT_EQ(owned[e], pairs[e].first == pairs[e].second ? 0u : 1u)
          << f.name << " entry " << e;
    }
  }
}

// The off-diagonal entries of a Floyd–Warshall build, each with its own
// pair, combined per pair in arena order — E+ as a sort-and-combine
// computes it, written out here independently of the plan. zero()
// pairs are kept.
template <Semiring S>
std::map<std::pair<Vertex, Vertex>, typename S::Value> combined_raw_emission(
    const Digraph& g, const SeparatorTree& tree) {
  const auto run =
      detail::run_algorithm41<S>(g, tree, ClosureKind::kFloydWarshall);
  const auto pairs = entry_pairs(tree);
  std::map<std::pair<Vertex, Vertex>, typename S::Value> out;
  for (std::size_t e = 0; e < pairs.size(); ++e) {
    if (pairs[e].first == pairs[e].second) continue;
    const auto [it, fresh] = out.emplace(pairs[e], run.entries[e]);
    if (!fresh) it->second = S::combine(it->second, run.entries[e]);
  }
  return out;
}

template <Semiring S>
void expect_slot_min_matches_sort(const Family& f) {
  using Value = typename S::Value;
  const auto want = combined_raw_emission<S>(f.gg.graph, f.tree);
  const auto engine = SeparatorShortestPaths<S>::build(f.gg.graph, f.tree);
  const auto got = eplus_values(engine);
  const PairBlock& slots = engine.augmentation().plan->slots;
  const std::vector<Vertex> slot_from = slot_tails(slots);
  ASSERT_EQ(got.size(), want.size()) << f.name;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto it = want.find({slot_from[i], slots.to[i]});
    ASSERT_NE(it, want.end()) << f.name << " shortcut " << i;
    ASSERT_EQ(std::memcmp(&got[i], &it->second, sizeof(it->second)), 0)
        << f.name << " shortcut " << i;
  }
  // Algorithm 4.1's free builder with Floyd–Warshall closures returns
  // build()'s engine: E+, certificate and distances bit for bit.
  const auto free_built = build_augmentation_recursive<S>(
      f.gg.graph, f.tree, ClosureKind::kFloydWarshall);
  const auto free_got = eplus_values(free_built);
  ASSERT_EQ(free_got.size(), got.size()) << f.name;
  EXPECT_EQ(std::memcmp(free_got.data(), got.data(),
                        got.size() * sizeof(Value)),
            0)
      << f.name;
  EXPECT_EQ(free_built.cycle_certified(), engine.cycle_certified()) << f.name;
  const auto a = engine.distances(0);
  const auto b = free_built.distances(0);
  ASSERT_EQ(a.dist.size(), b.dist.size()) << f.name;
  EXPECT_EQ(std::memcmp(a.dist.data(), b.dist.data(),
                        a.dist.size() * sizeof(Value)),
            0)
      << f.name;
  EXPECT_EQ(a.negative_cycle, b.negative_cycle) << f.name;
}

TEST(SlotPlan, SlotMinimumIsBitIdenticalToSortAndCombineOnAllSemirings) {
  for (const Family& f : families()) {
    expect_slot_min_matches_sort<TropicalD>(f);
    expect_slot_min_matches_sort<TropicalI>(f);
    expect_slot_min_matches_sort<BooleanSR>(f);
    expect_slot_min_matches_sort<BottleneckSR>(f);
  }
}

TEST(SlotPlan, SignedZeroTieKeepsTheLaterOwner) {
  // Two nodes whose boundary is {3, 7}: slot 0 (3 -> 7) has two owners,
  // cell (0, 1) of each node's 2 x 2 boundary matrix. combine(a, b) =
  // a < b ? a : b keeps b on a tie, so of +0.0 and -0.0 the later
  // owner's bits survive, in both orders.
  constexpr std::uint32_t kNo = EplusPlan::kNoSlot;
  EplusPlan plan;
  plan.node_offset = {0, 4, 8};
  plan.slots.append(3, 7, true);
  plan.slots.append(7, 3, true);
  plan.entry_slot = {kNo, 0, 1, kNo, kNo, 0, 1, kNo};
  plan.owner_offset = {0, 2, 4};
  plan.owner_entry = {1, 5, 2, 6};
  for (const auto& [first, later] : {std::pair{+0.0, -0.0},
                                     std::pair{-0.0, +0.0}}) {
    const std::vector<double> values{0.0, first, 5.0, 0.0,
                                     0.0, later, 5.0, 0.0};
    const double got = detail::slot_min<TropicalD>(plan, 0, values);
    EXPECT_EQ(std::signbit(got), std::signbit(later));
  }
}

// A mixed-sign variant of a family: integer weights shifted by a vertex
// potential, so some arcs are negative but no cycle is.
Family mixed_sign(const Family& f, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> h(f.gg.graph.num_vertices());
  for (double& x : h) x = static_cast<double>(rng.next_int(-6, 6));
  GraphBuilder b(f.gg.graph.num_vertices());
  for (const EdgeTriple& e : f.gg.graph.edge_list()) {
    b.add_edge(e.from, e.to, std::round(e.weight) + h[e.from] - h[e.to]);
  }
  Family out{f.name + "/mixed-sign", f.gg, f.tree};
  out.gg.graph = std::move(b).build();
  return out;
}

// The claim that lets the leveled sweeps leave base arcs out: an arc
// (u, v) between vertices with levels lies in some leaf L, both ends are
// in B(L), so (u, v) is a slot of the same bucket and its built value is
// at least as good as the arc's.
template <Semiring S>
void expect_base_arcs_dominated(const Family& f) {
  const auto engine = SeparatorShortestPaths<S>::build(f.gg.graph, f.tree);
  const EdgeBucket<S>& eplus = engine.shortcut_edges();
  const EplusPlan& plan = *engine.augmentation().plan;
  const LevelAssignment& levels = plan.levels;
  const std::vector<Vertex> from = slot_tails(plan.slots);
  const auto& to = plan.slots.to;
  std::size_t checked = 0;
  for (const EdgeTriple& e : f.gg.graph.edge_list()) {
    if (e.from == e.to || !levels.defined(e.from) ||
        !levels.defined(e.to)) {
      continue;
    }
    // Every bucket is (from, to)-sorted: binary search the pair's.
    const std::uint32_t lu = levels.level[e.from];
    const std::uint32_t lw = levels.level[e.to];
    const EplusPlan::Kind kind = lu == lw  ? EplusPlan::kSame
                                 : lu > lw ? EplusPlan::kDown
                                           : EplusPlan::kUp;
    const std::size_t k = EplusPlan::bucket_rank(kind, lu, levels.height);
    std::size_t lo = plan.bucket_offset[k];
    const std::size_t end = plan.bucket_offset[k + 1];
    std::size_t hi = end;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (from[mid] < e.from || (from[mid] == e.from && to[mid] < e.to)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    ASSERT_LT(lo, end) << f.name << " " << e.from << "->" << e.to;
    ASSERT_EQ(from[lo], e.from) << f.name << " " << e.from << "->" << e.to;
    ASSERT_EQ(to[lo], e.to) << f.name << " " << e.from << "->" << e.to;
    EXPECT_FALSE(S::improves(eplus.value(lo), S::from_weight(e.weight)))
        << f.name << " " << e.from << "->" << e.to;
    ++checked;
  }
  EXPECT_GT(checked, 0u) << f.name;
}

TEST(SlotPlan, BaseArcsBetweenLeveledVerticesAreDominatedByTheirSlots) {
  std::vector<Family> all = families();
  const std::size_t plain = all.size();
  for (std::size_t i = 0; i < plain; ++i) {
    all.push_back(mixed_sign(all[i], 40 + i));
  }
  for (const Family& f : all) {
    expect_base_arcs_dominated<TropicalD>(f);
    expect_base_arcs_dominated<TropicalI>(f);
    expect_base_arcs_dominated<BooleanSR>(f);
    expect_base_arcs_dominated<BottleneckSR>(f);
  }
}

TEST(SlotPlan, GatherPlanListsEveryChildPosition) {
  for (const Family& f : families()) {
    const GatherPlan& gp = f.tree.eplus_plan()->gather;
    const std::size_t num_nodes = f.tree.num_nodes();
    ASSERT_EQ(gp.sep_offset.size(), 2 * num_nodes + 1) << f.name;
    ASSERT_EQ(gp.bnd_offset.size(), 2 * num_nodes + 1) << f.name;
    EXPECT_EQ(gp.sep_offset.back(), gp.sep_index.size()) << f.name;
    EXPECT_EQ(gp.bnd_offset.back(), gp.bnd_row.size()) << f.name;
    EXPECT_EQ(gp.bnd_row.size(), gp.bnd_index.size()) << f.name;
    for (std::size_t id = 0; id < num_nodes; ++id) {
      const DecompNode& t = f.tree.node(id);
      for (int c = 0; c < 2; ++c) {
        const auto s_in = gp.s_in_child(id, c);
        const auto rows = gp.b_rows(id, c);
        const auto b_in = gp.b_in_child(id, c);
        ASSERT_EQ(rows.size(), b_in.size()) << f.name << " node " << id;
        if (t.is_leaf()) {
          EXPECT_TRUE(s_in.empty()) << f.name << " leaf " << id;
          EXPECT_TRUE(rows.empty()) << f.name << " leaf " << id;
          continue;
        }
        const std::vector<Vertex>& bc =
            f.tree.node(static_cast<std::size_t>(t.child[c])).boundary;
        // Every separator vertex, at its position in the child boundary.
        ASSERT_EQ(s_in.size(), t.separator.size()) << f.name << " node " << id;
        for (std::size_t i = 0; i < s_in.size(); ++i) {
          ASSERT_LT(s_in[i], bc.size()) << f.name << " node " << id;
          EXPECT_EQ(bc[s_in[i]], t.separator[i]) << f.name << " node " << id;
        }
        // Exactly the boundary vertices the child shares, ascending.
        std::size_t shared = 0;
        for (const Vertex v : t.boundary) {
          shared += std::binary_search(bc.begin(), bc.end(), v) ? 1 : 0;
        }
        ASSERT_EQ(rows.size(), shared) << f.name << " node " << id;
        for (std::size_t k = 0; k < rows.size(); ++k) {
          if (k > 0) {
            EXPECT_LT(rows[k - 1], rows[k]) << f.name;
          }
          ASSERT_LT(rows[k], t.boundary.size()) << f.name << " node " << id;
          ASSERT_LT(b_in[k], bc.size()) << f.name << " node " << id;
          EXPECT_EQ(bc[b_in[k]], t.boundary[rows[k]])
              << f.name << " node " << id;
        }
      }
    }
  }
}

// Steps i-v as the paper states them, written out independently of the
// gather plan: vertex -> index maps over the children's boundaries, a
// kNpos branch per cell, and the crossing matrix kept apart from the
// boundary matrix until step v merges them.
template <Semiring S>
void textbook_node_step(const Digraph& g, const SeparatorTree& tree,
                        std::size_t id, const std::vector<Matrix<S>>& bnd,
                        Matrix<S>& hs, Matrix<S>& bm) {
  constexpr std::size_t kNpos = detail::VertexIndexMap::kNpos;
  const DecompNode& t = tree.node(id);
  const std::vector<Vertex>& st = t.separator;
  const std::vector<Vertex>& bt = t.boundary;
  if (t.is_leaf()) {
    detail::VertexIndexMap map(g.num_vertices());
    map.bind(t.vertices);
    Matrix<S> local(t.vertices.size(), t.vertices.size());
    for (std::size_t i = 0; i < t.vertices.size(); ++i) {
      local.at(i, i) = S::one();
      for (const Arc& a : g.out(t.vertices[i])) {
        const std::size_t j = map.find(a.to);
        if (j != kNpos) local.merge(i, j, S::from_weight(a.weight));
      }
    }
    floyd_warshall(local);
    bm.reset(bt.size());
    for (std::size_t p = 0; p < bt.size(); ++p) {
      for (std::size_t q = 0; q < bt.size(); ++q) {
        bm.at(p, q) = local.at(map.find(bt[p]), map.find(bt[q]));
      }
    }
    hs.reset(0);
    return;
  }
  std::vector<std::size_t> s_in[2], b_in[2];
  for (int c = 0; c < 2; ++c) {
    detail::VertexIndexMap map(g.num_vertices());
    map.bind(tree.node(static_cast<std::size_t>(t.child[c])).boundary);
    for (const Vertex v : st) s_in[c].push_back(map.find(v));
    for (const Vertex v : bt) b_in[c].push_back(map.find(v));
  }
  const Matrix<S>* child[2] = {&bnd[static_cast<std::size_t>(t.child[0])],
                               &bnd[static_cast<std::size_t>(t.child[1])]};
  // i. H_S from the children.
  hs.reset(st.size());
  for (int c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < st.size(); ++i) {
      for (std::size_t j = 0; j < st.size(); ++j) {
        hs.merge(i, j, child[c]->at(s_in[c][i], s_in[c][j]));
      }
    }
  }
  // ii. Its closure.
  floyd_warshall(hs);
  // iii. B -> S and S -> B.
  Matrix<S> b_to_s(bt.size(), st.size());
  Matrix<S> s_to_b(st.size(), bt.size());
  for (int c = 0; c < 2; ++c) {
    for (std::size_t p = 0; p < bt.size(); ++p) {
      if (b_in[c][p] == kNpos) continue;
      for (std::size_t q = 0; q < st.size(); ++q) {
        b_to_s.merge(p, q, child[c]->at(b_in[c][p], s_in[c][q]));
        s_to_b.merge(q, p, child[c]->at(s_in[c][q], b_in[c][p]));
      }
    }
  }
  // iv. The 3-limited crossing.
  const Matrix<S> through = multiply(multiply(b_to_s, hs), s_to_b);
  // v. The empty path, the crossing, then each child's direct distance.
  bm.reset(bt.size());
  for (std::size_t p = 0; p < bt.size(); ++p) bm.at(p, p) = S::one();
  for (std::size_t p = 0; p < bt.size(); ++p) {
    for (std::size_t q = 0; q < bt.size(); ++q) {
      bm.merge(p, q, through.at(p, q));
    }
  }
  for (int c = 0; c < 2; ++c) {
    for (std::size_t p = 0; p < bt.size(); ++p) {
      for (std::size_t q = 0; q < bt.size(); ++q) {
        if (b_in[c][p] == kNpos || b_in[c][q] == kNpos) continue;
        bm.merge(p, q, child[c]->at(b_in[c][p], b_in[c][q]));
      }
    }
  }
}

/// memcmp of row i's cols() real cells against `cells` (rows are ld()
/// apart, so a matrix is compared row by row).
template <Semiring S>
bool row_bits_equal(const Matrix<S>& m, std::size_t i,
                    const typename S::Value* cells) {
  return std::memcmp(m.row(i), cells,
                     m.cols() * sizeof(typename S::Value)) == 0;
}

template <Semiring S>
bool bit_equal(const Matrix<S>& a, const Matrix<S>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (!row_bits_equal(a, i, b.row(i))) return false;
  }
  return true;
}

template <Semiring S>
void expect_node_step_matches_textbook(const Family& f) {
  using Value = typename S::Value;
  const auto run = detail::run_algorithm41<S>(f.gg.graph, f.tree,
                                              ClosureKind::kFloydWarshall);
  const EplusPlan& plan = *f.tree.eplus_plan();
  detail::RecursiveScratch<S> sc(f.gg.graph.num_vertices());
  // The textbook steps run leaves-up (children have larger ids) on their
  // own boundary matrices, never on the build's arena.
  std::vector<Matrix<S>> want_bnd(f.tree.num_nodes());
  Matrix<S> want_hs;
  for (std::size_t id = f.tree.num_nodes(); id-- > 0;) {
    detail::node_step<S>(f.gg.graph, f.tree, id, run.entries,
                         ClosureKind::kFloydWarshall,
                         [](const Arc& a) { return a.weight; }, sc);
    textbook_node_step<S>(f.gg.graph, f.tree, id, want_bnd, want_hs,
                          want_bnd[id]);
    const Matrix<S>& want_bm = want_bnd[id];
    ASSERT_TRUE(bit_equal(sc.hs, want_hs)) << f.name << " node " << id;
    ASSERT_TRUE(bit_equal(sc.bm, want_bm)) << f.name << " node " << id;
    // The node's slice of the build's arena: the textbook H_S, then the
    // textbook boundary matrix, whole.
    const std::size_t hs_cells = want_hs.rows() * want_hs.cols();
    const std::size_t bm_cells = want_bm.rows() * want_bm.cols();
    const std::size_t lo = plan.node_offset[id];
    ASSERT_EQ(plan.node_offset[id + 1] - lo, hs_cells + bm_cells)
        << f.name << " node " << id;
    const Value* slice = run.entries.data() + lo;
    const Matrix<S>* wants[] = {&want_hs, &want_bm};
    for (const Matrix<S>* want : wants) {
      for (std::size_t i = 0; i < want->rows(); ++i) {
        EXPECT_TRUE(row_bits_equal(*want, i, slice))
            << f.name << " node " << id << " row " << i;
        slice += want->cols();
      }
    }
  }
}

TEST(NodeStep, BitIdenticalToTheTextbookStepsOnAllSemirings) {
  for (const Family& f : families()) {
    expect_node_step_matches_textbook<TropicalD>(f);
    expect_node_step_matches_textbook<TropicalI>(f);
    expect_node_step_matches_textbook<BooleanSR>(f);
    expect_node_step_matches_textbook<BottleneckSR>(f);
  }
}

TEST(SlotPlan, EnginesBuiltOnOneTreeShareOnePlan) {
  Rng rng(5);
  const GeneratedGraph gg = make_grid({9, 9}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({9, 9}));
  const EplusPlan* plan = tree.eplus_plan().get();
  ASSERT_NE(plan, nullptr);
  const SeparatorTree copy = tree;
  EXPECT_EQ(copy.eplus_plan().get(), plan);

  const Digraph reversed = gg.graph.transpose();
  const auto fwd = SeparatorShortestPaths<>::build(gg.graph, tree);
  const auto bwd = SeparatorShortestPaths<>::build(reversed, tree);
  EXPECT_EQ(fwd.augmentation().plan.get(), plan);
  EXPECT_EQ(bwd.augmentation().plan.get(), plan);
  const auto dbl = build_augmentation_doubling<TropicalD>(gg.graph, tree);
  EXPECT_EQ(dbl.augmentation().plan.get(), plan);
  IncrementalEngine inc = IncrementalEngine::build(gg.graph, tree);
  EXPECT_EQ(inc.augmentation().plan.get(), plan);
  ApproxEngine::Options opts;
  opts.build.approx_eps = 0.1;
  const ApproxEngine approx = ApproxEngine::build(gg.graph, tree, opts);
  EXPECT_EQ(approx.engine().augmentation().plan.get(), plan);

  // Every engine keeps every plan slot, unreachable ones too, in its
  // own edge arrays.
  const auto expect_one_copy = [&](const auto& engine, const char* kind) {
    EXPECT_EQ(engine.stats().eplus_edges, plan->num_slots()) << kind;
  };
  expect_one_copy(fwd, "build");
  expect_one_copy(bwd, "build (reversed)");
  expect_one_copy(dbl, "build_augmentation_doubling");
  expect_one_copy(approx.engine(), "ApproxEngine::engine()");
  expect_one_copy(*inc.snapshot().engine, "IncrementalEngine");
  inc.update_edge(0, 1, 100.0);
  inc.apply();
  expect_one_copy(*inc.snapshot().engine, "IncrementalEngine after apply()");

  const std::string path = ::testing::TempDir() + "sepsp_one_plan.img";
  std::string error;
  ASSERT_TRUE(store::write_engine_image(path, fwd, &error)) << error;
  {
    const auto stored = store::StoredEngine<TropicalD>::open(path, {}, &error);
    ASSERT_TRUE(stored.has_value()) << error;
    expect_one_copy(stored->engine(), "StoredEngine");
  }
  std::remove(path.c_str());
}

TEST(SlotPlan, ConcurrentBuildsOnOneTreeAgree) {
  const Family f = families()[3];  // the triangulated mesh
  const std::vector<double> want = eplus_values(
      SeparatorShortestPaths<>::build(f.gg.graph, f.tree));
  std::vector<std::vector<double>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      got[i] = eplus_values(
          SeparatorShortestPaths<>::build(f.gg.graph, f.tree));
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& g : got) {
    ASSERT_EQ(g.size(), want.size());
    EXPECT_EQ(std::memcmp(g.data(), want.data(), g.size() * sizeof(g[0])), 0);
  }
}

TEST(SlotPlan, QueryEngineWrapsAnAlgorithm43Build) {
  // Algorithm 4.3 lays its shortcuts out by the plan too, so the engine
  // it returns shares the bucket layout and answers like the exact one.
  for (const Family& f : families()) {
    const auto exact = SeparatorShortestPaths<>::build(f.gg.graph, f.tree);
    const auto dbl =
        build_augmentation_doubling<TropicalD>(f.gg.graph, f.tree);
    const auto last = static_cast<Vertex>(f.gg.graph.num_vertices() - 1);
    for (const Vertex s : {Vertex{0}, last}) {
      const auto want = exact.distances(s);
      const auto got = dbl.distances(s);
      for (Vertex v = 0; v < f.gg.graph.num_vertices(); ++v) {
        if (!want.reached(v)) {
          EXPECT_FALSE(got.reached(v)) << f.name;
        } else {
          EXPECT_NEAR(got.dist[v], want.dist[v], 1e-9) << f.name << " v=" << v;
        }
      }
    }
  }
}

// --- the negative-cycle certificate -----------------------------------

// `g` with every arc reweighted by weight_of(edge) and the extra arcs
// appended (parallel arcs keep the minimum). The skeleton is unchanged
// whenever the extra arcs join skeleton neighbours (or are self-loops).
template <typename WeightOf>
Digraph reweight(const Digraph& g, const WeightOf& weight_of,
                 const std::vector<EdgeTriple>& extra = {}) {
  GraphBuilder b(g.num_vertices());
  for (EdgeTriple e : g.edge_list()) {
    e.weight = weight_of(e);
    b.add_edge(e.from, e.to, e.weight);
  }
  b.add_edges(extra);
  return std::move(b).build();
}

// Checks the certificate of the engines Algorithm 4.1 returns over g
// against the oracle; returns the oracle's verdict.
bool expect_certificate_matches_oracle(const Digraph& g,
                                       const SeparatorTree& tree,
                                       const std::string& what) {
  const bool oracle = !find_negative_cycle(g).has_value();
  EXPECT_EQ(build_augmentation_recursive<TropicalD>(
                g, tree, ClosureKind::kFloydWarshall)
                .cycle_certified(),
            oracle)
      << what;
  if (oracle) {
    // TropicalI certifies too. Only on cycle-free input: around a
    // negative cycle Floyd–Warshall cells can double per pivot, past
    // the range of long long.
    EXPECT_TRUE(build_augmentation_recursive<TropicalI>(
                    g, tree, ClosureKind::kFloydWarshall)
                    .cycle_certified())
        << what;
  }
  const auto engine = SeparatorShortestPaths<>::build(g, tree);
  EXPECT_EQ(engine.cycle_certified(), oracle) << what;
  EXPECT_EQ(engine.stats().cycle_certified, oracle) << what;
  // Certified or not, replies keep the oracle's per-source verdict, and
  // a certified engine's distances are exact.
  const Vertex source = static_cast<Vertex>(g.num_vertices() / 2);
  const auto got = engine.distances(source);
  const BellmanFordResult want = bellman_ford(g, source);
  EXPECT_EQ(got.negative_cycle, want.negative_cycle) << what;
  if (oracle) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(got.dist[v], want.dist[v]) << what << " v=" << v;
    }
  }
  return oracle;
}

TEST(CycleCertificate, MatchesOracleOnRandomMixedSignInstances) {
  // Integer weights keep every sum exact in double, so the certificate
  // is held to the oracle exactly. Half the instances are potential-
  // shifted (never a negative cycle, zero-weight cycles common); half
  // draw raw mixed-sign weights; every fifth plants a negative 2-cycle.
  Rng rng(2023);
  std::size_t certified = 0;
  std::size_t cyclic = 0;
  for (int trial = 0; trial < 240; ++trial) {
    GeneratedGraph gg;
    SeparatorFinder finder;
    switch (trial % 3) {
      case 0: {
        const std::size_t side = 3 + rng.next_below(4);
        gg = make_grid({side, side}, WeightModel::unit(), rng);
        finder = make_grid_finder({side, side});
        break;
      }
      case 1:
        gg = make_grid({3, 3, 3}, WeightModel::unit(), rng);
        finder = make_grid_finder({3, 3, 3});
        break;
      default: {
        const std::size_t n = 20 + rng.next_below(30);
        gg = make_random_digraph(n, 3 * n, WeightModel::unit(), rng);
        finder = make_bfs_finder();
        break;
      }
    }
    const Digraph& base = gg.graph;
    std::vector<double> h(base.num_vertices(), 0.0);
    const bool shifted = trial % 2 == 0;
    if (shifted) {
      for (double& x : h) x = static_cast<double>(rng.next_int(-6, 6));
    }
    const std::int64_t lo = -1 - static_cast<std::int64_t>(trial / 2 % 4);
    std::vector<EdgeTriple> extra;
    if (trial % 5 == 1 && base.num_edges() > 0) {
      const EdgeTriple e = base.edge_list()[rng.next_below(base.num_edges())];
      extra.push_back({e.to, e.from, -20.0});  // w(e) <= 16: cycle <= -4
    }
    const Digraph g = reweight(
        base,
        [&](const EdgeTriple& e) {
          return shifted ? static_cast<double>(rng.next_int(0, 4)) +
                               h[e.from] - h[e.to]
                         : static_cast<double>(rng.next_int(lo, 9));
        },
        extra);
    const SeparatorTree tree = build_separator_tree(Skeleton(g), finder);
    const bool oracle = expect_certificate_matches_oracle(
        g, tree, "trial " + std::to_string(trial));
    ++(oracle ? certified : cyclic);
  }
  // Both verdicts are well represented.
  EXPECT_GE(certified, 80u);
  EXPECT_GE(cyclic, 60u);
}

TEST(CycleCertificate, NegativeSelfLoop) {
  Rng rng(11);
  const GeneratedGraph gg = make_grid({4, 4}, WeightModel::unit(), rng);
  const Digraph g = reweight(
      gg.graph, [](const EdgeTriple& e) { return e.weight; }, {{5, 5, -1.0}});
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({4, 4}));
  EXPECT_FALSE(expect_certificate_matches_oracle(g, tree, "self-loop"));
}

TEST(CycleCertificate, TwoCycleThroughTheRootSeparator) {
  // s in S(root), v beside it: s -> v -> s weighs w(s, v) + w(v, s).
  Rng rng(12);
  const GeneratedGraph gg = make_grid({5, 5}, WeightModel::unit(), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({5, 5}));
  const Vertex s = tree.root().separator.front();
  Vertex v = kInvalidVertex;
  for (const Arc& a : gg.graph.out(s)) {
    if (!std::binary_search(tree.root().separator.begin(),
                            tree.root().separator.end(), a.to)) {
      v = a.to;
    }
  }
  ASSERT_NE(v, kInvalidVertex);
  auto two_cycle = [&](double there, double back) {
    return reweight(gg.graph, [&](const EdgeTriple& e) {
      if (e.from == s && e.to == v) return there;
      if (e.from == v && e.to == s) return back;
      return e.weight;
    });
  };
  EXPECT_FALSE(
      expect_certificate_matches_oracle(two_cycle(1.0, -2.0), tree, "-1"));
  // Weight exactly zero (every other s-v walk weighs >= 0 too): no
  // negative cycle, and the strict check must certify it.
  EXPECT_TRUE(
      expect_certificate_matches_oracle(two_cycle(3.0, -3.0), tree, "zero"));
}

TEST(CycleCertificate, RingAroundTheSeparatorIsCaughtByTheRootClosure) {
  // Arcs running one way around the square ring 1 <= x, y <= 5 of a 7x7
  // grid weigh -1, all others +1: only walks around most of the ring are
  // negative, so no child holds a negative cycle and the root's closed
  // H_S must report it.
  constexpr std::size_t kSide = 7;
  Rng rng(13);
  const GeneratedGraph gg =
      make_grid({kSide, kSide}, WeightModel::unit(), rng);
  std::vector<Vertex> ring;
  auto at = [](std::size_t x, std::size_t y) {
    return static_cast<Vertex>(y * kSide + x);
  };
  for (std::size_t x = 1; x < 5; ++x) ring.push_back(at(x, 1));
  for (std::size_t y = 1; y < 5; ++y) ring.push_back(at(5, y));
  for (std::size_t x = 5; x > 1; --x) ring.push_back(at(x, 5));
  for (std::size_t y = 5; y > 1; --y) ring.push_back(at(1, y));
  const Digraph g = reweight(gg.graph, [&](const EdgeTriple& e) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      if (e.from == ring[i] && e.to == ring[(i + 1) % ring.size()]) {
        return -1.0;
      }
    }
    return 1.0;
  });
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_grid_finder({kSide, kSide}));
  EXPECT_FALSE(expect_certificate_matches_oracle(g, tree, "ring"));
  const auto run = detail::run_algorithm41<TropicalD>(
      g, tree, ClosureKind::kFloydWarshall);
  EXPECT_EQ(run.negative_diagonal[0], 1);  // node 0 is the root
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    if (tree.node(id).is_leaf()) {
      EXPECT_EQ(run.negative_diagonal[id], 0) << "leaf " << id;
    }
  }
}

TEST(CycleCertificate, OnlyFloydWarshallBuildsCertify) {
  // The squaring closure and Algorithm 4.3 carry no certificate, so
  // the engines they return keep the verification pass.
  Rng rng(14);
  const GeneratedGraph gg = make_grid({6, 6}, WeightModel::uniform(1, 9), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({6, 6}));
  EXPECT_TRUE(build_augmentation_recursive<TropicalD>(
                  gg.graph, tree, ClosureKind::kFloydWarshall)
                  .cycle_certified());
  const auto squaring = build_augmentation_recursive<TropicalD>(
      gg.graph, tree, ClosureKind::kSquaring);
  EXPECT_FALSE(squaring.cycle_certified());
  EXPECT_TRUE(squaring.detects_negative_cycles());
  const auto dbl = build_augmentation_doubling<TropicalD>(gg.graph, tree);
  EXPECT_FALSE(dbl.cycle_certified());
  EXPECT_TRUE(dbl.detects_negative_cycles());
  EXPECT_FALSE(
      SeparatorShortestPaths<>::build(gg.graph, tree).detects_negative_cycles());
}

}  // namespace
}  // namespace sepsp
