// Incremental reweighting: staged updates recompute only the affected
// tree nodes yet always agree with a fresh build / Dijkstra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/bellman_ford.hpp"
#include "baseline/dijkstra.hpp"
#include "baseline/negative_cycle.hpp"
#include "core/builder_recursive.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "separator/finders.hpp"

#include "edge_runs.hpp"

namespace sepsp {
namespace {

struct Fixture {
  GeneratedGraph gg;
  SeparatorTree tree;
};

Fixture make_grid_fixture(std::size_t side, std::uint64_t seed) {
  Rng rng(seed);
  Fixture f{make_grid({side, side}, WeightModel::uniform(1, 9), rng), {}};
  f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                make_grid_finder({side, side}));
  return f;
}

void expect_matches_dijkstra(const IncrementalEngine& engine,
                             const Digraph& reference, Vertex source) {
  const auto got = engine.distances(source);
  const DijkstraResult want = dijkstra(reference, source);
  for (Vertex v = 0; v < reference.num_vertices(); ++v) {
    if (std::isinf(want.dist[v])) {
      EXPECT_TRUE(std::isinf(got.dist[v])) << v;
    } else {
      EXPECT_NEAR(got.dist[v], want.dist[v], 1e-8) << v;
    }
  }
}

// Reference graph with selected arc weights replaced.
Digraph reweighted(const Digraph& g,
                   const std::vector<EdgeTriple>& updates) {
  GraphBuilder b(g.num_vertices());
  for (EdgeTriple e : g.edge_list()) {
    for (const EdgeTriple& u : updates) {
      if (u.from == e.from && u.to == e.to) e.weight = u.weight;
    }
    b.add_edge(e.from, e.to, e.weight);
  }
  return std::move(b).build(/*dedup_min=*/false);
}

// An engine's E+ values in slot order, read from its edge arrays (E+'s
// one copy: an engine's augmentation holds no values).
std::vector<double> eplus_values(
    const SeparatorShortestPaths<TropicalD>& engine) {
  const EdgeBucket<TropicalD>& eplus = engine.shortcut_edges();
  std::vector<double> out(eplus.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = eplus.value(i);
  return out;
}

// The incremental E+ and the exact builder's both keep one value per
// plan slot, +inf (unreachable) slots included, in plan order: require
// the exact builder's plan and value bits, slot for slot.
void expect_matches_exact_build(const IncrementalEngine& engine,
                                const Digraph& reference,
                                const SeparatorTree& tree) {
  const auto engine_build = SeparatorShortestPaths<>::build(reference, tree);
  ASSERT_EQ(engine.augmentation().plan, engine_build.augmentation().plan);
  const std::vector<double> got = eplus_values(*engine.snapshot().engine);
  const std::vector<double> want = eplus_values(engine_build);
  ASSERT_EQ(got.size(), want.size());
  const PairBlock& slots = engine.augmentation().plan->slots;
  const std::vector<Vertex> slot_from = slot_tails(slots);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "shortcut " << i << " (" << slot_from[i] << "->" << slots.to[i]
        << ")";
  }
}

TEST(Incremental, AugmentationBitIdenticalToExactBuild) {
  const Fixture f = make_grid_fixture(11, 29);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  expect_matches_exact_build(engine, f.gg.graph, f.tree);

  std::vector<EdgeTriple> updates;
  Rng pick(31);
  const auto edges = f.gg.graph.edge_list();
  for (int i = 0; i < 10; ++i) {
    const EdgeTriple& e = edges[pick.next_below(edges.size())];
    updates.push_back({e.from, e.to, pick.next_double(0.25, 25.0)});
  }
  // A later update of the same arc wins, in the engine and the reference.
  for (const EdgeTriple& u : updates) engine.update_edge(u.from, u.to, u.weight);
  ASSERT_GT(engine.apply(), 0u);
  expect_matches_exact_build(engine, reweighted(f.gg.graph, updates), f.tree);
}

TEST(Incremental, FreshBuildMatchesDijkstra) {
  const Fixture f = make_grid_fixture(9, 1);
  const IncrementalEngine engine =
      IncrementalEngine::build(f.gg.graph, f.tree);
  expect_matches_dijkstra(engine, f.gg.graph, 0);
  expect_matches_dijkstra(engine, f.gg.graph, 40);
}

TEST(Incremental, SingleUpdateTouchesFewNodesAndStaysExact) {
  const Fixture f = make_grid_fixture(12, 2);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  const std::vector<EdgeTriple> updates{{5, 6, 0.25}};
  engine.update_edge(5, 6, 0.25);
  const std::size_t touched = engine.apply();
  EXPECT_GT(touched, 0u);
  EXPECT_LT(touched, f.tree.num_nodes() / 4);  // localized, not a rebuild
  EXPECT_DOUBLE_EQ(engine.weight(5, 6), 0.25);
  const Digraph reference = reweighted(f.gg.graph, updates);
  expect_matches_dijkstra(engine, reference, 0);
  expect_matches_dijkstra(engine, reference, 100);
}

TEST(Incremental, BatchedUpdates) {
  const Fixture f = make_grid_fixture(10, 3);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  std::vector<EdgeTriple> updates;
  Rng pick(4);
  for (const EdgeTriple& e : f.gg.graph.edge_list()) {
    if (pick.next_bool(0.05)) {
      updates.push_back({e.from, e.to, e.weight * 10.0});
      engine.update_edge(e.from, e.to, e.weight * 10.0);
    }
  }
  ASSERT_FALSE(updates.empty());
  engine.apply();
  const Digraph reference = reweighted(f.gg.graph, updates);
  expect_matches_dijkstra(engine, reference, 37);
}

TEST(Incremental, RepeatedUpdateCyclesConverge) {
  const Fixture f = make_grid_fixture(8, 5);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  std::vector<EdgeTriple> current = f.gg.graph.edge_list();
  Rng rng(6);
  for (int round = 0; round < 5; ++round) {
    const std::size_t idx = rng.next_below(current.size());
    const double w = rng.next_double(0.5, 20.0);
    current[idx].weight = w;
    // Parallel arcs share the update in the engine; mirror that.
    for (auto& e : current) {
      if (e.from == current[idx].from && e.to == current[idx].to) {
        e.weight = w;
      }
    }
    engine.update_edge(current[idx].from, current[idx].to, w);
    engine.apply();
    GraphBuilder b(f.gg.graph.num_vertices());
    for (const auto& e : current) b.add_edge(e.from, e.to, e.weight);
    const Digraph reference = std::move(b).build(/*dedup_min=*/false);
    expect_matches_dijkstra(engine, reference, 0);
  }
}

TEST(Incremental, NegativeReweightingSupported) {
  const Fixture f = make_grid_fixture(7, 7);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  // Make one edge mildly negative (no cycle becomes negative: the grid
  // has all-positive weights >= 1 and cycles of length >= 4).
  engine.update_edge(0, 1, -0.5);
  engine.apply();
  const Digraph reference = reweighted(f.gg.graph, {{0, 1, -0.5}});
  const auto got = engine.distances(0);
  ASSERT_FALSE(got.negative_cycle);
  const BellmanFordResult want = bellman_ford(reference, 0);
  ASSERT_FALSE(want.negative_cycle);
  for (Vertex v = 0; v < reference.num_vertices(); ++v) {
    EXPECT_NEAR(got.dist[v], want.dist[v], 1e-9) << v;
  }
  EXPECT_NEAR(got.dist[1], -0.5, 1e-9);
}

TEST(Incremental, SnapshotsServeBatchedQueriesPreAndPostUpdate) {
  const Fixture f = make_grid_fixture(9, 10);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  const std::vector<Vertex> sources{0, 7, 23, 44, 61, 80};

  const IncrementalEngine::Snapshot pre = engine.snapshot();
  EXPECT_EQ(pre.epoch, 0u);

  const std::vector<EdgeTriple> updates{{4, 5, 0.25}, {40, 41, 30.0}};
  for (const EdgeTriple& u : updates) {
    engine.update_edge(u.from, u.to, u.weight);
  }
  engine.apply();
  const IncrementalEngine::Snapshot post = engine.snapshot();
  EXPECT_EQ(post.epoch, 1u);

  // Each frozen engine answers the batched-lane workload against the
  // weighting of its own epoch — the pre snapshot is unaffected by the
  // update applied after it was taken.
  const Digraph post_ref = reweighted(f.gg.graph, updates);
  const auto pre_got = pre.engine->distances_batch(sources, {.lanes = 4});
  const auto post_got = post.engine->distances_batch(sources, {.lanes = 4});
  ASSERT_EQ(pre_got.size(), sources.size());
  ASSERT_EQ(post_got.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const DijkstraResult pre_want = dijkstra(f.gg.graph, sources[i]);
    const DijkstraResult post_want = dijkstra(post_ref, sources[i]);
    for (Vertex v = 0; v < f.gg.graph.num_vertices(); ++v) {
      EXPECT_NEAR(pre_got[i].dist[v], pre_want.dist[v], 1e-9)
          << "pre s=" << sources[i] << " v=" << v;
      EXPECT_NEAR(post_got[i].dist[v], post_want.dist[v], 1e-9)
          << "post s=" << sources[i] << " v=" << v;
    }
  }
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Incremental, HeldSnapshotStaysBitIdenticalAcrossApplies) {
  const Fixture f = make_grid_fixture(9, 21);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  const std::vector<Vertex> sources{0, 13, 57, 80};

  const IncrementalEngine::Snapshot held = engine.snapshot();
  std::vector<std::vector<double>> before;
  for (const Vertex s : sources) {
    before.push_back(held.engine->distances(s).dist);
  }

  // Two further epochs, each touching different regions: the held
  // snapshot's copy-on-write slabs must detach, not mutate.
  engine.update_edge(4, 5, 0.125);
  engine.apply();
  engine.update_edge(60, 61, 40.0);
  engine.update_edge(30, 31, 0.5);
  engine.apply();
  EXPECT_EQ(engine.epoch(), 2u);

  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto after = held.engine->distances(sources[i]).dist;
    EXPECT_TRUE(bit_equal(before[i], after)) << "source " << sources[i];
  }
  // The batched kernel reads the same frozen slabs.
  const auto batched = held.engine->distances_batch(sources, {.lanes = 4});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_TRUE(bit_equal(before[i], batched[i].dist))
        << "batched source " << sources[i];
  }
}

TEST(Incremental, HeldSnapshotAugmentationStaysFrozenAcrossApply) {
  // A snapshot's augmentation() is the engine's build metadata, which
  // never changes: a batch that moves slots and creates a negative
  // cycle leaves every field as it was, and the held snapshot keeps the
  // build's certificate.
  const Fixture f = make_grid_fixture(9, 31);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  const IncrementalEngine::Snapshot held = engine.snapshot();
  const Augmentation& aug = held.engine->augmentation();
  const Augmentation before = aug;

  engine.update_edge(0, 1, -20.0);  // a corner 2-cycle
  engine.apply();
  ASSERT_GT(engine.last_apply_stats().slots_touched, 0u);
  ASSERT_FALSE(engine.snapshot().engine->cycle_certified());

  EXPECT_EQ(aug.plan, before.plan);
  EXPECT_EQ(aug.height, before.height);
  EXPECT_EQ(aug.ell, before.ell);
  EXPECT_EQ(aug.critical_depth, before.critical_depth);
  EXPECT_EQ(aug.build_cost.work, before.build_cost.work);
  EXPECT_EQ(aug.build_cost.depth, before.build_cost.depth);
  EXPECT_TRUE(held.engine->cycle_certified());
}

TEST(Incremental, CycleCertificateFollowsBatchesThatCreateAndRemoveCycles) {
  // After every apply() the certificate must equal a fresh build's and
  // the oracle's, and a snapshot must answer exactly like the fresh
  // build: the same distance bits and per-source cycle flags, whether
  // its queries skip the pass (certified) or run it.
  const Fixture f = make_grid_fixture(9, 31);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  EXPECT_TRUE(engine.snapshot().engine->cycle_certified());
  const std::vector<Vertex> sources{0, 1, 13, 40, 44, 80};
  struct Batch {
    std::vector<EdgeTriple> updates;
    bool cycle_free;
  };
  const std::vector<Batch> batches{
      {{{0, 1, -20.0}}, false},                   // corner 2-cycle
      {{{60, 61, 2.0}}, false},                   // far away: cycle stays
      {{{0, 1, 3.0}}, true},                      // removed
      {{{40, 41, -30.0}, {41, 40, 1.0}}, false},  // at the grid's centre
      {{{40, 41, 5.0}, {13, 14, -0.5}}, true},    // removed; a mild
                                                  // negative arc stays
  };
  std::vector<EdgeTriple> applied;  // cumulative, one entry per arc
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const EdgeTriple& u : batches[b].updates) {
      engine.update_edge(u.from, u.to, u.weight);
      const auto it = std::find_if(
          applied.begin(), applied.end(), [&](const EdgeTriple& a) {
            return a.from == u.from && a.to == u.to;
          });
      if (it == applied.end()) {
        applied.push_back(u);
      } else {
        *it = u;
      }
    }
    engine.apply();
    const Digraph reference = reweighted(f.gg.graph, applied);
    const bool oracle = !find_negative_cycle(reference).has_value();
    ASSERT_EQ(oracle, batches[b].cycle_free) << "batch " << b;
    const auto fresh = SeparatorShortestPaths<>::build(reference, f.tree);
    EXPECT_EQ(fresh.cycle_certified(), oracle) << "batch " << b;
    const IncrementalEngine::Snapshot snap = engine.snapshot();
    EXPECT_EQ(snap.engine->cycle_certified(), oracle) << "batch " << b;
    EXPECT_EQ(snap.engine->stats().cycle_certified, oracle) << "batch " << b;
    EXPECT_EQ(snap.engine->detects_negative_cycles(), !oracle)
        << "batch " << b;
    const auto got = snap.engine->distances_batch(sources, {.lanes = 4});
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto want = fresh.distances(sources[i]);
      EXPECT_TRUE(bit_equal(got[i].dist, want.dist))
          << "batch " << b << " source " << sources[i];
      EXPECT_EQ(got[i].negative_cycle, want.negative_cycle)
          << "batch " << b << " source " << sources[i];
      EXPECT_EQ(want.negative_cycle,
                bellman_ford(reference, sources[i]).negative_cycle)
          << "batch " << b << " source " << sources[i];
    }
  }
}

TEST(Incremental, SnapshotOutlivesItsEngine) {
  // A snapshot shares the live engine's augmentation and value slabs
  // but needs nothing else of the IncrementalEngine: after another
  // batch and the engine's destruction it still answers, bit for bit,
  // what it answered when taken.
  const Fixture f = make_grid_fixture(10, 24);
  const std::vector<Vertex> sources{0, 37, 99};
  IncrementalEngine::Snapshot snap;
  std::vector<std::vector<double>> before;
  std::vector<QueryResult<TropicalD>> batch_before;
  {
    auto engine = std::make_unique<IncrementalEngine>(
        IncrementalEngine::build(f.gg.graph, f.tree));
    engine->update_edge(3, 4, 0.5);
    engine->apply();
    snap = engine->snapshot();
    for (const Vertex s : sources) {
      before.push_back(snap.engine->distances(s).dist);
    }
    batch_before = snap.engine->distances_batch(sources);
    engine->update_edge(3, 4, 40.0);
    engine->update_edge(55, 56, 0.25);
    engine->apply();
    ASSERT_GT(engine->last_apply_stats().slabs_copied, 0u);
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_TRUE(bit_equal(snap.engine->distances(sources[i]).dist, before[i]))
        << "source " << sources[i];
  }
  const auto batch_after = snap.engine->distances_batch(sources);
  ASSERT_EQ(batch_after.size(), batch_before.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_TRUE(bit_equal(batch_after[i].dist, batch_before[i].dist))
        << "source " << sources[i];
    EXPECT_EQ(batch_after[i].edges_scanned, batch_before[i].edges_scanned);
  }
}

TEST(Incremental, SnapshotsStructurallyShareUntouchedSlabs) {
  const Fixture f = make_grid_fixture(12, 22);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);

  const IncrementalEngine::Snapshot s1 = engine.snapshot();
  const std::size_t total = s1.engine->total_slabs();
  ASSERT_GT(total, 0u);
  // Snapshots taken with no intervening apply alias every slab.
  EXPECT_EQ(s1.engine->slabs_shared_with(*engine.snapshot().engine), total);

  engine.update_edge(5, 6, 0.25);
  engine.apply();
  const IncrementalEngine::ApplyStats st = engine.last_apply_stats();
  EXPECT_GT(st.nodes_recomputed, 0u);
  EXPECT_GT(st.slots_touched, 0u);
  EXPECT_GT(st.slabs_copied, 0u);

  const IncrementalEngine::Snapshot s2 = engine.snapshot();
  const std::size_t shared = s1.engine->slabs_shared_with(*s2.engine);
  // A point update detaches only the touched slabs: successive epochs
  // keep aliasing the rest, and exactly the apply()'s copy count is
  // missing. (On this small fixture most buckets are a single slab, so
  // the *fraction* shared is modest; the identity is what matters.)
  EXPECT_EQ(shared, total - st.slabs_copied);
  EXPECT_GT(shared, 0u);
  EXPECT_LT(st.slabs_copied, total);
}

TEST(Incremental, ApplyIsDeterministic) {
  // Two default engines driven through the same update batches must
  // agree bit for bit: apply() recomputes a level's dirty nodes on the
  // pool, and its serial fold must erase any trace of the schedule.
  const Fixture f = make_grid_fixture(12, 23);
  IncrementalEngine lhs = IncrementalEngine::build(f.gg.graph, f.tree);
  IncrementalEngine rhs = IncrementalEngine::build(f.gg.graph, f.tree);

  Rng pick(9);
  const auto edges = f.gg.graph.edge_list();
  for (int round = 0; round < 3; ++round) {
    // A batch wide enough that several leaves go dirty per level.
    for (int i = 0; i < 12; ++i) {
      const EdgeTriple& e = edges[pick.next_below(edges.size())];
      const double w = pick.next_double(0.25, 25.0);
      lhs.update_edge(e.from, e.to, w);
      rhs.update_edge(e.from, e.to, w);
    }
    const std::size_t n_lhs = lhs.apply();
    const std::size_t n_rhs = rhs.apply();
    EXPECT_EQ(n_lhs, n_rhs) << "round " << round;
    const auto st_lhs = lhs.last_apply_stats();
    const auto st_rhs = rhs.last_apply_stats();
    EXPECT_EQ(st_lhs.nodes_recomputed, st_rhs.nodes_recomputed);
    EXPECT_EQ(st_lhs.slots_touched, st_rhs.slots_touched);

    // Shortcut values and query results must be bit-identical, not just
    // close: both engines run the same kernels in the same order.
    const std::vector<double> sp = eplus_values(*lhs.snapshot().engine);
    const std::vector<double> ss = eplus_values(*rhs.snapshot().engine);
    ASSERT_EQ(sp.size(), ss.size());
    for (std::size_t i = 0; i < sp.size(); ++i) {
      ASSERT_EQ(std::memcmp(&sp[i], &ss[i], sizeof(sp[i])), 0)
          << "shortcut " << i;
    }
    for (const Vertex s : {Vertex{0}, Vertex{71}, Vertex{143}}) {
      EXPECT_TRUE(bit_equal(lhs.distances(s).dist, rhs.distances(s).dist))
          << "round " << round << " source " << s;
    }
  }
}

// Leaves whose subgraph contains both endpoints of some arc in
// `updates`: the nodes an apply() of them recomputes first.
std::vector<std::uint8_t> leaves_reading(
    const SeparatorTree& tree, const std::vector<EdgeTriple>& updates) {
  std::vector<std::uint8_t> dirty(tree.num_nodes(), 0);
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const DecompNode& t = tree.node(id);
    if (!t.is_leaf()) continue;
    for (const EdgeTriple& u : updates) {
      if (std::binary_search(t.vertices.begin(), t.vertices.end(), u.from) &&
          std::binary_search(t.vertices.begin(), t.vertices.end(), u.to)) {
        dirty[id] = 1;
      }
    }
  }
  return dirty;
}

TEST(Incremental, ApplyStatsCountTheEntriesThatMoved) {
  // Two fresh Floyd–Warshall builds, before and after the batch, fix
  // what apply() must do: recompute the dirty leaves and every parent of
  // a recomputed node whose boundary matrix changed bits, and move
  // exactly the entries whose bits differ between the builds.
  const Fixture f = make_grid_fixture(9, 37);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  const std::vector<EdgeTriple> updates{{3, 4, 0.5}, {40, 49, 7.5},
                                        {70, 71, 2.25}};
  for (const EdgeTriple& u : updates) engine.update_edge(u.from, u.to, u.weight);
  engine.apply();
  const IncrementalEngine::ApplyStats st = engine.last_apply_stats();

  using S = TropicalD;
  const auto before = detail::run_algorithm41<S>(f.gg.graph, f.tree,
                                                 ClosureKind::kFloydWarshall);
  const auto after = detail::run_algorithm41<S>(
      reweighted(f.gg.graph, updates), f.tree, ClosureKind::kFloydWarshall);
  const EplusPlan& plan = *f.tree.eplus_plan();
  // Node id's boundary matrix ends its slice of each run's arena.
  const auto matrix_moved = [&](std::size_t id) {
    const DecompNode& t = f.tree.node(id);
    const std::size_t lo =
        plan.node_offset[id] + t.separator.size() * t.separator.size();
    const std::size_t cells = t.boundary.size() * t.boundary.size();
    return cells > 0 && std::memcmp(before.entries.data() + lo,
                                    after.entries.data() + lo,
                                    cells * sizeof(S::Value)) != 0;
  };
  std::vector<std::uint8_t> recomputed = leaves_reading(f.tree, updates);
  for (std::size_t id = f.tree.num_nodes(); id-- > 0;) {  // children first
    const DecompNode& t = f.tree.node(id);
    if (t.is_leaf()) continue;
    for (const std::int32_t c : t.child) {
      const auto cid = static_cast<std::size_t>(c);
      if (recomputed[cid] && matrix_moved(cid)) recomputed[id] = 1;
    }
  }
  // Entries are the off-diagonal cells, the ones that own a slot.
  std::size_t nodes = 0, entries = 0, moved = 0;
  for (std::size_t id = 0; id < f.tree.num_nodes(); ++id) {
    const std::size_t lo = plan.node_offset[id];
    const std::size_t hi = plan.node_offset[id + 1];
    std::size_t cells = 0, differ = 0;
    for (std::size_t e = lo; e < hi; ++e) {
      if (plan.entry_slot[e] == EplusPlan::kNoSlot) continue;
      ++cells;
      differ += std::memcmp(&before.entries[e], &after.entries[e],
                            sizeof(S::Value)) != 0
                    ? 1
                    : 0;
    }
    if (!recomputed[id]) {
      EXPECT_EQ(differ, 0u) << "node " << id << " moved but was not recomputed";
      continue;
    }
    ++nodes;
    entries += cells;
    moved += differ;
  }
  EXPECT_EQ(st.nodes_recomputed, nodes);
  EXPECT_EQ(st.entries_moved, moved);
  EXPECT_GT(st.slots_touched, 0u);
  EXPECT_LE(st.slots_touched, st.entries_moved);
  EXPECT_LE(st.entries_moved, entries);
  expect_matches_exact_build(engine, reweighted(f.gg.graph, updates), f.tree);
}

TEST(Incremental, ResettingCurrentWeightsRecomputesOnlyLeaves) {
  const Fixture f = make_grid_fixture(9, 39);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  const std::vector<EdgeTriple> same{{0, 1, 0.0}, {40, 41, 0.0},
                                     {41, 50, 0.0}, {79, 80, 0.0}};
  for (const EdgeTriple& u : same) {
    engine.update_edge(u.from, u.to, engine.weight(u.from, u.to));
  }
  const std::vector<std::uint8_t> leaves = leaves_reading(f.tree, same);
  const auto dirty = static_cast<std::size_t>(
      std::count(leaves.begin(), leaves.end(), 1));
  ASSERT_GT(dirty, 0u);
  EXPECT_EQ(engine.apply(), dirty);
  const IncrementalEngine::ApplyStats st = engine.last_apply_stats();
  EXPECT_EQ(st.nodes_recomputed, dirty);
  EXPECT_EQ(st.entries_moved, 0u);
  EXPECT_EQ(st.slots_touched, 0u);
  expect_matches_exact_build(engine, f.gg.graph, f.tree);
}

// The update-neg3d shape on a side^3 mixed-sign grid: four-arc batches
// that raise arcs and then restore them, one arc moved from +0.0 to
// -0.0, E+ held to a fresh build's bits every 10 batches, and two
// engines fed the same batches agreeing bit for bit whatever the pool's
// schedule.
void expect_raise_restore_stream_exact(std::size_t side) {
  SCOPED_TRACE("side " + std::to_string(side));
  Rng rng(41);
  Fixture f{make_grid({side, side, side}, WeightModel::mixed_sign(10.0), rng),
            {}};
  f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                make_grid_finder({side, side, side}));
  IncrementalEngine lhs = IncrementalEngine::build(f.gg.graph, f.tree);
  IncrementalEngine rhs = IncrementalEngine::build(f.gg.graph, f.tree);
  const std::vector<EdgeTriple> original = f.gg.graph.edge_list();
  std::vector<EdgeTriple> current = original;
  const auto stage = [&](std::size_t arc, double w) {
    current[arc].weight = w;
    lhs.update_edge(current[arc].from, current[arc].to, w);
    rhs.update_edge(current[arc].from, current[arc].to, w);
  };
  const auto fresh_reference = [&] {
    GraphBuilder b(f.gg.graph.num_vertices());
    for (const EdgeTriple& e : current) b.add_edge(e.from, e.to, e.weight);
    return std::move(b).build(/*dedup_min=*/false);
  };
  // The signed-zero arc. A leaf's Floyd–Warshall adds one() = +0.0 to
  // it (0.0 + -0.0 is +0.0), so its sign reaches no matrix; the base
  // arc's refresh carries it.
  const std::size_t zero_arc = original.size() / 2;

  Rng pick(43);
  std::vector<std::size_t> raised;
  constexpr int kBatches = 64;
  for (int b = 0; b < kBatches; ++b) {
    if (b == 60) {
      stage(zero_arc, +0.0);
    } else if (b == 61) {
      stage(zero_arc, -0.0);
    } else if (b == 62) {
      stage(zero_arc, original[zero_arc].weight);
    } else if (b % 2 == 0) {
      raised.clear();
      for (int k = 0; k < 4; ++k) {
        const std::size_t arc = pick.next_below(original.size());
        raised.push_back(arc);
        stage(arc, current[arc].weight + pick.next_double(0.0, 5.0));
      }
    } else {
      for (const std::size_t arc : raised) stage(arc, original[arc].weight);
    }
    const std::size_t n_lhs = lhs.apply();
    const std::size_t n_rhs = rhs.apply();
    ASSERT_EQ(n_lhs, n_rhs) << "batch " << b;
    const auto st_lhs = lhs.last_apply_stats();
    const auto st_rhs = rhs.last_apply_stats();
    EXPECT_EQ(st_lhs.nodes_recomputed, st_rhs.nodes_recomputed)
        << "batch " << b;
    EXPECT_EQ(st_lhs.slots_touched, st_rhs.slots_touched) << "batch " << b;
    EXPECT_EQ(st_lhs.slabs_copied, st_rhs.slabs_copied) << "batch " << b;
    EXPECT_EQ(st_lhs.entries_moved, st_rhs.entries_moved) << "batch " << b;
    EXPECT_EQ(st_lhs.nodes_recomputed, n_lhs) << "batch " << b;
    EXPECT_LE(st_lhs.slots_touched, st_lhs.entries_moved) << "batch " << b;
    if (b == 61) {
      EXPECT_TRUE(std::signbit(
          lhs.weight(original[zero_arc].from, original[zero_arc].to)));
    }
    const std::vector<double> sl = eplus_values(*lhs.snapshot().engine);
    const std::vector<double> sr = eplus_values(*rhs.snapshot().engine);
    ASSERT_EQ(sl.size(), sr.size());
    ASSERT_EQ(std::memcmp(sl.data(), sr.data(), sl.size() * sizeof(sl[0])), 0)
        << "batch " << b;
    if (b % 10 == 9 || b == 60 || b == 61) {
      expect_matches_exact_build(lhs, fresh_reference(), f.tree);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(Incremental, RaiseAndRestoreStreamStaysBitIdenticalToFreshBuilds) {
  // On both trees apply()'s pass forks the dirty children of the top
  // nodes on the pool and runs the light subtrees below them as serial
  // tasks: 7 forked nodes over 8 serial subtrees on 5^3, 53 over 54 on
  // 8^3.
  for (const std::size_t side : {5u, 8u}) {
    expect_raise_restore_stream_exact(side);
    if (HasFatalFailure()) return;
  }
  Rng rng(41);
  const GeneratedGraph gg =
      make_grid({8, 8, 8}, WeightModel::mixed_sign(10.0), rng);
  const SeparatorTree tree =
      build_separator_tree(Skeleton(gg.graph), make_grid_finder({8, 8, 8}));
  const std::vector<std::uint64_t> work = detail::subtree_work(tree);
  std::size_t forked = 0;
  std::size_t serial = 0;  // light subtrees whose parent forks
  for (std::size_t id = 0; id < tree.num_nodes(); ++id) {
    const std::int32_t parent = tree.node(id).parent;
    if (work[id] >= detail::kInlineLevelWork) {
      ++forked;
    } else if (parent >= 0 && work[static_cast<std::size_t>(parent)] >=
                                  detail::kInlineLevelWork) {
      ++serial;
    }
  }
  EXPECT_GE(forked, 2u);
  EXPECT_EQ(serial, forked + 1);  // every forked node is internal
}

TEST(Incremental, TreeWithoutEntriesStaysExact) {
  // A 5-vertex path splits at one vertex into leaves whose boundary is
  // that vertex alone: every group has fewer than two vertices, so E+
  // has no slots and the row diff compares diagonal cells alone.
  GraphBuilder b(5);
  for (Vertex v = 0; v + 1 < 5; ++v) {
    b.add_edge(v, v + 1, 1.0 + v);
    b.add_edge(v + 1, v, 2.0 + v);
  }
  const Digraph g = std::move(b).build();
  const SeparatorTree tree =
      build_separator_tree(Skeleton(g), make_tree_finder());
  ASSERT_GT(tree.num_nodes(), 1u);
  ASSERT_EQ(tree.eplus_plan()->num_slots(), 0u);
  IncrementalEngine engine = IncrementalEngine::build(g, tree);
  engine.update_edge(1, 2, 0.5);
  engine.update_edge(3, 2, 7.0);
  EXPECT_GT(engine.apply(), 0u);
  EXPECT_EQ(engine.last_apply_stats().entries_moved, 0u);
  const Digraph reference = reweighted(g, {{1, 2, 0.5}, {3, 2, 7.0}});
  for (Vertex s = 0; s < 5; ++s) expect_matches_dijkstra(engine, reference, s);
}

TEST(Incremental, DiagonalOnlyMoveQueuesTheParent) {
  // 0 <-> 1 -> 3 -> 2 and back. The root separates {1, 2}; leaf
  // {0, 1, 2} has boundary {1, 2}, and 2 is isolated there. Turning the
  // 2-cycle 1 -> 0 -> 1 negative moves only that leaf's diagonal cell
  // (1, 1): its off-diagonal cells stay +inf. The root must still be
  // recomputed, because its closed H_S prepends the cycle to 1 -> 3 -> 2
  // and that owner is the minimum of slot (1, 2).
  GraphBuilder b(4);
  for (const auto& [u, v] : {std::pair<Vertex, Vertex>{0, 1}, {1, 0},
                             {1, 3}, {3, 1}, {3, 2}, {2, 3}}) {
    b.add_edge(u, v, 1.0);
  }
  const Digraph g = std::move(b).build();
  const SeparatorTree tree = build_separator_tree(
      Skeleton(g),
      [](const SubgraphContext&) { return std::vector<Vertex>{1, 2}; },
      {.leaf_size = 3});
  ASSERT_EQ(tree.num_nodes(), 3u);
  ASSERT_EQ(tree.node(0).separator, (std::vector<Vertex>{1, 2}));
  IncrementalEngine engine = IncrementalEngine::build(g, tree);
  engine.update_edge(0, 1, -5.0);
  EXPECT_EQ(engine.apply(), 2u);  // the leaf holding 0 -> 1, then the root
  EXPECT_FALSE(engine.snapshot().engine->cycle_certified());
  expect_matches_exact_build(engine, reweighted(g, {{0, 1, -5.0}}), tree);
}

TEST(Incremental, SnapshotWithStagedUpdatesAborts) {
  const Fixture f = make_grid_fixture(6, 11);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  engine.update_edge(0, 1, 2.0);
  EXPECT_DEATH({ (void)engine.snapshot(); }, "apply");
}

TEST(Incremental, ApplyWithoutUpdatesIsNoop) {
  const Fixture f = make_grid_fixture(6, 8);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  EXPECT_EQ(engine.apply(), 0u);
}

TEST(Incremental, WeightOfOutOfRangeVertexAborts) {
  const Fixture f = make_grid_fixture(6, 10);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  const auto n = static_cast<Vertex>(f.gg.graph.num_vertices());
  EXPECT_DEATH({ (void)engine.weight(n, 0); }, "num_vertices");
  EXPECT_DEATH({ (void)engine.weight(0, n); }, "num_vertices");
}

TEST(Incremental, QueryBeforeApplyAborts) {
  const Fixture f = make_grid_fixture(6, 9);
  IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
  engine.update_edge(0, 1, 3.0);
  EXPECT_DEATH({ (void)engine.distances(0); }, "apply");
}

// A 50-batch stream that raises and restores arcs, half of them end arcs
// (an endpoint with no level, so the walk's base passes read their
// end-arc copies): after every batch the live engine's arrays, end arcs
// included, and its distances from unleveled sources at 1 and 8 lanes
// are bit for bit a fresh build's.
TEST(Incremental, EndArcStreamStaysBitIdenticalToFreshBuilds) {
  for (const bool mesh : {false, true}) {
    SCOPED_TRACE(mesh ? "mesh 33x33" : "random tree 2000");
    Rng rng(mesh ? 33 : 2000);
    Fixture f;
    if (mesh) {
      f.gg = make_triangulated_grid(33, 33, WeightModel::mixed_sign(8.0), rng);
      f.tree = build_separator_tree(Skeleton(f.gg.graph),
                                    make_geometric_finder(f.gg.coords));
    } else {
      f.gg = make_random_tree(2000, WeightModel::mixed_sign(8.0), rng);
      f.tree = build_separator_tree(Skeleton(f.gg.graph), make_tree_finder());
    }
    const LevelAssignment& levels = f.tree.eplus_plan()->levels;
    const std::vector<EdgeTriple> original = f.gg.graph.edge_list();
    std::vector<std::size_t> end_arcs;
    for (std::size_t arc = 0; arc < original.size(); ++arc) {
      if (!levels.defined(original[arc].from) ||
          !levels.defined(original[arc].to)) {
        end_arcs.push_back(arc);
      }
    }
    ASSERT_FALSE(end_arcs.empty());
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < levels.level.size() && sources.size() < 8; ++v) {
      if (!levels.defined(v)) sources.push_back(v);
    }
    sources.push_back(0);

    IncrementalEngine engine = IncrementalEngine::build(f.gg.graph, f.tree);
    std::vector<EdgeTriple> current = original;
    Rng pick(47);
    std::vector<std::size_t> raised;
    for (int b = 0; b < 50; ++b) {
      if (b % 2 == 0) {
        raised.clear();
        for (int k = 0; k < 4; ++k) {
          const std::size_t arc = k % 2 == 0
                                      ? end_arcs[pick.next_below(end_arcs.size())]
                                      : pick.next_below(original.size());
          raised.push_back(arc);
          current[arc].weight += pick.next_double(0.0, 5.0);
        }
      } else {
        for (const std::size_t arc : raised) current[arc] = original[arc];
      }
      for (const std::size_t arc : raised) {
        engine.update_edge(current[arc].from, current[arc].to,
                           current[arc].weight);
      }
      engine.apply();
      GraphBuilder builder(f.gg.graph.num_vertices());
      for (const EdgeTriple& e : current) {
        builder.add_edge(e.from, e.to, e.weight);
      }
      const Digraph reference = std::move(builder).build(/*dedup_min=*/false);
      const auto fresh = SeparatorShortestPaths<>::build(reference, f.tree);
      const auto live = engine.snapshot().engine;
      const auto values = [](const EdgeBucket<TropicalD>& bucket) {
        std::vector<double> out(bucket.size());
        for (std::size_t i = 0; i < out.size(); ++i) out[i] = bucket.value(i);
        return out;
      };
      for (const auto& [got, want] :
           {std::pair{values(live->end_edges()), values(fresh.end_edges())},
            std::pair{values(live->base_edges()), values(fresh.base_edges())},
            std::pair{values(live->shortcut_edges()),
                      values(fresh.shortcut_edges())}}) {
        ASSERT_EQ(got.size(), want.size()) << "batch " << b;
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "batch " << b;
      }
      for (const std::size_t lanes : {1u, 8u}) {
        const auto got = live->distances_batch(sources, {.lanes = lanes});
        const auto want = fresh.distances_batch(sources, {.lanes = lanes});
        for (std::size_t i = 0; i < sources.size(); ++i) {
          ASSERT_EQ(std::memcmp(got[i].dist.data(), want[i].dist.data(),
                                want[i].dist.size() * sizeof(double)),
                    0)
              << "batch " << b << " lanes " << lanes << " source "
              << sources[i];
          EXPECT_FALSE(got[i].negative_cycle);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sepsp
