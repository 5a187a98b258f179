#include "core/incremental.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "core/builder_recursive.hpp"  // detail::node_step, run_algorithm41
#include "core/builder_scratch.hpp"    // detail::ScratchPool
#include "obs/trace.hpp"
#include "pram/thread_pool.hpp"
#include "semiring/matrix.hpp"

namespace sepsp {

using S = TropicalD;

struct IncrementalEngine::State {
  const Digraph* g = nullptr;
  const SeparatorTree* tree = nullptr;

  /// Effective weight per flat arc index (indexes g->arcs()).
  std::vector<double> weights;

  /// Retained Algorithm-4.1 state: per-node boundary matrices and the
  /// values of the entries every node emits, laid out by the tree's slot
  /// plan aug.plan (node id's at [node_offset[id], node_offset[id + 1])
  /// of `entries`; the pairs are the plan's, only values change under
  /// reweighting).
  std::vector<Matrix<S>> bnd;
  std::vector<S::Value> entries;

  /// The negative-cycle certificate, per node: node id's closure has a
  /// diagonal cell below one() (what detail::node_step returned), and how
  /// many nodes do. apply() refreshes the flags of exactly the nodes it
  /// recomputes; any other node's inputs did not change, so its flag
  /// still holds. aug.cycle_free mirrors negative_nodes == 0.
  std::vector<std::uint8_t> negative_diagonal;
  std::size_t negative_nodes = 0;

  /// Staged changes. dirty_seen doubles as apply()'s queued flag (set
  /// for every node on the recompute worklist, cleared when the batch
  /// finishes); arc_staged dedupes updated_arcs.
  std::vector<std::size_t> dirty_leaves;
  std::vector<std::uint8_t> dirty_seen;    // per tree node
  std::vector<std::size_t> updated_arcs;   // flat arc indices
  std::vector<std::uint8_t> arc_staged;    // per flat arc

  /// Memoized arc -> containing leaves, keyed by the first arc of the
  /// (u, v) parallel range (parallel arcs share endpoints, hence leaf
  /// sets). An empty list is a legitimate value (both-endpoint leaves
  /// may not exist), so presence is tracked separately.
  std::vector<std::vector<std::uint32_t>> arc_leaves;
  std::vector<std::uint8_t> arc_leaves_known;

  /// Epoch-stamped slot marks: the touched-slot worklist of apply()
  /// dedupes via mark_token instead of clearing a bitmap per batch.
  std::vector<std::uint64_t> slot_mark;
  std::uint64_t mark_token = 0;

  /// Staging buffers for the pooled re-minimize combines (high-water
  /// storage reused across batches).
  std::vector<S::Value> remin_values;
  std::vector<std::uint8_t> remin_changed;

  /// Applied update batches (the version tag snapshots carry).
  std::uint64_t epoch = 0;

  ApplyStats last_stats;

  Augmentation<S> aug;
  std::optional<LeveledQuery<S>> query;
  /// Per-task arenas for node recomputes (never thread_local: the
  /// pool's help-first joins can re-enter a worker mid-task). Matrices
  /// reuse their high-water storage across leases, so a steady update
  /// stream recomputes allocation-free.
  std::optional<detail::ScratchPool<detail::RecursiveScratch<S>>> scratch;

  /// detail::subtree_split_level: nodes at this level and deeper are
  /// recomputed inside subtree tasks, one pool task per dirty subtree
  /// rooted at this level, which runs its dirty nodes bottom-up with no
  /// barrier; the heavier nodes above run one per pool block, level by
  /// level.
  std::uint32_t split_level = 0;

  /// One pool task of apply() — a subtree task below the split, or one
  /// node of a level above it — and what it did, kept until the serial
  /// fold reads it.
  struct Unit {
    std::uint32_t top = 0;             ///< the subtree's root
    bool top_changed = false;          ///< bnd[top] changed
    std::vector<std::uint32_t> pending;     ///< run_subtree's worklist
    std::vector<std::uint32_t> recomputed;  ///< node ids, in run order
    std::vector<std::uint32_t> moved;  ///< entries whose value changed
    std::ptrdiff_t negative_delta = 0;  ///< change of negative_nodes

    void reset(std::uint32_t node) {
      top = node;
      top_changed = false;
      pending.clear();
      recomputed.clear();
      moved.clear();
      negative_delta = 0;
    }
  };
  std::vector<Unit> units;  // high-water storage reused across batches
  /// apply()'s (subtree root, dirty leaf) pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> task_leaves;

  /// Copies the cells of the square matrix `m` whose bits differ from
  /// its retained entries entries[base, base + pair_count(m.rows())) —
  /// off-diagonal, i-major — and appends their entry indices to `moved`.
  /// Row i of the entries is [i(k - 1), (i + 1)(k - 1)), split around
  /// the diagonal; a row whose two segments memcmp equal is skipped
  /// whole. Returns whether any cell moved.
  bool diff_rows(const Matrix<S>& m, std::uint32_t base,
                 std::vector<std::uint32_t>& moved) {
    const std::size_t k = m.rows();
    if (k < 2) return false;  // no off-diagonal cells, no entries
    S::Value* old = entries.data() + base;
    bool any = false;
    for (std::size_t i = 0; i < k; ++i, old += k - 1) {
      const S::Value* row = m.row(i);
      if (std::memcmp(old, row, i * sizeof(S::Value)) == 0 &&
          std::memcmp(old + i, row + i + 1, (k - 1 - i) * sizeof(S::Value)) ==
              0) {
        continue;
      }
      any = true;
      for (std::size_t j = 0; j < k; ++j) {
        if (j == i) continue;
        const std::size_t col = j < i ? j : j - 1;
        if (std::memcmp(&old[col], &row[j], sizeof(S::Value)) == 0) continue;
        old[col] = row[j];
        moved.push_back(static_cast<std::uint32_t>(
            static_cast<std::size_t>(old - entries.data()) + col));
      }
    }
    return any;
  }

  /// Recomputes node `id` with the shared Algorithm-4.1 node step (the
  /// Floyd–Warshall closure the initial build used), writing its
  /// boundary matrix straight into bnd[id], and diffs the closed H_S and
  /// the boundary matrix row by row against the retained entries: only
  /// cells that moved are written, and their indices go to u.moved (the
  /// slots to re-minimize). Updates the node's certificate flag and
  /// records the change in u. Writes only this node's state — bnd[id],
  /// its entries and flag — so distinct nodes whose children are final
  /// may run concurrently. Returns whether bnd[id] changed (any bit,
  /// diagonal included): that drives upward propagation. An internal
  /// node's S x S entries can move while its boundary matrix does not,
  /// and vice versa.
  bool recompute_node(std::size_t id, detail::RecursiveScratch<S>& sc,
                      Unit& u) {
    Matrix<S>& bm = bnd[id];
    sc.diag.resize(bm.rows());
    for (std::size_t p = 0; p < bm.rows(); ++p) sc.diag[p] = bm.at(p, p);
    const std::uint8_t negative =
        detail::node_step<S>(
            *g, *tree, id, bnd, ClosureKind::kFloydWarshall,
            [&](const Arc& a) {
              return weights[static_cast<std::size_t>(&a - g->arcs().data())];
            },
            sc, bm)
            ? 1
            : 0;
    if (negative != negative_diagonal[id]) {
      negative_diagonal[id] = negative;
      u.negative_delta += negative ? 1 : -1;
    }
    u.recomputed.push_back(static_cast<std::uint32_t>(id));
    const auto base = static_cast<std::uint32_t>(aug.plan->node_offset[id]);
    diff_rows(sc.hs, base, u.moved);
    bool matrix = diff_rows(
        bm, base + static_cast<std::uint32_t>(pair_count(sc.hs.rows())),
        u.moved);
    for (std::size_t p = 0; p < bm.rows() && !matrix; ++p) {
      matrix = std::memcmp(&sc.diag[p], &bm.at(p, p), sizeof(S::Value)) != 0;
    }
    return matrix;
  }

  /// One subtree task: recomputes the dirty nodes of the subtree rooted
  /// at u.top, starting from the dirty nodes in u.pending. Children
  /// carry larger ids than their parent (preorder), so taking the
  /// largest pending id first recomputes every node after all of its
  /// dirty descendants — bottom-up with no barrier. A parent is queued
  /// when a child's boundary matrix changed; the root's change is left
  /// in u.top_changed for the fold.
  void run_subtree(Unit& u, detail::RecursiveScratch<S>& sc) {
    std::vector<std::uint32_t>& heap = u.pending;
    std::make_heap(heap.begin(), heap.end());
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      const std::uint32_t id = heap.back();
      heap.pop_back();
      if (!recompute_node(id, sc, u)) continue;
      if (id == u.top) {
        u.top_changed = true;
        continue;
      }
      const auto pid = static_cast<std::uint32_t>(tree->node(id).parent);
      if (!dirty_seen[pid]) {  // pid lies in this subtree: no other task
        dirty_seen[pid] = 1;   // reads or writes its flag
        heap.push_back(pid);
        std::push_heap(heap.begin(), heap.end());
      }
    }
  }
};

IncrementalEngine IncrementalEngine::build(const Digraph& g,
                                           const SeparatorTree& tree) {
  SEPSP_CHECK(tree.num_graph_vertices() == g.num_vertices());
  IncrementalEngine engine;
  engine.state_ = std::make_shared<State>();
  State& s = *engine.state_;
  s.g = &g;
  s.tree = &tree;
  s.weights.reserve(g.num_edges());
  for (const Arc& a : g.arcs()) s.weights.push_back(a.weight);
  s.dirty_seen.assign(tree.num_nodes(), 0);
  s.arc_staged.assign(g.num_edges(), 0);
  s.arc_leaves.resize(g.num_edges());
  s.arc_leaves_known.assign(g.num_edges(), 0);
  s.scratch.emplace([n = g.num_vertices()] {
    return std::make_unique<detail::RecursiveScratch<S>>(n);
  });

  // The exact build with Floyd–Warshall closures, keeping every node's
  // boundary matrix and entry values for later recomputes.
  detail::LevelRun<S> run = detail::run_algorithm41<S>(
      g, tree, ClosureKind::kFloydWarshall, /*keep_bnd=*/true);
  s.bnd = std::move(run.bnd);
  s.entries = std::move(run.entries);
  s.negative_diagonal = std::move(run.negative_diagonal);
  s.negative_nodes = static_cast<std::size_t>(std::count(
      s.negative_diagonal.begin(), s.negative_diagonal.end(), 1));
  s.aug = std::move(run.aug);

  // One aug shortcut per plan slot, in the plan's (from, to) order —
  // unreachable pairs kept at +inf so reweighting can activate them.
  {
    SEPSP_TRACE_SPAN("build.slot_min");
    const EplusPlan& plan = *s.aug.plan;
    s.aug.shortcuts.resize(plan.num_slots());
    for (std::size_t slot = 0; slot < plan.num_slots(); ++slot) {
      s.aug.shortcuts[slot] = {plan.slots[slot].from, plan.slots[slot].to,
                               detail::slot_min<S>(plan, slot, s.entries)};
    }
  }
  s.slot_mark.assign(s.aug.shortcuts.size(), 0);
  s.split_level = detail::subtree_split_level(tree);

  s.query.emplace(g, s.aug);
  return engine;
}

void IncrementalEngine::update_edge(Vertex u, Vertex v, double weight) {
  State& s = *state_;
  SEPSP_CHECK(u < s.g->num_vertices() && v < s.g->num_vertices());
  // out(u) is sorted by target, so the parallel (u, v) arcs form one
  // contiguous range found by binary search — no per-call scan of the
  // whole adjacency list.
  const auto arcs = s.g->out(u);
  const auto lo = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, Vertex target) { return a.to < target; });
  const auto hi = std::upper_bound(
      lo, arcs.end(), v,
      [](Vertex target, const Arc& a) { return target < a.to; });
  SEPSP_CHECK_MSG(lo != hi, "update_edge: arc does not exist");
  const std::size_t base =
      static_cast<std::size_t>(arcs.data() - s.g->arcs().data());
  const std::size_t first =
      base + static_cast<std::size_t>(lo - arcs.begin());
  for (auto it = lo; it != hi; ++it) {
    const std::size_t arc =
        base + static_cast<std::size_t>(it - arcs.begin());
    s.weights[arc] = weight;
    if (!s.arc_staged[arc]) {
      s.arc_staged[arc] = 1;
      s.updated_arcs.push_back(arc);
    }
  }

  // Only leaves read edge weights directly (internal nodes consume
  // their children's matrices), so seed dirtiness at the leaves whose
  // subgraph contains the arc; apply() propagates upward exactly as far
  // as matrices actually change. The containing-leaf set depends only
  // on the endpoints, so it is memoized per parallel-arc range: a
  // streaming workload walks the subtree once per arc, ever.
  if (!s.arc_leaves_known[first]) {
    std::vector<std::uint32_t> leaves;
    std::vector<std::size_t> pending{0};
    while (!pending.empty()) {
      const std::size_t id = pending.back();
      pending.pop_back();
      const DecompNode& t = s.tree->node(id);
      if (t.is_leaf()) {
        leaves.push_back(static_cast<std::uint32_t>(id));
        continue;
      }
      for (const std::int32_t child : t.child) {
        const DecompNode& c = s.tree->node(static_cast<std::size_t>(child));
        if (std::binary_search(c.vertices.begin(), c.vertices.end(), u) &&
            std::binary_search(c.vertices.begin(), c.vertices.end(), v)) {
          pending.push_back(static_cast<std::size_t>(child));
        }
      }
    }
    s.arc_leaves[first] = std::move(leaves);
    s.arc_leaves_known[first] = 1;
  }
  for (const std::uint32_t id : s.arc_leaves[first]) {
    if (!s.dirty_seen[id]) {
      s.dirty_seen[id] = 1;
      s.dirty_leaves.push_back(id);
    }
  }
}

std::size_t IncrementalEngine::apply() {
  State& s = *state_;
  if (s.dirty_leaves.empty() && s.updated_arcs.empty()) return 0;
  SEPSP_TRACE_SPAN("incremental.apply");
  // Recompute bottom-up. A node is recomputed when a weight it reads
  // changed (leaves) or when a child's boundary matrix changed;
  // propagation stops as soon as a recomputation reproduces the old
  // matrix bit for bit, so local updates rarely climb far. Two phases:
  //   * subtrees: below split_level every dirty subtree is one pool task
  //     that runs its dirty nodes bottom-up (run_subtree);
  //   * levels: the heavier nodes above it run level by level, one node
  //     per pool block (each reads its children — a strictly deeper,
  //     already-final level — and writes only its own state).
  // Each task reports into its own Unit, and the units are folded
  // serially in a fixed order (subtree roots ascending, then each
  // level's worklist order), which makes the recomputed set, the
  // touched-slot list and the parent enqueue order — hence the whole
  // batch — independent of how the pool scheduled the tasks.
  const SeparatorTree& tree = *s.tree;
  const EplusPlan& plan = *s.aug.plan;
  const std::uint32_t split = s.split_level;
  std::vector<std::vector<std::uint32_t>> by_level(split);
  ++s.mark_token;
  std::vector<std::uint32_t> recomputed;
  std::vector<std::uint32_t> touched;
  std::size_t entries_moved = 0;
  const auto fold = [&](const State::Unit& u) {
    recomputed.insert(recomputed.end(), u.recomputed.begin(),
                      u.recomputed.end());
    s.negative_nodes = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(s.negative_nodes) + u.negative_delta);
    entries_moved += u.moved.size();
    for (const std::uint32_t e : u.moved) {
      const std::uint32_t slot = plan.entry_slot[e];
      if (s.slot_mark[slot] != s.mark_token) {
        s.slot_mark[slot] = s.mark_token;
        touched.push_back(slot);
      }
    }
    const std::int32_t parent = tree.node(u.top).parent;
    if (u.top_changed && parent >= 0) {
      const auto pid = static_cast<std::uint32_t>(parent);
      if (!s.dirty_seen[pid]) {
        s.dirty_seen[pid] = 1;
        by_level[tree.node(pid).level].push_back(pid);
      }
    }
  };
  // Runs units [0, count) as pool tasks, one per block, then folds them
  // in index order.
  const auto run_units = [&](std::size_t count) {
    pram::ThreadPool::global().parallel_blocks(
        0, count,
        [&](std::size_t lo, std::size_t hi) {
          auto sc = s.scratch->acquire();
          for (std::size_t k = lo; k < hi; ++k) s.run_subtree(s.units[k], *sc);
        },
        /*grain=*/1);
    for (std::size_t k = 0; k < count; ++k) fold(s.units[k]);
  };
  std::optional<obs::TraceSpan> phase(std::in_place, "incremental.recompute");
  {
    SEPSP_TRACE_SPAN("incremental.subtrees");
    // Each dirty leaf at or below the split joins the task of its
    // ancestor at the split level; the rest wait for their level.
    s.task_leaves.clear();
    for (const std::size_t leaf : s.dirty_leaves) {  // dirty_seen already 1
      const auto id = static_cast<std::uint32_t>(leaf);
      if (tree.node(id).level < split) {
        by_level[tree.node(id).level].push_back(id);
        continue;
      }
      std::uint32_t root = id;
      while (tree.node(root).level > split) {
        root = static_cast<std::uint32_t>(tree.node(root).parent);
      }
      s.task_leaves.emplace_back(root, id);
    }
    std::sort(s.task_leaves.begin(), s.task_leaves.end());
    std::size_t tasks = 0;
    for (std::size_t i = 0; i < s.task_leaves.size(); ++i) {
      const std::uint32_t root = s.task_leaves[i].first;
      if (i == 0 || root != s.task_leaves[i - 1].first) {
        if (s.units.size() == tasks) s.units.emplace_back();
        s.units[tasks++].reset(root);
      }
      s.units[tasks - 1].pending.push_back(s.task_leaves[i].second);
    }
    run_units(tasks);
  }
  {
    SEPSP_TRACE_SPAN("incremental.levels");
    for (std::size_t lvl = split; lvl-- > 0;) {
      // The level worklist can grow while deeper levels run (parent
      // enqueue), but never once its own level starts.
      const std::vector<std::uint32_t>& ids = by_level[lvl];
      if (ids.empty()) continue;
      // A node above the split runs as a one-node subtree task.
      if (s.units.size() < ids.size()) s.units.resize(ids.size());
      for (std::size_t k = 0; k < ids.size(); ++k) {
        s.units[k].reset(ids[k]);
        s.units[k].pending.push_back(ids[k]);
      }
      run_units(ids.size());
    }
  }

  // Re-minimize only the touched slots — O(touched x owners) instead of
  // a full O(|E+|) scan per batch. Each slot's minimum depends only on
  // its own owner entries, so the combines (and the did-it-change
  // checks) run on the pool into staging buffers; the refreshes — the
  // only writes into shared bucket storage — then run serially in
  // worklist order, whatever the pool's schedule. Most touched slots
  // re-minimize to their old value (the owner that changed was not the
  // minimum): the bucket already holds it, so the refresh — and its
  // slab detach — is skipped. Bitwise comparison keeps the skip exactly
  // as strict as the parity contract.
  phase.emplace("incremental.reminimize");
  s.remin_values.resize(touched.size());
  s.remin_changed.assign(touched.size(), 0);
  const auto combine_one = [&](std::size_t i) {
    const std::uint32_t slot = touched[i];
    const S::Value value = detail::slot_min<S>(*s.aug.plan, slot, s.entries);
    s.remin_values[i] = value;
    s.remin_changed[i] =
        std::memcmp(&value, &s.aug.shortcuts[slot].value, sizeof(value)) != 0;
  };
  if (touched.size() > 4096) {
    pram::ThreadPool::global().parallel_for(0, touched.size(), combine_one,
                                            /*grain=*/512);
  } else {
    for (std::size_t i = 0; i < touched.size(); ++i) combine_one(i);
  }
  phase.emplace("incremental.refresh");
  std::size_t slabs_copied = 0;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    if (!s.remin_changed[i]) continue;
    const std::uint32_t slot = touched[i];
    const S::Value value = s.remin_values[i];
    s.aug.shortcuts[slot].value = value;
    slabs_copied += s.query->refresh_shortcut(slot, value);
  }
  for (const std::size_t arc : s.updated_arcs) {
    slabs_copied += s.query->refresh_base(arc, S::from_weight(s.weights[arc]));
  }

  s.aug.cycle_free = s.negative_nodes == 0;
  s.last_stats = {recomputed.size(), touched.size(), slabs_copied,
                  entries_moved};

  for (const std::uint32_t id : recomputed) s.dirty_seen[id] = 0;
  s.dirty_leaves.clear();
  for (const std::size_t arc : s.updated_arcs) s.arc_staged[arc] = 0;
  s.updated_arcs.clear();
  ++s.epoch;
  return recomputed.size();
}

IncrementalEngine::ApplyStats IncrementalEngine::last_apply_stats() const {
  return state_->last_stats;
}

std::uint64_t IncrementalEngine::epoch() const { return state_->epoch; }

const Digraph& IncrementalEngine::graph() const { return *state_->g; }

const SeparatorTree& IncrementalEngine::tree() const { return *state_->tree; }

std::span<const double> IncrementalEngine::weights() const {
  return state_->weights;
}

IncrementalEngine::Snapshot IncrementalEngine::snapshot(
    const SeparatorShortestPaths<TropicalD>::Options& options) const {
  State& s = *state_;
  SEPSP_CHECK_MSG(s.dirty_leaves.empty() && s.updated_arcs.empty(),
                  "staged updates pending — call apply() before snapshot()");
  // Structural fork: the snapshot aliases every value slab of the live
  // query engine (future refreshes detach only touched slabs) and keeps
  // this engine's whole state alive through an aliasing handle to the
  // augmentation — no copies proportional to the structure. The aug
  // values may keep mutating under later apply() calls; the snapshot
  // never reads them (its query resolves values from its own forked
  // slabs). Likewise the certificate is copied here, at freeze time: a
  // certified epoch's queries skip the negative-cycle pass.
  std::shared_ptr<const Augmentation<S>> aug_alias(state_, &s.aug);
  const bool certified = s.aug.cycle_free;
  Snapshot snap;
  snap.epoch = s.epoch;
  snap.engine = SeparatorShortestPaths<S>::freeze(
      SeparatorShortestPaths<S>::from_forked_query(
          *s.g, std::move(aug_alias),
          s.query->fork_shared(options.query.detect_negative_cycles &&
                               !certified),
          certified, options));
  return snap;
}

double IncrementalEngine::weight(Vertex u, Vertex v) const {
  const State& s = *state_;
  const auto arcs = s.g->out(u);
  const auto lo = std::lower_bound(
      arcs.begin(), arcs.end(), v,
      [](const Arc& a, Vertex target) { return a.to < target; });
  const auto hi = std::upper_bound(
      lo, arcs.end(), v,
      [](Vertex target, const Arc& a) { return target < a.to; });
  const std::size_t base =
      static_cast<std::size_t>(arcs.data() - s.g->arcs().data());
  double best = std::numeric_limits<double>::infinity();
  for (auto it = lo; it != hi; ++it) {
    const std::size_t arc =
        base + static_cast<std::size_t>(it - arcs.begin());
    best = std::min(best, s.weights[arc]);
  }
  return best;
}

QueryResult<TropicalD> IncrementalEngine::distances(Vertex source) const {
  SEPSP_CHECK_MSG(state_->dirty_leaves.empty() && state_->updated_arcs.empty(),
                  "staged updates pending — call apply() first");
  return state_->query->run(source);
}

const Augmentation<TropicalD>& IncrementalEngine::augmentation() const {
  return state_->aug;
}

const LeveledQuery<TropicalD>& IncrementalEngine::query_engine() const {
  return *state_->query;
}

}  // namespace sepsp
