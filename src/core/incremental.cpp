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

  /// Per-entry change flags of the latest recompute, beside `entries`.
  std::vector<std::uint8_t> entry_changed;

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

  /// Recomputes node `id` with the shared Algorithm-4.1 node step (the
  /// Floyd–Warshall closure the initial build used) into leased scratch
  /// and, when the boundary matrix changed, copy-assigns it into bnd[id]
  /// (capacity reuse). Writes only this node's rows (bnd[id] and its
  /// entries / entry_changed range) — safe to run concurrently for
  /// distinct nodes of one tree level. Two distinct change signals come
  /// back: `matrix` (the boundary matrix — drives upward propagation)
  /// and `edges` (the contributed shortcut values — drives slot
  /// re-minimization; an internal node's S x S closure entries can
  /// change while its boundary matrix does not, and vice versa). The
  /// per-entry diff is recorded in entry_changed so apply()
  /// re-minimizes only slots whose contributed value actually moved,
  /// not every slot of a changed node. `negative_diagonal` is the
  /// node's fresh certificate flag, folded in serially by apply().
  struct Recomputed {
    bool matrix = false;
    bool edges = false;
    bool negative_diagonal = false;
  };
  Recomputed recompute_node(std::size_t id, detail::RecursiveScratch<S>& sc) {
    const std::size_t lo = aug.plan->node_offset[id];
    const std::size_t n = aug.plan->node_offset[id + 1] - lo;
    Recomputed r;
    sc.values.resize(n);
    r.negative_diagonal = detail::node_step<S>(
        *g, *tree, id, bnd, ClosureKind::kFloydWarshall,
        [&](const Arc& a) {
          return weights[static_cast<std::size_t>(&a - g->arcs().data())];
        },
        sc, sc.bm, std::span<S::Value>(sc.values));
    r.matrix = !(sc.bm == bnd[id]);
    if (r.matrix) bnd[id] = sc.bm;
    S::Value* now = entries.data() + lo;
    std::uint8_t* flags = entry_changed.data() + lo;
    for (std::size_t j = 0; j < n; ++j) {
      const bool moved =
          std::memcmp(&sc.values[j], &now[j], sizeof(S::Value)) != 0;
      flags[j] = moved ? 1 : 0;
      now[j] = sc.values[j];
      r.edges = r.edges || moved;
    }
    return r;
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
  s.entry_changed.assign(s.entries.size(), 0);

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
  // Recompute bottom-up, level by level. A node is recomputed when a
  // weight it reads changed (leaves) or when a child's boundary matrix
  // changed; propagation stops as soon as a recomputation reproduces the
  // old matrix, so local updates rarely climb far. Within a level the
  // dirty nodes are independent (each reads its children — a strictly
  // deeper, already-final level — and writes only its own rows), so
  // they run on the work-stealing pool; the change flags are then
  // folded serially in worklist order, which makes the recomputed list
  // and parent enqueue order — hence the whole batch — independent of
  // how the pool scheduled the nodes.
  std::vector<std::vector<std::size_t>> by_level(s.tree->height() + 1);
  for (const std::size_t id : s.dirty_leaves) {
    by_level[s.tree->node(id).level].push_back(id);  // dirty_seen already 1
  }
  ++s.mark_token;
  std::vector<std::size_t> recomputed;
  std::vector<std::uint32_t> touched;
  std::vector<State::Recomputed> changed;
  std::optional<obs::TraceSpan> phase(std::in_place, "incremental.recompute");
  for (std::size_t lvl = by_level.size(); lvl-- > 0;) {
    // The level worklist can grow while deeper levels run (parent
    // enqueue), but never once its own level starts.
    const std::vector<std::size_t>& ids = by_level[lvl];
    if (ids.empty()) continue;
    changed.assign(ids.size(), {});
    // One scratch lease per block, not per node: the lease comes off a
    // mutex-guarded pool, and a wide level would otherwise serialize on
    // it.
    auto run_block = [&](std::size_t lo, std::size_t hi) {
      auto sc = s.scratch->acquire();
      for (std::size_t k = lo; k < hi; ++k) {
        changed[k] = s.recompute_node(ids[k], *sc);
      }
    };
    if (ids.size() > 1) {
      pram::ThreadPool::global().parallel_blocks(0, ids.size(), run_block,
                                                 /*grain=*/2);
    } else {
      run_block(0, ids.size());
    }
    // Serial fold in worklist order: deterministic whatever the pool did.
    // Only slots whose contributed value actually moved (the per-entry
    // diff recompute_node recorded) are marked for re-minimization — an
    // entry that kept its value cannot move its slot's minimum, and on
    // big nodes most entries sit far from any dirty leaf.
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::size_t id = ids[k];
      recomputed.push_back(id);
      const std::uint8_t negative = changed[k].negative_diagonal ? 1 : 0;
      if (negative != s.negative_diagonal[id]) {
        s.negative_diagonal[id] = negative;
        negative ? ++s.negative_nodes : --s.negative_nodes;
      }
      if (changed[k].edges) {
        const EplusPlan& plan = *s.aug.plan;
        for (std::size_t e = plan.node_offset[id]; e < plan.node_offset[id + 1];
             ++e) {
          if (!s.entry_changed[e]) continue;
          const std::uint32_t slot = plan.entry_slot[e];
          if (s.slot_mark[slot] != s.mark_token) {
            s.slot_mark[slot] = s.mark_token;
            touched.push_back(slot);
          }
        }
      }
      const std::int32_t parent = s.tree->node(id).parent;
      if (parent >= 0 && changed[k].matrix) {
        const auto pid = static_cast<std::size_t>(parent);
        if (!s.dirty_seen[pid]) {
          s.dirty_seen[pid] = 1;
          by_level[s.tree->node(pid).level].push_back(pid);
        }
      }
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
  s.last_stats = {recomputed.size(), touched.size(), slabs_copied};

  for (const std::size_t id : recomputed) s.dirty_seen[id] = 0;
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
