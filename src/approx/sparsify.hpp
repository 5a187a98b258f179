// Eps-pruned Algorithm 4.1: the exact leaves-up E+ build with a
// witness-based sparsification pass at every emission site.
//
// The recursive builder (core/builder_recursive.hpp) emits, per node,
// the *complete* shortcut graph on its separator and boundary sets.
// Completeness is what makes E+ large: most of those k(k-1) pairs are
// nearly the composition of two other pairs through some well-connected
// "pivot" vertex of the same set. This builder keeps the build-side
// recursion exact and prunes only what gets emitted:
//
//   * Per emission set (leaf B x B, internal S x S, internal B x B) a
//     handful of pivot vertices is chosen by connectivity score; every
//     pair touching a pivot is always emitted (the pivot "star").
//   * A non-pivot pair (i, j) of value v is dropped iff some pivot p
//     witnesses it within the certified slack:
//         extend(m[i][p], m[p][j]) <= v + floor(delta_l * v)
//     where delta_l is the pruning budget of the node's level.
//   * Budgets below kMinPruneDelta disable pruning outright. The floor
//     on the slack alone is not enough for a clean exact limit: scaled
//     values grow like 1/eps, so floor(delta * v) converges to
//     dist/w_min — not to 0 — and exactly-witnessed pairs would keep
//     being dropped at every budget. With the delta floor, the eps -> 0
//     limit reproduces the exact builder bit-for-bit.
//   * Hop compression: an internal node whose B -> S / S -> B
//     rectangles are smaller than its B x B square (2|B||S| <
//     |B|(|B|-1)) emits the rectangles instead. The square's
//     "cross the separator" component is exactly the three-hop
//     composition rectangle (x) S x S closure (x) rectangle — all three
//     emitted — and its "stay in one child" component is already
//     covered by that child's own emissions, so the square adds edges
//     but no information. Compression is exact and consumes no error
//     budget; it costs extra query hops, which the converged query
//     path absorbs. Like pruning it is enabled only when delta > 0, so
//     the exact limit stays bit-for-bit.
//
// Error composition — why budgets combine by max, not by product: the
// boundary matrices handed to the parent are the *exact* child
// distances (pruning touches only the emitted copy), so every retained
// witness pair carries an exact value. A query path decomposes into
// consecutive shortcut segments; replacing one dropped segment (i, j)
// by its witness (i, p), (p, j) costs at most a (1 + delta_l) factor
// on that segment alone and both replacement edges are themselves
// retained-and-exact, never re-inflated by another level's budget.
// Summing segment bounds, a path is stretched by at most
// (1 + max_l delta_l) end to end. A uniform per-level schedule
// delta_l = delta is therefore optimal: tapering any level only
// shrinks its pruning power without buying the other levels anything.
// sparsify_level_delta() keeps the per-level hook explicit.
//
// Query-side caveat the engine must honor: a witness pair (i, p),
// (p, j) lives on the *same* tree level as the dropped pair, so a
// pruned path can need two consecutive same-level hops — one more than
// the bitonic witness structure the fixed leveled schedule is built
// for — and a hop-compressed B x B pair needs the three-hop rectangle
// composition. The build therefore clears Augmentation::complete, and
// every query over the result (LeveledQuery's walker) replaces the
// schedule's trailing E passes with a fixpoint polish over E u E+,
// which closes both gaps.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/augment.hpp"
#include "core/builder_recursive.hpp"
#include "obs/trace.hpp"
#include "semiring/matrix.hpp"

namespace sepsp {

/// Outcome counters of one sparsified build. kept counts the finite
/// shortcuts actually emitted (including rectangle entries the exact
/// builder has no counterpart for); dropped + hop_compressed counts the
/// finite pairs elided relative to the exact builder. Unreachable pairs
/// are compacted away before dedup (as in the exact builder's dedup)
/// and counted in neither.
struct SparsifyStats {
  std::uint64_t kept = 0;     ///< finite shortcuts emitted
  std::uint64_t dropped = 0;  ///< finite shortcuts pruned under a witness
  /// Finite internal B x B pairs elided by hop compression: the node
  /// emitted its B->S / S->B rectangles instead of the B x B square,
  /// so these pairs are recovered *exactly* at query time as the
  /// three-hop composition through the (emitted) S x S closure. They
  /// consume no error budget.
  std::uint64_t hop_compressed = 0;
  double delta = 0.0;  ///< per-level pruning budget delta_l
  /// max_l delta_l over levels that actually dropped something — the
  /// factor the build certifies (0 when nothing was pruned).
  double delta_used = 0.0;
};

namespace detail {

/// Pivots per emission set. More pivots widen the witness net (more
/// drops) but enlarge the always-kept star; 4 is a good trade on the
/// mesh/grid families.
inline constexpr std::size_t kSparsifyPivots = 4;
/// Sets smaller than this are emitted verbatim: with k(k-1) pairs near
/// the star size there is nothing to win.
inline constexpr std::size_t kSparsifyMinSet = 2 * kSparsifyPivots;
/// Budgets below this floor disable pruning outright (see the header
/// comment): in the scaled integer domain the per-pair slack
/// floor(delta * v) does not vanish with delta, so without the floor a
/// minuscule budget would still strip exactly-witnessed pairs and the
/// eps -> 0 limit would never reach the exact build.
inline constexpr double kMinPruneDelta = 1e-4;

/// The per-level budget schedule (see the header comment for why the
/// uniform schedule is the right one).
inline double sparsify_level_delta(double delta, std::uint32_t /*level*/) {
  return delta;
}

struct PruneCounters {
  std::atomic<std::uint64_t> kept{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> hop_compressed{0};
};

/// Whether an internal node's B x B square should be replaced by its
/// B -> S / S -> B rectangles. Purely size-driven, so the decision is
/// re-derivable anywhere from the node alone.
inline bool hop_compress_node(const DecompNode& t, double delta) {
  const std::size_t b = t.boundary.size();
  const std::size_t s = t.separator.size();
  return delta > 0.0 && b != 0 && s != 0 && 2 * b * s < pair_count(b);
}

/// Chooses up to kSparsifyPivots pivot indices over a k-element set with
/// values at(i, j). Candidates are ranked by how widely they reach and
/// are reached: fewest unreachable partners first, then smallest summed
/// distance (sums accumulate in double so kInf-free totals cannot
/// overflow Value). Returns the number chosen: 0 when the set is below
/// kSparsifyMinSet (nothing to win over the star size).
template <typename At>
std::size_t select_pivots(std::size_t k, const At& at,
                          std::array<std::size_t, kSparsifyPivots>& pivots) {
  using S = TropicalI;
  using Value = S::Value;
  if (k < kSparsifyMinSet) return 0;
  struct Rank {
    std::uint32_t inf = 0;
    double sum = 0.0;
    std::uint32_t idx = 0;
  };
  std::vector<Rank> rank(k);
  for (std::size_t i = 0; i < k; ++i) rank[i].idx = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const Value v = at(i, j);
      if (v >= S::kInf) {
        ++rank[i].inf;
        ++rank[j].inf;
      } else {
        rank[i].sum += static_cast<double>(v);
        rank[j].sum += static_cast<double>(v);
      }
    }
  }
  std::partial_sort(rank.begin(), rank.begin() + kSparsifyPivots, rank.end(),
                    [](const Rank& a, const Rank& b) {
                      if (a.inf != b.inf) return a.inf < b.inf;
                      if (a.sum != b.sum) return a.sum < b.sum;
                      return a.idx < b.idx;
                    });
  for (std::size_t p = 0; p < kSparsifyPivots; ++p) pivots[p] = rank[p].idx;
  return kSparsifyPivots;
}

/// Emits the complete ordered-pair set over `verts` (values from
/// at(i, j), indices into `verts`) into `out`, dropping witnessed
/// non-pivot pairs as described above. Returns past-the-end of the
/// emitted entries; the caller pads its slice. Emission order matches
/// the exact builder's (i-major), so a zero-drop run is bit-identical.
template <typename At>
Shortcut<TropicalI>* emit_pruned(std::span<const Vertex> verts, const At& at,
                                 double delta, Shortcut<TropicalI>* out,
                                 PruneCounters& counters) {
  using S = TropicalI;
  using Value = S::Value;
  const std::size_t k = verts.size();

  std::array<std::size_t, kSparsifyPivots> pivots{};
  std::size_t num_pivots = 0;
  if (delta > 0.0) num_pivots = select_pivots(k, at, pivots);

  std::uint64_t kept = 0, dropped = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const Value v = at(i, j);
      if (v >= S::kInf) {
        *out++ = {verts[i], verts[j], v};  // dedup removes it either way
        continue;
      }
      bool drop = false;
      if (num_pivots != 0) {
        bool star = false;
        for (std::size_t p = 0; p < num_pivots; ++p) {
          star = star || pivots[p] == i || pivots[p] == j;
        }
        // floor(delta v): the slack the level's budget certifies. A
        // slack of 0 keeps the pair, so delta -> 0 never drops (exact
        // parity) and witnesses are never accepted on a tie alone.
        const Value slack = static_cast<Value>(delta * static_cast<double>(v));
        if (!star && slack >= 1) {
          const Value bound = v + slack;
          for (std::size_t p = 0; p < num_pivots && !drop; ++p) {
            const std::size_t pv = pivots[p];
            drop = S::extend(at(i, pv), at(pv, j)) <= bound;
          }
        }
      }
      if (drop) {
        ++dropped;
      } else {
        ++kept;
        *out++ = {verts[i], verts[j], v};
      }
    }
  }
  counters.kept.fetch_add(kept, std::memory_order_relaxed);
  counters.dropped.fetch_add(dropped, std::memory_order_relaxed);
  return out;
}

/// Hop-compressed emission of an internal node: the B -> S / S -> B
/// rectangles the through product was built from (exact child
/// distances; finite entries only — the padded tail covers the rest)
/// instead of the B x B square, whose finite pairs are counted as
/// hop-compressed. The rectangles are witness-pruned with the S-side
/// pivots of the hs closure: a witness hop rides a pivot column of the
/// rectangle (always kept) and an hs star edge (always kept, exact), so
/// dropped entries keep the one-level exact-witness invariant the error
/// bound rests on.
inline Shortcut<TropicalI>* emit_rectangles(const NodeValues<TropicalI>& v,
                                            double delta,
                                            Shortcut<TropicalI>* out,
                                            PruneCounters& counters) {
  using S = TropicalI;
  const std::span<const Vertex> st = v.node.separator;
  const std::span<const Vertex> bt = v.node.boundary;
  const Matrix<S>& hs = v.hs;
  const Matrix<S>& b_to_s = v.b_to_s;
  const Matrix<S>& s_to_b = v.s_to_b;
  std::array<std::size_t, kSparsifyPivots> spiv{};
  const std::size_t nsp = select_pivots(
      st.size(), [&](std::size_t i, std::size_t j) { return hs.at(i, j); },
      spiv);
  auto is_pivot = [&](std::size_t q) {
    for (std::size_t p = 0; p < nsp; ++p) {
      if (spiv[p] == q) return true;
    }
    return false;
  };
  // Whether a finite entry `value` in separator column q is witnessed
  // within its slack through some pivot w, at cost via(w).
  auto witnessed = [&](std::size_t q, S::Value value, const auto& via) {
    const S::Value slack =
        static_cast<S::Value>(delta * static_cast<double>(value));
    if (nsp == 0 || slack < 1 || is_pivot(q)) return false;
    for (std::size_t sp = 0; sp < nsp; ++sp) {
      if (via(spiv[sp]) <= value + slack) return true;
    }
    return false;
  };
  std::uint64_t rect_kept = 0, rect_dropped = 0, square = 0;
  auto keep = [&](Vertex from, Vertex to, S::Value value, bool drop) {
    if (drop) {
      ++rect_dropped;
    } else {
      *out++ = {from, to, value};
      ++rect_kept;
    }
  };
  for (std::size_t p = 0; p < bt.size(); ++p) {
    for (std::size_t q = 0; q < st.size(); ++q) {
      const S::Value to_s = b_to_s.at(p, q);
      if (to_s < S::kInf) {
        keep(bt[p], st[q], to_s, witnessed(q, to_s, [&](std::size_t w) {
               return S::extend(b_to_s.at(p, w), hs.at(w, q));
             }));
      }
      const S::Value from_s = s_to_b.at(q, p);
      if (from_s < S::kInf) {
        keep(st[q], bt[p], from_s, witnessed(q, from_s, [&](std::size_t w) {
               return S::extend(hs.at(q, w), s_to_b.at(w, p));
             }));
      }
    }
  }
  for (std::size_t p = 0; p < bt.size(); ++p) {
    for (std::size_t q = 0; q < bt.size(); ++q) {
      if (p != q && v.bm.at(p, q) < S::kInf) ++square;
    }
  }
  counters.kept.fetch_add(rect_kept, std::memory_order_relaxed);
  counters.dropped.fetch_add(rect_dropped, std::memory_order_relaxed);
  counters.hop_compressed.fetch_add(square, std::memory_order_relaxed);
  return out;
}

/// The sparsified build's emission policy for the shared Algorithm 4.1
/// driver: witness-pruned S x S and B x B sets (or pruned rectangles at
/// hop-compressed nodes), each node's slice padded with zero() entries.
/// Called concurrently for the nodes of one level; all state is atomic.
class PrunedEmission {
 public:
  using S = TropicalI;

  explicit PrunedEmission(double delta) : delta_(delta) {}

  /// Slices are sized for the *unpruned* counts — pruning decisions are
  /// data-dependent, but a slice can only shrink.
  std::size_t capacity(const DecompNode& t) const {
    if (hop_compress_node(t, delta_)) {
      return pair_count(t.separator.size()) +
             2 * t.boundary.size() * t.separator.size();
    }
    return CompleteEmission<S>::capacity(t);
  }

  void operator()(const NodeValues<S>& v, std::span<Shortcut<S>> slice) {
    const DecompNode& t = v.node;
    const double delta_l = sparsify_level_delta(delta_, t.level);
    const std::uint64_t before =
        counters_.dropped.load(std::memory_order_relaxed);
    Shortcut<S>* out = emit_pruned(
        t.separator, [&](std::size_t i, std::size_t j) { return v.hs.at(i, j); },
        delta_l, slice.data(), counters_);
    if (hop_compress_node(t, delta_)) {
      out = emit_rectangles(v, delta_l, out, counters_);
    } else {
      out = emit_pruned(
          t.boundary,
          [&](std::size_t p, std::size_t q) { return v.bm.at(p, q); }, delta_l,
          out, counters_);
    }
    note_drop_budget(before, delta_l);
    // The unused tail of the slice is padded with zero()-valued entries
    // the final compaction provably drops (no path beats the combine
    // identity).
    Shortcut<S>* const end = slice.data() + slice.size();
    SEPSP_DCHECK(out <= end);
    while (out != end) *out++ = {0, 0, S::zero()};
  }

  SparsifyStats stats() const {
    SparsifyStats st;
    st.kept = counters_.kept.load(std::memory_order_relaxed);
    st.dropped = counters_.dropped.load(std::memory_order_relaxed);
    st.hop_compressed = counters_.hop_compressed.load(std::memory_order_relaxed);
    st.delta = delta_;
    st.delta_used =
        std::bit_cast<double>(delta_used_bits_.load(std::memory_order_relaxed));
    return st;
  }

 private:
  // Records the largest per-level budget that actually dropped a pair
  // (monotone CAS on the double's bit pattern; budgets are >= 0).
  void note_drop_budget(std::uint64_t before, double used) {
    if (counters_.dropped.load(std::memory_order_relaxed) == before) return;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(used);
    std::uint64_t cur = delta_used_bits_.load(std::memory_order_relaxed);
    while (std::bit_cast<double>(cur) < used &&
           !delta_used_bits_.compare_exchange_weak(cur, bits,
                                                   std::memory_order_relaxed)) {
    }
  }

  double delta_;
  PruneCounters counters_;
  std::atomic<std::uint64_t> delta_used_bits_{0};
};

}  // namespace detail

/// Algorithm 4.1 with eps-pruned emission, for the rounded-integer
/// semiring: the exact builder's level driver and node step with the
/// PrunedEmission policy, so only the emitted shortcut sets differ.
/// `delta` is the per-level pruning budget (relative slack);
/// `delta < kMinPruneDelta` (in particular 0) reproduces the exact
/// builder's output bit-for-bit. H_S is closed by Floyd–Warshall, as
/// in the exact engine's build.
inline Augmentation<TropicalI> build_augmentation_sparsified(
    const Digraph& g, const SeparatorTree& tree, double delta,
    SparsifyStats* stats = nullptr) {
  using S = TropicalI;

  SEPSP_TRACE_SPAN("build.sparsified");
  if (delta < detail::kMinPruneDelta) delta = 0.0;
  const pram::CostScope scope;
  detail::PrunedEmission emit(delta);
  Augmentation<S> aug =
      detail::run_algorithm41<S>(g, tree, ClosureKind::kFloydWarshall, emit,
                                 /*keep_bnd=*/false)
          .aug;

  // Padding and unreachable entries all carry zero(); dedup would sort
  // and then discard them, so compact them out first — otherwise the
  // dedup sort stays proportional to the *unpruned* emission count and
  // the pruning never shows up in the build time.
  std::erase_if(aug.shortcuts, [](const Shortcut<S>& e) {
    return !S::improves(S::zero(), e.value);
  });
  dedup_shortcuts<S>(aug.shortcuts);
  aug.build_cost = scope.cost();
  aug.complete = false;
  if (stats != nullptr) *stats = emit.stats();
  return aug;
}

}  // namespace sepsp
