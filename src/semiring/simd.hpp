// Explicit SIMD substrate for the semiring hot loops.
//
// Two kinds of call site dominate both phases of the system: the dense
// min-plus kernels of Algorithms 4.1/4.3 (semiring/matrix.hpp: the
// rectangular products and the Floyd–Warshall closure) and the
// lane-major bucket sweeps of the source-batched leveled query
// (SeparatorShortestPaths::distances_batch, core/engine.hpp). This
// layer gives both hand-written fixed-width vector kernels selected
// once at startup by runtime CPU dispatch. A dense kernel is one dispatched call per
// 64x64 output tile (product) or per k-panel (fw_panel), never one per
// row.
//
// Tiers. Every kernel has a scalar loop, written once in this header,
// and one generic vector body (simd_kernels.inc), written once over
// each kind's vector ops (its Lanes<S>, the one place a kind's vector
// semantics are stated) and compiled per vector tier, each in its own
// translation unit with its own ISA flags:
//
//   kScalar  the scalar loops below, run inline by the dispatched entry
//            points (the bit-identity oracle)
//   kSse     128-bit vectors (x86-64 baseline SSE2; portable fallback —
//            the same generic-vector code lowers to NEON on aarch64;
//            needs no flags, so it is always built)
//   kAvx2    256-bit vectors, compiled with -mavx2
//   kAvx512  512-bit vectors, compiled with -mavx512{f,dq,bw,vl}
//
// The kernels are written against GCC/Clang fixed-width vector
// extensions (elementwise +, ?:, comparisons), NOT raw intrinsics: the
// language guarantees per-element semantics identical to the scalar
// operators, and every kernel keeps the scalar loops' per-cell order of
// combines, so every tier is bit-identical to the scalar loops by
// construction — enforced by tests/test_simd and tests/test_kernels.
// The vector tiers run the same scalar loops on the ragged tails their
// vectors leave.
//
// Dispatch. simd::active_tier() is resolved once: the highest tier both
// built (tier TU availability) and supported by this CPU (CPUID),
// optionally lowered by the SEPSP_FORCE_ISA environment variable
// (scalar|sse|avx2|avx512; forcing above hardware/compile support
// clamps down). Tests may override it at runtime with force_tier(). The
// templated entry points below read the active tier per call (one
// relaxed atomic load per kernel call or bucket sweep): on the scalar
// tier, for semirings without a vector kind and for one-lane bucket
// passes, they run the scalar loops; otherwise they call the tier's
// KernelTable entry. Code compiled against this header never changes
// meaning, only speed.
//
// Alignment contract. Kernels use unaligned-tolerant loads; callers
// that want the aligned fast path allocate through AlignedVector
// (util/aligned.hpp, 64-byte base) so that every row whose stride is a
// multiple of the vector width stays aligned. No kernel reads past the
// extents it is handed — padding is a cache courtesy, not a
// correctness requirement.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "semiring/semiring.hpp"

namespace sepsp::simd {

/// Instruction-set tiers, ordered; dispatch picks the highest usable.
enum class Tier : std::uint8_t {
  kScalar = 0,
  kSse = 1,     ///< 128-bit generic vectors (SSE2 / NEON)
  kAvx2 = 2,    ///< 256-bit, requires AVX2
  kAvx512 = 3,  ///< 512-bit, requires AVX-512 F/DQ/BW/VL
};

/// Canonical lowercase tier name ("scalar", "sse", "avx2", "avx512").
const char* tier_name(Tier t);

/// Parses a tier name (the SEPSP_FORCE_ISA vocabulary). Returns false
/// on unknown input, leaving *out untouched.
bool parse_tier(std::string_view name, Tier* out);

/// Highest tier compiled into this binary (at least kSse).
Tier compiled_tier();

/// Highest tier this machine can run: compiled_tier() clamped by CPUID.
/// Resolved once per process.
Tier detected_tier();

/// The tier the dispatched kernels currently use. Initialized to
/// detected_tier() lowered by SEPSP_FORCE_ISA (if set and parsable).
Tier active_tier();

/// Test/bench hook: re-points dispatch at `t` (clamped to
/// detected_tier(); you cannot force a tier the machine cannot run).
/// Returns the tier actually installed. Affects subsequent kernel
/// calls process-wide.
Tier force_tier(Tier t);

// --- the scalar loops --------------------------------------------------
// Each kernel's scalar semantics, written once. The scalar tier runs
// these loops whole (from index 0); the vector tiers (simd_kernels.inc)
// run them from the index where their whole vectors end, over the
// ragged tail. `Tag` selects no behaviour: a tier TU instantiates the
// loops with a tag from its own anonymous namespace, which gives it a
// private copy (internal linkage) built with its own flags, so the
// linker can never hand a wider tier's copy to a scalar caller.

/// Tile edge of the blocked kernels: 64x64 doubles = 32 KiB per tile,
/// so the three tiles a product touches stay L2-resident.
inline constexpr std::size_t kKernelTile = 64;

/// The row step of the dense loops:
///   o[j] = combine(o[j], extend(a, b[j]))   for j < n
/// (tail() starts at a given j), reading each b[j] before writing o[j]
/// (o == b aliases exactly when a Floyd–Warshall pivot row updates
/// itself). It is only called with a != zero(), because both loops skip
/// a zero() multiplier exactly as the reference product does.
template <Semiring S, typename Tag = void>
struct ScalarRow {
  using Value = typename S::Value;
  void operator()(Value* o, const Value* b, Value a, std::size_t n) const {
    tail(o, b, a, 0, n);
  }
  static void tail(Value* o, const Value* b, Value a, std::size_t j,
                   std::size_t n) {
    for (; j < n; ++j) {
      o[j] = S::combine(o[j], S::extend(a, b[j]));
    }
  }
};

/// o ⊕= a ⊗ b over strided sub-rectangles: o is rows x cols (row stride
/// ldo), a is rows x mid (lda), b is mid x cols (ldb). Every cell
/// combines its candidates in ascending k, one kKernelTile slice of k
/// at a time (so the slice of b stays cache-resident). o must not
/// overlap a or b. The vector tiers keep this order inside their
/// register blocks.
template <Semiring S>
inline void product_loops(typename S::Value* o, std::size_t ldo,
                          const typename S::Value* a, std::size_t lda,
                          const typename S::Value* b, std::size_t ldb,
                          std::size_t rows, std::size_t mid,
                          std::size_t cols) {
  for (std::size_t k0 = 0; k0 < mid; k0 += kKernelTile) {
    const std::size_t k1 = std::min(mid, k0 + kKernelTile);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t k = k0; k < k1; ++k) {
        const auto aik = a[i * lda + k];
        if (!S::improves(S::zero(), aik)) continue;  // aik == zero: skip
        ScalarRow<S>{}(o + i * ldo, b + k * ldb, aik, cols);
      }
    }
  }
}

/// The sequential phases of one k-panel K = [k0, k1) of blocked
/// Floyd–Warshall over the n x n matrix m (row stride ld):
///   - the diagonal tile K x K, closed in place (the reference loop
///     restricted to K — for n <= kKernelTile this is the whole
///     closure);
///   - the row panel K x (not K), each cell sweeping k in K through
///     the closed diagonal, one kKernelTile column chunk at a time;
///   - the column panel (not K) x K, row by row.
/// What is left for the k-panel is the interior (not K) x (not K),
/// which reads only the finished panels: a product per tile. The
/// vector tiers pass their own row step, a type private to their TU.
template <Semiring S, typename Row = ScalarRow<S>>
inline void fw_panel_loops(typename S::Value* m, std::size_t ld,
                           std::size_t n, std::size_t k0, std::size_t k1,
                           Row row = {}) {
  const auto sweep = [&](std::size_t i0, std::size_t i1, std::size_t j0,
                         std::size_t j1) {
    for (std::size_t k = k0; k < k1; ++k) {
      for (std::size_t i = i0; i < i1; ++i) {
        const auto mik = m[i * ld + k];
        if (!S::improves(S::zero(), mik)) continue;
        row(m + i * ld + j0, m + k * ld + j0, mik, j1 - j0);
      }
    }
  };
  sweep(k0, k1, k0, k1);
  for (std::size_t j0 = 0; j0 < k0; j0 += kKernelTile) {
    sweep(k0, k1, j0, std::min(k0, j0 + kKernelTile));
  }
  for (std::size_t j0 = k1; j0 < n; j0 += kKernelTile) {
    sweep(k0, k1, j0, std::min(n, j0 + kKernelTile));
  }
  // A column-panel row reads only itself and the closed diagonal, so
  // running each row through all of K is the same per-cell order.
  const auto column_panel = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t k = k0; k < k1; ++k) {
        const auto mik = m[i * ld + k];
        if (!S::improves(S::zero(), mik)) continue;
        row(m + i * ld + k0, m + k * ld + k0, mik, k1 - k0);
      }
    }
  };
  column_panel(0, k0);
  column_panel(k1, n);
}

/// Fused combine + change detection over one row (square_step's merge
/// pass): dst[j] = combine(dst[j], src[j]) for each j from the given
/// start up to n; true iff any of them improves().
template <Semiring S, typename Tag = void>
inline bool combine_row_loop(typename S::Value* dst,
                             const typename S::Value* src, std::size_t j,
                             std::size_t n) {
  bool changed = false;
  for (; j < n; ++j) {
    if (S::improves(dst[j], src[j])) changed = true;
    dst[j] = S::combine(dst[j], src[j]);
  }
  return changed;
}

/// One edge of a bucket pass over contiguous lanes: dst[l] =
/// combine(dst[l], relax_extend(src[l], w)) for each lane l from the
/// given start up to `lanes`. With kTrack, sets bit l of `changed` when
/// lane l's value changed (a register, not a store per edge).
template <Semiring S, bool kTrack, typename Tag = void>
inline void lane_loop(typename S::Value* dst, const typename S::Value* src,
                      typename S::Value w, std::size_t l, std::size_t lanes,
                      std::uint64_t& changed) {
  for (; l < lanes; ++l) {
    const typename S::Value next =
        S::combine(dst[l], relax_extend<S>(src[l], w));
    if constexpr (kTrack) {
      changed |= static_cast<std::uint64_t>(next != dst[l]) << l;
    }
    dst[l] = next;
  }
}

/// ORs bit l of `bits` into changed[l] for each lane l < lanes.
template <typename Tag = void>
inline void or_lane_bits(std::uint8_t* changed, std::uint64_t bits,
                         std::size_t lanes) {
  for (std::size_t l = 0; l < lanes; ++l) {
    changed[l] |= static_cast<std::uint8_t>((bits >> l) & 1);
  }
}

/// The negative-cycle check over m edges of a lane-major matrix of row
/// width `width`: sets found[l] (l < lanes) when some edge still
/// improves its head significantly in lane l (S::detect_improves),
/// skipping unreached lanes. Not dispatched: scalar at every tier.
template <Semiring S>
  requires S::kDetectNegativeCycles
inline void bucket_detect(const typename S::Value* dist,
                          const std::uint32_t* from, const std::uint32_t* to,
                          const typename S::Value* value, std::size_t m,
                          std::size_t width, std::size_t lanes, bool* found) {
  for (std::size_t i = 0; i < m; ++i) {
    const auto* du = dist + static_cast<std::size_t>(from[i]) * width;
    const auto* dw = dist + static_cast<std::size_t>(to[i]) * width;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!S::improves(S::zero(), du[l])) continue;  // unreached
      if (S::detect_improves(dw[l], relax_extend<S>(du[l], value[i]))) {
        found[l] = true;
      }
    }
  }
}

// --- kernel function table ---------------------------------------------
// One entry per (kernel, semiring kind), one table per vector tier; the
// scalar tier has no table, it runs the loops above. Kinds cover the
// value domains the shipped semirings relax over:
//   minplus_d  double    min / +            (TropicalD)
//   minplus_i  int64     min / saturating + (TropicalI)
//   maxmin_d   double    max / min          (BottleneckSR)
//   orand_b    uint8     or / and           (BooleanSR)
//
// Kernel shapes (V = kind's value type):
//   product(o, ldo, a, lda, b, ldb, rows, mid, cols):
//                              o ⊕= a ⊗ b over strided sub-rectangles,
//                              the order of product_loops, with a block
//                              of output rows x 2 vectors kept in
//                              registers across each kKernelTile slice
//                              of k.
//   fw_panel(m, ld, n, k0, k1): the sequential phases of one
//                              Floyd–Warshall k-panel, the order of
//                              fw_panel_loops, as inline row loops.
//   combine_row(dst, src, n):  combine_row_loop; returns nonzero iff
//                              any improves().
//   sweep(dist, from, to, value, m, lanes, changed):
//                              lane_loop for each edge i, from
//                              dist[from[i]*lanes..] to
//                              dist[to[i]*lanes..] — one batched-query
//                              bucket pass. 2 <= lanes <= 64. A null
//                              `changed` is an untracked pass; else the
//                              pass ORs each lane's change flag into
//                              changed[0..lanes).
template <typename V>
using ProductKernel = void(V* o, std::size_t ldo, const V* a,
                           std::size_t lda, const V* b, std::size_t ldb,
                           std::size_t rows, std::size_t mid,
                           std::size_t cols);
template <typename V>
using FwPanelKernel = void(V* m, std::size_t ld, std::size_t n,
                           std::size_t k0, std::size_t k1);
template <typename V>
using CombineRowKernel = int(V* dst, const V* src, std::size_t n);
template <typename V>
using SweepKernel = void(V* dist, const std::uint32_t* from,
                         const std::uint32_t* to, const V* value,
                         std::size_t m, std::size_t lanes,
                         std::uint8_t* changed);

struct KernelTable {
  ProductKernel<double>* product_minplus_d;
  FwPanelKernel<double>* fw_panel_minplus_d;
  CombineRowKernel<double>* combine_row_minplus_d;
  SweepKernel<double>* sweep_minplus_d;

  ProductKernel<long long>* product_minplus_i;
  FwPanelKernel<long long>* fw_panel_minplus_i;
  CombineRowKernel<long long>* combine_row_minplus_i;
  SweepKernel<long long>* sweep_minplus_i;

  ProductKernel<double>* product_maxmin_d;
  FwPanelKernel<double>* fw_panel_maxmin_d;
  CombineRowKernel<double>* combine_row_maxmin_d;
  SweepKernel<double>* sweep_maxmin_d;

  ProductKernel<unsigned char>* product_orand_b;
  FwPanelKernel<unsigned char>* fw_panel_orand_b;
  CombineRowKernel<unsigned char>* combine_row_orand_b;
  SweepKernel<unsigned char>* sweep_orand_b;
};

/// The kernel set for a vector tier (t != kScalar). Tiers not compiled
/// in alias the next lower compiled tier.
const KernelTable& table(Tier t);

/// Maps a shipped semiring to its KernelTable members. Semirings
/// without a specialization always run the scalar loops (and never
/// touch the table).
template <typename S>
struct KindTraits;

template <>
struct KindTraits<TropicalD> {
  static constexpr auto kProduct = &KernelTable::product_minplus_d;
  static constexpr auto kFwPanel = &KernelTable::fw_panel_minplus_d;
  static constexpr auto kCombineRow = &KernelTable::combine_row_minplus_d;
  static constexpr auto kSweep = &KernelTable::sweep_minplus_d;
};
template <>
struct KindTraits<TropicalI> {
  static constexpr auto kProduct = &KernelTable::product_minplus_i;
  static constexpr auto kFwPanel = &KernelTable::fw_panel_minplus_i;
  static constexpr auto kCombineRow = &KernelTable::combine_row_minplus_i;
  static constexpr auto kSweep = &KernelTable::sweep_minplus_i;
};
template <>
struct KindTraits<BottleneckSR> {
  static constexpr auto kProduct = &KernelTable::product_maxmin_d;
  static constexpr auto kFwPanel = &KernelTable::fw_panel_maxmin_d;
  static constexpr auto kCombineRow = &KernelTable::combine_row_maxmin_d;
  static constexpr auto kSweep = &KernelTable::sweep_maxmin_d;
};
template <>
struct KindTraits<BooleanSR> {
  static constexpr auto kProduct = &KernelTable::product_orand_b;
  static constexpr auto kFwPanel = &KernelTable::fw_panel_orand_b;
  static constexpr auto kCombineRow = &KernelTable::combine_row_orand_b;
  static constexpr auto kSweep = &KernelTable::sweep_orand_b;
};

/// True when S has a vector kernel kind (the four shipped semirings).
template <typename S>
concept VectorizableSemiring = requires { KindTraits<S>::kProduct; };

template <typename S>
inline constexpr bool kVectorizable = VectorizableSemiring<S>;

// --- dispatched entry points -------------------------------------------
// Each reads active_tier() per call: the scalar loops on the scalar
// tier, the tier's table entry otherwise. Semirings without a kind,
// and one-lane bucket passes, always run the scalar loops.

/// o ⊕= a ⊗ b over strided sub-rectangles (see product_loops).
template <Semiring S>
inline void product(typename S::Value* o, std::size_t ldo,
                    const typename S::Value* a, std::size_t lda,
                    const typename S::Value* b, std::size_t ldb,
                    std::size_t rows, std::size_t mid, std::size_t cols) {
  if constexpr (kVectorizable<S>) {
    const Tier t = active_tier();
    if (t != Tier::kScalar) {
      (*(table(t).*KindTraits<S>::kProduct))(o, ldo, a, lda, b, ldb, rows,
                                             mid, cols);
      return;
    }
  }
  product_loops<S>(o, ldo, a, lda, b, ldb, rows, mid, cols);
}

/// The sequential phases of Floyd–Warshall k-panel [k0, k1) of the
/// n x n matrix m (see fw_panel_loops).
template <Semiring S>
inline void fw_panel(typename S::Value* m, std::size_t ld, std::size_t n,
                     std::size_t k0, std::size_t k1) {
  if constexpr (kVectorizable<S>) {
    const Tier t = active_tier();
    if (t != Tier::kScalar) {
      (*(table(t).*KindTraits<S>::kFwPanel))(m, ld, n, k0, k1);
      return;
    }
  }
  fw_panel_loops<S>(m, ld, n, k0, k1);
}

/// dst[j] = combine(dst[j], src[j]); true iff any improves() (see
/// combine_row_loop).
template <Semiring S>
inline bool combine_row(typename S::Value* dst, const typename S::Value* src,
                        std::size_t n) {
  if constexpr (kVectorizable<S>) {
    const Tier t = active_tier();
    if (t != Tier::kScalar) {
      return (table(t).*KindTraits<S>::kCombineRow)(dst, src, n) != 0;
    }
  }
  return combine_row_loop<S>(dst, src, 0, n);
}

/// True when kernels dispatched right now would run vector code for S.
template <Semiring S>
inline bool vector_dispatch_active() {
  return kVectorizable<S> && active_tier() != Tier::kScalar;
}

/// The same for a bucket pass over `lanes` lanes: one lane fills no
/// vector, and its inline loop beats the table call (EXPERIMENTS.md
/// note 11).
template <Semiring S>
inline bool vector_dispatch_active(std::size_t lanes) {
  return lanes > 1 && vector_dispatch_active<S>();
}

/// Calls f(lanes), one lane as a compile-time constant: the lane loop
/// then compiles to one combine per edge, not a loop versioned for rows.
template <typename F>
inline void with_lane_count(std::size_t lanes, F&& f) {
  lanes == 1 ? f(std::integral_constant<std::size_t, 1>{}) : f(lanes);
}

/// bucket_sweep's scalar loop: lane_loop for every edge.
template <Semiring S, bool kTrack>
inline void sweep_loop(typename S::Value* dist, const std::uint32_t* from,
                       const std::uint32_t* to, const typename S::Value* value,
                       std::size_t m, std::size_t lanes,
                       std::uint8_t* changed) {
  std::uint64_t bits = 0;
  with_lane_count(lanes, [&](auto width) {
    for (std::size_t i = 0; i < m; ++i) {
      lane_loop<S, kTrack>(dist + static_cast<std::size_t>(to[i]) * width,
                           dist + static_cast<std::size_t>(from[i]) * width,
                           value[i], 0, width, bits);
    }
  });
  if constexpr (kTrack) or_lane_bits(changed, bits, lanes);
}

/// One bucket pass of the lane-batched query: for every edge, relax
/// `lanes` contiguous lanes of the lane-major dist matrix. lanes <= 64.
/// A non-null `changed` records per-lane improvement into
/// changed[0..lanes) (OR-semantics; callers zero the array per pass).
template <Semiring S>
inline void bucket_sweep(typename S::Value* dist, const std::uint32_t* from,
                         const std::uint32_t* to,
                         const typename S::Value* value, std::size_t m,
                         std::size_t lanes, std::uint8_t* changed = nullptr) {
  if constexpr (kVectorizable<S>) {
    if (vector_dispatch_active<S>(lanes)) {
      (table(active_tier()).*KindTraits<S>::kSweep)(dist, from, to, value, m,
                                                    lanes, changed);
      return;
    }
  }
  if (changed != nullptr) {
    sweep_loop<S, true>(dist, from, to, value, m, lanes, changed);
  } else {
    sweep_loop<S, false>(dist, from, to, value, m, lanes, nullptr);
  }
}

}  // namespace sepsp::simd
