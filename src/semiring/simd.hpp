// Explicit SIMD substrate for the semiring hot loops.
//
// Two call sites dominate both phases of the system: the 64x64 tile
// rows of the blocked dense kernels (semiring/matrix.hpp, Algorithms
// 4.1/4.3) and the lane-major bucket sweeps of the source-batched
// leveled query (LeveledQuery::run_block, core/query.hpp). Until now
// both leaned on compiler autovectorization of scalar loops, which is
// fragile across semirings and compilers; this layer replaces them with
// hand-written fixed-width vector kernels selected once at startup by
// runtime CPU dispatch.
//
// Tiers. Four implementations of every kernel are compiled into the
// library, each in its own translation unit with its own ISA flags:
//
//   kScalar  plain scalar loops (the PR 3 status quo; always present)
//   kSse     128-bit vectors (x86-64 baseline SSE2; portable fallback —
//            the same generic-vector code lowers to NEON on aarch64)
//   kAvx2    256-bit vectors, compiled with -mavx2
//   kAvx512  512-bit vectors, compiled with -mavx512{f,dq,bw,vl}
//
// The kernels are written against GCC/Clang fixed-width vector
// extensions (elementwise +, ?:, comparisons), NOT raw intrinsics: the
// language guarantees per-element semantics identical to the scalar
// operators, so every tier is bit-identical to the scalar reference by
// construction — the same guarantee PR 3 established for cache
// blocking, now extended across ISAs and enforced by tests/test_simd.
//
// Dispatch. simd::active_tier() is resolved once: the highest tier both
// compiled in (SEPSP_SIMD CMake option; tier TU availability) and
// supported by this CPU (CPUID), optionally lowered by the
// SEPSP_FORCE_ISA environment variable (scalar|sse|avx2|avx512; forcing
// above hardware/compile support clamps down). Tests may override it at
// runtime with force_tier(). The templated entry points below read the
// active tier per call (one relaxed atomic load per bucket sweep / tile
// row) and fall back to the inline scalar loop for semirings without a
// vector kind or when the scalar tier is active — so code compiled
// against this header never changes meaning, only speed.
//
// Alignment contract. Kernels use unaligned-tolerant loads; callers
// that want the aligned fast path allocate through AlignedVector
// (util/aligned.hpp, 64-byte base) so that every row whose stride is a
// multiple of the vector width stays aligned. No kernel reads past the
// extents it is handed — padding is a cache courtesy, not a
// correctness requirement.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

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

/// True when the library was compiled with SEPSP_SIMD=ON.
bool compiled_in();

/// Highest tier compiled into this binary (kScalar with SEPSP_SIMD=OFF).
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

// --- kernel function table ---------------------------------------------
// One entry per (kernel, semiring kind). Kinds cover the value domains
// the shipped semirings relax over:
//   minplus_d  double    min / +            (TropicalD)
//   minplus_i  int64     min / saturating + (TropicalI)
//   maxmin_d   double    max / min          (BottleneckSR)
//   orand_b    uint8     or / and           (BooleanSR)
//
// Kernel shapes (V = kind's value type):
//   tile_row(o, b, a, n):      o[j] = combine(o[j], extend(a, b[j])),
//                              the blocked kernels' innermost row.
//                              Caller guarantees a != zero() for the
//                              double kinds (the tile loops skip zero
//                              aik); the int/bool kinds are total.
//   combine_row(dst, src, n):  dst[j] = combine(dst[j], src[j]);
//                              returns nonzero iff any improves() —
//                              square_step's fused change detection.
//   sweep(dist, from, to, value, m, lanes):
//                              for each edge i, relax `lanes`
//                              contiguous lanes at dist[to[i]*lanes..]
//                              from dist[from[i]*lanes..] through
//                              relax_extend — one batched-query bucket
//                              pass. lanes <= 64.
//   sweep_tracked(..., changed): same, OR-ing per-lane improvement
//                              flags into changed[0..lanes).
struct KernelTable {
  void (*tile_row_minplus_d)(double*, const double*, double, std::size_t);
  int (*combine_row_minplus_d)(double*, const double*, std::size_t);
  void (*sweep_minplus_d)(double*, const std::uint32_t*, const std::uint32_t*,
                          const double*, std::size_t, std::size_t);
  void (*sweep_tracked_minplus_d)(double*, const std::uint32_t*,
                                  const std::uint32_t*, const double*,
                                  std::size_t, std::size_t, std::uint8_t*);

  void (*tile_row_minplus_i)(long long*, const long long*, long long,
                             std::size_t);
  int (*combine_row_minplus_i)(long long*, const long long*, std::size_t);
  void (*sweep_minplus_i)(long long*, const std::uint32_t*,
                          const std::uint32_t*, const long long*, std::size_t,
                          std::size_t);
  void (*sweep_tracked_minplus_i)(long long*, const std::uint32_t*,
                                  const std::uint32_t*, const long long*,
                                  std::size_t, std::size_t, std::uint8_t*);

  void (*tile_row_maxmin_d)(double*, const double*, double, std::size_t);
  int (*combine_row_maxmin_d)(double*, const double*, std::size_t);
  void (*sweep_maxmin_d)(double*, const std::uint32_t*, const std::uint32_t*,
                         const double*, std::size_t, std::size_t);
  void (*sweep_tracked_maxmin_d)(double*, const std::uint32_t*,
                                 const std::uint32_t*, const double*,
                                 std::size_t, std::size_t, std::uint8_t*);

  void (*tile_row_orand_b)(unsigned char*, const unsigned char*, unsigned char,
                           std::size_t);
  int (*combine_row_orand_b)(unsigned char*, const unsigned char*,
                             std::size_t);
  void (*sweep_orand_b)(unsigned char*, const std::uint32_t*,
                        const std::uint32_t*, const unsigned char*,
                        std::size_t, std::size_t);
  void (*sweep_tracked_orand_b)(unsigned char*, const std::uint32_t*,
                                const std::uint32_t*, const unsigned char*,
                                std::size_t, std::size_t, std::uint8_t*);
};

/// The kernel set for a tier. Tiers not compiled in alias the next
/// lower compiled tier, so indexing any Tier value is always safe.
const KernelTable& table(Tier t);

/// Maps a shipped semiring to its KernelTable members. Semirings
/// without a specialization fall back to the inline scalar loops in the
/// dispatch wrappers below (and never touch the table).
template <typename S>
struct KindTraits;

template <>
struct KindTraits<TropicalD> {
  static constexpr auto kTileRow = &KernelTable::tile_row_minplus_d;
  static constexpr auto kCombineRow = &KernelTable::combine_row_minplus_d;
  static constexpr auto kSweep = &KernelTable::sweep_minplus_d;
  static constexpr auto kSweepTracked = &KernelTable::sweep_tracked_minplus_d;
};
template <>
struct KindTraits<TropicalI> {
  static constexpr auto kTileRow = &KernelTable::tile_row_minplus_i;
  static constexpr auto kCombineRow = &KernelTable::combine_row_minplus_i;
  static constexpr auto kSweep = &KernelTable::sweep_minplus_i;
  static constexpr auto kSweepTracked = &KernelTable::sweep_tracked_minplus_i;
};
template <>
struct KindTraits<BottleneckSR> {
  static constexpr auto kTileRow = &KernelTable::tile_row_maxmin_d;
  static constexpr auto kCombineRow = &KernelTable::combine_row_maxmin_d;
  static constexpr auto kSweep = &KernelTable::sweep_maxmin_d;
  static constexpr auto kSweepTracked = &KernelTable::sweep_tracked_maxmin_d;
};
template <>
struct KindTraits<BooleanSR> {
  static constexpr auto kTileRow = &KernelTable::tile_row_orand_b;
  static constexpr auto kCombineRow = &KernelTable::combine_row_orand_b;
  static constexpr auto kSweep = &KernelTable::sweep_orand_b;
  static constexpr auto kSweepTracked = &KernelTable::sweep_tracked_orand_b;
};

/// True when S has a vector kernel kind (the four shipped semirings).
template <typename S>
concept VectorizableSemiring = requires { KindTraits<S>::kTileRow; };

template <typename S>
inline constexpr bool kVectorizable = VectorizableSemiring<S>;

// --- dispatched entry points -------------------------------------------
// Each reads active_tier() once per call; the scalar tier (and any
// semiring without a kind) takes the inline loop, which is the exact
// pre-SIMD code — autovectorizable by the compiler as before, so the
// scalar tier measures the PR 3 status quo.

/// Blocked-kernel tile row: o[j] = combine(o[j], extend(a, b[j])).
/// Contract for the floating-point kinds: a != S::zero() (the tile
/// loops skip zero aik before reaching here).
template <Semiring S>
inline void tile_row(typename S::Value* o, const typename S::Value* b,
                     typename S::Value a, std::size_t n) {
  if constexpr (kVectorizable<S>) {
    const Tier t = active_tier();
    if (t != Tier::kScalar) {
      (table(t).*KindTraits<S>::kTileRow)(o, b, a, n);
      return;
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    o[j] = S::combine(o[j], S::extend(a, b[j]));
  }
}

/// Fused combine + change detection over one row (square_step's merge
/// pass): dst[j] = combine(dst[j], src[j]); true iff any improves().
template <Semiring S>
inline bool combine_row(typename S::Value* dst, const typename S::Value* src,
                        std::size_t n) {
  if constexpr (kVectorizable<S>) {
    const Tier t = active_tier();
    if (t != Tier::kScalar) {
      return (table(t).*KindTraits<S>::kCombineRow)(dst, src, n) != 0;
    }
  }
  bool changed = false;
  for (std::size_t j = 0; j < n; ++j) {
    if (S::improves(dst[j], src[j])) changed = true;
    dst[j] = S::combine(dst[j], src[j]);
  }
  return changed;
}

/// One bucket pass of the lane-batched query: for every edge, relax
/// `lanes` contiguous lanes of the lane-major dist matrix. lanes <= 64.
template <Semiring S>
inline void bucket_sweep(typename S::Value* dist, const std::uint32_t* from,
                         const std::uint32_t* to,
                         const typename S::Value* value, std::size_t m,
                         std::size_t lanes) {
  if constexpr (kVectorizable<S>) {
    const Tier t = active_tier();
    if (t != Tier::kScalar) {
      (table(t).*KindTraits<S>::kSweep)(dist, from, to, value, m, lanes);
      return;
    }
  }
  using Value = typename S::Value;
  for (std::size_t i = 0; i < m; ++i) {
    const Value* src = dist + static_cast<std::size_t>(from[i]) * lanes;
    Value* dst = dist + static_cast<std::size_t>(to[i]) * lanes;
    const Value w = value[i];
    for (std::size_t l = 0; l < lanes; ++l) {
      dst[l] = S::combine(dst[l], relax_extend<S>(src[l], w));
    }
  }
}

/// bucket_sweep recording per-lane improvement into changed[0..lanes)
/// (OR-semantics; callers zero the array per pass).
template <Semiring S>
inline void bucket_sweep_tracked(typename S::Value* dist,
                                 const std::uint32_t* from,
                                 const std::uint32_t* to,
                                 const typename S::Value* value, std::size_t m,
                                 std::size_t lanes, std::uint8_t* changed) {
  if constexpr (kVectorizable<S>) {
    const Tier t = active_tier();
    if (t != Tier::kScalar) {
      (table(t).*KindTraits<S>::kSweepTracked)(dist, from, to, value, m, lanes,
                                               changed);
      return;
    }
  }
  using Value = typename S::Value;
  for (std::size_t i = 0; i < m; ++i) {
    const Value* src = dist + static_cast<std::size_t>(from[i]) * lanes;
    Value* dst = dist + static_cast<std::size_t>(to[i]) * lanes;
    const Value w = value[i];
    for (std::size_t l = 0; l < lanes; ++l) {
      const Value next = S::combine(dst[l], relax_extend<S>(src[l], w));
      changed[l] |= static_cast<std::uint8_t>(next != dst[l]);
      dst[l] = next;
    }
  }
}

/// True when kernels dispatched right now would run vector code for S.
template <Semiring S>
inline bool vector_dispatch_active() {
  return kVectorizable<S> && active_tier() != Tier::kScalar;
}

}  // namespace sepsp::simd
