// Runtime dispatch of the SIMD kernel set (see simd.hpp).
//
// Tier availability is a compile-time fact (which vector tier TUs the
// build included: the 128-bit tier always, SEPSP_SIMD_HAS_AVX2/AVX512
// from src/semiring/CMakeLists.txt when the compiler takes the flags);
// tier usability is a runtime fact (CPUID). The table below wires every
// vector Tier to the best compiled tier at or below it; detection clamps
// the active tier to what the machine actually runs. The scalar tier has
// no table: the dispatched entry points run simd.hpp's loops.

#include "semiring/simd.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/env.hpp"

namespace sepsp::simd {

namespace kernels {

// Per-tier kernel symbols (defined in simd_<tier>.cpp via
// simd_kernels.inc). Declarations stamped per kind and suffix.
#define SEPSP_SIMD_DECLARE_KIND(KIND, V, SUF)     \
  ProductKernel<V> product_##KIND##_##SUF;        \
  FwPanelKernel<V> fw_panel_##KIND##_##SUF;       \
  CombineRowKernel<V> combine_row_##KIND##_##SUF; \
  SweepKernel<V> sweep_##KIND##_##SUF;
#define SEPSP_SIMD_DECLARE_TIER(SUF)                 \
  SEPSP_SIMD_DECLARE_KIND(minplus_d, double, SUF)    \
  SEPSP_SIMD_DECLARE_KIND(minplus_i, long long, SUF) \
  SEPSP_SIMD_DECLARE_KIND(maxmin_d, double, SUF)     \
  SEPSP_SIMD_DECLARE_KIND(orand_b, unsigned char, SUF)

SEPSP_SIMD_DECLARE_TIER(v128)
#if defined(SEPSP_SIMD_HAS_AVX2)
SEPSP_SIMD_DECLARE_TIER(avx2)
#endif
#if defined(SEPSP_SIMD_HAS_AVX512)
SEPSP_SIMD_DECLARE_TIER(avx512)
#endif
#undef SEPSP_SIMD_DECLARE_TIER
#undef SEPSP_SIMD_DECLARE_KIND

}  // namespace kernels

namespace {

#define SEPSP_SIMD_KIND_ENTRIES(KIND, SUF)                             \
  &kernels::product_##KIND##_##SUF, &kernels::fw_panel_##KIND##_##SUF, \
      &kernels::combine_row_##KIND##_##SUF, &kernels::sweep_##KIND##_##SUF
#define SEPSP_SIMD_TIER_TABLE(SUF)               \
  KernelTable {                                  \
    SEPSP_SIMD_KIND_ENTRIES(minplus_d, SUF),     \
        SEPSP_SIMD_KIND_ENTRIES(minplus_i, SUF), \
        SEPSP_SIMD_KIND_ENTRIES(maxmin_d, SUF),  \
        SEPSP_SIMD_KIND_ENTRIES(orand_b, SUF)    \
  }

// Indexed by Tier - 1; tiers not compiled in alias the best lower tier.
const KernelTable kTables[3] = {
    SEPSP_SIMD_TIER_TABLE(v128),
#if defined(SEPSP_SIMD_HAS_AVX2)
    SEPSP_SIMD_TIER_TABLE(avx2),
#else
    SEPSP_SIMD_TIER_TABLE(v128),
#endif
#if defined(SEPSP_SIMD_HAS_AVX512)
    SEPSP_SIMD_TIER_TABLE(avx512),
#elif defined(SEPSP_SIMD_HAS_AVX2)
    SEPSP_SIMD_TIER_TABLE(avx2),
#else
    SEPSP_SIMD_TIER_TABLE(v128),
#endif
};
#undef SEPSP_SIMD_TIER_TABLE
#undef SEPSP_SIMD_KIND_ENTRIES

constexpr Tier min_tier(Tier a, Tier b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

/// Active-tier slot: -1 = not yet resolved. Resolved lazily on first
/// kernel dispatch (detection + SEPSP_FORCE_ISA), overridable any time
/// via force_tier().
std::atomic<int> g_active{-1};

void publish_tier_gauge(Tier t) {
  SEPSP_OBS_ONLY(obs::gauge("simd.tier").set(static_cast<std::int64_t>(t));)
  (void)t;
}

Tier initial_tier() {
  Tier t = detected_tier();
  const std::string forced = env_string("SEPSP_FORCE_ISA", "");
  Tier want;
  if (!forced.empty() && parse_tier(forced, &want)) {
    // Forcing can only lower: a tier the machine cannot run (or the
    // build does not contain) clamps down to the best available.
    t = min_tier(t, want);
  }
  return t;
}

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse:
      return "sse";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool parse_tier(std::string_view name, Tier* out) {
  if (name == "scalar") {
    *out = Tier::kScalar;
  } else if (name == "sse" || name == "v128") {
    *out = Tier::kSse;
  } else if (name == "avx2") {
    *out = Tier::kAvx2;
  } else if (name == "avx512") {
    *out = Tier::kAvx512;
  } else {
    return false;
  }
  return true;
}

Tier compiled_tier() {
#if defined(SEPSP_SIMD_HAS_AVX512)
  return Tier::kAvx512;
#elif defined(SEPSP_SIMD_HAS_AVX2)
  return Tier::kAvx2;
#else
  return Tier::kSse;
#endif
}

Tier detected_tier() {
  static const Tier resolved = [] {
    // Generic 128-bit vectors are always runnable (base ABI on x86-64,
    // NEON or compiler-synthesized elsewhere); wider tiers need CPUID.
    Tier hw = Tier::kSse;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl")) {
      hw = Tier::kAvx512;
    } else if (__builtin_cpu_supports("avx2")) {
      hw = Tier::kAvx2;
    }
#endif
    return min_tier(hw, compiled_tier());
  }();
  return resolved;
}

Tier active_tier() {
  int v = g_active.load(std::memory_order_relaxed);
  if (v < 0) {
    const Tier t = initial_tier();
    int expected = -1;
    if (g_active.compare_exchange_strong(expected, static_cast<int>(t),
                                         std::memory_order_relaxed)) {
      publish_tier_gauge(t);
      return t;
    }
    return static_cast<Tier>(expected);
  }
  return static_cast<Tier>(v);
}

Tier force_tier(Tier t) {
  const Tier clamped = min_tier(t, detected_tier());
  g_active.store(static_cast<int>(clamped), std::memory_order_relaxed);
  publish_tier_gauge(clamped);
  return clamped;
}

const KernelTable& table(Tier t) {
  SEPSP_CHECK(t != Tier::kScalar);
  return kTables[static_cast<std::size_t>(t) - 1];
}

}  // namespace sepsp::simd
